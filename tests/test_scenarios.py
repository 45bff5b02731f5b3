"""Tests for ground-truth generators and scenario configuration."""

import numpy as np
import pytest

from trackfuse import (
    KNOT_MPS,
    ConfigError,
    EkfTracker,
    ImmTracker,
    NcvTruth,
    ScenarioConfig,
    SineTruth,
    bearing_sensor,
    ncv_truth_states,
    run_scenario,
    sine_truth_states,
)

from oracles import ref_ncv_truth_states


def _ncv_truth(q=0.5, dims=3):
    return NcvTruth(q=np.full(dims, q),
                    initial_position=np.zeros(dims) + 10.0,
                    initial_velocity=np.full(dims, 2.0))


def test_knot_conversion_constant():
    assert KNOT_MPS == pytest.approx(0.514444, abs=1e-9)


def test_ncv_truth_shapes_and_initial_row(rng):
    truth = _ncv_truth()
    states = ncv_truth_states(truth, rng.standard_normal((10, 6)), dt=2.0)
    assert states.shape == (11, 6)
    np.testing.assert_allclose(states[0], [10.0, 10.0, 10.0, 2.0, 2.0, 2.0],
                               atol=0)


def test_ncv_truth_with_zero_noise_is_straight_line():
    truth = NcvTruth(q=np.zeros(2), initial_position=np.array([0.0, 5.0]),
                     initial_velocity=np.array([1.0, -2.0]))
    states = ncv_truth_states(truth, np.random.default_rng(0).standard_normal((5, 4)),
                              dt=2.0)
    for k in range(6):
        np.testing.assert_allclose(states[k, :2], [2.0 * k, 5.0 - 4.0 * k],
                                   atol=1e-12)
        np.testing.assert_allclose(states[k, 2:], [1.0, -2.0], atol=1e-12)


def test_a_stack_of_ncv_truths_gives_each_run_its_own_bits():
    # The runs step as one [R, 2d] recursion; each keeps the bits of the
    # one-step-at-a-time reference fed the same draws.
    truth = _ncv_truth(q=2.0)
    white = np.random.default_rng(5).standard_normal((4, 30, 6))
    stacked = ncv_truth_states(truth, white, dt=1.5)
    assert stacked.shape == (4, 31, 6)
    for r in range(4):
        replay = np.random.default_rng(5)
        replay.standard_normal((r, 30, 6))
        want = ref_ncv_truth_states(truth, 30, 1.5, replay)
        assert stacked[r].tobytes() == want.tobytes()
        assert ncv_truth_states(truth, white[r], dt=1.5).tobytes() == want.tobytes()


def test_ncv_truth_increment_covariance_matches_process_noise():
    from trackfuse import ncv_matrices

    dt, q = 2.0, 0.5
    truth = NcvTruth(q=np.array([q]), initial_position=np.zeros(1),
                     initial_velocity=np.zeros(1))
    states = ncv_truth_states(truth, np.random.default_rng(3).standard_normal((20000, 2)),
                              dt=dt)
    f, q_mat = ncv_matrices(dt, q, dims=1)
    increments = states[1:] - states[:-1] @ f.T
    sample_cov = np.cov(increments.T, bias=True)
    # Entrywise agreement within a few Monte Carlo standard errors.
    tol = 4.0 * np.sqrt(2.0 / 20000.0)
    np.testing.assert_allclose(sample_cov, q_mat, rtol=tol, atol=tol * dt)


def test_sine_truth_straight_line_when_flat():
    truth = SineTruth(start=np.array([3.0, 4.0]), speed_mps=2.0,
                      amplitude_m=0.0, wavelength_m=1000.0, rotation_rad=0.0)
    states = sine_truth_states(truth, n_steps=5, dt=1.5)
    for k in range(6):
        np.testing.assert_allclose(states[k], [3.0 + 3.0 * k, 4.0, 2.0, 0.0],
                                   atol=1e-9)


def test_sine_truth_rotation_turns_the_path():
    truth = SineTruth(start=np.zeros(2), speed_mps=1.0, amplitude_m=0.0,
                      wavelength_m=500.0, rotation_rad=np.pi / 2.0)
    states = sine_truth_states(truth, n_steps=4, dt=1.0)
    np.testing.assert_allclose(states[-1, :2], [0.0, 4.0], atol=1e-9)
    np.testing.assert_allclose(states[-1, 2:], [0.0, 1.0], atol=1e-9)


def test_sine_truth_holds_constant_ground_speed():
    truth = SineTruth(start=np.array([150.0, 150.0]),
                      speed_mps=16.0 * KNOT_MPS, amplitude_m=200.0,
                      wavelength_m=1500.0, rotation_rad=np.deg2rad(45.0))
    dt = 1.0
    states = sine_truth_states(truth, n_steps=300, dt=dt)
    speeds = np.linalg.norm(states[:, 2:], axis=1)
    np.testing.assert_allclose(speeds, truth.speed_mps, rtol=1e-12)
    # Chord lengths between steps match the arc budget; a naive (non arc
    # length) parameterization would wobble by tens of percent at this
    # amplitude-to-wavelength ratio.
    chords = np.linalg.norm(np.diff(states[:, :2], axis=0), axis=1)
    np.testing.assert_allclose(chords, truth.speed_mps * dt, rtol=5e-3)


def test_sine_truth_velocity_consistent_with_position_differences():
    truth = SineTruth(start=np.zeros(2), speed_mps=8.0, amplitude_m=200.0,
                      wavelength_m=1500.0, rotation_rad=0.3)
    dt = 1.0
    states = sine_truth_states(truth, n_steps=200, dt=dt)
    central = (states[2:, :2] - states[:-2, :2]) / (2.0 * dt)
    np.testing.assert_allclose(central, states[1:-1, 2:], rtol=0.01,
                               atol=0.02 * truth.speed_mps)


def test_sine_truth_is_deterministic():
    truth = SineTruth(start=np.zeros(2), speed_mps=5.0, amplitude_m=50.0,
                      wavelength_m=1500.0, rotation_rad=0.7)
    a = sine_truth_states(truth, n_steps=50, dt=2.0)
    b = sine_truth_states(truth, n_steps=50, dt=2.0)
    np.testing.assert_array_equal(a, b)


def test_tracker_setting_defaults():
    ekf = EkfTracker(q=np.array([0.5, 0.5, 0.001]))
    assert ekf.init_pos_std == 100.0
    assert ekf.init_vel_std == 10.0
    imm = ImmTracker(q_ncv=0.01, q_nca=0.001,
                     transition=[[0.8, 0.2], [0.8, 0.2]])
    assert imm.pad_var == 1.0
    assert imm.init_acc_std == 1.0
    assert imm.transition.shape == (2, 2)


def _minimal_config(**overrides):
    base = dict(
        name="toy",
        duration_s=20.0,
        dt_s=2.0,
        truth=_ncv_truth(dims=2),
        sensors=(bearing_sensor([0.0, 0.0], 0.02),),
        tracker=EkfTracker(q=np.array([0.5, 0.5])),
        strategies=("naive",),
        runs=2,
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_scenario_config_step_count_and_defaults():
    cfg = _minimal_config()
    assert cfg.n_steps == 10
    assert cfg.fusion_every == 2
    assert cfg.feedback is False
    assert cfg.omega == 0.5
    assert cfg.track_loss_m == 500.0
    assert cfg.nees_sided == 2


def test_scenario_config_validation():
    # A ScenarioConfig only holds values; run_scenario checks them, with the
    # rest of the study, before any run starts.
    with pytest.raises(ConfigError, match="fusion_every must be an integer of at least 1, got 0"):
        run_scenario(_minimal_config(fusion_every=0))
    with pytest.raises(ConfigError, match="nees_sided must be 1 or 2"):
        run_scenario(_minimal_config(nees_sided=3))
