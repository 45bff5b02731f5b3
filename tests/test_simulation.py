"""Tests for the Monte Carlo simulation layer.

The end-to-end checks replay the documented random-number draw order (truth
states, per-sensor initial perturbations, central perturbation, then
measurement noise step by step) and rebuild the filtering and fusion
pipeline from textbook equations, so a report mismatch points at the
orchestration rather than at the primitives tested elsewhere.
"""

import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2

from trackfuse import (
    ConfigError,
    GaussianDensity,
    GaussianMixture,
    ImmTracker,
    MetricsReport,
    NcvTruth,
    ScenarioConfig,
    SineTruth,
    EkfTracker,
    bearing_sensor,
    compute_nees,
    moment_match,
    ncv_matrices,
    nees_bounds,
    range_az_el_sensor,
    run_scenario,
    track_loss_rate,
    load_preset,
    wrap_angle,
)
from trackfuse import simulation
from trackfuse.simulation import CSV_HEADER

from oracles import ref_ncv_truth_states


# ---------------------------------------------------------------------------
# nees_bounds


@pytest.mark.parametrize("n_runs,dim", [(1, 4), (50, 4), (100, 6)])
def test_nees_bounds_two_sided_chi2(n_runs, dim):
    lo, hi = nees_bounds(n_runs, dim)
    dof = n_runs * dim
    assert lo == pytest.approx(chi2.ppf(0.025, dof) / n_runs)
    assert hi == pytest.approx(chi2.ppf(0.975, dof) / n_runs)
    assert lo < dim < hi


def test_nees_bounds_one_sided():
    lo, hi = nees_bounds(50, 4, sided=1, alpha=0.05)
    assert lo == 0.0
    assert hi == pytest.approx(chi2.ppf(0.95, 200) / 50)


def test_nees_bounds_tighten_with_more_runs():
    lo_few, hi_few = nees_bounds(10, 4)
    lo_many, hi_many = nees_bounds(1000, 4)
    assert lo_few < lo_many < 4 < hi_many < hi_few


@pytest.mark.parametrize("kwargs, match", [
    ({"sided": 0}, "sided"),
    ({"sided": 3}, "sided"),
    ({"n_runs": 0}, "at least one run"),
    ({"n_runs": -2}, "at least one run"),
    ({"dim": 0}, "at least one run"),
    ({"alpha": 0.0}, "alpha"),
    ({"alpha": 1.0}, "alpha"),
    ({"alpha": 1.5}, "alpha"),
    ({"alpha": -0.05}, "alpha"),
    ({"alpha": float("nan")}, "alpha"),
])
def test_nees_bounds_reject_bad_arguments(kwargs, match):
    """Before the checks, ``sided`` 0 or 3 gave one-sided bounds, no runs gave
    ``(nan, nan)`` and ``alpha=1.5`` gave a lower bound above the upper one."""
    args = dict(n_runs=50, dim=4, sided=2, alpha=0.05) | kwargs
    with pytest.raises(ValueError, match=match):
        nees_bounds(**args)


def test_nees_bounds_equal_chi2_ppf_exactly():
    # nees_bounds evaluates the chi-square quantile by scipy.stats' own
    # formula without importing scipy.stats; the bounds must keep their bits.
    for n_runs in (1, 2, 7, 50, 100, 200):
        for dim in (1, 2, 4, 6):
            dof = n_runs * dim
            for alpha in (0.01, 0.05, 0.1, 0.5):
                assert nees_bounds(n_runs, dim, 2, alpha) == (
                    float(chi2.ppf(alpha / 2.0, dof)) / n_runs,
                    float(chi2.ppf(1.0 - alpha / 2.0, dof)) / n_runs)
                assert nees_bounds(n_runs, dim, 1, alpha) == (
                    0.0, float(chi2.ppf(1.0 - alpha, dof)) / n_runs)


_NO_SCIPY = """
import json, sys
import numpy as np
import trackfuse
from trackfuse import GaussianDensity, GaussianMixture, density_to_dict, fuse_pair
from trackfuse.cli import main
from trackfuse.config import PRESET_NAMES

for name in PRESET_NAMES:
    trackfuse.load_preset(name)
gaussians = (GaussianDensity([1.0, 3.0], 100.0 * np.eye(2)),
             GaussianDensity([7.0, 10.0], 50.0 * np.eye(2)))
mixtures = (GaussianMixture([0.6, 0.4], (GaussianDensity([0.0], [[2.0]]),
                                         GaussianDensity([4.0], [[3.0]]))),
            GaussianMixture([0.5, 0.5], (GaussianDensity([1.0], [[2.5]]),
                                         GaussianDensity([3.0], [[1.5]]))))
for strategy in ("naive", "gmd", "amd", "pcf", "hmd"):
    for a, b in (gaussians, mixtures):
        fuse_pair(a, b, strategy, 0.4)
paths = sys.argv[1:]
for path, density in zip(paths, mixtures):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(density_to_dict(density), fh)
assert main(["fuse", *paths, "--strategy", "hmd"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))),
      file=sys.stderr)
"""


def test_importing_loading_and_fusing_import_no_scipy(tmp_path):
    """The package, every preset, every fusion rule on Gaussian and mixture
    operands and ``trackfuse fuse`` need numpy alone; scipy.special loads
    with the first report, in ``nees_bounds``."""
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY, *paths], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stderr.strip().splitlines()[-1]) == []


# ---------------------------------------------------------------------------
# compute_nees


def test_compute_nees_matches_hand_formula(rng):
    mean = np.array([1.0, -2.0, 0.5])
    cov = np.diag([4.0, 9.0, 1.0])
    truth = np.array([0.0, 1.0, 1.5])
    expected = float((mean - truth) @ np.linalg.inv(cov) @ (mean - truth))
    assert compute_nees(GaussianDensity(mean, cov), truth) == pytest.approx(expected)


def test_compute_nees_truncates_longer_truth():
    dens = GaussianDensity([2.0, 3.0], np.eye(2))
    truth = np.array([1.0, 1.0, 99.0, -99.0])
    assert compute_nees(dens, truth) == pytest.approx(1.0 + 4.0)


def test_compute_nees_moment_matches_mixtures(rng):
    comps = (GaussianDensity([0.0, 0.0], np.eye(2)),
             GaussianDensity([3.0, -1.0], 2.0 * np.eye(2)))
    mix = GaussianMixture(np.array([0.3, 0.7]), comps)
    truth = np.array([1.0, 1.0])
    assert compute_nees(mix, truth) == pytest.approx(
        compute_nees(moment_match(mix), truth))


# ---------------------------------------------------------------------------
# track_loss_rate


def test_track_loss_rate_counts_threshold_as_lost():
    assert track_loss_rate([1.0, 2.0, 3.0], 2.0) == pytest.approx(2.0 / 3.0)
    assert track_loss_rate([1.0, 1.9999], 2.0) == 0.0
    assert track_loss_rate([5.0, np.inf], 2.0) == 1.0


def test_track_loss_rate_counts_a_nan_error_as_lost():
    assert track_loss_rate([np.nan, 1.0], 500.0) == 0.5


@pytest.mark.parametrize("errors,tau", [([], 1.0), ([1.0], 0.0), ([1.0], -3.0),
                                        ([1.0], np.nan)])
def test_track_loss_rate_rejects_bad_input(errors, tau):
    with pytest.raises(ValueError):
        track_loss_rate(errors, tau)


def test_a_run_with_a_nan_final_error_is_lost_and_excluded():
    # The loss rate and the exclusions read one rule: a run whose final
    # position error is NaN is lost, and the aggregates keep the other run.
    cfg = _toy_config(["naive"])
    n_fuse = cfg.n_steps // cfg.fusion_every
    scores = np.ones((3, 2, n_fuse))
    scores[0, 0, -1] = np.nan
    scores[:, 1] = 4.0
    report = simulation._report(cfg, {"naive": (scores, 0.0, 0)})
    summary = report.summary_dict(include_timing=False)
    assert summary["track_loss"]["naive"] == 0.5
    assert summary["excluded_runs"]["naive"] == 1
    np.testing.assert_array_equal(report.metrics["naive"].rmse_pos, np.full(n_fuse, 2.0))


# ---------------------------------------------------------------------------
# End-to-end scenario oracle

_BEARING_SENSORS = (bearing_sensor([0.0, 0.0], 2e-3),
                    bearing_sensor([4000.0, 500.0], 2e-3))


def _toy_config(strategies, **overrides):
    base = dict(
        name="toy",
        duration_s=12.0,
        dt_s=1.0,
        truth=NcvTruth(q=[0.1, 0.1], initial_position=[1500.0, 2500.0],
                       initial_velocity=[10.0, 5.0]),
        sensors=_BEARING_SENSORS,
        tracker=EkfTracker(q=[0.5, 0.5]),
        strategies=tuple(strategies),
        runs=1,
        seed=42,
        fusion_every=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _replay_draws(cfg, run_idx):
    """Replay the documented per-run draw order and return the raw material."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed,
                                                       spawn_key=(run_idx,)))
    states = ref_ncv_truth_states(cfg.truth, cfg.n_steps, cfg.dt_s, rng)
    init_cov = np.diag([cfg.tracker.init_pos_std ** 2] * 2
                       + [cfg.tracker.init_vel_std ** 2] * 2)
    chol = np.linalg.cholesky(init_cov)
    perts = [chol @ rng.standard_normal(4) for _ in cfg.sensors]
    central_pert = chol @ rng.standard_normal(4)
    noise_chols = [np.linalg.cholesky(s.noise_cov) for s in cfg.sensors]
    meas = []
    for k in range(1, cfg.n_steps + 1):
        row = []
        for sensor, nc in zip(cfg.sensors, noise_chols):
            z = sensor.measure(states[k]) + nc @ rng.standard_normal(sensor.meas_dim)
            row.append(np.array([wrap_angle(z[0])]))
        meas.append(row)
    return states, init_cov, perts, central_pert, meas


def test_draws_take_the_ncv_increments_even_when_noise_free():
    """The truth's per-step draws happen regardless of q, keeping each run's
    later draws (perturbations, measurement noise) aligned."""
    cfg = _toy_config(["naive"])
    cfg = dataclasses.replace(cfg, truth=dataclasses.replace(cfg.truth, q=np.zeros(2)))
    truth, perts, white = simulation._draws(cfg, 0, 4)
    fresh = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    assert truth.tobytes() == fresh.standard_normal((cfg.n_steps, 4)).tobytes()
    assert perts.tobytes() == fresh.standard_normal((len(cfg.sensors) + 1, 4)).tobytes()
    assert white.tobytes() == fresh.standard_normal((cfg.n_steps, 2)).tobytes()


@pytest.mark.parametrize("runs", [1, 4])
def test_an_ncv_study_steps_every_run_s_truth_in_one_recursion(monkeypatch, runs):
    calls = []
    ncv = simulation.ncv_truth_states

    def counted(truth, white, dt):
        calls.append(np.shape(white))
        return ncv(truth, white, dt)

    monkeypatch.setattr(simulation, "ncv_truth_states", counted)
    cfg = load_preset("scenario1", runs=runs, duration_s=10 * load_preset("scenario1").dt_s)
    run_scenario(cfg)
    assert calls == [(runs, cfg.n_steps, 6)]


@pytest.mark.parametrize("seed", range(5))
def test_bulk_measurement_draw_equals_the_step_by_step_draws(seed):
    # One standard_normal call per run for every step and sensor gives the
    # bits of the documented draw order (step by step, sensor by sensor)
    # because numpy's Generator draws normals one value at a time; each
    # sensor kind then measures every run, step and sensor in one call. The
    # sensors have 3, 1 and 3 measurement entries, so the chunks differ in
    # size, and the two radars of one kind are interleaved with the bearing.
    sensors = [range_az_el_sensor([0.0, 0.0, 0.0], 10.0, 0.02),
               bearing_sensor([-300.0, 500.0], 0.05),
               range_az_el_sensor([2000.0, -1000.0, 10.0], 5.0, 0.01, 0.03)]
    cfg = dataclasses.replace(_toy_config(["naive"]), sensors=sensors)
    rng = np.random.default_rng(seed)
    runs = 2
    states = 1e3 * rng.standard_normal((runs, cfg.n_steps + 1, 6))
    draw = np.random.default_rng(seed)
    white = np.stack([draw.standard_normal((cfg.n_steps, 7)) for _ in range(runs)])
    kinds = simulation._measurements(cfg, states, white)
    assert [idx for idx, _, _ in kinds] == [[0, 2], [1]]
    got = {s: z[:, :, j] for idx, _, z in kinds for j, s in enumerate(idx)}
    replay = np.random.default_rng(seed)
    chols = [np.linalg.cholesky(sensor.noise_cov) for sensor in sensors]
    for r in range(runs):
        for k in range(1, cfg.n_steps + 1):
            for s, (sensor, chol) in enumerate(zip(sensors, chols)):
                want = (sensor.measure(states[r, k])
                        + chol @ replay.standard_normal(sensor.meas_dim))
                for idx in sensor.angle_indices:
                    want[idx] = wrap_angle(want[idx])
                assert got[s][r, k - 1].tobytes() == want.tobytes()


@pytest.mark.parametrize("preset,sensors,kinds", [
    # scenario2: the deterministic sine path, two bearings of one kind.
    ("scenario2", None, [("bearing", (2, 2))]),
    # The NCV truth with the radars interleaved with a bearing.
    ("scenario1", (range_az_el_sensor([-3000.0, 4000.0, 0.0], 100.0, 0.03),
                   bearing_sensor([-2000.0, -1500.0], 2e-3),
                   range_az_el_sensor([12000.0, 8000.0, 0.0], 100.0, 0.03)),
     [("range_az_el", (2, 3)), ("bearing", (1, 2))]),
])
def test_each_study_draws_the_sine_path_once_and_measures_each_kind_in_one_call(
        monkeypatch, preset, sensors, kinds):
    cfg = load_preset(preset, runs=3, duration_s=12.0 * load_preset(preset).dt_s)
    if sensors:
        cfg = dataclasses.replace(cfg, sensors=sensors, strategies=("centralized", "hmd"))
    paths, measured = [], []
    sine, measure = simulation.sine_truth_states, simulation.MeasurementModel.measure

    def counted_sine(*args):
        paths.append(args)
        return sine(*args)

    def counted_measure(model, state):
        # The filters measure [R, S, n] or [R, n] stacks, the draws [R, n_steps, 1, n].
        if np.ndim(state) == 4:
            measured.append((model.kind, model.position.shape, np.shape(state)))
        return measure(model, state)

    monkeypatch.setattr(simulation, "sine_truth_states", counted_sine)
    monkeypatch.setattr(simulation.MeasurementModel, "measure", counted_measure)
    truth_dim = 4 if preset == "scenario2" else 6
    for runs in (3, 2, 1):
        paths.clear()
        measured.clear()
        run_scenario(dataclasses.replace(cfg, runs=runs))
        assert len(paths) == (preset == "scenario2")
        assert measured == [(kind, shape, (runs, cfg.n_steps, 1, truth_dim))
                            for kind, shape in kinds]


def test_an_ekf_study_builds_no_checked_mixture(monkeypatch):
    """Gaussian hmd matches its denominator pair from the stacked operands, so
    no mixture of a scenario1 study goes through the constructor's checks."""
    built = []
    post_init = GaussianMixture.__post_init__

    def counted(mixture):
        built.append(mixture)
        post_init(mixture)

    monkeypatch.setattr(GaussianMixture, "__post_init__", counted)
    run_scenario(load_preset("scenario1", runs=3, duration_s=40.0))
    assert built == []


def _textbook_update(mean, cov, sensor, z):
    h = sensor.jacobian(mean, mean.size)
    innov = wrap_angle(z - sensor.measure(mean))
    s = h @ cov @ h.T + sensor.noise_cov
    gain = cov @ h.T @ np.linalg.inv(s)
    return mean + gain @ innov, cov - gain @ s @ gain.T


def _scores_at(mean, cov, truth):
    pos = float(np.sum((mean[:2] - truth[:2]) ** 2))
    vel = float(np.sum((mean[2:4] - truth[2:4]) ** 2))
    err = mean - truth[:4]
    return pos, vel, float(err @ np.linalg.solve(cov, err))


def test_centralized_strategy_matches_textbook_filter():
    cfg = _toy_config(["centralized"])
    report = run_scenario(cfg)
    states, init_cov, _, central_pert, meas = _replay_draws(cfg, 0)

    f, q = ncv_matrices(cfg.dt_s, cfg.tracker.q, dims=2)
    mean = states[0] + central_pert
    cov = init_cov.copy()
    pos_sq, vel_sq, nees = [], [], []
    for k in range(1, cfg.n_steps + 1):
        mean, cov = f @ mean, f @ cov @ f.T + q
        for sensor, z in zip(cfg.sensors, meas[k - 1]):
            mean, cov = _textbook_update(mean, cov, sensor, z)
        if k % cfg.fusion_every == 0:
            p, v, n = _scores_at(mean, cov, states[k])
            pos_sq.append(p)
            vel_sq.append(v)
            nees.append(n)

    m = report.metrics["centralized"]
    np.testing.assert_allclose(m.rmse_pos, np.sqrt(pos_sq), rtol=1e-9)
    np.testing.assert_allclose(m.rmse_vel, np.sqrt(vel_sq), rtol=1e-9)
    np.testing.assert_allclose(m.nees, nees, rtol=1e-9)
    assert m.track_loss_rate == 0.0
    np.testing.assert_array_equal(report.steps, [3, 6, 9, 12])
    np.testing.assert_allclose(report.times, [3.0, 6.0, 9.0, 12.0])
    lo, hi = nees_bounds(1, 4)
    assert m.nees_lo == pytest.approx(lo)
    assert m.nees_hi == pytest.approx(hi)


def test_distributed_naive_matches_hand_rolled_pipeline():
    cfg = _toy_config(["naive"])
    report = run_scenario(cfg)
    states, init_cov, perts, _, meas = _replay_draws(cfg, 0)

    f, q = ncv_matrices(cfg.dt_s, cfg.tracker.q, dims=2)
    tracks = [(states[0] + p, init_cov.copy()) for p in perts]
    center = None
    pos_sq, vel_sq, nees = [], [], []
    for k in range(1, cfg.n_steps + 1):
        stepped = []
        for (mean, cov), sensor, z in zip(tracks, cfg.sensors, meas[k - 1]):
            mean, cov = f @ mean, f @ cov @ f.T + q
            stepped.append(_textbook_update(mean, cov, sensor, z))
        tracks = stepped
        if k % cfg.fusion_every == 0:
            operands = list(tracks)
            if center is not None:
                c_mean, c_cov = center
                for _ in range(cfg.fusion_every):
                    c_mean, c_cov = f @ c_mean, f @ c_cov @ f.T + q
                operands = [(c_mean, c_cov)] + operands
            # The naive rule multiplies the densities: information adds.
            infos = [np.linalg.inv(c) for _, c in operands]
            fused_cov = np.linalg.inv(np.sum(infos, axis=0))
            fused_mean = fused_cov @ np.sum(
                [i @ m for i, (m, _) in zip(infos, operands)], axis=0)
            center = (fused_mean, fused_cov)
            p, v, n = _scores_at(fused_mean, fused_cov, states[k])
            pos_sq.append(p)
            vel_sq.append(v)
            nees.append(n)

    m = report.metrics["naive"]
    np.testing.assert_allclose(m.rmse_pos, np.sqrt(pos_sq), rtol=1e-8)
    np.testing.assert_allclose(m.rmse_vel, np.sqrt(vel_sq), rtol=1e-8)
    np.testing.assert_allclose(m.nees, nees, rtol=1e-8)


def test_strategies_share_local_filtering():
    joint = run_scenario(_toy_config(["naive", "gmd"]))
    alone = run_scenario(_toy_config(["gmd"]))
    np.testing.assert_array_equal(joint.metrics["gmd"].rmse_pos,
                                  alone.metrics["gmd"].rmse_pos)
    np.testing.assert_array_equal(joint.metrics["gmd"].nees,
                                  alone.metrics["gmd"].nees)


# ---------------------------------------------------------------------------
# Report formatting


def test_csv_text_layout():
    cfg = _toy_config(["centralized", "naive"], runs=2)
    report = run_scenario(cfg)
    lines = report.csv_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "step,time_s,strategy,rmse_pos_m,rmse_vel_mps,nees,nees_lo,nees_hi"
    assert len(lines) == 1 + len(report.steps) * 2
    first = lines[1].split(",")
    assert first[0] == "3"
    assert float(first[1]) == pytest.approx(3.0)
    assert first[2] == "centralized"
    for field in first[3:]:
        assert np.isfinite(float(field))
    # Rows iterate steps in the outer loop and strategies in the inner loop.
    assert lines[2].split(",")[2] == "naive"
    assert lines[3].split(",")[0] == "6"


def test_summary_dict_contents():
    cfg = _toy_config(["naive"], runs=2)
    report = run_scenario(cfg)
    summary = report.summary_dict()
    assert summary["scenario"] == "toy"
    assert summary["runs"] == 2
    assert summary["fusion_steps"] == [3, 6, 9, 12]
    assert set(summary["track_loss"]) == {"naive"}
    assert summary["excluded_runs"]["naive"] == 0
    tail = report.metrics["naive"].rmse_pos[-20:]
    assert summary["steady_state_rmse_pos_m"]["naive"] == pytest.approx(
        np.nanmean(tail))
    assert summary["timing"]["naive"] > 0.0
    bare = report.summary_dict(include_timing=False)
    assert "timing" not in bare


def test_all_runs_lost_reported_as_nan():
    cfg = _toy_config(["naive"], track_loss_m=1e-6)
    report = run_scenario(cfg)
    m = report.metrics["naive"]
    assert m.track_loss_rate == 1.0
    assert np.isnan(m.rmse_pos).all()
    assert np.isnan(m.nees_lo) and np.isnan(m.nees_hi)
    np.testing.assert_array_equal(m.excluded, np.ones(4, dtype=int))
    row = report.csv_text().strip().split("\n")[1].split(",")
    assert row[3] == "nan"
    assert report.summary_dict()["steady_state_rmse_pos_m"]["naive"] is None


# ---------------------------------------------------------------------------
# Determinism


def test_same_seed_reproduces_report_byte_for_byte():
    cfg = _toy_config(["naive", "gmd"], runs=3)
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    assert first.csv_text() == second.csv_text()
    assert first.summary_dict(include_timing=False) == \
        second.summary_dict(include_timing=False)


# ---------------------------------------------------------------------------
# Configuration guards


def _imm_tracker():
    return ImmTracker(q_ncv=0.5, q_nca=4.0,
                      transition=np.array([[0.9, 0.1], [0.2, 0.8]]))


def test_rejects_empty_sensor_or_strategy_lists():
    with pytest.raises(ConfigError, match="sensor"):
        run_scenario(_toy_config(["naive"], sensors=()))
    with pytest.raises(ConfigError, match="strategy"):
        run_scenario(_toy_config([]))


def test_rejects_imm_on_non_planar_scenario():
    radar = range_az_el_sensor([0.0, 0.0, 0.0], 10.0, 1e-3)
    cfg = _toy_config(["naive"], sensors=(radar,), tracker=_imm_tracker(),
                      truth=NcvTruth(q=[0.1] * 3,
                                     initial_position=[1500.0, 2500.0, 100.0],
                                     initial_velocity=[10.0, 5.0, 0.0]))
    with pytest.raises(ConfigError, match="planar"):
        run_scenario(cfg)


def test_rejects_a_study_without_a_fusion_step():
    with pytest.raises(ConfigError, match="no fusion step"):
        run_scenario(_toy_config(["centralized", "naive"], duration_s=2.0,
                                 fusion_every=3))


def test_rejects_feedback_without_imm():
    with pytest.raises(ConfigError, match="feedback"):
        run_scenario(_toy_config(["naive"], feedback=True))


def test_rejects_mixture_fusion_with_three_sensors():
    three = _BEARING_SENSORS + (bearing_sensor([2000.0, -3000.0], 2e-3),)
    cfg = _toy_config(["hmd"], sensors=three, tracker=_imm_tracker(),
                      duration_s=2.0, fusion_every=2)
    with pytest.raises(ConfigError, match="two sensors"):
        run_scenario(cfg)


@pytest.fixture
def no_run_starts(monkeypatch):
    """Fail the test if ``run_scenario`` gets as far as starting a run."""
    def started(*args):
        raise AssertionError("a run started before the configuration was rejected")
    # Every run draws its randomness first.
    monkeypatch.setattr(simulation, "_draws", started)


# The [monte_carlo] counts, set through the API: 1.5 used to fail in the
# first run with a TypeError, and a seed of -1 in its SeedSequence.
@pytest.mark.parametrize("key,value,domain", [
    ("runs", 0, "an integer of at least 1"),
    ("runs", 1.5, "an integer of at least 1"),
    ("runs", True, "an integer of at least 1"),
    ("seed", -1, "a non-negative integer"),
])
def test_rejects_a_study_without_runs(no_run_starts, key, value, domain):
    cfg = dataclasses.replace(load_preset("scenario1"), **{key: value})
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be {domain}, got {value}")):
        run_scenario(cfg)


_RADAR = range_az_el_sensor([0.0, 0.0, 0.0], 10.0, 0.01)
_BEARING = bearing_sensor([0.0, 0.0], 1e-3)


@pytest.mark.parametrize("build,message", [
    # A radar after the bearings would read [x, y, vx] of the planar state.
    (lambda s2, s1: dataclasses.replace(s2, sensors=s2.sensors + (_RADAR,),
                                        strategies=("centralized",)),
     "sensor 3 (range_az_el) reads 3 position axes, but the truth has 2"),
    # Listed first, it sized the tracker and died in a bare broadcast error.
    (lambda s2, s1: dataclasses.replace(s2, sensors=(_RADAR,) + s2.sensors,
                                        strategies=("centralized",)),
     "the first sensor's 3-d position sizes the tracker, but the truth is 2-d"),
    # A bearing first ran a planar tracker on the 3-d truth.
    (lambda s2, s1: dataclasses.replace(s1, sensors=(_BEARING,) + s1.sensors,
                                        tracker=EkfTracker(q=[0.5, 0.5])),
     "the first sensor's 2-d position sizes the tracker, but the truth is 3-d"),
])
def test_rejects_sensors_that_disagree_with_the_truth_on_dimension(no_run_starts, build,
                                                                   message):
    cfg = build(load_preset("scenario2", runs=1), load_preset("scenario1", runs=2))
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_scenario(cfg)


# A duration of NaN or inf failed in ScenarioConfig.n_steps with a bare
# ValueError or OverflowError, and so did a finite duration and step whose
# ratio overflows. A finite ratio of 1e300 steps died in _draws with numpy's
# "Maximum allowed dimension exceeded".
@pytest.mark.parametrize("preset,overrides,message", [
    *[("scenario2", {key: value}, f"{key} must be positive and finite, got {value}")
      for key, values in (("dt_s", (0.0, -1.0, float("inf"), float("nan"))),
                          ("duration_s", (0.0, -5.0, float("nan"), float("inf"))))
      for value in values],
    *[(preset, {"duration_s": 1e300, "dt_s": 1e-10},
       "duration_s / dt_s must be finite, got 1e+300 / 1e-10")
      for preset in ("scenario1", "scenario2")],
    *[(preset, {"duration_s": 1e300, "dt_s": 1.0},
       "duration_s / dt_s gives 1e+300 steps, too many for numpy to shape the study's "
       "draws, got 1e+300 / 1")
      for preset in ("scenario1", "scenario2")],
])
def test_rejects_a_time_step_that_is_not_positive_and_finite(no_run_starts, preset,
                                                             overrides, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_scenario(load_preset(preset, runs=1, **overrides))


@pytest.mark.parametrize("track_loss_m", [0.0, float("nan")])
def test_rejects_a_track_loss_threshold_that_is_not_positive_and_finite(
        no_run_starts, track_loss_m):
    # 0 used to run the whole study before track_loss_rate raised; NaN gave a
    # report of NaN metrics with 0 % track loss.
    with pytest.raises(ConfigError, match="track_loss_m must be positive and finite"):
        run_scenario(load_preset("scenario1", runs=2, track_loss_m=track_loss_m))


@pytest.mark.parametrize("preset,key,value", [
    # init_pos_std = 0 used to fail in the first run's draws with a
    # LinAlgError, and a negative one ran as its magnitude.
    ("scenario1", "init_pos_std", 0.0),
    ("scenario1", "init_pos_std", -5.0),
    ("scenario1", "init_vel_std", float("nan")),
    ("scenario2", "init_acc_std", 0.0),
    # A pad_var the gate let through failed at the first IMM step.
    ("scenario2", "pad_var", 0.0),
    ("scenario2", "pad_var", -1.0),
    ("scenario2", "pad_var", float("inf")),
])
def test_rejects_tracker_start_up_values_that_are_not_positive_and_finite(
        no_run_starts, preset, key, value):
    cfg = load_preset(preset, runs=1)
    cfg = dataclasses.replace(cfg, tracker=dataclasses.replace(cfg.tracker, **{key: value}))
    with pytest.raises(ConfigError, match=f"tracker.{key} must be positive and finite"):
        run_scenario(cfg)


@pytest.mark.parametrize("preset,index,sensor,message", [
    # A zero standard deviation failed in the first run's noise cholesky
    # with a bare LinAlgError.
    ("scenario2", 1, bearing_sensor([600.0, 0.0], 0.0),
     "sensor 2 (bearing): noise covariance fails: "),
    ("scenario1", 0, range_az_el_sensor([-3000.0, 4000.0, 0.0], 0.0, 0.03),
     "sensor 1 (range_az_el): noise covariance fails: "),
    ("scenario2", 0, bearing_sensor([0.0, 0.0], float("nan")),
     "sensor 1 (bearing): noise covariance fails: covariance has a non-finite entry"),
    # A position that is not finite failed in the first run with a
    # non-finite covariance that named no key.
    ("scenario1", 0, range_az_el_sensor([float("nan"), 4000.0, 0.0], 100.0, 0.03),
     "sensor 1 (range_az_el): position must be finite, got nan, 4000, 0"),
    ("scenario2", 1, bearing_sensor([float("inf"), 0.0], 1e-3),
     "sensor 2 (bearing): position must be finite, got inf, 0"),
])
def test_rejects_a_sensor_noise_covariance_that_fails_its_check(no_run_starts, preset,
                                                                index, sensor, message):
    cfg = load_preset(preset, runs=1)
    sensors = list(cfg.sensors)
    sensors[index] = sensor
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_scenario(dataclasses.replace(cfg, sensors=sensors))


@pytest.mark.parametrize("wavelength", [0.0, float("inf"), float("nan")])
def test_rejects_a_sine_wavelength_of_zero_or_not_finite(no_run_starts, wavelength):
    # 0 failed in the first run with a bare ZeroDivisionError.
    cfg = load_preset("scenario2", runs=1)
    cfg = dataclasses.replace(cfg, truth=dataclasses.replace(cfg.truth,
                                                             wavelength_m=wavelength))
    with pytest.raises(ConfigError, match="truth.wavelength_m must be non-zero and finite"):
        run_scenario(cfg)


@pytest.mark.parametrize("preset,key,value,message", [
    # Each died in the first run with a bare NotPositiveDefinite.
    ("scenario2", "speed_mps", float("nan"), "truth.speed_mps must be non-negative and finite"),
    ("scenario2", "amplitude_m", float("inf"), "truth.amplitude_m must be finite"),
    ("scenario2", "rotation_rad", float("nan"), "truth.rotation_rad must be finite"),
    ("scenario2", "start", np.array([150.0, float("nan")]), "truth.start must be finite"),
    ("scenario1", "initial_position", np.array([0.0, float("nan"), 1000.0]),
     "truth.initial_position must be finite"),
    ("scenario1", "initial_velocity", np.array([200.0, float("-inf"), 0.0]),
     "truth.initial_velocity must be finite"),
    # A negative speed held the target still while it reported a velocity.
    ("scenario2", "speed_mps", -5.0, "truth.speed_mps must be non-negative and finite"),
])
def test_rejects_a_truth_parameter_that_is_not_finite_or_a_negative_speed(
        no_run_starts, preset, key, value, message):
    cfg = load_preset(preset, runs=1)
    cfg = dataclasses.replace(cfg, truth=dataclasses.replace(cfg.truth, **{key: value}))
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_scenario(cfg)


def test_a_stationary_target_runs_and_stays_at_its_start():
    cfg = load_preset("scenario2", runs=1, duration_s=10.0)
    still = dataclasses.replace(cfg, truth=dataclasses.replace(cfg.truth, speed_mps=0.0))
    states = simulation.sine_truth_states(still.truth, still.n_steps, still.dt_s)
    np.testing.assert_array_equal(states[:, :2], np.broadcast_to(still.truth.start,
                                                                 (still.n_steps + 1, 2)))
    np.testing.assert_array_equal(states[:, 2:], 0.0)
    assert np.isfinite(run_scenario(still).metrics["hmd"].rmse_pos).all()


def test_a_negative_amplitude_runs_as_the_mirrored_path():
    cfg = load_preset("scenario2", runs=1, duration_s=10.0)
    mirrored = dataclasses.replace(cfg, truth=dataclasses.replace(cfg.truth,
                                                                  amplitude_m=-50.0))
    assert run_scenario(mirrored).csv_text() != run_scenario(cfg).csv_text()


def test_a_negative_wavelength_runs_as_the_mirrored_path():
    cfg = load_preset("scenario2", runs=1, duration_s=10.0)
    mirrored = dataclasses.replace(cfg, truth=dataclasses.replace(cfg.truth,
                                                                  wavelength_m=-1500.0))
    assert run_scenario(mirrored).csv_text() != run_scenario(cfg).csv_text()


@pytest.mark.parametrize("preset,part,key,value", [
    # Each failed only once the runs had started (q_nca < 0: "not positive
    # definite"; q_ncv NaN: "non-finite entry").
    ("scenario2", "tracker", "q_nca", -0.001),
    ("scenario2", "tracker", "q_ncv", float("nan")),
    # A negative EKF density failed only in a long enough study.
    ("scenario1", "tracker", "q", np.array([-0.5, 0.5, 0.001])),
    ("scenario1", "tracker", "q", np.array([0.5, float("inf"), 0.001])),
    # A negative truth density ran silently with its eigenvalues clipped to 0.
    ("scenario1", "truth", "q", np.array([0.5, -0.5, 0.001])),
])
def test_rejects_a_process_noise_density_that_is_negative_or_not_finite(
        no_run_starts, preset, part, key, value):
    cfg = load_preset(preset, runs=1)
    cfg = dataclasses.replace(cfg, **{part: dataclasses.replace(getattr(cfg, part),
                                                                **{key: value})})
    with pytest.raises(ConfigError, match=f"{part}.{key} must be non-negative and finite"):
        run_scenario(cfg)


def test_zero_process_noise_densities_run():
    cfg = load_preset("scenario1", runs=1, duration_s=20.0)
    cfg = dataclasses.replace(cfg, tracker=dataclasses.replace(cfg.tracker, q=np.zeros(3)),
                              truth=dataclasses.replace(cfg.truth, q=np.zeros(3)))
    assert np.isfinite(run_scenario(cfg).metrics["hmd"].rmse_pos).all()


# 1.5 failed at the first fusion step with a TypeError (and ran silently with
# feedback, which prunes nothing).
@pytest.mark.parametrize("prune_to", [0, 1.5])
def test_rejects_prune_to_below_one(no_run_starts, prune_to):
    cfg = dataclasses.replace(load_preset("scenario2", runs=1, feedback=False),
                              prune_to=prune_to)
    with pytest.raises(ConfigError,
                       match=f"prune_to must be an integer of at least 1, got {prune_to}"):
        run_scenario(cfg)


@pytest.mark.parametrize("omega", [-0.1, 1.5, float("nan")])
def test_rejects_omega_outside_the_unit_interval(no_run_starts, omega):
    with pytest.raises(ConfigError, match=r"omega must lie in \[0, 1\]"):
        run_scenario(load_preset("scenario2", runs=1, omega=omega))


@pytest.mark.parametrize("omega", [0.0, 0.3, 1.5])
def test_rejects_an_ekf_omega_the_equal_weight_rule_ignores(no_run_starts, omega):
    # EKF studies fuse every operand with weight 1/n, whatever omega says.
    with pytest.raises(ConfigError, match="equal weights 1/n"):
        run_scenario(load_preset("scenario1", runs=1, omega=omega))


@pytest.mark.parametrize("omega", [0.0, 1.0])
def test_rejects_feedback_at_an_omega_endpoint(no_run_starts, omega):
    # pcf and hmd return one operand's own mixture there, whose tags name no
    # field for the other operand: routing died at the first fusion step.
    with pytest.raises(ConfigError, match="feedback needs 0 < omega < 1"):
        run_scenario(load_preset("scenario2", runs=1, duration_s=6, omega=omega))


@pytest.mark.parametrize("strategies, repeated", [(("hmd", "hmd", "naive"), "'hmd'"),
                                                  (("centralized", "naive", "centralized",
                                                    "naive"), "'centralized', 'naive'")])
def test_rejects_a_repeated_strategy(no_run_starts, strategies, repeated):
    # It ran once and was reported once per listing.
    with pytest.raises(ConfigError, match=f"listed more than once: {repeated}$"):
        run_scenario(load_preset("scenario1", runs=1, strategies=strategies))


@pytest.mark.parametrize("preset,strategies,message", [
    ("scenario2", ("hmd", "bogus"), "unknown fusion strategy for an IMM study: 'bogus'"),
    ("scenario1", ("hmd", "ci"), "unknown fusion strategy for an EKF study: 'ci'"),
    # The EKF engine fuses with fuse_many, which has no pcf rule, and runs
    # every centralized track with NCV.
    ("scenario1", ("naive", "pcf"), "EKF study: 'pcf'"),
    ("scenario1", ("centralized_ca",), "EKF study: 'centralized_ca'"),
])
def test_rejects_a_strategy_the_engine_does_not_run(no_run_starts, preset,
                                                    strategies, message):
    with pytest.raises(ConfigError, match=message):
        run_scenario(load_preset(preset, runs=1, strategies=strategies))


@pytest.mark.parametrize("preset", ["scenario1", "scenario2"])
# 1.5 failed in the first run with a TypeError.
@pytest.mark.parametrize("fusion_every", [0, -2, 1.5])
def test_rejects_a_fusion_interval_below_one(no_run_starts, preset, fusion_every):
    cfg = dataclasses.replace(load_preset(preset, runs=1), fusion_every=fusion_every)
    with pytest.raises(ConfigError,
                       match=f"fusion_every must be an integer of at least 1, got {fusion_every}"):
        run_scenario(cfg)


@pytest.mark.parametrize("nees_sided", [0, 3])
def test_rejects_nees_sides_other_than_one_or_two(no_run_starts, nees_sided):
    with pytest.raises(ConfigError, match="nees_sided must be 1 or 2"):
        run_scenario(load_preset("scenario1", runs=1, nees_sided=nees_sided))


@pytest.mark.parametrize("transition,message", [
    ([[0.8, 0.3], [0.8, 0.2]], "rows must sum to 1"),
    ([[1.2, -0.2], [0.8, 0.2]], "finite and nonnegative"),
    ([[np.nan, 0.2], [0.8, 0.2]], "finite and nonnegative"),
    (np.full((3, 3), 1 / 3), "disagree"),
])
def test_rejects_an_imm_transition_the_tracker_rejects(no_run_starts, transition, message):
    cfg = load_preset("scenario2", runs=1)
    cfg = dataclasses.replace(cfg, tracker=dataclasses.replace(
        cfg.tracker, transition=transition))
    with pytest.raises(ConfigError, match=f"IMM tracker: .*{message}"):
        run_scenario(cfg)


def test_names_a_pad_var_whose_padding_fails_before_any_run(no_run_starts):
    """``pad_var = 1e20`` is positive and finite, but it lifts the padded
    pivot floor, ``1e-12 * pad_var``, above the initial NCV variances. The
    trial prior's padding fails, so the study stops before any run with a
    ConfigError that names ``pad_var``, not a bare NotPositiveDefinite from
    deep inside the first run."""
    cfg = load_preset("scenario2", runs=1, duration_s=10)
    cfg = dataclasses.replace(cfg, tracker=dataclasses.replace(cfg.tracker, pad_var=1e20))
    with pytest.raises(ConfigError, match=r"IMM tracker: .*pad_var = 1e\+20, fails: .*singular"):
        run_scenario(cfg)


def test_names_an_imm_transition_with_a_zero_column_before_any_run(no_run_starts):
    """``[[1, 0], [1, 0]]`` is a Markov matrix, but no mode switches into the
    second mode: its mixing weights are all 0, and the first IMM step used to
    fail with a bare ValueError about a mixture of zero total weight."""
    cfg = load_preset("scenario2", runs=1, duration_s=10)
    cfg = dataclasses.replace(cfg, tracker=dataclasses.replace(
        cfg.tracker, transition=[[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ConfigError, match="tracker.transition has a zero column"):
        run_scenario(cfg)


def test_names_an_ekf_start_up_value_whose_variance_overflows_before_any_run(no_run_starts):
    """``init_pos_std = 1e200`` is positive and finite, but its square is not:
    the EKF trial prior fails, so the study stops with a ConfigError that
    names the value, not a bare NotPositiveDefinite from the first run."""
    cfg = load_preset("scenario1", runs=1)
    cfg = dataclasses.replace(cfg, tracker=dataclasses.replace(cfg.tracker, init_pos_std=1e200))
    with pytest.raises(ConfigError, match=r"EKF tracker: .*tracker\.init_pos_std = 1e\+200.*"
                                          r" fails: .*non-finite"):
        run_scenario(cfg)


# ---------------------------------------------------------------------------
# IMM pipelines (mixture fusion, pruning, feedback routing)


def _sine_imm_config(**overrides):
    base = dict(
        name="sine-imm",
        duration_s=8.0,
        dt_s=1.0,
        truth=SineTruth(start=[0.0, 0.0], speed_mps=100.0, amplitude_m=150.0,
                        wavelength_m=2000.0, rotation_rad=0.0),
        sensors=(bearing_sensor([-2000.0, -2000.0], 2e-3),
                 bearing_sensor([3000.0, -1500.0], 2e-3)),
        tracker=_imm_tracker(),
        strategies=("hmd",),
        runs=2,
        seed=7,
        fusion_every=2,
        track_loss_m=50000.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_imm_mixture_fusion_with_pruning_runs_clean():
    report = run_scenario(_sine_imm_config(prune_to=2))
    m = report.metrics["hmd"]
    assert np.isfinite(m.rmse_pos).all()
    assert np.isfinite(m.nees).all()
    assert m.track_loss_rate == 0.0


def test_feedback_routing_changes_the_estimates():
    plain = run_scenario(_sine_imm_config(feedback=False))
    routed = run_scenario(_sine_imm_config(feedback=True))
    assert np.isfinite(routed.metrics["hmd"].rmse_pos).all()
    assert not np.allclose(plain.metrics["hmd"].rmse_pos,
                           routed.metrics["hmd"].rmse_pos)


def test_report_identifies_scenario_and_strategies():
    cfg = _toy_config(["centralized", "naive"])
    report = run_scenario(cfg)
    assert isinstance(report, MetricsReport)
    assert report.scenario == "toy"
    assert report.runs == 1
    assert report.strategies == ("centralized", "naive")
