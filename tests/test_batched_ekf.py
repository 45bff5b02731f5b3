"""The batched EKF engine against the scalar path, byte for byte.

``run_scenario`` steps every run of an EKF study together as stacked
densities. ``oracles.ref_ekf_study`` runs the same study one run at a time
through reference copies of the one-density filter, fusion and NEES code, as
the simulation did before. The CSV text and the timing-free summary must be
equal as strings. This holds on any platform, not only the one the golden
digests were recorded on: per run, the stacked routines call the same
BLAS/LAPACK routines on the same operand layouts as the one-density code.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackfuse import (
    ConfigError,
    EkfTracker,
    GaussianDensity,
    GaussianMixture,
    NcvTruth,
    ScenarioConfig,
    SingularInnovation,
    bearing_sensor,
    ekf_update,
    fuse_many,
    load_preset,
    moment_match,
    run_scenario,
)
from trackfuse import filters, fusion, gaussians, simulation

from oracles import (
    LinearSensor,
    random_gaussian,
    ref_ekf_run,
    ref_ekf_study,
    ref_fuse_many,
    ref_moment_match,
)

STRATEGIES = ("centralized", "naive", "gmd", "amd", "hmd")


def _summary(report) -> str:
    return json.dumps(report.summary_dict(include_timing=False), sort_keys=True)


def _assert_same_report(cfg):
    batched = run_scenario(cfg)
    ref = ref_ekf_study(cfg)
    assert batched.csv_text() == ref.csv_text()
    assert _summary(batched) == _summary(ref)
    return batched


def _radar(**overrides):
    """scenario1 (three radars, every strategy), shortened to 20 steps."""
    return load_preset("scenario1", **dict({"duration_s": 40.0}, **overrides))


@pytest.mark.parametrize("runs", [1, 3, 10])
@pytest.mark.parametrize("seed", [1, 7, 11])
def test_radar_study_matches_the_scalar_path(seed, runs):
    _assert_same_report(_radar(seed=seed, runs=runs))


@pytest.mark.parametrize("strategies", [(s,) for s in STRATEGIES] + [STRATEGIES])
@pytest.mark.parametrize("fusion_every", [1, 2, 3])
def test_each_strategy_and_fusion_interval_matches(fusion_every, strategies):
    _assert_same_report(_radar(seed=7, runs=3, fusion_every=fusion_every,
                               strategies=strategies))


def test_full_length_benchmark_study_matches():
    report = _assert_same_report(load_preset("scenario1", runs=10))
    assert report.steps.size == 30


def _bearing_toy(**overrides):
    """The two-bearing planar toy study of ``test_simulation.py``."""
    base = dict(
        name="toy",
        duration_s=12.0,
        dt_s=1.0,
        truth=NcvTruth(q=[0.1, 0.1], initial_position=[1500.0, 2500.0],
                       initial_velocity=[10.0, 5.0]),
        sensors=(bearing_sensor([0.0, 0.0], 2e-3),
                 bearing_sensor([4000.0, 500.0], 2e-3)),
        tracker=EkfTracker(q=[0.5, 0.5]),
        strategies=STRATEGIES,
        runs=4,
        seed=42,
        fusion_every=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("overrides", [
    {},
    {"fusion_every": 1, "seed": 3},
    {"nees_sided": 1},
    {"track_loss_m": 5.0, "runs": 6},
    {"sensors": (bearing_sensor([0.0, 0.0], 2e-3),), "fusion_every": 2},
    {"duration_s": 3.0},
])
def test_bearing_toy_study_matches(overrides):
    _assert_same_report(_bearing_toy(**overrides))


def test_partial_track_loss_is_counted_like_the_scalar_path():
    report = _assert_same_report(_bearing_toy(track_loss_m=5.0, runs=6))
    lost = [report.summary_dict()["excluded_runs"][s] for s in STRATEGIES]
    assert any(0 < n < 6 for n in lost)


@pytest.mark.parametrize("seed", [7, 11])
def test_a_shorter_study_gives_the_first_runs_bit_for_bit(seed):
    # Run r draws from its own seed and steps as its own stack member, so a
    # study cut short keeps each remaining run's scores bit for bit.
    full = simulation._run_study(_radar(seed=seed, runs=5))
    for runs in (1, 3):
        short = simulation._run_study(_radar(seed=seed, runs=runs))
        for name in STRATEGIES:
            assert short[name][0].tobytes() == full[name][0][:, :runs].tobytes()


def test_timing_is_batched_fusion_seconds_per_run_and_call():
    report = run_scenario(_radar(runs=3))
    assert report.summary_dict()["timing"]["centralized"] is None
    for name in STRATEGIES[1:]:
        assert 0.0 < report.timing[name] < 1.0


@pytest.mark.parametrize("cfg", [_radar(runs=2, strategies=("pcf",)),
                                 _bearing_toy(strategies=("naive", "ci"))])
def test_rules_fuse_many_lacks_raise_config_error_before_any_run(cfg):
    # The scalar path fails at the first fusion step; the engine's gate
    # rejects the study before its first run.
    with pytest.raises(ValueError, match="unknown fusion strategy"):
        ref_ekf_study(cfg)
    with pytest.raises(ConfigError, match="unknown fusion strategy for an EKF study"):
        run_scenario(cfg)


def test_single_operand_fusion_passes_any_name_through_like_the_scalar_path():
    # With one sensor, the first fusion has one operand, which fuse_many
    # returns as is whatever the rule (amd would otherwise return a mixture);
    # with one fusion step there is no other.
    cfg = _bearing_toy(sensors=(bearing_sensor([0.0, 0.0], 2e-3),),
                       strategies=("amd",), duration_s=3.0)
    report = _assert_same_report(cfg)
    assert np.isfinite(report.metrics["amd"].rmse_pos).all()


_BEARING = bearing_sensor([-2000.0, -1500.0], 2e-3)


@pytest.mark.parametrize("order", ["radars then bearing", "radar, bearing, radar"])
@pytest.mark.parametrize("runs", [1, 4])
def test_mixed_sensor_kinds_match_the_scalar_path(order, runs):
    # Each kind's sensors step as one stacked model; a bearing reads the
    # radars' x and y.
    radars = _radar().sensors
    sensors = (radars + (_BEARING,) if order == "radars then bearing"
               else (radars[0], _BEARING, radars[2]))
    _assert_same_report(_radar(seed=7, runs=runs, sensors=sensors))


def test_one_stacked_call_per_sensor_kind_centre_prediction_and_score(monkeypatch):
    """Per step, one local prediction and update per sensor kind, each over
    the kind's [runs, sensors, d] stack; per fusion step, one prediction of
    the fusion centres' [runs, strategies, d] stack per filter step, and one
    score of every strategy."""
    cfg = _radar(runs=3, duration_s=12.0, fusion_every=2,
                 sensors=_radar().sensors + (_BEARING,))
    calls = {"predict": [], "update": [], "score": []}

    def counting(key, fn, shape_of):
        def wrapped(*args):
            calls[key].append(shape_of(*args))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(simulation, "ekf_predict", counting(
        "predict", simulation.ekf_predict, lambda track, model: track.mean.shape))
    monkeypatch.setattr(simulation, "ekf_update", counting(
        "update", simulation.ekf_update,
        lambda track, sensor, z: (sensor.kind, track.mean.shape)))
    monkeypatch.setattr(simulation, "_score", counting(
        "score", simulation._score, lambda tracks, truth, dims: len(tracks)))
    run_scenario(cfg)

    steps, fusions, runs = cfg.n_steps, cfg.n_steps // cfg.fusion_every, cfg.runs
    centre = (runs, len(STRATEGIES) - 1, 6)
    local = [(kind, (runs, n, 6)) for kind, n in (("range_az_el", 3), ("bearing", 1))]
    assert sorted(calls["update"]) == sorted(
        local * steps + [(s.kind, (runs, 6)) for s in cfg.sensors] * steps)
    assert sorted(calls["predict"]) == sorted(
        [(runs, 3, 6), (runs, 1, 6), (runs, 6)] * steps
        + [centre] * cfg.fusion_every * (fusions - 1))
    assert calls["score"] == [len(STRATEGIES)] * fusions


def test_centralized_and_centralized_cv_share_one_track(monkeypatch):
    # Both names run the NCV model from the central perturbation: one track
    # per step, scored under each name.
    cfg = _radar(runs=3, strategies=("centralized", "hmd", "centralized_cv"))
    predicted = []
    predict = simulation.ekf_predict

    def counted(track, model):
        predicted.append(track.mean.shape)
        return predict(track, model)

    monkeypatch.setattr(simulation, "ekf_predict", counted)
    report = _assert_same_report(cfg)
    # The locals predict [runs, 3, 6] and hmd's centre [runs, 1, 6].
    assert predicted.count((cfg.runs, 6)) == cfg.n_steps
    assert report.csv_text().count(",centralized,") == report.steps.size


def test_every_matrix_the_scalar_path_checks_is_checked_for_each_run(monkeypatch):
    """The engine factors, per run, exactly the matrices the scalar path
    checks (densities, precision sums, the product scale term naive
    discards), each as often. The engine advances strategies together, and
    stacks a sensor kind's locals or the fusion centres' tracks behind the
    run axis, so the order differs."""
    cfg = _radar(runs=3, duration_s=12.0)
    check = gaussians._factor

    def record_with(record):
        # Every check ends in ``_factor``: the full one (the density
        # constructor, ``assert_spd``, ``spd_inv``) and the package's own.
        for module in (gaussians, filters, fusion):
            monkeypatch.setattr(module, "_factor", record)

    scalar = []

    def record_scalar(cov):
        cov = np.array(cov)
        # The scalar path checks one density at a time.
        assert cov.ndim == 2
        scalar[-1].append(cov)
        return check(cov)

    record_with(record_scalar)
    for r in range(cfg.runs):
        scalar.append([])
        ref_ekf_run(cfg, r)
    monkeypatch.undo()
    stacked = []

    def record_stack(cov):
        cov = np.array(cov)
        # Every stack leads with the run axis: [runs, d, d], or
        # [runs, sensors or strategies, d, d].
        assert cov.ndim >= 3 and cov.shape[0] == cfg.runs
        stacked.append(cov)
        return check(cov)

    record_with(record_stack)
    # The engine itself: run_scenario's gate also checks one trial prior.
    simulation._run_study(cfg)
    assert len(stacked) > 0
    for r, checked in enumerate(scalar):
        # Run r's block of each check, flattened into its [d, d] members.
        members = [m for cov in stacked for m in cov[r].reshape((-1,) + cov.shape[-2:])]
        assert (sorted((m.shape, m.tobytes()) for m in checked)
                == sorted((m.shape, m.tobytes()) for m in members))


def _stack(densities):
    return GaussianDensity(np.stack([d.mean for d in densities]),
                           np.stack([d.cov for d in densities]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5),
       st.sampled_from(["naive", "gmd", "amd", "hmd"]), st.integers(0, 2**32 - 1))
def test_stacked_fusion_equals_fuse_many_per_run(dim, runs, n_operands, strategy, seed):
    """``fuse_many`` of stacks fuses each run as the reference copy fuses it
    alone (amd's mixture moment-matched, as the engine carries it)."""
    rng = np.random.default_rng(seed)
    operands = [[random_gaussian(rng, dim) for _ in range(runs)] for _ in range(n_operands)]
    fused = fuse_many([_stack(op) for op in operands], strategy)
    if isinstance(fused, GaussianMixture):
        fused = moment_match(fused)
    for r in range(runs):
        ref = ref_fuse_many([op[r] for op in operands], strategy)
        if isinstance(ref, GaussianMixture):
            ref = GaussianDensity(*ref_moment_match(ref.weights, [c.mean for c in ref.components],
                                                    [c.cov for c in ref.components]))
        for got, want in ((fused.mean[r], ref.mean), (fused.cov[r], ref.cov),
                          (fused.chol[r], ref.chol)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_singular_innovation_is_raised_like_the_scalar_update():
    blind = LinearSensor(np.zeros((1, 1)), np.zeros((1, 1)))
    track = GaussianDensity(np.zeros(2), np.eye(2))
    with pytest.raises(SingularInnovation):
        ekf_update(track, blind, np.zeros(1))
    with pytest.raises(SingularInnovation):
        ekf_update(_stack([track, track]), blind, np.zeros((2, 1)))
