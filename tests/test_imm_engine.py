"""The step-major IMM engine against the run-by-run path, byte for byte.

``run_scenario`` steps all runs of an IMM study together, step by step: the
local banks, then the centralized tracks (stacked over the runs), then every
strategy's fusion, and builds the report from score arrays.
``oracles.ref_imm_study`` runs the same study through a copy of the old
run-by-run, strategy-by-strategy path and its per-run report aggregation.
The CSV text and the timing-free summary must be equal as strings: both
paths call the same public filter and fusion functions on the same operands.
"""

import dataclasses
import json
import re
import types
import warnings
from importlib import resources

import pytest

from trackfuse import fusion, load_preset, loads_config, run_scenario, simulation
from trackfuse.errors import NotPositiveDefinite

from oracles import ref_imm_study


def _summary(report) -> str:
    return json.dumps(report.summary_dict(include_timing=False), sort_keys=True)


def _assert_same_report(cfg):
    report = run_scenario(cfg)
    ref = ref_imm_study(cfg)
    assert report.csv_text() == ref.csv_text()
    assert _summary(report) == _summary(ref)
    return report


def _bearing(**overrides):
    """scenario2 (two bearings, IMM locals, every strategy), 30 steps, 2 runs."""
    return load_preset("scenario2", **dict({"duration_s": 30.0, "runs": 2}, **overrides))


@pytest.mark.parametrize("feedback", [True, False])
@pytest.mark.parametrize("seed", [1, 7, 11])
def test_study_matches_the_run_by_run_path(seed, feedback):
    _assert_same_report(_bearing(seed=seed, feedback=feedback))


@pytest.mark.parametrize("overrides", [
    {"feedback": False, "prune_to": 1},
    {"fusion_every": 3},
    {"fusion_every": 3, "feedback": False},
    {"strategies": ("pcf", "centralized_ca", "hmd")},
    {"strategies": ("pcf", "centralized_ca", "hmd"), "feedback": False},
    {"strategies": ("centralized_cv", "centralized_ca")},
    {"strategies": ("naive",), "seed": 3},
])
def test_pruning_intervals_and_strategy_subsets_match(overrides):
    _assert_same_report(_bearing(**overrides))


@pytest.mark.parametrize("omega", [0.0, 1.0])
def test_an_omega_endpoint_runs_without_feedback(omega):
    # There pcf and hmd keep one operand's 2 components and naive and amd
    # fuse 4: each component count is pruned and matched as its own stack.
    _assert_same_report(_bearing(omega=omega, feedback=False, duration_s=10.0,
                                 strategies=("naive", "amd", "pcf", "hmd")))


def test_partial_track_loss_is_counted_like_the_run_by_run_path():
    report = _assert_same_report(_bearing(runs=4, track_loss_m=60.0))
    lost = report.summary_dict()["excluded_runs"].values()
    assert any(0 < n < 4 for n in lost)


def test_high_noise_preset_matches():
    _assert_same_report(load_preset("scenario2_q05", duration_s=30.0, runs=2))


def test_the_pair_quotient_fallback_fires_in_a_compared_study(monkeypatch):
    """Mixture hmd divides a cross pair whose gap test fails by the pair's own
    two-component pool (``fusion._group_moments``, one call per fusion step
    for the failing pairs of every run); this study takes that path for 24
    cross pairs and still matches the run-by-run path."""
    calls = []
    group_moments = fusion._group_moments

    def counted(*args):
        calls.append(args)
        return group_moments(*args)

    cfg = _bearing(seed=7)
    monkeypatch.setattr(fusion, "_group_moments", counted)
    report = run_scenario(cfg)
    monkeypatch.undo()
    assert sum(len(weights) for weights, _, _ in calls) == 24
    assert report.csv_text() == ref_imm_study(cfg).csv_text()


def test_every_strategy_is_scored_in_one_stack_per_fusion_step(monkeypatch):
    # centralized_ca's NCA track and the NCV ones join as their
    # position-velocity marginals.
    cfg = _bearing(strategies=("hmd", "centralized_ca", "pcf", "centralized_cv"),
                   duration_s=12.0, fusion_every=3)
    scored = []
    score = simulation._score

    def counted(tracks, truth, dims):
        scored.append([t.dim for t in tracks])
        return score(tracks, truth, dims)

    monkeypatch.setattr(simulation, "_score", counted)
    report = _assert_same_report(cfg)
    assert scored == [[6, 6, 6, 4]] * report.steps.size


@pytest.mark.parametrize("feedback", [True, False])
def test_every_strategy_is_pruned_and_matched_in_one_stack_per_fusion_step(monkeypatch,
                                                                           feedback):
    # After every distributed strategy has fused (and routed), their mixtures
    # are pruned (without feedback) and moment-matched as one
    # [runs, strategies, K, D] stack: one call each per fusion step.
    cfg = _bearing(duration_s=12.0, feedback=feedback)
    calls = []
    prune, match = simulation.prune_mixture, simulation.moment_match

    def pruned(mixture, target_count):
        calls.append(("prune", mixture.weights.shape))
        return prune(mixture, target_count)

    def matched(mixture):
        calls.append(("match", mixture.weights.shape))
        return match(mixture)

    monkeypatch.setattr(simulation, "prune_mixture", pruned)
    monkeypatch.setattr(simulation, "moment_match", matched)
    report = _assert_same_report(cfg)
    stack = (cfg.runs, 4, 4)  # naive, gmd, amd and hmd of two 2-mode locals
    step = [("match", stack)] if feedback else [("prune", stack), ("match", stack[:2] + (2,))]
    assert calls == step * report.steps.size


def test_centralized_and_centralized_cv_share_one_track(monkeypatch):
    # Both names run the NCV model and centralized_ca the NCA one: the two
    # tracks step as one stack [runs, 2, 6] under the padded models, one
    # centralized prediction per step.
    cfg = _bearing(strategies=("centralized", "centralized_ca", "hmd", "centralized_cv"),
                   duration_s=12.0)
    predicted = []
    predict = simulation.ekf_predict

    def counted(track, model):
        predicted.append((model.transition.shape, track.mean.shape))
        return predict(track, model)

    monkeypatch.setattr(simulation, "ekf_predict", counted)
    _assert_same_report(cfg)
    assert predicted == [((2, 6, 6), (cfg.runs, 2, 6))] * cfg.n_steps


@pytest.mark.parametrize("name, kind, dim", [("centralized_ca", "nca", 6),
                                             ("centralized_cv", "ncv", 4)])
def test_one_centralized_model_steps_its_own_track(monkeypatch, name, kind, dim):
    # One model's track is a [runs, d] stack stepped by the model itself:
    # one prediction per step, one update per sensor and step.
    cfg = _bearing(strategies=(name,), duration_s=12.0)
    calls = []
    predict, update = simulation.ekf_predict, simulation.ekf_update

    def predicted(track, model):
        calls.append(("predict", model.kind, track.mean.shape))
        return predict(track, model)

    def updated(track, sensor, z):
        calls.append(("update", sensor.kind, track.mean.shape))
        return update(track, sensor, z)

    monkeypatch.setattr(simulation, "ekf_predict", predicted)
    monkeypatch.setattr(simulation, "ekf_update", updated)
    _assert_same_report(cfg)
    step = [("predict", kind, (cfg.runs, dim))] + [("update", "bearing", (cfg.runs, dim))] * 2
    assert calls == step * cfg.n_steps


def test_the_padded_ncv_track_faces_the_padding_floor():
    """Stepped beside the NCA track, the NCV track carries ``pad_var`` on its
    padded diagonal, so its covariances face ``zero_pad``'s pivot floor,
    ``1e-12 * max(max variance, pad_var)``, as an IMM's NCV mode does. With
    ``pad_var = 1e12`` that floor is 1, which the start (least variance 100)
    clears and the bearing updates (least squared pivot about 0.08 by the
    end) fall below; the NCV track alone faces its own floor and runs."""
    both = _bearing(strategies=("centralized_cv", "centralized_ca"))
    both = dataclasses.replace(both, tracker=dataclasses.replace(both.tracker, pad_var=1e12))
    with pytest.raises(NotPositiveDefinite, match="numerically singular"):
        run_scenario(both)
    _assert_same_report(dataclasses.replace(both, strategies=("centralized_cv",)))


@pytest.mark.parametrize("strategy", ["hmd", "naive"])
def test_feedback_survives_a_mode_whose_fused_weights_underflow(strategy):
    """With near-exact bearings every fused component involving one local
    mode gets weight 0; that mode keeps its density at weight 0, and the
    study runs without a floating-point warning."""
    text = resources.files("trackfuse.presets").joinpath("scenario2.cfg").read_text()
    text = re.sub(r"sigma_bearing_deg = \S+", "sigma_bearing_deg = 0.01", text)
    cfg = loads_config(text, runs=2, duration_s=60.0, strategies=strategy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _assert_same_report(cfg)
    assert report.summary_dict()["track_loss"][strategy] == 0.0


@pytest.mark.parametrize("runs,feedback", [(4, True), (5, True), (5, False)])
def test_a_shorter_study_gives_the_first_runs_bit_for_bit(runs, feedback):
    # Run r draws from its own seed and, by the per-run mixing product, steps
    # as its own stack member: a study cut short keeps each remaining run's
    # scores bit for bit.
    cfg = _bearing(seed=11, runs=runs, duration_s=20.0, feedback=feedback)
    full = simulation._run_study(cfg)
    for head in (1, runs // 2, runs - 1):
        short = simulation._run_study(dataclasses.replace(cfg, runs=head))
        for name in cfg.strategies:
            assert short[name][0].tobytes() == full[name][0][:, :head].tobytes()


@pytest.mark.parametrize("feedback", [True, False])
def test_timing_is_fusion_seconds_per_run_and_call(feedback):
    report = run_scenario(_bearing(runs=2, duration_s=10.0, feedback=feedback))
    assert report.timing["centralized_cv"] is None
    for name in ("naive", "gmd", "amd", "hmd"):
        assert 0.0 < report.timing[name] < 1.0


@pytest.mark.parametrize("feedback", [True, False])
def test_shared_pair_work_is_timed_once_in_its_first_reader(monkeypatch, feedback):
    # A clock that moves one second per cross-product kernel call: naive, the
    # first reader of a pair's products, is charged for them; hmd, fused from
    # the same pair without feedback, reads them for free; gmd (pcf)
    # multiplies its powered components itself, and amd multiplies nothing.
    clock = [0.0]
    kernel = fusion._products

    def counted(*args):
        clock[0] += 1.0
        return kernel(*args)

    monkeypatch.setattr(fusion, "_products", counted)
    monkeypatch.setattr(simulation, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    report = run_scenario(_bearing(runs=2, duration_s=10.0, feedback=feedback))
    # Seconds per run and call: one kernel call fuses both runs.
    per_call = 1.0 / 2
    assert report.timing == {"centralized_cv": None, "centralized_ca": None,
                             "naive": per_call, "gmd": per_call, "amd": 0.0,
                             "hmd": per_call if feedback else 0.0}


@pytest.mark.parametrize("feedback, products", [(False, 300), (True, 450)])
def test_a_fusion_step_multiplies_each_cross_pair_once(monkeypatch, feedback, products):
    """Every strategy fuses from its bank's prepared pair. Without feedback one
    pair per fusion step serves all four, so naive and hmd share its cross
    products and gmd (pcf) multiplies its powered ones: 2 kernel calls per
    fusion step. With feedback each strategy has a pair of its own, and naive,
    gmd and hmd each multiply: 3. The one cross layout is built once."""
    calls = []
    kernel = fusion._products

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(fusion, "_products", counted)
    fusion._cross_layout.cache_clear()
    report = run_scenario(load_preset("scenario2", runs=1, feedback=feedback))
    assert report.steps.size == 150
    assert len(calls) == products
    layouts = fusion._cross_layout.cache_info()
    assert layouts.misses == 1
    assert layouts.hits == report.steps.size * (4 if feedback else 1) - 1
