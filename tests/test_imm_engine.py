"""The step-major IMM engine against the run-by-run path, byte for byte.

``run_scenario`` steps each run of an IMM study step by step: the local
banks, then the centralized tracks, then every strategy's fusion, and builds
the report from score arrays. ``oracles.ref_imm_study`` runs the same study
through a copy of the old run-by-run, strategy-by-strategy path and its
per-run report aggregation. The CSV text and the timing-free summary must be
equal as strings: both paths call the same public filter and fusion
functions on the same operands.
"""

import json

import pytest

from trackfuse import load_preset, run_scenario

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
    {"strategies": ("hmd", "centralized_ca", "hmd", "pcf")},
    {"strategies": ("hmd", "centralized_ca", "hmd", "pcf"), "feedback": False},
    {"strategies": ("centralized_cv", "centralized_ca")},
    {"strategies": ("naive", "naive"), "seed": 3},
])
def test_pruning_intervals_and_strategy_subsets_match(overrides):
    _assert_same_report(_bearing(**overrides))


def test_partial_track_loss_is_counted_like_the_run_by_run_path():
    report = _assert_same_report(_bearing(runs=4, track_loss_m=60.0))
    lost = report.summary_dict()["excluded_runs"].values()
    assert any(0 < n < 4 for n in lost)


def test_high_noise_preset_matches():
    _assert_same_report(load_preset("scenario2_q05", duration_s=30.0, runs=2))


def test_worker_blocks_give_the_serial_report(monkeypatch):
    cfg = _bearing(seed=11, runs=4, duration_s=20.0)
    monkeypatch.setenv("TRACKFUSE_THREADS", "2")
    parallel = _assert_same_report(cfg)
    monkeypatch.delenv("TRACKFUSE_THREADS")
    serial = run_scenario(cfg)
    assert parallel.csv_text() == serial.csv_text()
    assert _summary(parallel) == _summary(serial)


def test_timing_is_fusion_seconds_per_run_and_call():
    report = run_scenario(_bearing(runs=2, duration_s=10.0))
    assert report.timing["centralized_cv"] is None
    for name in ("naive", "gmd", "amd", "hmd"):
        assert 0.0 < report.timing[name] < 1.0
