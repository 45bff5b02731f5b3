"""Tests of the benchmark's own machinery: metric names, the tracer's
arithmetic and bookkeeping, and the digest check.

They run no timed study, so they are quick. Run with
``python3 -m pytest perfbench/tests`` from the root of the repository.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, traced_names  # noqa: E402

import trackfuse  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _study(phase, seconds=1.0, digests=None, error=None, layers=None):
    return {"phase": phase, "seconds": seconds, "kernel_s": 0.001, "error": error,
            "digests": digests or {"csv_sha256": "a", "summary_sha256": "b"},
            "layers": layers}


def test_emitted_metric_names_are_listed_in_benchmark_json(benchmark_json):
    e2e = run.e2e_metrics([(1.0, 0.001), (1.2, 0.001)], [_study("warmup"), _study("timed")],
                          100.0)
    stats = {name: [3, 0.1, 0.2] for name in traced_names()}
    per_layer, repeat = run.layer_metrics(
        [_study("timed"), _study("traced", layers=stats), _study("traced", layers=stats)])
    assert repeat
    for emitted, listed in ((e2e, benchmark_json["end_to_end"]),
                            (per_layer, benchmark_json["per_layer"])):
        assert all(NAME_RE.fullmatch(name) and len(name) <= 64 for name in emitted)
        assert {name: m["unit"] for name, m in emitted.items()} == \
            {m["name"]: m["unit"] for m in listed}


def test_layer_metrics_flag_call_counts_that_do_not_repeat():
    stats = {name: [3, 0.1, 0.2] for name in traced_names()}
    other = dict(stats, **{"filters.imm_step": [4, 0.1, 0.2]})
    _, repeat = run.layer_metrics(
        [_study("timed"), _study("traced", layers=stats), _study("traced", layers=other)])
    assert not repeat


def test_tracer_self_time_on_nested_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner(fail=False):
        now[0] += 2.0
        if fail:
            raise ValueError("inner failed")

    inner = tracer.wrap("inner", inner)

    def outer():
        now[0] += 1.0
        inner()
        with pytest.raises(ValueError):
            inner(fail=True)
        now[0] += 0.5

    tracer.wrap("outer", outer)()
    assert tracer.stats["inner"] == [2, 4.0, 4.0]
    assert tracer.stats["outer"] == [1, 1.5, 5.5]


def test_tampered_digest_counts_as_failure():
    good = {"csv_sha256": "c" * 64, "summary_sha256": "s" * 64}
    golden = {"platform": {"numpy": "1"},
              "workloads": {"radar3d_ekf": dict(good, seed=1)}}
    studies = [_study("warmup", digests=good), _study("timed", digests=good)]
    env = {"numpy": "1"}

    reference, check = workloads.reference_digests(golden, env, "radar3d_ekf", 1, studies)
    assert check == "golden"
    assert workloads.count_failures(studies, reference) == 0

    golden["workloads"]["radar3d_ekf"]["csv_sha256"] = "0" * 64
    reference, _ = workloads.reference_digests(golden, env, "radar3d_ekf", 1, studies)
    assert workloads.count_failures(studies, reference) == 2


def test_digests_must_agree_across_studies_off_the_golden_seed():
    good = {"csv_sha256": "c" * 64, "summary_sha256": "s" * 64}
    bad = dict(good, csv_sha256="0" * 64)
    golden = {"platform": {}, "workloads": {"radar3d_ekf": dict(good, seed=1)}}
    studies = [_study("warmup", digests=good), _study("timed", digests=good),
               _study("timed", digests=bad), _study("timed", error="ValueError: x")]
    reference, check = workloads.reference_digests(golden, {}, "radar3d_ekf", 7, studies)
    assert (reference, check) == (good, "agree")
    assert workloads.count_failures(studies, reference) == 2


def test_traced_study_counts_nested_calls_and_restores_bindings():
    cfg = trackfuse.load_preset("scenario2", runs=1, duration_s=6)
    plain = workloads.report_digests(trackfuse.run_scenario(cfg))
    modules = [mod for name, mod in sys.modules.items()
               if name == "trackfuse" or name.startswith("trackfuse.")]
    owners = modules + [trackfuse.GaussianDensity, trackfuse.MeasurementModel]
    before = [dict(vars(owner)) for owner in owners]

    with Tracer() as tracer:
        traced = workloads.report_digests(trackfuse.run_scenario(cfg))

    assert traced == plain
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    # 6 steps, 2 sensors, 4 distributed strategies re-running the locals.
    assert calls["filters.imm_step"] == 48
    assert calls["filters.ekf_predict"] > calls["filters.imm_step"]
    assert calls["gaussians.assert_spd"] >= calls["gaussians.GaussianDensity"] > 0
    assert calls["filters.route_feedback"] > 0
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[key] is value for key, value in saved.items())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "radar3d_ekf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
