"""Benchmark of the ``trackfuse`` Monte Carlo studies, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload radar3d_ekf [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh single-process interpreters with BLAS threads
pinned to 1 and ``TRACKFUSE_THREADS`` unset. With ``--trace 0`` the command
reports the end-to-end metrics of ``BENCHMARK.json``: set-up time (median of
several fresh interpreters), study wall time (median over the studies that
fit in ``--seconds``), both scaled to a reference machine speed (see
``worker.SpeedProbe``), and peak resident memory. With ``--trace 1`` it times
untraced studies for half the time and traced ones for the other half, and
reports per-layer calls, self time and total time per study, plus the
tracing overhead.

Every study's output digests are checked: at the seed recorded in
``golden.json`` against the committed digests, at any other seed against the
digest the other studies of the run produced. Human-readable lines, including
the paper's accuracy figures and the environment, come first; the last line
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import traced_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Set-up is measured in this many fresh interpreters besides the study one.
SETUP_PROBES = 3
# Every child must end before this, so the command ends within 180 s.
TIME_LIMIT_S = 170.0
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MB"}
# Median times of the worker's speed-probe kernels on the reference machine
# (a 2-vCPU Xeon VM shared with other tenants): the pure-Python one probes
# set-up, the mixed one studies. Times are reported as if the machine ran at
# that speed: measured time * reference kernel time / probed kernel time.
SETUP_KERNEL_REF_S = 0.0005
STUDY_KERNEL_REF_S = 0.00035


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="Monte Carlo master seed (default: the preset's seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0.0 < args.seconds <= 120.0:
        parser.error("--seconds must be in (0, 120]")
    return args


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TRACKFUSE_THREADS"}
    env.update(PINNED_THREADS)
    return env


def _run_worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _scaled_times(studies: list, phase: str) -> list:
    """Study times of one phase at the reference machine speed."""
    return [s["seconds"] * STUDY_KERNEL_REF_S / s["kernel_s"] for s in studies
            if s["phase"] == phase and s["error"] is None]


def e2e_metrics(setups: list, studies: list, peak_rss_mb: float) -> dict:
    """``setups`` holds ``(setup_s, setup_kernel_s)`` pairs, one per interpreter."""
    timed = _scaled_times(studies, "timed")
    if not timed:
        raise BenchError("no timed study succeeded")
    values = {"setup_s": statistics.median(setup * SETUP_KERNEL_REF_S / kernel
                                           for setup, kernel in setups),
              "study_s": statistics.median(timed),
              "peak_rss_mb": peak_rss_mb}
    return {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}


def layer_metrics(studies: list) -> tuple[dict, bool]:
    """Per-study layer metrics, and whether call counts repeat across studies."""
    traced = [s for s in studies if s["phase"] == "traced" and s["error"] is None]
    timed = _scaled_times(studies, "timed")
    if not traced or not timed:
        raise BenchError("no traced or no untimed study succeeded")
    calls = {name: traced[0]["layers"][name][0] for name in traced_names()}
    repeat = all(s["layers"][name][0] == calls[name]
                 for s in traced for name in traced_names())
    metrics = {}
    for name in traced_names():
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        for i, key in ((1, "self_s"), (2, "total_s")):
            metrics[f"{name}.{key}"] = {
                "value": statistics.median(s["layers"][name][i] for s in traced),
                "unit": "s"}
    ratio = statistics.median(_scaled_times(studies, "traced")) / statistics.median(timed)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics, repeat


def git_commit(root: Path = ROOT):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _print_report(args, result: dict, check: str, failed: int, metrics: dict) -> None:
    studies = result["studies"]
    good = [s for s in studies if s["error"] is None]
    timed = [s["seconds"] for s in good if s["phase"] == "timed"]
    kernel = [s["kernel_s"] for s in good if s["phase"] == "timed"]
    q1, q3 = _quartiles(timed)
    how = ("digests match golden.json" if check == "golden" else
           "digests agree across studies; golden.json covers another seed or platform")
    print(f"workload {args.workload}  seed {result['seed']}  ({how})")
    print(f"studies {len(studies)} (1 warm-up)  timed {len(timed)}"
          f"  unscaled study wall time: median {statistics.median(timed):.4f} s"
          f" q1 {q1:.4f} q3 {q3:.4f}  speed-probe kernel median"
          f" {statistics.median(kernel) * 1e3:.4f} ms"
          f" (reference {STUDY_KERNEL_REF_S * 1e3} ms)")
    if good:
        print(f"hmd_rmse_pos_m {good[0]['hmd_rmse_pos_m']} m")
        print(f"lost_runs {good[0]['lost_runs']} count")
    print(f"failed_frac {failed / len(studies):.4f} ratio")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    env = dict(result["environment"], cpu_count=os.cpu_count(),
               threads=PINNED_THREADS, trackfuse_threads="unset",
               git_commit=git_commit())
    print("environment " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "trackfuse" / "__init__.py").is_file():
        print(f"perfbench: no trackfuse sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = [] if args.trace else [_run_worker(args, deadline, True)
                                         for _ in range(SETUP_PROBES)]
        result = _run_worker(args, deadline, False)
        setups = [(p["setup_s"], p["setup_kernel_s"]) for p in probes + [result]]
        studies = result["studies"]
        reference, check = workloads.reference_digests(
            workloads.load_golden(), result["environment"], args.workload,
            result["seed"], studies)
        failed = workloads.count_failures(studies, reference)
        if args.trace:
            metrics, counts_repeat = layer_metrics(studies)
        else:
            metrics = e2e_metrics(setups, studies, result["peak_rss_mb"])
            counts_repeat = True
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_report(args, result, check, failed, metrics)
    print(json.dumps({"correct": failed == 0 and counts_repeat,
                      "attempted": len(studies), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
