"""One benchmark process: set-up timing, then timed and optionally traced studies.

``run.py`` starts this script in a fresh interpreter with BLAS threads pinned
and reads the JSON object it prints as its last line. Set-up time runs from
the start of ``import trackfuse`` until the workload's ``ScenarioConfig`` is
built. A study is one ``run_scenario`` call; the first is an untimed warm-up.
Every timed interval also records the machine's speed (see :class:`SpeedProbe`).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def python_kernel() -> None:
    """Fixed pure-Python work; used while ``numpy`` is not imported yet."""
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003


def mixed_kernel(numpy):
    """Fixed work shaped like a study: small numpy linear algebra driven from
    Python. It tracks a study's slowdowns better than pure Python does."""
    rng = numpy.random.default_rng(0)
    mats = [m @ m.T + 6.0 * numpy.eye(6) for m in rng.standard_normal((8, 6, 6))]

    def kernel() -> None:
        for m in mats:
            numpy.linalg.solve(numpy.linalg.cholesky(m), m[0])
        acc = 0
        for i in range(3000):
            acc = (acc * 31 + i) % 1000003

    kernel()
    return kernel


class SpeedProbe:
    """Time a fixed kernel every 25 ms while the block runs.

    Neighbours on a shared machine slow every process on a core by up to a
    quarter for tens of seconds at a time. A measured time divided by the
    kernel's median time over the same interval cancels most of that drift:
    on a shared 2-vCPU VM it cut the spread between 15 s windows of study
    times from 0.28 to 0.03. The kernel uses no ``trackfuse`` code, so the
    ratio still moves with the program. It adds about 2 % to the measured
    time.
    """

    PERIOD_S = 0.025

    def __init__(self, kernel):
        self._kernel = kernel
        self.samples: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._tick()
        return False

    def _tick(self, *_):
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    @property
    def kernel_s(self) -> float:
        return statistics.median(self.samples)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _study(trackfuse, build, kernel, phase: str) -> dict:
    """Build the config and run one study; only ``run_scenario`` is timed."""
    record = {"phase": phase, "seconds": None, "kernel_s": None, "error": None,
              "digests": None}
    try:
        cfg = build()
        with SpeedProbe(kernel) as speed:
            start = time.perf_counter()
            report = trackfuse.run_scenario(cfg)
            record["seconds"] = time.perf_counter() - start
        record["kernel_s"] = speed.kernel_s
    except Exception as exc:  # a failing study is counted, not fatal
        traceback.print_exc()
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["digests"] = workloads.report_digests(report)
    summary = report.summary_dict(include_timing=False)
    record["hmd_rmse_pos_m"] = summary["steady_state_rmse_pos_m"].get("hmd")
    record["lost_runs"] = round(sum(rate * report.runs
                                    for rate in summary["track_loss"].values()))
    return record


def _phase(trackfuse, build, kernel, phase: str, budget_s: float,
           traced: bool) -> list:
    """Run studies back to back while the next one fits in ``budget_s``.

    At least one study runs. A traced study records its per-layer stats,
    including the ``load_preset`` call that builds its config.
    """
    records = []
    start = time.perf_counter()
    while True:
        if traced:
            with Tracer() as tracer:
                record = _study(trackfuse, build, kernel, phase)
            record["layers"] = tracer.stats
        else:
            record = _study(trackfuse, build, kernel, phase)
        records.append(record)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(records) > budget_s:
            return records


def _environment() -> dict:
    import numpy
    import scipy

    return dict(workloads.digest_platform(numpy, scipy),
                python=platform.python_version(), machine=platform.machine())


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(SRC))

    with SpeedProbe(python_kernel) as speed:
        start = time.perf_counter()
        import trackfuse
        cfg = workloads.build_config(trackfuse, args.workload, args.seed)
        setup_s = time.perf_counter() - start

    if Path(trackfuse.__file__).resolve().parent != SRC / "trackfuse":
        print(f"worker: imported trackfuse from {trackfuse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out = {"setup_s": setup_s, "setup_kernel_s": speed.kernel_s, "seed": cfg.seed}
    if not args.setup_only:
        def build():
            return workloads.build_config(trackfuse, args.workload, args.seed)

        import numpy

        kernel = mixed_kernel(numpy)
        studies = [_study(trackfuse, build, kernel, "warmup")]
        if args.trace:
            half = args.seconds / 2.0
            studies += _phase(trackfuse, build, kernel, "timed", half, traced=False)
            studies += _phase(trackfuse, build, kernel, "traced", half, traced=True)
        else:
            studies += _phase(trackfuse, build, kernel, "timed", args.seconds,
                              traced=False)
        out["studies"] = studies
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["environment"] = _environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
