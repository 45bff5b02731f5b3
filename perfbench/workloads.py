"""Workload definitions and output digests shared by the benchmark's processes.

This module imports only the standard library, so the parent process can load
it without paying for numpy or scipy. ``trackfuse`` is passed in by callers
that have already imported it.
"""

from __future__ import annotations

import collections
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class Workload:
    """One Monte Carlo study, run closed loop: one study at a time."""

    preset: str
    runs: int
    overrides: dict = field(default_factory=dict)


# Run counts size one study at about 1.5 s (4 s for feedback, whose smallest
# study is one run) on a 2-vCPU Xeon VM, so a 30 s measurement holds several.
WORKLOADS = {
    # EKF locals and multi-operand Gaussian fusion with a centre track; the
    # IMM, mixtures and feedback do no work.
    "radar3d_ekf": Workload("scenario1", runs=10),
    # Bearing-only IMM with feedback: the locals re-run for every strategy,
    # so the IMM, mixture HMD/PCF and route_feedback dominate.
    "bearing2d_imm_feedback": Workload("scenario2", runs=1),
    # The same IMM and mixtures without feedback: one local pass is shared by
    # the distributed strategies and fused mixtures are pruned, not routed.
    "bearing2d_imm_open": Workload("scenario2", runs=1, overrides={"feedback": False}),
}


def build_config(trackfuse, name: str, seed: int | None):
    """The workload's ``ScenarioConfig``; ``seed=None`` keeps the preset seed."""
    wl = WORKLOADS[name]
    return trackfuse.load_preset(wl.preset, runs=wl.runs, seed=seed, **wl.overrides)


def report_digests(report) -> dict:
    """sha256 of the report's CSV and of its timing-free summary JSON."""
    summary = json.dumps(report.summary_dict(include_timing=False), sort_keys=True)
    return {
        "csv_sha256": hashlib.sha256(report.csv_text().encode()).hexdigest(),
        "summary_sha256": hashlib.sha256(summary.encode()).hexdigest(),
    }


def digest_platform(numpy, scipy) -> dict:
    """What the digests depend on besides config and seed.

    Floating-point results can differ in the last bits between CPU kernel
    sets, so the CPU features numpy dispatches on are recorded; OpenBLAS
    picks its kernels from the same features.
    """
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        cpu = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    except ImportError:
        cpu = None
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cpu_dispatch": cpu}


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_digests(golden: dict, env: dict, workload: str, seed: int,
                      studies: list) -> tuple[dict | None, str]:
    """Digests every study must match, and how they were chosen.

    At the seed and on the platform the golden file records, the reference is
    the committed digest ("golden"). Otherwise it is the digest most studies
    produced, so the check becomes "every study of this seed gives the same
    digest" ("agree").
    """
    entry = golden["workloads"].get(workload)
    same_platform = all(env.get(k) == v for k, v in golden["platform"].items())
    if entry is not None and entry["seed"] == seed and same_platform:
        return {k: entry[k] for k in ("csv_sha256", "summary_sha256")}, "golden"
    seen = collections.Counter(json.dumps(s["digests"], sort_keys=True)
                               for s in studies if s["error"] is None)
    if not seen:
        return None, "agree"
    return json.loads(seen.most_common(1)[0][0]), "agree"


def count_failures(studies: list, reference) -> int:
    """Studies that raised, or whose digests differ from ``reference``."""
    return sum(1 for s in studies
               if s["error"] is not None or s["digests"] != reference)
