"""Preset digests: each benchmark workload reproduces its committed output.

``perfbench/golden.json`` holds the sha256 of ``csv_text()`` and of the
timing-free summary JSON for every workload at its default seed, recorded on
one numpy/scipy/BLAS/CPU platform. A refactor that claims unchanged numbers
must keep them. The file is only read here; the workloads and the digest
functions come from ``perfbench/workloads.py`` so there is one definition of
each.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import trackfuse

_WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)

GOLDEN = workloads.load_golden()
PLATFORM = workloads.digest_platform(np, scipy)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reproduces_golden_digests(name):
    recorded = GOLDEN["platform"]
    if any(PLATFORM.get(key) != value for key, value in recorded.items()):
        pytest.skip(f"golden digests were recorded on {recorded}; this platform "
                    f"is {PLATFORM}, where floating-point results may differ")
    entry = GOLDEN["workloads"][name]
    cfg = workloads.build_config(trackfuse, name, None)
    assert cfg.seed == entry["seed"]
    digests = workloads.report_digests(trackfuse.run_scenario(cfg))
    assert digests == {"csv_sha256": entry["csv_sha256"],
                       "summary_sha256": entry["summary_sha256"]}


@pytest.mark.parametrize("dim", range(2, 7))
def test_derived_factors_equal_lapack_bit_for_bit(dim):
    """``zero_pad`` and ``truncate_state`` derive a factor from the parent's
    instead of factoring again. The digests stay unchanged only if this
    LAPACK factors the padded or truncated matrix to the same bits. Its
    small-matrix Cholesky computes a leading block independently of the rows
    below it for sizes up to 6, which covers the 4- and 6-state IMM modes of
    every preset; other LAPACKs (a recursive ``dpotrf2`` splits the matrix in
    halves) agree only to round-off."""
    recorded = GOLDEN["platform"]
    if any(PLATFORM.get(key) != value for key, value in recorded.items()):
        pytest.skip(f"checked on the platform the digests were recorded on: {recorded}")
    rng = np.random.default_rng(dim)
    for _ in range(500):
        root = rng.standard_normal((dim, dim))
        parent = trackfuse.GaussianDensity(rng.standard_normal(dim),
                                           root @ root.T + rng.random() * np.eye(dim))
        for k in range(1, dim):
            lead = trackfuse.truncate_state(parent, k)
            assert np.linalg.cholesky(lead.cov).tobytes() == lead.chol.tobytes()
            small = trackfuse.GaussianDensity(parent.mean[:k], parent.cov[:k, :k])
            padded = trackfuse.zero_pad(small, dim, 10.0 * rng.random())
            assert np.linalg.cholesky(padded.cov).tobytes() == padded.chol.tobytes()
