"""The CLI's public output, pinned byte for byte.

``cli_digests.json`` holds the sha256 of the stdout of ``trackfuse fuse`` for
every strategy at ``--omega`` 0, 0.4, 0.5 and 1, on the Gaussian and the
mixture fixtures of ``tests/test_cli.py``, and of the default
``trackfuse validate``.
A refactor that claims unchanged numbers must keep them. The digests were
recorded on the platform of ``perfbench/golden.json``, which is only read
here; elsewhere floating-point results may differ in the last bits, so the
test skips.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from trackfuse import GaussianDensity, GaussianMixture, density_to_dict
from trackfuse.cli import main
from test_golden_digests import GOLDEN, PLATFORM

DIGESTS = json.loads((Path(__file__).with_name("cli_digests.json")).read_text(encoding="utf-8"))
STRATEGIES = ("naive", "gmd", "amd", "pcf", "hmd")
OMEGAS = ("0", "0.4", "0.5", "1")

# The fixtures of tests/test_cli.py: two 2-D Gaussians and two 1-D mixtures.
FIXTURES = {
    "gaussian": (GaussianDensity([1.0, 3.0], 100.0 * np.eye(2)),
                 GaussianDensity([7.0, 10.0], 50.0 * np.eye(2))),
    "mixture": (GaussianMixture(np.array([0.6, 0.4]), (GaussianDensity([0.0], [[2.0]]),
                                                       GaussianDensity([4.0], [[3.0]]))),
                GaussianMixture(np.array([0.5, 0.5]), (GaussianDensity([1.0], [[2.5]]),
                                                       GaussianDensity([3.0], [[1.5]])))),
}


def _stdout_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def cli_digests(tmp_path: Path) -> dict:
    """``{case: sha256 of stdout}`` for every pinned command."""
    digests = {}
    for kind, pair in FIXTURES.items():
        paths = []
        for name, density in zip("ab", pair):
            path = tmp_path / f"{kind}_{name}.json"
            path.write_text(json.dumps(density_to_dict(density)), encoding="utf-8")
            paths.append(str(path))
        for strategy in STRATEGIES:
            for omega in OMEGAS:
                digests[f"fuse {kind} {strategy} {omega}"] = _stdout_digest(
                    ["fuse", *paths, "--strategy", strategy, "--omega", omega])
    digests["validate"] = _stdout_digest(["validate"])
    return digests


def test_cli_output_reproduces_its_digests(tmp_path):
    recorded = GOLDEN["platform"]
    if any(PLATFORM.get(key) != value for key, value in recorded.items()):
        pytest.skip(f"CLI digests were recorded on {recorded}; this platform is "
                    f"{PLATFORM}, where floating-point results may differ")
    assert cli_digests(tmp_path) == DIGESTS


def test_every_pinned_case_is_recorded():
    assert len(DIGESTS) == len(FIXTURES) * len(STRATEGIES) * len(OMEGAS) + 1
    assert all(len(value) == 64 for value in DIGESTS.values())
