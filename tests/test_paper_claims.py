"""The abstract's claims at full preset counts.

The golden digests prove that the numbers did not move; these tests check
what they mean. Every preset runs at its full run count, and the ordering and
consistency claims are asserted on the report:

- scenario1: hmd's steady-state position RMSE is below gmd's, gmd's below
  both naive and amd, and no run is lost;
- scenario2: hmd is below gmd, gmd below naive, and amd loses every run;
- scenario2_q05: hmd is below naive;
- "while being consistent": hmd's steady-state NEES (the mean over the last
  20 fusion steps) is at most the upper chi-square bound in every preset.

NEES is checked one-sided: the conservative rules may sit below the lower
bound, and only hmd is held to the upper one (scenario2's centralized_cv is
overconfident on the weaving target, so it is not checked).

``preset_digests.json`` pins the same full-count reports: the sha256 of
``csv_text()`` and of the timing-free summary JSON of each preset, recorded
on the platform of ``perfbench/golden.json``. Elsewhere the digest test
skips, as the golden digests do; the claims run on every platform.
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from trackfuse import load_preset, run_scenario
from test_golden_digests import GOLDEN, PLATFORM, workloads

DIGESTS = json.loads(Path(__file__).with_name("preset_digests.json").read_text(encoding="utf-8"))


@functools.cache
def _report(preset):
    return run_scenario(load_preset(preset))


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_full_count_preset_reproduces_its_digests(preset):
    recorded = GOLDEN["platform"]
    if any(PLATFORM.get(key) != value for key, value in recorded.items()):
        pytest.skip(f"preset digests were recorded on {recorded}; this platform is "
                    f"{PLATFORM}, where floating-point results may differ")
    assert workloads.report_digests(_report(preset)) == DIGESTS[preset]


def _claims(preset):
    report = _report(preset)
    summary = report.summary_dict(include_timing=False)
    hmd = report.metrics["hmd"]
    nees = float(np.mean(hmd.nees[-20:]))
    assert nees <= hmd.nees_hi, (preset, nees, hmd.nees_hi)
    return summary["steady_state_rmse_pos_m"], summary["track_loss"]


def test_scenario1_hmd_beats_gmd_beats_naive_and_amd_without_loss():
    rmse, loss = _claims("scenario1")
    assert rmse["hmd"] < rmse["gmd"] < min(rmse["naive"], rmse["amd"]), rmse
    assert not any(loss.values()), loss


def test_scenario2_hmd_beats_gmd_beats_naive_and_amd_loses_every_run():
    rmse, loss = _claims("scenario2")
    assert rmse["hmd"] < rmse["gmd"] < rmse["naive"], rmse
    assert loss["amd"] == 1.0, loss


def test_scenario2_q05_hmd_beats_naive():
    rmse, _ = _claims("scenario2_q05")
    assert rmse["hmd"] < rmse["naive"], rmse
