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
"""

import numpy as np

from trackfuse import load_preset, run_scenario


def _claims(preset):
    report = run_scenario(load_preset(preset))
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
