"""Tests for the command-line interface.

Commands run in-process through ``main(argv)`` so exit codes and output can
be asserted directly; one subprocess test checks the installed entry point.
"""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest

from trackfuse import GaussianDensity, GaussianMixture, density_from_dict, density_to_dict
import trackfuse.cli
from trackfuse.cli import main
from trackfuse.gaussians import gaussian_division
from trackfuse.validation import run_suite

FAST_CONFIG = """
[scenario]
name = cli_toy
duration_s = 10
dt_s = 1

[truth]
kind = sine2d
speed_knots = 16
amplitude_m = 50

[tracker]
kind = ekf
q = 0.5, 0.5

[sensor.1]
kind = bearing
position_m = 0, 0
sigma_bearing_deg = 1.5

[sensor.2]
kind = bearing
position_m = 600, 0
sigma_bearing_deg = 2

[fusion]
strategies = naive, hmd

[monte_carlo]
runs = 2
seed = 3
"""


def _write_density(path, density):
    path.write_text(json.dumps(density_to_dict(density)), encoding="utf-8")
    return str(path)


@pytest.fixture
def density_files(tmp_path):
    a = GaussianDensity([1.0, 3.0], 100.0 * np.eye(2))
    b = GaussianDensity([7.0, 10.0], 50.0 * np.eye(2))
    return (_write_density(tmp_path / "a.json", a),
            _write_density(tmp_path / "b.json", b))


# ---------------------------------------------------------------------------
# fuse


def test_fuse_default_strategy_reports_diagnostics(density_files, capsys):
    a_path, b_path = density_files
    assert main(["fuse", a_path, b_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "hmd"
    fused = density_from_dict(payload["density"])
    assert fused.dim == 2
    assert payload["diagnostics"]["pd_margin"] > 0.0


def test_fuse_hmd_at_an_endpoint_prints_the_operand(density_files, capsys):
    a_path, b_path = density_files
    assert main(["fuse", a_path, b_path, "--strategy", "hmd", "--omega", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    with open(a_path, encoding="utf-8") as fh:
        assert payload["density"] == json.load(fh)
    assert payload["diagnostics"] == {"endpoint": True}


@pytest.mark.parametrize("strategy", ["naive", "gmd", "amd", "pcf", "hmd"])
def test_fuse_supports_every_strategy(density_files, capsys, strategy):
    a_path, b_path = density_files
    assert main(["fuse", a_path, b_path, "--strategy", strategy,
                 "--omega", "0.4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == strategy
    density_from_dict(payload["density"])


def test_fuse_accepts_mixture_inputs(tmp_path, capsys):
    mix = GaussianMixture(
        np.array([0.6, 0.4]),
        (GaussianDensity([0.0], [[2.0]]), GaussianDensity([4.0], [[3.0]])))
    other = GaussianMixture(
        np.array([0.5, 0.5]),
        (GaussianDensity([1.0], [[2.5]]), GaussianDensity([3.0], [[1.5]])))
    a_path = _write_density(tmp_path / "ma.json", mix)
    b_path = _write_density(tmp_path / "mb.json", other)
    assert main(["fuse", a_path, b_path, "--strategy", "hmd"]) == 0
    payload = json.loads(capsys.readouterr().out)
    fused = density_from_dict(payload["density"])
    assert isinstance(fused, GaussianMixture)


def test_fuse_rejects_malformed_json(tmp_path, density_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["fuse", str(bad), density_files[1]]) == 2
    assert "invalid density input" in capsys.readouterr().err


@pytest.mark.parametrize("mean", [[float("nan"), 0.0], [0.0, float("inf")], [[1.0, 0.0]]])
@pytest.mark.parametrize("mixture", [False, True])
def test_fuse_rejects_a_mean_that_is_not_a_finite_vector(tmp_path, density_files,
                                                         capsys, mean, mixture):
    cov = [[[1.0, 0.0], [0.0, 1.0]]] if np.ndim(mean) == 2 else [[1.0, 0.0], [0.0, 1.0]]
    data = {"mean": mean, "cov": cov}
    if mixture:
        data = {"weights": [0.5, 0.5],
                "components": [data, {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["fuse", str(bad), density_files[1], "--strategy", "gmd"]) == 2
    err = capsys.readouterr().err
    assert "invalid density input" in err and "mean must be a vector of finite numbers" in err


@pytest.mark.parametrize("tags", [[1, 2], "ab"])
def test_fuse_rejects_tags_that_are_not_strings(tmp_path, capsys, tags):
    comp = {"mean": [0.0], "cov": [[1.0]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"weights": [0.5, 0.5], "components": [comp, comp],
                               "tags": tags}), encoding="utf-8")
    assert main(["fuse", str(bad), str(bad), "--strategy", "amd"]) == 2
    err = capsys.readouterr().err
    assert "invalid density input" in err and "tags must be a list of strings" in err


def test_fuse_rejects_missing_file(tmp_path, density_files):
    assert main(["fuse", str(tmp_path / "absent.json"), density_files[1]]) == 2


@pytest.mark.parametrize("omega", ["1.5", "-0.1"])
def test_fuse_rejects_out_of_range_omega(density_files, omega, capsys):
    a_path, b_path = density_files
    assert main(["fuse", a_path, b_path, "--omega", omega]) == 2
    assert "--omega" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["naive", "gmd", "amd", "pcf", "hmd"])
def test_fuse_dimension_mismatch_exits_three(tmp_path, density_files, capsys, strategy):
    # gmd printed a 2-d density and exited 0; every rule now names both dimensions.
    one_d = _write_density(tmp_path / "c.json", GaussianDensity([0.0], [[1.0]]))
    assert main(["fuse", density_files[0], one_d, "--strategy", strategy]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fusion failed" in captured.err
    assert "share one dimension, got dimensions 2, 1" in captured.err


def test_unknown_strategy_is_a_usage_error(density_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuse", density_files[0], density_files[1],
              "--strategy", "bogus"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


# ---------------------------------------------------------------------------
# simulate


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(FAST_CONFIG, encoding="utf-8")
    return str(path)


def test_simulate_writes_csv_and_summary(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", config_file,
                 "--out-dir", str(out)]) == 0
    err = capsys.readouterr().err
    assert "simulating cli_toy" in err
    csv_text = (out / "cli_toy_metrics.csv").read_text(encoding="utf-8")
    assert csv_text.startswith(
        "step,time_s,strategy,rmse_pos_m,rmse_vel_mps,nees,nees_lo,nees_hi")
    summary = json.loads((out / "cli_toy_summary.json").read_text(encoding="utf-8"))
    assert summary["scenario"] == "cli_toy"
    assert summary["runs"] == 2
    assert set(summary["track_loss"]) == {"naive", "hmd"}


def test_simulate_strategy_alias_overrides(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", config_file, "--strategy", "hmd",
                 "--runs", "1", "--seed", "9", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "cli_toy_summary.json").read_text(encoding="utf-8"))
    assert set(summary["track_loss"]) == {"hmd"}
    assert summary["runs"] == 1


def test_simulate_preset_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "scenario1", "--runs", "2",
                 "--strategies", "naive,hmd", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "scenario1_summary.json").read_text(encoding="utf-8"))
    assert summary["runs"] == 2


def test_simulate_exit_four_when_every_run_diverges(config_file, tmp_path, capsys):
    cfg_text = FAST_CONFIG.replace("dt_s = 1", "dt_s = 1\ntrack_loss_m = 0.000001")
    path = tmp_path / "doomed.cfg"
    path.write_text(cfg_text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 4
    # The report files are written before the divergence verdict.
    assert (out / "cli_toy_metrics.csv").exists()
    summary = json.loads((out / "cli_toy_summary.json").read_text(encoding="utf-8"))
    assert all(rate == 1.0 for rate in summary["track_loss"].values())
    assert "diverged" in capsys.readouterr().err


def test_simulate_missing_config_exits_two(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_simulate_unparseable_config_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("strategies = naive\n", encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_simulate_inconsistent_config_exits_two(tmp_path, capsys):
    cfg_text = FAST_CONFIG.replace("dt_s = 1", "dt_s = 1\nfeedback = true")
    path = tmp_path / "feedback_ekf.cfg"
    path.write_text(cfg_text, encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "feedback" in capsys.readouterr().err


IMM_TRACKER = """[tracker]
kind = imm
q_ncv = 0.01
q_nca = 0.001
transition = 0.8, 0.2; 0.8, 0.2
"""


def _assert_one_error_line(capsys, fragment):
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and fragment in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("args,fragment", [
    (["--preset", "scenario2", "--strategies", "hmd,bogus"], "'bogus'"),
    (["--preset", "scenario1", "--strategies", "naive,pcf"], "'pcf'"),
    (["--preset", "scenario1", "--strategies", "centralized_ca"], "'centralized_ca'"),
])
def test_simulate_strategy_the_engine_does_not_run_exits_two(args, fragment, capsys):
    assert main(["simulate", "--runs", "1"] + args) == 2
    _assert_one_error_line(capsys, fragment)


def test_simulate_an_empty_strategy_list_exits_two(tmp_path, capsys):
    # It ran every preset strategy and exited 0.
    assert main(["simulate", "--preset", "scenario1", "--runs", "1", "--strategies", "",
                 "--out-dir", str(tmp_path / "out")]) == 2
    _assert_one_error_line(capsys, "unknown fusion strategy for an EKF study: ''")
    assert not (tmp_path / "out").exists()


def test_simulate_a_repeated_strategy_exits_two(tmp_path, capsys):
    assert main(["simulate", "--preset", "scenario2", "--runs", "1", "--strategies",
                 "hmd,hmd", "--out-dir", str(tmp_path / "out")]) == 2
    _assert_one_error_line(capsys, "listed more than once: 'hmd'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mutate,fragment", [
    (lambda t: t.replace("dt_s = 1", "dt_s = 1\nfusion_every = 0"), "fusion_every"),
    (lambda t: t.replace("dt_s = 1", "dt_s = 1\nnees_sided = 3"), "nees_sided"),
    (lambda t: t.replace("[tracker]\nkind = ekf\nq = 0.5, 0.5\n",
                         IMM_TRACKER.replace("0.8, 0.2; 0.8", "0.8, 0.3; 0.8")),
     "IMM tracker: transition rows must sum to 1"),
    (lambda t: t.replace("runs = 2", "runs = many"), "[monte_carlo] runs = 'many'"),
    (lambda t: t.replace("runs = 2", "runs = 2.7"), "[monte_carlo] runs = 2.7"),
    (lambda t: t.replace("q = 0.5, 0.5\n", "q = 0.5, 0.5\ninit_pos_std_m = 0\n"),
     "tracker.init_pos_std must be positive and finite"),
    (lambda t: t.replace("[tracker]\nkind = ekf\nq = 0.5, 0.5\n",
                         IMM_TRACKER.replace("q_ncv = 0.01", "q_ncv = abc")),
     "[tracker] q_ncv = 'abc'"),
    # Checked before any run: a zero sigma or wavelength died in the first
    # run with a traceback, a negative density failed mid-study or not at all.
    (lambda t: t.replace("sigma_bearing_deg = 2", "sigma_bearing_deg = 0"),
     "sensor 2 (bearing): noise covariance fails"),
    (lambda t: t.replace("amplitude_m = 50", "amplitude_m = 50\nwavelength_m = 0"),
     "truth.wavelength_m must be non-zero and finite"),
    (lambda t: t.replace("q = 0.5, 0.5\n", "q = -0.5, 0.5\n"),
     "tracker.q must be non-negative and finite"),
    (lambda t: t.replace("[tracker]\nkind = ekf\nq = 0.5, 0.5\n",
                         IMM_TRACKER.replace("q_nca = 0.001", "q_nca = -0.001")),
     "tracker.q_nca must be non-negative and finite"),
    # A negative speed held the target still while it reported a velocity.
    (lambda t: t.replace("speed_knots = 16", "speed_knots = -16"),
     "truth.speed_mps must be non-negative and finite"),
    # Feedback at an omega endpoint died in route_feedback at the first fusion step.
    *[(lambda t, omega=omega: t.replace("[tracker]\nkind = ekf\nq = 0.5, 0.5\n", IMM_TRACKER)
       .replace("dt_s = 1", "dt_s = 1\nfeedback = true")
       .replace("strategies = naive, hmd", f"strategies = naive, hmd\nomega = {omega}"),
       "feedback needs 0 < omega < 1") for omega in (0, 1)],
    (lambda t: t.replace("dt_s = 1", "dt_s = 1\nfeedback = maybe"),
     "[scenario] feedback = 'maybe' is invalid"),
    # The progress line's step count raised a ValueError traceback.
    (lambda t: t.replace("duration_s = 10", "duration_s = nan"),
     "duration_s must be positive and finite, got nan"),
])
def test_simulate_config_rejected_at_the_boundary_exits_two(mutate, fragment,
                                                           tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(mutate(FAST_CONFIG), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out-dir",
                 str(tmp_path / "out")]) == 2
    _assert_one_error_line(capsys, fragment)
    assert not (tmp_path / "out").exists()


def test_simulate_a_negative_seed_exits_two(tmp_path, capsys):
    # It died in the first run's SeedSequence with a traceback and exit 1.
    assert main(["simulate", "--preset", "scenario2", "--runs", "1", "--seed", "-1",
                 "--out-dir", str(tmp_path / "out")]) == 2
    _assert_one_error_line(capsys, "seed must be a non-negative integer, got -1")
    assert not (tmp_path / "out").exists()


def test_simulate_unknown_preset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "nonexistent"])
    assert exc.value.code == 2


def test_bench_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_with_few_trials(capsys):
    assert main(["validate", "--trials", "5"]) == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.out.strip().split("\n") if l]
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines)
    assert "all 7 checks passed" in captured.err


def test_validate_detects_broken_division(capsys, monkeypatch):
    def broken_division(num, den):
        out = gaussian_division(num, den)
        broken = GaussianDensity(out.density.mean + 1.0, 1.5 * out.density.cov)
        return type(out)(out.log_scale, broken)

    monkeypatch.setattr(trackfuse.cli, "run_suite",
                        functools.partial(run_suite, division_fn=broken_division))
    assert main(["validate", "--trials", "5"]) == 5
    captured = capsys.readouterr()
    assert any(line.startswith("FAIL") for line in captured.out.split("\n"))
    assert "checks failed" in captured.err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_validate_rejects_vacuous_trial_counts_as_usage_errors(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err and "positive integer" in captured.err
    assert "checks passed" not in captured.err and not captured.out


def test_validate_has_no_hidden_break_division_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--trials", "5", "--break-division"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# packaging


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "trackfuse.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
