"""Tests for configuration parsing, presets, and overrides."""

import json

import numpy as np
import pytest

from trackfuse import (
    ConfigError,
    EkfTracker,
    ImmTracker,
    KNOT_MPS,
    NcvTruth,
    SineTruth,
    load_preset,
    loads_config,
    load_config,
)
from trackfuse.config import PRESET_NAMES, build_scenario, parse_config_text

MINIMAL = """
# A tiny but complete scenario.
[scenario]
name = toy
duration_s = 20
dt_s = 2

[truth]
kind = sine2d
speed_knots = 16

[tracker]
kind = imm
q_ncv = 0.01
q_nca = 0.001
transition = 0.8, 0.2; 0.8, 0.2

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
runs = 3
"""


def test_parse_text_types_and_structure():
    sections = parse_config_text(
        "[a]\n"
        "flag = true\n"
        "off_flag = no\n"
        "count = 7\n"
        "rate = 2.5\n"
        "word = hello\n"
        "vec = 1, 2, 3\n"
        "mat = 0.8, 0.2; 0.8, 0.2\n"
        "# a comment line\n"
        "\n"
        "[b]\n"
        "x = 1\n")
    assert sections["a"]["flag"] is True
    assert sections["a"]["off_flag"] is False
    assert sections["a"]["count"] == 7
    assert isinstance(sections["a"]["count"], int)
    assert sections["a"]["rate"] == 2.5
    assert sections["a"]["word"] == "hello"
    assert sections["a"]["vec"] == [1, 2, 3]
    assert sections["a"]["mat"] == [[0.8, 0.2], [0.8, 0.2]]
    assert sections["b"] == {"x": 1}


@pytest.mark.parametrize(
    "text,message",
    [("[]\nx = 1\n", "empty section name"),
     ("[a]\njust words\n", "expected 'key = value'"),
     ("x = 1\n", "outside any"),],
)
def test_parse_text_reports_line_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def test_parse_text_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("[a]\nx = 1\nbroken line\n")


def test_minimal_config_builds_scenario():
    cfg = loads_config(MINIMAL)
    assert cfg.name == "toy"
    assert cfg.n_steps == 10
    assert isinstance(cfg.truth, SineTruth)
    assert cfg.truth.speed_mps == pytest.approx(16.0 * KNOT_MPS)
    # Unspecified sine parameters fall back to their defaults.
    assert cfg.truth.amplitude_m == 200.0
    assert cfg.truth.wavelength_m == 1500.0
    assert cfg.truth.rotation_rad == pytest.approx(np.deg2rad(45.0))
    assert isinstance(cfg.tracker, ImmTracker)
    np.testing.assert_allclose(cfg.tracker.transition,
                               [[0.8, 0.2], [0.8, 0.2]])
    assert cfg.strategies == ("naive", "hmd")
    assert len(cfg.sensors) == 2
    assert cfg.seed == 0


def test_angle_keys_convert_degrees_to_radians():
    cfg = loads_config(MINIMAL)
    sigma = np.sqrt(cfg.sensors[0].noise_cov[0, 0])
    assert sigma == pytest.approx(np.deg2rad(1.5), rel=1e-12)
    sigma2 = np.sqrt(cfg.sensors[1].noise_cov[0, 0])
    assert sigma2 == pytest.approx(np.deg2rad(2.0), rel=1e-12)


def test_sensor_sections_sort_numerically():
    text = MINIMAL + (
        "\n[sensor.10]\n"
        "kind = bearing\n"
        "position_m = 1200, 0\n"
        "sigma_bearing_deg = 3\n")
    cfg = loads_config(text)
    assert len(cfg.sensors) == 3
    # sensor.10 sorts after sensor.2, not between 1 and 2.
    np.testing.assert_allclose(cfg.sensors[2].position, [1200.0, 0.0])


def test_json_form_builds_identical_scenario():
    sections = parse_config_text(MINIMAL)
    cfg_text = loads_config(MINIMAL)
    cfg_json = loads_config(json.dumps(sections))
    assert cfg_json.name == cfg_text.name
    assert cfg_json.strategies == cfg_text.strategies
    assert cfg_json.truth.speed_mps == cfg_text.truth.speed_mps
    np.testing.assert_allclose(cfg_json.tracker.transition,
                               cfg_text.tracker.transition)
    for got, want in zip(cfg_json.sensors, cfg_text.sensors):
        np.testing.assert_allclose(got.position, want.position)
        np.testing.assert_allclose(got.noise_cov, want.noise_cov)


def test_json_errors():
    with pytest.raises(ConfigError, match="invalid JSON"):
        loads_config("{not json")
    with pytest.raises(ConfigError, match="must map keys"):
        build_scenario({"scenario": 5})


@pytest.mark.parametrize(
    "mutate,message",
    [(lambda t: t.replace("[truth]", "[ground]"), "missing required section"),
     (lambda t: t + "\n[extra]\nx = 1\n", "unknown sections"),
     (lambda t: t.replace("kind = bearing", "kind = sonar", 1), "unknown sensor kind"),
     (lambda t: t + "\n[scenario]\nwhatever = 1\n", "unknown keys"),
     (lambda t: t.replace("[scenario]\n", "[scenario]\nnees_marginal = posvel\n"),
      "unknown keys: nees_marginal"),
     (lambda t: t.replace("q_ncv = 0.01\n", ""), "missing required key"),],
)
def test_build_scenario_structural_errors(mutate, message):
    with pytest.raises(ConfigError, match=message):
        loads_config(mutate(MINIMAL))


@pytest.mark.parametrize("mutate,message", [
    (lambda t: t.replace("runs = 3", "runs = many"), r"\[monte_carlo\] runs = 'many'"),
    (lambda t: t.replace("q_ncv = 0.01", "q_ncv = abc"), r"\[tracker\] q_ncv = 'abc'"),
    (lambda t: t.replace("position_m = 0, 0", "position_m = 0, x"),
     r"\[sensor.1\] position_m = \[0, 'x'\]"),
    (lambda t: t.replace("position_m = 0, 0", "position_m = 0, 0, 0"),
     r"\[sensor.1\] position_m .*expected 2 values, got 3"),
    (lambda t: t.replace("transition = 0.8, 0.2; 0.8, 0.2", "transition = 0.8, 0.2; 1"),
     r"\[tracker\] transition"),
    (lambda t: t.replace("dt_s = 2", "dt_s = 2, 3"), r"\[scenario\] dt_s = \[2, 3\]"),
    # Counts must be whole numbers: a fraction or a boolean is not truncated.
    (lambda t: t.replace("runs = 3", "runs = 2.7"), r"\[monte_carlo\] runs = 2.7 .*whole"),
    (lambda t: t.replace("runs = 3", "runs = yes"), r"\[monte_carlo\] runs = True .*whole"),
    (lambda t: t.replace("runs = 3", "runs = 3\nseed = 1.5"), r"\[monte_carlo\] seed = 1.5"),
    (lambda t: t.replace("dt_s = 2", "dt_s = 2\nfusion_every = 2.5"),
     r"\[scenario\] fusion_every = 2.5"),
    (lambda t: t.replace("dt_s = 2", "dt_s = 2\nnees_sided = 1.5"),
     r"\[scenario\] nees_sided = 1.5"),
    (lambda t: t.replace("strategies = naive, hmd", "strategies = naive, hmd\nprune_to = 1.5"),
     r"\[fusion\] prune_to = 1.5"),
])
def test_a_value_that_cannot_be_coerced_names_its_section_and_key(mutate, message):
    with pytest.raises(ConfigError, match=message):
        loads_config(mutate(MINIMAL))


def test_a_json_value_of_the_wrong_type_names_its_section_and_key():
    sections = parse_config_text(MINIMAL)
    sections["monte_carlo"]["runs"] = [1, 2]
    with pytest.raises(ConfigError, match=r"\[monte_carlo\] runs = \[1, 2\]"):
        loads_config(json.dumps(sections))


def test_whole_json_numbers_load_as_counts():
    sections = parse_config_text(MINIMAL)
    sections["monte_carlo"].update(runs=2.0, seed=7.0)
    cfg = loads_config(json.dumps(sections))
    assert (cfg.runs, cfg.seed) == (2, 7) and type(cfg.runs) is int


def test_build_scenario_requires_a_sensor():
    text = "\n".join(line for line in MINIMAL.splitlines()
                     if not line.startswith(("kind = bearing",
                                             "position_m", "sigma_bearing")))
    text = text.replace("[sensor.1]", "").replace("[sensor.2]", "")
    with pytest.raises(ConfigError, match="at least one"):
        loads_config(text)


def test_unknown_truth_and_tracker_kinds():
    with pytest.raises(ConfigError, match="unknown truth kind"):
        loads_config(MINIMAL.replace("kind = sine2d", "kind = circle"))
    with pytest.raises(ConfigError, match="unknown tracker kind"):
        loads_config(MINIMAL.replace("kind = imm", "kind = ukf"))


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.name == "toy"


def test_overrides_replace_fields_and_ignore_none():
    cfg = load_preset("scenario1", runs=3, seed=9, strategies="hmd",
                      duration_s=None)
    assert cfg.runs == 3
    assert cfg.seed == 9
    assert cfg.strategies == ("hmd",)
    assert cfg.duration_s == 120.0


@pytest.mark.parametrize("key,value", [("runs", 2.7), ("runs", True), ("seed", 1.5),
                                       ("fusion_every", 2.5), ("prune_to", False),
                                       ("nees_sided", 1.5)])
def test_overrides_reject_counts_that_are_not_whole_numbers(key, value):
    with pytest.raises(ConfigError, match=rf"\[overrides\] {key} = {value!r} .*whole"):
        load_preset("scenario1", **{key: value})


def test_whole_number_overrides_load_as_counts():
    cfg = load_preset("scenario1", runs=2.0, seed=5)
    assert (cfg.runs, cfg.seed) == (2, 5) and type(cfg.runs) is int


@pytest.mark.parametrize("word,flag", [("true", True), ("Yes", True), ("on", True),
                                       ("false", False), ("NO", False), ("off", False)])
def test_feedback_words_parse_to_booleans(word, flag):
    cfg = loads_config(MINIMAL.replace("dt_s = 2", f"dt_s = 2\nfeedback = {word}"))
    assert cfg.feedback is flag


@pytest.mark.parametrize("word", ["maybe", "1", "0", "2.0"])
def test_a_feedback_word_that_is_not_a_boolean_is_rejected(word):
    # bool(...) turned every non-empty value, "false" in JSON included, on.
    with pytest.raises(ConfigError, match=rf"\[scenario\] feedback = .*{word}.* is invalid"):
        loads_config(MINIMAL.replace("dt_s = 2", f"dt_s = 2\nfeedback = {word}"))


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_a_json_feedback_that_is_not_a_boolean_is_rejected(value):
    sections = parse_config_text(MINIMAL)
    sections["scenario"]["feedback"] = value
    with pytest.raises(ConfigError, match=rf"\[scenario\] feedback = {value!r} is invalid"):
        loads_config(json.dumps(sections))


def test_a_json_boolean_feedback_loads():
    sections = parse_config_text(MINIMAL)
    sections["scenario"]["feedback"] = True
    assert loads_config(json.dumps(sections)).feedback is True


@pytest.mark.parametrize("value", ["no", "false", 0, 1.0])
def test_overrides_reject_a_feedback_that_is_not_a_boolean(value):
    with pytest.raises(ConfigError, match=rf"\[overrides\] feedback = {value!r} is invalid"):
        load_preset("scenario2", feedback=value)


def test_boolean_feedback_overrides_load():
    assert load_preset("scenario2", feedback=False).feedback is False
    assert load_preset("scenario2", feedback=True).feedback is True


def test_scenario1_preset_contents():
    cfg = load_preset("scenario1")
    assert cfg.name == "scenario1"
    assert cfg.duration_s == 120.0
    assert cfg.dt_s == 2.0
    assert cfg.fusion_every == 2
    assert cfg.feedback is False
    assert cfg.nees_sided == 2
    assert isinstance(cfg.truth, NcvTruth)
    np.testing.assert_allclose(cfg.truth.q, [0.5, 0.5, 0.001])
    np.testing.assert_allclose(cfg.truth.initial_position, [0.0, 0.0, 2000.0])
    assert isinstance(cfg.tracker, EkfTracker)
    assert len(cfg.sensors) == 3
    assert all(s.kind == "range_az_el" for s in cfg.sensors)
    np.testing.assert_allclose(cfg.sensors[0].position, [-3000.0, 4000.0, 0.0])
    assert cfg.sensors[2].noise_cov[1, 1] == pytest.approx(
        np.deg2rad(1.5) ** 2)
    assert cfg.strategies == ("centralized", "naive", "gmd", "amd", "hmd")
    assert cfg.runs == 100
    assert cfg.seed == 1


def test_scenario2_preset_contents():
    cfg = load_preset("scenario2")
    assert cfg.feedback is True
    assert cfg.dt_s == 1.0
    assert cfg.duration_s == 300.0
    assert cfg.nees_sided == 1
    assert cfg.track_loss_m == 500.0
    assert isinstance(cfg.truth, SineTruth)
    assert cfg.truth.amplitude_m == 50.0
    assert cfg.truth.speed_mps == pytest.approx(16.0 * KNOT_MPS)
    assert isinstance(cfg.tracker, ImmTracker)
    assert cfg.tracker.q_ncv == 0.01
    assert cfg.tracker.q_nca == 0.001
    assert len(cfg.sensors) == 2
    assert all(s.kind == "bearing" for s in cfg.sensors)
    np.testing.assert_allclose(cfg.sensors[1].position, [600.0, 0.0])
    assert cfg.strategies == ("centralized_cv", "centralized_ca", "naive",
                              "gmd", "amd", "hmd")
    assert cfg.runs == 50
    assert cfg.seed == 2


def test_scenario2_q05_preset_inflates_cv_noise():
    cfg = load_preset("scenario2_q05")
    base = load_preset("scenario2")
    assert cfg.tracker.q_ncv == 0.5
    assert cfg.tracker.q_nca == base.tracker.q_nca
    assert cfg.truth.amplitude_m == base.truth.amplitude_m
    assert cfg.truth.speed_mps == base.truth.speed_mps
    np.testing.assert_allclose(cfg.truth.start, base.truth.start)


def test_every_preset_loads():
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        assert cfg.runs > 0
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("scenario9")
