"""Configuration files for simulation scenarios.

Two on-disk forms are accepted:

- a line-oriented ``key = value`` format with ``[section]`` headers,
  ``#`` comments, comma-separated lists, and semicolon-separated matrix rows
  (see the shipped presets for the full key set);
- a JSON object with the same section names as keys.

Angles in configuration files are always degrees; they are converted to
radians on load. Sensor sections are numbered ``[sensor.1]``, ``[sensor.2]``
and so on.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from .errors import ConfigError
from .models import bearing_sensor, range_az_el_sensor
from .scenarios import (
    KNOT_MPS,
    EkfTracker,
    ImmTracker,
    NcvTruth,
    ScenarioConfig,
    SineTruth,
)

__all__ = ["parse_config_text", "load_config", "load_preset", "build_scenario",
           "PRESET_NAMES"]

PRESET_NAMES = ("scenario1", "scenario2", "scenario2_q05")


def _parse_scalar(token: str):
    token = token.strip()
    low = token.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(raw: str):
    raw = raw.strip()
    if ";" in raw:
        return [[_parse_scalar(t) for t in row.split(",")] for row in raw.split(";")]
    if "," in raw:
        return [_parse_scalar(t) for t in raw.split(",")]
    return _parse_scalar(raw)


def parse_config_text(text: str) -> dict:
    """Parse the key=value format into a dict of sections."""
    sections: dict = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        sections[current][key.strip()] = _parse_value(raw)
    return sections


class _Section:
    """Typed access to one section with required/default key handling; a value
    its ``cast`` rejects is a :class:`ConfigError` naming section and key."""

    def __init__(self, name: str, data: dict):
        self.name = name
        self.data = dict(data)

    def get(self, key, default=None, required=False, cast=lambda value: value):
        if required and key not in self.data:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        value = self.data.pop(key, default)
        try:
            return cast(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{self.name}] {key} = {value!r} is invalid: {exc}") from None

    def finish(self):
        if self.data:
            extra = ", ".join(sorted(self.data))
            raise ConfigError(f"[{self.name}] has unknown keys: {extra}")


def _count(value) -> int:
    """A whole number (JSON's ``2.0`` included) as an int; a fraction or a
    boolean raises ``ValueError``."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected a whole number")
    return int(value)


def _flag(value) -> bool:
    """A boolean (the key=value words true/yes/on and false/no/off parse to
    one); anything else raises ``ValueError``."""
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


# The counts and flags an API override may set; they are cast like file values.
_CAST_KEYS = {**dict.fromkeys(("runs", "seed", "fusion_every", "prune_to", "nees_sided"), _count),
              "feedback": _flag}


def _vector(length: int):
    """A cast to ``length`` floats, repeating a single value."""
    def cast(value):
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        if arr.size == 1:
            arr = np.full(length, float(arr[0]))
        if arr.size != length:
            raise ValueError(f"expected {length} values, got {arr.size}")
        return arr
    return cast


def _build_truth(sec: _Section):
    kind = sec.get("kind", required=True)
    if kind == "ncv3d":
        truth = NcvTruth(
            q=sec.get("q", required=True, cast=_vector(3)),
            initial_position=sec.get("initial_position_m", [0.0, 0.0, 2000.0], cast=_vector(3)),
            initial_velocity=sec.get("initial_velocity_mps", [100.0, 100.0, 0.0],
                                     cast=_vector(3)),
        )
    elif kind == "sine2d":
        speed = (sec.get("speed_mps", cast=float) if "speed_mps" in sec.data
                 else sec.get("speed_knots", required=True, cast=float) * KNOT_MPS)
        truth = SineTruth(
            start=sec.get("start_m", [150.0, 150.0], cast=_vector(2)),
            speed_mps=speed,
            amplitude_m=sec.get("amplitude_m", 200.0, cast=float),
            wavelength_m=sec.get("wavelength_m", 1500.0, cast=float),
            rotation_rad=math.radians(sec.get("rotation_deg", 45.0, cast=float)),
        )
    else:
        raise ConfigError(f"unknown truth kind {kind!r}")
    sec.finish()
    return truth


def _build_tracker(sec: _Section, spatial_dims: int):
    kind = sec.get("kind", required=True)
    if kind == "ekf":
        tracker = EkfTracker(
            q=sec.get("q", required=True, cast=_vector(spatial_dims)),
            init_pos_std=sec.get("init_pos_std_m", 100.0, cast=float),
            init_vel_std=sec.get("init_vel_std_mps", 10.0, cast=float),
        )
    elif kind == "imm":
        tracker = ImmTracker(
            q_ncv=sec.get("q_ncv", required=True, cast=float),
            q_nca=sec.get("q_nca", required=True, cast=float),
            transition=sec.get("transition", required=True,
                               cast=lambda v: np.asarray(v, dtype=float)),
            pad_var=sec.get("pad_var", 1.0, cast=float),
            init_pos_std=sec.get("init_pos_std_m", 100.0, cast=float),
            init_vel_std=sec.get("init_vel_std_mps", 10.0, cast=float),
            init_acc_std=sec.get("init_acc_std_mps2", 1.0, cast=float),
        )
    else:
        raise ConfigError(f"unknown tracker kind {kind!r}")
    sec.finish()
    return tracker


def _build_sensor(sec: _Section):
    kind = sec.get("kind", required=True)
    if kind == "range_az_el":
        sigma_az = sec.get("sigma_az_deg", required=True, cast=float)
        sensor = range_az_el_sensor(
            sec.get("position_m", required=True, cast=_vector(3)),
            sec.get("sigma_range_m", required=True, cast=float),
            math.radians(sigma_az),
            math.radians(sec.get("sigma_el_deg", sigma_az, cast=float)),
        )
    elif kind == "bearing":
        sensor = bearing_sensor(
            sec.get("position_m", required=True, cast=_vector(2)),
            math.radians(sec.get("sigma_bearing_deg", required=True, cast=float)),
        )
    else:
        raise ConfigError(f"unknown sensor kind {kind!r}")
    sec.finish()
    return sensor


def _strategy_list(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    return tuple(str(v).strip() for v in value)


def build_scenario(sections: dict) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from parsed sections."""
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise ConfigError(f"section [{key}] must map keys to values")
    sections = {str(k): dict(v) for k, v in sections.items()}
    try:
        scen = _Section("scenario", sections.pop("scenario"))
        truth_sec = _Section("truth", sections.pop("truth"))
        tracker_sec = _Section("tracker", sections.pop("tracker"))
        fusion_sec = _Section("fusion", sections.pop("fusion"))
        mc_sec = _Section("monte_carlo", sections.pop("monte_carlo"))
    except KeyError as exc:
        raise ConfigError(f"missing required section [{exc.args[0]}]") from None

    sensor_keys = sorted((k for k in sections if k.startswith("sensor.")),
                         key=lambda k: int(k.split(".", 1)[1]))
    sensors = tuple(_build_sensor(_Section(k, sections.pop(k))) for k in sensor_keys)
    if sections:
        raise ConfigError(f"unknown sections: {', '.join(sorted(sections))}")
    if not sensors:
        raise ConfigError("at least one [sensor.N] section required")

    truth = _build_truth(truth_sec)
    tracker = _build_tracker(tracker_sec, sensors[0].spatial_dims)
    config = ScenarioConfig(
        name=str(scen.get("name", "scenario")),
        duration_s=scen.get("duration_s", required=True, cast=float),
        dt_s=scen.get("dt_s", required=True, cast=float),
        truth=truth,
        sensors=sensors,
        tracker=tracker,
        strategies=_strategy_list(fusion_sec.get("strategies", required=True)),
        runs=mc_sec.get("runs", required=True, cast=_count),
        seed=mc_sec.get("seed", 0, cast=_count),
        fusion_every=scen.get("fusion_every", 2, cast=_count),
        feedback=scen.get("feedback", False, cast=_flag),
        omega=fusion_sec.get("omega", 0.5, cast=float),
        prune_to=fusion_sec.get("prune_to", 2, cast=_count),
        track_loss_m=scen.get("track_loss_m", 500.0, cast=float),
        nees_sided=scen.get("nees_sided", 2, cast=_count),
    )
    for sec in (scen, fusion_sec, mc_sec):
        sec.finish()
    return config


def _looks_like_json(text: str) -> bool:
    for ch in text:
        if not ch.isspace():
            return ch == "{"
    return False


def load_config(path, **overrides) -> ScenarioConfig:
    """Load a scenario configuration file (key=value or JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_config(text, **overrides)


def loads_config(text: str, **overrides) -> ScenarioConfig:
    """Parse configuration text (key=value or JSON) into a scenario."""
    if _looks_like_json(text):
        try:
            sections = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(sections, dict):
            raise ConfigError("JSON config must be an object of sections")
    else:
        sections = parse_config_text(text)
    config = build_scenario(sections)
    return _apply_overrides(config, overrides)


def _apply_overrides(config: ScenarioConfig, overrides: dict) -> ScenarioConfig:
    from dataclasses import replace

    clean = {k: v for k, v in overrides.items() if v is not None}
    section = _Section("overrides", clean)
    for key, cast in _CAST_KEYS.items():
        if key in clean:
            clean[key] = section.get(key, cast=cast)
    if "strategies" in clean:
        clean["strategies"] = _strategy_list(clean["strategies"])
    return replace(config, **clean) if clean else config


def load_preset(name: str, **overrides) -> ScenarioConfig:
    """Load one of the shipped scenario presets by name."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    text = resources.files("trackfuse.presets").joinpath(f"{name}.cfg").read_text()
    return loads_config(text, **overrides)
