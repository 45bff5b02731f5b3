"""Scenario definitions: ground-truth generators and simulation configs.

Two families are built in:

- a 3-d nearly-constant-velocity aircraft observed by three range/azimuth/
  elevation radars, fused without feedback;
- a 2-d weaving vessel (constant speed along a rotated sine path) observed by
  two bearing-only sensors, tracked with a two-model IMM and fused with
  feedback to the local filters.

Truth for the first family is a stochastic rollout of the motion model; truth
for the second is deterministic (only the measurement noise and initial track
perturbations differ between Monte Carlo runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import MeasurementModel

__all__ = [
    "KNOT_MPS",
    "NcvTruth",
    "SineTruth",
    "EkfTracker",
    "ImmTracker",
    "ScenarioConfig",
    "ncv_truth_states",
    "sine_truth_states",
]

KNOT_MPS = 0.514444


@dataclass(frozen=True)
class NcvTruth:
    """Stochastic nearly-constant-velocity truth in 3-d."""

    q: np.ndarray
    initial_position: np.ndarray
    initial_velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "initial_position",
                           np.asarray(self.initial_position, dtype=float))
        object.__setattr__(self, "initial_velocity",
                           np.asarray(self.initial_velocity, dtype=float))


@dataclass(frozen=True)
class SineTruth:
    """Deterministic constant-speed sine path in 2-d.

    The path is ``start + R(rotation) [u, A sin(2 pi u / wavelength)]``
    traversed at constant ground speed (arc-length parameterization).
    """

    start: np.ndarray
    speed_mps: float
    amplitude_m: float
    wavelength_m: float
    rotation_rad: float

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))


@dataclass(frozen=True)
class EkfTracker:
    """Single-model EKF tracker settings (per-axis PSD, init uncertainty)."""

    q: np.ndarray
    init_pos_std: float = 100.0
    init_vel_std: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))


@dataclass(frozen=True)
class ImmTracker:
    """Two-model (NCV/NCA) IMM tracker settings."""

    q_ncv: float
    q_nca: float
    transition: np.ndarray
    pad_var: float = 1.0
    init_pos_std: float = 100.0
    init_vel_std: float = 10.0
    init_acc_std: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "transition",
                           np.atleast_2d(np.asarray(self.transition, dtype=float)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one Monte Carlo study."""

    name: str
    duration_s: float
    dt_s: float
    truth: NcvTruth | SineTruth
    sensors: tuple[MeasurementModel, ...]
    tracker: EkfTracker | ImmTracker
    strategies: tuple[str, ...]
    runs: int
    seed: int
    fusion_every: int = 2
    feedback: bool = False
    omega: float = 0.5
    prune_to: int = 2
    track_loss_m: float = 500.0
    nees_sided: int = 2

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "strategies", tuple(self.strategies))

    @property
    def n_steps(self) -> int:
        return int(round(self.duration_s / self.dt_s))


def ncv_truth_states(truth: NcvTruth, white: np.ndarray, dt: float) -> np.ndarray:
    """Simulate the NCV truth driven by the standard normals ``white[..., n_steps,
    2 dims]``, one step's increment a row; rows are ``[pos, vel]`` for steps
    0..n_steps, ``[..., n_steps + 1, 2 dims]``. A stack of runs steps as one
    ``[..., 2 dims]`` recursion, each run with the bits it gets alone."""
    from .gaussians import _matvec
    from .models import ncv_matrices

    dims = truth.initial_position.size
    f, q_mat = ncv_matrices(dt, truth.q, dims)
    eigval, eigvec = np.linalg.eigh(q_mat)
    factor = eigvec * np.sqrt(np.maximum(eigval, 0.0))
    noise = _matvec(factor, np.asarray(white, dtype=float))
    states = np.empty(noise.shape[:-2] + (noise.shape[-2] + 1, 2 * dims))
    states[..., 0, :] = np.concatenate((truth.initial_position, truth.initial_velocity))
    for k in range(noise.shape[-2]):
        states[..., k + 1, :] = _matvec(f, states[..., k, :]) + noise[..., k, :]
    return states


def sine_truth_states(truth: SineTruth, n_steps: int, dt: float) -> np.ndarray:
    """Deterministic sine-path truth; rows are ``[pos, vel]`` (4 columns).

    The curve parameter is resolved so that ground speed is constant: the
    cumulative arc length of the un-rotated template is tabulated on a dense
    grid and inverted at ``speed * t``.
    """
    wave_num = 2.0 * np.pi / truth.wavelength_m
    total_arc = truth.speed_mps * n_steps * dt
    # Dense parameter grid; arc length per unit u is at least 1, so u <= s.
    u_grid = np.linspace(0.0, total_arc * 1.05 + 1.0, 200001)
    du = u_grid[1] - u_grid[0]
    speed_u = np.hypot(1.0, truth.amplitude_m * wave_num * np.cos(wave_num * u_grid))
    arc = np.concatenate(([0.0], np.cumsum(0.5 * (speed_u[1:] + speed_u[:-1]) * du)))
    times = np.arange(n_steps + 1) * dt
    u_t = np.interp(truth.speed_mps * times, arc, u_grid)

    rot = np.array([[np.cos(truth.rotation_rad), -np.sin(truth.rotation_rad)],
                    [np.sin(truth.rotation_rad), np.cos(truth.rotation_rad)]])
    template = np.stack((u_t, truth.amplitude_m * np.sin(wave_num * u_t)), axis=-1)
    pos = truth.start + template @ rot.T
    tangent = np.stack((np.ones_like(u_t),
                        truth.amplitude_m * wave_num * np.cos(wave_num * u_t)),
                       axis=-1) @ rot.T
    vel = tangent * (truth.speed_mps / np.linalg.norm(tangent, axis=1))[:, None]
    return np.concatenate((pos, vel), axis=1)
