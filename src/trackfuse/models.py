"""Motion and measurement models for the tracking scenarios.

State vectors use block ordering: positions first, then velocities, then
(for the accelerating model) accelerations, each block spanning the spatial
axes in order. Process noise is the standard continuous white-noise
acceleration (or jerk) model integrated over one step, with a per-axis power
spectral density.

A measurement model takes one state ``[n]`` or a stack ``[..., n]`` (one
state per Monte Carlo run, say): ``measure`` returns ``[..., m]`` and
``jacobian`` ``[..., m, state_dim]``, each member with the bits it gets
alone. A stack with any member on the sensor raises what that member raises.
A model may stack sensors of one kind, ``position[..., s]`` and
``noise_cov[..., m, m]`` of equal leading shapes, broadcast against the states:
each (run, sensor) member of ``[R, S, n]`` gets its own sensor's bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeasurementSingular

__all__ = [
    "ncv_matrices",
    "nca_matrices",
    "MotionModel",
    "MeasurementModel",
    "range_az_el_sensor",
    "bearing_sensor",
    "wrap_angle",
]


def _psd_diag(q, dims: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim == 0:
        q = np.full(dims, float(q))
    if q.shape != (dims,):
        raise ValueError(f"need one spectral density per axis, got shape {q.shape}")
    return np.diag(q)


def ncv_matrices(dt: float, q, dims: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Transition and process-noise matrices for nearly constant velocity.

    ``F = [[I, dt I], [0, I]]`` and
    ``Q = [[dt^3/3 D, dt^2/2 D], [dt^2/2 D, dt D]]`` with ``D = diag(q)``.
    """
    eye = np.eye(dims)
    d = _psd_diag(q, dims)
    f = np.block([[eye, dt * eye], [np.zeros((dims, dims)), eye]])
    q_mat = np.block([[dt ** 3 / 3.0 * d, dt ** 2 / 2.0 * d],
                      [dt ** 2 / 2.0 * d, dt * d]])
    return f, q_mat


def nca_matrices(dt: float, q, dims: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Transition and process-noise matrices for nearly constant acceleration."""
    eye = np.eye(dims)
    zero = np.zeros((dims, dims))
    d = _psd_diag(q, dims)
    f = np.block([[eye, dt * eye, dt ** 2 / 2.0 * eye],
                  [zero, eye, dt * eye],
                  [zero, zero, eye]])
    q_mat = np.block([
        [dt ** 5 / 20.0 * d, dt ** 4 / 8.0 * d, dt ** 3 / 6.0 * d],
        [dt ** 4 / 8.0 * d, dt ** 3 / 3.0 * d, dt ** 2 / 2.0 * d],
        [dt ** 3 / 6.0 * d, dt ** 2 / 2.0 * d, dt * d],
    ])
    return f, q_mat


@dataclass(frozen=True)
class MotionModel:
    """A linear motion model: kind ('ncv' or 'nca'), step length, and PSD."""

    kind: str
    dt: float
    q: np.ndarray
    dims: int
    transition: np.ndarray = field(init=False, repr=False)
    noise: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind == "ncv":
            f, q_mat = ncv_matrices(self.dt, self.q, self.dims)
        elif self.kind == "nca":
            f, q_mat = nca_matrices(self.dt, self.q, self.dims)
        else:
            raise ValueError(f"unknown motion model kind: {self.kind!r}")
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "transition", f)
        object.__setattr__(self, "noise", q_mat)

    @property
    def state_dim(self) -> int:
        return self.transition.shape[0]


def _squared_norms(vec: np.ndarray):
    """``vec @ vec`` of each member of a ``[..., d]`` stack, as the
    ``(1, d) @ (d, 1)`` product that has the 1-D dot product's bits; with the
    leading axes reversed (a scalar for one vector)."""
    return (vec[..., None, :] @ vec[..., :, None]).T[0, 0]


def wrap_angle(angle):
    """Wrap angles to (-pi, pi]."""
    out = np.asarray(angle, dtype=float)
    out = -(np.mod(-out + np.pi, 2.0 * np.pi) - np.pi)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MeasurementModel:
    """A nonlinear sensor model with additive Gaussian noise.

    Kinds:

    - ``range_az_el``: range, azimuth ``atan2(dy, dx)`` and elevation
      ``atan2(dz, sqrt(dx^2+dy^2))`` of the target relative to a fixed
      3-d sensor position;
    - ``bearing``: single bearing ``atan2(dx, dy)`` measured clockwise from
      north (the y axis) at a fixed 2-d sensor position.
    """

    kind: str
    position: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.atleast_1d(np.asarray(self.position, dtype=float)))
        object.__setattr__(self, "noise_cov",
                           np.atleast_2d(np.asarray(self.noise_cov, dtype=float)))
        if self.kind not in ("range_az_el", "bearing"):
            raise ValueError(f"unknown measurement model kind: {self.kind!r}")
        dims, m = (3, 3) if self.kind == "range_az_el" else (2, 1)
        if self.position.shape[-1:] != (dims,) or self.noise_cov.shape[-2:] != (m, m):
            raise ValueError(f"{self.kind} needs a {dims}-d position and {m}x{m} noise")
        if self.position.shape[:-1] != self.noise_cov.shape[:-2]:
            raise ValueError(f"stacked positions {self.position.shape} and noise covariances "
                             f"{self.noise_cov.shape} need equal leading shapes")

    @property
    def spatial_dims(self) -> int:
        return self.position.shape[-1]

    @property
    def meas_dim(self) -> int:
        return self.noise_cov.shape[-1]

    @property
    def angle_indices(self) -> tuple[int, ...]:
        return (1, 2) if self.kind == "range_az_el" else (0,)

    def measure(self, state: np.ndarray) -> np.ndarray:
        """Noise-free measurement ``[..., m]`` of a state ``[..., n]``
        (positions leading), each member of a stack as it is measured alone.

        Raises
        ------
        MeasurementSingular
            If the target (of any member) sits on the sensor, where the
            angles are undefined.
        """
        # Components are read through the transposed view: scalars for one
        # state, arrays with the leading axes reversed for a stack.
        rel = np.asarray(state, dtype=float)[..., : self.spatial_dims] - self.position
        if self.kind == "bearing":
            dx, dy = rel.T
            if np.count_nonzero((dx == 0.0) & (dy == 0.0)):
                raise MeasurementSingular("bearing undefined at zero range")
            return np.arctan2(dx, dy).T[..., None]
        dx, dy, dz = rel.T
        horiz = np.hypot(dx, dy)
        if np.count_nonzero(horiz == 0.0):
            raise MeasurementSingular("azimuth undefined directly above the sensor")
        return np.array([np.sqrt(_squared_norms(rel)), np.arctan2(dy, dx),
                         np.arctan2(dz, horiz)]).T

    def jacobian(self, state: np.ndarray, state_dim: int | None = None) -> np.ndarray:
        """Measurement Jacobian ``[..., m, state_dim]`` at a state ``[..., n]``
        (``state_dim`` defaults to ``n``), zero outside the position block."""
        state = np.asarray(state, dtype=float)
        if state_dim is None:
            state_dim = state.shape[-1]
        rel = state[..., : self.spatial_dims] - self.position
        jac = np.zeros(rel.shape[:-1] + (self.meas_dim, state_dim))
        cols = jac.T  # cols[j, i] is entry (i, j) of every member, as in measure
        if self.kind == "bearing":
            dx, dy = rel.T
            horiz2 = dx * dx + dy * dy
            if np.count_nonzero(horiz2 == 0.0):
                raise MeasurementSingular(
                    "measurement Jacobian undefined at the sensor origin")
            cols[0, 0] = dy / horiz2
            cols[1, 0] = -dx / horiz2
            return jac
        dx, dy, dz = rel.T
        rng2 = _squared_norms(rel)
        rng = np.sqrt(rng2)
        horiz2 = dx * dx + dy * dy
        horiz = np.sqrt(horiz2)
        if np.count_nonzero((rng == 0.0) | (horiz == 0.0)):
            raise MeasurementSingular(
                "measurement Jacobian undefined at the sensor origin")
        cols[:3, 0] = rel.T / rng
        cols[:2, 1] = -dy / horiz2, dx / horiz2
        cols[:3, 2] = -dx * dz / (rng2 * horiz), -dy * dz / (rng2 * horiz), horiz / rng2
        return jac


def range_az_el_sensor(position, sigma_range: float, sigma_az: float,
                       sigma_el: float | None = None) -> MeasurementModel:
    """Radar-style sensor; angle standard deviations in radians."""
    if sigma_el is None:
        sigma_el = sigma_az
    return MeasurementModel("range_az_el", np.asarray(position, dtype=float),
                            np.diag([sigma_range ** 2, sigma_az ** 2, sigma_el ** 2]))


def bearing_sensor(position, sigma_bearing: float) -> MeasurementModel:
    """Bearing-only sensor; standard deviation in radians."""
    return MeasurementModel("bearing", np.asarray(position, dtype=float),
                            np.array([[sigma_bearing ** 2]]))
