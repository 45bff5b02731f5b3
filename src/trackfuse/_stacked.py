"""Gaussian tracks of many Monte Carlo runs held as stacked arrays.

A :class:`GaussianStack` holds one Gaussian per run as ``mean[R, d]``,
``cov[R, d, d]`` and ``chol[R, d, d]``. The kernels here step all runs of a
study at once: EKF prediction and update, the four Gaussian rules of
:func:`trackfuse.fusion.fuse_many` and NEES scoring. Each one performs, per
run, the operations of the scalar routine it mirrors, in the same order and
with the same operand layouts, through numpy's stacked ``matmul`` and
``linalg`` (which call the same BLAS/LAPACK routine on every member), so
every run's numbers equal the scalar path's bit for bit.

Validation is the scalar path's too: wherever that path builds a
:class:`~trackfuse.gaussians.GaussianDensity` or calls ``assert_spd`` or
``spd_inv``, the stack goes through :func:`~trackfuse.gaussians.assert_spd`,
which checks every member and raises, for the first failing one, the
exception the 2-D check raises for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    NonPositiveDefiniteResult,
    NotPositiveDefinite,
    NotSymmetric,
    SingularInnovation,
)
from .filters import _identity
from .gaussians import _chol_inv, _mixture_moments, _products, assert_spd, symmetrize
from .models import MeasurementModel, MotionModel, wrap_angle

_RULES = ("naive", "gmd", "amd", "hmd")


def _t(mat: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack (a view)."""
    return mat.swapaxes(-1, -2)


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``mat @ vec`` per run; ``vec[..., d]`` is a column, as a 1-D operand is."""
    return (mat @ vec[..., None])[..., 0]


@dataclass(frozen=True)
class GaussianStack:
    """One validated Gaussian per run; ``chol`` is the stacked factor of ``cov``.

    Build it with :func:`density`, the stacked counterpart of the
    ``GaussianDensity`` constructor.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray

    @cached_property
    def precision(self) -> np.ndarray:
        """Per-run inverse covariance from the factor (``GaussianDensity.precision``)."""
        return _chol_inv(self.chol)


def density(mean: np.ndarray, cov: np.ndarray) -> GaussianStack:
    """Check ``cov`` as the density constructor does and keep its factor."""
    chol = assert_spd(cov)
    return GaussianStack(mean, symmetrize(cov), chol)


def predict(track: GaussianStack, motion: MotionModel) -> GaussianStack:
    """``filters.ekf_predict`` of every run."""
    f = motion.transition
    return density(_matvec(f, track.mean), symmetrize(f @ track.cov @ f.T + motion.noise))


def update(track: GaussianStack, meas: MeasurementModel, z: np.ndarray) -> GaussianStack:
    """``filters.ekf_update`` of every run with its measurement ``z[R, m]``.

    The sensor model and its Jacobian are evaluated run by run. The
    innovation covariance is factored as in the scalar update, and a failed
    factorization raises :class:`SingularInnovation`.
    """
    runs, dim = track.mean.shape
    jac = np.empty((runs, meas.meas_dim, dim))
    predicted = np.empty((runs, meas.meas_dim))
    for r, mean in enumerate(track.mean):
        jac[r] = meas.jacobian(mean, dim)
        predicted[r] = meas.measure(mean)
    innov = z - predicted
    for idx in meas.angle_indices:
        innov[:, idx] = wrap_angle(innov[:, idx])
    jac_cov = jac @ track.cov
    s = symmetrize(jac_cov @ _t(jac) + meas.noise_cov)
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("innovation covariance is singular") from exc
    gain = _t(np.linalg.solve(s, jac_cov))
    mean = track.mean + _matvec(gain, innov)
    imkh = _identity(dim) - gain @ jac
    cov = symmetrize(imkh @ track.cov @ _t(imkh) + gain @ meas.noise_cov @ _t(gain))
    return density(mean, cov)


def _moment_match(weights: np.ndarray, tracks: Sequence[GaussianStack]) -> GaussianStack:
    """``gaussians.moment_match`` of every run over the components ``tracks``."""
    return density(*_mixture_moments(weights, np.stack([t.mean for t in tracks], axis=-2),
                                      np.stack([t.cov for t in tracks], axis=-3)))


def _hmd_pair(a: GaussianStack, b: GaussianStack, v: float) -> GaussianStack:
    """``fusion._hmd_pair(a, b, v).density`` of every run."""
    if v == 1.0:
        return b
    if v == 0.0:
        return a
    eq = _moment_match(np.array([v, 1.0 - v]), (a, b))
    lam_a, lam_b, lam_eq = a.precision, b.precision, eq.precision
    prec = symmetrize(lam_a + lam_b - lam_eq)
    try:
        cov = _chol_inv(assert_spd(prec))
    except (NotPositiveDefinite, NotSymmetric) as exc:
        raise NonPositiveDefiniteResult(
            "harmonic fusion produced a non-positive-definite covariance") from exc
    mean = _matvec(cov, _matvec(lam_a, a.mean) + _matvec(lam_b, b.mean)
                   - _matvec(lam_eq, eq.mean))
    return density(mean, cov)


def fuse(tracks: Sequence[GaussianStack], strategy: str) -> GaussianStack:
    """``fusion.fuse_many(tracks, strategy)`` of every run, equal weights.

    amd returns the moment-matched mixture, the estimate the simulation
    scores and carries forward.
    """
    n = len(tracks)
    if n == 1:
        return tracks[0]
    if strategy not in _RULES:
        raise ValueError(f"unknown fusion strategy: {strategy!r}")
    weights = np.full(n, 1.0 / n)
    if strategy == "naive":
        acc = tracks[0]
        for track in tracks[1:]:
            mean, cov, chol, _ = _products(acc.mean, acc.cov, track.mean, track.cov)
            acc = GaussianStack(mean, symmetrize(cov), chol)
        return acc
    if strategy == "gmd":
        lams = [t.precision for t in tracks]
        # Python's sum starts from the integer 0, as the scalar rule does.
        lam = sum(w * L for w, L in zip(weights, lams))
        info = sum(w * _matvec(L, t.mean) for w, L, t in zip(weights, lams, tracks))
        cov = _chol_inv(assert_spd(symmetrize(lam)))
        return density(_matvec(cov, info), cov)
    if strategy == "amd":
        return _moment_match(weights, tracks)
    acc = tracks[0]
    running = float(weights[0])
    for k in range(1, n):
        running += float(weights[k])
        acc = _hmd_pair(acc, tracks[k], float(weights[k]) / running)
    return acc


def nees(track: GaussianStack, truth: np.ndarray) -> np.ndarray:
    """``simulation.compute_nees`` of every run against ``truth[R, d]``."""
    err = track.mean - truth
    return (err[..., None, :] @ np.linalg.solve(track.cov, err[..., None]))[..., 0, 0]
