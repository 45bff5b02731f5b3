"""Exact pooled-density evaluation and deterministic quadrature.

The fusion rules in :mod:`trackfuse.fusion` return Gaussian approximations.
This module provides the exact pointwise harmonic pool that the hmd rule
approximates, together with grid quadrature for normalization constants and
divergences. The validation suite and the test oracles integrate against
these.

Grids are deterministic tensor products covering every operand's mean plus or
minus ``span`` standard deviations per axis. Dimensions three and above fall
back to quasi-random (scrambled Sobol, fixed seed) importance sampling.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError
from .gaussians import GaussianDensity, GaussianMixture, moment_match

__all__ = [
    "grid_points",
    "integrate",
    "log_harmonic_mean",
    "harmonic_norm_const",
    "kl_divergence",
]

_DEFAULT_SPAN = 7.0


def _axis_bounds(densities: Sequence, span: float) -> tuple[np.ndarray, np.ndarray]:
    los, his = [], []
    for d in densities:
        gauss = d if isinstance(d, GaussianDensity) else moment_match(d)
        sig = np.sqrt(np.diag(gauss.cov))
        los.append(gauss.mean - span * sig)
        his.append(gauss.mean + span * sig)
    return np.min(los, axis=0), np.max(his, axis=0)


def grid_points(densities: Sequence, points_per_axis: int,
                span: float = _DEFAULT_SPAN) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product trapezoid grid covering all densities.

    Returns ``(points, weights)`` with ``points`` of shape ``(n, d)`` such
    that ``weights @ f(points)`` approximates the integral of ``f``.
    """
    lo, hi = _axis_bounds(densities, span)
    dim = lo.size
    axes, axis_wts = [], []
    for k in range(dim):
        ax = np.linspace(lo[k], hi[k], points_per_axis)
        wt = np.full(points_per_axis, ax[1] - ax[0])
        wt[0] *= 0.5
        wt[-1] *= 0.5
        axes.append(ax)
        axis_wts.append(wt)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    wts = axis_wts[0]
    for w in axis_wts[1:]:
        wts = np.multiply.outer(wts, w)
    return pts, wts.ravel()


def _sobol_integrate(fn: Callable, densities: Sequence, n_points: int = 1 << 20,
                     seed: int = 7) -> float:
    """Importance-sampled integral for dimensions >= 3 (quasi-random proposal)."""
    # scipy.stats is imported here, not at module level: it takes most of the
    # package's import time, and only this fallback needs it.
    from scipy.stats import norm, qmc

    match = moment_match(GaussianMixture(
        np.full(len(densities), 1.0 / len(densities)),
        tuple(d if isinstance(d, GaussianDensity) else moment_match(d)
              for d in densities)))
    proposal = GaussianDensity(match.mean, 4.0 * match.cov)
    sampler = qmc.Sobol(d=match.dim, scramble=True, seed=seed)
    u = sampler.random(n_points)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    pts = proposal.mean + norm.ppf(u) @ proposal.chol.T
    ratio = fn(pts) / proposal.pdf(pts)
    return float(np.mean(ratio))


def integrate(fn: Callable, densities: Sequence, *, tol: float = 1e-9,
              base_points: int | None = None, max_refinements: int = 2,
              span: float = _DEFAULT_SPAN) -> float:
    """Integrate ``fn`` over the region where ``densities`` have mass.

    ``fn`` maps an ``(n, d)`` point array to ``n`` values. Dimensions one and
    two use trapezoid grids refined (points doubled per axis) until two
    successive levels agree to ``tol`` relative; three and above use a fixed
    quasi-random rule and skip the refinement check.

    Raises
    ------
    QuadratureError
        If refinement is exhausted without convergence.
    """
    dim = densities[0].dim
    if dim >= 3:
        return _sobol_integrate(fn, densities, seed=11)
    if base_points is None:
        base_points = 1601 if dim == 1 else 201
    prev = None
    points = base_points
    for _ in range(max_refinements + 1):
        pts, wts = grid_points(densities, points, span)
        val = float(wts @ fn(pts))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        points = 2 * points - 1
    raise QuadratureError(
        f"no convergence to {tol} after {max_refinements} refinements (last={prev})")


def log_harmonic_mean(densities: Sequence, weights: Sequence[float],
                      x) -> np.ndarray:
    """Log of the unnormalized weighted harmonic mean at points ``x``.

    The harmonic mean of densities ``p_i`` with weights ``nu_i`` is
    ``1 / sum_i nu_i / p_i(x)``, evaluated here in log space so that points far
    in any tail stay finite. For two densities with weights ``(w, 1 - w)``
    this equals ``p_a p_b / ((1 - w) p_a + w p_b)``, the pool that
    ``fusion.fuse_hmd(a, b, w)`` approximates.
    """
    weights = np.asarray(weights, dtype=float)
    logs = np.stack([np.log(max(nu, np.finfo(float).tiny)) - d.logpdf(x)
                     for nu, d in zip(weights, densities)])
    peak = np.max(logs, axis=0)
    return -(peak + np.log(np.sum(np.exp(logs - peak), axis=0)))


def harmonic_norm_const(densities: Sequence, weights: Sequence[float],
                        **quad_kwargs) -> float:
    """Mass of the unnormalized harmonic mean (at most 1; exactly 1 at endpoints)."""
    return integrate(lambda pts: np.exp(log_harmonic_mean(densities, weights, pts)),
                     densities, **quad_kwargs)


def kl_divergence(log_p: Callable, log_q: Callable, densities: Sequence,
                  **quad_kwargs) -> float:
    """KL divergence ``KL(p || q)`` by quadrature from log-density callables."""
    def fn(pts):
        lp = log_p(pts)
        p = np.exp(lp)
        out = p * (lp - log_q(pts))
        return np.where(p > 0.0, out, 0.0)
    return integrate(fn, densities, **quad_kwargs)
