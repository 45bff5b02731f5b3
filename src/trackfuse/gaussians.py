"""Gaussian densities, mixtures, and the algebra used by the fusion rules.

Everything downstream (fusion, filtering, simulation) is built on the small
set of closed-form operations in this module: pointwise evaluation, products
and divisions of Gaussians (with their scalar normalization factors), fractional
powers, and moment matching of mixtures. Covariances are re-symmetrized after
every operation so that round-off never accumulates into asymmetry.

A :class:`GaussianDensity` is one Gaussian or a stack of them over leading
axes, e.g. one member per Monte Carlo run. The filter steps, the Gaussian
fusion rules, products, divisions, moment matching and NEES are written once
on ``[..., d]`` arrays; each member goes through the BLAS/LAPACK routines of
a density on its own, on the same operand layouts (:func:`_matvec`), so its
numbers equal the one-density result bit for bit. A :class:`GaussianMixture`
holds its components as one such stack, ``[..., M, d]``, the component axis
last among the leading axes.

Validation contract, two rules:

- the boundary runs the full check: the :class:`GaussianDensity` constructor,
  :func:`assert_spd` and :func:`spd_inv` test a caller's matrix for finite
  entries of at most half the float maximum, symmetry within a relative 1e-9,
  a Cholesky factorization and a pivot floor, and the :class:`GaussianMixture`
  constructor tests a caller's weights (finite, non-negative, one per
  component) and tags;
- a package-made covariance is factored once where it is made: the algebra
  symmetrizes what it computes, so the symmetry test cannot fail on it, and
  :func:`_factor` runs the other tests and returns the factor a
  :meth:`GaussianDensity._view` stores. A mixture the package makes of
  checked components and finite, non-negative weights of their full leading
  shape is a :meth:`GaussianMixture._view`, checked nothing again.

A density keeps its factor for every later use (``logpdf``,
:func:`scaled_power`, ``precision``); its arrays are read-only, so the factor
never goes stale. Joining, indexing or truncating densities
(``filters.truncate_state``) checks nothing again, and a zero-padded state
(``filters.zero_pad``) extends its parent's factor by ``sqrt(pad_var) I`` and
tests only the pivot floor. For the presets' sizes (up to 6) OpenBLAS's
unblocked factorization gives such derived factors the bits of fresh ones.
Both checks take a ``[..., d, d]`` stack and give every member its 2-D
verdict; if members fail, the first failing one raises. The floor rule is per
member, but no member's floor exceeds the one of the stack's largest entry: a
stack whose smallest squared pivot clears that is settled by one comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonPositiveDefiniteResult, NotPositiveDefinite, NotSymmetric

__all__ = [
    "GaussianDensity",
    "ScaledGaussian",
    "GaussianMixture",
    "assert_spd",
    "symmetrize",
    "spd_inv",
    "gaussian_product",
    "gaussian_division",
    "scaled_power",
    "moment_match",
    "density_to_dict",
    "density_from_dict",
]

_SYM_RTOL = 1e-9
_EIG_FLOOR = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)
_TINY = np.finfo(float).tiny
_HALF_MAX = np.finfo(float).max / 2.0


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(M + M^T) / 2`` (of each matrix in a stack)."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def assert_spd(cov: np.ndarray) -> np.ndarray:
    """Validate that ``cov`` is symmetric positive definite.

    Returns the Cholesky factor so callers can reuse it. Every entry must be
    finite and at most half the float maximum in magnitude. Symmetry is
    checked to a relative tolerance of 1e-9; positive definiteness is
    established by Cholesky factorization, with matrices rejected as
    numerically singular when the smallest pivot falls below
    ``1e-12 * max(diag)``. A ``[..., d, d]`` stack is checked member by
    member and returns the stacked factors; if members fail, the first
    failing one raises what it would raise alone.

    Raises
    ------
    NotSymmetric
        If the matrix is not symmetric within tolerance.
    NotPositiveDefinite
        If an entry is NaN, infinite or above half the float maximum in
        magnitude, factorization fails or the matrix is numerically singular.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] == 0:
        raise NotPositiveDefinite("expected a square matrix of at least one dimension, "
                                  f"got shape {cov.shape}")
    peak = abs(cov).max(axis=(-2, -1))
    # NaN fails the comparisons. A member beyond the bound fails it before its
    # symmetry is tested (its symmetric part could overflow).
    bounded = peak <= _HALF_MAX
    asym = abs(cov - cov.swapaxes(-1, -2)).max(axis=(-2, -1)) if bounded.all() else math.inf
    if not (bounded & (asym <= _SYM_RTOL * np.maximum(peak, 1.0))).all():
        if cov.ndim > 2:  # the first failing member raises its own error
            for member in cov.reshape((-1,) + cov.shape[-2:]):
                assert_spd(member)
        if not bounded:
            _factor(cov)  # raises the bound's error
        raise NotSymmetric("covariance is not symmetric within 1e-9 relative tolerance")
    # An exactly symmetric matrix is its own symmetric part.
    exact = asym == 0.0
    return _factor(cov if exact.all() else np.where(exact[..., None, None], cov, symmetrize(cov)))


def _factor(cov: np.ndarray) -> np.ndarray:
    """The checks of :func:`assert_spd` but symmetry, on a symmetric ``cov``
    or ``[..., d, d]`` stack: its (stacked) Cholesky factor, or the error the
    first failing member raises alone."""
    try:
        return _cholesky(cov)
    except NotPositiveDefinite:
        if cov.ndim == 2:
            raise
    members = cov.reshape((-1,) + cov.shape[-2:])
    return np.array([_cholesky(m) for m in members]).reshape(cov.shape)


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """:func:`_factor` of every member at once; the error does not say which failed."""
    # The maximum propagates NaN, so one comparison catches NaN, infinity and
    # entries whose symmetric part ``(cov + cov.T) / 2`` would overflow.
    peak = abs(cov).max(initial=0.0)
    if not peak <= _HALF_MAX:
        raise NotPositiveDefinite(
            "covariance has a non-finite entry or one above half the float maximum")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance is not positive definite") from exc
    _check_pivot_floor(chol, cov, peak)
    return chol


def _check_pivot_floor(chol: np.ndarray, cov: np.ndarray, peak: float) -> None:
    """Reject ``cov`` (or a stack with such a member) as numerically singular
    if a squared pivot of its factor ``chol`` is at most ``1e-12 * max(diag(cov))``.
    ``peak`` is at least every variance: a stack clearing ``1e-12 * peak`` passes at once."""
    squared = chol.diagonal(0, -2, -1) ** 2
    if squared.min(initial=math.inf) > _EIG_FLOOR * max(peak, _TINY):
        return
    floor = _EIG_FLOOR * np.maximum(cov.diagonal(0, -2, -1).max(axis=-1), _TINY)
    if (squared.min(axis=-1) <= floor).any():
        raise NotPositiveDefinite("covariance is numerically singular")


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``mat @ vec`` per member, ``vec[..., d]`` a column as a 1-D operand is."""
    return (mat @ vec[..., None])[..., 0]


def _scalar(value: np.ndarray):
    """A Python float for one density's scalar result; a stack's array as is."""
    return value if value.ndim else float(value)


def _chol_inv(chol: np.ndarray) -> np.ndarray:
    """Symmetrized inverse of ``L L^T`` from its Cholesky factor ``L`` (of
    each factor in a stack)."""
    inv_chol = np.linalg.inv(chol)
    return symmetrize(inv_chol.swapaxes(-1, -2) @ inv_chol)


def _chol_logdet(chol: np.ndarray) -> np.ndarray:
    """``log |L L^T|`` from the Cholesky factor ``L`` (of each factor in a stack)."""
    return 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)


def _factor_logpdf(mean: np.ndarray, chol: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Log density of ``N(mean, L L^T)`` at the rows of ``pts``, from ``L``
    (of each member of a stack, at its rows ``pts[..., n, d]``)."""
    dev = np.linalg.solve(chol, (pts - mean[..., None, :]).swapaxes(-1, -2))
    maha = (dev * dev).sum(axis=-2)
    return -0.5 * (mean.shape[-1] * _LOG_2PI + _chol_logdet(chol)[..., None] + maha)


def spd_inv(mat: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, symmetrized."""
    return _chol_inv(assert_spd(mat))


@dataclass(frozen=True)
class GaussianDensity:
    """A multivariate Gaussian with validated mean and covariance, or a stack
    of them over leading axes, each member checked as a density of its own.

    ``mean[..., d]``, ``cov[..., d, d]`` and ``chol``, the lower Cholesky
    factor of ``cov`` that validation computed, are read-only arrays.
    ``logpdf``/``pdf`` and JSON are for one density only and raise
    ``ValueError`` for a stack.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != mean.shape + mean.shape[-1:]:
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean shape {mean.shape}: "
                "a mean vector [d], or a stack of them [..., d], needs covariances [..., d, d]")
        if not mean.shape[-1]:
            raise ValueError("a density needs at least one dimension")
        chol = assert_spd(cov)
        self._store(mean.copy(), symmetrize(cov), chol)

    def _store(self, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray) -> None:
        for arr in (mean, cov, chol):
            arr.setflags(write=False)
        self.__dict__.update(mean=mean, cov=cov, chol=chol)

    @classmethod
    def _view(cls, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray) -> "GaussianDensity":
        """Density of checked arrays (fresh, or views of a density's), read-only and
        not checked again: ``chol`` is the checked factor of the symmetric ``cov``."""
        density = object.__new__(cls)
        density._store(mean, cov, chol)
        return density

    @classmethod
    def _made(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianDensity":
        """A :meth:`_view` of package-made arrays, ``cov`` symmetrized where it was
        computed: its factor comes from :func:`_factor`, its one check."""
        return cls._view(mean, cov, _factor(cov))

    @classmethod
    def _derived(cls, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray) -> "GaussianDensity":
        """A :meth:`_view` whose factor is derived from a checked one (its leading block,
        or a block-diagonal extension): only the pivot floor, its one failure mode, is tested."""
        _check_pivot_floor(chol, cov, cov.diagonal(0, -2, -1).max(initial=0.0))
        return cls._view(mean, cov, chol)

    def __getitem__(self, index) -> "GaussianDensity":
        """Members of a stack (``index`` on the leading axes only): views, or
        copies for an index array, that are not checked again."""
        if self.mean.ndim == 1:
            raise TypeError("one density has no leading axis to index")
        lead = index if isinstance(index, tuple) else (index,)
        row, mat = lead + (slice(None),), lead + (slice(None),) * 2
        return GaussianDensity._view(self.mean[row], self.cov[mat], self.chol[mat])

    def __reduce__(self):
        # Rebuild through the constructor, so a copy or an unpickled density
        # is validated and its arrays are read-only again.
        return (GaussianDensity, (self.mean, self.cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    def _single(self, what: str) -> None:
        if self.mean.ndim != 1:
            raise ValueError(f"{what} is defined for one density, not a stack")

    @cached_property
    def precision(self) -> np.ndarray:
        """Inverse covariance, computed once from the stored factor (read-only)."""
        prec = _chol_inv(self.chol)
        prec.setflags(write=False)
        return prec

    def logpdf(self, x) -> np.ndarray:
        """Log density at ``x`` (shape ``(d,)`` or ``(n, d)``; ``(n,)`` if d=1)."""
        self._single("logpdf")
        return _points_logpdf(self.mean, self.chol, x)

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))


@dataclass(frozen=True)
class ScaledGaussian:
    """A Gaussian density times a positive scalar.

    Products and divisions of Gaussians are Gaussians only up to a scalar
    factor; that factor is carried in log space so that widely separated
    operands do not underflow.
    """

    log_scale: float
    density: GaussianDensity


@dataclass(frozen=True)
class GaussianMixture:
    """A finite Gaussian mixture, optionally with a string tag per component.

    ``components`` is one :class:`GaussianDensity` stack whose last leading
    axis is the component axis, means ``[..., M, d]`` under read-only
    per-member weights ``[..., M]`` (a shared ``[M]`` vector is broadcast to
    every member); a sequence of densities of one shape is joined into it,
    unchecked. Component
    ``k`` is ``components[..., k]`` (``components[k]`` only of one mixture). Tags
    identify the motion model a component originated from and survive
    fusion, which is what lets a fusion center route feedback back to the
    matching local filter mode; every member of a stack shares them.
    """

    weights: np.ndarray
    components: GaussianDensity
    tags: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        components = self.components
        if not isinstance(components, GaussianDensity):
            components = _joined(tuple(components), np.stack)
        lead = components.mean.shape[:-1]
        if lead[-1:] == (0,):
            raise ValueError("a mixture needs at least one component")
        if components.mean.ndim < 2 or weights.shape not in (lead, lead[-1:]):
            raise ValueError("one weight per component required")
        if (weights < -1e-15).any() or not np.isfinite(weights).all():
            raise ValueError("mixture weights must be finite and nonnegative")
        if self.tags is not None and len(self.tags) != lead[-1]:
            raise ValueError("one tag per component required")
        if weights.shape != lead:
            weights = np.broadcast_to(weights, lead)
        weights = np.maximum(weights, 0.0)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)
        if self.tags is not None:
            object.__setattr__(self, "tags", tuple(self.tags))

    @classmethod
    def _view(cls, weights: np.ndarray, components: GaussianDensity,
              tags: tuple[str, ...] | None = None) -> "GaussianMixture":
        """Mixture of checked parts, not checked again: finite, non-negative
        ``weights`` of the components' full leading shape, stored read-only."""
        weights = weights.view()
        weights.setflags(write=False)
        mixture = object.__new__(cls)
        mixture.__dict__.update(weights=weights, components=components, tags=tags)
        return mixture

    @property
    def dim(self) -> int:
        return self.components.dim

    @property
    def n_components(self) -> int:
        return self.weights.shape[-1]

    def normalized(self) -> "GaussianMixture":
        total = self.weights.sum(axis=-1, keepdims=True)
        if not (total > 0.0).all():
            raise ValueError("cannot normalize a mixture with zero total weight")
        return GaussianMixture._view(self.weights / total, self.components, self.tags)

    def _weighted_logs(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The weights and the component log densities at the points ``x``:
        ``[M]`` each at one point, ``[M, 1]`` and ``[M, n]`` at ``n``."""
        comps = self.components
        if comps.mean.ndim != 2:
            raise ValueError("evaluation is defined for one mixture, not a stack")
        logs = _points_logpdf(comps.mean, comps.chol, x)
        return (self.weights, logs) if logs.ndim == 1 else (self.weights[:, None], logs)

    def pdf(self, x) -> np.ndarray:
        weights, logs = self._weighted_logs(x)
        return np.sum(weights * np.exp(logs), axis=0)

    def logpdf(self, x) -> np.ndarray:
        weights, logs = self._weighted_logs(x)
        logs = np.log(np.maximum(weights, _TINY)) + logs
        peak = np.max(logs, axis=0)
        return peak + np.log(np.sum(np.exp(logs - peak), axis=0))


def _points_logpdf(mean: np.ndarray, chol: np.ndarray, x) -> np.ndarray:
    """Log densities of ``mean[..., d]`` (factors ``chol``) at the points ``x``:
    ``[..., n]``, or ``[...]`` at one point (a scalar, or a vector of length ``d``)."""
    dim = mean.shape[-1]
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if pts.shape[-1] != dim:
        raise ValueError(f"points have dimension {pts.shape[-1]}, expected {dim}")
    out = _factor_logpdf(mean, chol, pts)
    return out[..., 0] if np.ndim(x) <= 1 and pts.shape[0] == 1 else out


def gaussian_product(a: GaussianDensity, b: GaussianDensity) -> ScaledGaussian:
    """Pointwise product of two Gaussians.

    ``N(x; a, A) N(x; b, B) = s N(x; c, C)`` with ``C = (A^-1 + B^-1)^-1``,
    ``c = C (A^-1 a + B^-1 b)`` and scale ``s = N(b; a, A + B)``. The scale is
    the normalization constant of the product and is returned in log space
    (an array of them for stacked operands).
    """
    return _scaled(_products, a, b)


def gaussian_division(num: GaussianDensity, den: GaussianDensity) -> ScaledGaussian:
    """Pointwise ratio ``N(x; n, N) / N(x; m, M)`` as a scaled Gaussian.

    Valid only when the numerator is strictly more informative, i.e.
    ``M - N`` is positive definite. Then ``F = (N^-1 - M^-1)^-1``,
    ``f = F (N^-1 n - M^-1 m)``, and the scale is ``1 / N(m; f, F + M)``.

    Raises
    ------
    NonPositiveDefiniteResult
        If ``den.cov - num.cov`` is not positive definite.
    """
    return _scaled(_quotients, num, den)


def _scaled(kernel, a: GaussianDensity, b: GaussianDensity) -> ScaledGaussian:
    """``kernel`` (:func:`_products` or :func:`_quotients`) of two densities or
    stacks; the result density is a view of the kernel's arrays and factor."""
    if a.dim != b.dim:
        raise ValueError(f"operands must share one dimension, got dimensions {a.dim}, {b.dim}")
    mean, cov, chol, log_s = kernel(a.mean, a.cov, b.mean, b.cov)
    return ScaledGaussian(_scalar(log_s), GaussianDensity._view(mean, cov, chol))


def _products(a_means, a_covs, b_means, b_covs) -> tuple:
    """:func:`gaussian_product` of each member pair of ``[..., d]`` means and
    ``[..., d, d]`` covariances: the means, covariances, factors and log scales.
    The scale-term covariances, then the products, pass one stacked check each."""
    sum_cov = a_covs + b_covs
    # C = A (A+B)^-1 B and c = a + A (A+B)^-1 (b - a): no explicit inverses.
    gain = np.linalg.solve(sum_cov, np.concatenate(((b_means - a_means)[..., None], b_covs),
                                                   axis=-1))
    mean = a_means + (a_covs @ gain[..., :1])[..., 0]
    cov = symmetrize(a_covs @ gain[..., 1:])
    # The scale's covariance is checked like a density's, but no density of
    # it is built: the log density comes straight from the factor.
    log_scale = _factor_logpdf(a_means, _factor(sum_cov), b_means[..., None, :])[..., 0]
    return mean, cov, _factor(cov), log_scale


def _quotients(num_means, num_covs, den_means, den_covs) -> tuple:
    """:func:`gaussian_division` of each member pair, as :func:`_products`;
    the gaps ``M - N`` are checked first."""
    gap = symmetrize(den_covs - num_covs)
    try:
        _factor(gap)
    except NotPositiveDefinite as exc:
        raise NonPositiveDefiniteResult(
            "division requires the numerator precision to exceed the denominator's"
        ) from exc
    # F = N + N (M - N)^-1 N stays SPD by construction.
    cov = symmetrize(num_covs + num_covs @ np.linalg.solve(gap, num_covs))
    info_mean = (np.linalg.solve(num_covs, num_means[..., None])
                 - np.linalg.solve(den_covs, den_means[..., None]))
    mean = (cov @ info_mean)[..., 0]
    log_scale = -_factor_logpdf(mean, _factor(cov + den_covs), den_means[..., None, :])[..., 0]
    return mean, cov, _factor(cov), log_scale


def scaled_power(d: GaussianDensity, w: float) -> ScaledGaussian:
    """Fractional power ``N(x; m, C)^w`` for ``0 < w <= 1`` (of each member
    of a stack, with one log scale per member).

    The result is ``s N(x; m, C / w)`` with
    ``s = sqrt(|2 pi C / w| / |2 pi C|^w)``; ``C / w`` is factored afresh.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("power weight must lie in (0, 1]")
    if w == 1.0:
        return ScaledGaussian(0.0, d)
    logdet = _chol_logdet(d.chol)
    log_scale = 0.5 * (1.0 - w) * (d.dim * _LOG_2PI + logdet) - 0.5 * d.dim * math.log(w)
    return ScaledGaussian(_scalar(log_scale), GaussianDensity._made(d.mean, d.cov / w))


def moment_match(mixture: GaussianMixture) -> GaussianDensity:
    """Single Gaussian with the exact mean and covariance of the mixture.

    The covariance is the weighted within-component covariance plus the
    spread-of-means term, so it always dominates the weighted average of the
    component covariances. A stack of mixtures gives the stack of matches.
    """
    comps = mixture.components
    return GaussianDensity._made(*_mixture_moments(mixture.weights, comps.mean, comps.cov))


def _joined(densities: tuple, join, axis: int = -1) -> GaussianDensity:
    """One stack of ``densities``: ``join`` (``np.stack``, or ``np.concatenate``
    of component stacks) of their stored arrays on leading axis ``axis`` (< 0,
    the last by default), unchecked."""
    try:
        return GaussianDensity._view(*(join([getattr(d, f) for d in densities], axis=axis - core)
                                       for f, core in (("mean", 1), ("cov", 2), ("chol", 2))))
    except ValueError:
        raise ValueError("a mixture needs at least one component, and its components must "
                         "share one dimension and stack shape") from None


def _mixture_moments(weights: np.ndarray, means: np.ndarray,
                     covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the mixture of ``means[..., M, d]``,
    ``covs[..., M, d, d]`` (of each mixture in a stack, under shared weights
    ``[M]`` or per-member weights ``[..., M]``).

    ``weights`` must be nonnegative; they are normalized here (a total that
    is not positive raises ``ValueError``). The spread terms are formed by
    broadcasting and summed in component order, so the result equals the
    per-component ``np.outer`` loop bit for bit.
    """
    total = weights.sum(axis=-1, keepdims=True)
    if not (total > 0.0).all():
        raise ValueError("cannot normalize a mixture with zero total weight")
    weights = weights / total
    mean = (weights[..., None, :] @ means)[..., 0, :]
    dev = means - mean[..., None, :]
    terms = weights[..., None, None] * (covs + dev[..., :, None] * dev[..., None, :])
    cov = np.zeros(terms.shape[:-3] + terms.shape[-2:])
    for m in range(weights.shape[-1]):
        cov += terms[..., m, :, :]
    return mean, symmetrize(cov)


def _group_moments(weights: np.ndarray, means: np.ndarray, covs: np.ndarray) -> tuple:
    """Total weight, mean and covariance of each group ``means[..., S, d]``,
    ``covs[..., S, d, d]`` under its weights ``[..., S]``, normalized, then
    matched as :func:`moment_match` matches it (zero total weight raises)."""
    total = weights.sum(axis=-1, keepdims=True)
    mean, cov = _mixture_moments(weights / total, means, covs)
    return total[..., 0], mean, cov


def density_to_dict(density) -> dict:
    """JSON-ready dict for a Gaussian ({"mean","cov"}) or mixture ({"weights","components"})."""
    if isinstance(density, GaussianDensity):
        density._single("JSON")
        return {"mean": density.mean.tolist(), "cov": density.cov.tolist()}
    if isinstance(density, GaussianMixture):
        out = {
            "weights": density.weights.tolist(),
            "components": [density_to_dict(c) for c in density.components],
        }
        if density.tags is not None:
            out["tags"] = list(density.tags)
        return out
    raise TypeError(f"cannot serialize {type(density).__name__}")


def density_from_dict(data: dict):
    """Inverse of :func:`density_to_dict`. Raises ValueError on malformed input."""
    if not isinstance(data, dict):
        raise ValueError("density must be a JSON object")
    if "mean" in data and "cov" in data:
        mean = np.atleast_1d(np.asarray(data["mean"], dtype=float))
        if mean.ndim != 1 or not np.isfinite(mean).all():
            raise ValueError("mean must be a vector of finite numbers")
        return GaussianDensity(mean, np.asarray(data["cov"], dtype=float))
    if "weights" in data and "components" in data:
        comps = tuple(density_from_dict(c) for c in data["components"])
        if not all(isinstance(c, GaussianDensity) for c in comps):
            raise ValueError("mixture components must be plain Gaussians")
        tags = data.get("tags")
        if "tags" in data and not (isinstance(tags, list)
                                   and all(isinstance(t, str) for t in tags)):
            raise ValueError("mixture tags must be a list of strings")
        return GaussianMixture(np.asarray(data["weights"], dtype=float), comps, tags)
    raise ValueError('density JSON needs keys {"mean","cov"} or {"weights","components"}')
