"""Track-to-track fusion rules for Gaussian and Gaussian-mixture estimates.

Implemented strategies:

- naive: product of densities, correct only for independent estimates;
- gmd: geometric mean density, the covariance-intersection rule;
- amd: arithmetic mean density, a mixture of the inputs;
- pcf: product of fractional powers applied component-wise to mixtures
  (a separated-component approximation of gmd for mixtures);
- hmd: harmonic mean density, approximated by dividing the naive product by
  a moment-matched Gaussian of the weighted input mixture.

Every rule returns its density: Gaussian for naive, gmd and hmd of Gaussians,
a mixture for amd, pcf and mixture operands. A pair's weight ``w`` (the CLI's
``omega``, in [0, 1] under every rule) is the first operand's: ``w = 1``
returns it and ``w = 0`` the second. In the harmonic pool ``1 / (w / p_a +
(1-w) / p_b)``, the first operand carries ``1 - w`` in the moment-matched
denominator ``(1-w) p_a + w p_b``. Several operands take one non-negative
weight each, summing to 1; gmd and hmd leave out an operand of weight 0.
:func:`hmd_diagnostics` checks a Gaussian hmd result.

The harmonic rule's division step is always well posed for a pair of
Gaussians: the moment-matched mixture covariance dominates the product
covariance, so the difference of precisions stays positive definite.

Every rule also takes stacked densities or stacks of mixtures (weights
``[..., M]``), one member per Monte Carlo run, and fuses each member as it
would fuse alone; the study engine fuses all runs of a study in one call.

Operands of different dimensions raise ``ValueError`` naming each dimension.

The mixture rules read one prepared pair of operands, whose cross axis
``k = i J + j`` is cached per component counts and tags: naive and hmd share
its cross products, one stacked kernel call, and mixture hmd divides all pairs
in one more. The pairs whose gap to the global pool fails hmd's eigenvalue
test form a mask; their own pools are matched together.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from .errors import NonPositiveDefiniteResult, NotPositiveDefinite
from .gaussians import (
    _TINY,
    GaussianDensity,
    GaussianMixture,
    _chol_inv,
    _factor,
    _factor_logpdf,
    _group_moments,
    _joined,
    _matvec,
    _mixture_moments,
    _products,
    _quotients,
    gaussian_product,
    scaled_power,
    symmetrize,
)
from . import pooling

__all__ = [
    "fuse_naive",
    "fuse_gmd",
    "fuse_amd",
    "fuse_pcf",
    "fuse_hmd",
    "fuse_hmd_mixture",
    "fuse_hmd_recursive",
    "hmd_diagnostics",
    "hmd_norm_const",
    "fuse_pair",
    "fuse_many",
]

_WEIGHT_TOL = 1e-12


def _check_weight(w: float) -> float:
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"fusion weight must lie in [0, 1], got {w}")
    return w


def _check_weights(weights, n: int, rule: str, positive: bool = False) -> np.ndarray:
    """One weight per operand, each non-negative (or ``positive``), summing to 1."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError(f"one weight per operand required: {n} operands, weights of "
                         f"shape {weights.shape}")
    # NaN fails both comparisons.
    if not ((weights > 0.0 if positive else weights >= 0.0).all()
            and abs(float(np.sum(weights)) - 1.0) <= _WEIGHT_TOL):
        raise ValueError(f"{rule} weights must be {'positive' if positive else 'non-negative'}"
                         f" and sum to 1, got {weights}")
    return weights


def _check_dims(densities) -> None:
    """Operands of one dimension; else a ``ValueError`` naming each operand's."""
    dims = [d.dim for d in densities]
    if len(set(dims)) > 1:
        raise ValueError("fusion operands must share one dimension, got dimensions "
                         + ", ".join(map(str, dims)))


def fuse_naive(a: GaussianDensity, b: GaussianDensity) -> GaussianDensity:
    """Information-sum fusion: normalized product of the two densities.

    Optimal for independent estimates; double-counts common information
    otherwise, which is what the conservative rules below avoid.
    """
    return gaussian_product(a, b).density


def fuse_gmd(a: GaussianDensity, b: GaussianDensity, w: float = 0.5) -> GaussianDensity:
    """Geometric mean density (covariance intersection).

    ``cov = (w A^-1 + (1-w) B^-1)^-1`` with the matching information-weighted
    mean. ``w = 1`` returns ``a`` exactly, ``w = 0`` returns ``b``.
    """
    w = _check_weight(w)
    return fuse_many((a, b), "gmd", (w, 1.0 - w))


def fuse_amd(inputs: Sequence[GaussianDensity | GaussianMixture],
             weights: Sequence[float]) -> GaussianMixture:
    """Arithmetic mean density: the weighted mixture of the inputs.

    Mixture inputs are flattened (their component weights scale by the input
    weight), and a plain Gaussian, or a stack of them, is one component (a
    view). The component stacks are concatenated and not checked again.
    Weights must be non-negative and sum to one; no pruning is performed.

    If an input is tagged, each component's provenance tag has one
    ``|``-separated field per input: mode ``i`` of input 0 of two is ``"i|"``.
    """
    weights = _check_weights(weights, len(inputs), "amd")
    _check_dims(inputs)
    mixes = [_as_mixture(inp) for inp in inputs]
    return _mixed(mixes, weights, _joined([m.components for m in mixes], np.concatenate))


def _mixed(mixes, weights, pool: GaussianDensity) -> GaussianMixture:
    """:func:`fuse_amd` of the normalized mixtures ``mixes``, whose joined
    component stack is ``pool``."""
    tags = None
    if any(m.tags is not None for m in mixes):
        tags = tuple("|".join(src if k == pos else "" for k in range(len(mixes)))
                     for pos, m in enumerate(mixes)
                     for src in m.tags or ("",) * m.n_components)
    out_w = np.concatenate([wt * m.weights for wt, m in zip(weights, mixes)], axis=-1)
    return GaussianMixture._view(out_w, pool, tags)


def _as_mixture(d) -> GaussianMixture:
    """``d`` normalized; a plain Gaussian is one untagged component, a view of its arrays."""
    if isinstance(d, GaussianMixture):
        return d.normalized()
    return GaussianMixture._view(np.ones(d.mean.shape[:-1] + (1,)), GaussianDensity._view(
        d.mean[..., None, :], d.cov[..., None, :, :], d.chol[..., None, :, :]))


@lru_cache
def _cross_layout(n_a: int, n_b: int, tags_a: tuple | None, tags_b: tuple | None) -> tuple:
    """The cross axis ``k = i J + j``: read-only indices ``i`` and ``j``, and
    tags ``"i|j"`` (None when neither operand is tagged)."""
    ia, ib = np.divmod(np.arange(n_a * n_b), n_b)
    for index in (ia, ib):
        index.setflags(write=False)
    if tags_a is None and tags_b is None:
        return ia, ib, None
    ta, tb = tags_a or ("",) * n_a, tags_b or ("",) * n_b
    return ia, ib, tuple(f"{ta[i]}|{tb[j]}" for i, j in zip(ia, ib))


class _Pair:
    """Two operands of one dimension, normalized once, for the mixture rules:
    the cross products and log weights ``log alpha_i beta_j`` (naive, hmd)
    and the joined component pool (amd, hmd) are computed on first read."""

    def __init__(self, a, b):
        _check_dims((a, b))
        self.a, self.b = _as_mixture(a), _as_mixture(b)
        self.ia, self.ib, self.tags = _cross_layout(self.a.n_components, self.b.n_components,
                                                    self.a.tags, self.b.tags)

    @cached_property
    def products(self) -> tuple:
        ca, cb = self.a.components[..., self.ia], self.b.components[..., self.ib]
        return _products(ca.mean, ca.cov, cb.mean, cb.cov)

    @cached_property
    def log_w(self) -> np.ndarray:
        # ``np.take`` keeps each member's weights a row-major row, summed as one mixture's are.
        return _log_weight(np.take(self.a.weights, self.ia, -1)
                           * np.take(self.b.weights, self.ib, -1))

    @cached_property
    def pool(self) -> GaussianDensity:
        return _joined([self.a.components, self.b.components], np.concatenate)


def _log_weight(weights: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(weights, _TINY))


def _fused_mixture(log_w, mean, cov, chol, tags) -> GaussianMixture:
    wts = np.exp(log_w - np.max(log_w, axis=-1, keepdims=True))
    return GaussianMixture(wts / wts.sum(axis=-1, keepdims=True),
                           GaussianDensity._view(mean, cov, chol), tags)


def _naive_mixture(pair: _Pair, w: float = 0.5) -> GaussianMixture:
    """Term-by-term normalized product of two mixtures; ``w`` is ignored."""
    mean, cov, chol, log_s = pair.products
    return _fused_mixture(pair.log_w + log_s, mean, cov, chol, pair.tags)


def _amd(pair: _Pair, w: float) -> GaussianMixture:
    return _mixed((pair.a, pair.b), (w, 1.0 - w), pair.pool)


def fuse_pcf(a, b, w: float = 0.5) -> GaussianMixture:
    """Pseudo-Chernoff fusion: component-wise powers, then a term product.

    Approximates the geometric pool of two mixtures by raising each mixture to
    a power component by component (valid when components are well separated)
    and multiplying the results term by term. Plain Gaussians are treated as
    one-component mixtures, for which this collapses to covariance
    intersection exactly.
    """
    w = _check_weight(w)
    return _pcf(_Pair(a, b), w)


def _pcf(pair: _Pair, w: float) -> GaussianMixture:
    mix_a, mix_b = pair.a, pair.b
    if w in (0.0, 1.0):
        return mix_a if w else mix_b
    pow_a, pow_b = scaled_power(mix_a.components, w), scaled_power(mix_b.components, 1.0 - w)
    lw_a = w * _log_weight(mix_a.weights) + pow_a.log_scale
    lw_b = (1.0 - w) * _log_weight(mix_b.weights) + pow_b.log_scale
    ca, cb = pow_a.density[..., pair.ia], pow_b.density[..., pair.ib]
    mean, cov, chol, log_s = _products(ca.mean, ca.cov, cb.mean, cb.cov)
    log_w = np.take(lw_a, pair.ia, -1) + np.take(lw_b, pair.ib, -1)
    return _fused_mixture(log_w + log_s, mean, cov, chol, pair.tags)


def fuse_hmd(a: GaussianDensity, b: GaussianDensity, w: float = 0.5) -> GaussianDensity:
    """Harmonic mean density fusion of two Gaussians, with weight ``w`` on ``a``.

    The harmonic pool ``1 / (w / p_a + (1-w) / p_b)``, which equals
    ``p_a p_b / ((1-w) p_a + w p_b)``, is approximated by moment matching the
    denominator mixture to a Gaussian ``N(m_eq, C_eq)`` and dividing the exact
    product by it:

    ``cov = (A^-1 + B^-1 - C_eq^-1)^-1``

    with the analogous information-vector combination for the mean. ``w = 1``
    returns ``a`` exactly and ``w = 0`` returns ``b`` (the denominator then
    cancels one factor). :func:`hmd_diagnostics` checks the result.
    """
    return _hmd_pair(a, b, 1.0 - _check_weight(w))


def _hmd_pool(a: GaussianDensity, b: GaussianDensity, v: float) -> GaussianDensity:
    """The moment-matched denominator mixture ``v p_a + (1-v) p_b``."""
    pair = _joined((a, b), np.stack)
    return GaussianDensity._made(*_mixture_moments(np.array([v, 1.0 - v]), pair.mean, pair.cov))


def _hmd_pair(a: GaussianDensity, b: GaussianDensity, v: float) -> GaussianDensity:
    """:func:`fuse_hmd` with ``v = 1 - w``, the first operand's weight in the
    denominator mixture ``v p_a + (1-v) p_b``. Multi-operand fusion passes the
    new operand's weight share as ``v``, without going through ``1 - w``; a
    share that rounds to 0 or 1 returns an operand."""
    _check_dims((a, b))
    if v == 1.0:
        return b
    if v == 0.0:
        return a
    eq = _hmd_pool(a, b, v)
    lam_a, lam_b, lam_eq = a.precision, b.precision, eq.precision
    prec = symmetrize(lam_a + lam_b - lam_eq)
    try:
        cov = _chol_inv(_factor(prec))
    except NotPositiveDefinite as exc:
        raise NonPositiveDefiniteResult(
            "harmonic fusion produced a non-positive-definite covariance") from exc
    mean = _matvec(cov, _matvec(lam_a, a.mean) + _matvec(lam_b, b.mean)
                   - _matvec(lam_eq, eq.mean))
    return GaussianDensity._made(mean, cov)


def hmd_diagnostics(a: GaussianDensity, b: GaussianDensity, w: float = 0.5) -> dict:
    """Checks on ``fuse_hmd(a, b, w)`` for one pair of Gaussians: ``pd_margin``,
    the smallest eigenvalue of ``C_eq - C_naive`` (positive in exact arithmetic),
    and ``norm_const``, the approximate mass of the unnormalized pool; at ``w``
    of 0 or 1, where the rule returns an operand, ``{"endpoint": True}``."""
    v = 1.0 - _check_weight(w)
    if v in (0.0, 1.0):
        return {"endpoint": True}
    fused, eq = _hmd_pair(a, b, v), _hmd_pool(a, b, v)
    cov_naive = _chol_inv(_factor(symmetrize(a.precision + b.precision)))
    log_s = float(_factor_logpdf(a.mean, _factor(a.cov + b.cov), b.mean[None])[0])
    log_d = -float(_factor_logpdf(fused.mean, _factor(fused.cov + eq.cov), eq.mean[None])[0])
    return {"pd_margin": float(np.min(np.linalg.eigvalsh(symmetrize(eq.cov - cov_naive)))),
            "norm_const": float(np.exp(log_s + log_d))}


_PAIR_GAP_RTOL = 1e-6


def fuse_hmd_mixture(a, b, w: float = 0.5) -> GaussianMixture:
    """Harmonic mean density fusion of two Gaussian mixtures, ``w`` on ``a``.

    The denominator pool over all components of both operands (weights
    ``(1-w) alpha_i`` and ``w beta_j``, as in :func:`fuse_hmd`) is moment
    matched to one Gaussian ``N(m_eq, C_eq)``; each cross product
    ``alpha_i beta_j p_i q_j`` is then divided by it in closed form. The
    resulting component weight is

    ``kappa_ij = alpha_i beta_j s_ij / N(m_eq; f_ij, F_ij + C_eq)``

    where ``s_ij`` is the Gaussian product scale and ``(f_ij, F_ij)`` the
    divided component; everything is accumulated in log space and the output
    weights renormalized. When either operand is tagged, each output
    component carries the pair provenance tag ``"i|j"`` naming the operand
    modes it involves.

    The matched pool covariance is guaranteed to dominate the product
    covariance only for single-component operands. A cross pair of tight
    components can defeat it when the pool is dominated by much tighter
    components elsewhere (mixed-dimension tracks with small padded variances
    are the typical case), and near that boundary the pair's weight diverges.
    Such pairs are divided by their own two-component pool instead.
    """
    w = _check_weight(w)
    return _hmd_mixture(_Pair(a, b), w)


def _hmd_mixture(pair: _Pair, w: float) -> GaussianMixture:
    mix_a, mix_b = pair.a, pair.b
    if w in (0.0, 1.0):
        return mix_a if w else mix_b
    pool_w = np.concatenate(((1.0 - w) * mix_a.weights, w * mix_b.weights), axis=-1)
    pool = pair.pool
    eq = GaussianDensity._made(*_mixture_moments(pool_w, pool.mean, pool.cov))
    ia, ib = pair.ia, pair.ib
    mean, cov, _, log_s = pair.products
    den_mean = np.repeat(eq.mean[..., None, :], ia.size, -2)
    den_cov = np.repeat(eq.cov[..., None, :, :], ia.size, -3)
    # The gap test of every pair of every member; the failing ones get their own pool.
    gap_eigs = np.linalg.eigvalsh(symmetrize(den_cov - cov))
    local = ~(gap_eigs[..., 0] > _PAIR_GAP_RTOL * gap_eigs[..., -1])
    if local.any():
        *lead, k = local.nonzero()
        at = tuple(i[:, None] for i in lead) + (np.stack((ia[k], mix_a.n_components + ib[k]), -1),)
        pairs = pool[at]
        _, den_mean[local], den_cov[local] = _group_moments(pool_w[at], pairs.mean, pairs.cov)
        _factor(den_cov[local])
    quot_mean, quot_cov, quot_chol, quot_s = _quotients(mean, cov, den_mean, den_cov)
    return _fused_mixture(pair.log_w + log_s + quot_s, quot_mean, quot_cov, quot_chol,
                          pair.tags)


# fuse_pair's rule for mixtures by strategy, read from a prepared pair.
_MIXTURE_RULES = {"naive": _naive_mixture, "gmd": _pcf, "pcf": _pcf, "amd": _amd,
                  "hmd": _hmd_mixture}


def fuse_hmd_recursive(inputs: Sequence[GaussianDensity],
                       weights: Sequence[float]) -> GaussianDensity:
    """Harmonic fusion of several Gaussians by nested pairwise fusion.

    The weighted harmonic pool satisfies a nesting identity: pooling
    ``p_1 .. p_k`` can be done by pooling the first ``k-1`` (with their
    weights renormalized) and then pooling the result with ``p_k`` using
    weight pair ``(nu_1 + .. + nu_{k-1}, nu_k)``. Applied left to right this
    reduces multi-input fusion to the two-input rule: step ``k`` gives
    ``p_k`` the weight ``nu_k / (nu_1 + .. + nu_k)``.

    Weights must be positive and sum to one. Two inputs reduce to
    ``fuse_hmd(a, b, w=weights[0])``.
    """
    weights = _check_weights(weights, len(inputs), "hmd", positive=True)
    acc = inputs[0]
    running = float(weights[0])
    for k in range(1, weights.size):
        running += float(weights[k])
        acc = _hmd_pair(acc, inputs[k], float(weights[k]) / running)
    return acc


def hmd_norm_const(a: GaussianDensity, b: GaussianDensity, w: float = 0.5,
                   **quad_kwargs) -> float:
    """Mass of the unnormalized harmonic pool ``1 / (w / p_a + (1-w) / p_b)``.

    Computed by quadrature on the exact pointwise form. The value is at most
    one, equals one at ``w`` of 0 or 1, and is convex in ``w``; the shortfall
    from one measures how much the pool discounts for unknown correlation.
    """
    w = _check_weight(w)
    return pooling.harmonic_norm_const([a, b], [w, 1.0 - w], **quad_kwargs)


def fuse_pair(a, b, strategy: str, omega: float = 0.5):
    """Fuse two estimates by strategy name, dispatching on operand type.

    For mixture operands: ``naive`` multiplies term by term, ``gmd`` falls
    back to the pseudo-Chernoff approximation (the geometric pool of mixtures
    has no closed form), ``amd`` stacks, and ``hmd`` uses the mixture rule.
    Returns whatever density type the strategy produces; ``omega`` must lie in [0, 1].
    """
    omega = _check_weight(omega)
    gaussians = isinstance(a, GaussianDensity) and isinstance(b, GaussianDensity)
    if strategy == "naive":
        return fuse_naive(a, b) if gaussians else _naive_mixture(_Pair(a, b))
    if strategy == "gmd":
        return fuse_gmd(a, b, omega) if gaussians else fuse_pcf(a, b, omega)
    if strategy == "pcf":
        return fuse_pcf(a, b, omega)
    if strategy == "amd":
        return _amd(_Pair(a, b), omega)
    if strategy == "hmd":
        return fuse_hmd(a, b, omega) if gaussians else fuse_hmd_mixture(a, b, omega)
    raise ValueError(f"unknown fusion strategy: {strategy!r}")


def fuse_many(densities: Sequence[GaussianDensity], strategy: str,
              weights: Sequence[float] | None = None):
    """Fuse several Gaussian estimates (or stacks of one shape); amd returns
    the mixture of the operands.

    ``weights`` holds one non-negative weight per operand, summing to 1, under
    every rule; equal weights ``1/n`` by default. naive, the product of the
    operands, ignores their values; gmd and hmd leave out an operand of weight
    0, so weights ``[1, 0]`` return the first operand itself. A strategy other
    than these four (even for one operand), a weight count other than the
    operand count, weights outside that rule, or operands of different
    dimensions raise ``ValueError``; a mixture raises ``TypeError`` (mixtures are
    fused in pairs, by :func:`fuse_pair`).
    """
    if strategy not in ("naive", "gmd", "amd", "hmd"):
        raise ValueError(f"unknown fusion strategy: {strategy!r}")
    n = len(densities)
    if n == 0:
        raise ValueError("nothing to fuse")
    if any(isinstance(d, GaussianMixture) for d in densities):
        raise TypeError("fuse_many fuses Gaussians; fuse a pair of mixtures with fuse_pair")
    _check_dims(densities)
    weights = np.full(n, 1.0 / n) if weights is None else _check_weights(weights, n, strategy)
    if strategy in ("gmd", "hmd"):
        kept = weights > 0.0
        densities, weights = [d for d, k in zip(densities, kept) if k], weights[kept]
    if len(densities) == 1:
        return densities[0]
    if strategy == "naive":
        return reduce(fuse_naive, densities)
    if strategy == "amd":
        return fuse_amd(densities, weights)
    if strategy == "gmd":
        lams = [d.precision for d in densities]
        lam = sum(w * L for w, L in zip(weights, lams))
        info = sum(w * _matvec(L, d.mean) for w, L, d in zip(weights, lams, densities))
        cov = _chol_inv(_factor(symmetrize(lam)))
        return GaussianDensity._made(_matvec(cov, info), cov)
    return fuse_hmd_recursive(densities, weights)
