"""Randomized property checks for the fusion algebra.

Each check exercises one analytic property of the harmonic-mean pool or the
underlying Gaussian algebra on freshly drawn random instances and reports
pass/fail with a short detail string. The ``validate`` CLI subcommand runs
this suite; the test suite runs it at full strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fusion import fuse_hmd, hmd_norm_const
from .gaussians import (
    GaussianDensity,
    GaussianMixture,
    gaussian_division,
    gaussian_product,
    moment_match,
    spd_inv,
)
from .pooling import grid_points, kl_divergence, log_harmonic_mean

__all__ = ["CheckResult", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_gaussian(rng: np.random.Generator, dim: int,
                     mean_scale: float = 5.0, var_scale: float = 4.0) -> GaussianDensity:
    mean = mean_scale * rng.standard_normal(dim)
    root = rng.standard_normal((dim, dim))
    cov = root @ root.T + (0.2 + var_scale * rng.random()) * np.eye(dim)
    return GaussianDensity(mean, cov)


def _check_roundtrip(rng, trials, division_fn) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 4))
        a = _random_gaussian(rng, dim)
        b = _random_gaussian(rng, dim)
        prod = gaussian_product(a, b)
        quot = division_fn(prod.density, b)
        err = max(float(np.max(np.abs(quot.density.mean - a.mean))),
                  float(np.max(np.abs(quot.density.cov - a.cov))))
        # Scale consistency: the scaled quotient times the denominator must
        # reproduce the dividend pointwise.
        x = a.mean + 0.5 * rng.standard_normal(dim)
        lhs = quot.log_scale + quot.density.logpdf(x) + b.logpdf(x)
        rhs = prod.density.logpdf(x)
        err = max(err, abs(float(lhs - rhs)))
        worst = max(worst, err)
    return CheckResult("product/division round trip", worst <= 1e-8,
                       f"max deviation {worst:.3e} over {trials} trials (tol 1e-8)")


def _check_self_fusion(rng, trials) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 4))
        p = _random_gaussian(rng, dim)
        w = float(rng.uniform(0.05, 0.95))
        fused = fuse_hmd(p, p, w)
        worst = max(worst,
                    float(np.max(np.abs(fused.mean - p.mean))),
                    float(np.max(np.abs(fused.cov - p.cov))))
    return CheckResult("self-fusion identity", worst <= 1e-9,
                       f"max deviation {worst:.3e} over {trials} trials (tol 1e-9)")


def _check_convexity(rng, n_pairs) -> CheckResult:
    grid = np.linspace(0.0, 1.0, 21)
    worst_excess = 0.0
    worst_end = 0.0
    worst_curv = np.inf
    for _ in range(n_pairs):
        a = _random_gaussian(rng, 1)
        b = _random_gaussian(rng, 1)
        zeta = np.array([hmd_norm_const(a, b, w) for w in grid])
        worst_excess = max(worst_excess, float(np.max(zeta) - 1.0))
        worst_end = max(worst_end, abs(zeta[0] - 1.0), abs(zeta[-1] - 1.0))
        worst_curv = min(worst_curv, float(np.min(np.diff(zeta, 2))))
    passed = (worst_excess <= 1e-6 and worst_end <= 1e-6 and worst_curv >= -1e-8)
    return CheckResult(
        "normalization bounded, unit endpoints, convex",
        passed,
        f"max excess {worst_excess:.2e}, endpoint dev {worst_end:.2e}, "
        f"min second difference {worst_curv:.2e} over {n_pairs} pairs")


def _check_lower_bound(rng, n_pairs) -> CheckResult:
    worst = np.inf
    for _ in range(n_pairs):
        a = _random_gaussian(rng, 1)
        b = _random_gaussian(rng, 1)
        w = float(rng.uniform(0.1, 0.9))
        zeta = hmd_norm_const(b, a, w)
        pts, _ = grid_points([a, b], 401)
        pooled = np.exp(log_harmonic_mean([b, a], [w, 1.0 - w], pts)) / zeta
        floor = np.minimum(a.pdf(pts), b.pdf(pts))
        worst = min(worst, float(np.min(pooled - floor)))
    return CheckResult("normalized pool dominates the pointwise minimum",
                       worst >= -1e-9,
                       f"min margin {worst:.3e} over {n_pairs} pairs (tol -1e-9)")


def _check_kl_placement(rng, n_pairs) -> CheckResult:
    worst = -np.inf
    for _ in range(n_pairs):
        a = _random_gaussian(rng, 1, mean_scale=3.0)
        b = _random_gaussian(rng, 1, mean_scale=3.0)
        w = float(rng.uniform(0.2, 0.8))
        zeta = hmd_norm_const(b, a, w)

        def log_pool(pts, _w=w, _z=zeta, _a=a, _b=b):
            return log_harmonic_mean([_b, _a], [_w, 1.0 - _w], pts) - np.log(_z)

        for p, q in ((a, b), (b, a)):
            to_pool = kl_divergence(p.logpdf, log_pool, [a, b])
            to_other = kl_divergence(p.logpdf, q.logpdf, [a, b])
            worst = max(worst, to_pool - to_other)
    return CheckResult("pool is KL-closer than the other input",
                       worst <= 1e-6,
                       f"max KL excess {worst:.3e} over {n_pairs} pairs (tol 1e-6)")


def _check_recursion_identity(rng, n_triples) -> CheckResult:
    worst = 0.0
    for _ in range(n_triples):
        dens = [_random_gaussian(rng, 1, mean_scale=3.0) for _ in range(3)]
        nu = rng.uniform(0.2, 1.0, size=3)
        nu = nu / np.sum(nu)
        pts, _ = grid_points(dens, 201)
        direct = np.exp(log_harmonic_mean(dens, nu, pts))
        inner_w = nu[:2] / (nu[0] + nu[1])
        log_inner = log_harmonic_mean(dens[:2], inner_w, pts)
        stack = np.stack([np.log(nu[0] + nu[1]) - log_inner,
                          np.log(nu[2]) - dens[2].logpdf(pts)])
        peak = np.max(stack, axis=0)
        nested = np.exp(-(peak + np.log(np.sum(np.exp(stack - peak), axis=0))))
        worst = max(worst, float(np.max(np.abs(direct - nested))))
    return CheckResult("nested pooling equals direct pooling",
                       worst <= 1e-9,
                       f"max pointwise gap {worst:.3e} over {n_triples} triples "
                       f"on 201-point grids (tol 1e-9)")


def _check_pd_margin(rng, trials) -> CheckResult:
    worst = np.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 7))
        a = _random_gaussian(rng, dim)
        b = _random_gaussian(rng, dim)
        w = float(rng.uniform(0.01, 0.99))
        eq = moment_match(GaussianMixture(np.array([w, 1.0 - w]), (a, b)))
        naive_cov = spd_inv(np.linalg.inv(a.cov) + np.linalg.inv(b.cov))
        gap = 0.5 * (eq.cov - naive_cov + (eq.cov - naive_cov).T)
        worst = min(worst, float(np.min(np.linalg.eigvalsh(gap))))
    return CheckResult("matched pool covariance dominates the product's",
                       worst > 0.0,
                       f"min eigenvalue {worst:.3e} over {trials} random pairs")


def run_suite(trials: int = 1000, seed: int = 0,
              division_fn: Callable | None = None) -> list[CheckResult]:
    """Run every property check; ``trials`` (at least 1) scales the randomized counts.

    ``division_fn`` exists as a test hook: substituting a corrupted division
    must make the round-trip check fail.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    division_fn = division_fn or gaussian_division
    small = max(2, min(5, trials))
    medium = max(2, min(10, trials))
    return [
        _check_roundtrip(rng, min(trials, 50), division_fn),
        _check_self_fusion(rng, min(trials, 50)),
        _check_convexity(rng, small),
        _check_lower_bound(rng, medium),
        _check_kl_placement(rng, medium),
        _check_recursion_identity(rng, small),
        _check_pd_margin(rng, trials),
    ]
