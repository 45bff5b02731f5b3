"""Tests for exact pooled-density evaluation and the quadrature engine.

Quadrature results are checked against closed-form Gaussian identities
(product scales, fractional-power masses, KL divergences) so the grid code
and the algebra validate each other.
"""

import math

import numpy as np
import pytest

from trackfuse import (
    GaussianDensity,
    QuadratureError,
    gaussian_product,
    scaled_power,
)
from trackfuse.pooling import (
    grid_points,
    harmonic_norm_const,
    integrate,
    kl_divergence,
    log_harmonic_mean,
)

from oracles import geometric_norm_const, random_gaussian


def test_grid_covers_every_operand_to_seven_sigma():
    a = GaussianDensity(np.array([-5.0, 0.0]), np.diag([4.0, 1.0]))
    b = GaussianDensity(np.array([10.0, 2.0]), np.diag([1.0, 9.0]))
    pts, wts = grid_points([a, b], points_per_axis=11)
    assert pts.shape == (121, 2)
    assert wts.shape == (121,)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    # Per axis the grid spans the widest requirement over all operands.
    np.testing.assert_allclose(lo, [min(-5.0 - 14.0, 10.0 - 7.0),
                                    min(0.0 - 7.0, 2.0 - 21.0)], rtol=1e-12)
    np.testing.assert_allclose(hi, [max(-5.0 + 14.0, 10.0 + 7.0),
                                    max(0.0 + 7.0, 2.0 + 21.0)], rtol=1e-12)


def test_grid_weights_integrate_unit_mass(rng):
    d = random_gaussian(rng, 1)
    pts, wts = grid_points([d], points_per_axis=1601)
    assert wts @ d.pdf(pts) == pytest.approx(1.0, abs=1e-9)

    d2 = random_gaussian(rng, 2)
    pts2, wts2 = grid_points([d2], points_per_axis=401)
    assert wts2 @ d2.pdf(pts2) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dim", [1, 2])
def test_integrate_normalized_gaussian(dim, rng):
    d = random_gaussian(rng, dim)
    assert integrate(d.pdf, [d]) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dim", [1, 2])
def test_integrate_product_matches_closed_form_scale(dim):
    a = GaussianDensity(np.full(dim, 1.0), np.eye(dim) * 2.0)
    b = GaussianDensity(np.full(dim, 3.0), np.eye(dim) * 1.5)
    scale = math.exp(gaussian_product(a, b).log_scale)

    def fn(pts):
        return np.exp(a.logpdf(pts) + b.logpdf(pts))

    assert integrate(fn, [a, b]) == pytest.approx(scale, rel=1e-7)


def test_integrate_three_dims_uses_quasi_random_rule(rng):
    d = random_gaussian(rng, 3)
    assert integrate(d.pdf, [d]) == pytest.approx(1.0, rel=1e-3)


def test_integrate_raises_when_refinement_never_settles():
    d = GaussianDensity(np.zeros(1), np.eye(1))

    def fn(pts):
        # Deterministic value noise that stays rough at every grid scale, so
        # successive refinement levels never agree.
        noise, _ = np.modf(np.abs(np.sin(pts[:, 0] * 12345.678)) * 43758.5453)
        return d.pdf(pts) * (0.5 + noise)

    with pytest.raises(QuadratureError, match="no convergence"):
        integrate(fn, [d])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
def test_log_harmonic_mean_matches_direct_ratio(dim, w, rng):
    a = random_gaussian(rng, dim)
    b = random_gaussian(rng, dim)
    pts = a.mean + rng.standard_normal((30, dim)) @ np.linalg.cholesky(a.cov).T
    got = np.exp(log_harmonic_mean([a, b], [1.0 - w, w], pts))
    pa, pb = a.pdf(pts), b.pdf(pts)
    np.testing.assert_allclose(got, pa * pb / (w * pa + (1.0 - w) * pb),
                               rtol=1e-10)


def test_log_harmonic_mean_three_densities(rng):
    densities = [random_gaussian(rng, 1) for _ in range(3)]
    weights = np.array([0.2, 0.3, 0.5])
    pts = rng.standard_normal((20, 1)) * 4.0
    got = np.exp(log_harmonic_mean(densities, weights, pts))
    recip = sum(nu / d.pdf(pts) for nu, d in zip(weights, densities))
    np.testing.assert_allclose(got, 1.0 / recip, rtol=1e-10)


def test_log_harmonic_mean_finite_in_deep_tails():
    a = GaussianDensity(np.zeros(1), np.eye(1))
    b = GaussianDensity(np.array([0.5]), np.eye(1))
    val = log_harmonic_mean([a, b], [0.5, 0.5], np.array([[45.0]]))
    assert np.all(np.isfinite(val))
    # The direct ratio underflows to 0/0 out here.
    assert a.pdf(np.array([[45.0]]))[0] == 0.0


def test_harmonic_mass_is_at_most_one(rng):
    for _ in range(5):
        a = random_gaussian(rng, 1)
        b = random_gaussian(rng, 1)
        for w in (0.25, 0.5, 0.75):
            mass = harmonic_norm_const([a, b], [1.0 - w, w])
            assert 0.0 < mass <= 1.0 + 1e-9


def test_harmonic_mass_is_one_at_endpoints(rng):
    a = random_gaussian(rng, 1)
    b = random_gaussian(rng, 1)
    assert harmonic_norm_const([a, b], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-8)
    assert harmonic_norm_const([a, b], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("w", [0.1, 0.5, 0.9])
def test_geometric_mass_matches_power_product_algebra(w, rng):
    a = random_gaussian(rng, 1)
    b = random_gaussian(rng, 1)
    pow_a = scaled_power(a, w)
    pow_b = scaled_power(b, 1.0 - w)
    cross = gaussian_product(pow_a.density, pow_b.density)
    expected = math.exp(pow_a.log_scale + pow_b.log_scale + cross.log_scale)
    assert geometric_norm_const(a, b, w) == pytest.approx(expected, rel=1e-7)


def _kl_closed_form(p: GaussianDensity, q: GaussianDensity) -> float:
    inv_q = np.linalg.inv(q.cov)
    diff = q.mean - p.mean
    _, logdet_p = np.linalg.slogdet(p.cov)
    _, logdet_q = np.linalg.slogdet(q.cov)
    return 0.5 * (np.trace(inv_q @ p.cov) + diff @ inv_q @ diff - p.dim
                  + logdet_q - logdet_p)


@pytest.mark.parametrize("dim", [1, 2])
def test_kl_divergence_matches_closed_form(dim, rng):
    p = random_gaussian(rng, dim)
    q = GaussianDensity(p.mean + 0.5 * rng.standard_normal(dim),
                        p.cov + 0.5 * np.eye(dim))
    got = kl_divergence(p.logpdf, q.logpdf, [p, q])
    assert got == pytest.approx(_kl_closed_form(p, q), rel=1e-6, abs=1e-9)
    assert got >= 0.0


def test_kl_divergence_of_density_with_itself_is_zero(rng):
    p = random_gaussian(rng, 1)
    assert kl_divergence(p.logpdf, p.logpdf, [p]) == pytest.approx(0.0, abs=1e-12)
