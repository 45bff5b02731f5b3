"""Tests for the fusion strategies.

Each rule is validated through an independent route: pointwise proportionality
against the exact pooled form, information-form algebra recomputed with plain
numpy inverses, and quadrature masses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackfuse import (
    GaussianDensity,
    GaussianMixture,
    fuse_amd,
    fuse_gmd,
    fuse_hmd,
    fuse_hmd_mixture,
    fuse_hmd_recursive,
    fuse_many,
    fuse_naive,
    fuse_pair,
    fuse_pcf,
    gaussian_division,
    hmd_diagnostics,
    hmd_norm_const,
    moment_match,
)
from trackfuse.fusion import _Pair, _naive_mixture
from oracles import geometric_norm_const, random_gaussian, ref_fuse_hmd_mixture


def _paper_pair():
    return (GaussianDensity(np.array([50.0]), np.array([[10.0]])),
            GaussianDensity(np.array([-30.0]), np.array([[20.0]])))


def _log_ratio_spread(numer_logpdf, denom_logpdf, pts) -> float:
    """Max deviation of log(numer/denom) from its mean over ``pts``.

    Zero (up to round-off) means the two functions are proportional, which is
    the defining property of the normalized rules.
    """
    ratio = numer_logpdf(pts) - denom_logpdf(pts)
    return float(np.max(np.abs(ratio - np.mean(ratio))))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_naive_is_proportional_to_product(dim, rng):
    a, b = random_gaussian(rng, dim), random_gaussian(rng, dim)
    fused = fuse_naive(a, b)
    pts = fused.mean + rng.standard_normal((40, dim)) @ np.linalg.cholesky(fused.cov).T
    spread = _log_ratio_spread(lambda x: a.logpdf(x) + b.logpdf(x),
                               fused.logpdf, pts)
    assert spread < 1e-9


def test_naive_matches_information_sum(rng):
    a, b = random_gaussian(rng, 3), random_gaussian(rng, 3)
    fused = fuse_naive(a, b)
    lam = np.linalg.inv(a.cov) + np.linalg.inv(b.cov)
    cov = np.linalg.inv(lam)
    mean = cov @ (np.linalg.inv(a.cov) @ a.mean + np.linalg.inv(b.cov) @ b.mean)
    np.testing.assert_allclose(fused.cov, cov, rtol=1e-9)
    np.testing.assert_allclose(fused.mean, mean, rtol=1e-9)


def test_gmd_endpoints_return_operands(rng):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
    assert fuse_gmd(a, b, 1.0) is a
    assert fuse_gmd(a, b, 0.0) is b
    assert fuse_many([a, b], "gmd", [1.0, 0.0]) is a
    assert fuse_many([a, b], "gmd", [0.0, 1.0]) is b


@pytest.mark.parametrize("w", [0.25, 0.5, 0.75])
def test_gmd_is_proportional_to_geometric_pool(w, rng):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
    fused = fuse_gmd(a, b, w)
    pts = fused.mean + rng.standard_normal((40, 2)) @ np.linalg.cholesky(fused.cov).T
    spread = _log_ratio_spread(lambda x: w * a.logpdf(x) + (1.0 - w) * b.logpdf(x),
                               fused.logpdf, pts)
    assert spread < 1e-9


def test_gmd_normalization_matches_quadrature(rng):
    a, b = random_gaussian(rng, 1), random_gaussian(rng, 1)
    w = 0.4
    fused = fuse_gmd(a, b, w)
    mass = geometric_norm_const(a, b, w)
    pts = np.linspace(fused.mean[0] - 5.0, fused.mean[0] + 5.0, 7).reshape(-1, 1)
    pool = np.exp(w * a.logpdf(pts) + (1.0 - w) * b.logpdf(pts))
    np.testing.assert_allclose(pool / mass, fused.pdf(pts), rtol=1e-6)


def test_gmd_never_claims_more_information_than_naive(rng):
    for _ in range(10):
        a, b = random_gaussian(rng, 3), random_gaussian(rng, 3)
        gmd = fuse_gmd(a, b, 0.5)
        naive = fuse_naive(a, b)
        eigvals = np.linalg.eigvalsh(gmd.cov - naive.cov)
        assert np.min(eigvals) >= -1e-10


@pytest.mark.parametrize("w", [-0.1, 1.1])
def test_fusion_weight_outside_unit_interval_rejected(w, rng):
    a, b = random_gaussian(rng, 1), random_gaussian(rng, 1)
    with pytest.raises(ValueError, match="fusion weight"):
        fuse_gmd(a, b, w)
    with pytest.raises(ValueError, match="fusion weight"):
        fuse_hmd(a, b, w)
    for strategy in ("naive", "gmd", "amd", "pcf", "hmd"):
        with pytest.raises(ValueError, match="fusion weight"):
            fuse_pair(a, b, strategy, w)


def test_amd_is_the_weighted_mixture(rng):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
    fused = fuse_amd([a, b], [0.3, 0.7])
    pts = rng.standard_normal((30, 2)) * 4.0
    np.testing.assert_allclose(fused.pdf(pts), 0.3 * a.pdf(pts) + 0.7 * b.pdf(pts),
                               rtol=1e-10)
    # Untagged Gaussian inputs produce an untagged mixture.
    assert fused.tags is None
    matched = moment_match(fused)
    np.testing.assert_allclose(matched.mean, 0.3 * a.mean + 0.7 * b.mean,
                               rtol=1e-12)


def test_amd_flattens_mixture_inputs_with_positional_tags(rng):
    ga = random_gaussian(rng, 2)
    mix_b = GaussianMixture(np.array([0.25, 0.75]),
                            (random_gaussian(rng, 2), random_gaussian(rng, 2)),
                            tags=("cv", "ca"))
    fused = fuse_amd([ga, mix_b], [0.5, 0.5])
    np.testing.assert_allclose(fused.weights, [0.5, 0.125, 0.375], rtol=1e-12)
    assert fused.tags == ("|", "|cv", "|ca")


def test_amd_weight_validation(rng):
    a, b = random_gaussian(rng, 1), random_gaussian(rng, 1)
    with pytest.raises(ValueError, match="sum to 1"):
        fuse_amd([a, b], [0.5, 0.4])
    with pytest.raises(ValueError, match="one weight per operand"):
        fuse_amd([a, b], [1.0])
    # fuse_amd builds its mixture unchecked, so it checks its own weights.
    for weights in ([1.5, -0.5], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="amd weights must be non-negative and sum to 1"):
            fuse_amd([a, b], weights)
    with pytest.raises(ValueError, match="amd weights must be non-negative and sum to 1"):
        fuse_many([a, b], "amd", [1.5, -0.5])


def test_pcf_on_gaussians_collapses_to_covariance_intersection(rng):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
    fused = fuse_pcf(a, b, 0.35)
    assert fused.n_components == 1
    ci = fuse_gmd(a, b, 0.35)
    np.testing.assert_allclose(fused.components[0].mean, ci.mean, rtol=1e-9)
    np.testing.assert_allclose(fused.components[0].cov, ci.cov, rtol=1e-9)


def test_pcf_components_are_pairwise_intersections(rng):
    w = 0.5
    mix_a = GaussianMixture(np.array([0.6, 0.4]),
                            (random_gaussian(rng, 2), random_gaussian(rng, 2)),
                            tags=("0", "1"))
    mix_b = GaussianMixture(np.array([0.5, 0.5]),
                            (random_gaussian(rng, 2), random_gaussian(rng, 2)),
                            tags=("0", "1"))
    fused = fuse_pcf(mix_a, mix_b, w)
    assert fused.n_components == 4
    assert fused.tags == ("0|0", "0|1", "1|0", "1|1")
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        ci = fuse_gmd(mix_a.components[i], mix_b.components[j], w)
        np.testing.assert_allclose(fused.components[k].mean, ci.mean, rtol=1e-9)
        np.testing.assert_allclose(fused.components[k].cov, ci.cov, rtol=1e-9)


def test_pcf_weights_match_quadrature_masses(rng):
    w = 0.5
    mix_a = GaussianMixture(np.array([0.6, 0.4]),
                            (random_gaussian(rng, 1), random_gaussian(rng, 1)))
    mix_b = GaussianMixture(np.array([0.5, 0.5]),
                            (random_gaussian(rng, 1), random_gaussian(rng, 1)))
    fused = fuse_pcf(mix_a, mix_b, w)
    raw = []
    for i in range(2):
        for j in range(2):
            mass = geometric_norm_const(mix_a.components[i], mix_b.components[j], w)
            raw.append(mix_a.weights[i] ** w * mix_b.weights[j] ** (1.0 - w) * mass)
    raw = np.asarray(raw)
    np.testing.assert_allclose(fused.weights, raw / raw.sum(), rtol=1e-6)


def test_pcf_endpoints_return_operand_mixtures(rng):
    mix = GaussianMixture(np.array([0.5, 0.5]),
                          (random_gaussian(rng, 1), random_gaussian(rng, 1)))
    g = random_gaussian(rng, 1)
    assert fuse_pcf(mix, g, 1.0).components == mix.components
    end = fuse_pcf(mix, g, 0.0)
    assert end.n_components == 1
    assert all(getattr(end.components[0], f).tobytes() == getattr(g, f).tobytes()
               for f in ("mean", "cov", "chol"))


def test_hmd_scalar_pair_from_division_route():
    a, b = _paper_pair()
    result = fuse_hmd(a, b, 0.5)
    assert isinstance(result, GaussianDensity)
    assert result.mean[0] == pytest.approx(23.39, abs=0.01)
    assert result.cov[0, 0] == pytest.approx(6.69, abs=0.01)


def test_hmd_endpoints_return_operands(rng):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
    assert fuse_hmd(a, b, 1.0) is a
    assert fuse_hmd(a, b, 0.0) is b
    assert fuse_many([a, b], "hmd", [1.0, 0.0]) is a
    assert fuse_many([a, b], "hmd", [0.0, 1.0]) is b
    assert hmd_diagnostics(a, b, 1.0) == hmd_diagnostics(a, b, 0.0) == {"endpoint": True}


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_hmd_equals_product_divided_by_matched_pool(dim, rng):
    a, b = random_gaussian(rng, dim), random_gaussian(rng, dim)
    w = 0.3
    fused = fuse_hmd(a, b, w)
    from trackfuse import gaussian_product

    product = gaussian_product(a, b).density
    pool = moment_match(GaussianMixture(np.array([1.0 - w, w]), (a, b)))
    divided = gaussian_division(product, pool).density
    np.testing.assert_allclose(fused.mean, divided.mean, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(fused.cov, divided.cov, rtol=1e-8)


def test_hmd_is_conservative_relative_to_naive(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 5))
        a, b = random_gaussian(rng, dim), random_gaussian(rng, dim)
        fused = fuse_hmd(a, b, float(rng.uniform(0.05, 0.95)))
        naive = fuse_naive(a, b)
        eigvals = np.linalg.eigvalsh(fused.cov - naive.cov)
        assert np.min(eigvals) >= -1e-9 * max(1.0, float(np.max(np.abs(fused.cov))))


def test_hmd_diagnostics_and_mass(rng):
    a = GaussianDensity(np.array([1.0]), np.array([[100.0]]))
    b = GaussianDensity(np.array([7.0]), np.array([[50.0]]))
    diagnostics = hmd_diagnostics(a, b, 0.5)
    assert diagnostics["pd_margin"] > 0.0
    # The closed-form mass approximation should sit near the quadrature mass
    # for overlapping operands.
    quad = hmd_norm_const(a, b, 0.5)
    assert diagnostics["norm_const"] == pytest.approx(quad, rel=0.05)
    assert 0.0 < quad <= 1.0 + 1e-9


def test_hmd_mass_is_convex_with_unit_endpoints():
    a = GaussianDensity(np.array([1.0]), np.array([[100.0]]))
    b = GaussianDensity(np.array([7.0]), np.array([[50.0]]))
    grid = np.linspace(0.0, 1.0, 21)
    masses = np.array([hmd_norm_const(a, b, w) for w in grid])
    assert masses[0] == pytest.approx(1.0, abs=1e-6)
    assert masses[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.all(masses <= 1.0 + 1e-9)
    second_diff = masses[2:] - 2.0 * masses[1:-1] + masses[:-2]
    assert np.min(second_diff) >= -1e-8


def test_hmd_mixture_of_singletons_matches_gaussian_rule(rng):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
    mix = fuse_hmd_mixture(GaussianMixture(np.array([1.0]), (a,)),
                           GaussianMixture(np.array([1.0]), (b,)), 0.5)
    assert mix.n_components == 1
    gauss = fuse_hmd(a, b, 0.5)
    np.testing.assert_allclose(mix.components[0].mean, gauss.mean, rtol=1e-8)
    np.testing.assert_allclose(mix.components[0].cov, gauss.cov, rtol=1e-8)


def test_hmd_mixture_is_proportional_to_product_over_matched_pool(rng):
    w = 0.5
    mix_a = GaussianMixture(np.array([0.6, 0.4]),
                            (GaussianDensity(np.array([0.0]), np.array([[4.0]])),
                             GaussianDensity(np.array([3.0]), np.array([[6.0]]))))
    mix_b = GaussianMixture(np.array([0.5, 0.5]),
                            (GaussianDensity(np.array([1.0]), np.array([[5.0]])),
                             GaussianDensity(np.array([4.0]), np.array([[7.0]]))))
    fused = fuse_hmd_mixture(mix_a, mix_b, w)
    assert fused.n_components == 4
    pool = moment_match(GaussianMixture(
        np.concatenate(((1.0 - w) * mix_a.weights, w * mix_b.weights)),
        tuple(mix_a.components) + tuple(mix_b.components)))
    pts = np.linspace(-6.0, 10.0, 50).reshape(-1, 1)
    spread = _log_ratio_spread(
        lambda x: mix_a.logpdf(x) + mix_b.logpdf(x) - pool.logpdf(x),
        fused.logpdf, pts)
    assert spread < 1e-9


def test_hmd_mixture_tags_cross_operand_modes(rng):
    mix_a = GaussianMixture(np.array([0.7, 0.3]),
                            (random_gaussian(rng, 1), random_gaussian(rng, 1)),
                            tags=("cv", "ca"))
    mix_b = GaussianMixture(np.array([1.0]), (random_gaussian(rng, 1),))
    fused = fuse_hmd_mixture(mix_a, mix_b, 0.5)
    assert fused.tags == ("cv|", "ca|")


def test_hmd_mixture_endpoints(rng):
    mix_a = GaussianMixture(np.array([0.5, 0.5]),
                            (random_gaussian(rng, 1), random_gaussian(rng, 1)))
    mix_b = GaussianMixture(np.array([1.0]), (random_gaussian(rng, 1),))
    assert fuse_hmd_mixture(mix_a, mix_b, 1.0).components == mix_a.components
    assert fuse_hmd_mixture(mix_a, mix_b, 0.0).components == mix_b.components


def _degenerate_mixture_pair():
    """A pair whose wide-wide cross product defeats the global pool.

    The pools are dominated by the tight components, so the matched pool
    covariance is far below the wide-wide product covariance and that pair
    must fall back to its own two-component pool.
    """
    mix_a = GaussianMixture(
        np.array([0.99, 0.01]),
        (GaussianDensity(np.array([0.0]), np.array([[1e-4]])),
         GaussianDensity(np.array([0.0]), np.array([[100.0]]))))
    mix_b = GaussianMixture(
        np.array([0.99, 0.01]),
        (GaussianDensity(np.array([0.1]), np.array([[1e-4]])),
         GaussianDensity(np.array([0.2]), np.array([[100.0]]))))
    return mix_a, mix_b


def test_hmd_mixture_survives_degenerate_pool_pairs():
    mix_a, mix_b = _degenerate_mixture_pair()
    fused = fuse_hmd_mixture(mix_a, mix_b, 0.5)
    assert fused.n_components == 4
    assert np.all(np.isfinite(fused.weights))
    assert fused.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_pair_quotient_falls_back_to_local_pool():
    from trackfuse import gaussian_product

    mix_a, mix_b = _degenerate_mixture_pair()
    w = 0.5
    pool = moment_match(GaussianMixture(
        np.concatenate(((1.0 - w) * mix_a.weights, w * mix_b.weights)),
        tuple(mix_a.components) + tuple(mix_b.components)))
    wide_product = gaussian_product(mix_a.components[1], mix_b.components[1])
    # The global pool cannot divide this pair at all.
    assert pool.cov[0, 0] < wide_product.density.cov[0, 0]
    # The per-pair reference takes the pair's own pool for this pair ...
    fallbacks = []
    ref_fuse_hmd_mixture(mix_a, mix_b, w, fallbacks)
    assert fallbacks[3]
    # ... and so does the rule: its (1, 1) component is the division by it.
    quot = fuse_hmd_mixture(mix_a, mix_b, w).components[3]
    wa, wb = (1.0 - w) * mix_a.weights[1], w * mix_b.weights[1]
    local = moment_match(GaussianMixture(
        np.array([wa, wb]) / (wa + wb),
        (mix_a.components[1], mix_b.components[1])))
    expected = gaussian_division(wide_product.density, local)
    np.testing.assert_allclose(quot.mean, expected.density.mean, rtol=1e-10)
    np.testing.assert_allclose(quot.cov, expected.density.cov, rtol=1e-10)


def test_recursive_fusion_with_two_inputs_matches_pair_rule(rng):
    a, b = random_gaussian(rng, 3), random_gaussian(rng, 3)
    nested = fuse_hmd_recursive([a, b], [0.6, 0.4])
    direct = fuse_hmd(a, b, w=0.6)
    np.testing.assert_allclose(nested.mean, direct.mean, rtol=1e-12)
    np.testing.assert_allclose(nested.cov, direct.cov, rtol=1e-12)


def test_recursive_fusion_chains_left_to_right(rng):
    inputs = [random_gaussian(rng, 2) for _ in range(4)]
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    nested = fuse_hmd_recursive(inputs, weights)
    acc = inputs[0]
    running = weights[0]
    for k in range(1, 4):
        running += weights[k]
        acc = fuse_hmd(acc, inputs[k], w=float(1.0 - weights[k] / running))
    np.testing.assert_allclose(nested.mean, acc.mean, rtol=1e-12)
    np.testing.assert_allclose(nested.cov, acc.cov, rtol=1e-12)


def test_recursive_fusion_weight_validation(rng):
    a, b = random_gaussian(rng, 1), random_gaussian(rng, 1)
    with pytest.raises(ValueError, match="positive"):
        fuse_hmd_recursive([a, b], [1.0, 0.0])
    with pytest.raises(ValueError, match="sum to 1"):
        fuse_hmd_recursive([a, b], [0.6, 0.6])
    with pytest.raises(ValueError, match="one weight per operand"):
        fuse_hmd_recursive([a, b], [1.0])


def test_fuse_pair_dispatch(rng):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
    assert isinstance(fuse_pair(a, b, "naive"), GaussianDensity)
    assert isinstance(fuse_pair(a, b, "gmd"), GaussianDensity)
    assert isinstance(fuse_pair(a, b, "hmd"), GaussianDensity)
    assert isinstance(fuse_pair(a, b, "amd"), GaussianMixture)
    assert isinstance(fuse_pair(a, b, "pcf"), GaussianMixture)
    with pytest.raises(ValueError, match="unknown fusion strategy"):
        fuse_pair(a, b, "median")

    mix = GaussianMixture(np.array([0.5, 0.5]),
                          (random_gaussian(rng, 2), random_gaussian(rng, 2)))
    assert fuse_pair(mix, b, "naive").n_components == 2
    assert fuse_pair(mix, b, "gmd").n_components == 2
    assert fuse_pair(mix, b, "hmd").n_components == 2


def _operand(rng, dim: int, mixture: bool):
    if not mixture:
        return random_gaussian(rng, dim)
    weights = rng.uniform(0.1, 1.0, 2)
    return GaussianMixture(weights / weights.sum(),
                           (random_gaussian(rng, dim), random_gaussian(rng, dim)),
                           tags=("cv", "ca"))


def _components(density) -> list:
    """``(weight, mean, cov)`` of each component; a Gaussian is one component."""
    if isinstance(density, GaussianDensity):
        return [(1.0, density.mean, density.cov)]
    return [(w, c.mean, c.cov) for w, c in zip(density.weights, density.components)]


def _assert_same_up_to_order(left, right, rtol: float, atol: float) -> None:
    """Equal weights, means and covariances, components matched in any order
    (tags are not compared)."""
    pending = _components(right)
    assert len(_components(left)) == len(pending)
    for weight, mean, cov in _components(left):
        k = min(range(len(pending)), key=lambda k: np.abs(pending[k][1] - mean).max()
                + np.abs(pending[k][2] - cov).max())
        other_weight, other_mean, other_cov = pending.pop(k)
        np.testing.assert_allclose(other_weight, weight, rtol=rtol, atol=atol)
        np.testing.assert_allclose(other_mean, mean, rtol=rtol, atol=atol)
        np.testing.assert_allclose(other_cov, cov, rtol=rtol, atol=atol)


@pytest.mark.parametrize("strategy", ["gmd", "amd", "pcf", "hmd"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       mixtures=st.tuples(st.booleans(), st.booleans()),
       omega=st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.0, 1.0])))
def test_swapping_the_operands_and_the_weights_gives_the_same_fusion(
        strategy, seed, dim, mixtures, omega):
    rng = np.random.default_rng(seed)
    a, b = (_operand(rng, dim, m) for m in mixtures)
    _assert_same_up_to_order(fuse_pair(a, b, strategy, omega),
                             fuse_pair(b, a, strategy, 1.0 - omega),
                             rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("strategy, mean", [
    ("gmd", 0.5), ("amd", 0.5), ("pcf", 0.5), ("hmd", 4.57)])
def test_omega_pulls_the_fused_mean_toward_the_first_operand(strategy, mean):
    a = GaussianDensity(np.array([0.0]), np.array([[1.0]]))
    b = GaussianDensity(np.array([10.0]), np.array([[1.0]]))
    fused = fuse_pair(a, b, strategy, 0.95)
    if isinstance(fused, GaussianMixture):
        fused = moment_match(fused)
    assert fused.mean[0] < 5.0
    assert fused.mean[0] == pytest.approx(mean, abs=0.01)


def test_mixture_product_is_proportional_to_pointwise_product(rng):
    mix_a = GaussianMixture(np.array([0.6, 0.4]),
                            (random_gaussian(rng, 1), random_gaussian(rng, 1)))
    mix_b = GaussianMixture(np.array([0.3, 0.7]),
                            (random_gaussian(rng, 1), random_gaussian(rng, 1)))
    fused = _naive_mixture(_Pair(mix_a, mix_b))
    pts = np.linspace(-15.0, 15.0, 60).reshape(-1, 1)
    spread = _log_ratio_spread(lambda x: mix_a.logpdf(x) + mix_b.logpdf(x),
                               fused.logpdf, pts)
    assert spread < 1e-8


def test_fuse_many_single_and_empty(rng):
    a = random_gaussian(rng, 2)
    assert fuse_many([a], "hmd") is a
    with pytest.raises(ValueError, match="nothing to fuse"):
        fuse_many([], "naive")
    # One operand is returned as is, but only under a rule fuse_many runs.
    for strategy in ("bogus", "pcf"):
        with pytest.raises(ValueError, match=f"unknown fusion strategy: '{strategy}'"):
            fuse_many([a], strategy)


@pytest.mark.parametrize("strategy", ["naive", "gmd", "amd", "hmd"])
@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25], 1.0])
def test_fuse_many_needs_one_weight_per_operand(rng, strategy, weights):
    # gmd fused the first two of three operands under a short weight vector.
    densities = [random_gaussian(rng, 2) for _ in range(3)]
    with pytest.raises(ValueError, match="one weight per operand"):
        fuse_many(densities, strategy, weights)
    with pytest.raises(ValueError, match="one weight per operand"):
        fuse_many(densities[:1], strategy, weights)


@pytest.mark.parametrize("strategy", ["naive", "gmd", "amd", "hmd"])
@pytest.mark.parametrize("weights", [[0.5, 0.6], [1.5, -0.5], [np.nan, 1.0], [0.7]])
def test_fuse_many_needs_nonnegative_weights_summing_to_one(rng, strategy, weights):
    densities = [random_gaussian(rng, 2) for _ in range(len(weights))]
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        fuse_many(densities, strategy, weights)


def test_fuse_many_naive_ignores_the_weights(rng):
    densities = [random_gaussian(rng, 2) for _ in range(3)]
    plain = fuse_many(densities, "naive")
    weighted = fuse_many(densities, "naive", [0.7, 0.2, 0.1])
    assert weighted.mean.tobytes() == plain.mean.tobytes()
    assert weighted.cov.tobytes() == plain.cov.tobytes()


def test_fuse_many_naive_is_full_product(rng):
    densities = [random_gaussian(rng, 2) for _ in range(3)]
    fused = fuse_many(densities, "naive")
    lam = sum(np.linalg.inv(d.cov) for d in densities)
    cov = np.linalg.inv(lam)
    mean = cov @ sum(np.linalg.inv(d.cov) @ d.mean for d in densities)
    np.testing.assert_allclose(fused.cov, cov, rtol=1e-8)
    np.testing.assert_allclose(fused.mean, mean, rtol=1e-8)


def test_fuse_many_gmd_averages_information(rng):
    densities = [random_gaussian(rng, 2) for _ in range(3)]
    fused = fuse_many(densities, "gmd")
    lam = sum(np.linalg.inv(d.cov) for d in densities) / 3.0
    np.testing.assert_allclose(np.linalg.inv(fused.cov), lam, rtol=1e-8)


def test_fuse_many_hmd_matches_recursive_rule(rng):
    densities = [random_gaussian(rng, 2) for _ in range(3)]
    fused = fuse_many(densities, "hmd")
    direct = fuse_hmd_recursive(densities, np.full(3, 1.0 / 3.0))
    np.testing.assert_allclose(fused.mean, direct.mean, rtol=1e-12)
    np.testing.assert_allclose(fused.cov, direct.cov, rtol=1e-12)


def test_fuse_many_amd_stacks_inputs(rng):
    densities = [random_gaussian(rng, 2) for _ in range(3)]
    fused = fuse_many(densities, "amd")
    assert isinstance(fused, GaussianMixture)
    assert fused.n_components == 3
    np.testing.assert_allclose(fused.weights, np.full(3, 1.0 / 3.0), rtol=1e-12)


# Operands of different dimensions: every rule raises one ValueError naming
# each operand's dimension. gmd used to broadcast a 1-d precision against a
# 2-d one and return a 2-d density; the mixture rules failed in numpy's
# matmul, and amd and hmd said a mixture needs a component.
_MISMATCH = "share one dimension, got dimensions "


def _one(density):
    return GaussianMixture(np.array([1.0]), (density,), ("ncv",))


@pytest.mark.parametrize("strategy", ["naive", "gmd", "amd", "pcf", "hmd"])
@pytest.mark.parametrize("kind", ["gaussians", "mixtures", "mixed"])
def test_fuse_pair_rejects_operands_of_different_dimension(rng, strategy, kind):
    a, b = random_gaussian(rng, 1), random_gaussian(rng, 2)
    if kind != "gaussians":
        a = _one(a)
    if kind == "mixtures":
        b = _one(b)
    for x, y, dims in ((a, b, "1, 2"), (b, a, "2, 1")):
        with pytest.raises(ValueError, match=_MISMATCH + dims):
            fuse_pair(x, y, strategy, 0.3)


@pytest.mark.parametrize("strategy", ["naive", "gmd", "amd", "hmd"])
def test_fuse_many_rejects_operands_of_different_dimension(rng, strategy):
    a, b = random_gaussian(rng, 1), random_gaussian(rng, 2)
    with pytest.raises(ValueError, match=_MISMATCH + "1, 2"):
        fuse_many([a, b], strategy)
    # Checked before gmd and hmd leave out an operand of weight 0.
    with pytest.raises(ValueError, match=_MISMATCH + "2, 2, 1"):
        fuse_many([b, b, a], strategy, [0.5, 0.5, 0.0])


@pytest.mark.parametrize("rule", [
    lambda a, b: fuse_naive(a, b),
    lambda a, b: fuse_gmd(a, b, 0.3),
    lambda a, b: fuse_amd([a, b], [0.3, 0.7]),
    lambda a, b: fuse_pcf(a, b, 0.3),
    lambda a, b: fuse_hmd(a, b, 0.3),
    lambda a, b: fuse_hmd_mixture(a, b, 0.3),
    lambda a, b: fuse_hmd_recursive([a, b], [0.3, 0.7]),
    lambda a, b: hmd_diagnostics(a, b, 0.3),
], ids=["naive", "gmd", "amd", "pcf", "hmd", "hmd_mixture", "hmd_recursive",
        "hmd_diagnostics"])
def test_every_public_rule_rejects_operands_of_different_dimension(rng, rule):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 1)
    with pytest.raises(ValueError, match=_MISMATCH + "2, 1"):
        rule(a, b)


@pytest.mark.parametrize("strategy", ["naive", "gmd", "amd", "hmd"])
def test_fuse_many_points_a_mixture_to_fuse_pair(rng, strategy):
    a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
    for operands in ([_one(a), b], [a, _one(b)], [_one(a)]):
        with pytest.raises(TypeError, match="fuse_pair"):
            fuse_many(operands, strategy)
