"""The mixture rules and feedback routing on the stacked cross-product kernel.

Each rule must reproduce its per-pair reference copy in ``oracles.py`` bit for
bit: the weights, every component's mean, covariance and factor, and the
tags. Where the reference raises, the rule must raise the same exception
class when a single cross pair is at fault.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackfuse import (
    GaussianDensity,
    GaussianMixture,
    ImmState,
    MotionModel,
    NonPositiveDefiniteResult,
    NotPositiveDefinite,
    fuse_hmd_mixture,
    fuse_pair,
    fuse_pcf,
    gaussian_division,
    gaussian_product,
    imm_output,
    route_feedback,
)
from trackfuse import filters, fusion, gaussians
from trackfuse.fusion import _Pair, _naive_mixture
from trackfuse.gaussians import _mixture_moments

import oracles as ref
from test_fusion import _degenerate_mixture_pair


def _same(new, old) -> bool:
    if isinstance(old, GaussianDensity):
        return all(getattr(new, f).tobytes() == getattr(old, f).tobytes()
                   for f in ("mean", "cov", "chol"))
    return (new.weights.tobytes() == old.weights.tobytes() and new.tags == old.tags
            and new.n_components == old.n_components
            and all(_same(x, y) for x, y in zip(new.components, old.components)))


def _outcome(fn):
    """The rule's result, or the class of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)


def _assert_same_outcome(new_fn, old_fn):
    new, old = _outcome(new_fn), _outcome(old_fn)
    if isinstance(old, type) or isinstance(new, type):
        assert new is old
    else:
        assert _same(new, old)


RULES = {
    "naive": (lambda a, b, w: _naive_mixture(_Pair(a, b)),
              lambda a, b, w: ref.ref_mixture_product(ref._ref_as_mixture(a),
                                                      ref._ref_as_mixture(b))),
    "pcf": (fuse_pcf, ref.ref_fuse_pcf),
    "hmd": (fuse_hmd_mixture, ref.ref_fuse_hmd_mixture),
}

# Component counts of the two operands; 0 is a plain Gaussian.
SHAPES = [(1, 1), (1, 2), (2, 2), (3, 2), (0, 0), (0, 2), (2, 0)]


def _operand(rng, n, dim, tagged):
    if n == 0:
        return ref.random_gaussian(rng, dim)
    comps = tuple(ref.random_gaussian(rng, dim) for _ in range(n))
    weights = rng.random(n) + 0.1
    tags = ("ncv", "nca", "ncj")[:n] if tagged else None
    return GaussianMixture(weights / weights.sum(), comps, tags)


@pytest.mark.parametrize("rule", sorted(RULES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(SHAPES),
       dim=st.integers(1, 3), tagged=st.tuples(st.booleans(), st.booleans()),
       w=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_mixture_rules_equal_the_per_pair_loops_bit_for_bit(rule, seed, shape, dim,
                                                            tagged, w):
    rng = np.random.default_rng(seed)
    a = _operand(rng, shape[0], dim, tagged[0])
    b = _operand(rng, shape[1], dim, tagged[1])
    new, old = RULES[rule]
    _assert_same_outcome(lambda: new(a, b, w), lambda: old(a, b, w))


def _no_fallback_pair():
    # Equal covariances: the pool's spread keeps every gap well conditioned.
    eye = np.eye(2)
    return (GaussianMixture(np.array([0.5, 0.5]), (GaussianDensity([0.0, 0.0], eye),
                                                   GaussianDensity([3.0, 1.0], eye))),
            GaussianMixture(np.array([0.3, 0.7]), (GaussianDensity([1.0, 1.0], eye),
                                                   GaussianDensity([2.0, -1.0], eye)),
                            ("ncv", "nca")))


def _all_fallback_pair():
    # A pool spread of 1e4 along x dwarfs every gap along y, so no gap passes
    # the eigenvalue ratio test.
    return (GaussianMixture(np.array([0.5, 0.5]),
                            (GaussianDensity([0.0, 0.0], np.diag([1.0, 1.0])),
                             GaussianDensity([1e4, 0.0], np.diag([2.0, 1.0]))),
                            ("ncv", "nca")),
            GaussianMixture(np.array([0.3, 0.7]),
                            (GaussianDensity([5.0, 1.0], np.diag([1.0, 3.0])),
                             GaussianDensity([1e4, 2.0], np.diag([1.0, 1.0])))))


def _near_tolerance_pair():
    # Every gap's eigenvalue ratio is 3e-4: above the 1e-6 tolerance, so no
    # pair falls back, but within reach of a looser one.
    eye = np.eye(2)
    return (GaussianMixture(np.array([0.5, 0.5]), (GaussianDensity([0.0, 0.0], eye),
                                                   GaussianDensity([100.0, 0.0], eye))),
            GaussianMixture(np.array([0.5, 0.5]), (GaussianDensity([0.0, 1.0], eye),
                                                   GaussianDensity([100.0, 1.0], eye))))


@pytest.mark.parametrize("pair, fallbacks", [
    (_no_fallback_pair, [False] * 4),
    (_near_tolerance_pair, [False] * 4),
    (_degenerate_mixture_pair, [False, False, False, True]),
    (_all_fallback_pair, [True] * 4),
], ids=["none", "near-tolerance", "some", "all"])
@pytest.mark.parametrize("w", [0.3, 0.5])
def test_pair_pool_fallback_mask_matches_the_loop(pair, fallbacks, w):
    a, b = pair()
    seen = []
    old = ref.ref_fuse_hmd_mixture(a, b, w, seen)
    assert seen == fallbacks
    assert _same(fuse_hmd_mixture(a, b, w), old)
    assert _same(fuse_hmd_mixture(a, b, w), ref.ref_fuse_hmd_mixture(a, b, w))


def test_fallback_mask_with_three_by_two_operands():
    a, b = _degenerate_mixture_pair()
    a3 = GaussianMixture(np.array([0.49, 0.01, 0.5]),
                         tuple(a.components) + (GaussianDensity([0.3], [[2.0]]),),
                         ("x", "y", "z"))
    seen = []
    old = ref.ref_fuse_hmd_mixture(a3, b, 0.5, seen)
    assert any(seen) and not all(seen)
    assert _same(fuse_hmd_mixture(a3, b, 0.5), old)


def _gauss(mean, var):
    return GaussianDensity(np.array([float(mean)]), np.array([[float(var)]]))


def test_one_failing_pair_raises_the_division_failure_of_the_loop():
    # The zero-weight wide component's product equals the other operand to
    # round-off, so both its pool gap and its own pool's gap vanish.
    a = GaussianMixture(np.array([1.0, 0.0]), (_gauss(0, 1), _gauss(0, 1e17)))
    b = _gauss(0, 1)
    with pytest.raises(NonPositiveDefiniteResult):
        ref.ref_fuse_hmd_mixture(a, b, 0.5)
    with pytest.raises(NonPositiveDefiniteResult):
        fuse_hmd_mixture(a, b, 0.5)
    healthy = GaussianMixture(np.array([1.0]), (_gauss(0, 1),))
    assert _same(fuse_hmd_mixture(healthy, b, 0.5), ref.ref_fuse_hmd_mixture(healthy, b, 0.5))


@pytest.mark.parametrize("rule", sorted(RULES))
def test_one_failing_pair_raises_the_check_failure_of_the_loop(rule):
    # Only the wide-wide pair's scale-term covariance exceeds half the float
    # maximum (pcf already fails on raising that component to a power).
    a = GaussianMixture(np.array([0.5, 0.5]), (_gauss(0, 1), _gauss(0, 8e307)))
    b = _gauss(0, 8e307)
    new, old = RULES[rule]
    with pytest.raises(NotPositiveDefinite):
        old(a, b, 0.5)
    with pytest.raises(NotPositiveDefinite):
        new(a, b, 0.5)


def test_one_failing_pair_pool_raises_the_density_check_failure_of_the_loop():
    # All pairs fall back; only the far-far pair's own pool has a spread
    # above half the float maximum, which its density check rejects.
    far, cov = 1.25e154, 1e290 * np.eye(2)
    a, b = (GaussianMixture(np.array([1.0 - 1e-10, 1e-10]),
                            (GaussianDensity([0.0, 0.0], cov), GaussianDensity([x, 0.0], cov)))
            for x in (-far, far))
    seen = []
    with np.errstate(over="ignore"):
        with pytest.raises(NotPositiveDefinite):
            ref.ref_fuse_hmd_mixture(a, b, 0.5, seen)
        assert seen == [True] * 3
        with pytest.raises(NotPositiveDefinite):
            fuse_hmd_mixture(a, b, 0.5)


def test_one_failing_pair_pool_raises_the_weight_failure_of_the_loop():
    # The wide-wide pair falls back to its own pool, whose weights are 0 and 0.
    a = GaussianMixture(np.array([1.0, 0.0]), (_gauss(0, 1), _gauss(0, 100)))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        ref.ref_fuse_hmd_mixture(a, a, 0.5)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        fuse_hmd_mixture(a, a, 0.5)
    # LinAlgError, the third class the loop can raise, needs a singular matrix
    # that every density and scale-term check lets through; checked densities
    # offer none, so it has no case here.


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       swap=st.booleans())
def test_one_member_product_and_division_equal_the_pair_routines(seed, dim, swap):
    rng = np.random.default_rng(seed)
    a, b = ref.random_gaussian(rng, dim), ref.random_gaussian(rng, dim)
    _assert_same_outcome(lambda: gaussian_product(a, b).density,
                         lambda: ref.ref_gaussian_product(a, b).density)
    assert gaussian_product(a, b).log_scale == ref.ref_gaussian_product(a, b).log_scale
    num = gaussian_product(a, b).density if not swap else a
    _assert_same_outcome(lambda: gaussian_division(num, b).density,
                         lambda: ref.ref_gaussian_division(num, b).density)
    if _outcome(lambda: gaussian_division(num, b)) is not NonPositiveDefiniteResult:
        assert (gaussian_division(num, b).log_scale
                == ref.ref_gaussian_division(num, b).log_scale)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       n_groups=st.integers(1, 5), size=st.integers(1, 4))
def test_per_member_weights_match_one_mixture_at_a_time(seed, dim, n_groups, size):
    rng = np.random.default_rng(seed)
    weights = rng.random((n_groups, size))
    means = 10.0 * rng.standard_normal((n_groups, size, dim))
    covs = np.array([[ref.random_spd(rng, dim) for _ in range(size)]
                     for _ in range(n_groups)])
    mean, cov = _mixture_moments(weights, means, covs)
    for g in range(n_groups):
        one_mean, one_cov = _mixture_moments(weights[g], means[g], covs[g])
        assert mean[g].tobytes() == one_mean.tobytes()
        assert cov[g].tobytes() == one_cov.tobytes()
        old_mean, old_cov = ref.ref_moment_match(weights[g], list(means[g]), list(covs[g]))
        assert mean[g].tobytes() == old_mean.tobytes()
        assert cov[g].tobytes() == old_cov.tobytes()


def _checked_matrices(monkeypatch, fn):
    """The matrices ``fn`` checks, one entry per 2-D matrix or stack member:
    every check ends in ``_factor``, the full one (the density constructor,
    ``assert_spd``, ``spd_inv``) and the package's own."""
    checked = []
    check = gaussians._factor

    def record(cov):
        cov = np.asarray(cov)
        checked.extend(m.tobytes() for m in cov.reshape((-1,) + cov.shape[-2:]))
        return check(cov)

    with monkeypatch.context() as patch:
        for module in (gaussians, filters, fusion):
            patch.setattr(module, "_factor", record)
        fn()
    return sorted(checked)


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("pair", [_no_fallback_pair, _degenerate_mixture_pair,
                                  _all_fallback_pair])
def test_every_matrix_the_loop_checks_is_checked(monkeypatch, rule, pair):
    """The kernel checks, as stack members, exactly the densities, scale-term
    covariances, gaps and pair pools the per-pair loop checks, each as often."""
    a, b = pair()
    new, old = RULES[rule]
    assert (_checked_matrices(monkeypatch, lambda: new(a, b, 0.3))
            == _checked_matrices(monkeypatch, lambda: old(a, b, 0.3)))


def test_routing_checks_every_matched_mode(monkeypatch, rng):
    state = _imm_state(rng, [0.6, 0.4])
    fed = fuse_hmd_mixture(imm_output(state), imm_output(_imm_state(rng, [0.5, 0.5])))
    assert (_checked_matrices(monkeypatch, lambda: route_feedback(state, fed, 0))
            == _checked_matrices(monkeypatch, lambda: ref.ref_route_feedback(state, fed, 0)))


def test_fused_components_are_what_the_constructor_builds():
    a, b = _degenerate_mixture_pair()
    comps = fuse_hmd_mixture(a, b, 0.5).components
    for comp in comps:
        rebuilt = GaussianDensity(comp.mean, comp.cov)
        assert _same(comp, rebuilt)
        for arr in (comp.mean, comp.cov, comp.chol):
            assert not arr.flags.writeable
    # The component stack itself is read-only, so no member can go stale.
    assert not any(arr.flags.writeable for arr in (comps.mean, comps.cov, comps.chol))


# ---------------------------------------------------------------------------
# Feedback routing


def _imm_state(rng, probs):
    ncv = MotionModel("ncv", 1.0, 0.5, 1)
    nca = MotionModel("nca", 1.0, 2.0, 1)
    dens = (ref.random_gaussian(rng, 2), ref.random_gaussian(rng, 3))
    return ImmState(dens, np.array(probs), (ncv, nca),
                    np.array([[0.9, 0.1], [0.2, 0.8]]), pad_var=0.5)


def _assert_same_routing(state, fed, operand_idx):
    new = route_feedback(state, fed, operand_idx)
    old = ref.ref_route_feedback(state, fed, operand_idx)
    assert new.mode_probs.tobytes() == old.mode_probs.tobytes()
    assert all(_same(x, y) for x, y in zip(new.densities, old.densities))
    return new


@pytest.mark.parametrize("strategy", ["naive", "gmd", "pcf", "hmd", "amd"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), w=st.sampled_from([0.3, 0.5]))
def test_routing_equals_the_per_mode_loop(strategy, seed, w):
    rng = np.random.default_rng(seed)
    locals_ = [_imm_state(rng, [0.6, 0.4]), _imm_state(rng, [0.3, 0.7])]
    fused = fuse_pair(imm_output(locals_[0]), imm_output(locals_[1]), strategy, w)
    for idx, state in enumerate(locals_):
        routed = _assert_same_routing(state, fused, idx)
        if strategy == "amd":
            # Arithmetic pooling hands each local its own modes back.
            for mine, back in zip(state.densities, routed.densities):
                assert mine.mean.tobytes() == back.mean.tobytes()
                assert mine.cov.tobytes() == back.cov.tobytes()


def test_routing_keeps_uninvolved_modes_and_mixes_group_sizes(rng):
    state = _imm_state(rng, [0.6, 0.4])
    comps = tuple(ref.random_gaussian(rng, 3) for _ in range(3))
    weights = np.array([0.5, 0.3, 0.2])
    # Only the ncv mode of operand 0 is involved: nca keeps its density.
    only_ncv = GaussianMixture(weights, comps, ("ncv|ncv", "ncv|nca", "|ncv"))
    routed = _assert_same_routing(state, only_ncv, 0)
    assert routed.densities[1].mean.tobytes() == state.densities[1].mean.tobytes()
    # Groups of two and of one component, matched in one call per size.
    mixed = GaussianMixture(weights, comps, ("ncv|ncv", "ncv|nca", "nca|ncv"))
    _assert_same_routing(state, mixed, 0)
    _assert_same_routing(state, mixed, 1)
