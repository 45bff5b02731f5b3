"""One code path for one density and for a stack of them, bit for bit.

The EKF steps, the Gaussian fusion rules, products, divisions, moment
matching and NEES take a ``GaussianDensity`` that is one Gaussian or a stack
over runs. For one density each must give the bytes of the reference copy of
the one-density code in ``oracles``; for a stack, every member must get the
bytes that member gets alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackfuse import (
    GaussianDensity,
    GaussianMixture,
    NotPositiveDefinite,
    NotSymmetric,
    compute_nees,
    density_to_dict,
    ekf_predict,
    ekf_update,
    ekf_update_with_loglik,
    fuse_gmd,
    fuse_hmd,
    fuse_hmd_recursive,
    fuse_many,
    gaussian_division,
    gaussian_product,
    hmd_diagnostics,
    moment_match,
)
from trackfuse.fusion import _hmd_pair

from oracles import (
    LinearSensor,
    StubMotion,
    random_gaussian,
    random_spd,
    ref_compute_nees,
    ref_ekf_predict,
    ref_ekf_update_with_loglik,
    ref_fuse_gmd,
    ref_fuse_hmd_recursive,
    ref_fuse_many,
    ref_gaussian_division,
    ref_gaussian_product,
    ref_hmd_diagnostics,
    ref_hmd_pair,
    ref_moment_match,
)

DIMS = st.integers(1, 6)
RUNS = st.integers(1, 4)
SEEDS = st.integers(0, 2**32 - 1)


def _stack(densities):
    return GaussianDensity(np.stack([d.mean for d in densities]),
                           np.stack([d.cov for d in densities]))


def _bytes(arr):
    return np.ascontiguousarray(arr).tobytes()


def _assert_same(got, want, r=None):
    """``got`` (member ``r`` of a stack, if given) has ``want``'s bytes."""
    for g, w in ((got.mean, want.mean), (got.cov, want.cov), (got.chol, want.chol)):
        g = g if r is None else g[r]
        assert g.shape == w.shape and _bytes(g) == _bytes(w)


def _assert_same_scalar(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _matched(mixture):
    return GaussianDensity(*ref_moment_match(mixture.weights,
                                             [c.mean for c in mixture.components],
                                             [c.cov for c in mixture.components]))


@settings(max_examples=60, deadline=None)
@given(DIMS, RUNS, st.integers(1, 3), st.booleans(), SEEDS)
def test_ekf_steps_equal_the_one_density_copies(dim, runs, meas_dim, angle, seed):
    rng = np.random.default_rng(seed)
    members = [random_gaussian(rng, dim) for _ in range(runs)]
    motion = StubMotion(np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)),
                        random_spd(rng, dim, 0.5))
    observed = int(rng.integers(1, dim + 1))
    sensor = LinearSensor(rng.standard_normal((meas_dim, observed)), random_spd(rng, meas_dim),
                          angle_indices=(0,) if angle else ())
    z = 3.0 * rng.standard_normal((runs, meas_dim))

    predicted = ekf_predict(_stack(members), motion)
    updated, logliks = ekf_update_with_loglik(predicted, sensor, z)
    assert logliks.shape == (runs,)
    _assert_same(ekf_update(predicted, sensor, z), updated)
    for r, member in enumerate(members):
        want = ref_ekf_predict(member, motion)
        one = ekf_predict(member, motion)
        _assert_same(one, want)
        _assert_same(predicted, want, r)
        want_u, want_ll = ref_ekf_update_with_loglik(want, sensor, z[r])
        one_u, one_ll = ekf_update_with_loglik(one, sensor, z[r])
        assert type(one_ll) is float
        _assert_same(one_u, want_u)
        _assert_same(ekf_update(one, sensor, z[r]), want_u)
        _assert_same_scalar(one_ll, want_ll)
        _assert_same(updated, want_u, r)
        _assert_same_scalar(logliks[r], want_ll)


@settings(max_examples=60, deadline=None)
@given(DIMS, st.integers(1, 5), st.sampled_from(["naive", "gmd", "amd", "hmd"]), SEEDS)
def test_fuse_many_of_one_density_equals_the_copy(dim, n_operands, strategy, seed):
    rng = np.random.default_rng(seed)
    operands = [random_gaussian(rng, dim) for _ in range(n_operands)]
    weights = rng.random(n_operands) + 0.1
    for w in (None, weights / weights.sum()):
        got = fuse_many(operands, strategy, w)
        want = ref_fuse_many(operands, strategy, w)
        if isinstance(want, GaussianMixture):
            assert _bytes(got.weights) == _bytes(want.weights)
            got, want = moment_match(got), _matched(want)
        _assert_same(got, want)


@settings(max_examples=60, deadline=None)
@given(DIMS, RUNS, st.integers(2, 5), SEEDS)
def test_weighted_rules_equal_the_copies_for_one_density_and_each_member(
        dim, runs, n_operands, seed):
    rng = np.random.default_rng(seed)
    operands = [[random_gaussian(rng, dim) for _ in range(runs)] for _ in range(n_operands)]
    stacks = [_stack(op) for op in operands]
    weights = rng.random(n_operands) + 0.1
    weights /= weights.sum()
    w = float(rng.choice([0.0, 0.3, 0.5, 1.0, rng.random()]))
    recursive = fuse_hmd_recursive(stacks, weights)
    gmd = fuse_gmd(stacks[0], stacks[1], w)
    pair = _hmd_pair(stacks[0], stacks[1], w)
    for r in range(runs):
        ops = [op[r] for op in operands]
        want = ref_fuse_hmd_recursive(ops, weights)
        _assert_same(fuse_hmd_recursive(ops, weights), want)
        _assert_same(recursive, want, r)
        want = ref_fuse_gmd(ops[0], ops[1], w)
        _assert_same(fuse_gmd(ops[0], ops[1], w), want)
        _assert_same(gmd, want, r)
        want = ref_hmd_pair(ops[0], ops[1], w)
        _assert_same(_hmd_pair(ops[0], ops[1], w), want)
        _assert_same(pair, want, r)


@settings(max_examples=60, deadline=None)
@given(DIMS, st.floats(0.0, 1.0), SEEDS)
def test_hmd_pair_diagnostics_equal_the_copy(dim, v, seed):
    rng = np.random.default_rng(seed)
    a, b = random_gaussian(rng, dim), random_gaussian(rng, dim)
    # A nested share v reaches _hmd_pair as drawn; the public rules see 1 - v.
    _assert_same(_hmd_pair(a, b, v), ref_hmd_pair(a, b, v))
    w = 1.0 - v
    _assert_same(fuse_hmd(a, b, w), ref_hmd_pair(a, b, 1.0 - w))
    assert hmd_diagnostics(a, b, w) == ref_hmd_diagnostics(a, b, 1.0 - w)


@settings(max_examples=60, deadline=None)
@given(DIMS, RUNS, SEEDS)
def test_products_divisions_and_matches_of_stacks_equal_each_member(dim, runs, seed):
    rng = np.random.default_rng(seed)
    a = [random_gaussian(rng, dim) for _ in range(runs)]
    b = [random_gaussian(rng, dim) for _ in range(runs)]
    wide = [GaussianDensity(rng.standard_normal(dim), d.cov + random_spd(rng, dim)) for d in a]
    product = gaussian_product(_stack(a), _stack(b))
    quotient = gaussian_division(_stack(a), _stack(wide))
    weights = rng.random(2) + 0.1
    matched = moment_match(GaussianMixture(weights, (_stack(a), _stack(b))))
    for r in range(runs):
        for got, want in ((product, ref_gaussian_product(a[r], b[r])),
                          (quotient, ref_gaussian_division(a[r], wide[r]))):
            _assert_same(got.density, want.density, r)
            _assert_same_scalar(got.log_scale[r], want.log_scale)
        one = gaussian_product(a[r], b[r])
        assert type(one.log_scale) is float
        _assert_same_scalar(one.log_scale, ref_gaussian_product(a[r], b[r]).log_scale)
        want = _matched(GaussianMixture(weights, (a[r], b[r])))
        _assert_same(matched, want, r)
        _assert_same(moment_match(GaussianMixture(weights, (a[r], b[r]))), want)


@settings(max_examples=60, deadline=None)
@given(DIMS, RUNS, st.integers(0, 3), SEEDS)
def test_nees_equals_the_copy_for_one_density_and_each_member(dim, runs, extra, seed):
    rng = np.random.default_rng(seed)
    members = [random_gaussian(rng, dim) for _ in range(runs)]
    truth = 5.0 * rng.standard_normal((runs, dim + extra))
    stacked = compute_nees(_stack(members), truth)
    for r, member in enumerate(members):
        want = ref_compute_nees(member, truth[r])
        got = compute_nees(member, truth[r])
        assert type(got) is float
        _assert_same_scalar(got, want)
        _assert_same_scalar(stacked[r], want)
    mixture = GaussianMixture(np.array([0.3, 0.7]), (members[0], random_gaussian(rng, dim)))
    _assert_same_scalar(compute_nees(mixture, truth[0]), ref_compute_nees(mixture, truth[0]))


def test_a_stack_checks_each_member_like_a_density_of_its_own():
    good = np.eye(2)
    for bad, error in (([[1.0, 2.0], [2.0, 1.0]], NotPositiveDefinite),
                       ([[1.0, 0.5], [0.0, 1.0]], NotSymmetric)):
        with pytest.raises(error):
            GaussianDensity(np.zeros(2), bad)
        with pytest.raises(error):
            GaussianDensity(np.zeros((3, 2)), np.stack([good, bad, good]))
    with pytest.raises(ValueError, match="covariance shape"):
        GaussianDensity(np.zeros((3, 2)), np.stack([good, good]))


def test_one_density_methods_reject_a_stack():
    stack = GaussianDensity(np.zeros((2, 3)), np.stack([np.eye(3), 2.0 * np.eye(3)]))
    assert stack.dim == 3
    for call in (lambda: stack.logpdf(np.zeros(3)), lambda: stack.pdf(np.zeros(3)),
                 lambda: density_to_dict(stack)):
        with pytest.raises(ValueError, match="not a stack"):
            call()
