"""Property tests: ``assert_spd`` on a stack of covariance matrices.

The batched EKF engine checks each bank's covariances as one ``[R, d, d]``
stack where the scalar path built one ``GaussianDensity`` per run. So the
stacked check must give each member the 2-D verdict:

- a stack whose members are all valid returns, bit for bit, the factor the
  2-D check computes for each member (``np.linalg.cholesky`` of the member,
  or of its symmetric part when it is asymmetric within tolerance);
- a stack with bad members (non-finite, asymmetric beyond ``1e-9``,
  indefinite, under the pivot floor, or too large to symmetrize) raises the
  exception class ``GaussianDensity`` raises for the first bad one.

The package factors the covariances it computes, which it has symmetrized,
with ``_factor``, the checks of ``assert_spd`` but symmetry. On an exactly
symmetric stack it must give ``assert_spd``'s verdict: the same factor bit for
bit, or the error (class and message) of the first failing member alone.

``_factor`` and ``GaussianDensity._derived`` settle a stack whose smallest
squared pivot clears the floor of its largest entry with one comparison, and
test each member against its own floor otherwise. Both must reach the verdict
of the per-member floor kept in ``oracles`` (``ref_pivot_floor``,
``ref_factor``): near-floor members anywhere in the stack, a largest entry in
another member than the near-singular one, padding variances that dominate
the stack, and stacks of one or no member.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trackfuse import (
    GaussianDensity,
    NotPositiveDefinite,
    NotSymmetric,
    assert_spd,
    density_from_dict,
    spd_inv,
)
from trackfuse.filters import zero_pad
from trackfuse.gaussians import _factor

from oracles import ref_factor, ref_pivot_floor


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any exception type must agree
        return type(exc)


def _verdict(fn, *args):
    """``fn(*args)``'s shape and bits, or the class and message of what it raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - class and message must agree
        return type(exc), str(exc)
    return out.shape, out.tobytes()


def _exactly_symmetric(stack) -> bool:
    return np.array_equal(stack, stack.swapaxes(-1, -2), equal_nan=True)


def _check_factor_like_assert_spd(stack):
    members = stack.reshape((-1,) + stack.shape[-2:])
    with np.errstate(all="ignore"):
        got = _verdict(_factor, stack)
        assert got == _verdict(assert_spd, stack)
        failed = [v for v in (_verdict(_factor, m) for m in members) if isinstance(v[0], type)]
    if failed:
        assert got == failed[0]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


HALF_MAX = np.finfo(float).max / 2.0

KINDS = ("valid", "near_symmetric", "nan", "inf", "asymmetric", "indefinite",
         "pivot_floor", "huge")
SYMMETRIC_KINDS = tuple(k for k in KINDS if k not in ("near_symmetric", "asymmetric"))


def _member(draw, dim: int, kind: str) -> np.ndarray:
    root = draw(arrays(np.float64, (dim, dim),
                       elements=st.floats(-10.0, 10.0, allow_nan=False)))
    mat = root @ root.T + draw(st.floats(1e-3, 10.0)) * np.eye(dim)
    mat = 0.5 * (mat + mat.T)
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    if kind == "near_symmetric" and i != j:
        mat[i, j] += 1e-12 * abs(mat).max()
    elif kind in ("nan", "inf"):
        mat[i, j] = mat[j, i] = math.nan if kind == "nan" else draw(
            st.sampled_from([math.inf, -math.inf]))
    elif kind == "asymmetric" and i != j:
        mat[i, j] += draw(st.floats(2e-9, 1.0)) * max(1.0, abs(mat).max())
    elif kind == "indefinite":
        mat[i, i] = -draw(st.floats(0.0, 10.0)) - abs(mat).max()
    elif kind == "pivot_floor":
        # One eigenvalue straddling 1e-12 of the others, in a rotated basis.
        eig = np.full(dim, draw(st.floats(0.5, 10.0)))
        eig[i] *= draw(st.floats(0.25, 4.0)) * 1e-12
        basis, _ = np.linalg.qr(root + 25.0 * np.eye(dim))
        mat = (basis * eig) @ basis.T
    elif kind == "huge":
        # Entries so large that ``cov + cov.T`` overflows.
        mat = mat / abs(mat).max() * (draw(st.floats(0.6, 1.0)) * 1.79e308)
    return mat


@st.composite
def stacks(draw, kinds=KINDS):
    dim = draw(st.integers(1, 6))
    runs = draw(st.integers(1, 8))
    members = [_member(draw, dim, draw(st.sampled_from(kinds))) for _ in range(runs)]
    stack = np.stack(members)
    if runs % 2 == 0 and draw(st.booleans()):
        stack = stack.reshape((2, runs // 2, dim, dim))
    return stack


def _check_like_the_2d_path(stack):
    members = stack.reshape((-1,) + stack.shape[-2:])
    with np.errstate(all="ignore"):
        refs = [_outcome(GaussianDensity, np.zeros(stack.shape[-1]), m) for m in members]
        new = _outcome(assert_spd, stack)
    for member, ref in zip(members, refs):
        if abs(member).max() > HALF_MAX:
            assert ref is NotPositiveDefinite
    if _exactly_symmetric(stack):
        _check_factor_like_assert_spd(stack)
    failed = [r for r in refs if isinstance(r, type)]
    if failed:
        assert new is failed[0]
        return
    assert _same_bits(new, np.stack([r.chol for r in refs]).reshape(stack.shape))
    for member, ref in zip(members, refs):
        # The 2-D check factors an exactly symmetric member as it is.
        if (member == member.T).all():
            assert _same_bits(ref.chol, np.linalg.cholesky(member))


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_stacked_check_gives_every_member_the_2d_verdict(stack):
    _check_like_the_2d_path(stack)


@settings(max_examples=300, deadline=None)
@given(stacks(kinds=SYMMETRIC_KINDS))
def test_exactly_symmetric_stacks_get_the_2d_verdict_from_both_checks(stack):
    _check_like_the_2d_path(stack)


@settings(max_examples=100, deadline=None)
@given(stacks(kinds=("valid", "near_symmetric")))
def test_valid_stacks_return_each_members_factor(stack):
    factors = assert_spd(stack)
    members = stack.reshape((-1,) + stack.shape[-2:])
    expected = [np.linalg.cholesky(m if (m == m.T).all() else 0.5 * (m + m.T))
                for m in members]
    assert _same_bits(factors, np.stack(expected).reshape(stack.shape))
    if _exactly_symmetric(stack):
        assert _same_bits(_factor(stack), factors)


@pytest.mark.parametrize("bad, error", [
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), NotPositiveDefinite),
    (np.array([[1.0, math.inf], [math.inf, 1.0]]), NotPositiveDefinite),
    (np.array([[1.0, 1e-6], [0.0, 1.0]]), NotSymmetric),
    (np.array([[1.0, 2.0], [2.0, 1.0]]), NotPositiveDefinite),
    (np.diag([1.0, 1e-13]), NotPositiveDefinite),
    (np.diag([1.79e308, 1.7e308]), NotPositiveDefinite),
])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_one_bad_member_raises_its_own_error(bad, error, position):
    stack = np.stack([np.eye(2) * (1.0 + r) for r in range(5)])
    stack[position] = bad
    with pytest.raises(error):
        GaussianDensity(np.zeros(2), bad)
    with pytest.raises(error):
        assert_spd(stack)
    if _exactly_symmetric(bad):
        _check_factor_like_assert_spd(stack)
        with pytest.raises(error):
            _factor(stack)


def test_the_boundary_still_tests_symmetry():
    bad = [[1.0, 0.5], [0.0, 1.0]]
    for check in (lambda: GaussianDensity(np.zeros(2), bad), lambda: assert_spd(bad),
                  lambda: spd_inv(bad), lambda: density_from_dict({"mean": [0, 0], "cov": bad})):
        with pytest.raises(NotSymmetric):
            check()


def test_the_first_bad_member_decides_the_error():
    stack = np.stack([np.eye(2), np.array([[1.0, 1e-6], [0.0, 1.0]]),
                      np.array([[math.nan, 0.0], [0.0, 1.0]])])
    with pytest.raises(NotSymmetric):
        assert_spd(stack)
    with pytest.raises(NotPositiveDefinite):
        assert_spd(stack[::-1])


@pytest.mark.parametrize("shape", [(3,), (3, 2, 3), (0,)])
def test_non_square_shapes_are_rejected(shape):
    with pytest.raises(NotPositiveDefinite, match="square"):
        assert_spd(np.ones(shape))


# ---------------------------------------------------------------------------
# The pivot floor: one comparison for a passing stack, each member's own floor
# otherwise.


def _derived_chol(stack, chol):
    return GaussianDensity._derived(np.zeros(stack.shape[:-1]), stack, chol).chol


def _ref_derived_chol(stack, chol):
    ref_pivot_floor(chol, stack)
    return chol


def _check_like_the_reference_floor(stack):
    """``_factor`` gives ``ref_factor``'s bits or error, which is the error of
    the first member that fails alone; where ``stack`` factors, ``_derived`` of
    its factor passes or fails exactly as ``ref_pivot_floor`` does."""
    members = stack.reshape((-1,) + stack.shape[-2:])
    with np.errstate(all="ignore"):
        got = _verdict(_factor, stack)
        assert got == _verdict(ref_factor, stack)
        failed = [v for v in (_verdict(ref_factor, m) for m in members)
                  if isinstance(v[0], type)]
        if failed:
            assert got == failed[0]
        try:
            chol = np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            return
        assert _verdict(_derived_chol, stack, chol) == _verdict(_ref_derived_chol, stack, chol)


def _passes(fn, *args) -> bool:
    with np.errstate(all="ignore"):
        return not isinstance(_verdict(fn, *args)[0], type)


@st.composite
def scaled_stacks(draw):
    """Valid and near-floor stacks whose members are scaled by up to 1e8 either
    way, so the largest entry often sits in another member than a near-floor one."""
    stack = draw(stacks(kinds=("valid", "pivot_floor")))
    powers = draw(arrays(np.int64, stack.shape[:-2], elements=st.integers(-8, 8)))
    return stack * (10.0 ** powers)[..., None, None]


@settings(max_examples=300, deadline=None)
@given(scaled_stacks())
def test_factor_and_derived_reach_the_per_member_floor_verdict(stack):
    _check_like_the_reference_floor(stack)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 1.000001, 2.0])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_near_floor_member_gets_its_own_verdict_anywhere_in_the_stack(ratio, position):
    """Among members of variances 1 to 5, one whose small variance is
    ``ratio`` times the floor of its largest."""
    stack = np.stack([np.eye(2) * (1.0 + r) for r in range(5)])
    stack[position] = np.diag([1.0, ratio * 1e-12])
    _check_like_the_reference_floor(stack)
    _check_like_the_reference_floor(stack[position:position + 1])  # its own peak
    if ratio != 1.0:
        assert _passes(_factor, stack) == (ratio > 1.0)


@pytest.mark.parametrize("ratio", [0.5, 4.0, 1e6])
@pytest.mark.parametrize("peak_at", [0, 3])
def test_a_largest_entry_in_another_member_defers_to_each_members_floor(ratio, peak_at):
    """Member 2 has a variance ``ratio`` times its own floor. Another
    member's variances of 1e8 lift the stack's bound above it, so one
    comparison cannot settle the stack and each member faces its own floor:
    member 2 passes when ``ratio`` exceeds 1, as it does alone."""
    stack = np.stack([np.eye(3) for _ in range(5)])
    stack[2] = np.diag([1.0, 1.0, ratio * 1e-12])
    stack[peak_at] = 1e8 * np.eye(3)
    chol = np.sqrt(stack)  # the factor of a diagonal matrix
    _check_like_the_reference_floor(stack)
    assert _passes(_factor, stack) == _passes(_derived_chol, stack, chol) == (ratio > 1.0)
    if ratio > 1.0:
        assert _same_bits(_factor(stack), ref_factor(stack))


@pytest.mark.parametrize("small, pad_var, passes", [
    (1e-7, 1e4, True), (1e-7, 1e6, False), (1e-13, 1e-3, True), (1e-13, 1e2, False)])
def test_a_padded_stack_gets_the_per_member_verdict(small, pad_var, passes):
    """Padding members of variances 1 and one of variances ``small``: each
    member's floor is ``1e-12 * max(its variances, pad_var)``, so a large
    ``pad_var`` dominates the stack and lifts the small member's floor above
    it; a small one leaves the floor of the stack's largest entry (1e-12)
    above the small member's variances, but not its own floor."""
    parent = np.stack([np.eye(2), small * np.eye(2), np.eye(2)])
    track = GaussianDensity(np.zeros((3, 2)), parent)
    cov = np.zeros((3, 4, 4))
    cov[:, :2, :2] = parent
    cov[:, 2, 2] = cov[:, 3, 3] = pad_var
    chol = np.sqrt(cov)
    with np.errstate(all="ignore"):
        ref = _verdict(_ref_derived_chol, cov, chol)
        assert _verdict(lambda: zero_pad(track, 4, pad_var).chol) == ref
    assert _passes(_ref_derived_chol, cov, chol) == passes
    _check_like_the_reference_floor(cov)


@pytest.mark.parametrize("dim", [1, 2, 6])
@pytest.mark.parametrize("runs", [0, 1])
def test_stacks_of_one_or_no_member(dim, runs):
    """A zero-member stack returns an empty factor, a one-member stack its
    member's factor or its member's error (a 1x1 matrix is its own floor's
    scale, so it cannot fall below it)."""
    root = np.random.default_rng(dim).standard_normal((runs, dim, dim))
    stack = root @ root.swapaxes(-1, -2) + np.eye(dim)
    _check_like_the_reference_floor(stack)
    assert _factor(stack).shape == (runs, dim, dim)
    assert _derived_chol(stack, np.linalg.cholesky(stack)).shape == (runs, dim, dim)
    if runs and dim > 1:
        singular = np.diag(np.r_[np.ones(dim - 1), 1e-13])[None]
        _check_like_the_reference_floor(singular)
        with pytest.raises(NotPositiveDefinite, match="numerically singular"):
            _factor(singular)
