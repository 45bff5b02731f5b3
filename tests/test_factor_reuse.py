"""Property tests: a density validates once and reuses the factor it computed.

Each routine that now reads a density's stored Cholesky factor (``logpdf``,
``precision``, the ``scaled_power`` log-scale) is compared bit for bit with
the reference copies in ``oracles``, which validate and factor afresh on
every call. ``np.array_equal`` is the comparison, so a factor may differ only
in the sign of a zero entry (possible when mirrored entries are ``+0.0`` and
``-0.0``).
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trackfuse import (
    GaussianDensity,
    NotPositiveDefinite,
    NotSymmetric,
    gaussian_division,
    gaussian_product,
    scaled_power,
)
from trackfuse.gaussians import assert_spd, spd_inv, symmetrize

from oracles import (
    random_gaussian,
    ref_assert_spd,
    ref_logpdf,
    ref_scaled_power_log_scale,
    ref_spd_inv,
)

_SPD_ERRORS = (NotSymmetric, NotPositiveDefinite)
_HALF_MAX = np.finfo(float).max / 2.0


@st.composite
def matrices(draw):
    """Square matrices around the edges of what ``assert_spd`` accepts.

    - ``spd``: well-conditioned SPD;
    - ``floor``: smallest eigenvalue straddling the ``1e-12`` relative pivot
      floor, either diagonal (exactly symmetric) or in a rotated basis
      (symmetric only up to round-off);
    - ``asymmetric``: one entry off by 0.25-4 times the ``1e-9`` symmetry
      tolerance;
    - ``indefinite``: a Gram matrix shifted down by up to 5;
    - ``raw``: arbitrary entries.
    """
    dim = draw(st.integers(1, 6))
    root = draw(arrays(np.float64, (dim, dim),
                       elements=st.floats(-10.0, 10.0, allow_nan=False)))
    kind = draw(st.sampled_from(("spd", "floor", "asymmetric", "indefinite", "raw")))
    gram = root @ root.T
    if kind == "spd":
        return gram + draw(st.floats(1e-3, 10.0)) * np.eye(dim)
    if kind == "floor":
        eig = np.full(dim, draw(st.floats(0.5, 10.0)))
        eig[-1] = draw(st.floats(0.25, 4.0)) * 1e-12 * eig[0]
        if not draw(st.booleans()):
            return np.diag(eig)
        basis, _ = np.linalg.qr(root + 25.0 * np.eye(dim))
        return (basis * eig) @ basis.T
    if kind == "asymmetric":
        cov = gram + np.eye(dim)
        if dim > 1:
            i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2,
                                 unique=True))
            cov[i, j] += draw(st.floats(0.25, 4.0)) * 1e-9 * max(1.0, np.max(np.abs(cov)))
        return cov
    if kind == "indefinite":
        return gram - draw(st.floats(0.0, 5.0)) * np.eye(dim)
    return root


def _outcome(fn, mat):
    """``fn(mat)``, or the type of the exception it raised."""
    try:
        return fn(mat)
    except Exception as exc:  # noqa: BLE001 - any exception type must agree
        return type(exc)


def _same_outcome(new, ref) -> bool:
    if isinstance(ref, type) or isinstance(new, type):
        return new is ref
    return np.array_equal(new, ref, equal_nan=True)


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_assert_spd_accepts_and_rejects_like_the_reference(cov):
    assert _same_outcome(_outcome(assert_spd, cov), _outcome(ref_assert_spd, cov))
    assert _same_outcome(_outcome(spd_inv, cov), _outcome(ref_spd_inv, cov))


@pytest.mark.parametrize("cov", [
    np.zeros((0, 0)),
    np.array([[np.nan]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[np.inf]]),
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
    np.array([[1.0, -0.0], [0.0, 1.0]]),
    np.array([[-0.0]]),
    np.diag([1.7e308, 1.7e308]),
    np.array([[1e308, 9e307], [9e307, 1e308]]),
    np.diag([5e-324, 5e-324]),
], ids=["empty", "nan", "nan-offdiag", "inf", "inf-offdiag", "signed-zeros",
        "negative-zero", "near-max", "overflowing-sum", "subnormal"])
def test_assert_spd_agrees_with_the_reference_on_edge_values(cov):
    with np.errstate(all="ignore"):
        outcome = _outcome(assert_spd, cov)
        if not cov.size:
            # The reference dies in numpy's empty reduction; the check
            # rejects the shape.
            assert outcome is NotPositiveDefinite
        elif np.isnan(cov).any() or (abs(cov) > _HALF_MAX).any():
            # The reference accepts NaN entries, because every comparison
            # with NaN is false, and entries above half the float maximum,
            # whose symmetric part overflows to an infinite factor; the check
            # rejects both.
            assert outcome is NotPositiveDefinite
            with pytest.raises(NotPositiveDefinite):
                GaussianDensity(np.zeros(cov.shape[0]), cov)
        else:
            assert _same_outcome(outcome, _outcome(ref_assert_spd, cov))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_density_reuses_its_factor_bit_for_bit(cov, w, seed):
    dim = cov.shape[0]
    rng = np.random.default_rng(seed)
    mean = 5.0 * rng.standard_normal(dim)
    if isinstance(_outcome(ref_assert_spd, cov), type):
        with pytest.raises(_SPD_ERRORS):
            GaussianDensity(mean, cov)
        return
    caller_mean, caller_cov = mean.copy(), cov.copy()
    d = GaussianDensity(caller_mean, caller_cov)

    assert np.array_equal(d.cov, symmetrize(cov))
    assert np.array_equal(d.chol, ref_assert_spd(cov))
    assert np.array_equal(d.precision, ref_spd_inv(d.cov))
    assert d.precision is d.precision
    pts = mean + rng.standard_normal((5, dim))
    assert np.array_equal(d.logpdf(pts), ref_logpdf(mean, d.cov, pts))
    assert scaled_power(d, w).log_scale == ref_scaled_power_log_scale(d.cov, w)

    for stored in (d.cov, d.chol, d.precision):
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        d.mean[0] = 1.0
    # The caller's own arrays are neither frozen nor shared.
    caller_mean[0] += 1.0
    caller_cov[0, 0] += 1.0
    assert np.array_equal(d.mean, mean)
    assert np.array_equal(d.cov, symmetrize(cov))


def test_copies_and_unpickled_densities_stay_read_only(rng):
    d = GaussianDensity(rng.standard_normal(3), np.diag([1.0, 2.0, 3.0]))
    for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert np.array_equal(clone.mean, d.mean)
        assert np.array_equal(clone.cov, d.cov) and np.array_equal(clone.chol, d.chol)
        for stored in (clone.cov, clone.chol, clone.precision):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            clone.mean[0] = 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_scale_terms_equal_the_log_density_of_a_fresh_density(dim, seed):
    """Product and division scales are computed from the factor of the
    checked covariance, without building a density of it, and keep the bits
    of the log density such a density would return."""
    rng = np.random.default_rng(seed)
    a, b = random_gaussian(rng, dim), random_gaussian(rng, dim)
    prod = gaussian_product(a, b)
    assert prod.log_scale == float(ref_logpdf(a.mean, a.cov + b.cov, b.mean[None])[0])
    div = gaussian_division(prod.density, a)
    quot = div.density
    assert div.log_scale == -float(ref_logpdf(quot.mean, quot.cov + a.cov, a.mean[None])[0])
