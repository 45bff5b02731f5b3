"""Tests for the randomized property-check suite."""

import pytest

from trackfuse import GaussianDensity, ScaledGaussian
from trackfuse.validation import CheckResult, run_suite


def test_suite_passes_at_reduced_strength():
    results = run_suite(trials=10, seed=3)
    assert len(results) == 7
    for res in results:
        assert isinstance(res, CheckResult)
        assert res.passed, f"{res.name}: {res.detail}"
        assert res.name
        assert res.detail


def test_suite_names_are_unique_and_stable():
    results = run_suite(trials=2, seed=0)
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    assert "product/division round trip" in names
    assert "self-fusion identity" in names


def test_suite_is_deterministic_given_seed():
    first = run_suite(trials=5, seed=11)
    second = run_suite(trials=5, seed=11)
    assert [(r.name, r.passed, r.detail) for r in first] == \
        [(r.name, r.passed, r.detail) for r in second]


def test_corrupted_division_fails_roundtrip_check():
    def bad_division(num, den):
        # Inflate the quotient covariance: the round trip can no longer
        # reproduce the dividend.
        return ScaledGaussian(0.0, GaussianDensity(num.mean, 2.0 * num.cov))

    results = run_suite(trials=5, seed=3, division_fn=bad_division)
    by_name = {r.name: r for r in results}
    assert not by_name["product/division round trip"].passed
    # The corruption is confined to the hooked check.
    others = [r for r in results if r.name != "product/division round trip"]
    assert all(r.passed for r in others)


def test_full_strength_suite_passes():
    results = run_suite(trials=200, seed=0)
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failures, failures


@pytest.mark.parametrize("trials", [0, -3])
def test_suite_rejects_fewer_than_one_trial(trials):
    """No trials would check nothing and report every check passed."""
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_suite(trials=trials)
