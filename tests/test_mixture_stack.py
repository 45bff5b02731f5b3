"""A mixture's components are one stacked density.

Evaluation, pruning, the arithmetic mean with moment matching, and powers of
a component stack must reproduce the reference copies in ``oracles.py``,
which walk the components one at a time, bit for bit. Joining densities into
a stack and indexing a stack must keep each member's bits, stay read-only and
run no new covariance check. Pruning and the mixture rules of ``fuse_pair``
take stacks of mixtures (one weight vector per member) and must give each
member what the call on that member alone, and the reference copy, give it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackfuse import (
    GaussianDensity,
    GaussianMixture,
    ImmState,
    MotionModel,
    apply_feedback,
    density_to_dict,
    fuse_amd,
    fuse_pair,
    moment_match,
    prune_mixture,
    scaled_power,
)
from trackfuse import gaussians

import oracles as ref

DIMS = st.integers(1, 6)
COUNTS = st.integers(1, 4)
SEEDS = st.integers(0, 2**32 - 1)
FIELDS = ("mean", "cov", "chol")


def _same_bits(got, want) -> bool:
    return all(np.ascontiguousarray(getattr(got, f)).tobytes()
               == np.ascontiguousarray(getattr(want, f)).tobytes() for f in FIELDS)


def _same_mixture(got, want) -> bool:
    return (got.weights.tobytes() == want.weights.tobytes() and got.tags == want.tags
            and got.components.mean.shape == want.components.mean.shape
            and _same_bits(got.components, want.components))


def _mixture(rng, count, dim, tags=None, weights=None):
    comps = [ref.random_gaussian(rng, dim) for _ in range(count)]
    if weights is None:
        weights = rng.random(count) + 0.05
    return GaussianMixture(np.asarray(weights) / np.sum(weights), comps, tags)


def _stack(densities):
    return GaussianDensity(np.stack([d.mean for d in densities]),
                           np.stack([d.cov for d in densities]))


@settings(max_examples=80, deadline=None)
@given(DIMS, COUNTS, st.integers(1, 5), st.booleans(), SEEDS)
def test_mixture_evaluation_equals_the_per_component_loop(dim, count, n_points, one_point,
                                                          seed):
    rng = np.random.default_rng(seed)
    mix = _mixture(rng, count, dim)
    x = 3.0 * rng.standard_normal(dim if one_point else (n_points, dim))
    for got, want in ((mix.pdf(x), ref.ref_mixture_pdf(mix, x)),
                      (mix.logpdf(x), ref.ref_mixture_logpdf(mix, x))):
        assert np.shape(got) == np.shape(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_mixture_evaluation_rejects_a_stack_of_mixtures(rng):
    stack = GaussianMixture(np.array([0.5, 0.5]), (_stack([ref.random_gaussian(rng, 2)] * 3),
                                                   _stack([ref.random_gaussian(rng, 2)] * 3)))
    for call in (stack.pdf, stack.logpdf):
        with pytest.raises(ValueError, match="not a stack"):
            call(np.zeros(2))


@settings(max_examples=80, deadline=None)
@given(DIMS, st.integers(2, 6), st.integers(1, 4), st.booleans(), SEEDS)
def test_prune_equals_the_per_component_loop(dim, count, target, tagged, seed):
    """Weights drawn from three values tie often; half the draws also share
    one covariance, so the trace ties too and the index decides."""
    rng = np.random.default_rng(seed)
    weights = rng.choice([0.1, 0.2, 0.3], size=count)
    tags = tuple(f"m{k}" for k in range(count)) if tagged else None
    mix = _mixture(rng, count, dim, tags, weights)
    if seed % 2:
        shared = ref.random_spd(rng, dim)
        mix = GaussianMixture(mix.weights, [GaussianDensity(rng.standard_normal(dim), shared)
                                            for _ in range(count)], tags)
    assert _same_mixture(prune_mixture(mix, target), ref.ref_prune_mixture(mix, target))


def test_prune_breaks_a_weight_tie_by_trace_as_the_loop_does():
    loose = GaussianDensity(np.zeros(2), 9.0 * np.eye(2))
    tight = GaussianDensity(np.ones(2), np.eye(2))
    mix = GaussianMixture(np.array([0.3, 0.3, 0.4]), (loose, tight, loose), ("a", "b", "c"))
    pruned = prune_mixture(mix, 2)
    assert pruned.tags == ("b", "c")
    assert _same_mixture(pruned, ref.ref_prune_mixture(mix, 2))


def _weights(rng, n, equal):
    """Equal weights, as ``fuse_many`` passes them, or random ones summing to 1."""
    if equal:
        return np.full(n, 1.0 / n)
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return weights


@settings(max_examples=80, deadline=None)
@given(DIMS, st.integers(1, 4), st.integers(1, 5), st.booleans(), SEEDS)
def test_amd_of_stacks_then_moment_match_equals_the_per_component_loop(dim, runs, n_operands,
                                                                        equal, seed):
    """scenario1's amd path: ``fuse_many`` hands ``fuse_amd`` ``[R, d]``
    stacks under equal weights, and the mixture is moment-matched."""
    rng = np.random.default_rng(seed)
    stacks = [_stack([ref.random_gaussian(rng, dim) for _ in range(runs)])
              for _ in range(n_operands)]
    weights = _weights(rng, n_operands, equal)
    got, want = fuse_amd(stacks, weights), ref.ref_fuse_amd(stacks, weights)
    assert _same_mixture(got, want)
    assert _same_bits(moment_match(got), ref.ref_stacked_moment_match(want))


@settings(max_examples=60, deadline=None)
@given(DIMS, st.lists(st.integers(0, 3), min_size=1, max_size=3), st.booleans(), SEEDS)
def test_amd_of_mixtures_and_gaussians_equals_the_per_component_loop(dim, counts, tagged,
                                                                      seed):
    """Operand count 0 is a plain Gaussian; only tagged inputs build tags."""
    rng = np.random.default_rng(seed)
    inputs = [ref.random_gaussian(rng, dim) if n == 0 else
              _mixture(rng, n, dim, ("ncv", "nca", "ncj")[:n] if tagged else None)
              for n in counts]
    weights = _weights(rng, len(inputs), equal=False)
    assert _same_mixture(fuse_amd(inputs, weights), ref.ref_fuse_amd(inputs, weights))


@settings(max_examples=80, deadline=None)
@given(DIMS, COUNTS, st.floats(0.05, 1.0), SEEDS)
def test_scaled_power_of_a_stack_equals_per_member_calls(dim, count, w, seed):
    rng = np.random.default_rng(seed)
    members = [ref.random_gaussian(rng, dim) for _ in range(count)]
    powered = scaled_power(_stack(members), w)
    for k, member in enumerate(members):
        alone = scaled_power(member, w)
        assert _same_bits(powered.density[k], alone.density)
        assert (np.float64(np.broadcast_to(powered.log_scale, count)[k]).tobytes()
                == np.float64(alone.log_scale).tobytes())


@settings(max_examples=40, deadline=None)
@given(DIMS, COUNTS, st.integers(1, 3), SEEDS)
def test_joined_and_indexed_stacks_keep_each_member_unchecked(dim, count, runs, seed):
    rng = np.random.default_rng(seed)
    members = [_stack([ref.random_gaussian(rng, dim) for _ in range(runs)]) if runs > 1
               else ref.random_gaussian(rng, dim) for _ in range(count)]
    checks = []
    original = gaussians._factor
    # Every check, the full one too, ends in ``_factor``.
    gaussians._factor = lambda cov: checks.append(cov) or original(cov)
    try:
        mix = GaussianMixture(np.full(count, 1.0 / count), members)
        comps = mix.components
        picked = [comps[..., k] for k in range(count)]
        keep = comps[..., np.arange(count)[::-1]]
    finally:
        gaussians._factor = original
    assert checks == []
    lead = (runs,) if runs > 1 else ()
    assert comps.mean.shape == lead + (count, dim)
    for k, member in enumerate(members):
        assert _same_bits(picked[k], member)
        assert _same_bits(keep[..., count - 1 - k], member)
    for density in [comps, keep] + picked:
        assert not any(getattr(density, f).flags.writeable for f in FIELDS)


def test_indexing_a_single_density_is_a_type_error():
    with pytest.raises(TypeError, match="no leading axis"):
        GaussianDensity(np.zeros(2), np.eye(2))[0]


def test_a_plain_gaussian_operand_is_a_one_component_view():
    g = GaussianDensity(np.array([1.0, 2.0]), np.diag([3.0, 4.0]))
    mix = fuse_amd([g, g], [0.5, 0.5])
    assert mix.components.mean.shape == (2, 2) and mix.tags is None
    assert all(_same_bits(mix.components[k], g) for k in range(2))


def test_mixture_weights_are_read_only_and_the_callers_stay_writable(rng):
    comps = (GaussianDensity(np.zeros(2), np.eye(2)), GaussianDensity(np.ones(2), np.eye(2)))
    caller = np.array([0.25, 0.75])
    built = GaussianMixture(caller, comps, ("ncv", "nca"))
    # Built by the constructor, or as an unchecked view by the package.
    for mix in (built, built.normalized(), prune_mixture(built, 1),
                fuse_amd([built, comps[0]], [0.5, 0.5]), fuse_pair(built, built, "amd")):
        with pytest.raises(ValueError, match="read-only"):
            mix.weights[0] = 1.0
    view = GaussianMixture._view(caller, built.components)
    caller[0] = 0.5  # neither frozen nor copied into the constructor's mixture
    assert built.weights[0] == 0.25 and view.weights[0] == 0.5


def _stack_of_mixtures(rng, runs, count, dim, tags=None):
    """``runs`` one-run mixtures under shared weights, and the mixture of
    their ``[runs, count, dim]`` component stack."""
    weights = _weights(rng, count, equal=False)
    singles = [_mixture(rng, count, dim, tags, weights) for _ in range(runs)]
    stacked = GaussianMixture(weights, _stored_stack([m.components for m in singles]), tags)
    return singles, stacked


def _stored_stack(densities):
    """The densities' stored arrays stacked on a new leading axis, unchecked."""
    return GaussianDensity._view(*(np.stack([getattr(d, f) for d in densities])
                                   for f in FIELDS))


def test_component_k_of_a_stack_of_mixtures_is_its_last_leading_axis(rng):
    singles, stacked = _stack_of_mixtures(rng, 3, 2, 2)
    for k in range(2):
        assert _same_bits(stacked.components[..., k],
                          _stored_stack([single.components[k] for single in singles]))


def _mixture_stack(singles):
    """The stack of one-run mixtures of one shape: per-member weights and
    their stored component arrays, unchecked; the first member's tags."""
    return GaussianMixture(np.stack([m.weights for m in singles]),
                           _stored_stack([m.components for m in singles]), singles[0].tags)


def _same_member(stack, r, want) -> bool:
    """Member ``r`` of a stack of mixtures has ``want``'s weights and components."""
    return (stack.weights[r].tobytes() == want.weights.tobytes()
            and all(getattr(stack.components, f)[r].tobytes()
                    == getattr(want.components, f).tobytes() for f in FIELDS))


@settings(max_examples=80, deadline=None)
@given(DIMS, st.integers(2, 6), st.integers(1, 4), st.integers(1, 5), st.booleans(), SEEDS)
def test_prune_of_a_stack_equals_per_member_calls(dim, count, target, runs, tagged, seed):
    """Each member keeps what it keeps alone, weight and trace ties included
    (weights from three values; every other seed gives all components one
    covariance); a pruned stack is untagged, since kept positions differ."""
    rng = np.random.default_rng(seed)
    tags = tuple(f"m{k}" for k in range(count)) if tagged else None
    singles = []
    for _ in range(runs):
        mix = _mixture(rng, count, dim, tags, rng.choice([0.1, 0.2, 0.3], size=count))
        if seed % 2:
            shared = ref.random_spd(rng, dim)
            mix = GaussianMixture(mix.weights, [GaussianDensity(rng.standard_normal(dim), shared)
                                                for _ in range(count)], tags)
        singles.append(mix)
    pruned = prune_mixture(_mixture_stack(singles), target)
    assert pruned.tags == (tags if count <= target else None)
    for r, single in enumerate(singles):
        alone = prune_mixture(single, target)
        assert _same_mixture(alone, ref.ref_prune_mixture(single, target))
        assert _same_member(pruned, r, alone)


RULES = {
    "naive": lambda a, b, w: ref.ref_mixture_product(a.normalized(), b.normalized()),
    "gmd": ref.ref_fuse_pcf,
    "amd": lambda a, b, w: ref.ref_fuse_amd([a, b], [w, 1.0 - w]),
    "hmd": ref.ref_fuse_hmd_mixture,
}


@pytest.mark.parametrize("rule", sorted(RULES))
@settings(max_examples=40, deadline=None)
@given(DIMS, st.tuples(COUNTS, COUNTS), st.integers(1, 5), st.sampled_from([0.3, 0.5]),
       st.booleans(), SEEDS)
def test_fuse_pair_of_mixture_stacks_equals_per_member_calls(rule, dim, counts, runs, w,
                                                             tagged, seed):
    """One ``fuse_pair`` call fuses each member of two stacks of mixtures as
    the call on that member's pair does, and as the per-pair loop does."""
    rng = np.random.default_rng(seed)
    tags = [("ncv", "nca", "ncj", "nci")[:n] if tagged else None for n in counts]
    a = [_mixture(rng, counts[0], dim, tags[0]) for _ in range(runs)]
    b = [_mixture(rng, counts[1], dim, tags[1]) for _ in range(runs)]
    fused = fuse_pair(_mixture_stack(a), _mixture_stack(b), rule, w)
    for r in range(runs):
        alone = fuse_pair(a[r], b[r], rule, w)
        assert _same_mixture(alone, RULES[rule](a[r], b[r], w))
        assert _same_member(fused, r, alone) and fused.tags == alone.tags


def _pair_members():
    """2-d mixture pairs whose hmd cross pairs fall back to their own pools:
    none, none though near the tolerance, and all."""
    from test_cross_kernel import _all_fallback_pair, _near_tolerance_pair, _no_fallback_pair
    return {"none": _no_fallback_pair(), "near": _near_tolerance_pair(),
            "all": _all_fallback_pair()}


@pytest.mark.parametrize("members", [("none", "all"), ("all", "near", "none"),
                                     ("near", "all", "all"), ("all",)])
def test_hmd_of_a_stack_takes_the_pair_pool_fallback_per_member(members):
    """Only the members whose pairs fail the gap test use their own pools."""
    pairs = _pair_members()
    a = [GaussianMixture(pairs[m][0].weights, pairs[m][0].components, ("ncv", "nca"))
         for m in members]
    b = [GaussianMixture(pairs[m][1].weights, pairs[m][1].components, ("ncv", "nca"))
         for m in members]
    fused = fuse_pair(_mixture_stack(a), _mixture_stack(b), "hmd", 0.3)
    for r, name in enumerate(members):
        seen = []
        want = ref.ref_fuse_hmd_mixture(a[r], b[r], 0.3, seen)
        assert seen == [name == "all"] * 4
        assert _same_member(fused, r, want) and fused.tags == want.tags


def test_apply_feedback_of_a_stack_of_mixtures_gives_each_run_its_components(rng):
    models = (MotionModel("ncv", dt=1.0, q=0.01, dims=2),
              MotionModel("nca", dt=1.0, q=0.001, dims=2))
    state = ImmState((ref.random_gaussian(rng, 4), ref.random_gaussian(rng, 6)),
                     np.array([0.6, 0.4]), models, np.array([[0.8, 0.2], [0.8, 0.2]]))
    singles, stacked = _stack_of_mixtures(rng, 3, 2, 6, ("nca", "ncv"))
    fed = apply_feedback(state, stacked)
    for mode in range(2):
        alone = [apply_feedback(state, single).densities[mode] for single in singles]
        assert _same_bits(fed.densities[mode], _stored_stack(alone))
    for r, single in enumerate(singles):
        assert fed.mode_probs[r].tobytes() == apply_feedback(state, single).mode_probs.tobytes()


def test_json_rejects_a_stack_of_mixtures(rng):
    _, stacked = _stack_of_mixtures(rng, 2, 2, 2)
    with pytest.raises(ValueError, match="not a stack"):
        density_to_dict(stacked)
