"""Property tests: the IMM cycle on stacked arrays and derived factors.

``moment_match`` and ``imm_step`` mix stacked means and covariances instead
of building a mixture per destination mode, ``imm_step`` predicts and
updates all modes as one zero-padded stack, and ``zero_pad`` and
``truncate_state`` densities derive their Cholesky factor from the parent's
instead of factoring again. Each is compared with the reference copies of
the old routines in ``oracles``:

- moment matching and the densities and mode probabilities ``imm_step``
  returns agree bit for bit (``tobytes``, so even the sign of a zero counts),
  and the padded stack a stepped state carries is the one padding its modes
  gives; where the padded stack fails ``zero_pad``'s pivot floor, the step
  raises one cycle before the reference's next padding would;
- a state is built exactly when padding each of its modes passes, where the
  reference cycle's first padding would raise; every state holds its modes
  only as that one padded stack;
- a derived density has the same mean and covariance bits as the old one, its
  factor is exactly the parent's leading block or ``blockdiag(parent,
  sqrt(pad_var) I)`` and reproduces the covariance, and a padded one is
  accepted or rejected exactly when the public constructor would accept or
  reject it (a truncation is never rejected; a dimension below 1 raises);
- a truncated stack gives each member the bits the member gets alone;
- a stack of IMM trackers (one member per run) steps, outputs, routes and
  applies feedback member by member: each member gets the bits it gets
  alone and that the reference copies give it, the zero-weight feedback
  rule included where only some members hit it.

None of this depends on the platform's LAPACK. Whether its factorization of
the padded or truncated matrix has the same bits as the derived factor does;
``test_golden_digests.py`` checks that on the platform the digests were
recorded on.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trackfuse import (
    GaussianDensity,
    GaussianMixture,
    ImmState,
    ModeLikelihoodDegenerate,
    MotionModel,
    NotPositiveDefinite,
    apply_feedback,
    bearing_sensor,
    fuse_pair,
    imm_output,
    imm_step,
    moment_match,
    route_feedback,
    truncate_state,
    zero_pad,
)
from trackfuse.gaussians import _joined

from oracles import (
    LinearSensor,
    random_gaussian,
    ref_imm_step,
    ref_moment_match,
    ref_route_feedback,
    ref_truncate_state,
    ref_zero_pad,
)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_density(new, ref) -> bool:
    return (_same_bits(new.mean, ref.mean) and _same_bits(new.cov, ref.cov)
            and _same_bits(new.chol, ref.chol))


def _same_member(stack, r, ref) -> bool:
    """Member ``r`` of ``stack`` has ``ref``'s mean, covariance and factor bits."""
    return (_same_bits(stack.mean[r], ref.mean) and _same_bits(stack.cov[r], ref.cov)
            and _same_bits(stack.chol[r], ref.chol))


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any exception type must agree
        return type(exc)


def _same_derived(new, ref, chol) -> bool:
    """``new`` has ``ref``'s mean and covariance bits and the factor ``chol``,
    which reproduces the covariance to round-off; all its arrays are read-only."""
    scale = np.finfo(float).eps * new.dim * new.cov.diagonal().max()
    return (_same_bits(new.mean, ref.mean) and _same_bits(new.cov, ref.cov)
            and _same_bits(new.chol, chol)
            and np.allclose(chol @ chol.T, new.cov, rtol=0.0, atol=8.0 * scale)
            and not any(a.flags.writeable for a in (new.mean, new.cov, new.chol)))


@st.composite
def spd_matrices(draw, dim):
    """SPD matrices of size ``dim``: well conditioned, or with one eigenvalue
    straddling the ``1e-12`` relative pivot floor (exactly diagonal or in a
    rotated basis)."""
    root = draw(arrays(np.float64, (dim, dim),
                       elements=st.floats(-10.0, 10.0, allow_nan=False)))
    if draw(st.booleans()):
        return root @ root.T + draw(st.floats(1e-3, 10.0)) * np.eye(dim)
    eig = np.full(dim, draw(st.floats(0.5, 10.0)))
    eig[draw(st.integers(0, dim - 1))] = draw(st.floats(0.25, 4.0)) * 1e-12 * eig[0]
    if draw(st.booleans()):
        return np.diag(eig)
    basis, _ = np.linalg.qr(root + 25.0 * np.eye(dim))
    return (basis * eig) @ basis.T


@st.composite
def densities(draw, dim):
    cov = draw(spd_matrices(dim))
    mean = draw(arrays(np.float64, dim, elements=st.floats(-100.0, 100.0)))
    try:
        return GaussianDensity(mean, cov)
    except NotPositiveDefinite:  # rounded below the pivot floor
        assume(False)


# Padding variances from the tiny to the huge, around the pivot floor, and
# invalid ones.
PAD_VARS = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(5e-324, 1.7e308),
    st.floats(0.25, 4.0).map(lambda f: f * 1e-12),
    st.floats(0.25, 4.0).map(lambda f: f * 1e12),
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(densities), st.integers(0, 3), PAD_VARS)
def test_zero_pad_derives_the_factor_a_fresh_check_would_compute(track, extra, pad_var):
    target = track.dim + extra
    with np.errstate(all="ignore"):
        new = _outcome(zero_pad, track, target, pad_var)
        ref = _outcome(ref_zero_pad, track, target, pad_var)
    if isinstance(ref, type):
        assert new is ref
        return
    if extra == 0:
        assert new is track
        return
    chol = np.zeros((target, target))
    chol[:track.dim, :track.dim] = track.chol
    chol[track.dim:, track.dim:] = np.sqrt(pad_var) * np.eye(extra)
    assert _same_derived(new, ref, chol)


@st.composite
def truncations(draw):
    """A density, a truncation dimension (possibly below 1, so invalid), and
    up to three more densities of the same dimension to stack with it."""
    track = draw(st.integers(1, 6).flatmap(densities))
    dim = draw(st.integers(-track.dim, track.dim))
    others = draw(st.lists(densities(track.dim), max_size=3))
    return track, dim, others


@settings(max_examples=300, deadline=None)
@given(truncations())
def test_truncate_and_leading_marginal_take_the_leading_factor_block(case):
    track, dim, others = case
    new = _outcome(truncate_state, track, dim)
    ref = _outcome(ref_truncate_state, track, dim)
    if isinstance(ref, type):
        assert new is ref is ValueError
        assert not 1 <= dim <= track.dim
    elif dim == track.dim:
        assert new is track
    else:
        assert _same_derived(new, ref, track.chol[:dim, :dim])
    # A stack gives each member what the member gets alone.
    members = [track] + others
    stack = GaussianDensity(np.stack([m.mean for m in members]),
                            np.stack([m.cov for m in members]))
    new = _outcome(truncate_state, stack, dim)
    alone = [_outcome(truncate_state, m, dim) for m in members]
    if any(isinstance(a, type) for a in alone):
        assert new is next(a for a in alone if isinstance(a, type))
    elif dim == track.dim:
        assert new is stack
    else:
        assert all(_same_member(new, r, a) for r, a in enumerate(alone))
        assert not any(a.flags.writeable for a in (new.mean, new.cov, new.chol))


@pytest.mark.parametrize("pad_var, accepted", [
    (1.0, True),
    (1e-13, False),       # below the floor of the parent's largest variance
    (1e-11, True),
    (1e11, True),
    (1e13, False),        # raises the floor above the parent's smallest pivot
    (0.0, False),
    (-1.0, False),
    (math.nan, False),
    (math.inf, False),
])
def test_zero_pad_pivot_floor_edges(pad_var, accepted):
    track = GaussianDensity(np.zeros(2), np.diag([1.0, 4.0]) / 4.0)
    with np.errstate(all="ignore"):
        ref = _outcome(ref_zero_pad, track, 4, pad_var)
        new = _outcome(zero_pad, track, 4, pad_var)
    assert isinstance(ref, GaussianDensity) == accepted
    if accepted:
        assert _same_derived(new, ref, np.diag(np.sqrt([0.25, 1.0, pad_var, pad_var])))
    else:
        assert new is ref


@st.composite
def mixtures(draw, n_components):
    dim = draw(st.integers(1, 6))
    comps = tuple(draw(densities(dim)) for _ in range(n_components))
    weights = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
        min_size=n_components, max_size=n_components)))
    if not weights.sum() > 0.0:
        weights[draw(st.integers(0, n_components - 1))] = 1.0
    return GaussianMixture(weights, comps)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 4]).flatmap(mixtures))
def test_moment_match_equals_the_per_component_loop(mix):
    new = _outcome(moment_match, mix)
    mean, cov = ref_moment_match(mix.weights, [c.mean for c in mix.components],
                                 [c.cov for c in mix.components])
    ref = _outcome(GaussianDensity, mean, cov)
    if isinstance(ref, type):
        assert new is ref
        return
    assert _same_density(new, ref)


def test_moment_match_rejects_zero_total_weight():
    comp = GaussianDensity(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="zero total weight"):
        moment_match(GaussianMixture(np.zeros(2), (comp, comp)))


def _distribution(draw, n):
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    raw[draw(st.integers(0, n - 1))] += 0.05
    return raw / raw.sum()


@st.composite
def imm_cases(draw, pad_vars=st.floats(1e-2, 1e2)):
    """The constructor arguments of a two- or three-mode IMM state (NCV and
    NCA, possibly of different dimension), a sensor and a few measurements.
    The test builds the state (see :func:`_built`): its padding may fail.
    The transition is sometimes Fortran-ordered: ``imm_step``'s mixing
    weights must come out C-contiguous from either layout, or numpy's matmul
    leaves BLAS and a mixed mean gets other bits than the per-mode cycle's."""
    spatial = draw(st.integers(1, 2))
    kinds = draw(st.lists(st.sampled_from(["ncv", "nca"]), min_size=2, max_size=3))
    models = tuple(MotionModel(k, dt=draw(st.floats(0.5, 2.0)),
                               q=draw(st.floats(1e-3, 1.0)), dims=spatial)
                   for k in kinds)
    dens = tuple(draw(densities(m.state_dim)) for m in models)
    n = len(models)
    transition = np.stack([_distribution(draw, n) for _ in range(n)])
    if draw(st.booleans()):
        transition = np.asfortranarray(transition)
    args = (dens, _distribution(draw, n), models, transition, draw(pad_vars))
    if spatial == 1:
        sensor = LinearSensor(np.array([[1.0]]), np.array([[draw(st.floats(0.1, 10.0))]]))
    else:
        sensor = bearing_sensor([draw(st.floats(-500.0, 500.0)), -300.0],
                                sigma_bearing=np.deg2rad(draw(st.floats(0.5, 5.0))))
    truth = dens[0].mean[:spatial]
    zs = [np.atleast_1d(sensor.measure(truth + draw(st.floats(-5.0, 5.0))))
          for _ in range(draw(st.integers(1, 4)))]
    return args, sensor, zs


def _built(densities, mode_probs, models, transition, pad_var):
    """``ImmState(...)``, or the type of the exception it raised. It raises
    :class:`NotPositiveDefinite` exactly when padding some mode with the
    reference ``ref_zero_pad`` fails, which is where the reference cycle's
    first padding raises, and builds the state otherwise."""
    state = _outcome(ImmState, densities, mode_probs, models, transition, pad_var)
    top = max(m.state_dim for m in models)
    with np.errstate(all="ignore"):
        fails = any(_outcome(ref_zero_pad, d, top, pad_var) is NotPositiveDefinite
                    for d in densities)
    assert state is NotPositiveDefinite if fails else isinstance(state, ImmState)
    return state


def _fails_one_cycle_early(new, ref, state) -> bool:
    """``imm_step`` raised :class:`NotPositiveDefinite` where the reference
    cycle passed, because the padding of a mode it returned fails
    ``zero_pad``'s pivot floor, as the reference's next cycle would find."""
    if new is not NotPositiveDefinite or isinstance(ref, type):
        return False
    with np.errstate(all="ignore"):
        return any(_outcome(ref_zero_pad, d, state.max_dim, state.pad_var)
                   is NotPositiveDefinite for d in ref[0])


@settings(max_examples=100, deadline=None)
@given(imm_cases())
def test_imm_step_equals_the_mixture_per_mode_cycle(case):
    args, sensor, zs = case
    state = _built(*args)
    if isinstance(state, type):
        return
    for z in zs:
        with np.errstate(all="ignore"):
            ref = _outcome(ref_imm_step, state, sensor, z)
            new = _outcome(imm_step, state, sensor, z)
        if isinstance(ref, type) or isinstance(new, type):
            assert new is ref or _fails_one_cycle_early(new, ref, state)
            return
        ref_densities, ref_probs = ref
        assert _same_bits(new.mode_probs, ref_probs)
        assert all(_same_density(a, b) for a, b in zip(new.densities, ref_densities))
        assert new.models is state.models and new.transition is state.transition
        assert new.pad_var == state.pad_var
        state = new


# ---------------------------------------------------------------------------
# Stacks of IMM trackers: one member per Monte Carlo run, sharing the models,
# transition and padding variance.


def _stored_stack(densities):
    """The densities' stored arrays stacked on a new leading axis, unchecked."""
    return GaussianDensity._view(*(np.stack([getattr(d, f) for d in densities])
                                   for f in ("mean", "cov", "chol")))


def _stack_of(cases):
    """One ``ImmState`` built from its members' constructor arguments (of
    one model set): each mode's member densities stacked, unchecked."""
    dens, probs, *shared = zip(*cases)
    return ImmState(tuple(_stored_stack(mode) for mode in zip(*dens)), np.stack(probs),
                    *(field[0] for field in shared))


def _state_stack(states):
    """One ``ImmState`` holding ``states`` (of one model set) as its members."""
    return _stack_of([(s.densities, s.mode_probs, s.models, s.transition, s.pad_var)
                      for s in states])


def _same_state_member(stack, r, state) -> bool:
    return (_same_bits(stack.mode_probs[r], state.mode_probs)
            and all(_same_member(a, r, b) for a, b in zip(stack.densities, state.densities)))


@st.composite
def imm_stacks(draw):
    """``imm_cases`` with the constructor arguments of 1-5 trackers that
    share the models, transition and a ``pad_var`` from 1e-3 to 1e3, and one
    measurement per tracker and step."""
    (dens, probs, models, transition, pad_var), sensor, _ = draw(
        imm_cases(st.floats(1e-3, 1e3)))
    cases = [(dens, probs, models, transition, pad_var)] + [
        (tuple(draw(densities(m.state_dim)) for m in models),
         _distribution(draw, len(models)), models, transition, pad_var)
        for _ in range(draw(st.integers(0, 4)))]
    truth = [c[0][0].mean[:sensor.spatial_dims] for c in cases]
    zs = [np.stack([np.atleast_1d(sensor.measure(t + draw(st.floats(-5.0, 5.0))))
                    for t in truth]) for _ in range(draw(st.integers(1, 3)))]
    return cases, sensor, zs


def _fresh_padding(state):
    """What padding the state's own mode densities afresh with ``zero_pad`` gives."""
    return _joined([zero_pad(d, state.max_dim, state.pad_var) for d in state.densities],
                   np.stack)


@settings(max_examples=100, deadline=None)
@given(imm_stacks())
def test_imm_step_of_a_stack_equals_per_member_calls(case):
    """With 1-5 members and padding variances from 1e-3 to 1e3, each member
    steps as it steps alone and as the per-mode cycle steps it; its mixture
    output is the one it outputs alone, and the padded stack the stepped
    state carries into the next cycle is, bit for bit, the one padding its
    modes afresh gives. If members fail, the stack raises what one of them
    raises alone, and the per-mode cycle raises that too, or passes and its
    next padding fails. A stack whose member's padding fails is not built,
    as that member is not."""
    cases, sensor, zs = case
    members = [_built(*args) for args in cases]
    stack = _outcome(_stack_of, cases)
    if any(isinstance(m, type) for m in members):
        assert stack is NotPositiveDefinite
        return
    for z in zs:
        with np.errstate(all="ignore"):
            new = _outcome(imm_step, stack, sensor, z)
            alone = [_outcome(imm_step, m, sensor, z[r]) for r, m in enumerate(members)]
            refs = [_outcome(ref_imm_step, m, sensor, z[r]) for r, m in enumerate(members)]
        if any(isinstance(a, type) for a in alone):
            assert new in [a for a in alone if isinstance(a, type)]
            assert all(a is ref or _fails_one_cycle_early(a, ref, m)
                       for a, ref, m in zip(alone, refs, members) if isinstance(a, type))
            return
        for r, (one, (ref_densities, ref_probs)) in enumerate(zip(alone, refs)):
            assert _same_state_member(new, r, one)
            assert _same_bits(one.mode_probs, ref_probs)
            assert all(_same_density(a, b) for a, b in zip(one.densities, ref_densities))
        assert _same_density(new.modes, _fresh_padding(new))
        out = imm_output(new)
        assert out.tags == tuple(m.kind for m in stack.models)
        for r, one in enumerate(alone):
            single = imm_output(one)
            assert _same_bits(out.weights[r], single.weights)
            assert _same_member(out.components, r, single.components)
        stack, members = new, alone


@pytest.mark.parametrize("n_modes", [3, 4])
def test_mixing_weights_do_not_depend_on_the_stack_size(n_modes):
    """With three or four modes, each of five members mixes with the bits of
    the 1-D product ``transition.T @ mode_probs`` it gets alone, so a
    member's report does not depend on which other runs share its stack.
    One ``[R, M] @ [M, M]`` product gives other bits for some members under
    some BLAS kernels: for three modes under OpenBLAS's Haswell kernels, for
    four under its SkylakeX ones too."""
    rng = np.random.default_rng(3)
    models = (MotionModel("ncv", 1.0, 0.5, 1), MotionModel("nca", 1.0, 2.0, 1),
              MotionModel("ncv", 1.0, 4.0, 1), MotionModel("nca", 1.0, 0.1, 1))[:n_modes]
    raw = rng.uniform(0.05, 1.0, (n_modes, n_modes))
    transition = raw / raw.sum(axis=1, keepdims=True)
    members = []
    for _ in range(5):
        probs = rng.uniform(0.05, 1.0, n_modes)
        members.append(ImmState(tuple(random_gaussian(rng, m.state_dim) for m in models),
                                probs / probs.sum(), models, transition, pad_var=0.5))
    sensor = LinearSensor(np.array([[1.0]]), np.array([[0.5]]))
    stack = _state_stack(members)
    for z in rng.normal(0.0, 2.0, (4, 5, 1)):
        stack = imm_step(stack, sensor, z)
        refs = [ref_imm_step(m, sensor, z[r]) for r, m in enumerate(members)]
        members = [imm_step(m, sensor, z[r]) for r, m in enumerate(members)]
        for r, (one, (ref_densities, ref_probs)) in enumerate(zip(members, refs)):
            assert _same_state_member(stack, r, one)
            assert _same_bits(one.mode_probs, ref_probs)
            assert all(_same_density(a, b) for a, b in zip(one.densities, ref_densities))


def test_a_near_singular_padded_mode_fails_one_cycle_early():
    """A precise position fix leaves the NCV mode a position variance of
    about 1e-10: above its own floor (1e-12 times its largest variance, about
    0.5) but below the padded floor, 1e-12 times ``pad_var`` = 1e3. The
    reference cycle passes and its next padding raises; the padded step
    raises now."""
    models = (MotionModel("ncv", 1.0, 1e-6, 1), MotionModel("nca", 1.0, 1e-6, 1))
    state = ImmState((GaussianDensity(np.zeros(2), np.eye(2)),
                      GaussianDensity(np.zeros(3), np.eye(3))), np.array([0.5, 0.5]),
                     models, np.eye(2), pad_var=1e3)
    sensor = LinearSensor(np.array([[1.0]]), np.array([[1e-10]]))
    z = np.array([0.0])
    ref_densities, _ = ref_imm_step(state, sensor, z)
    ncv = ref_densities[0].cov
    assert 1e-12 * ncv.diagonal().max() < ncv[0, 0] <= 1e-12 * state.pad_var
    with pytest.raises(NotPositiveDefinite, match="singular"):
        ref_zero_pad(ref_densities[0], 3, state.pad_var)
    with pytest.raises(NotPositiveDefinite, match="singular"):
        imm_step(state, sensor, z)
    # With a padding variance below the mode's own variances the floor is
    # the mode's own, and the step passes with the reference's bits.
    low = ImmState(state.densities, state.mode_probs, models, state.transition, pad_var=1.0)
    ref_densities, ref_probs = ref_imm_step(low, sensor, z)
    new = imm_step(low, sensor, z)
    assert _same_bits(new.mode_probs, ref_probs)
    assert all(_same_density(a, b) for a, b in zip(new.densities, ref_densities))


def test_a_stack_raises_the_earliest_failing_stage_before_the_first_failing_member():
    """Member 0 fails only at the likelihoods, the last stage (its
    measurement is so far off that the log-likelihood is -inf); member 1
    already fails the mixed covariance check (its modes' means are so far
    apart that the spread term overflows). Either way round, the stack
    raises member 1's failure: stage by stage, then member by member."""
    models = (MotionModel("ncv", 1.0, 0.5, 1), MotionModel("nca", 1.0, 2.0, 1))
    transition = np.array([[0.9, 0.1], [0.2, 0.8]])

    def member(mean0, mean1):
        return ImmState((GaussianDensity(np.array([mean0, 0.0]), np.eye(2)),
                         GaussianDensity(np.array([mean1, 0.0, 0.0]), np.eye(3))),
                        np.array([0.5, 0.5]), models, transition, pad_var=1.0)

    late, early = member(0.0, 1.0), member(1e155, -1e155)
    sensor = LinearSensor(np.array([[1.0]]), np.array([[1.0]]))
    z_late, z_early = np.array([1e200]), np.array([0.0])
    with np.errstate(all="ignore"):
        with pytest.raises(ModeLikelihoodDegenerate):
            imm_step(late, sensor, z_late)
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            imm_step(early, sensor, z_early)
        for pair, z in (((late, early), [z_late, z_early]),
                        ((early, late), [z_early, z_late])):
            with pytest.raises(NotPositiveDefinite, match="non-finite"):
                imm_step(_state_stack(list(pair)), sensor, np.stack(z))


def _routing_locals(rng, runs, probs):
    ncv = MotionModel("ncv", 1.0, 0.5, 1)
    nca = MotionModel("nca", 1.0, 2.0, 1)
    return [ImmState((random_gaussian(rng, 2), random_gaussian(rng, 3)), np.array(p),
                     (ncv, nca), np.array([[0.9, 0.1], [0.2, 0.8]]), pad_var=0.5)
            for p in probs[:runs]]


PROBS = [[0.6, 0.4], [0.3, 0.7], [0.5, 0.5], [0.9, 0.1], [0.2, 0.8]]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["naive", "gmd", "pcf", "hmd", "amd"]), st.integers(1, 5),
       st.sampled_from([0.3, 0.5]), st.integers(0, 2**32 - 1))
def test_route_feedback_of_a_stack_equals_per_member_calls(strategy, runs, w, seed):
    """Fusing two stacks of locals and routing the stacked result back gives
    each member what routing its own fused mixture gives it, and what the
    per-mode loop gives it."""
    rng = np.random.default_rng(seed)
    a, b = _routing_locals(rng, runs, PROBS), _routing_locals(rng, runs, PROBS[::-1])
    stacks = [_state_stack(a), _state_stack(b)]
    fused = fuse_pair(imm_output(stacks[0]), imm_output(stacks[1]), strategy, w)
    for idx, (stack, members) in enumerate(zip(stacks, (a, b))):
        routed = route_feedback(stack, fused, idx)
        for r, member in enumerate(members):
            mix = fuse_pair(imm_output(a[r]), imm_output(b[r]), strategy, w)
            alone = route_feedback(member, mix, idx)
            want = ref_route_feedback(member, mix, idx)
            assert _same_state_member(routed, r, alone)
            assert _same_bits(alone.mode_probs, want.mode_probs)
            assert all(_same_density(x, y) for x, y in zip(alone.densities, want.densities))


def test_route_feedback_applies_the_zero_weight_rule_per_member(rng):
    """In member 0 every component involving operand 0's nca mode has weight
    0; that member keeps the mode's density at weight 0, the others route as
    usual, each as it routes alone."""
    members = _routing_locals(rng, 3, PROBS)
    comps = [tuple(random_gaussian(rng, 3) for _ in range(4)) for _ in members]
    weights = [np.array([0.6, 0.4, 0.0, 0.0]), np.array([0.1, 0.2, 0.3, 0.4]),
               np.array([0.0, 0.0, 0.5, 0.5])]
    tags = ("ncv|ncv", "ncv|nca", "nca|ncv", "nca|nca")
    singles = [GaussianMixture(w, c, tags) for w, c in zip(weights, comps)]
    fed = GaussianMixture(np.stack(weights), _stored_stack([m.components for m in singles]),
                          tags)
    stack = _state_stack(members)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        routed = [route_feedback(stack, fed, idx) for idx in range(2)]
        alone = [[route_feedback(m, f, idx) for m, f in zip(members, singles)]
                 for idx in range(2)]
    for idx in range(2):
        for r in range(3):
            assert _same_state_member(routed[idx], r, alone[idx][r])
    assert routed[0].mode_probs[0].tolist() == [1.0, 0.0]
    assert routed[0].mode_probs[2].tolist() == [0.0, 1.0]
    assert _same_member(routed[0].densities[1], 0, members[0].densities[1])
    assert _same_member(routed[0].densities[0], 2, members[2].densities[0])
    want = ref_route_feedback(members[1], singles[1], 0)
    assert _same_state_member(routed[0], 1, want)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_apply_feedback_of_a_stack_equals_per_member_calls(runs, seed):
    rng = np.random.default_rng(seed)
    members = _routing_locals(rng, runs, PROBS)
    singles = [GaussianMixture(np.array(p), (random_gaussian(rng, 3), random_gaussian(rng, 3)),
                               ("nca", "ncv")) for p in PROBS[:runs]]
    fed = GaussianMixture(np.stack([m.weights for m in singles]),
                          _stored_stack([m.components for m in singles]), ("nca", "ncv"))
    applied = apply_feedback(_state_stack(members), fed)
    for r, (member, single) in enumerate(zip(members, singles)):
        assert _same_state_member(applied, r, apply_feedback(member, single))


def test_a_stacked_state_checks_its_stack_shapes():
    members = _routing_locals(np.random.default_rng(0), 2, PROBS)
    stack = _state_stack(members)
    with pytest.raises(ValueError, match="stack shape"):
        ImmState(stack.densities, stack.mode_probs[:1], stack.models, stack.transition)
    with pytest.raises(ValueError, match="distribution"):
        ImmState(stack.densities, np.array([[0.5, 0.5], [0.5, 0.6]]), stack.models,
                 stack.transition)


def _holds_one_padded_stack(state) -> bool:
    """``state`` stores its modes once, as the ``[..., M, D]`` stack padding
    its own mode densities afresh gives, bit for bit; ``densities`` are views
    of that stack and ``imm_output`` hands the stack on as it is."""
    return (set(vars(state)) == {"modes", "mode_probs", "models", "transition", "pad_var",
                                 "_lay"}
            and _same_density(state.modes, _fresh_padding(state))
            and all(np.shares_memory(d.cov, state.modes.cov) for d in state.densities)
            and imm_output(state).components is state.modes)


@pytest.mark.parametrize("runs", [None, 3])
def test_every_state_holds_one_padded_mode_stack(runs):
    """States from the constructor, ``imm_step``, ``route_feedback`` and
    ``apply_feedback``, one tracker or a stack of three, each hold one
    padded ``modes`` stack and no per-mode densities."""
    rng = np.random.default_rng(1)
    a, b = (_routing_locals(rng, runs or 1, probs) for probs in (PROBS, PROBS[::-1]))
    a, b = (_state_stack(s) if runs else s[0] for s in (a, b))
    sensor = LinearSensor(np.array([[1.0]]), np.array([[1.0]]))
    z = np.full((runs, 1) if runs else (1,), 0.5)
    stepped = imm_step(a, sensor, z)
    fused = fuse_pair(imm_output(stepped), imm_output(imm_step(b, sensor, z)), "hmd", 0.5)
    routed = route_feedback(stepped, fused, 0)
    applied = apply_feedback(routed, GaussianMixture(
        routed.mode_probs[..., ::-1], routed.modes[..., ::-1], ("nca", "ncv")))
    for state in (a, stepped, routed, applied):
        assert _holds_one_padded_stack(state)
    assert _same_density(applied.modes, routed.modes)


def test_the_constructor_pads_once_and_rejects_a_failing_padding():
    """A mode whose padding fails the pivot floor, or models of different
    dimension with a ``pad_var`` that is not positive and finite, raise
    ``NotPositiveDefinite`` when the state is built, not at its first step."""
    models = (MotionModel("ncv", 1.0, 0.5, 1), MotionModel("nca", 1.0, 2.0, 1))
    near = GaussianDensity(np.zeros(2), np.diag([1e-10, 0.5]))  # above its own floor
    dens = (near, GaussianDensity(np.zeros(3), np.eye(3)))
    probs, transition = np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(NotPositiveDefinite, match="singular"):
        ref_zero_pad(near, 3, 1e3)
    with pytest.raises(NotPositiveDefinite, match="singular"):
        ImmState(dens, probs, models, transition, pad_var=1e3)
    assert _holds_one_padded_stack(ImmState(dens, probs, models, transition, pad_var=1.0))
    for pad_var in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NotPositiveDefinite, match="padding variance"):
            ImmState(dens, probs, models, transition, pad_var=pad_var)
    # Modes of one dimension are never padded, so pad_var is not read.
    same = (MotionModel("ncv", 1.0, 0.5, 1), MotionModel("ncv", 1.0, 2.0, 1))
    ImmState((near, near), probs, same, transition, pad_var=math.nan)


def test_a_routed_mode_whose_padding_fails_raises_at_its_fusion_step():
    """Feedback leaves the NCV mode a position variance of 1e-10: above its
    own floor but below the padded one, 1e-12 times ``pad_var`` = 1e3. Routing
    raises now, where the old per-mode state raised only at the next step's
    padding (and not at all after the last fusion step); the same feedback
    under ``pad_var`` = 1 routes."""
    rng = np.random.default_rng(5)
    models = (MotionModel("ncv", 1.0, 0.5, 1), MotionModel("nca", 1.0, 2.0, 1))
    comps = (GaussianDensity(np.zeros(3), np.diag([1e-10, 1.0, 1.0])),
             random_gaussian(rng, 3))
    fed = GaussianMixture(np.array([0.5, 0.5]), comps, ("ncv|nca", "nca|ncv"))
    for pad_var, fails in ((1e3, True), (1.0, False)):
        state = ImmState((random_gaussian(rng, 2), random_gaussian(rng, 3)),
                         np.array([0.5, 0.5]), models, np.eye(2), pad_var=pad_var)
        with np.errstate(all="ignore"):
            ref = _outcome(ref_zero_pad, truncate_state(comps[0], 2), 3, pad_var)
        assert (ref is NotPositiveDefinite) == fails
        if fails:
            with pytest.raises(NotPositiveDefinite, match="singular"):
                route_feedback(state, fed, 0)
        else:
            routed = route_feedback(state, fed, 0)
            assert _same_bits(routed.densities[0].cov, comps[0].cov[:2, :2])
            assert _holds_one_padded_stack(routed)
