"""Tests for the EKF and IMM machinery.

The EKF is checked against a hand-rolled textbook Kalman filter on linear
problems (where they must agree to near machine precision), the IMM against
an independently written reference implementation of the full mixing cycle,
and the feedback routing against hand-built provenance-tagged mixtures.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from trackfuse import (
    GaussianDensity,
    GaussianMixture,
    ImmState,
    ModeLikelihoodDegenerate,
    MotionModel,
    SingularInnovation,
    apply_feedback,
    bearing_sensor,
    ekf_predict,
    ekf_update,
    ekf_update_with_loglik,
    fuse_amd,
    imm_output,
    imm_step,
    moment_match,
    prune_mixture,
    route_feedback,
    truncate_state,
    zero_pad,
)

from oracles import LinearSensor, StubMotion, kalman_chain, imm_reference


def _poslinear_sensor(var: float = 4.0) -> LinearSensor:
    return LinearSensor(np.array([[1.0, 0.0]]), np.array([[var]]))


def test_predict_matches_direct_propagation(rng):
    model = MotionModel("ncv", dt=2.0, q=0.3, dims=2)
    track = GaussianDensity(rng.standard_normal(4),
                            np.diag([9.0, 9.0, 1.0, 1.0]))
    predicted = ekf_predict(track, model)
    f, q = model.transition, model.noise
    np.testing.assert_allclose(predicted.mean, f @ track.mean, rtol=1e-12)
    np.testing.assert_allclose(predicted.cov, f @ track.cov @ f.T + q,
                               rtol=1e-12)


def test_scalar_chain_matches_handrolled_kalman_filter(rng):
    """On a linear scalar problem the EKF is an exact Kalman filter."""
    f, q, h, r = 0.95, 0.3, 1.0, 2.0
    motion = StubMotion(np.array([[f]]), np.array([[q]]))
    sensor = LinearSensor(np.array([[h]]), np.array([[r]]))
    zs = rng.standard_normal(50) * 3.0

    track = GaussianDensity(np.array([1.0]), np.array([[10.0]]))
    means, variances = [], []
    for z in zs:
        track = ekf_update(ekf_predict(track, motion), sensor, np.array([z]))
        means.append(track.mean[0])
        variances.append(track.cov[0, 0])

    ref_means, ref_covs = kalman_chain([1.0], [[10.0]], [[f]], [[q]], [[h]],
                                       [[r]], zs)
    np.testing.assert_allclose(means, ref_means[:, 0], rtol=1e-12)
    np.testing.assert_allclose(variances, ref_covs[:, 0, 0], rtol=1e-12)


def test_vector_chain_matches_handrolled_kalman_filter(rng):
    motion = MotionModel("ncv", dt=1.0, q=0.05, dims=1)
    sensor = _poslinear_sensor(2.5)
    zs = np.cumsum(rng.standard_normal(30)) + 5.0

    track = GaussianDensity(np.zeros(2), np.diag([100.0, 10.0]))
    got_means, got_covs = [], []
    for z in zs:
        track = ekf_update(ekf_predict(track, motion), sensor, np.array([z]))
        got_means.append(track.mean)
        got_covs.append(track.cov)

    ref_means, ref_covs = kalman_chain(np.zeros(2), np.diag([100.0, 10.0]),
                                       motion.transition, motion.noise,
                                       sensor.matrix, sensor.noise_cov, zs)
    np.testing.assert_allclose(got_means, ref_means, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got_covs, ref_covs, rtol=1e-12, atol=1e-12)


def test_update_loglik_matches_innovation_density(rng):
    motion = MotionModel("ncv", dt=1.0, q=0.1, dims=1)
    sensor = _poslinear_sensor(3.0)
    track = ekf_predict(GaussianDensity(np.array([2.0, 0.5]),
                                        np.diag([4.0, 1.0])), motion)
    z = np.array([4.2])
    _, loglik = ekf_update_with_loglik(track, sensor, z)
    s = sensor.matrix @ track.cov @ sensor.matrix.T + sensor.noise_cov
    expected = stats.norm(loc=track.mean[0], scale=np.sqrt(s[0, 0])).logpdf(z[0])
    assert loglik == pytest.approx(expected, rel=1e-10)


def test_update_wraps_angular_innovation():
    """A bearing of -179 degrees against a prediction of +179 pulls 2 degrees."""
    sensor = bearing_sensor([0.0, 0.0], sigma_bearing=np.deg2rad(1.0))
    # Target placed so the predicted bearing sits just shy of +180 degrees.
    track = GaussianDensity(np.array([17.5, -1000.0, 0.0, 0.0]),
                            np.diag([100.0, 100.0, 1.0, 1.0]))
    bearing = sensor.measure(track.mean)[0]
    assert np.rad2deg(bearing) > 178.0

    z_plus = np.array([bearing + np.deg2rad(2.0)])
    z_wrapped = np.array([np.arctan2(np.sin(z_plus[0]), np.cos(z_plus[0]))])
    assert z_wrapped[0] != z_plus[0]  # crossed the seam

    updated_direct = ekf_update(track, sensor, z_plus)
    updated_wrapped = ekf_update(track, sensor, z_wrapped)
    np.testing.assert_allclose(updated_wrapped.mean, updated_direct.mean,
                               rtol=1e-12)
    np.testing.assert_allclose(updated_wrapped.cov, updated_direct.cov,
                               rtol=1e-12)
    # And the pull is small, not a wrap-around yank.
    shift = np.linalg.norm(updated_wrapped.mean[:2] - track.mean[:2])
    assert shift < 50.0


def test_update_raises_on_singular_innovation():
    blind = LinearSensor(np.array([[0.0, 0.0]]), np.array([[0.0]]))
    track = GaussianDensity(np.zeros(2), np.eye(2))
    with pytest.raises(SingularInnovation):
        ekf_update(track, blind, np.array([0.0]))


def test_covariance_stays_positive_definite_over_long_run(rng):
    """Joseph-form updates keep the covariance SPD across 10^5 steps.

    Every constructed density revalidates its covariance, so simply surviving
    the loop is the assertion; the closing eigenvalue check is belt and
    braces.
    """
    motion = MotionModel("ncv", dt=1.0, q=1e-4, dims=2)
    sensor = bearing_sensor([0.0, 0.0], sigma_bearing=np.deg2rad(0.5))
    track = GaussianDensity(np.array([500.0, 500.0, 1.0, 0.0]),
                            np.diag([1e4, 1e4, 25.0, 25.0]))
    truth = np.array([500.0, 500.0])
    n_steps = 100_000
    noises = rng.standard_normal(n_steps) * np.deg2rad(0.5)
    for k in range(n_steps):
        z = np.array([np.arctan2(truth[0], truth[1]) + noises[k]])
        track = ekf_update(ekf_predict(track, motion), sensor, z)
    assert np.min(np.linalg.eigvalsh(track.cov)) > 0.0


def test_zero_pad_embeds_with_configured_variance():
    track = GaussianDensity(np.array([1.0, 2.0]), np.array([[4.0, 1.0],
                                                            [1.0, 3.0]]))
    padded = zero_pad(track, 4, pad_var=0.5)
    np.testing.assert_allclose(padded.mean, [1.0, 2.0, 0.0, 0.0], atol=0)
    np.testing.assert_allclose(padded.cov[:2, :2], track.cov, atol=0)
    np.testing.assert_allclose(padded.cov[2:, 2:], 0.5 * np.eye(2), atol=0)
    np.testing.assert_allclose(padded.cov[:2, 2:], np.zeros((2, 2)), atol=0)
    assert zero_pad(track, 2, 1.0) is track
    with pytest.raises(ValueError, match="smaller"):
        zero_pad(track, 1, 1.0)


def test_truncate_is_leading_marginal(rng):
    track = GaussianDensity(rng.standard_normal(4), np.diag([1.0, 2.0, 3.0, 4.0]))
    cut = truncate_state(track, 2)
    np.testing.assert_allclose(cut.mean, track.mean[:2], atol=0)
    np.testing.assert_allclose(cut.cov, track.cov[:2, :2], atol=0)
    assert truncate_state(track, 4) is track
    with pytest.raises(ValueError, match="larger"):
        truncate_state(cut, 3)
    back = truncate_state(zero_pad(track, 6, 1.0), 4)
    np.testing.assert_allclose(back.mean, track.mean, atol=0)
    np.testing.assert_allclose(back.cov, track.cov, atol=0)


def _two_mode_linear_state(q_a: float = 0.01, q_b: float = 1.0):
    models = (MotionModel("ncv", dt=1.0, q=q_a, dims=1),
              MotionModel("ncv", dt=1.0, q=q_b, dims=1))
    densities = (GaussianDensity(np.array([0.0, 1.0]), np.diag([25.0, 4.0])),
                 GaussianDensity(np.array([0.5, 0.8]), np.diag([30.0, 5.0])))
    transition = np.array([[0.9, 0.1], [0.2, 0.8]])
    return ImmState(densities, np.array([0.6, 0.4]), models, transition)


def test_imm_state_validation():
    state = _two_mode_linear_state()
    with pytest.raises(ValueError, match="disagree"):
        ImmState(state.densities[:1], state.mode_probs, state.models,
                 state.transition)
    with pytest.raises(ValueError, match="distribution"):
        ImmState(state.densities, np.array([0.7, 0.7]), state.models,
                 state.transition)
    with pytest.raises(ValueError, match="rows must sum"):
        ImmState(state.densities, state.mode_probs, state.models,
                 np.array([[0.5, 0.4], [0.2, 0.8]]))
    with pytest.raises(ValueError, match="does not match its model"):
        ImmState((state.densities[0],
                  GaussianDensity(np.zeros(4), np.eye(4))),
                 state.mode_probs, state.models, state.transition)
    assert state.max_dim == 2


@pytest.mark.parametrize("probs, transition, match", [
    ([np.nan, 0.5], [[0.9, 0.1], [0.2, 0.8]], "distribution"),
    ([np.inf, 0.5], [[0.9, 0.1], [0.2, 0.8]], "distribution"),
    ([1.5, -0.5], [[0.9, 0.1], [0.2, 0.8]], "distribution"),
    ([0.6, 0.4], [[1.2, -0.2], [0.2, 0.8]], "finite and nonnegative"),
    ([0.6, 0.4], [[np.nan, 0.1], [0.2, 0.8]], "finite and nonnegative"),
    ([0.6, 0.4], [[np.inf, 0.1], [0.2, 0.8]], "finite and nonnegative"),
], ids=["nan-prob", "inf-prob", "negative-prob", "negative-transition",
        "nan-transition", "inf-transition"])
def test_imm_state_rejects_non_finite_or_negative_entries(probs, transition, match):
    state = _two_mode_linear_state()
    with pytest.raises(ValueError, match=match):
        ImmState(state.densities, np.array(probs), state.models, np.array(transition))


def test_imm_matches_exhaustive_reference_over_five_steps(rng):
    state = _two_mode_linear_state()
    sensor = _poslinear_sensor(4.0)
    zs = [np.array([v]) for v in (1.2, 2.8, 3.1, 5.0, 5.9)]

    history = imm_reference(
        [d.mean for d in state.densities],
        [d.cov for d in state.densities],
        state.mode_probs, state.transition,
        [m.transition for m in state.models],
        [m.noise for m in state.models],
        sensor.matrix, sensor.noise_cov, zs)

    for z, (ref_means, ref_covs, ref_mu) in zip(zs, history):
        state = imm_step(state, sensor, z)
        np.testing.assert_allclose(state.mode_probs, ref_mu, rtol=1e-6)
        for got, want_mean, want_cov in zip(state.densities, ref_means,
                                            ref_covs):
            np.testing.assert_allclose(got.mean, want_mean, rtol=1e-6)
            np.testing.assert_allclose(got.cov, want_cov, rtol=1e-6)


def test_imm_with_identity_transition_runs_independent_filters(rng):
    """With no mode switching each mode must evolve as its own EKF.

    This exercises the zero-pad and truncate path with mixed-dimension modes
    while the expected answer stays exactly computable.
    """
    models = (MotionModel("ncv", dt=1.0, q=0.01, dims=2),
              MotionModel("nca", dt=1.0, q=0.001, dims=2))
    densities = (GaussianDensity(np.array([100.0, 100.0, 5.0, 5.0]),
                                 np.diag([100.0, 100.0, 10.0, 10.0])),
                 GaussianDensity(np.array([100.0, 100.0, 5.0, 5.0, 0.0, 0.0]),
                                 np.diag([100.0, 100.0, 10.0, 10.0, 1.0, 1.0])))
    state = ImmState(densities, np.array([0.5, 0.5]), models, np.eye(2),
                     pad_var=1.0)
    sensor = bearing_sensor([0.0, 0.0], sigma_bearing=np.deg2rad(1.5))
    z = np.array([sensor.measure(np.array([110.0, 105.0]))[0]])

    stepped = imm_step(state, sensor, z)
    for k, model in enumerate(models):
        direct, loglik = ekf_update_with_loglik(
            ekf_predict(densities[k], model), sensor, z)
        np.testing.assert_allclose(stepped.densities[k].mean, direct.mean,
                                   rtol=1e-10)
        np.testing.assert_allclose(stepped.densities[k].cov, direct.cov,
                                   rtol=1e-10)


def test_imm_raises_on_degenerate_likelihood():
    state = _two_mode_linear_state()
    sensor = _poslinear_sensor(1.0)
    with pytest.raises(ModeLikelihoodDegenerate):
        imm_step(state, sensor, np.array([np.inf]))


def test_imm_output_pads_and_tags_modes():
    models = (MotionModel("ncv", dt=1.0, q=0.01, dims=2),
              MotionModel("nca", dt=1.0, q=0.001, dims=2))
    densities = (GaussianDensity(np.zeros(4), np.eye(4)),
                 GaussianDensity(np.zeros(6), np.eye(6)))
    state = ImmState(densities, np.array([0.3, 0.7]), models, np.eye(2),
                     pad_var=2.0)
    out = imm_output(state)
    assert out.tags == ("ncv", "nca")
    assert all(c.dim == 6 for c in out.components)
    np.testing.assert_allclose(out.weights, [0.3, 0.7], atol=0)
    np.testing.assert_allclose(out.components[0].cov[4:, 4:], 2.0 * np.eye(2),
                               atol=0)


def test_prune_keeps_heaviest_components_in_order(rng):
    comps = tuple(GaussianDensity(np.array([float(k)]), np.array([[1.0 + k]]))
                  for k in range(4))
    mix = GaussianMixture(np.array([0.1, 0.4, 0.2, 0.3]), comps,
                          tags=("a", "b", "c", "d"))
    pruned = prune_mixture(mix, 2)
    assert pruned.n_components == 2
    assert pruned.tags == ("b", "d")
    np.testing.assert_allclose(pruned.weights, [0.4 / 0.7, 0.3 / 0.7],
                               rtol=1e-12)
    # Components keep their original order.
    assert pruned.components[0].mean[0] == 1.0
    assert pruned.components[1].mean[0] == 3.0


def test_prune_breaks_weight_ties_toward_smaller_trace():
    tight = GaussianDensity(np.zeros(1), np.array([[1.0]]))
    loose = GaussianDensity(np.zeros(1), np.array([[50.0]]))
    mix = GaussianMixture(np.array([0.5, 0.5]), (loose, tight))
    pruned = prune_mixture(mix, 1)
    assert all(getattr(pruned.components[0], f).tobytes() == getattr(tight, f).tobytes()
               for f in ("mean", "cov", "chol"))


def test_prune_validation_and_noop(rng):
    mix = GaussianMixture(np.array([0.4, 0.6]),
                          (GaussianDensity(np.zeros(1), np.eye(1)),
                           GaussianDensity(np.ones(1), np.eye(1))))
    with pytest.raises(ValueError, match="at least 1"):
        prune_mixture(mix, 0)
    same = prune_mixture(mix, 5)
    assert same.n_components == 2
    np.testing.assert_allclose(same.weights, [0.4, 0.6], rtol=1e-12)


def _mixed_dim_state():
    models = (MotionModel("ncv", dt=1.0, q=0.01, dims=2),
              MotionModel("nca", dt=1.0, q=0.001, dims=2))
    densities = (GaussianDensity(np.array([10.0, 20.0, 1.0, 2.0]),
                                 np.diag([4.0, 4.0, 1.0, 1.0])),
                 GaussianDensity(np.array([11.0, 21.0, 1.1, 2.1, 0.1, 0.1]),
                                 np.diag([5.0, 5.0, 1.0, 1.0, 0.5, 0.5])))
    return ImmState(densities, np.array([0.6, 0.4]), models,
                    np.array([[0.8, 0.2], [0.8, 0.2]]), pad_var=1.0)


def test_apply_feedback_replaces_modes_by_tag(rng):
    state = _mixed_dim_state()
    new_cv = GaussianDensity(np.arange(6.0), np.eye(6) * 2.0)
    new_ca = GaussianDensity(np.arange(6.0) + 1.0, np.eye(6) * 3.0)
    fed = GaussianMixture(np.array([0.3, 0.7]), (new_cv, new_ca),
                          tags=("ncv", "nca"))
    updated = apply_feedback(state, fed)
    np.testing.assert_allclose(updated.mode_probs, [0.3, 0.7], rtol=1e-12)
    np.testing.assert_allclose(updated.densities[0].mean, new_cv.mean[:4],
                               atol=0)
    assert updated.densities[0].dim == 4
    np.testing.assert_allclose(updated.densities[1].mean, new_ca.mean, atol=0)
    assert updated.densities[1].dim == 6


def test_apply_feedback_checks_the_new_mode_probabilities():
    """The advanced state checks its new probabilities: an all-zero feedback
    weight would leave NaN mode probabilities."""
    state = _mixed_dim_state()
    comps = (GaussianDensity(np.zeros(6), np.eye(6)), GaussianDensity(np.ones(6), np.eye(6)))
    stepped = apply_feedback(state, GaussianMixture(np.array([0.5, 0.5]), comps,
                                                    tags=("ncv", "nca")))
    assert stepped.transition is state.transition and stepped.models is state.models
    with pytest.raises(ValueError, match="distribution"), np.errstate(invalid="ignore"):
        apply_feedback(state, GaussianMixture(np.zeros(2), comps, tags=("ncv", "nca")))


def test_apply_feedback_validation(rng):
    state = _mixed_dim_state()
    comp = GaussianDensity(np.zeros(6), np.eye(6))
    with pytest.raises(ValueError, match="one tagged component per mode"):
        apply_feedback(state, GaussianMixture(np.array([1.0]), (comp,),
                                              tags=("ncv",)))
    with pytest.raises(ValueError, match="exactly one component tagged"):
        apply_feedback(state, GaussianMixture(np.array([0.5, 0.5]),
                                              (comp, comp),
                                              tags=("ncv", "ncv")))


@pytest.mark.parametrize("dim", [4, 8])
def test_apply_feedback_requires_components_in_the_padded_dimension(dim):
    """Components of the NCV mode's own dimension, or of a dimension above
    the state's padded one (D = 6), are rejected rather than truncated."""
    comp = GaussianDensity(np.zeros(dim), np.eye(dim))
    with pytest.raises(ValueError, match="padded dimension D = 6, got " + str(dim)):
        apply_feedback(_mixed_dim_state(), GaussianMixture(np.array([0.5, 0.5]), (comp, comp),
                                                           tags=("ncv", "nca")))


def test_route_feedback_moment_matches_involving_components():
    state = _mixed_dim_state()
    comps = tuple(GaussianDensity(np.full(6, float(k)), np.eye(6) * (1.0 + k))
                  for k in range(4))
    fed = GaussianMixture(np.array([0.4, 0.3, 0.2, 0.1]), comps,
                          tags=("ncv|ncv", "ncv|nca", "nca|ncv", "nca|nca"))
    routed = route_feedback(state, fed, operand_idx=0)
    # Mode probabilities follow the grouped weights.
    np.testing.assert_allclose(routed.mode_probs, [0.7, 0.3], rtol=1e-12)
    want_cv = moment_match(GaussianMixture(np.array([0.4, 0.3]) / 0.7,
                                           comps[:2]))
    np.testing.assert_allclose(routed.densities[0].mean, want_cv.mean[:4],
                               rtol=1e-12)
    np.testing.assert_allclose(routed.densities[0].cov, want_cv.cov[:4, :4],
                               rtol=1e-12)
    # Routing for the other operand groups by the second tag field instead.
    routed_b = route_feedback(state, fed, operand_idx=1)
    np.testing.assert_allclose(routed_b.mode_probs, [0.6, 0.4], rtol=1e-12)


def test_route_feedback_of_plain_mixture_is_a_no_op():
    """Arithmetic pooling hands each local its own modes back unchanged."""
    state = _mixed_dim_state()
    other = _mixed_dim_state()
    fed = fuse_amd([imm_output(state), imm_output(other)], [0.5, 0.5])
    routed = route_feedback(state, fed, operand_idx=0)
    np.testing.assert_allclose(routed.mode_probs, state.mode_probs, rtol=1e-12)
    for got, want in zip(routed.densities, state.densities):
        np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12)
        np.testing.assert_allclose(got.cov, want.cov, rtol=1e-12)


def test_route_feedback_keeps_uninvolved_modes():
    state = _mixed_dim_state()
    comps = (GaussianDensity(np.full(6, 2.0), np.eye(6)),)
    fed = GaussianMixture(np.array([1.0]), comps, tags=("ncv|ncv",))
    routed = route_feedback(state, fed, operand_idx=0)
    # The nca mode saw no feedback component and keeps its density.
    np.testing.assert_allclose(routed.densities[1].mean,
                               state.densities[1].mean, rtol=1e-12)
    np.testing.assert_allclose(routed.densities[1].cov,
                               state.densities[1].cov, rtol=1e-12)


def test_route_feedback_keeps_a_mode_whose_components_underflowed_at_weight_zero():
    """Every fused component involving the nca mode has weight 0 (its fused
    weights underflowed): that mode keeps its density with probability 0,
    without a 0/0 in the group moments."""
    state = _mixed_dim_state()
    comps = tuple(GaussianDensity(np.full(6, float(k)), np.eye(6) * (1.0 + k))
                  for k in range(4))
    fed = GaussianMixture(np.array([0.6, 0.4, 0.0, 0.0]), comps,
                          tags=("ncv|ncv", "ncv|nca", "nca|ncv", "nca|nca"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        routed = route_feedback(state, fed, operand_idx=0)
        routed_b = route_feedback(state, fed, operand_idx=1)
    assert routed.mode_probs.tolist() == [1.0, 0.0]
    assert all(getattr(routed.densities[1], f).tobytes()
               == getattr(state.densities[1], f).tobytes() for f in ("mean", "cov", "chol"))
    want_cv = moment_match(GaussianMixture(np.array([0.6, 0.4]), comps[:2]))
    np.testing.assert_array_equal(routed.densities[0].mean, want_cv.mean[:4])
    np.testing.assert_array_equal(routed.densities[0].cov, want_cv.cov[:4, :4])
    # The other operand's modes each still take a component of weight > 0.
    np.testing.assert_allclose(routed_b.mode_probs, [0.6, 0.4], rtol=1e-12)


def test_route_feedback_validation():
    state = _mixed_dim_state()
    comp = GaussianDensity(np.zeros(6), np.eye(6))
    with pytest.raises(ValueError, match="provenance tags"):
        route_feedback(state, GaussianMixture(np.array([1.0]), (comp,)), 0)
    with pytest.raises(ValueError, match="no field for this operand"):
        route_feedback(state, GaussianMixture(np.array([1.0]), (comp,),
                                              tags=("ncv",)), 1)
