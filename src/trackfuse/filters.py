"""Extended Kalman filtering and interacting multiple-model tracking.

The EKF update uses the Joseph-form covariance and wraps angular innovation
components. The EKF steps also step each member of a stacked density (one
per Monte Carlo run, each with its own measurement) as it would step alone,
with one sensor-model call for the whole stack. The IMM keeps one density
per motion model; models of different state dimension interact by
zero-padding the shorter states up to the longest one (padded entries get a
configured variance) wherever cross-mode moments are formed, and truncating
back afterwards. The IMM functions, too, step, prune and route each member of
a stack as they do one alone; if members fail, the first failing check raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ModeLikelihoodDegenerate, NotPositiveDefinite, SingularInnovation
from .gaussians import (
    GaussianDensity,
    GaussianMixture,
    _chol_logdet,
    _group_moments,
    _joined,
    _matvec,
    _mixture_moments,
    _scalar,
    assert_spd,
    symmetrize,
)
from .models import MeasurementModel, MotionModel, wrap_angle

__all__ = [
    "ekf_predict",
    "ekf_update",
    "ekf_update_with_loglik",
    "ImmState",
    "imm_step",
    "imm_output",
    "zero_pad",
    "truncate_state",
    "prune_mixture",
    "route_feedback",
    "apply_feedback",
]

_LOG_2PI = math.log(2.0 * math.pi)


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def ekf_predict(track: GaussianDensity, motion: MotionModel) -> GaussianDensity:
    """One motion-model prediction step (of each member of a stack)."""
    f = motion.transition
    return GaussianDensity(_matvec(f, track.mean),
                           symmetrize(f @ track.cov @ f.T + motion.noise))


def _joseph_update(track: GaussianDensity, meas: MeasurementModel, z) -> tuple:
    """The updated density, the innovation covariance's factor and the
    innovation, for ``z[..., m]`` (one measurement per member)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    dim = track.dim
    jac = meas.jacobian(track.mean, dim)
    innov = z - meas.measure(track.mean)
    for idx in meas.angle_indices:
        innov[..., idx] = wrap_angle(innov[..., idx])
    jac_cov = jac @ track.cov
    s = symmetrize(jac_cov @ jac.swapaxes(-1, -2) + meas.noise_cov)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("innovation covariance is singular") from exc
    gain = np.linalg.solve(s, jac_cov).swapaxes(-1, -2)
    mean = track.mean + _matvec(gain, innov)
    imkh = _identity(dim) - gain @ jac
    cov = symmetrize(imkh @ track.cov @ imkh.swapaxes(-1, -2)
                     + gain @ meas.noise_cov @ gain.swapaxes(-1, -2))
    return GaussianDensity(mean, cov), chol, innov


def ekf_update_with_loglik(track: GaussianDensity, meas: MeasurementModel,
                           z: np.ndarray) -> tuple[GaussianDensity, float]:
    """Joseph-form measurement update and the innovation log-likelihood(s)."""
    updated, chol, innov = _joseph_update(track, meas, z)
    white = np.linalg.solve(chol, innov[..., None])[..., 0]
    loglik = -0.5 * (innov.shape[-1] * _LOG_2PI + _chol_logdet(chol)
                     + (white[..., None, :] @ white[..., :, None])[..., 0, 0])
    return updated, _scalar(loglik)


def ekf_update(track: GaussianDensity, meas: MeasurementModel,
               z: np.ndarray) -> GaussianDensity:
    """One measurement update step (of each member of a stack)."""
    return _joseph_update(track, meas, z)[0]


def zero_pad(track: GaussianDensity, target_dim: int, pad_var: float) -> GaussianDensity:
    """Embed a state in a larger space; padded entries get variance ``pad_var``.

    The padded factor is ``blockdiag(track.chol, sqrt(pad_var) I)``, a
    Cholesky factor of the padded covariance, so only the pivot floor test
    runs again (per member). A ``pad_var`` that is not positive and finite
    raises :class:`NotPositiveDefinite`, as the padded covariance would.
    """
    dim = track.dim
    extra = target_dim - dim
    if extra < 0:
        raise ValueError("cannot pad to a smaller dimension")
    if extra == 0:
        return track
    if not 0.0 < pad_var < math.inf:
        raise NotPositiveDefinite("padding variance must be positive and finite")
    lead = track.mean.shape[:-1]
    mean = np.concatenate((track.mean, np.zeros(lead + (extra,))), axis=-1)
    cov = np.zeros(lead + (target_dim, target_dim))
    cov[..., :dim, :dim] = track.cov
    chol = np.zeros(lead + (target_dim, target_dim))
    chol[..., :dim, :dim] = track.chol
    # The padded diagonal entries of each matrix, in row-major flat order.
    pad = slice(dim * (target_dim + 1), None, target_dim + 1)
    cov.reshape(lead + (-1,))[..., pad] = pad_var
    chol.reshape(lead + (-1,))[..., pad] = math.sqrt(pad_var)
    return GaussianDensity._derived(mean, cov, chol)


def truncate_state(track: GaussianDensity, dim: int) -> GaussianDensity:
    """Marginal over the leading ``dim`` state entries (of each member of a
    stack; ``track`` itself when ``dim`` is its whole dimension); its factor
    is the leading block of ``track.chol``."""
    if dim > track.dim:
        raise ValueError("cannot truncate to a larger dimension")
    if dim == track.dim:
        return track
    return GaussianDensity._derived(track.mean[..., :dim], track.cov[..., :dim, :dim],
                                    track.chol[..., :dim, :dim])


def _check_mode_probs(probs: np.ndarray) -> None:
    # A NaN or infinite entry makes a sum non-finite, which fails the test.
    if (probs < 0.0).any() or not (abs(probs.sum(axis=-1) - 1.0) <= 1e-9).all():
        raise ValueError("mode probabilities must be a distribution")


def _check_mode_dims(densities, models, lead: tuple) -> None:
    for dens, model in zip(densities, models):
        if dens.dim != model.state_dim:
            raise ValueError("mode density dimension does not match its model")
        if dens.mean.shape[:-1] != lead:
            raise ValueError("mode densities and probabilities must share one stack shape")


@dataclass(frozen=True)
class ImmState:
    """Mode-conditioned densities with probabilities and the Markov transition.

    ``models[k]`` generates ``densities[k]``, of probability ``mode_probs[..., k]``: one
    density ``[d_k]``, or a stack ``[..., d_k]`` of trackers (one per run) that share
    the models, transition and ``pad_var``. ``transition[i, j]`` is the probability of
    switching from mode ``i`` to mode ``j`` over one step. ``pad_var`` is the variance
    assigned to zero-padded entries when modes of different dimension are combined.
    """

    densities: tuple[GaussianDensity, ...]
    mode_probs: np.ndarray
    models: tuple[MotionModel, ...]
    transition: np.ndarray
    pad_var: float = 1.0

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.mode_probs, dtype=float))
        trans = np.atleast_2d(np.asarray(self.transition, dtype=float))
        n = len(self.densities)
        if len(self.models) != n or probs.shape[-1:] != (n,) or trans.shape != (n, n):
            raise ValueError("densities, models, mode_probs and transition disagree")
        _check_mode_probs(probs)
        if not np.isfinite(trans).all() or (trans < 0.0).any():
            raise ValueError("transition entries must be finite and nonnegative")
        if np.max(np.abs(np.sum(trans, axis=1) - 1.0)) > 1e-9:
            raise ValueError("transition rows must sum to 1")
        _check_mode_dims(self.densities, self.models, probs.shape[:-1])
        object.__setattr__(self, "densities", tuple(self.densities))
        object.__setattr__(self, "mode_probs", probs)
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "transition", trans)

    def _advance(self, densities: tuple[GaussianDensity, ...],
                 mode_probs: np.ndarray) -> "ImmState":
        """This state with new mode densities and probabilities.

        Only the new fields are checked; the models, transition and
        ``pad_var`` are carried over as already validated, the padding is not.
        """
        _check_mode_probs(mode_probs)
        _check_mode_dims(densities, self.models, mode_probs.shape[:-1])
        state = object.__new__(ImmState)
        state.__dict__.update(densities=densities, mode_probs=mode_probs, models=self.models,
                              transition=self.transition, pad_var=self.pad_var)
        return state

    @property
    def max_dim(self) -> int:
        return max(m.state_dim for m in self.models)

    def _padded(self) -> GaussianDensity:
        """The modes zero-padded to the common space, one ``[..., M, d]`` stack, built once."""
        if "_pad" not in self.__dict__:
            self.__dict__["_pad"] = _joined(
                [zero_pad(d, self.max_dim, self.pad_var) for d in self.densities], np.stack)
        return self.__dict__["_pad"]


def imm_step(state: ImmState, meas: MeasurementModel, z: np.ndarray) -> ImmState:
    """One interacting multiple-model cycle: mix, predict, update, reweight.

    Mixing forms, for each destination mode, the moment-matched Gaussian of
    the incoming mode densities under the transition-conditioned weights
    (in the zero-padded common space when dimensions differ). The mode
    probabilities are reweighted in log space, shifted by their maximum, so
    their total is at least 1 even when every likelihood underflows; a
    non-finite log-likelihood raises :class:`ModeLikelihoodDegenerate`.
    """
    mu = state.mode_probs
    trans = state.transition
    cbar = np.maximum(mu @ trans, np.finfo(float).tiny)
    pad = state._padded()

    new_densities = []
    logliks = np.empty(mu.shape)
    for j, model in enumerate(state.models):
        mixed = GaussianDensity(*_mixture_moments(trans[:, j] * mu / cbar[..., j, None],
                                                  pad.mean, pad.cov))
        mode_track = truncate_state(mixed, model.state_dim)
        predicted = ekf_predict(mode_track, model)
        updated, logliks[..., j] = ekf_update_with_loglik(predicted, meas, z)
        new_densities.append(updated)

    if not np.all(np.isfinite(logliks)):
        raise ModeLikelihoodDegenerate("non-finite mode likelihood")
    log_mu = np.log(cbar) + logliks
    log_mu -= log_mu.max(axis=-1, keepdims=True)
    new_mu = np.exp(log_mu)
    return state._advance(tuple(new_densities), new_mu / new_mu.sum(axis=-1, keepdims=True))


def imm_output(state: ImmState) -> GaussianMixture:
    """Mode mixture in the common (padded) space, tagged by model kind."""
    return GaussianMixture(state.mode_probs, state._padded(), tuple(m.kind for m in state.models))


def prune_mixture(mixture: GaussianMixture, target_count: int) -> GaussianMixture:
    """Keep the ``target_count`` highest-weight components and renormalize.

    Ties break toward the component with the smaller covariance trace. Each
    member of a stack of mixtures keeps its own components, so a pruned stack
    is untagged; one mixture keeps its tags.
    """
    if target_count < 1:
        raise ValueError("target_count must be at least 1")
    if mixture.n_components <= target_count:
        return mixture.normalized()
    comps = mixture.components
    traces = np.trace(comps.cov, axis1=-2, axis2=-1)
    keep = np.sort(np.lexsort((traces, -mixture.weights), axis=-1)[..., :target_count], axis=-1)
    tags = None if mixture.tags is None or keep.ndim > 1 else tuple(mixture.tags[k] for k in keep)
    at = (*np.indices(keep.shape, sparse=True)[:-1], keep)
    return GaussianMixture(mixture.weights[at], comps[at], tags).normalized()


@lru_cache
def _routes(tags: tuple, operand_idx: int, kinds: tuple) -> tuple:
    """Per mode kind, the fused components whose tag field ``operand_idx`` names it."""
    groups: dict[str, list[int]] = {}
    for k, tag in enumerate(tags):
        fields = tag.split("|")
        if operand_idx >= len(fields):
            raise ValueError("provenance tag has no field for this operand")
        if fields[operand_idx]:
            groups.setdefault(fields[operand_idx], []).append(k)
    return tuple(tuple(groups.get(kind, ())) for kind in kinds)


def route_feedback(state: ImmState, fed: GaussianMixture,
                   operand_idx: int) -> ImmState:
    """Apply fusion-center feedback to the local that was fusion operand
    ``operand_idx`` (member by member, for a stack of locals and of fused mixtures).

    Fused components carry a positional provenance tag with one field per
    operand ("i|j" for a pair hypothesis), naming the operand modes each
    component involves; the tags are parsed once per layout. For every local
    mode, the components involving that mode are moment-matched into the
    mode's replacement (all modes and members in one stacked call per group
    size); a mode involved in no component keeps its current density and
    probability, and a mode whose components all have weight 0 in a member
    (their fused weights underflowed) keeps its density there with weight 0.
    The prepared one-component-per-mode mixture is then applied with
    :func:`apply_feedback`.

    A product-style fused mixture involves every recipient mode in several
    cross hypotheses, so each mode receives the full fused information. A
    plain mixture of the operands (arithmetic pooling) hands every local its
    own modes back unchanged: the feedback carries no new information.
    """
    if fed.tags is None:
        raise ValueError("feedback mixture must carry provenance tags")
    kinds = tuple(m.kind for m in state.models)
    groups = _routes(fed.tags, operand_idx, kinds)
    pad = state._padded()
    weights = np.where([bool(g) for g in groups], 0.0, state.mode_probs)
    mean, cov, chol = pad.mean.copy(), pad.cov.copy(), pad.chol.copy()
    comps = fed.components
    for size in dict.fromkeys(len(g) for g in groups if g):
        modes = np.array([m for m, g in enumerate(groups) if len(g) == size])
        idx = np.array([groups[m] for m in modes])
        *lead, g = np.take(fed.weights, idx, -1).any(axis=-1).nonzero()
        at, pick = (*lead, modes[g]), (*(i[:, None] for i in lead), idx[g])
        weights[at], mean[at], cov[at] = _group_moments(fed.weights[pick], comps.mean[pick],
                                                        comps.cov[pick])
        chol[at] = assert_spd(cov[at])
    prepared = GaussianMixture(weights, GaussianDensity._view(mean, cov, chol), kinds)
    return apply_feedback(state, prepared.normalized())


def apply_feedback(state: ImmState, fed: GaussianMixture) -> ImmState:
    """Replace each mode density with the fed component matching its model tag.

    ``fed`` must carry exactly one component per local mode (see
    :func:`route_feedback`); components live in the padded common space and are
    truncated back to each mode's own dimension. Mode probabilities are taken
    from the fed weights.
    """
    if fed.tags is None or fed.n_components != len(state.models):
        raise ValueError("feedback mixture must have one tagged component per mode")
    for model in state.models:
        if fed.tags.count(model.kind) != 1:
            raise ValueError(f"feedback must have exactly one component tagged {model.kind!r}")
    order = [fed.tags.index(model.kind) for model in state.models]
    densities = tuple(truncate_state(fed.components[..., i], model.state_dim)
                      for i, model in zip(order, state.models))
    probs = np.take(fed.weights, order, -1)
    return state._advance(densities, probs / probs.sum(axis=-1, keepdims=True))
