"""Extended Kalman filtering and interacting multiple-model tracking.

The EKF update uses the Joseph-form covariance and wraps angular innovation
components. The EKF steps also step each member of a stacked density (one
per Monte Carlo run, each with its own measurement) as it would step alone,
with one sensor-model call for the whole stack. The IMM holds its modes as
one stack ``[..., M, D]`` zero-padded to the longest model's dimension: each
mode keeps its own block, and its padded entries get a configured variance,
with no cross terms. A cycle mixes, predicts and updates every mode in one
pass over that stack (each transition extended by an identity block, each
process noise by a zero one), then resets each mode's padding. The IMM functions,
too, step, prune and route each member of a stack as they do one alone; if
members fail, the first failing check raises (see :func:`imm_step` for the
cycle's order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ModeLikelihoodDegenerate, NotPositiveDefinite, SingularInnovation
from .gaussians import (
    GaussianDensity,
    GaussianMixture,
    _chol_logdet,
    _factor,
    _group_moments,
    _joined,
    _matvec,
    _mixture_moments,
    _scalar,
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
    """One motion-model prediction step (of each member of a stack).

    ``motion`` supplies ``transition`` and ``noise``: one model's ``[n, n]``
    matrices, or stacks of them that broadcast against the track's leading
    axes (an IMM's padded modes, one model per mode).
    """
    f = motion.transition
    return GaussianDensity._made(_matvec(f, track.mean),
                                 symmetrize(f @ track.cov @ f.swapaxes(-1, -2) + motion.noise))


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
    return GaussianDensity._made(mean, cov), chol, innov


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
    stack; ``track`` itself when ``dim`` is its whole dimension), a view.

    Its factor is the leading block of ``track.chol``. Nothing is checked
    again: its pivots are the parent's leading pivots, and its floor,
    ``1e-12`` times its largest variance, is at most the parent's. A ``dim``
    below 1 or above ``track.dim`` raises ``ValueError``.
    """
    if dim > track.dim:
        raise ValueError("cannot truncate to a larger dimension")
    if dim < 1:
        raise ValueError("cannot truncate to fewer than one state entry")
    if dim == track.dim:
        return track
    return GaussianDensity._view(track.mean[..., :dim], track.cov[..., :dim, :dim],
                                 track.chol[..., :dim, :dim])


def _check_mode_probs(probs: np.ndarray) -> None:
    # A NaN or infinite entry makes a sum non-finite, which fails the test.
    if (probs < 0.0).any() or not (abs(probs.sum(axis=-1) - 1.0) <= 1e-9).all():
        raise ValueError("mode probabilities must be a distribution")


@dataclass(frozen=True, init=False)
class ImmState:
    """Mode-conditioned densities with probabilities and the Markov transition.

    ``models[k]`` generates mode ``k``, of probability ``mode_probs[..., k]``: one
    density ``[d_k]``, or a stack ``[..., d_k]`` of trackers (one per run) that share
    the models, transition and ``pad_var``. ``transition[i, j]`` is the probability of
    switching from mode ``i`` to mode ``j`` over one step. ``pad_var`` is the variance
    assigned to zero-padded entries when modes of different dimension are combined.

    The modes are stored once, as one stack ``modes[..., M, D]`` in the common
    space: mode ``k`` keeps its own ``d_k`` block, with ``pad_var`` on the padded
    diagonal and no cross terms. The constructor pads ``densities`` with
    :func:`zero_pad`, whose failure it raises, and lays the models out once for
    every state that follows; ``densities`` reads each mode's own block as a view.
    """

    modes: GaussianDensity
    mode_probs: np.ndarray
    models: tuple[MotionModel, ...]
    transition: np.ndarray
    pad_var: float
    _lay: "_PaddedModes" = field(repr=False, compare=False)

    def __init__(self, densities, mode_probs, models, transition, pad_var: float = 1.0):
        densities, models = tuple(densities), tuple(models)
        probs = np.atleast_1d(np.asarray(mode_probs, dtype=float))
        trans = np.atleast_2d(np.asarray(transition, dtype=float))
        n = len(densities)
        if len(models) != n or probs.shape[-1:] != (n,) or trans.shape != (n, n):
            raise ValueError("densities, models, mode_probs and transition disagree")
        _check_mode_probs(probs)
        if not np.isfinite(trans).all() or (trans < 0.0).any():
            raise ValueError("transition entries must be finite and nonnegative")
        if np.max(np.abs(np.sum(trans, axis=1) - 1.0)) > 1e-9:
            raise ValueError("transition rows must sum to 1")
        for dens, model in zip(densities, models):
            if dens.dim != model.state_dim:
                raise ValueError("mode density dimension does not match its model")
            if dens.mean.shape[:-1] != probs.shape[:-1]:
                raise ValueError("mode densities and probabilities must share one stack shape")
        top = max(m.state_dim for m in models)
        self.__dict__.update(
            modes=_joined([zero_pad(d, top, pad_var) for d in densities], np.stack),
            mode_probs=probs, models=models, transition=trans, pad_var=pad_var,
            _lay=_PaddedModes.of(models, pad_var))

    def _advance(self, modes: GaussianDensity, mode_probs: np.ndarray) -> "ImmState":
        """This state with new re-padded, floor-tested modes and new probabilities
        (checked here); the models, transition, ``pad_var`` and layout carry over."""
        _check_mode_probs(mode_probs)
        state = object.__new__(ImmState)
        state.__dict__.update(vars(self), modes=modes, mode_probs=mode_probs)
        return state

    @property
    def densities(self) -> tuple[GaussianDensity, ...]:
        """Each mode's own density, the leading ``d_k`` block of its padded mode (a view)."""
        return tuple(truncate_state(self.modes[..., k], model.state_dim)
                     for k, model in enumerate(self.models))

    @property
    def max_dim(self) -> int:
        return self.modes.dim


@dataclass(frozen=True)
class _PaddedModes:
    """Where each mode's own entries sit in the common ``[M, D]`` space, and
    its motion model padded to that space: ``transition[j]`` is ``F_j`` with
    an identity trailing block and ``noise[j]`` is ``Q_j`` with a zero one, so
    a padded state steps its own block as the model does and keeps its padding.
    """

    keep: np.ndarray         # [M, D]: entry inside mode j's own block
    keep_cov: np.ndarray     # [M, D, D]
    pad_cov: np.ndarray      # [M, D, D]: pad_var on the padded diagonal, else 0
    pad_chol: np.ndarray     # [M, D, D]: its factor
    transition: np.ndarray   # [M, D, D]
    noise: np.ndarray        # [M, D, D]

    @classmethod
    def of(cls, models: tuple[MotionModel, ...], pad_var: float) -> "_PaddedModes":
        dims = np.array([m.state_dim for m in models])
        top = int(dims.max())
        keep = np.arange(top) < dims[:, None]
        keep_cov = keep[:, :, None] & keep[:, None, :]
        padded = np.eye(top, dtype=bool) & ~keep_cov
        root = math.sqrt(pad_var) if padded.any() else 0.0
        transition = np.where(padded, 1.0, 0.0)
        noise = np.zeros(transition.shape)
        for j, (model, dim) in enumerate(zip(models, dims)):
            transition[j, :dim, :dim] = model.transition
            noise[j, :dim, :dim] = model.noise
        return cls(keep, keep_cov, np.where(padded, pad_var, 0.0), np.where(padded, root, 0.0),
                   transition, noise)

    def repad(self, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray) -> tuple:
        """``zero_pad(truncate_state(stack[..., j], d_j))`` of every mode of a
        ``[..., M, D]`` stack's arrays: each mode's own block kept, the rest reset."""
        return (np.where(self.keep, mean, 0.0), np.where(self.keep_cov, cov, self.pad_cov),
                np.where(self.keep_cov, chol, self.pad_chol))


def imm_step(state: ImmState, meas: MeasurementModel, z: np.ndarray) -> ImmState:
    """One interacting multiple-model cycle: mix, predict, update, reweight.

    Mixing forms, for each destination mode, the moment-matched Gaussian of
    the incoming mode densities under the transition-conditioned weights, in
    the zero-padded common space, all modes in one pass on C-contiguous
    ``[..., M, M]`` weights (numpy's matmul takes a Fortran-ordered row on its
    own loop, not BLAS, and gives other bits). Each mixed mode is then reset
    to its own block plus the padding (``zero_pad(truncate_state(mixed_j,
    d_j))``), and all modes are predicted with their padded models and updated
    with ``z[..., m]`` in one pass over the ``[..., M, D]`` stack; each mode's
    own block gets the bits a prediction and update in its own space give.
    The updated stack, re-padded the same way, is the new state's ``modes``. The
    mode probabilities are reweighted in log space, shifted by their maximum, so
    their total is at least 1 even when every likelihood underflows.

    Checks run stage by stage over the whole stack: the mixing weights, the
    mixed covariances, the predicted ones, the innovation factorization, the
    updated covariances (each in full; the re-padded updated ones' pivot
    floor too) and the likelihoods. The first failing stage raises what its
    first failing member raises, members in row-major order (run, then mode). The
    padded predicted and updated covariances face :func:`zero_pad`'s floor,
    ``1e-12 * max(max variance, pad_var)``, which no mode's own block check
    is stricter than and which a per-mode cycle's next padding would apply:
    a mode that would fail it there fails one cycle earlier.

    Raises
    ------
    NotPositiveDefinite
        If a mixed, predicted or updated covariance fails its check.
    SingularInnovation
        If an innovation covariance cannot be factored.
    ModeLikelihoodDegenerate
        If a mode log-likelihood is not finite.
    """
    mu = state.mode_probs
    trans = state.transition
    # One (1, M) @ (M, M) product per member: a member's mixing weights do
    # not depend on how many members share the stack.
    cbar = np.maximum((mu[..., None, :] @ trans)[..., 0, :], np.finfo(float).tiny)
    pad, layout = state.modes, state._lay
    weights = np.ascontiguousarray(trans.T * mu[..., None, :] / cbar[..., :, None])
    mean, cov = _mixture_moments(weights, pad.mean[..., None, :, :], pad.cov[..., None, :, :, :])
    # Each re-padded mode keeps a block of a checked mixed covariance. Only
    # the prediction reads it, and that checks its result in full; a pivot
    # floor test here could reject a mode whose own block passes before its
    # process noise is added, since pad_var may exceed its variances.
    mixed = GaussianDensity._view(*layout.repad(mean, cov, _factor(cov)))
    z = np.atleast_1d(np.asarray(z, dtype=float))[..., None, :]
    updated, logliks = ekf_update_with_loglik(ekf_predict(mixed, layout), meas, z)
    padded = GaussianDensity._derived(*layout.repad(updated.mean, updated.cov, updated.chol))
    if not np.all(np.isfinite(logliks)):
        raise ModeLikelihoodDegenerate("non-finite mode likelihood")
    log_mu = np.log(cbar) + logliks
    log_mu -= log_mu.max(axis=-1, keepdims=True)
    new_mu = np.exp(log_mu)
    return state._advance(padded, new_mu / new_mu.sum(axis=-1, keepdims=True))


def imm_output(state: ImmState) -> GaussianMixture:
    """Mode mixture in the common (padded) space, tagged by model kind."""
    return GaussianMixture._view(state.mode_probs, state.modes,
                                 tuple(m.kind for m in state.models))


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
    return GaussianMixture._view(mixture.weights[at], comps[at], tags).normalized()


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
    :func:`apply_feedback`, so a routed mode whose re-padded covariance
    fails the pivot floor raises here, at this fusion step.

    A product-style fused mixture involves every recipient mode in several
    cross hypotheses, so each mode receives the full fused information. A
    plain mixture of the operands (arithmetic pooling) hands every local its
    own modes back unchanged: the feedback carries no new information.
    """
    if fed.tags is None:
        raise ValueError("feedback mixture must carry provenance tags")
    kinds = tuple(m.kind for m in state.models)
    groups = _routes(fed.tags, operand_idx, kinds)
    weights = np.where([bool(g) for g in groups], 0.0, state.mode_probs)
    mean, cov, chol = state.modes.mean.copy(), state.modes.cov.copy(), state.modes.chol.copy()
    comps = fed.components
    for size in dict.fromkeys(len(g) for g in groups if g):
        modes = np.array([m for m, g in enumerate(groups) if len(g) == size])
        idx = np.array([groups[m] for m in modes])
        *lead, g = np.take(fed.weights, idx, -1).any(axis=-1).nonzero()
        at, pick = (*lead, modes[g]), (*(i[:, None] for i in lead), idx[g])
        weights[at], mean[at], cov[at] = _group_moments(fed.weights[pick], comps.mean[pick],
                                                        comps.cov[pick])
        chol[at] = _factor(cov[at])
    prepared = GaussianMixture._view(weights, GaussianDensity._view(mean, cov, chol), kinds)
    return apply_feedback(state, prepared.normalized())


def apply_feedback(state: ImmState, fed: GaussianMixture) -> ImmState:
    """Replace each mode density with the fed component matching its model tag.

    ``fed`` must carry exactly one component per local mode (see
    :func:`route_feedback`), in the state's padded dimension ``D``. Each mode
    keeps its own block of its component, padded again; a mode whose padding
    fails the pivot floor raises :class:`NotPositiveDefinite`. Mode
    probabilities are taken from the fed weights.
    """
    if fed.tags is None or fed.n_components != len(state.models):
        raise ValueError("feedback mixture must have one tagged component per mode")
    for model in state.models:
        if fed.tags.count(model.kind) != 1:
            raise ValueError(f"feedback must have exactly one component tagged {model.kind!r}")
    if fed.dim != state.max_dim:
        raise ValueError(f"feedback components must live in the state's padded dimension "
                         f"D = {state.max_dim}, got {fed.dim}")
    order = [fed.tags.index(model.kind) for model in state.models]
    comps = fed.components
    modes = GaussianDensity._derived(*state._lay.repad(
        np.take(comps.mean, order, -2), np.take(comps.cov, order, -3),
        np.take(comps.chol, order, -3)))
    probs = np.take(fed.weights, order, -1)
    return state._advance(modes, probs / probs.sum(axis=-1, keepdims=True))
