"""Independent reference implementations used as test oracles.

The filter oracles here are written from textbook formulas with plain numpy
calls (no Joseph form, no log-space likelihoods, no helpers shared with the
package), so agreement between a package routine and its oracle is a genuine
two-route check rather than the same code evaluated twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from trackfuse import (
    GaussianDensity,
    GaussianMixture,
    ImmState,
    MetricsReport,
    ModeLikelihoodDegenerate,
    MotionModel,
    NcvTruth,
    NonPositiveDefiniteResult,
    NotPositiveDefinite,
    NotSymmetric,
    ScaledGaussian,
    StrategyMetrics,
    apply_feedback,
    assert_spd,
    compute_nees,
    ekf_predict,
    ekf_update,
    fuse_amd,
    fuse_pair,
    imm_output,
    imm_step,
    moment_match,
    ncv_matrices,
    nees_bounds,
    prune_mixture,
    route_feedback,
    sine_truth_states,
    spd_inv,
    symmetrize,
    track_loss_rate,
    truncate_state,
    wrap_angle,
    zero_pad,
)
from trackfuse.pooling import integrate


def random_spd(rng: np.random.Generator, dim: int, scale: float = 4.0) -> np.ndarray:
    root = rng.standard_normal((dim, dim))
    return root @ root.T + (0.2 + scale * rng.random()) * np.eye(dim)


def random_gaussian(rng: np.random.Generator, dim: int,
                    mean_scale: float = 5.0) -> GaussianDensity:
    return GaussianDensity(mean_scale * rng.standard_normal(dim),
                           random_spd(rng, dim))


def geometric_norm_const(a: GaussianDensity, b: GaussianDensity, w: float,
                         **quad_kwargs) -> float:
    """Mass of the unnormalized geometric pool ``p_a^w p_b^(1-w)`` by quadrature."""
    def fn(pts):
        return np.exp(w * a.logpdf(pts) + (1.0 - w) * b.logpdf(pts))
    return integrate(fn, [a, b], **quad_kwargs)


@dataclass(frozen=True)
class LinearSensor:
    """Duck-typed stand-in for MeasurementModel with linear ``h(x) = H x``.

    ``matrix`` applies to the leading state entries, mirroring how the real
    sensors read only the position block; trailing entries are unobserved.
    Like the real sensors it takes one state ``[n]`` or a stack ``[..., n]``.
    """

    matrix: np.ndarray
    noise_cov: np.ndarray
    spatial_dims: int = 1
    kind: str = "linear"
    angle_indices: tuple = ()

    @property
    def meas_dim(self) -> int:
        return self.noise_cov.shape[0]

    def measure(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        return (self.matrix @ state[..., : self.matrix.shape[1], None])[..., 0]

    def jacobian(self, state: np.ndarray, state_dim: int | None = None) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if state_dim is None:
            state_dim = state.shape[-1]
        jac = np.zeros(state.shape[:-1] + (self.meas_dim, state_dim))
        jac[..., : self.matrix.shape[1]] = self.matrix
        return jac


@dataclass(frozen=True)
class StubMotion:
    """Duck-typed stand-in for MotionModel with explicit F and Q."""

    transition: np.ndarray
    noise: np.ndarray

    @property
    def state_dim(self) -> int:
        return self.transition.shape[0]


def kalman_chain(mean0, cov0, f, q, h, r, zs):
    """Textbook linear Kalman filter over a fixed measurement sequence.

    Returns the posterior means and covariances after each measurement.
    """
    x = np.array(mean0, dtype=float)
    p = np.array(cov0, dtype=float)
    f, q, h, r = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (f, q, h, r))
    means, covs = [], []
    for z in zs:
        x = f @ x
        p = f @ p @ f.T + q
        s = h @ p @ h.T + r
        gain = p @ h.T @ np.linalg.inv(s)
        x = x + gain @ (np.atleast_1d(z) - h @ x)
        p = (np.eye(x.size) - gain @ h) @ p
        means.append(x.copy())
        covs.append(p.copy())
    return np.asarray(means), np.asarray(covs)


def imm_reference(means0, covs0, probs0, transition, fs, qs, h, r, zs):
    """Reference interacting multiple-model filter from textbook equations.

    Each step expands every mode transition: the incoming mode densities are
    moment-matched per destination mode under the transition-conditioned
    weights, pushed through a plain Kalman predict/update with that mode's
    matrices, and the mode probabilities are reweighted by the Gaussian
    measurement likelihoods. Returns per-step (means, covs, mode_probs).
    """
    n = len(means0)
    means = [np.array(m, dtype=float) for m in means0]
    covs = [np.array(c, dtype=float) for c in covs0]
    mu = np.array(probs0, dtype=float)
    transition = np.asarray(transition, dtype=float)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    history = []
    for z in zs:
        cbar = transition.T @ mu
        new_means, new_covs = [], []
        liks = np.empty(n)
        for j in range(n):
            w = transition[:, j] * mu / cbar[j]
            mix_mean = sum(wi * mi for wi, mi in zip(w, means))
            mix_cov = sum(wi * (ci + np.outer(mi - mix_mean, mi - mix_mean))
                          for wi, mi, ci in zip(w, means, covs))
            x = fs[j] @ mix_mean
            p = fs[j] @ mix_cov @ fs[j].T + qs[j]
            s = h @ p @ h.T + r
            innov = np.atleast_1d(z) - h @ x
            gain = p @ h.T @ np.linalg.inv(s)
            x = x + gain @ innov
            p = (np.eye(x.size) - gain @ h) @ p
            m_dim = innov.size
            liks[j] = (np.exp(-0.5 * innov @ np.linalg.inv(s) @ innov)
                       / np.sqrt((2.0 * np.pi) ** m_dim * np.linalg.det(s)))
            new_means.append(x)
            new_covs.append(p)
        means, covs = new_means, new_covs
        mu = cbar * liks
        mu = mu / np.sum(mu)
        history.append(([m.copy() for m in means], [c.copy() for c in covs],
                        mu.copy()))
    return history


def fd_jacobian(fn, x, step: float = 1e-5, angle_rows: tuple = ()):
    """Central finite-difference Jacobian with per-axis scaled steps.

    Rows listed in ``angle_rows`` are angular outputs; their differences are
    wrapped so a crossing of the +-pi boundary does not corrupt the quotient.
    """
    x = np.asarray(x, dtype=float)
    base = np.atleast_1d(fn(x))
    jac = np.empty((base.size, x.size))
    for k in range(x.size):
        hk = step * max(1.0, abs(x[k]))
        plus, minus = x.copy(), x.copy()
        plus[k] += hk
        minus[k] -= hk
        diff = np.atleast_1d(fn(plus)) - np.atleast_1d(fn(minus))
        for row in angle_rows:
            diff[row] = wrap_angle(diff[row])
        jac[:, k] = diff / (2.0 * hk)
    return jac


def mean_with_batch_se(values: np.ndarray, n_batches: int = 100):
    """Sample mean plus a batched standard-error estimate.

    ``values`` holds one sample per leading index; the mean and its standard
    error are computed entrywise for whatever trailing shape the samples have.
    """
    values = np.asarray(values)
    batches = np.array_split(values, n_batches)
    batch_means = np.stack([np.mean(b, axis=0) for b in batches])
    overall = np.mean(values, axis=0)
    se = np.std(batch_means, axis=0, ddof=1) / np.sqrt(len(batches))
    return overall, se


# Reference copies of the covariance routines as they stood before densities
# kept their Cholesky factor: every call validates and factors afresh.
# The package's versions must reproduce them bit for bit.

def _ref_symmetrize(mat):
    return 0.5 * (mat + mat.T)


def ref_assert_spd(cov):
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise NotPositiveDefinite(f"expected a square matrix, got shape {cov.shape}")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if np.max(np.abs(cov - cov.T)) > 1e-9 * scale:
        raise NotSymmetric("covariance is not symmetric within 1e-9 relative tolerance")
    try:
        chol = np.linalg.cholesky(_ref_symmetrize(cov))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance is not positive definite") from exc
    pivots = np.diag(chol) ** 2
    if np.min(pivots) <= 1e-12 * max(np.max(np.diag(cov)), np.finfo(float).tiny):
        raise NotPositiveDefinite("covariance is numerically singular")
    return chol


def ref_pivot_floor(chol, cov):
    """The pivot floor test as it stood before a passing stack was settled by
    one comparison: each member's smallest squared pivot against its own
    floor, ``1e-12 * max(max(diag), tiny)``."""
    pivots, diag = chol.diagonal(0, -2, -1), cov.diagonal(0, -2, -1)
    if pivots.size == pivots.shape[-1]:
        singular = (pivots * pivots).min() <= 1e-12 * max(diag.max(), np.finfo(float).tiny)
    else:
        floor = 1e-12 * np.maximum(diag.max(axis=-1), np.finfo(float).tiny)
        singular = ((pivots * pivots).min(axis=-1) <= floor).any()
    if singular:
        raise NotPositiveDefinite("covariance is numerically singular")


def ref_factor(cov):
    """The package's ``_factor`` as it stood with :func:`ref_pivot_floor`: the
    stacked Cholesky factor of a symmetric ``[..., d, d]`` stack, or the error
    its first failing member raises alone."""
    def factor(mat):
        if not abs(mat).max(initial=0.0) <= np.finfo(float).max / 2.0:
            raise NotPositiveDefinite(
                "covariance has a non-finite entry or one above half the float maximum")
        try:
            chol = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("covariance is not positive definite") from exc
        ref_pivot_floor(chol, mat)
        return chol

    try:
        return factor(cov)
    except NotPositiveDefinite:
        if cov.ndim == 2:
            raise
    members = cov.reshape((-1,) + cov.shape[-2:])
    return np.array([factor(m) for m in members]).reshape(cov.shape)


def ref_spd_inv(mat):
    chol = ref_assert_spd(mat)
    inv_chol = np.linalg.inv(chol)
    return _ref_symmetrize(inv_chol.T @ inv_chol)


def ref_logpdf(mean, cov, pts):
    """Log density at the rows of ``pts``; ``cov`` is the density's stored covariance."""
    chol = np.linalg.cholesky(cov)
    dev = np.linalg.solve(chol, (pts - mean).T)
    maha = np.sum(dev * dev, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (mean.size * math.log(2.0 * math.pi) + logdet + maha)


def ref_scaled_power_log_scale(cov, w):
    chol = np.linalg.cholesky(cov)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    dim = cov.shape[0]
    return float(0.5 * (1.0 - w) * (dim * math.log(2.0 * math.pi) + logdet)
                 - 0.5 * dim * math.log(w))


# Reference copies of the IMM routines as they stood before the cycle mixed on
# stacked arrays and derived padded and truncated factors: every density goes
# through the public constructor (a full ``assert_spd``), and moment matching
# normalizes a mixture and accumulates ``np.outer`` terms one component at a
# time. The package's versions must reproduce them bit for bit.

def ref_moment_match(weights, means, covs):
    """Old ``moment_match`` on plain arrays; returns ``(mean, cov)``."""
    weights = np.maximum(np.atleast_1d(np.asarray(weights, dtype=float)), 0.0)
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ValueError("cannot normalize a mixture with zero total weight")
    weights = weights / total
    means = np.stack(means)
    mean = weights @ means
    cov = np.zeros((means.shape[1], means.shape[1]))
    for w, comp_mean, comp_cov in zip(weights, means, covs):
        dev = comp_mean - mean
        cov += w * (comp_cov + np.outer(dev, dev))
    return mean, _ref_symmetrize(cov)


def ref_zero_pad(track, target_dim, pad_var):
    extra = target_dim - track.dim
    if extra < 0:
        raise ValueError("cannot pad to a smaller dimension")
    if extra == 0:
        return track
    mean = np.concatenate((track.mean, np.zeros(extra)))
    cov = np.zeros((target_dim, target_dim))
    cov[: track.dim, : track.dim] = track.cov
    cov[track.dim:, track.dim:] = pad_var * np.eye(extra)
    return GaussianDensity(mean, cov)


def ref_truncate_state(track, dim):
    if dim > track.dim:
        raise ValueError("cannot truncate to a larger dimension")
    if dim < 1:
        raise ValueError("cannot truncate to fewer than one state entry")
    if dim == track.dim:
        return track
    return GaussianDensity(track.mean[:dim], track.cov[:dim, :dim])


def ref_ekf_update_with_loglik(track, meas, z):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    jac = meas.jacobian(track.mean, track.dim)
    innov = z - meas.measure(track.mean)
    for idx in meas.angle_indices:
        innov[idx] = wrap_angle(innov[idx])
    s = _ref_symmetrize(jac @ track.cov @ jac.T + meas.noise_cov)
    chol = np.linalg.cholesky(s)
    gain = np.linalg.solve(s, jac @ track.cov).T
    mean = track.mean + gain @ innov
    imkh = np.eye(track.dim) - gain @ jac
    cov = _ref_symmetrize(imkh @ track.cov @ imkh.T + gain @ meas.noise_cov @ gain.T)
    white = np.linalg.solve(chol, innov)
    loglik = -0.5 * (z.size * math.log(2.0 * math.pi)
                     + 2.0 * float(np.sum(np.log(np.diag(chol))))
                     + float(white @ white))
    return GaussianDensity(mean, cov), loglik


def ref_imm_step(state, meas, z):
    """Old ``imm_step``; returns the new ``(densities, mode_probs)``.

    Its stages run over all modes in turn (mixing weights, mixed covariance
    checks, predict and check, update), so a failure raises at the stage
    ``imm_step`` documents for it: a mode whose mixing weights sum to zero
    raises before any mode's mixed covariance is checked.
    """
    n = len(state.models)
    mu = state.mode_probs
    trans = state.transition
    cbar = np.maximum(trans.T @ mu, np.finfo(float).tiny)
    padded = [ref_zero_pad(d, state.max_dim, state.pad_var) for d in state.densities]
    moments = [ref_moment_match(trans[:, j] * mu / cbar[j], [d.mean for d in padded],
                                [d.cov for d in padded])
               for j in range(n)]
    mixed = [GaussianDensity(*m) for m in moments]
    predicted = []
    for mix, model in zip(mixed, state.models):
        mode_track = ref_truncate_state(mix, model.state_dim)
        f = model.transition
        predicted.append(GaussianDensity(f @ mode_track.mean,
                                         _ref_symmetrize(f @ mode_track.cov @ f.T + model.noise)))
    densities, logliks = zip(*(ref_ekf_update_with_loglik(p, meas, z) for p in predicted))
    logliks = np.array(logliks)
    if not np.all(np.isfinite(logliks)):
        raise ModeLikelihoodDegenerate("non-finite mode likelihood")
    log_mu = np.log(cbar) + logliks
    log_mu -= np.max(log_mu)
    new_mu = np.exp(log_mu)
    total = float(np.sum(new_mu))
    new_mu = np.full(n, 1.0 / n) if total <= 0.0 else new_mu / total
    return tuple(densities), new_mu


# Reference copies of the one-density EKF prediction, Gaussian fusion rules
# and NEES as they stood before a density could be a stack over runs: plain
# ``@`` on 1-D operands, the per-pair product and per-component moment match
# above. The package's routines must reproduce them bit for bit, for one
# density and for each member of a stack.

def ref_ekf_predict(track, motion):
    f = motion.transition
    return GaussianDensity(f @ track.mean,
                           _ref_symmetrize(f @ track.cov @ f.T + motion.noise))


def ref_fuse_gmd(a, b, w=0.5):
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"fusion weight must lie in [0, 1], got {w}")
    if w in (0.0, 1.0):
        return a if w else b
    lam_a, lam_b = a.precision, b.precision
    prec = w * lam_a + (1.0 - w) * lam_b
    cov = spd_inv(prec)
    mean = cov @ (w * (lam_a @ a.mean) + (1.0 - w) * (lam_b @ b.mean))
    return GaussianDensity(mean, cov)


def _ref_hmd_parts(a, b, v):
    """The matched pool and the fused mean and covariance at pool weight ``v`` on ``a``."""
    eq = _ref_match(GaussianMixture(np.array([v, 1.0 - v]), (a, b)))
    lam_a, lam_b, lam_eq = a.precision, b.precision, eq.precision
    prec = symmetrize(lam_a + lam_b - lam_eq)
    try:
        cov = spd_inv(prec)
    except (NotPositiveDefinite, NotSymmetric) as exc:
        raise NonPositiveDefiniteResult(
            "harmonic fusion produced a non-positive-definite covariance") from exc
    mean = cov @ (lam_a @ a.mean + lam_b @ b.mean - lam_eq @ eq.mean)
    return eq, mean, cov


def ref_hmd_pair(a, b, v):
    if v == 1.0:
        return b
    if v == 0.0:
        return a
    _, mean, cov = _ref_hmd_parts(a, b, v)
    return GaussianDensity(mean, cov)


def ref_hmd_diagnostics(a, b, v):
    if v in (0.0, 1.0):
        return {"endpoint": True}
    eq, mean, cov = _ref_hmd_parts(a, b, v)
    cov_naive = spd_inv(symmetrize(a.precision + b.precision))
    log_s = float(_ref_factor_logpdf(a.mean, assert_spd(a.cov + b.cov), b.mean[None])[0])
    log_d = -float(_ref_factor_logpdf(mean, assert_spd(cov + eq.cov), eq.mean[None])[0])
    return {"pd_margin": float(np.min(np.linalg.eigvalsh(symmetrize(eq.cov - cov_naive)))),
            "norm_const": float(np.exp(log_s + log_d))}


def ref_fuse_hmd_recursive(inputs, weights):
    weights = np.asarray(weights, dtype=float)
    if len(inputs) != weights.size or weights.size == 0:
        raise ValueError("one positive weight per input required")
    if np.any(weights <= 0.0):
        raise ValueError("recursive fusion weights must be positive")
    if abs(float(np.sum(weights)) - 1.0) > 1e-12:
        raise ValueError("input weights must sum to 1")
    acc = inputs[0]
    running = float(weights[0])
    for k in range(1, weights.size):
        running += float(weights[k])
        acc = ref_hmd_pair(acc, inputs[k], float(weights[k]) / running)
    return acc


def ref_fuse_many(densities, strategy, weights=None):
    n = len(densities)
    if n == 0:
        raise ValueError("nothing to fuse")
    if n == 1:
        return densities[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    weights = np.asarray(weights, dtype=float)
    if strategy == "naive":
        return reduce(lambda a, b: ref_gaussian_product(a, b).density, densities)
    if strategy == "gmd":
        lams = [d.precision for d in densities]
        lam = sum(w * L for w, L in zip(weights, lams))
        info = sum(w * (L @ d.mean) for w, L, d in zip(weights, lams, densities))
        cov = spd_inv(symmetrize(lam))
        return GaussianDensity(cov @ info, cov)
    if strategy == "amd":
        return fuse_amd(list(densities), weights)
    if strategy == "hmd":
        return ref_fuse_hmd_recursive(list(densities), weights)
    raise ValueError(f"unknown fusion strategy: {strategy!r}")


def ref_compute_nees(density, truth_state):
    gauss = _ref_match(density) if isinstance(density, GaussianMixture) else density
    err = gauss.mean - np.asarray(truth_state, dtype=float)[: gauss.dim]
    return float(err @ np.linalg.solve(gauss.cov, err))


def ref_ncv_truth_states(truth, n_steps, dt, rng):
    """Reference copy of the NCV truth as one run drew and stepped it, one
    step's increment at a time; rows are ``[pos, vel]`` for steps 0..n_steps."""
    dims = truth.initial_position.size
    f, q_mat = ncv_matrices(dt, truth.q, dims)
    eigval, eigvec = np.linalg.eigh(q_mat)
    factor = eigvec * np.sqrt(np.maximum(eigval, 0.0))
    states = np.empty((n_steps + 1, 2 * dims))
    states[0] = np.concatenate((truth.initial_position, truth.initial_velocity))
    for k in range(n_steps):
        states[k + 1] = f @ states[k] + factor @ rng.standard_normal(2 * dims)
    return states


# Reference copy of the simulation's EKF path as it stood before the runs of a
# study were stepped together: each run draws its randomness and goes through
# the one-density reference copies above one density at a time. Only the
# aggregation into a report is shared with the package. The batched engine
# must reproduce the report byte for byte.

_CENTRAL = {"centralized", "centralized_cv", "centralized_ca"}


def ref_ekf_run(cfg, run_idx):
    """One run of an EKF study; returns the per-strategy result dicts."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(run_idx,)))
    dims = cfg.sensors[0].spatial_dims
    model = MotionModel("ncv", cfg.dt_s, cfg.tracker.q, dims)
    dim = model.state_dim
    if isinstance(cfg.truth, NcvTruth):
        states = ref_ncv_truth_states(cfg.truth, cfg.n_steps, cfg.dt_s, rng)
    else:
        states = sine_truth_states(cfg.truth, cfg.n_steps, cfg.dt_s)
    truth0 = states[0]
    stds = [cfg.tracker.init_pos_std] * dims + [cfg.tracker.init_vel_std] * dims
    init_cov = np.diag(np.square(stds[:dim]).astype(float))
    init_chol = np.linalg.cholesky(init_cov)
    perturbations = [init_chol @ rng.standard_normal(dim) for _ in cfg.sensors]
    central_pert = init_chol @ rng.standard_normal(dim)
    noise_chols = [np.linalg.cholesky(s.noise_cov) for s in cfg.sensors]
    meas = []
    for k in range(1, cfg.n_steps + 1):
        row = []
        for sensor, chol in zip(cfg.sensors, noise_chols):
            z = sensor.measure(states[k]) + chol @ rng.standard_normal(sensor.meas_dim)
            for idx in sensor.angle_indices:
                z[idx] = wrap_angle(z[idx])
            row.append(z)
        meas.append(row)

    n_fuse = cfg.n_steps // cfg.fusion_every
    locals_by_step = []
    if any(s not in _CENTRAL for s in cfg.strategies):
        current = [GaussianDensity(truth0[:dim] + pert[:dim], init_cov)
                   for pert in perturbations]
        for k in range(1, cfg.n_steps + 1):
            current = [ref_ekf_update_with_loglik(ref_ekf_predict(loc, model), sensor, z)[0]
                       for loc, sensor, z in zip(current, cfg.sensors, meas[k - 1])]
            locals_by_step.append(current)

    results = {}
    for strategy in cfg.strategies:
        pos_sq = np.full(n_fuse, np.nan)
        vel_sq = np.full(n_fuse, np.nan)
        nees = np.full(n_fuse, np.nan)
        slot = 0
        track = center = None
        if strategy in _CENTRAL:
            mean0 = np.concatenate((truth0, np.zeros(max(0, dim - truth0.size))))
            track = GaussianDensity(mean0[:dim] + central_pert[:dim], init_cov)
        for k in range(1, cfg.n_steps + 1):
            if strategy in _CENTRAL:
                track = ref_ekf_predict(track, model)
                for sensor, z in zip(cfg.sensors, meas[k - 1]):
                    track = ref_ekf_update_with_loglik(track, sensor, z)[0]
            if k % cfg.fusion_every:
                continue
            if strategy not in _CENTRAL:
                outputs = list(locals_by_step[k - 1])
                if center is not None:
                    for _ in range(cfg.fusion_every):
                        center = ref_ekf_predict(center, model)
                    outputs = [center] + outputs
                fused = ref_fuse_many(outputs, strategy)
                track = center = (_ref_match(fused)
                                  if isinstance(fused, GaussianMixture) else fused)
            pos_sq[slot] = float(np.sum((track.mean[:dims] - states[k][:dims]) ** 2))
            vel_sq[slot] = float(np.sum(
                (track.mean[dims:2 * dims] - states[k][dims:2 * dims]) ** 2))
            nees[slot] = ref_compute_nees(track, states[k])
            slot += 1
        results[strategy] = {
            "pos_sq": pos_sq,
            "vel_sq": vel_sq,
            "nees": nees,
            "final_pos_err": float(np.sqrt(pos_sq[-1])) if n_fuse else np.inf,
            "fuse_seconds": 0.0,
            "fuse_calls": 0 if strategy in _CENTRAL else n_fuse,
        }
    return results


def ref_ekf_study(cfg):
    """The report of an EKF study run one run at a time."""
    return ref_report(cfg, [ref_ekf_run(cfg, r) for r in range(cfg.runs)])


# Reference copy of the simulation's IMM path and report aggregation as they
# stood before the IMM engine went step-major and the report was built from
# score arrays: each run walks strategy by strategy over a shared pass of the
# locals (or its own pass with feedback) and returns per-run dicts, which the
# report stacks. The package's engine must reproduce the report byte for byte.

def _ref_init_cov(cfg, state_dim, dims):
    tr = cfg.tracker
    stds = [tr.init_pos_std] * dims + [tr.init_vel_std] * dims
    if state_dim == 3 * dims:
        stds += [tr.init_acc_std] * dims
    return np.diag(np.square(stds[:state_dim]).astype(float))


def _ref_draws(cfg, run_idx, state_dim):
    """One run's randomness in the documented order: truth, per-sensor initial
    perturbations, the central perturbation, then measurement noise step by
    step; measurements come as one row of per-sensor vectors per step."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(run_idx,)))
    dims = cfg.sensors[0].spatial_dims
    if isinstance(cfg.truth, NcvTruth):
        states = ref_ncv_truth_states(cfg.truth, cfg.n_steps, cfg.dt_s, rng)
    else:
        states = sine_truth_states(cfg.truth, cfg.n_steps, cfg.dt_s)
    init_chol = np.linalg.cholesky(_ref_init_cov(cfg, state_dim, dims))
    perturbations = [init_chol @ rng.standard_normal(state_dim)
                     for _ in cfg.sensors]
    central_pert = init_chol @ rng.standard_normal(state_dim)
    chols = [np.linalg.cholesky(s.noise_cov) for s in cfg.sensors]
    meas = []
    for k in range(1, cfg.n_steps + 1):
        row = []
        for sensor, chol in zip(cfg.sensors, chols):
            z = sensor.measure(states[k]) + chol @ rng.standard_normal(sensor.meas_dim)
            for idx in sensor.angle_indices:
                z[idx] = wrap_angle(z[idx])
            row.append(z)
        meas.append(row)
    return states, perturbations, central_pert, meas


def _ref_central_mean(truth0, pert, state_dim):
    pad = np.zeros(truth0.shape[:-1] + (max(0, state_dim - truth0.shape[-1]),))
    return np.concatenate((truth0, pad), axis=-1)[..., :state_dim] + pert[..., :state_dim]


def _ref_sq_errors(mean, truth, dims):
    pos = np.sum((mean[..., :dims] - truth[..., :dims]) ** 2, axis=-1)
    vel = np.sum((mean[..., dims:2 * dims] - truth[..., dims:2 * dims]) ** 2, axis=-1)
    return pos, vel


def _ref_run_result(pos_sq, vel_sq, nees, fuse_seconds, fuse_calls):
    return {
        "pos_sq": pos_sq,
        "vel_sq": vel_sq,
        "nees": nees,
        "final_pos_err": float(np.sqrt(pos_sq[-1])),
        "fuse_seconds": fuse_seconds,
        "fuse_calls": fuse_calls,
    }


def ref_imm_run(cfg, run_idx):
    """One run of an IMM study; returns the per-strategy result dicts."""
    dims = cfg.sensors[0].spatial_dims
    ncv = MotionModel("ncv", cfg.dt_s, cfg.tracker.q_ncv, dims)
    nca = MotionModel("nca", cfg.dt_s, cfg.tracker.q_nca, dims)
    states, perturbations, central_pert, meas = _ref_draws(cfg, run_idx, nca.state_dim)
    truth0 = states[0]
    cov_nca = _ref_init_cov(cfg, nca.state_dim, dims)
    cov_ncv = cov_nca[: ncv.state_dim, : ncv.state_dim]

    def init_locals():
        locals_ = []
        for pert in perturbations:
            full_mean = _ref_central_mean(truth0, pert, nca.state_dim)
            dens = (GaussianDensity(full_mean[: ncv.state_dim], cov_ncv),
                    GaussianDensity(full_mean, cov_nca))
            locals_.append(ImmState(dens, np.full(2, 0.5), (ncv, nca),
                                    cfg.tracker.transition, cfg.tracker.pad_var))
        return locals_

    def step_locals(locals_, k):
        return [imm_step(loc, sensor, z)
                for loc, sensor, z in zip(locals_, cfg.sensors, meas[k - 1])]

    n_fuse = cfg.n_steps // cfg.fusion_every

    # Without feedback the local banks do not depend on the strategy, so the
    # filtering pass is shared across strategies.
    locals_by_step = None
    if any(s not in _CENTRAL for s in cfg.strategies) and not cfg.feedback:
        locals_by_step = []
        current = init_locals()
        for k in range(1, cfg.n_steps + 1):
            current = step_locals(current, k)
            locals_by_step.append(current)

    results = {}
    for strategy in cfg.strategies:
        pos_sq = np.full(n_fuse, np.nan)
        vel_sq = np.full(n_fuse, np.nan)
        nees = np.full(n_fuse, np.nan)
        fuse_seconds = 0.0
        fuse_calls = 0
        central = strategy in _CENTRAL
        if central:
            model = nca if strategy == "centralized_ca" else ncv
            track = GaussianDensity(_ref_central_mean(truth0, central_pert, model.state_dim),
                                    _ref_init_cov(cfg, model.state_dim, dims))
        elif locals_by_step is None:
            locals_ = init_locals()
        slot = 0
        for k in range(1, cfg.n_steps + 1):
            if central:
                track = ekf_predict(track, model)
                for sensor, z in zip(cfg.sensors, meas[k - 1]):
                    track = ekf_update(track, sensor, z)
            elif locals_by_step is not None:
                locals_ = locals_by_step[k - 1]
            else:
                locals_ = step_locals(locals_, k)
            if k % cfg.fusion_every:
                continue
            if not central:
                outputs = [imm_output(loc) for loc in locals_]
                tic = time.perf_counter()
                fused = fuse_pair(outputs[0], outputs[1], strategy, cfg.omega)
                fuse_seconds += time.perf_counter() - tic
                fuse_calls += 1
                if cfg.feedback:
                    locals_ = [route_feedback(loc, fused, idx)
                               for idx, loc in enumerate(locals_)]
                elif fused.n_components > cfg.prune_to:
                    fused = prune_mixture(fused, cfg.prune_to)
                track = moment_match(fused)
            pos_sq[slot], vel_sq[slot] = _ref_sq_errors(track.mean, states[k], dims)
            nees[slot] = compute_nees(truncate_state(track, 2 * dims), states[k])
            slot += 1

        results[strategy] = _ref_run_result(pos_sq, vel_sq, nees, fuse_seconds, fuse_calls)
    return results


def ref_imm_study(cfg):
    """The report of an IMM study run one run at a time."""
    return ref_report(cfg, [ref_imm_run(cfg, r) for r in range(cfg.runs)])


def ref_report(cfg, per_run):
    """Aggregate per-run results (in run order) into the study's report."""
    fusion_steps = np.array([k for k in range(1, cfg.n_steps + 1)
                             if k % cfg.fusion_every == 0])
    times = fusion_steps * cfg.dt_s
    dims = cfg.sensors[0].spatial_dims
    # NEES scores position and velocity: the whole state of an EKF track and
    # the leading marginal of an IMM estimate.
    nees_dim = 2 * dims

    metrics = {}
    timing = {}
    for name in cfg.strategies:
        runs = [r[name] for r in per_run]
        loss_rate = track_loss_rate([r["final_pos_err"] for r in runs],
                                    cfg.track_loss_m)
        kept = [r for r in runs if r["final_pos_err"] < cfg.track_loss_m]
        n_lost = len(runs) - len(kept)
        excluded = np.full(fusion_steps.size, n_lost, dtype=int)
        if kept:
            pos = np.sqrt(np.mean([r["pos_sq"] for r in kept], axis=0))
            vel = np.sqrt(np.mean([r["vel_sq"] for r in kept], axis=0))
            nees = np.mean([r["nees"] for r in kept], axis=0)
            lo, hi = nees_bounds(len(kept), nees_dim, cfg.nees_sided)
        else:
            pos = vel = nees = np.full(fusion_steps.size, np.nan)
            lo, hi = np.nan, np.nan
        calls = sum(r["fuse_calls"] for r in runs)
        timing[name] = (sum(r["fuse_seconds"] for r in runs) / calls
                        if calls else None)
        metrics[name] = StrategyMetrics(pos, vel, nees, lo, hi, loss_rate,
                                        excluded)
    return MetricsReport(cfg.name, cfg.runs, fusion_steps, times,
                         cfg.strategies, metrics, timing)


# Reference copies of the mixture rules and feedback routing as they stood
# before every cross pair of a fusion went through one stacked kernel: each
# pair is multiplied, gap-tested and divided on its own, each result density
# goes through the public constructor, and moment matching is the old
# per-component loop. The package's rules must reproduce them bit for bit.

def _ref_factor_logpdf(mean, chol, pts):
    dev = np.linalg.solve(chol, (pts - mean).T)
    maha = (dev * dev).sum(axis=0)
    return -0.5 * (mean.size * math.log(2.0 * math.pi)
                   + 2.0 * np.log(chol.diagonal()).sum() + maha)


def _ref_match(mixture):
    return GaussianDensity(*ref_moment_match(
        mixture.weights, [c.mean for c in mixture.components],
        [c.cov for c in mixture.components]))


def ref_gaussian_product(a, b):
    if a.dim != b.dim:
        raise ValueError("operands must share one dimension")
    sum_cov = a.cov + b.cov
    gain = np.linalg.solve(sum_cov, np.column_stack((b.mean - a.mean, b.cov)))
    mean = a.mean + a.cov @ gain[:, 0]
    cov = symmetrize(a.cov @ gain[:, 1:])
    log_scale = float(_ref_factor_logpdf(a.mean, assert_spd(sum_cov), b.mean[None])[0])
    return ScaledGaussian(log_scale, GaussianDensity(mean, cov))


def ref_gaussian_division(num, den):
    if num.dim != den.dim:
        raise ValueError("operands must share one dimension")
    gap = symmetrize(den.cov - num.cov)
    try:
        assert_spd(gap)
    except (NotSymmetric, NotPositiveDefinite) as exc:
        raise NonPositiveDefiniteResult(
            "division requires the numerator precision to exceed the denominator's"
        ) from exc
    cov = symmetrize(num.cov + num.cov @ np.linalg.solve(gap, num.cov))
    info_mean = np.linalg.solve(num.cov, num.mean) - np.linalg.solve(den.cov, den.mean)
    mean = cov @ info_mean
    log_scale = -float(_ref_factor_logpdf(mean, assert_spd(cov + den.cov), den.mean[None])[0])
    return ScaledGaussian(log_scale, GaussianDensity(mean, cov))


def _ref_pair_tag(mix_a, i, mix_b, j):
    if mix_a.tags is None and mix_b.tags is None:
        return None
    ta = mix_a.tags[i] if mix_a.tags is not None else ""
    tb = mix_b.tags[j] if mix_b.tags is not None else ""
    return f"{ta}|{tb}"


def _ref_as_mixture(d):
    if isinstance(d, GaussianMixture):
        return d.normalized()
    return GaussianMixture(np.array([1.0]), (d,))


def _ref_weighted(log_w, comps, tags):
    log_w = np.asarray(log_w)
    wts = np.exp(log_w - np.max(log_w))
    return GaussianMixture(wts / np.sum(wts), tuple(comps),
                           tuple(tags) if tags[0] is not None else None)


def ref_mixture_product(a, b):
    log_w, comps, tags = [], [], []
    for i in range(a.n_components):
        for j in range(b.n_components):
            prod = ref_gaussian_product(a.components[i], b.components[j])
            log_w.append(np.log(max(a.weights[i] * b.weights[j],
                                    np.finfo(float).tiny)) + prod.log_scale)
            comps.append(prod.density)
            tags.append(_ref_pair_tag(a, i, b, j))
    return _ref_weighted(log_w, comps, tags)


def ref_fuse_pcf(a, b, w=0.5):
    mix_a, mix_b = _ref_as_mixture(a), _ref_as_mixture(b)
    if w == 1.0:
        return mix_a
    if w == 0.0:
        return mix_b

    def powered(mix, p):
        log_w, comps = [], []
        for wt, c in zip(mix.weights, mix.components):
            log_w.append(p * np.log(max(wt, np.finfo(float).tiny))
                         + ref_scaled_power_log_scale(c.cov, p))
            comps.append(GaussianDensity(c.mean, c.cov / p))
        return log_w, comps

    lw_a, comp_a = powered(mix_a, w)
    lw_b, comp_b = powered(mix_b, 1.0 - w)
    log_w, comps, tags = [], [], []
    for i in range(len(comp_a)):
        for j in range(len(comp_b)):
            prod = ref_gaussian_product(comp_a[i], comp_b[j])
            log_w.append(lw_a[i] + lw_b[j] + prod.log_scale)
            comps.append(prod.density)
            tags.append(_ref_pair_tag(mix_a, i, mix_b, j))
    return _ref_weighted(log_w, comps, tags)


REF_PAIR_GAP_RTOL = 1e-6


def ref_pair_quotient(num, eq, mix_a, mix_b, i, j, w):
    """Divide one cross product by the pool, or by the pair's own pool when
    the gap ``C_eq - C_num`` fails the eigenvalue test; returns the quotient
    and whether the pair's own pool served."""
    gap_eigs = np.linalg.eigvalsh(symmetrize(eq.cov - num.cov))
    if gap_eigs[0] > REF_PAIR_GAP_RTOL * gap_eigs[-1]:
        return ref_gaussian_division(num, eq), False
    wa = (1.0 - w) * float(mix_a.weights[i])
    wb = w * float(mix_b.weights[j])
    local = _ref_match(GaussianMixture(
        np.array([wa, wb]) / (wa + wb),
        (mix_a.components[i], mix_b.components[j])))
    return ref_gaussian_division(num, local), True


def ref_fuse_hmd_mixture(a, b, w=0.5, fallbacks=None):
    """Old ``fuse_hmd_mixture``; appends each pair's fallback flag to
    ``fallbacks`` when given."""
    mix_a, mix_b = _ref_as_mixture(a), _ref_as_mixture(b)
    if w == 1.0:
        return mix_a
    if w == 0.0:
        return mix_b
    pool_w = np.concatenate(((1.0 - w) * mix_a.weights, w * mix_b.weights))
    eq = _ref_match(GaussianMixture(pool_w, tuple(mix_a.components) + tuple(mix_b.components)))
    log_w, comps, tags = [], [], []
    for i in range(mix_a.n_components):
        for j in range(mix_b.n_components):
            prod = ref_gaussian_product(mix_a.components[i], mix_b.components[j])
            quot, fell_back = ref_pair_quotient(prod.density, eq, mix_a, mix_b, i, j, w)
            if fallbacks is not None:
                fallbacks.append(fell_back)
            log_w.append(np.log(max(mix_a.weights[i] * mix_b.weights[j],
                                    np.finfo(float).tiny))
                         + prod.log_scale + quot.log_scale)
            comps.append(quot.density)
            tags.append(_ref_pair_tag(mix_a, i, mix_b, j))
    return _ref_weighted(log_w, comps, tags)


def ref_route_feedback(state, fed, operand_idx):
    if fed.tags is None:
        raise ValueError("feedback mixture must carry provenance tags")
    groups = {}
    for k, tag in enumerate(fed.tags):
        fields = tag.split("|")
        if operand_idx >= len(fields):
            raise ValueError("provenance tag has no field for this operand")
        if fields[operand_idx]:
            groups.setdefault(fields[operand_idx], []).append(k)
    keep_w, keep_c = [], []
    for m, model in enumerate(state.models):
        idx = groups.get(model.kind)
        if idx:
            group_w = fed.weights[idx]
            group = GaussianMixture(group_w / np.sum(group_w),
                                    tuple(fed.components[k] for k in idx))
            keep_w.append(float(np.sum(group_w)))
            keep_c.append(_ref_match(group))
        else:
            keep_w.append(float(state.mode_probs[m]))
            keep_c.append(zero_pad(state.densities[m], state.max_dim, state.pad_var))
    prepared = GaussianMixture(np.asarray(keep_w), tuple(keep_c),
                               tuple(m.kind for m in state.models)).normalized()
    return apply_feedback(state, prepared)


# Reference copies of the mixture code as it stood when a mixture held a tuple
# of component densities: evaluation, pruning and the arithmetic mean walk the
# components one at a time, and moment matching stacks them first. Only how
# they read ``.components`` and ``.weights`` is adjusted (component ``k`` is
# ``[..., k]`` of the stack, its weight ``weights[..., k]``). The package's
# versions must reproduce them bit for bit.

def ref_mixture_pdf(mixture, x):
    vals = [w * c.pdf(x) for w, c in zip(mixture.weights, mixture.components)]
    return np.sum(vals, axis=0)


def ref_mixture_logpdf(mixture, x):
    logs = np.stack(
        [np.log(max(w, np.finfo(float).tiny)) + c.logpdf(x)
         for w, c in zip(mixture.weights, mixture.components)]
    )
    peak = np.max(logs, axis=0)
    return peak + np.log(np.sum(np.exp(logs - peak), axis=0))


def ref_prune_mixture(mixture, target_count):
    if target_count < 1:
        raise ValueError("target_count must be at least 1")
    if mixture.n_components <= target_count:
        return mixture.normalized()
    traces = np.array([np.trace(c.cov) for c in mixture.components])
    order = np.lexsort((traces, -mixture.weights))[:target_count]
    keep = np.sort(order)
    tags = tuple(mixture.tags[k] for k in keep) if mixture.tags is not None else None
    pruned = GaussianMixture(mixture.weights[keep],
                             tuple(mixture.components[k] for k in keep), tags)
    return pruned.normalized()


def _ref_provenance(n_operands, position, model_tag):
    fields = [""] * n_operands
    fields[position] = model_tag
    return "|".join(fields)


def ref_fuse_amd(inputs, weights):
    weights = np.asarray(weights, dtype=float)
    if len(inputs) != weights.size:
        raise ValueError("one weight per input required")
    if abs(float(np.sum(weights)) - 1.0) > 1e-12:
        raise ValueError("input weights must sum to 1")
    n_inputs = len(inputs)
    out_w, out_c, out_t = [], [], []
    any_tags = False
    for pos, (wt, inp) in enumerate(zip(weights, inputs)):
        norm = _ref_as_mixture(inp)
        for k in range(norm.n_components):
            out_w.append(wt * norm.weights[..., k])
            out_c.append(norm.components[..., k])
            src = norm.tags[k] if norm.tags is not None else ""
            out_t.append(_ref_provenance(n_inputs, pos, src))
            any_tags = any_tags or norm.tags is not None
    tags = tuple(out_t) if any_tags else None
    return GaussianMixture(np.stack(out_w, axis=-1), tuple(out_c), tags)


def ref_stacked_moment_match(mixture):
    comps = [mixture.components[..., k] for k in range(mixture.n_components)]
    return GaussianDensity(*_ref_mixture_moments(mixture.weights,
                                                 np.stack([c.mean for c in comps], axis=-2),
                                                 np.stack([c.cov for c in comps], axis=-3)))


def _ref_mixture_moments(weights, means, covs):
    total = weights.sum(axis=-1, keepdims=True)
    if not (total > 0.0).all():
        raise ValueError("cannot normalize a mixture with zero total weight")
    weights = weights / total
    mean = (weights[..., None, :] @ means)[..., 0, :]
    dev = means - mean[..., None, :]
    terms = weights[..., None, None] * (covs + dev[..., :, None] * dev[..., None, :])
    cov = np.zeros(terms.shape[:-3] + terms.shape[-2:])
    for m in range(weights.shape[-1]):
        cov += terms[..., m, :, :]
    return mean, symmetrize(cov)
