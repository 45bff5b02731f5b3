"""Monte Carlo simulation of distributed tracking with track-to-track fusion.

Each run draws its random material (NCV truth, initial perturbations,
measurement noise) up front from its own seed, spawned from the master seed,
and every strategy is evaluated on it (common random numbers). A study
computes the sine truth once and measures each sensor kind in one call.

One engine runs both tracker kinds. It takes the configuration, steps all
its runs together (the locals, then the centralized tracks, then each
strategy's fusion) holding only the current banks, and returns each
strategy's scores as ``[3, runs, fusion steps]`` arrays. Each sensor's local
tracker (an EKF's GaussianDensity or an ImmState), the centralized tracks and
every scored track are stacks over the runs, passed through the same public
functions a single run uses, so the report is byte-identical to stepping each
run on its own. An IMM study's NCV and NCA centralized tracks step as one
zero-padded ``[runs, 2, D]`` stack, as the IMM steps its modes. Only the
local step and the fusion step depend on the tracker: EKF locals are fused by
``fuse_many``, the IMM locals' mixtures from one prepared fusion pair per
bank and fusion step, all strategies' results then pruned and matched as
one stack.
NEES is scored on each track's leading position-velocity marginal.

Estimation quality is reported at fusion instants: position/velocity RMSE
across runs and the average normalized estimation error squared (NEES) with
chi-square consistency bounds. Runs whose final fused position error exceeds
the track-loss threshold count as lost and are excluded from the error
aggregates (the exclusion count is reported per step).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotPositiveDefinite, NotSymmetric
from .filters import (
    ImmState,
    _PaddedModes,
    ekf_predict,
    ekf_update,
    imm_output,
    imm_step,
    prune_mixture,
    route_feedback,
    truncate_state,
    zero_pad,
)
from .fusion import _MIXTURE_RULES, _Pair, fuse_many
from .gaussians import (GaussianDensity, GaussianMixture, _joined, _matvec, _scalar,
                        assert_spd, moment_match)
from .models import MeasurementModel, MotionModel, wrap_angle
from .scenarios import (
    ImmTracker,
    NcvTruth,
    ScenarioConfig,
    SineTruth,
    ncv_truth_states,
    sine_truth_states,
)

__all__ = [
    "StrategyMetrics",
    "MetricsReport",
    "compute_nees",
    "nees_bounds",
    "track_loss_rate",
    "run_scenario",
]

CSV_HEADER = "step,time_s,strategy,rmse_pos_m,rmse_vel_mps,nees,nees_lo,nees_hi"

_CENTRAL = {"centralized": "ncv", "centralized_cv": "ncv", "centralized_ca": "nca"}
# The strategies each engine runs: the EKF engine fuses stacked Gaussians
# through ``fuse_many`` and runs every centralized track with NCV; the IMM
# engine fuses mixtures from prepared pairs by ``fuse_pair``'s mixture rules.
_EKF_STRATEGIES = ("centralized", "centralized_cv", "naive", "gmd", "amd", "hmd")
_IMM_STRATEGIES = _EKF_STRATEGIES + ("centralized_ca", "pcf")


def nees_bounds(n_runs: int, dim: int, sided: int = 2,
                alpha: float = 0.05) -> tuple[float, float]:
    """Chi-square bounds for the run-averaged NEES of a consistent estimator.

    ``sided=2`` puts ``alpha / 2`` in each tail; ``sided=1`` gives the bounds
    ``(0, upper)`` with ``alpha`` in the upper tail. ``n_runs`` and ``dim``
    must be positive and ``alpha`` must lie in (0, 1); anything else raises
    ``ValueError``.
    """
    if sided not in (1, 2):
        raise ValueError(f"sided must be 1 or 2, got {sided!r}")
    if not (n_runs >= 1 and dim >= 1):
        raise ValueError(f"need at least one run and one dimension, got {n_runs} and {dim}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    # chi2.ppf's own formula, 2 gammaincinv(dof / 2, q). scipy.special loads
    # here, with the first report a process builds, not with the package:
    # fusion, density I/O and config loading need numpy alone.
    from scipy.special import gammaincinv

    q = (alpha / 2.0, 1.0 - alpha / 2.0) if sided == 2 else (0.0, 1.0 - alpha)
    lo, hi = 2 * gammaincinv(n_runs * dim / 2, q) / n_runs
    return float(lo), float(hi)


def track_loss_rate(final_errors, tau: float) -> float:
    """Fraction of runs whose final position error reaches the threshold ``tau``
    or is not finite.

    Runs counted here are the diverged ones; they are excluded from the RMSE
    and NEES aggregates. No errors, or a ``tau`` that is not positive, raise
    ``ValueError``.
    """
    errors = np.asarray(final_errors, dtype=float)
    if errors.size == 0:
        raise ValueError("no runs to score")
    if not tau > 0.0:  # NaN fails the comparison
        raise ValueError(f"loss threshold must be positive, got {tau}")
    return float(np.count_nonzero(_lost(errors, tau))) / errors.size


def _lost(final_errors: np.ndarray, tau: float) -> np.ndarray:
    """Which runs are lost: a final error of at least ``tau``, or NaN."""
    return ~(final_errors < tau)


def compute_nees(density, truth_state: np.ndarray) -> float:
    """NEES of a ``d``-dimensional estimate (mixtures moment-matched) against
    the leading ``d`` entries of the true state; for a stacked density, one
    value per member against ``truth_state[..., :d]``."""
    gauss = moment_match(density) if isinstance(density, GaussianMixture) else density
    err = gauss.mean - np.asarray(truth_state, dtype=float)[..., :gauss.dim]
    return _scalar((err[..., None, :] @ np.linalg.solve(gauss.cov, err[..., None]))[..., 0, 0])


@dataclass(frozen=True)
class StrategyMetrics:
    """Per-strategy aggregates over the surviving runs, one entry per fusion step."""

    rmse_pos: np.ndarray
    rmse_vel: np.ndarray
    nees: np.ndarray
    nees_lo: float
    nees_hi: float
    track_loss_rate: float
    excluded: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Monte Carlo report: per-step aggregates plus scenario-level summary.

    ``timing`` (mean seconds per fusion call, per strategy) is wall-clock and
    therefore not covered by the determinism guarantee; everything else is a
    pure function of the configuration and master seed. Work that strategies
    share (without feedback, an IMM study's prepared pair) is counted once,
    in the first strategy that reads it.
    """

    scenario: str
    runs: int
    steps: np.ndarray
    times: np.ndarray
    strategies: tuple[str, ...]
    metrics: dict
    timing: dict

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for i, step in enumerate(self.steps):
            for name in self.strategies:
                m = self.metrics[name]
                fields = (m.rmse_pos[i], m.rmse_vel[i], m.nees[i], m.nees_lo, m.nees_hi)
                lines.append(",".join([str(int(step)), _fmt(self.times[i]), name]
                                      + [_fmt(v) for v in fields]))
        return "\n".join(lines) + "\n"

    def summary_dict(self, include_timing: bool = True) -> dict:
        out = {
            "scenario": self.scenario,
            "runs": self.runs,
            "fusion_steps": [int(s) for s in self.steps],
            "track_loss": {name: self.metrics[name].track_loss_rate
                           for name in self.strategies},
            "excluded_runs": {name: int(self.metrics[name].excluded[0])
                              for name in self.strategies},
            "steady_state_rmse_pos_m": {
                name: _steady_state(self.metrics[name].rmse_pos)
                for name in self.strategies},
        }
        if include_timing:
            out["timing"] = {name: (None if val is None else float(val))
                             for name, val in self.timing.items()}
        return out


def _fmt(value) -> str:
    return "nan" if value is None or not np.isfinite(value) else format(float(value), ".10g")


def _steady_state(rmse: np.ndarray):
    tail = rmse[-20:]
    finite = tail[np.isfinite(tail)]
    return float(np.mean(finite)) if finite.size else None


def _init_cov(cfg: ScenarioConfig, state_dim: int, dims: int) -> np.ndarray:
    tr = cfg.tracker
    stds = [tr.init_pos_std] * dims + [tr.init_vel_std] * dims
    if state_dim == 3 * dims:
        stds += [tr.init_acc_std] * dims
    return np.diag(np.square(stds[:state_dim]).astype(float))


def _draws(cfg: ScenarioConfig, run_idx: int, state_dim: int) -> tuple:
    """One run's random material from its own seed sequence, in the documented
    order: the NCV truth's ``[n_steps, 2 dims]`` noise (``None`` for the sine
    path), the ``[sensors + 1, d]`` initial perturbations (the central one
    last), then the ``[n_steps, Σm]`` measurement noise step by step, each
    step's sensors in order; numpy's ``Generator`` draws normals one by one,
    so array draws keep that order."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(run_idx,)))
    truth = (rng.standard_normal((cfg.n_steps, 2 * cfg.truth.initial_position.size))
             if isinstance(cfg.truth, NcvTruth) else None)
    perts = rng.standard_normal((len(cfg.sensors) + 1, state_dim))
    return truth, perts, rng.standard_normal((cfg.n_steps, sum(s.meas_dim for s in cfg.sensors)))


def _measurements(cfg: ScenarioConfig, truth: np.ndarray, white: np.ndarray) -> list:
    """Per sensor kind, in order of first sensor: its sensors' indices, their
    stacked model and ``[R, n_steps, S, m]`` measurements of ``truth[:, 1:]``
    from one ``measure`` call, each sensor's noise its own columns of ``white``."""
    cols = np.cumsum([0] + [s.meas_dim for s in cfg.sensors])
    kinds = []
    for kind in dict.fromkeys(s.kind for s in cfg.sensors):
        idx = [s for s, sensor in enumerate(cfg.sensors) if sensor.kind == kind]
        model = MeasurementModel(kind, np.stack([cfg.sensors[s].position for s in idx]),
                                 np.stack([cfg.sensors[s].noise_cov for s in idx]))
        noise = np.stack([white[..., cols[s]:cols[s + 1]] for s in idx], axis=2)
        z = model.measure(truth[:, 1:, None]) + _matvec(np.linalg.cholesky(model.noise_cov), noise)
        z[..., list(model.angle_indices)] = wrap_angle(z[..., list(model.angle_indices)])
        kinds.append((idx, model, z))
    return kinds


def _score(tracks: list, truth: np.ndarray, dims: int) -> np.ndarray:
    """Squared position and velocity errors and the NEES of the
    position-velocity marginal of each of ``tracks`` (stacks over the runs),
    scored as one stack: ``[3, runs, len(tracks)]``."""
    track = _joined([truncate_state(t, 2 * dims) for t in tracks], np.stack)
    truth = truth[:, None, :2 * dims]
    pos = np.sum((track.mean[..., :dims] - truth[..., :dims]) ** 2, axis=-1)
    vel = np.sum((track.mean[..., dims:] - truth[..., dims:]) ** 2, axis=-1)
    return np.array([pos, vel, compute_nees(track, truth)])


def _run_study(cfg: ScenarioConfig) -> dict:
    """All runs of a study, stepped together from material drawn up front.

    Each step advances the local banks, each ``list[sensor]`` of stacks over
    the runs, then the centralized tracks, then, at a fusion step, every
    distributed strategy's fusion. Without feedback one bank of locals
    serves every distributed strategy; with feedback each routes into a bank
    of its own. An EKF bank steps each sensor kind's locals as one
    ``[runs, sensors, d]`` stack against the kind's stacked sensor model. An
    EKF fusion centre folds its predicted last fused track in as one more
    operand: that track carries the locals' history, so re-fusing the locals
    double-counts unless the rule accounts for it, which is what separates
    the conservative rules from the naive product. The centres predict as
    one ``[runs, strategies, d]`` stack. The centralized tracks of two
    models step as one ``[runs, models, D]`` stack, the NCV one zero-padded
    and stepped by its padded model as ``imm_step`` steps its modes (and so
    facing ``zero_pad``'s floor); one model's track steps as ``[runs, d]``
    with the model itself. An IMM bank's outputs are prepared as one fusion
    pair per fusion step, which every strategy of the bank fuses from, and
    with feedback each result is routed into its strategy's bank; then the fused
    mixtures of one component count are pruned (without feedback) and
    moment-matched as one ``[runs, strategies, K, D]`` stack. All
    strategies score as one stack. The error raised is the first by step,
    then by stage (an EKF bank's kinds in order of first sensor, each
    predicted before it is updated; an IMM bank by sensor; the centralized
    tracks' prediction, then their update by each sensor; the centres;
    fusion and routing by strategy, a routed mode whose padding fails
    raising at its routing; after every strategy has fused and routed, the
    stacked prune and match), then the stack's first failing check, members
    in (run, sensor), (run, model) or (run, strategy) order.
    Returns, per strategy, the scores, the seconds spent fusing and the
    fusion calls.
    """
    imm = isinstance(cfg.tracker, ImmTracker)
    dims = cfg.sensors[0].spatial_dims
    models = _models(cfg)
    top = models[-1].state_dim
    n_runs, n_fuse = cfg.runs, cfg.n_steps // cfg.fusion_every
    truth, perts, white = zip(*(_draws(cfg, r, top) for r in range(n_runs)))
    # [R, n_steps + 1, 2 dims]: the NCV truth of every run in one recursion, or
    # the deterministic sine path, one path serving every run.
    states = (np.stack((sine_truth_states(cfg.truth, cfg.n_steps, cfg.dt_s),) * n_runs)
              if isinstance(cfg.truth, SineTruth) else
              ncv_truth_states(cfg.truth, np.stack(truth), cfg.dt_s))
    # [R, sensors + 1, top]: the truth, zero-padded, plus the initial perturbations.
    starts = _matvec(np.linalg.cholesky(_init_cov(cfg, top, dims)), np.stack(perts))
    starts[..., :states.shape[-1]] += states[:, None, 0]
    kinds = _measurements(cfg, states, np.stack(white))
    meas = {s: z[:, :, j] for idx, _, z in kinds for j, s in enumerate(idx)}  # [R, n_steps, m]

    strategies = cfg.strategies
    # The tracks scored: one centralized track per motion model, which each of
    # its centralized strategies scores, and each fusion centre's last fused track.
    track_of = {name: _CENTRAL.get(name, name) for name in strategies}
    central = tuple(m for m in models if m.kind in track_of.values())
    cov0 = np.broadcast_to(_init_cov(cfg, top, dims), (n_runs, top, top))
    own = [GaussianDensity(starts[:, -1, :m.state_dim], cov0[:, :m.state_dim, :m.state_dim])
           for m in central]
    # An IMM study's NCV and NCA tracks step as one [R, C, D] stack, each
    # zero-padded and stepped by its padded model as imm_step steps its modes;
    # one model's track steps as [R, d] with the model itself.
    if len(central) > 1:
        central_stack = _joined([zero_pad(t, top, cfg.tracker.pad_var) for t in own], np.stack)
        motion, lead = _PaddedModes.of(central, cfg.tracker.pad_var), (slice(None), None)
    elif central:
        central_stack, motion, lead = own[0], central[0], (slice(None),)
    tracks = {}
    distributed = [name for name in strategies if name not in _CENTRAL]
    bank_of = {name: name if cfg.feedback else distributed[0] for name in distributed}
    banks = {key: [_imm_prior(cfg, models, starts[:, s]) if imm else
                   GaussianDensity(starts[:, s], cov0) for s in range(len(cfg.sensors))]
             for key in dict.fromkeys(bank_of.values())}
    scores = np.full((3, n_runs, len(strategies), n_fuse), np.nan)
    fuse_seconds = dict.fromkeys(strategies, 0.0)
    for k in range(1, cfg.n_steps + 1):
        zs = [meas[s][:, k - 1] for s in range(len(cfg.sensors))]
        for key, bank in banks.items():
            if imm:
                banks[key] = [imm_step(*args) for args in zip(bank, cfg.sensors, zs)]
                continue
            for idx, model, z in kinds:
                joint = _joined([bank[s] for s in idx], np.stack)
                joint = ekf_update(ekf_predict(joint, models[0]), model, z[:, k - 1])
                for j, s in enumerate(idx):
                    bank[s] = joint[:, j]
        if central:
            central_stack = ekf_predict(central_stack, motion)
            for sensor, z in zip(cfg.sensors, zs):
                central_stack = ekf_update(central_stack, sensor, z[lead])
        if k % cfg.fusion_every:
            continue
        slot = k // cfg.fusion_every - 1
        tracks.update((m.kind, central_stack if len(central) == 1 else
                       truncate_state(central_stack[:, c], m.state_dim))
                      for c, m in enumerate(central))
        outputs = {key: [imm_output(loc) for loc in bank]
                   for key, bank in banks.items()} if imm else {}
        # Every EKF fusion centre has a last fused track after the first fusion step.
        centres = [] if imm else [name for name in distributed if name in tracks]
        if centres:
            joint = _joined([tracks[name] for name in centres], np.stack)
            for _ in range(cfg.fusion_every):
                joint = ekf_predict(joint, models[0])
            tracks.update((name, joint[:, i]) for i, name in enumerate(centres))
        fused, pairs = {}, {}
        for name in distributed:
            if imm:
                # One prepared pair per bank: its first reader pays for what it builds.
                tic = time.perf_counter()
                key = bank_of[name]
                if key not in pairs:
                    pairs[key] = _Pair(*outputs[key])
                fused[name] = _MIXTURE_RULES[name](pairs[key], cfg.omega)
                fuse_seconds[name] += time.perf_counter() - tic
                if cfg.feedback:
                    banks[name] = [route_feedback(loc, fused[name], idx)
                                   for idx, loc in enumerate(banks[name])]
            else:
                operands = banks[bank_of[name]]
                if name in centres:
                    operands = [tracks[name]] + operands
                tic = time.perf_counter()
                track = fuse_many(operands, name)
                # amd's mixture is scored and carried forward moment-matched.
                tracks[name] = moment_match(track) if isinstance(track, GaussianMixture) else track
                fuse_seconds[name] += time.perf_counter() - tic
        # The fused mixtures of one component count (two 2-mode locals give 4
        # under every rule; pcf and hmd give one operand's 2 at an omega
        # endpoint) are pruned and matched as one [runs, strategies, K, D] stack.
        for count in dict.fromkeys(mix.n_components for mix in fused.values()):
            names = [name for name, mix in fused.items() if mix.n_components == count]
            stack = GaussianMixture._view(
                np.stack([fused[name].weights for name in names], axis=-2),
                _joined([fused[name].components for name in names], np.stack, axis=-2))
            if not cfg.feedback and count > cfg.prune_to:
                stack = prune_mixture(stack, cfg.prune_to)
            matched = moment_match(stack)
            tracks.update((name, matched[:, i]) for i, name in enumerate(names))
        scores[..., slot] = _score([tracks[track_of[n]] for n in strategies], states[:, k], dims)

    return {name: (scores[:, :, i], fuse_seconds[name],
                   0 if name in _CENTRAL else n_runs * n_fuse)
            for i, name in enumerate(strategies)}


def _models(cfg: ScenarioConfig) -> tuple[MotionModel, ...]:
    """The tracker's motion models: the EKF's NCV, or the IMM's NCV and NCA."""
    dims, tr = cfg.sensors[0].spatial_dims, cfg.tracker
    if isinstance(tr, ImmTracker):
        return (MotionModel("ncv", cfg.dt_s, tr.q_ncv, dims),
                MotionModel("nca", cfg.dt_s, tr.q_nca, dims))
    return (MotionModel("ncv", cfg.dt_s, tr.q, dims),)


def _imm_prior(cfg: ScenarioConfig, models: tuple, mean: np.ndarray) -> ImmState:
    """Local IMM trackers at ``mean[..., n]`` (NCA states), mode probabilities equal."""
    dims, lead = cfg.sensors[0].spatial_dims, mean.shape[:-1]
    cov = _init_cov(cfg, models[1].state_dim, dims)
    dens = tuple(GaussianDensity(mean[..., :n], np.broadcast_to(cov[:n, :n], lead + (n, n)))
                 for n in (m.state_dim for m in models))
    return ImmState(dens, np.full(lead + (2,), 0.5), models, cfg.tracker.transition,
                    cfg.tracker.pad_var)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _entries(values: np.ndarray) -> str:
    return ", ".join(f"{v:g}" for v in np.ravel(values))


# Per config path, what a numeric field must do and the test each entry must
# pass; run_scenario checks them all and skips a path its truth or tracker lacks.
_DOMAINS = {
    **dict.fromkeys(("duration_s", "dt_s", "track_loss_m", "tracker.init_pos_std",
                     "tracker.init_vel_std", "tracker.init_acc_std", "tracker.pad_var"),
                    ("be positive and finite", lambda v: v > 0.0 and np.isfinite(v))),
    **dict.fromkeys(("runs", "fusion_every", "prune_to"),
                    ("be an integer of at least 1", lambda v: _is_int(v) and v >= 1)),
    "seed": ("be a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "nees_sided": ("be 1 or 2", lambda v: _is_int(v) and v in (1, 2)),
    "omega": ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    **dict.fromkeys(("tracker.q", "tracker.q_ncv", "tracker.q_nca", "truth.q", "truth.speed_mps"),
                    ("be non-negative and finite", lambda v: v >= 0.0 and np.isfinite(v))),
    **dict.fromkeys(("truth.start", "truth.amplitude_m", "truth.rotation_rad",
                     "truth.initial_position", "truth.initial_velocity"),
                    ("be finite", np.isfinite)),
    # A sine path's; a negative one mirrors the path.
    "truth.wavelength_m": ("be non-zero and finite", lambda v: v != 0.0 and np.isfinite(v)),
}


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Run the configured Monte Carlo study and aggregate the report.

    Raises
    ------
    ConfigError
        Before any run starts, for a configuration no study can run: a
        numeric field outside its ``_DOMAINS`` domain, or a fault in the
        strategies, EKF ``omega``, fusion steps, sensors, IMM truth,
        feedback, mixture sensor count, trial prior or transition.
    """
    if not cfg.sensors:
        raise ConfigError("at least one sensor required")
    if not cfg.strategies:
        raise ConfigError("at least one fusion strategy required")
    imm = isinstance(cfg.tracker, ImmTracker)
    known = _IMM_STRATEGIES if imm else _EKF_STRATEGIES
    unknown = [name for name in cfg.strategies if name not in known]
    if unknown:
        raise ConfigError(f"unknown fusion strategy for an {'IMM' if imm else 'EKF'} "
                          f"study: {', '.join(map(repr, unknown))}; choose from "
                          f"{', '.join(known)}")
    repeated = [name for name in dict.fromkeys(cfg.strategies) if cfg.strategies.count(name) > 1]
    if repeated:
        raise ConfigError(f"fusion strategy listed more than once: "
                          f"{', '.join(map(repr, repeated))}")
    if not imm and cfg.omega != 0.5:
        raise ConfigError("EKF studies fuse their operands with equal weights 1/n; "
                          f"omega must be 0.5, got {cfg.omega}")
    for path, (domain, passes) in _DOMAINS.items():
        part, _, key = path.rpartition(".")
        owner = getattr(cfg, part) if part else cfg
        if not hasattr(owner, key):
            continue
        value = getattr(owner, key)
        if not all(map(passes, np.ravel(value))):
            shown = _entries(value) if isinstance(value, np.ndarray) else value
            raise ConfigError(f"{path} must {domain}, got {shown}")
    if not np.isfinite(cfg.duration_s / cfg.dt_s):
        raise ConfigError(f"duration_s / dt_s must be finite, got "
                          f"{cfg.duration_s:g} / {cfg.dt_s:g}")
    truth_dims = 2 if isinstance(cfg.truth, SineTruth) else cfg.truth.initial_position.size
    # The largest arrays drawn up front, the [runs, n_steps + 1, 2 dims] truth
    # and the [runs, n_steps, Σm] noise, must have a size numpy can shape.
    columns = max(2 * truth_dims, sum(s.meas_dim for s in cfg.sensors))
    if cfg.runs * (cfg.n_steps + 1) * columns * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"duration_s / dt_s gives {cfg.n_steps:.3g} steps, too many for "
                          f"numpy to shape the study's draws, got "
                          f"{cfg.duration_s:g} / {cfg.dt_s:g}")
    if cfg.n_steps < cfg.fusion_every:
        raise ConfigError(f"{cfg.n_steps} steps hold no fusion step at "
                          f"fusion_every = {cfg.fusion_every}")
    if cfg.sensors[0].spatial_dims != truth_dims:
        raise ConfigError(f"the first sensor's {cfg.sensors[0].spatial_dims}-d position "
                          f"sizes the tracker, but the truth is {truth_dims}-d")
    for i, sensor in enumerate(cfg.sensors, 1):
        if sensor.spatial_dims > truth_dims:
            raise ConfigError(f"sensor {i} ({sensor.kind}) reads {sensor.spatial_dims} "
                              f"position axes, but the truth has {truth_dims}")
        if not np.isfinite(sensor.position).all():
            raise ConfigError(f"sensor {i} ({sensor.kind}): position must be finite, "
                              f"got {_entries(sensor.position)}")
        try:
            assert_spd(sensor.noise_cov)
        except (NotSymmetric, NotPositiveDefinite) as exc:
            raise ConfigError(f"sensor {i} ({sensor.kind}): noise covariance fails: "
                              f"{exc}") from None
    if imm and truth_dims != 2:
        raise ConfigError("the IMM tracker is built for planar scenarios")
    if cfg.feedback and not imm:
        raise ConfigError("feedback routing is defined for the IMM tracker only")
    if cfg.feedback and not 0.0 < cfg.omega < 1.0:
        # At an endpoint pcf and hmd return one operand's own mixture, whose
        # tags name no field for the other operand's local.
        raise ConfigError(f"feedback needs 0 < omega < 1, got {cfg.omega}; at an endpoint "
                          "a fused mixture is one operand's own, with nothing to route "
                          "back to the other")
    if imm and len(cfg.sensors) != 2 and any(s not in _CENTRAL for s in cfg.strategies):
        raise ConfigError("mixture fusion supports exactly two sensors")
    models, dims = _models(cfg), cfg.sensors[0].spatial_dims
    try:  # the checks every local tracker gets, on a trial prior
        with np.errstate(over="ignore"):  # a variance that overflows fails the check
            if imm:
                _imm_prior(cfg, models, np.zeros(models[-1].state_dim))
            else:
                GaussianDensity(np.zeros(models[0].state_dim),
                                _init_cov(cfg, models[0].state_dim, dims))
    except ValueError as exc:
        raise ConfigError(f"IMM tracker: {exc}") from None
    except NotPositiveDefinite as exc:
        stds = ", ".join(f"tracker.{key} = {value:g}" for key, value in vars(cfg.tracker).items()
                         if key.startswith("init_"))
        padded = f", padded with pad_var = {cfg.tracker.pad_var}," if imm else ""
        raise ConfigError(f"{'IMM' if imm else 'EKF'} tracker: the initial covariance of "
                          f"{stds}{padded} fails: {exc}") from None
    if imm and not np.asarray(cfg.tracker.transition, dtype=float).sum(axis=0).all():
        raise ConfigError("tracker.transition has a zero column: no mode switches into "
                          "that mode, so its mixing is undefined")
    return _report(cfg, _run_study(cfg))


def _report(cfg: ScenarioConfig, results: dict) -> MetricsReport:
    """Aggregate the engine's results into the study's report."""
    fusion_steps = np.array([k for k in range(1, cfg.n_steps + 1)
                             if k % cfg.fusion_every == 0])
    times = fusion_steps * cfg.dt_s
    nees_dim = 2 * cfg.sensors[0].spatial_dims  # of the position-velocity marginal

    metrics = {}
    timing = {}
    for name in cfg.strategies:
        (pos_sq, vel_sq, nees), seconds, calls = results[name]
        final_pos_err = np.sqrt(pos_sq[:, -1])
        loss_rate = track_loss_rate(final_pos_err, cfg.track_loss_m)
        kept = ~_lost(final_pos_err, cfg.track_loss_m)
        excluded = np.full(fusion_steps.size, np.count_nonzero(~kept), dtype=int)
        if kept.any():
            pos = np.sqrt(np.mean(pos_sq[kept], axis=0))
            vel = np.sqrt(np.mean(vel_sq[kept], axis=0))
            nees = np.mean(nees[kept], axis=0)
            lo, hi = nees_bounds(np.count_nonzero(kept), nees_dim, cfg.nees_sided)
        else:
            pos = vel = nees = np.full(fusion_steps.size, np.nan)
            lo, hi = np.nan, np.nan
        timing[name] = seconds / calls if calls else None
        metrics[name] = StrategyMetrics(pos, vel, nees, lo, hi, loss_rate,
                                        excluded)
    return MetricsReport(cfg.name, cfg.runs, fusion_steps, times,
                         cfg.strategies, metrics, timing)
