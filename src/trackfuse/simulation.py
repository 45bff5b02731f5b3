"""Monte Carlo simulation of distributed tracking with track-to-track fusion.

One run simulates the truth, generates every sensor's measurement noise and
every tracker's initial perturbation up front, and then evaluates all
requested strategies on that shared randomness (common random numbers keep
strategy comparisons tight). Runs are seeded from a master seed through
``numpy`` seed-sequence spawning, so results do not depend on execution order.

The tracker kind picks the engine. A study with EKF locals steps all its runs
together: every bank (the locals, the centralized track, each strategy's
fusion centre) is one :class:`~trackfuse.gaussians.GaussianDensity` stacked
over the runs, passed through the same public filter, fusion and scoring
functions a single run uses, which treat each member as they treat one
density, so the report is byte-identical to stepping each run on its own.
A study with IMM locals runs one run at a time.
``TRACKFUSE_THREADS`` splits the runs into contiguous blocks, one batch per
worker process for EKF studies, without changing the report.

Estimation quality is reported at fusion instants: position/velocity RMSE
across runs and the average normalized estimation error squared (NEES) with
chi-square consistency bounds. Runs whose final fused position error exceeds
the track-loss threshold count as lost and are excluded from the error
aggregates (the exclusion count is reported per step).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import chi2

from .errors import ConfigError
from .filters import (
    ImmState,
    ekf_predict,
    ekf_update,
    imm_output,
    imm_step,
    prune_mixture,
    route_feedback,
)
from .fusion import fuse_many, fuse_pair
from .gaussians import GaussianDensity, GaussianMixture, _scalar, moment_match
from .models import MotionModel, wrap_angle
from .scenarios import (
    EkfTracker,
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

_CENTRAL = {"centralized", "centralized_cv", "centralized_ca"}


def nees_bounds(n_runs: int, dim: int, sided: int = 2,
                alpha: float = 0.05) -> tuple[float, float]:
    """Chi-square bounds for the run-averaged NEES of a consistent estimator."""
    dof = n_runs * dim
    if sided == 2:
        return (float(chi2.ppf(alpha / 2.0, dof)) / n_runs,
                float(chi2.ppf(1.0 - alpha / 2.0, dof)) / n_runs)
    return 0.0, float(chi2.ppf(1.0 - alpha, dof)) / n_runs


def track_loss_rate(final_errors, tau: float) -> float:
    """Fraction of runs whose final position error reaches the threshold ``tau``.

    Runs counted here are the diverged ones; they are excluded from the RMSE
    and NEES aggregates.
    """
    errors = np.asarray(final_errors, dtype=float)
    if errors.size == 0:
        raise ValueError("no runs to score")
    if tau <= 0.0:
        raise ValueError("loss threshold must be positive")
    return float(np.count_nonzero(errors >= tau)) / errors.size


def compute_nees(density, truth_state: np.ndarray,
                 indices: np.ndarray | None = None) -> float:
    """NEES of an estimate against the true state (mixtures moment-matched);
    for a stacked density, one value per member against ``truth_state[..., :]``."""
    gauss = moment_match(density) if isinstance(density, GaussianMixture) else density
    if indices is None:
        indices = slice(gauss.dim)
    else:
        gauss = gauss.marginal(indices)
    err = gauss.mean - np.asarray(truth_state, dtype=float)[..., indices]
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
    pure function of the configuration and master seed.
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


def _truth_states(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    if isinstance(cfg.truth, NcvTruth):
        return ncv_truth_states(cfg.truth, cfg.n_steps, cfg.dt_s, rng)
    return sine_truth_states(cfg.truth, cfg.n_steps, cfg.dt_s)


def _draw_measurements(cfg: ScenarioConfig, states: np.ndarray,
                       rng: np.random.Generator) -> list:
    chols = [np.linalg.cholesky(s.noise_cov) for s in cfg.sensors]
    out = []
    for k in range(1, cfg.n_steps + 1):
        row = []
        for sensor, chol in zip(cfg.sensors, chols):
            z = sensor.measure(states[k]) + chol @ rng.standard_normal(sensor.meas_dim)
            for idx in sensor.angle_indices:
                z[idx] = wrap_angle(z[idx])
            row.append(z)
        out.append(row)
    return out


def _draws(cfg: ScenarioConfig, run_idx: int, state_dim: int) -> tuple:
    """One run's random material, drawn from its own seed sequence in the
    documented order: truth, per-sensor initial perturbations, the central
    perturbation, then measurement noise step by step."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(run_idx,)))
    dims = cfg.sensors[0].spatial_dims
    states = _truth_states(cfg, rng)
    init_chol = np.linalg.cholesky(_init_cov(cfg, state_dim, dims))
    perturbations = [init_chol @ rng.standard_normal(state_dim)
                     for _ in cfg.sensors]
    central_pert = init_chol @ rng.standard_normal(state_dim)
    meas = _draw_measurements(cfg, states, rng)
    return states, perturbations, central_pert, meas


def _central_mean(truth0: np.ndarray, pert: np.ndarray, state_dim: int) -> np.ndarray:
    """Initial centralized mean: the truth, zero-padded to the state, plus ``pert``."""
    pad = np.zeros(truth0.shape[:-1] + (max(0, state_dim - truth0.shape[-1]),))
    return np.concatenate((truth0, pad), axis=-1)[..., :state_dim] + pert[..., :state_dim]


def _sq_errors(mean: np.ndarray, truth: np.ndarray, dims: int) -> tuple:
    """Squared position and velocity errors (per run for stacked inputs)."""
    pos = np.sum((mean[..., :dims] - truth[..., :dims]) ** 2, axis=-1)
    vel = np.sum((mean[..., dims:2 * dims] - truth[..., dims:2 * dims]) ** 2, axis=-1)
    return pos, vel


def _run_result(pos_sq, vel_sq, nees, fuse_seconds: float, fuse_calls: int) -> dict:
    return {
        "pos_sq": pos_sq,
        "vel_sq": vel_sq,
        "nees": nees,
        "final_pos_err": float(np.sqrt(pos_sq[-1])),
        "fuse_seconds": fuse_seconds,
        "fuse_calls": fuse_calls,
    }


def _run_ekf_batch(cfg: ScenarioConfig, runs: Sequence[int]) -> list:
    """All ``runs`` of an EKF study, stepped together as stacked arrays.

    Each bank (the locals, the centralized track, each strategy's fusion
    centre) is one :class:`~trackfuse.gaussians.GaussianDensity` stacked
    over the runs.
    The fusion centre keeps its own fused track between fusion instants and
    folds the predicted track in as one more operand: the previous fused
    estimate carries the locals' history, so re-fusing the current locals
    double-counts unless the rule accounts for it, which is what separates
    the conservative rules from the naive product. NEES scores the whole
    NCV state, which is exactly position and velocity.

    Runs and strategies advance step by step together, so only the current
    banks are held. Each strategy's arithmetic is that of a run on its own;
    if several runs or strategies would fail, the first failure in step
    order is raised.
    """
    n_runs = len(runs)
    dims = cfg.sensors[0].spatial_dims
    model = MotionModel("ncv", cfg.dt_s, cfg.tracker.q, dims)
    dim = model.state_dim
    states, perts, central_pert, meas = zip(*(_draws(cfg, r, dim) for r in runs))
    states = np.stack(states)
    truth0 = states[:, 0]
    perts = np.stack(perts)
    central_pert = np.stack(central_pert)
    # One [R, n_steps, meas_dim] array per sensor.
    meas = [np.stack([[row[s] for row in run_meas] for run_meas in meas])
            for s in range(len(cfg.sensors))]
    cov0 = np.broadcast_to(_init_cov(cfg, dim, dims), (n_runs, dim, dim))
    n_fuse = cfg.n_steps // cfg.fusion_every

    strategies = list(dict.fromkeys(cfg.strategies))
    # The centralized tracks, and each fusion centre's last fused track.
    tracks = {name: (GaussianDensity(_central_mean(truth0, central_pert, dim), cov0)
                     if name in _CENTRAL else None) for name in strategies}
    # The locals do not depend on the strategy (EKF studies have no
    # feedback), so one bank serves every distributed strategy.
    bank = ([GaussianDensity(truth0[:, :dim] + perts[:, s, :dim], cov0)
             for s in range(len(cfg.sensors))]
            if any(name not in _CENTRAL for name in strategies) else [])
    scores = {name: np.full((3, n_runs, n_fuse), np.nan) for name in strategies}
    fuse_seconds = dict.fromkeys(strategies, 0.0)
    for k in range(1, cfg.n_steps + 1):
        bank = [ekf_update(ekf_predict(loc, model), sensor, z[:, k - 1])
                for loc, sensor, z in zip(bank, cfg.sensors, meas)]
        for name in strategies:
            if name in _CENTRAL:
                track = ekf_predict(tracks[name], model)
                for sensor, z in zip(cfg.sensors, meas):
                    track = ekf_update(track, sensor, z[:, k - 1])
                tracks[name] = track
        if k % cfg.fusion_every:
            continue
        slot = k // cfg.fusion_every - 1
        for name in strategies:
            track = tracks[name]
            if name not in _CENTRAL:
                operands = bank
                if track is not None:
                    for _ in range(cfg.fusion_every):
                        track = ekf_predict(track, model)
                    operands = [track] + bank
                tic = time.perf_counter()
                track = fuse_many(operands, name)
                # amd's mixture is scored and carried forward moment-matched.
                if isinstance(track, GaussianMixture):
                    track = moment_match(track)
                tracks[name] = track
                fuse_seconds[name] += time.perf_counter() - tic
            pos_sq, vel_sq = _sq_errors(track.mean, states[:, k], dims)
            scores[name][:, :, slot] = pos_sq, vel_sq, compute_nees(track, states[:, k])

    return [{name: _run_result(*scores[name][:, r], fuse_seconds[name] / n_runs,
                               0 if name in _CENTRAL else n_fuse)
             for name in cfg.strategies}
            for r in range(n_runs)]


def _run_single(cfg: ScenarioConfig, run_idx: int) -> dict:
    """One run of an IMM study."""
    dims = cfg.sensors[0].spatial_dims
    ncv = MotionModel("ncv", cfg.dt_s, cfg.tracker.q_ncv, dims)
    nca = MotionModel("nca", cfg.dt_s, cfg.tracker.q_nca, dims)
    states, perturbations, central_pert, meas = _draws(cfg, run_idx, nca.state_dim)
    truth0 = states[0]
    cov_nca = _init_cov(cfg, nca.state_dim, dims)
    cov_ncv = cov_nca[: ncv.state_dim, : ncv.state_dim]

    def init_locals():
        locals_ = []
        for pert in perturbations:
            full_mean = _central_mean(truth0, pert, nca.state_dim)
            dens = (GaussianDensity(full_mean[: ncv.state_dim], cov_ncv),
                    GaussianDensity(full_mean, cov_nca))
            locals_.append(ImmState(dens, np.full(2, 0.5), (ncv, nca),
                                    cfg.tracker.transition, cfg.tracker.pad_var))
        return locals_

    def step_locals(locals_, k):
        return [imm_step(loc, sensor, z)
                for loc, sensor, z in zip(locals_, cfg.sensors, meas[k - 1])]

    n_fuse = cfg.n_steps // cfg.fusion_every
    nees_idx = np.arange(2 * dims)

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
            track = GaussianDensity(_central_mean(truth0, central_pert, model.state_dim),
                                    _init_cov(cfg, model.state_dim, dims))
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
            pos_sq[slot], vel_sq[slot] = _sq_errors(track.mean, states[k], dims)
            nees[slot] = compute_nees(track, states[k], nees_idx)
            slot += 1

        results[strategy] = _run_result(pos_sq, vel_sq, nees, fuse_seconds, fuse_calls)
    return results


def _run_block(cfg: ScenarioConfig, runs: Sequence[int]) -> list:
    """Per-run results of ``runs``: EKF studies step them as one batch, IMM
    studies run them one at a time."""
    if isinstance(cfg.tracker, EkfTracker):
        return _run_ekf_batch(cfg, runs)
    return [_run_single(cfg, r) for r in runs]


def _worker(args):
    cfg, runs = args
    return _run_block(cfg, runs)


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Run the configured Monte Carlo study and aggregate the report.

    Raises
    ------
    ConfigError
        For a configuration no study can run: no sensors, strategies or
        runs, a bad ``dt_s``, ``track_loss_m``, ``prune_to`` or ``omega``, no
        fusion step, or a mixture fusion setup with other than two sensors.
    """
    if not cfg.sensors:
        raise ConfigError("at least one sensor required")
    if not cfg.strategies:
        raise ConfigError("at least one fusion strategy required")
    if cfg.runs < 1 or cfg.prune_to < 1:
        raise ConfigError(f"runs and prune_to must be at least 1, got {cfg.runs} "
                          f"and {cfg.prune_to}")
    for key in ("dt_s", "track_loss_m"):
        value = getattr(cfg, key)
        if not (value > 0.0 and np.isfinite(value)):
            raise ConfigError(f"{key} must be positive and finite, got {value}")
    imm = isinstance(cfg.tracker, ImmTracker)
    if not imm and cfg.omega != 0.5:
        raise ConfigError("EKF studies fuse their operands with equal weights 1/n; "
                          f"omega must be 0.5, got {cfg.omega}")
    if not 0.0 <= cfg.omega <= 1.0:
        raise ConfigError(f"omega must lie in [0, 1], got {cfg.omega}")
    if cfg.n_steps < cfg.fusion_every:
        raise ConfigError(f"{cfg.n_steps} steps hold no fusion step at "
                          f"fusion_every = {cfg.fusion_every}")
    if imm and not isinstance(cfg.truth, SineTruth):
        if cfg.sensors[0].spatial_dims != 2:
            raise ConfigError("the IMM tracker is built for planar scenarios")
    if cfg.feedback and not imm:
        raise ConfigError("feedback routing is defined for the IMM tracker only")
    if imm and len(cfg.sensors) != 2 and any(s not in _CENTRAL for s in cfg.strategies):
        raise ConfigError("mixture fusion supports exactly two sensors")

    workers = int(os.environ.get("TRACKFUSE_THREADS", "1") or "1")
    workers = max(1, min(workers, cfg.runs))
    if workers > 1:
        # An EKF worker batches one contiguous block of runs; IMM runs are
        # handed out in smaller blocks for load balance.
        size = (-(-cfg.runs // workers) if isinstance(cfg.tracker, EkfTracker)
                else max(1, cfg.runs // (4 * workers)))
        blocks = [range(a, min(a + size, cfg.runs)) for a in range(0, cfg.runs, size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = [res for block in pool.map(_worker, [(cfg, b) for b in blocks])
                       for res in block]
    else:
        per_run = _run_block(cfg, range(cfg.runs))
    return _report(cfg, per_run)


def _report(cfg: ScenarioConfig, per_run: list) -> MetricsReport:
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
