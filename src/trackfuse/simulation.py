"""Monte Carlo simulation of distributed tracking with track-to-track fusion.

One run simulates the truth, generates every sensor's measurement noise and
every tracker's initial perturbation up front, and then evaluates all
requested strategies on that shared randomness (common random numbers keep
strategy comparisons tight). Runs are seeded from a master seed through
``numpy`` seed-sequence spawning, so results do not depend on execution order
and the run count can be parallelized (``TRACKFUSE_THREADS``) without
changing the report.

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
from .gaussians import GaussianDensity, GaussianMixture, moment_match
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
    """NEES of an estimate against the true state (mixtures moment-matched)."""
    gauss = moment_match(density) if isinstance(density, GaussianMixture) else density
    if indices is not None:
        gauss = gauss.marginal(indices)
        truth = np.asarray(truth_state, dtype=float)[indices]
    else:
        truth = np.asarray(truth_state, dtype=float)[: gauss.dim]
    err = gauss.mean - truth
    return float(err @ np.linalg.solve(gauss.cov, err))


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
                lines.append(",".join([
                    str(int(step)),
                    _fmt(self.times[i]),
                    name,
                    _fmt(m.rmse_pos[i]),
                    _fmt(m.rmse_vel[i]),
                    _fmt(m.nees[i]),
                    _fmt(m.nees_lo),
                    _fmt(m.nees_hi),
                ]))
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


def _tracker_models(cfg: ScenarioConfig) -> dict:
    dims = cfg.sensors[0].spatial_dims
    if isinstance(cfg.tracker, EkfTracker):
        return {"kind": "ekf",
                "model": MotionModel("ncv", cfg.dt_s, cfg.tracker.q, dims)}
    return {"kind": "imm",
            "ncv": MotionModel("ncv", cfg.dt_s, cfg.tracker.q_ncv, dims),
            "nca": MotionModel("nca", cfg.dt_s, cfg.tracker.q_nca, dims)}


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


def _init_locals(cfg: ScenarioConfig, models: dict, truth0: np.ndarray,
                 perturbations: list) -> list:
    locals_ = []
    dims = cfg.sensors[0].spatial_dims
    if models["kind"] == "ekf":
        model = models["model"]
        cov0 = _init_cov(cfg, model.state_dim, dims)
        for pert in perturbations:
            mean0 = truth0[: model.state_dim] + pert[: model.state_dim]
            locals_.append(GaussianDensity(mean0, cov0))
        return locals_
    ncv, nca = models["ncv"], models["nca"]
    cov_nca = _init_cov(cfg, nca.state_dim, dims)
    cov_ncv = cov_nca[: ncv.state_dim, : ncv.state_dim]
    for pert in perturbations:
        full_mean = np.concatenate((truth0, np.zeros(nca.state_dim - truth0.size)))
        full_mean = full_mean + pert
        dens = (GaussianDensity(full_mean[: ncv.state_dim], cov_ncv),
                GaussianDensity(full_mean, cov_nca))
        locals_.append(ImmState(dens, np.full(2, 0.5), (ncv, nca),
                                cfg.tracker.transition, cfg.tracker.pad_var))
    return locals_


def _init_central(cfg: ScenarioConfig, models: dict, name: str,
                  truth0: np.ndarray, pert: np.ndarray) -> tuple:
    dims = cfg.sensors[0].spatial_dims
    if models["kind"] == "ekf":
        model = models["model"]
    elif name == "centralized_ca":
        model = models["nca"]
    else:
        model = models["ncv"]
    cov0 = _init_cov(cfg, model.state_dim, dims)
    mean0 = np.concatenate((truth0, np.zeros(max(0, model.state_dim - truth0.size))))
    mean0 = mean0[: model.state_dim] + pert[: model.state_dim]
    return GaussianDensity(mean0, cov0), model


def _local_step(cfg, models, local, sensor, z):
    if models["kind"] == "ekf":
        return ekf_update(ekf_predict(local, models["model"]), sensor, z)
    return imm_step(local, sensor, z)


def _local_output(models, local):
    return local if models["kind"] == "ekf" else imm_output(local)


def _fuse(cfg: ScenarioConfig, strategy: str, outputs: list):
    if all(isinstance(o, GaussianDensity) for o in outputs):
        return fuse_many(outputs, strategy)
    if len(outputs) != 2:
        raise ConfigError("mixture fusion supports exactly two sensors")
    return fuse_pair(outputs[0], outputs[1], strategy, cfg.omega)


def _run_single(cfg: ScenarioConfig, run_idx: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(run_idx,)))
    models = _tracker_models(cfg)
    dims = cfg.sensors[0].spatial_dims
    states = _truth_states(cfg, rng)
    truth0 = states[0]

    state_dim = (models["model"].state_dim if models["kind"] == "ekf"
                 else models["nca"].state_dim)
    init_cov = _init_cov(cfg, state_dim, dims)
    init_chol = np.linalg.cholesky(init_cov)
    perturbations = [init_chol @ rng.standard_normal(state_dim)
                     for _ in cfg.sensors]
    central_pert = init_chol @ rng.standard_normal(state_dim)
    meas = _draw_measurements(cfg, states, rng)

    fusion_steps = [k for k in range(1, cfg.n_steps + 1) if k % cfg.fusion_every == 0]
    n_fuse = len(fusion_steps)
    if cfg.nees_marginal == "posvel":
        nees_idx = np.arange(2 * dims)
    else:
        nees_idx = None

    distributed = [s for s in cfg.strategies if s not in _CENTRAL]
    # Without feedback the local banks do not depend on the strategy, so the
    # filtering pass is shared across strategies.
    locals_by_step = None
    if distributed and not cfg.feedback:
        locals_by_step = []
        current = _init_locals(cfg, models, truth0, perturbations)
        for k in range(1, cfg.n_steps + 1):
            current = [_local_step(cfg, models, loc, sensor, z)
                       for loc, sensor, z in zip(current, cfg.sensors, meas[k - 1])]
            locals_by_step.append(current)

    results = {}
    for strategy in cfg.strategies:
        pos_sq = np.full(n_fuse, np.nan)
        vel_sq = np.full(n_fuse, np.nan)
        nees = np.full(n_fuse, np.nan)
        fuse_seconds = 0.0
        fuse_calls = 0
        slot = 0

        if strategy in _CENTRAL:
            track, model = _init_central(cfg, models, strategy, truth0, central_pert)
            for k in range(1, cfg.n_steps + 1):
                track = ekf_predict(track, model)
                for sensor, z in zip(cfg.sensors, meas[k - 1]):
                    track = ekf_update(track, sensor, z)
                if k % cfg.fusion_every == 0:
                    pos_sq[slot] = float(np.sum((track.mean[:dims] - states[k][:dims]) ** 2))
                    vel_sq[slot] = float(np.sum(
                        (track.mean[dims:2 * dims] - states[k][dims:2 * dims]) ** 2))
                    nees[slot] = compute_nees(track, states[k], nees_idx)
                    slot += 1
        else:
            locals_ = None if locals_by_step is not None else \
                _init_locals(cfg, models, truth0, perturbations)
            # With single-model locals and no feedback, the fusion center keeps
            # its own fused track between fusion instants and folds the
            # predicted track in as one more operand. The previous fused
            # estimate carries the locals' history, so re-fusing the current
            # locals double-counts unless the rule accounts for it: this is
            # what separates the conservative rules from the naive product.
            # With feedback the fused information returns through the locals
            # instead, so the center stays memoryless there.
            center = None
            center_model = models["model"] if models["kind"] == "ekf" else None
            for k in range(1, cfg.n_steps + 1):
                if locals_by_step is not None:
                    locals_ = locals_by_step[k - 1]
                else:
                    locals_ = [_local_step(cfg, models, loc, sensor, z)
                               for loc, sensor, z in zip(locals_, cfg.sensors,
                                                         meas[k - 1])]
                if k % cfg.fusion_every == 0:
                    outputs = [_local_output(models, loc) for loc in locals_]
                    if center is not None:
                        for _ in range(cfg.fusion_every):
                            center = ekf_predict(center, center_model)
                        outputs = [center] + outputs
                    tic = time.perf_counter()
                    fused = _fuse(cfg, strategy, outputs)
                    fuse_seconds += time.perf_counter() - tic
                    fuse_calls += 1
                    if isinstance(fused, GaussianMixture) and models["kind"] == "imm":
                        if cfg.feedback:
                            locals_ = [route_feedback(loc, fused, idx)
                                       for idx, loc in enumerate(locals_)]
                        elif fused.n_components > cfg.prune_to:
                            fused = prune_mixture(fused, cfg.prune_to)
                    est = (moment_match(fused)
                           if isinstance(fused, GaussianMixture) else fused)
                    if center_model is not None and not cfg.feedback:
                        center = est
                    pos_sq[slot] = float(np.sum((est.mean[:dims] - states[k][:dims]) ** 2))
                    vel_sq[slot] = float(np.sum(
                        (est.mean[dims:2 * dims] - states[k][dims:2 * dims]) ** 2))
                    nees[slot] = compute_nees(est, states[k], nees_idx)
                    slot += 1

        results[strategy] = {
            "pos_sq": pos_sq,
            "vel_sq": vel_sq,
            "nees": nees,
            "final_pos_err": float(np.sqrt(pos_sq[-1])) if n_fuse else np.inf,
            "fuse_seconds": fuse_seconds,
            "fuse_calls": fuse_calls,
        }
    return results


def _worker(args):
    cfg, run_idx = args
    return _run_single(cfg, run_idx)


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Run the configured Monte Carlo study and aggregate the report.

    Raises
    ------
    ConfigError
        For inconsistent configurations (no sensors, no strategies, or a
        mixture fusion setup with other than two sensors).
    """
    if not cfg.sensors:
        raise ConfigError("at least one sensor required")
    if not cfg.strategies:
        raise ConfigError("at least one fusion strategy required")
    if isinstance(cfg.tracker, ImmTracker) and not isinstance(cfg.truth, SineTruth):
        if cfg.sensors[0].spatial_dims != 2:
            raise ConfigError("the IMM tracker is built for planar scenarios")
    if cfg.feedback and not isinstance(cfg.tracker, ImmTracker):
        raise ConfigError("feedback routing is defined for the IMM tracker only")
    if isinstance(cfg.tracker, ImmTracker) and cfg.nees_marginal != "posvel":
        raise ConfigError("IMM estimates carry acceleration states the truth "
                          "lacks; set nees_marginal = 'posvel'")

    workers = int(os.environ.get("TRACKFUSE_THREADS", "1") or "1")
    workers = max(1, min(workers, cfg.runs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(_worker, [(cfg, r) for r in range(cfg.runs)],
                                    chunksize=max(1, cfg.runs // (4 * workers))))
    else:
        per_run = [_run_single(cfg, r) for r in range(cfg.runs)]

    fusion_steps = np.array([k for k in range(1, cfg.n_steps + 1)
                             if k % cfg.fusion_every == 0])
    times = fusion_steps * cfg.dt_s
    dims = cfg.sensors[0].spatial_dims
    # Truth carries position and velocity; both NEES variants score 2*dims
    # states (the "posvel" marginal only differs for trackers whose state is
    # larger, and those are required to use it).
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
            pos = np.full(fusion_steps.size, np.nan)
            vel = np.full(fusion_steps.size, np.nan)
            nees = np.full(fusion_steps.size, np.nan)
            lo, hi = np.nan, np.nan
        calls = sum(r["fuse_calls"] for r in runs)
        timing[name] = (sum(r["fuse_seconds"] for r in runs) / calls
                        if calls else None)
        metrics[name] = StrategyMetrics(pos, vel, nees, lo, hi, loss_rate,
                                        excluded)
    return MetricsReport(cfg.name, cfg.runs, fusion_steps, times,
                         cfg.strategies, metrics, timing)
