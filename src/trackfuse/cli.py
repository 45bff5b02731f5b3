"""Command-line interface.

Subcommands:

- ``fuse``: fuse two density JSON files with a chosen strategy;
- ``simulate``: run a Monte Carlo scenario and write the metrics CSV plus a
  JSON summary;
- ``validate``: run the property-check suite and print a pass/fail table.

Exit codes: 0 success, 2 bad arguments, configuration, or input parsing,
3 fusion failed on the given densities, 4 every simulated run diverged,
5 a validation check failed.
All diagnostics go to stderr; stdout and output files carry only results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import PRESET_NAMES, load_config, load_preset
from .errors import ConfigError, NotPositiveDefinite, NotSymmetric, TrackfuseError
from .fusion import fuse_pair, hmd_diagnostics
from .gaussians import GaussianDensity, density_from_dict, density_to_dict
from .simulation import run_scenario
from .validation import run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FUSION = 3
EXIT_DIVERGED = 4
EXIT_VALIDATION = 5


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_density(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return density_from_dict(data)
    except (OSError, json.JSONDecodeError, ValueError, TypeError,
            NotPositiveDefinite, NotSymmetric) as exc:
        raise SystemExit(_fail(f"invalid density input {path!r}: {exc}",
                               EXIT_USAGE))


def _fail(msg: str, code: int) -> int:
    _log(f"error: {msg}")
    return code


def _cmd_fuse(args) -> int:
    if not 0.0 <= args.omega <= 1.0:
        return _fail(f"--omega must lie in [0, 1], got {args.omega}", EXIT_USAGE)
    a = _load_density(args.density_a)
    b = _load_density(args.density_b)
    gaussian_hmd = (args.strategy == "hmd" and isinstance(a, GaussianDensity)
                    and isinstance(b, GaussianDensity))
    try:
        fused = fuse_pair(a, b, args.strategy, args.omega)
        diagnostics = hmd_diagnostics(a, b, args.omega) if gaussian_hmd else {}
    except (ValueError, TrackfuseError) as exc:
        return _fail(f"fusion failed: {exc}", EXIT_FUSION)
    json.dump({"strategy": args.strategy, "density": density_to_dict(fused),
               "diagnostics": diagnostics}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    overrides = {"runs": args.runs, "seed": args.seed}
    if args.strategies is not None:
        overrides["strategies"] = tuple(s.strip() for s in args.strategies.split(","))
    try:
        if args.preset:
            cfg = load_preset(args.preset, **overrides)
        else:
            cfg = load_config(args.config, **overrides)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    # No n_steps here: run_scenario checks duration_s and dt_s first.
    _log(f"simulating {cfg.name}: {cfg.runs} runs of {cfg.duration_s:g} s, "
         f"strategies {', '.join(cfg.strategies)}")
    try:
        report = run_scenario(cfg)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_USAGE)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.name}_metrics.csv"
    summary_path = out_dir / f"{cfg.name}_summary.json"
    csv_path.write_text(report.csv_text(), encoding="utf-8")
    summary_path.write_text(
        json.dumps(report.summary_dict(), indent=2) + "\n", encoding="utf-8")
    _log(f"wrote {csv_path} and {summary_path}")
    losses = report.summary_dict(include_timing=False)["track_loss"]
    for name, rate in losses.items():
        _log(f"  {name}: track loss {rate:.0%}")
    if losses and all(rate >= 1.0 for rate in losses.values()):
        return _fail("all runs diverged for every strategy", EXIT_DIVERGED)
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _cmd_validate(args) -> int:
    results = run_suite(trials=args.trials, seed=args.seed)
    width = max(len(r.name) for r in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stdout.write(f"{status}  {res.name:<{width}}  {res.detail}\n")
    failed = [r for r in results if not r.passed]
    if failed:
        _log(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_VALIDATION
    _log(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackfuse",
        description="Track-to-track fusion of Gaussian and mixture estimates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="fuse two density JSON files")
    fuse.add_argument("density_a", help="path to the first density JSON")
    fuse.add_argument("density_b", help="path to the second density JSON")
    fuse.add_argument("--strategy", default="hmd",
                      choices=("naive", "gmd", "amd", "pcf", "hmd"))
    fuse.add_argument("--omega", type=float, default=0.5,
                      help="pool weight on the first density (default 0.5)")
    fuse.set_defaults(func=_cmd_fuse)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a scenario config file")
    source.add_argument("--preset", choices=PRESET_NAMES,
                        help="name of a shipped scenario preset")
    sim.add_argument("--runs", type=int, default=None, help="override run count")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--strategies", "--strategy", default=None,
                     help="comma-separated strategy override")
    sim.add_argument("--out-dir", default=".", help="directory for CSV/JSON output")
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser("validate", help="run the property-check suite")
    val.add_argument("--trials", type=_positive_int, default=1000,
                     help="randomized trials per check (10 for a fast pass)")
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except TrackfuseError as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
