"""Per-layer call counts and self time for ``trackfuse``, measured from outside.

A :class:`Tracer` wraps the public functions named in :data:`LAYERS`. Every
name is bound by ``from ... import`` in several modules (``imm_step`` in
``simulation``, ``ekf_predict`` in ``filters``, ``spd_inv`` in ``fusion``,
``assert_spd`` in ``gaussians``), so the wrapper replaces the binding in every
loaded ``trackfuse`` module that holds the original object; otherwise nested
calls would go uncounted. Methods are wrapped on their class.

Self time is a span's duration minus the spans of wrapped functions called
inside it, tracked with a stack of child-time accumulators. A recursive call
is counted in its own total and again in its caller's.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer (module) -> wrapped names. ``GaussianDensity`` counts constructions by
# wrapping ``GaussianDensity.__post_init__``.
LAYERS = {
    "scenarios": ("ncv_truth_states", "sine_truth_states"),
    "models": ("MeasurementModel.measure", "MeasurementModel.jacobian"),
    "filters": ("ekf_predict", "ekf_update", "ekf_update_with_loglik", "imm_step",
                "imm_output", "route_feedback", "apply_feedback", "prune_mixture",
                "zero_pad", "truncate_state"),
    "fusion": ("fuse_many", "fuse_pair", "fuse_naive", "fuse_gmd", "fuse_amd",
               "fuse_pcf", "fuse_hmd", "fuse_hmd_mixture", "fuse_hmd_recursive"),
    "gaussians": ("GaussianDensity", "assert_spd", "spd_inv", "moment_match",
                  "gaussian_product", "gaussian_division", "scaled_power"),
    "simulation": ("compute_nees", "run_scenario"),
    "config": ("load_preset",),
}

_CONSTRUCTOR_HOOKS = {"GaussianDensity": "GaussianDensity.__post_init__"}


def traced_names() -> list[str]:
    """``module.function`` for every wrapped function, in :data:`LAYERS` order."""
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


class Tracer:
    """Install wrappers, accumulate ``[calls, self_s, total_s]`` per name.

    Use as a context manager; leaving it restores every binding it replaced.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self.stats = {name: [0, 0.0, 0.0] for name in traced_names()}

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped to record its calls under ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += total - children
                stats[2] += total
                if stack:
                    stack[-1] += total

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "trackfuse" or key.startswith("trackfuse."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"trackfuse.{layer}"]
            for name in names:
                target = _CONSTRUCTOR_HOOKS.get(name, name)
                if "." in target:
                    cls_name, attr = target.split(".")
                    owners = [getattr(home, cls_name)]
                    original = owners[0].__dict__[attr]
                else:
                    attr = target
                    original = home.__dict__[attr]
                    owners = [m for m in modules if m.__dict__.get(attr) is original]
                wrapper = self.wrap(f"{layer}.{name}", original)
                for owner in owners:
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
