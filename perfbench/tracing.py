"""Benchmark-side spans around the public functions of scpsolve.

``Tracer.install`` replaces each traced name at the module attribute its
caller looks up (``scpsolve.solver.project_psd_trace`` is what
``r_update`` calls, ``scpsolve.cli.goldstein_reduce`` is what the CLI
calls) with a wrapper that times the call and charges its duration to the
enclosing span, so every span's self time is its duration minus that of
its direct children.  Spans are aggregated per name as they close; a name
that no longer exists in the program is recorded as absent.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

from perfbench.workloads import CERT_GAP
from scpsolve.bounds import relative_gap

# (module, attribute, span name).  The attribute is the one the caller
# reads at call time; the span name is the layer metric prefix.
TRACED = (
    ("scpsolve.cli", "main", "cli.main"),
    ("scpsolve.cli", "load_instance", "instances.load_instance"),
    ("scpsolve.cli", "goldstein_reduce", "oracle.goldstein_reduce"),
    ("scpsolve.cli", "solve", "solver.solve"),
    ("scpsolve.solver", "solve", "solver.solve"),
    ("scpsolve.solver", "build_geometry", "lifting.build_geometry"),
    ("scpsolve.solver", "r_update", "solver.r_update"),
    ("scpsolve.solver", "project_psd_trace", "projections.project_psd_trace"),
    ("scpsolve.projections", "project_simplex", "projections.project_simplex"),
    ("scpsolve.solver", "y_update", "solver.y_update"),
    ("scpsolve.solver", "project_box_gangster", "projections.project_box_gangster"),
    ("scpsolve.solver", "dual_step", "solver.dual_step"),
    ("scpsolve.solver", "dual_lower_bound", "bounds.dual_lower_bound"),
    ("scpsolve.solver", "upper_bound", "bounds.upper_bound"),
)

RANK_RTOL = 1e-9
# the rounding sources the per-layer metrics name, whether or not the
# program still has them
UPPER_SOURCES = ("first_column", "dominant_eigenvector")


class Stat:
    """Calls, total and self seconds of one span name."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregated spans plus the counters read at the same boundaries."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._best_upper = math.inf
        self.counts = {
            "iterations": 0,
            "checkpoints": 0,
            "iters_after_cert": 0,
            "rank_sum": 0.0,
            "dee_total": 0,
            "dee_kept": 0,
        }
        self.upper_calls: dict[str, list[int]] = {}

    # -- spans ---------------------------------------------------------
    def _span(self, name, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.calls += 1
            stat.total += elapsed
            stat.self_time += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def _wrap(self, name, fn):
        if name == "solver.solve":
            return self._wrap_solve(fn)
        if name == "bounds.upper_bound":
            return self._wrap_upper(fn)
        if name == "oracle.goldstein_reduce":
            return self._wrap_dee(fn)

        def wrapper(*args, **kwargs):
            return self._span(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_solve(self, fn):
        def on_checkpoint(iteration, R, Y, Z):
            w = np.linalg.eigvalsh(0.5 * (R + R.T))
            rank = int(np.count_nonzero(w > RANK_RTOL * max(1.0, float(w[-1]))))
            self.counts["checkpoints"] += 1
            self.counts["rank_sum"] += rank / R.shape[0]

        def wrapper(instance, params=None, **kwargs):
            user_hook = kwargs.pop("on_checkpoint", None)

            def hook(*state):
                self._span("trace.on_checkpoint", on_checkpoint, *state)
                if user_hook is not None:
                    user_hook(*state)

            self._best_upper = math.inf
            report = self._span(
                "solver.solve", fn, instance, params, on_checkpoint=hook, **kwargs
            )
            self.counts["iterations"] += report.iterations
            self.counts["iters_after_cert"] += report.iterations - _cert_iteration(report)
            return report

        return wrapper

    def _wrap_upper(self, fn):
        def wrapper(Y, instance, source):
            value, assignment = self._span(
                f"bounds.upper_bound.{source}", fn, Y, instance, source
            )
            counts = self.upper_calls.setdefault(source, [0, 0])
            counts[0] += 1
            if value < self._best_upper:
                self._best_upper = value
                counts[1] += 1
            return value, assignment

        return wrapper

    def _wrap_dee(self, fn):
        def wrapper(instance):
            reduction = self._span("oracle.goldstein_reduce", fn, instance)
            self.counts["dee_total"] += instance.partition.n0
            self.counts["dee_kept"] += reduction.reduced.partition.n0
            return reduction

        return wrapper

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        self.absent = []
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- metrics -------------------------------------------------------
    def not_run(self) -> list[str]:
        """Traced spans that no operation of the workload reached."""
        names = {name for _, _, name in TRACED} | {
            f"bounds.upper_bound.{source}" for source in UPPER_SOURCES
        }
        names.discard("bounds.upper_bound")
        return sorted(names - set(self.stats))

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; a span that never ran reads 0."""

        def ms(name):
            stat = self.stats.get(name)
            return 1e3 * stat.total / stat.calls if stat else 0.0

        def frac(num, den):
            return num / den if den else 0.0

        c = self.counts
        solve = self.stats.get("solver.solve")
        out = {
            "projections.project_psd_trace.ms": (ms("projections.project_psd_trace"), "ms"),
            "projections.project_simplex.ms": (ms("projections.project_simplex"), "ms"),
            "projections.project_box_gangster.ms": (
                ms("projections.project_box_gangster"),
                "ms",
            ),
            "solver.r_update.ms": (ms("solver.r_update"), "ms"),
            "solver.r_transform.ms": (
                ms("solver.r_update") - ms("projections.project_psd_trace"),
                "ms",
            ),
            "solver.y_update.ms": (ms("solver.y_update"), "ms"),
            "solver.dual_step.ms": (ms("solver.dual_step"), "ms"),
            "solver.self_ms_per_iter": (
                1e3 * frac(solve.self_time if solve else 0.0, c["iterations"]),
                "ms",
            ),
            "solver.r_rank_frac": (frac(c["rank_sum"], c["checkpoints"]), "fraction"),
            "solver.checkpoints": (frac(c["checkpoints"], rounds), "count"),
            "solver.iters_after_cert_frac": (
                frac(c["iters_after_cert"], c["iterations"]),
                "fraction",
            ),
            "bounds.dual_lower_bound.ms": (ms("bounds.dual_lower_bound"), "ms"),
        }
        for source in UPPER_SOURCES:
            calls, improved = self.upper_calls.get(source, (0, 0))
            out[f"bounds.upper_bound.{source}.ms"] = (
                ms(f"bounds.upper_bound.{source}"),
                "ms",
            )
            out[f"bounds.upper_bound.{source}.improved_frac"] = (
                frac(improved, calls),
                "fraction",
            )
        out["oracle.goldstein_reduce.s"] = (ms("oracle.goldstein_reduce") / 1e3, "s")
        out["oracle.dee_kept_frac"] = (frac(c["dee_kept"], c["dee_total"]), "fraction")
        out["instances.load_instance.ms"] = (ms("instances.load_instance"), "ms")
        out["lifting.build_geometry.ms"] = (ms("lifting.build_geometry"), "ms")
        out["cli.main.s"] = (ms("cli.main") / 1e3, "s")
        return out


def _cert_iteration(report) -> int:
    """First checkpoint iteration at which the best bounds so far were
    within CERT_GAP; the final iteration count if they never were."""
    lower, upper = -math.inf, math.inf
    for record in report.bound_history:
        lower, upper = max(lower, record.lower), min(upper, record.upper)
        if math.isfinite(upper) and relative_gap(upper, lower) <= CERT_GAP:
            return record.iteration
    return report.iterations
