"""In-memory span tracing of rdasim's modules, and the per-layer arithmetic.

`install` replaces the public functions each module exposes, at the names
the CLI actually calls them by, with wrappers that record a span around
each call; nothing under ``src/`` is edited.  Spans are kept in memory as
``(name, start, end, parent, run_id)`` and written out when the run ends.

A layer is a package module; a span name is ``<layer>.<operation>``.  A
span's self time is its duration minus the durations of its direct
children (spans nest strictly, since everything runs on one thread).
"""

from __future__ import annotations

import functools
import math
import os
import time

ROOT_SPAN = "pass"


class Tracer:
    """Span store with a stack of open spans and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.run_id = 0
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent, run_id]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.run_id])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(args, result) runs once it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap rdasim's module functions at every name the CLI reaches them by."""
    import rdasim.cli as cli
    import rdasim.diagnostics as diagnostics
    import rdasim.energy as energy
    import rdasim.epidemic as epidemic
    import rdasim.integrator as integrator
    import rdasim.output as output

    def patch(name, targets, after=None):
        """Wrap the function found at the first target and bind it at all of them."""
        module, attr = targets[0]
        wrapped = tracer.wrap(name, getattr(module, attr), after)
        for module, attr in targets:
            setattr(module, attr, wrapped)

    def trace_evaluate(system):
        system.evaluate = tracer.wrap("reactions.evaluate", system.evaluate)

    def after_build_system(args, system):
        trace_evaluate(system)

    def after_build_epi_system(args, result):
        trace_evaluate(result[0])

    def after_step(args, result):
        tracer.add("integrator.halvings", result[1].halvings)

    def after_run(args, traj):
        iterations = getattr(traj, "step_linear_iterations", None)
        if iterations is not None:
            tracer.add("integrator.linear_iterations", int(iterations.sum()))

    def after_check(args, report):
        tracer.add("reactions.samples_tested", report.samples_tested)

    def after_dump(args, result):
        tracer.add("integrator.checkpoint_bytes", _file_size(args[2]))

    def after_write(args, result):
        # nested writers (write_csv under write_step_series_csv) count once
        if not (tracer.current() or "").startswith("output."):
            tracer.add("output.bytes", _file_size(args[0]))

    for cmd in ("check", "run", "energy_report", "epsilon_study"):
        patch(f"cli.{cmd}", [(cli, f"cmd_{cmd}")])
    patch("config.load", [(cli, "load_config")])
    for attr in ("build_grid", "build_epi_params", "build_coefficients", "build_boundary",
                 "build_initial", "build_solver_config", "build_epi_coefficients"):
        patch("config.build", [(cli, attr)])
    patch("config.build", [(cli, "build_system")], after_build_system)
    patch("config.build", [(cli, "build_epi_system")], after_build_epi_system)

    operators = integrator.TransportOperators
    operators.__init__ = tracer.wrap("grid.assemble", operators.__init__)
    operators.solve = tracer.wrap("integrator.solve", operators.solve)
    patch("reactions.truncate", [(integrator, "truncate")])
    for attr in ("check_quasi_positivity", "check_mass_control",
                 "check_intermediate_sum", "check_polynomial_growth"):
        patch("reactions.checks", [(cli, attr)], after_check)

    patch("integrator.step", [(integrator, "step")], after_step)
    patch("integrator.run", [(cli, "run"), (integrator, "run")], after_run)
    patch("integrator.ladder", [(cli, "epsilon_refinement_study")])
    patch("integrator.checkpoint_write", [(cli, "dump_state")], after_dump)
    patch("integrator.checkpoint_read", [(cli, "load_trajectory")])

    for attr in ("norm_series", "energy_trace", "mass_budget"):
        patch(f"diagnostics.{attr}", [(diagnostics, attr)])
    patch("epidemic.decay_report", [(epidemic, "decay_report")])
    patch("energy.select_weights", [(cli, "select_weights")])
    patch("energy.min_eigenvalue", [(cli, "min_eigenvalue"), (energy, "min_eigenvalue")])

    patch("output.step_series", [(cli, "write_step_series_csv")], after_write)
    patch("output.vtk", [(cli, "write_vtk_structured_points")], after_write)
    for attr in ("write_norm_series_csv", "write_energy_csv", "write_json"):
        patch("output.write", [(cli, attr)], after_write)
    patch("output.write", [(output, "write_csv")], after_write)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in percent) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)


def tail_quantile(n: int, beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least `beyond` of n samples above it."""
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) / 100.0 >= beyond:
            return q
    return None


# layers every workload runs whose self time is not just the sum of their named
# operations (in grid, config, diagnostics and output it is): reported as metrics
SELF_TIME_LAYERS = ("cli", "reactions", "integrator", "energy")
# operations only some workloads run: reported as a share of the traced pass,
# so that a workload that never calls them reads 0 % rather than 0 s
SHARE_SPANS = {
    "cli.check_pct": "cli.check",
    "cli.energy_report_pct": "cli.energy_report",
    "cli.epsilon_study_pct": "cli.epsilon_study",
    "reactions.checks_pct": "reactions.checks",
    "integrator.ladder_pct": "integrator.ladder",
    "integrator.checkpoint_read_pct": "integrator.checkpoint_read",
    "epidemic.decay_report_pct": "epidemic.decay_report",
    "output.vtk_pct": "output.vtk",
}


def layer_metrics(spans, counters: dict) -> dict:
    """Per-layer metrics of one traced pass (values in seconds unless named)."""
    own = self_times(spans)
    names = [s[0] for s in spans]
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    top_level: dict[str, float] = {}   # spans not nested directly in their own layer
    exclusive: dict[str, float] = {}
    for (name, start, end, parent, _), self_time in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        exclusive[name] = exclusive.get(name, 0.0) + self_time
        if parent < 0 or layer_of(names[parent]) != layer_of(name):
            top_level[name] = top_level.get(name, 0.0) + (end - start)

    def total(name):
        return inclusive.get(name, 0.0)

    def count(name):
        return calls.get(name, 0)

    def self_of(name):
        return exclusive.get(name, 0.0)

    wall = total(ROOT_SPAN)
    steps = [end - start for name, start, end, _, _ in spans if name == "integrator.step"]
    solves = count("integrator.solve")

    metrics = {
        "cli.import_s": total("cli.import"),
        "cli.run_s": total("cli.run"),
        "config.load_s": total("config.load"),
        "config.build_s": total("config.build"),
        "grid.assemble_s": total("grid.assemble"),
        "grid.assemble_calls": count("grid.assemble"),
        "reactions.evaluate_s": total("reactions.evaluate"),
        "reactions.evaluate_calls": count("reactions.evaluate"),
        "reactions.truncate_s": total("reactions.truncate"),
        "reactions.samples_tested": counters.get("reactions.samples_tested", 0),
        "integrator.solve_s": total("integrator.solve"),
        "integrator.solve_calls": solves,
        "integrator.linear_iterations": counters.get("integrator.linear_iterations", 0),
        "integrator.step_self_s": self_of("integrator.step"),
        "integrator.run_self_s": self_of("integrator.run"),
        "integrator.step_samples": len(steps),
        "integrator.accepted_ratio": len(steps) / solves if solves else 1.0,
        "integrator.halvings": counters.get("integrator.halvings", 0),
        "integrator.checkpoint_write_s": total("integrator.checkpoint_write"),
        "integrator.checkpoint_bytes": counters.get("integrator.checkpoint_bytes", 0),
        "diagnostics.norm_series_s": total("diagnostics.norm_series"),
        "diagnostics.energy_trace_s": total("diagnostics.energy_trace"),
        "diagnostics.mass_budget_s": total("diagnostics.mass_budget"),
        "energy.select_weights_s": total("energy.select_weights"),
        "energy.min_eigenvalue_s": total("energy.min_eigenvalue"),
        "energy.min_eigenvalue_calls": count("energy.min_eigenvalue"),
        "output.step_series_s": total("output.step_series"),
        "output.other_s": top_level.get("output.write", 0.0),
        "output.bytes": counters.get("output.bytes", 0),
        "trace.unattributed_s": self_of(ROOT_SPAN),
    }
    tail = tail_quantile(len(steps))
    if steps:
        metrics["integrator.step_p50_us"] = percentile(steps, 50.0) * 1e6
    if tail is not None:
        metrics["integrator.step_tail_us"] = percentile(steps, tail) * 1e6
        metrics["integrator.step_tail_pct"] = tail
    for metric, name in SHARE_SPANS.items():
        metrics[metric] = 100.0 * total(name) / wall if wall > 0 else 0.0
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = sum(t for n, t in exclusive.items() if layer_of(n) == layer)
    return metrics


def layer_self_times(spans) -> dict:
    """Self time summed per layer; the root span's self time is unattributed."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = "unattributed" if span[0] == ROOT_SPAN else layer_of(span[0])
        out[layer] = out.get(layer, 0.0) + own
    return out
