"""Spans and counters recorded around calls into fjpower's layers.

The tracer measures the program from outside: it replaces public functions at
their module attributes with timing wrappers and puts the originals back when
it is uninstalled.  Callers that imported a function by name (``scenario``
imports ``run_to_convergence``, ``analysis`` imports ``step_perception_ra``,
``cli`` imports ``load_scenario``) hold their own reference, so every module
attribute of the ``fjpower`` package that *is* the original function gets the
wrapper, not only the defining module's.

Spans are kept in memory (name, start, end, parent, item id) and written out
once, when the run ends.  A span's self time is its duration minus the time
of the calls made inside it.  Hot per-node calls (the neighbour lookups) are
counted and timed without a span of their own, so the trace stays small.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "scenario", "simkit", "analysis", "perception", "fj_core", "network", "bench")

STEP_SPANS = (
    "perception.step_perception_ra",
    "perception.step_perception_no_ra",
    "perception.step_pagerank_ra",
)
SOLVE_SPANS = (
    "fj_core.compute_social_power",
    "fj_core.final_opinions",
    "fj_core.influence_resolvent",
)


# ---------------------------------------------------------------------------
# hooks: counts taken from a call's arguments and result, outside its span
# ---------------------------------------------------------------------------

def _step_bytes(tracer, args, kwargs, result):
    """Bytes of the network's arrays plus the vectors passed in and returned."""
    net, *vectors = args
    arrays = [v for v in vars(net).values() if isinstance(v, np.ndarray)]
    arrays += [np.asarray(v) for v in vectors] + [np.asarray(result)]
    tracer.counts["perception.step_bytes_computed"] += sum(v.nbytes for v in arrays)


def _solve_flops(rhs_columns):
    def hook(tracer, args, kwargs, result):
        n = args[0].n
        tracer.counts["fj_core.solve_flop_computed"] += 2 * n**3 // 3 + 2 * n * n * rhs_columns(n)
    return hook


def _iterations(tracer, args, kwargs, result):
    tracer.counts["perception.iterations"] += result.iterations


def _messages(tracer, args, kwargs, result):
    tracer.counts["simkit.messages"] += result


def _equilibrium(tracer, args, kwargs, result):
    tracer.counts["analysis.starts_agreeing"] += result.starts_agreeing
    tracer.counts["analysis.total_starts"] += result.total_starts


def _samples(tracer, args, kwargs, result):
    tracer.counts["analysis.samples"] += result.samples


def _load_bytes(tracer, args, kwargs, result):
    tracer.counts["scenario.load_bytes"] += Path(args[0]).stat().st_size


def _csv_written(tracer, args, kwargs, result):
    data = Path(result).read_bytes()
    tracer.counts["scenario.csv_bytes"] += len(data)
    tracer.counts["scenario.csv_rows"] += data.count(b"\n") - 1  # minus the header


# (module, attribute, span name, hook); "Class.method" attributes are patched
# on the class.  Neighbour lookups are counters, not spans.
SPAN_TARGETS = (
    ("fjpower.cli", "main", "cli.main", None),
    ("fjpower.scenario", "load_scenario", "scenario.load_scenario", _load_bytes),
    ("fjpower.scenario", "run_scenario", "scenario.run_scenario", None),
    ("fjpower.scenario", "run_reports", "scenario.run_reports", None),
    ("fjpower.scenario", "write_trajectory_csv", "scenario.write_trajectory_csv", _csv_written),
    ("fjpower.simkit", "run_batch", "simkit.run_batch", None),
    ("fjpower.simkit", "run_distributed", "simkit.run_distributed", None),
    ("fjpower.simkit", "make_agents", "simkit.make_agents", None),
    ("fjpower.simkit", "run_round", "simkit.run_round", None),
    ("fjpower.simkit", "deliver", "simkit.deliver", _messages),
    ("fjpower.simkit", "advance", "simkit.advance", None),
    ("fjpower.analysis", "solve_equilibrium", "analysis.solve_equilibrium", _equilibrium),
    ("fjpower.analysis", "check_condition", "analysis.check_condition", None),
    ("fjpower.analysis", "check_dominance_necessary", "analysis.check_dominance_necessary", None),
    ("fjpower.analysis", "one_step_invariance_test", "analysis.one_step_invariance_test", _samples),
    ("fjpower.analysis", "contraction_diagnostic", "analysis.contraction_diagnostic", None),
    ("fjpower.analysis", "nonneg_box", "analysis.nonneg_box", None),
    ("fjpower.perception", "run_to_convergence", "perception.run_to_convergence", _iterations),
    ("fjpower.perception", "build_local_views", "perception.build_local_views", None),
    ("fjpower.perception", "step_perception_ra", "perception.step_perception_ra", _step_bytes),
    ("fjpower.perception", "step_perception_no_ra", "perception.step_perception_no_ra", _step_bytes),
    ("fjpower.perception", "step_pagerank_ra", "perception.step_pagerank_ra", _step_bytes),
    ("fjpower.fj_core", "compute_social_power", "fj_core.compute_social_power", _solve_flops(lambda n: 1)),
    ("fjpower.fj_core", "final_opinions", "fj_core.final_opinions", _solve_flops(lambda n: 1)),
    ("fjpower.fj_core", "influence_resolvent", "fj_core.influence_resolvent", _solve_flops(lambda n: n)),
    ("fjpower.fj_core", "step_power_evolution", "fj_core.step_power_evolution", None),
    ("fjpower.fj_core", "step_power_evolution_single", "fj_core.step_power_evolution_single", None),
    ("fjpower.fj_core", "step_fj_opinions", "fj_core.step_fj_opinions", None),
    ("fjpower.network", "validate_arrays", "network.validate_arrays", None),
    ("fjpower.network", "InfluenceNetwork.__post_init__", "network.construct", None),
)
COUNTER_TARGETS = (
    ("fjpower.network", "InfluenceNetwork.in_neighbors", "network.neighbors"),
    ("fjpower.network", "InfluenceNetwork.out_neighbors", "network.neighbors"),
)


class Tracer:
    """In-memory spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent, item, name, start, end]
        self.child: list[float] = []  # time spent in calls made inside each span
        self.stack: list[int] = []
        self.item = None
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._mark = 0
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, hook in SPAN_TARGETS:
            self._patch(module, attr, lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for module, attr, name in COUNTER_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _patch(self, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        *path, key = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, key)
        wrapper = make(original)
        if path:
            self._set(owner, key, original, wrapper)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "fjpower":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, original, wrapper)

    def _set(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int]:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, self.item, name, 0.0, 0.0])
        self.child.append(0.0)
        self.stack.append(sid)
        return sid, parent

    def _span(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                rec = tracer.spans[sid]
                rec[4], rec[5] = start, end
                if parent >= 0:
                    tracer.child[parent] += end - start
            if hook is not None:
                # the hook's own time is tracing overhead: no span's self time
                hook_start = perf_counter()
                hook(tracer, args, kwargs, result)
                if parent >= 0:
                    tracer.child[parent] += perf_counter() - hook_start
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry = tracer.calls[name]
                entry[0] += 1
                entry[1] += elapsed
                if tracer.stack:
                    tracer.child[tracer.stack[-1]] += elapsed

        return wrapper

    def begin_item(self, item) -> None:
        self.item = item
        sid, _ = self._open("bench.item")
        self.spans[sid][4] = perf_counter()

    def end_item(self) -> None:
        sid = self.stack.pop()
        self.spans[sid][5] = perf_counter()
        self.item = None

    # -- aggregation -------------------------------------------------------

    def take(self) -> dict:
        """Totals since the previous call: per span name [calls, total, self],
        counter-only calls, and the counts taken by the hooks."""
        by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid in range(self._mark, len(self.spans)):
            _, _, _, name, start, end = self.spans[sid]
            entry = by_name[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - self.child[sid]
        totals = {
            "spans": by_name,
            "calls": {k: list(v) for k, v in self.calls.items()},
            "counts": dict(self.counts),
            "span_count": len(self.spans) - self._mark,
        }
        self._mark = len(self.spans)
        self.calls.clear()
        self.counts.clear()
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, item, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": None if parent < 0 else parent, "item": item,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def layer_metrics(totals: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from :meth:`Tracer.take`."""
    spans, calls, counts = totals["spans"], totals["calls"], totals["counts"]

    def n(*names):
        return sum(spans[k][0] for k in names if k in spans)

    def total(*names):
        return sum(spans[k][1] for k in names if k in spans)

    def own(*names):
        return sum(spans[k][2] for k in names if k in spans)

    def ratio(num, den):
        return num / den if den else 0.0

    neighbor_calls, neighbor_s = calls.get("network.neighbors", [0, 0.0])
    messages = counts.get("simkit.messages", 0)
    delivered_s = total("simkit.deliver") + total("simkit.advance")
    out = {
        "cli.main_self_s": own("cli.main"),
        "scenario.load_s": total("scenario.load_scenario"),
        "scenario.load_bytes": counts.get("scenario.load_bytes", 0),
        "scenario.load_mb_per_s": ratio(counts.get("scenario.load_bytes", 0) / 1e6,
                                        total("scenario.load_scenario")),
        "scenario.run_self_s": own("scenario.run_scenario"),
        "scenario.csv_s": total("scenario.write_trajectory_csv"),
        "scenario.csv_bytes": counts.get("scenario.csv_bytes", 0),
        "scenario.csv_rows": counts.get("scenario.csv_rows", 0),
        "perception.steps": n(*STEP_SPANS),
        "perception.step_s": total(*STEP_SPANS),
        "perception.step_bytes_computed": counts.get("perception.step_bytes_computed", 0),
        "perception.iterations": counts.get("perception.iterations", 0),
        "perception.loop_self_s": own("perception.run_to_convergence"),
        "perception.views_s": total("perception.build_local_views"),
        "simkit.rounds": n("simkit.deliver"),
        "simkit.messages": messages,
        "simkit.deliver_s": total("simkit.deliver"),
        "simkit.advance_s": total("simkit.advance"),
        "simkit.make_agents_s": total("simkit.make_agents"),
        "simkit.us_per_message": ratio(delivered_s * 1e6, messages),
        "network.neighbor_calls": neighbor_calls,
        "network.neighbor_s": neighbor_s,
        "fj_core.solve_calls": n(*SOLVE_SPANS),
        "fj_core.solve_s": total(*SOLVE_SPANS),
        "fj_core.solve_flop_computed": counts.get("fj_core.solve_flop_computed", 0),
        "analysis.equilibrium_s": total("analysis.solve_equilibrium"),
        "analysis.equilibrium_agree_ratio": ratio(counts.get("analysis.starts_agreeing", 0),
                                                  counts.get("analysis.total_starts", 0)),
        "analysis.invariance_s": total("analysis.one_step_invariance_test"),
        "analysis.invariance_samples_per_s": ratio(counts.get("analysis.samples", 0),
                                                   total("analysis.one_step_invariance_test")),
        "analysis.contraction_s": total("analysis.contraction_diagnostic"),
        "analysis.conditions_s": total("analysis.check_condition",
                                       "analysis.check_dominance_necessary"),
    }
    for layer in LAYERS:
        names = [k for k in spans if k.split(".")[0] == layer]
        counted = sum(v[1] for k, v in calls.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = own(*names) + counted
    out["trace.spans"] = totals["span_count"]
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric-by-metric median over passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
