"""Span recorder applied from outside the program.

``install`` replaces the public entry points of each ``monosmt`` layer with
wrappers that record one span per call (name, start, end, parent span, and
the instance it belongs to) plus a few counts read from arguments and
results. Nothing under ``src/`` is edited: module functions are rebound on
their module, methods on their class. Spans stay in flat in-memory arrays
and are written out once, at the end of a pass.

A layer's self time is the time its spans cover minus the time covered by
their child spans; ``span_totals`` derives it per span name.
"""
from __future__ import annotations

import json
import statistics
import time
from array import array
from collections import Counter

from monosmt import build, gnf, graphs, minimize, scheduling, theory
from monosmt.graphs import GraphTheory
from monosmt.sat import Solver
from monosmt.scheduling import ProcessorTheory

LAYERS = ("gnf", "build", "sat", "theory", "graphs", "scheduling",
          "minimize")
EXPLAIN_KINDS = ("mst_edge", "mst_weight_leq", "distance_leq", "maxflow_geq",
                 "schedulable")
_SOLVER_COUNTERS = ("conflicts", "decisions", "propagations", "restarts",
                    "theory_implications")


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.current_instance = -1
        self._open = []

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span named ``name``, or ``name(args)`` when it
        is callable; ``after(args, result)`` runs outside the span."""
        fixed = None if callable(name) else self.name_index(name)
        name_id, parent, instance = self.name_id, self.parent, self.instance
        start, end, open_ = self.start, self.end, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(fixed if fixed is not None
                           else self.name_index(name(args)))
            parent.append(open_[-1] if open_ else -1)
            instance.append(self.current_instance)
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span_totals(self):
        """{name: (calls, total_s, self_s)} over every recorded span."""
        n = len(self.name_id)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[i]
        return {name: (calls[k], total[k], own[k])
                for k, name in enumerate(self.names)}

    def durations(self, name: str):
        k = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.name_id))
                if self.name_id[i] == k]

    def write(self, path_prefix: str):
        """Spans as five native-order arrays in ``<prefix>.bin``, described
        by ``<prefix>.json``."""
        columns = ("name_id", "parent", "instance", "start", "end")
        with open(path_prefix + ".bin", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.name_id), "names": self.names,
                       "columns": [[c, getattr(self, c).typecode,
                                    getattr(self, c).itemsize]
                                   for c in columns]}, fh)


def install(rec: SpanRecorder) -> None:
    """Rebind every layer entry point the benchmark measures."""
    counts = rec.counts

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), after))

    def after_solve(args, result):
        solver = args[0]
        for key in _SOLVER_COUNTERS:
            counts["sat." + key] += getattr(solver, key)
        counts["sat.learnts_final"] += len(solver.learnts)

    def after_propagate(args, result):
        if result[1] is not None:
            counts["sat.theory_conflicts"] += 1

    def explain_name(args):
        return "theory.explain." + args[0].atom(args[1]).kind

    def after_explain(args, result):
        kind = args[0].atom(args[1]).kind
        counts["theory.lemma_lits." + kind] += len(result)

    patch(gnf, "parse", "gnf.parse")
    patch(build, "build_instance", "build.build_instance")
    patch(minimize, "minimize_bound", "minimize.minimize_bound")
    patch(minimize, "solve_doc", "minimize.solve_doc")
    patch(Solver, "add_clause", "sat.add_clause")
    patch(Solver, "solve", "sat.solve", after_solve)
    base = theory.MonotonicTheory
    patch(base, "propagate", "theory.propagate", after_propagate)
    patch(base, "explain", explain_name, after_explain)
    patch(base, "on_assign", "theory.on_assign")
    patch(base, "on_backjump", "theory.on_backjump")
    patch(base, "decide_hint", "theory.decide_hint")
    patch(GraphTheory, "decide_hint", "theory.decide_hint")
    patch(GraphTheory, "eval_completion", "graphs.eval_completion")
    patch(GraphTheory, "witness_lits", "graphs.witness_lits")
    patch(ProcessorTheory, "eval_completion", "scheduling.eval_completion")
    for algo in ("span_scan", "dijkstra_tree", "bfs_tree", "edmonds_karp"):
        patch(graphs, algo, "graphs." + algo)
    patch(scheduling, "edf_simulate", "scheduling.edf_simulate")
    patch(scheduling, "busy_window_tasks", "scheduling.busy_window_tasks")


def layer_metrics(rec: SpanRecorder, wall_s: float):
    """Per-layer metrics of one traced pass as {name: (value, unit)}, plus
    the names of those that count work and so must repeat exactly."""
    spans = rec.span_totals()
    counts = rec.counts
    calls = lambda name: spans.get(name, (0, 0.0, 0.0))[0]
    total = lambda name: spans.get(name, (0, 0.0, 0.0))[1]
    own = lambda name: spans.get(name, (0, 0.0, 0.0))[2]
    ratio = lambda a, b: a / b if b else 0.0
    m = {}
    exact = []

    def put(name, value, unit, is_count=False):
        m[name] = (value, unit)
        if is_count:
            exact.append(name)

    put("gnf.parse_s", total("gnf.parse"), "s")
    put("build.build_instance_s", own("build.build_instance"), "s")
    put("sat.add_clause_s", total("sat.add_clause"), "s")
    put("sat.add_clause_calls", calls("sat.add_clause"), "count", True)
    put("sat.solve_self_s", own("sat.solve"), "s")
    put("sat.propagations_per_s",
        ratio(counts["sat.propagations"], own("sat.solve")), "1/s")
    for key in _SOLVER_COUNTERS + ("learnts_final",):
        put("sat." + key, counts["sat." + key], "count", True)
    put("sat.theory_conflict_frac",
        ratio(counts["sat.theory_conflicts"], counts["sat.conflicts"]),
        "frac", True)
    put("theory.propagate_calls", calls("theory.propagate"), "count", True)
    put("theory.propagate_self_s", own("theory.propagate"), "s")
    evals = calls("graphs.eval_completion") + calls(
        "scheduling.eval_completion")
    put("theory.eval_calls", evals, "count", True)
    put("theory.evals_per_propagate",
        ratio(evals, calls("theory.propagate")), "evals/call", True)
    for kind in EXPLAIN_KINDS:
        name = "theory.explain." + kind
        put("theory.explain_calls." + kind, calls(name), "count", True)
        put("theory.explain_s." + kind, total(name), "s")
        put("theory.lemma_len_mean." + kind,
            ratio(counts["theory.lemma_lits." + kind], calls(name)), "lits",
            True)
    put("theory.on_assign_calls", calls("theory.on_assign"), "count", True)
    put("theory.on_backjump_calls", calls("theory.on_backjump"), "count",
        True)
    put("graphs.eval_self_s", own("graphs.eval_completion"), "s")
    for algo in ("span_scan", "dijkstra_tree", "bfs_tree", "edmonds_karp"):
        put("graphs.%s_calls" % algo, calls("graphs." + algo), "count", True)
        put("graphs.%s_s" % algo, total("graphs." + algo), "s")
    put("graphs.witness_s", total("graphs.witness_lits"), "s")
    put("scheduling.edf_simulate_calls", calls("scheduling.edf_simulate"),
        "count", True)
    put("scheduling.edf_simulate_s", total("scheduling.edf_simulate"), "s")
    put("scheduling.busy_window_calls",
        calls("scheduling.busy_window_tasks"), "count", True)
    put("minimize.probes", calls("minimize.solve_doc"), "count", True)
    probe_s = rec.durations("minimize.solve_doc")
    put("minimize.probe_s.p50",
        statistics.median(probe_s) if probe_s else 0.0, "s")
    put("minimize.self_s", own("minimize.minimize_bound"), "s")
    layer_self = Counter()
    for name, (_, _, self_s) in spans.items():
        layer_self[name.split(".")[0]] += self_s
    for layer in LAYERS:
        put(layer + ".self_frac", ratio(layer_self[layer], wall_s), "frac")
    return m, exact
