"""Seeded instance sets for the four workloads.

Every instance is made by ``monosmt.generators`` in the benchmark process,
before and outside any timed region. The solver only ever sees the GNF text
(``Case.text``); the generator's own document (``Case.doc``) stays here for
the independent verdict checks in ``checks.py``.

A run's instance set depends on ``(seed, seconds)`` alone: instance ``j``
draws its generator seed from ``seed * 1000 + j`` (sched counts up from
``seed * 1000`` past the seeds it rejects), and the number of
instances is ``seconds / nominal_s`` (at least ``min_cases``). ``nominal_s``
is the mean time to verdict of one instance at the reference speed (see
reference.py), measured at the commit that added the benchmark; it only
sizes the set, so a faster solver finishes the same set sooner.
"""
from __future__ import annotations

from dataclasses import dataclass

from monosmt import generators, gnf, oracle

from checks import sched_overload_unsat


@dataclass
class Case:
    index: int
    gen: str            # generator call, for the per-instance rows
    doc: object         # the generator's document (checks only)
    text: str           # what the solver is given
    expect: str | None  # verdict known by construction, else None
    bound_var: int = 0  # minimize only: the mst_weight_leq atom


def _gen_seed(seed, j):
    return seed * 1000 + j


def _maze_cases(seed, count):
    for j in range(count):
        s = _gen_seed(seed, j)
        yield ("gen_maze(8, 8, seed=%d)" % s, generators.gen_maze(8, 8, s),
               None, 0)


def _max_completion_flow(doc):
    """Max flow of the flow atom with every edge on that the CNF allows:
    the tightest demand that is still satisfiable."""
    g = doc.graphs[1]
    forced_off = {-c[0] for c in doc.clauses if len(c) == 1 and c[0] < 0}
    enabled = bytes(0 if e.var in forced_off else 1 for e in g.edges)
    source, sink, _ = doc.preds[0].args
    return oracle.maxflow_dfs(g.n, [(e.u, e.v, e.weight) for e in g.edges],
                              enabled, source, sink)


def _flow_cases(seed, count):
    for j in range(count):
        s = _gen_seed(seed, j)
        demand = _max_completion_flow(generators.gen_flow(14, 14, seed=s))
        doc = generators.gen_flow(14, 14, mode="unit", seed=s, demand=demand)
        yield ("gen_flow(14, 14, mode='unit', seed=%d, demand=%d)"
               % (s, demand), doc, "SAT", 0)


def _sched_cases(seed, count):
    s = _gen_seed(seed, 0)
    for _ in range(count):
        # Keep only documents whose UNSAT the overload count proves.
        while True:
            doc = generators.gen_sched(100, 3, 4, s)
            s += 1
            if sched_overload_unsat(doc):
                break
        yield "gen_sched(100, 3, 4, seed=%d)" % (s - 1), doc, "UNSAT", 0


def _minimize_cases(seed, count):
    for j in range(count):
        s = _gen_seed(seed, j)
        doc = generators.gen_maze(3, 6, s)
        bound_var = next(p.var for p in doc.preds
                         if p.kind == "mst_weight_leq")
        yield ("minimize_bound(gen_maze(3, 6, seed=%d), %d)"
               % (s, bound_var), doc, None, bound_var)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: object        # (seed, count) -> iterable of case tuples
    nominal_s: float     # mean time to verdict per instance (sizing only)
    min_cases: int
    limit_s: float       # per-instance time limit for decided_frac


WORKLOADS = {
    "maze": Workload("maze", _maze_cases, 0.22, 10, 10.0),
    "flow": Workload("flow", _flow_cases, 0.9, 5, 20.0),
    "sched": Workload("sched", _sched_cases, 0.6, 5, 20.0),
    "minimize": Workload("minimize", _minimize_cases, 0.18, 10, 10.0),
}


def make_cases(workload: Workload, seed: int, seconds: float):
    count = max(workload.min_cases, round(seconds / workload.nominal_s))
    return [Case(j, gen, doc, gnf.serialize(doc), expect, bound_var)
            for j, (gen, doc, expect, bound_var)
            in enumerate(workload.cases(seed, count))]
