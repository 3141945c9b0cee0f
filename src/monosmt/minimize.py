"""Bound minimization for spanning-tree weight atoms.

Feasibility is monotone in an mst_weight_leq atom's bound only among the
models with the atom true, which binary search exploits; the caller gets
the smallest bound that stays satisfiable, with its model. A model with the
atom false satisfies every bound below its spanning-tree weight, and every
bound when its graph is disconnected. So when the atom is not true at level
0, bound 0 is probed right after the total, also when the total is UNSAT.
The theory bounds the search from both sides (Bayless, Bayless, Hoos, Hu,
"SAT Modulo Monotonic Theories", AAAI 2015). A model with the atom true
satisfies the document at its own spanning-tree weight, which becomes the
upper end. When the atom is true at level 0, no model's tree is lighter
than the tree of the level-0 maximal completion, whose weight becomes the
lower end and is probed first. Enabling an edge never makes a connected
graph's tree heavier, so the owning graph's edges are decided on: their
saved phase is set true once, and phase saving carries the light model
from probe to probe. The first model's tree is light, and on many mazes it
weighs the lower end, which ends the search.

Every probe goes to one solver (``BoundProbes``), built from the document
without the probed atom, so that its var is a plain var. Each probed bound
gets an atom of its own on the owning graph, tied to that var by clauses
guarded by a selector literal, and is solved under the selector as an
assumption (Een and Sorensson, "Temporal induction by incremental SAT
solving", BMC 2003). The selector is then set false for good. What a probe
learnt stays valid for the next: its clauses follow from the document, or
contain a retired selector. The bound atoms are chained, ``w <= b`` implying
``w <= b'`` for ``b < b'``.
"""
from __future__ import annotations

import copy

from . import build
from .gnf import GnfDocument
from .sat import TRUE, mk_lit

# Never called here; perfbench/tracer.py patches this name.
from .build import solve_doc  # noqa: F401


class MinimizeResult:
    __slots__ = ("feasible", "bound", "values", "probes")

    def __init__(self, feasible, bound, values, probes):
        self.feasible = feasible
        self.bound = bound
        self.values = values
        self.probes = probes  # (bound, status) in probe order


class BoundProbes:
    """One solver answering, bound by bound, whether ``doc`` is satisfiable
    with its predicate ``doc.preds[idx]``, an mst_weight_leq atom, at that
    bound."""

    def __init__(self, doc: GnfDocument, idx: int, seed=0):
        pred = doc.preds[idx]
        rest = copy.copy(doc)  # shares all but the probed atom
        rest.preds = doc.preds[:idx] + doc.preds[idx + 1:]
        self.inst = inst = build.build_instance(rest, seed=seed)
        self.solver = inst.solver
        self.theory = inst.graphs[pred.owner]
        self.pvar = pred.var - 1
        self.atoms = []  # (bound, atom var) per probe so far
        for v in self.theory.slot_vars:
            self.solver.phase[v] = True  # edges on: light trees first

    def solve(self, bound):
        """(status, values) of the document with the atom at ``bound``;
        values is a 1-based bool list over the document's vars on SAT."""
        solver = self.solver
        q = solver.new_var()
        self.theory.add_atom("mst_weight_leq", (bound,), q)
        s = solver.new_var()
        off = mk_lit(s, True)
        solver.add_clause([off, mk_lit(self.pvar, True), mk_lit(q)])
        solver.add_clause([off, mk_lit(self.pvar), mk_lit(q, True)])
        for b, v in self.atoms:
            lo, hi = (q, v) if bound < b else (v, q)
            solver.add_clause([mk_lit(lo, True), mk_lit(hi)])
        self.atoms.append((bound, q))
        got = self.inst.solve([mk_lit(s)])
        solver.add_clause([off])
        return got

    def tree_weight(self, values):
        """Spanning-tree weight of the owning graph under ``values``, a
        1-based bool list over the document's vars."""
        return self.theory.span_weight(self.inst.mask(self.theory, values))

    def forced(self):
        """Whether the probed var is true at level 0, so in every model."""
        return self.solver.value[mk_lit(self.pvar)] == TRUE

    def floor(self):
        """A bound below which every probe is UNSAT: the spanning-tree weight
        of the level-0 maximal completion, the edges not false at level 0,
        when the probed var is true at level 0, else 0. Level-0 facts hold
        in every model of the document, and adding edges never makes a
        tree heavier. Read between probes, when the trail is at level 0."""
        if not self.forced():
            return 0
        return self.theory.span_weight(self.theory.completion(True).enabled)


def minimize_bound(doc: GnfDocument, bound_var: int, seed=0):
    """Smallest satisfiable bound for the mst_weight_leq atom on bound_var,
    searched over [0, total edge weight]: after a first probe at the total,
    bisection between ``BoundProbes.floor``, probed first, and the lightest
    tree of a model with the atom true. The probes decide edges on, so the
    first model's tree is light and the ceiling starts low; when it meets
    the floor, the search ends after that one probe. An UNSAT total ends
    it, after a probe at 0 unless the atom is true at level 0."""
    idx = next((i for i, p in enumerate(doc.preds)
                if p.var == bound_var and p.kind == "mst_weight_leq"), None)
    if idx is None:
        raise ValueError("var %d is not an mst_weight_leq atom" % bound_var)
    total = sum(e.weight for e in doc.graphs[doc.preds[idx].owner].edges)
    search = BoundProbes(doc, idx, seed=seed)
    probes = []

    def probe(bound):
        """None on UNSAT, else a bound the model satisfies, and the model:
        its tree weight when the atom is true in it."""
        status, values = search.solve(bound)
        probes.append((bound, status))
        if status != "SAT":
            return None
        return (search.tree_weight(values) if values[bound_var]
                else bound), values

    got = probe(total)
    if got is None and not search.forced():
        got = probe(0)  # a model with the atom false, if any, meets 0
    if got is None:
        return MinimizeResult(False, None, None, probes)
    hi, best = got
    lo = mid = search.floor()
    while lo < hi:
        got = probe(mid)
        if got is None:
            lo = mid + 1
        else:
            hi, best = got
        mid = (lo + hi) // 2
    return MinimizeResult(True, hi, best, probes)
