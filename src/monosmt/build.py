"""From parsed documents to wired solvers and solve reports.

GNF uses 1-based signed DIMACS literals; the solver core numbers vars from 0
and packs polarity into the low bit. The converters here are the only place
the two numbering schemes meet.
"""
from __future__ import annotations

from .sat import Solver, SAT, mk_lit
from .graphs import SymbolicGraph, GraphTheory
from .scheduling import ProcessorTheory
from .gnf import GnfDocument


def internal_lit(dimacs: int) -> int:
    return mk_lit(abs(dimacs) - 1, dimacs < 0)


def dimacs_lit(lit: int) -> int:
    var = (lit >> 1) + 1
    return -var if lit & 1 else var


class Instance:
    """A document together with its solver and theory objects."""

    def __init__(self, doc, solver, graph_theories, proc_theories, atoms, ok):
        self.doc = doc
        self.solver = solver
        self.graph_theories = graph_theories
        self.proc_theories = proc_theories
        self.atoms = atoms  # (theory, binding) per doc predicate
        self.ok = ok  # False when clause loading already hit a contradiction


def build_instance(doc: GnfDocument, seed=0, observer=None) -> Instance:
    solver = Solver(seed=seed, observer=observer)
    for _ in range(doc.nvars):
        solver.new_var()
    graph_theories = {}
    for gid, g in doc.graphs.items():
        sg = SymbolicGraph(gid, g.directed, g.n)
        for e in g.edges:
            sg.add_edge(e.u, e.v, e.var - 1, e.weight)
        graph_theories[gid] = GraphTheory(sg)
    proc_theories = {}
    for pid, p in doc.procs.items():
        th = ProcessorTheory(pid)
        for t in p.tasks:
            th.add_task(t.var - 1, t.arrival, t.duration, t.deadline)
        proc_theories[pid] = th
    atoms = []
    for pred in doc.preds:
        pvar = pred.var - 1
        kind = pred.kind
        if kind == "schedulable":
            th = proc_theories[pred.owner]
            aid = th.add_schedulable(pvar)
        else:
            th = graph_theories[pred.owner]
            if kind == "reach":
                aid = th.add_reach(pred.args[0], pred.args[1], pvar)
            elif kind == "distance_leq":
                aid = th.add_distance_leq(pred.args[0], pred.args[1],
                                          pred.args[2], pvar)
            elif kind == "maxflow_geq":
                aid = th.add_maxflow_geq(pred.args[0], pred.args[1],
                                         pred.args[2], pvar)
            elif kind == "components_leq":
                aid = th.add_components_leq(pred.args[0], pvar)
            elif kind == "mst_weight_leq":
                aid = th.add_mst_weight_leq(pred.args[0], pvar)
            elif kind == "mst_edge":
                aid = th.add_mst_edge(pred.args[0] - 1, pvar)
            else:
                raise AssertionError(kind)
        atoms.append((th, th.atom(aid)))
    for th in list(graph_theories.values()) + list(proc_theories.values()):
        solver.attach_theory(th)
    ok = True
    for clause in doc.clauses:  # internal_lit, inlined
        if not solver.add_clause([l + l - 2 if l > 0 else -l - l - 1
                                  for l in clause]):
            ok = False
            break
    return Instance(doc, solver, graph_theories, proc_theories, atoms, ok)


def solve_doc(doc: GnfDocument, seed=0, observer=None):
    """Solve a document; returns (status, values, instance) where status is
    "SAT"/"UNSAT" and values is a 1-based bool list on SAT."""
    inst = build_instance(doc, seed=seed, observer=observer)
    if not inst.ok:
        return "UNSAT", None, inst
    res = inst.solver.solve()
    if res.status is SAT:
        return "SAT", [None] + res.model, inst
    return "UNSAT", None, inst


def v_line(values) -> str:
    lits = [str(i) if values[i] else str(-i)
            for i in range(1, len(values))]
    return "v " + " ".join(lits + ["0"])


def witness_lines(inst: Instance, values):
    """One `w` line per atom true in the model."""
    lines = []
    models = {}  # theory -> (model mask, analyses of it shared by its atoms)
    for pred, (th, binding) in zip(inst.doc.preds, inst.atoms):
        if not values[pred.var]:
            continue
        model = models.get(th)
        if model is None:
            if pred.kind == "schedulable":
                decls = inst.doc.procs[pred.owner].tasks
            else:
                decls = inst.doc.graphs[pred.owner].edges
            model = models[th] = (
                bytearray(1 if values[d.var] else 0 for d in decls), {})
        payload = th.model_witness(binding, *model)
        if pred.kind == "mst_weight_leq":
            payload = [v + 1 for v in payload]  # internal vars back to GNF
        params = [pred.owner] + ["inf" if a is None else a for a in pred.args]
        lines.append("w %s %s : %s" % (pred.kind,
                                       " ".join(str(x) for x in params),
                                       " ".join(str(x) for x in payload)))
    return lines


def run_solve(doc: GnfDocument, witness=False, seed=0):
    """Solve and format output lines; returns (exit_code, lines)."""
    status, values, inst = solve_doc(doc, seed=seed)
    if status == "SAT":
        lines = ["s SATISFIABLE", v_line(values)]
        if witness:
            lines.extend(witness_lines(inst, values))
        return 10, lines
    return 20, ["s UNSATISFIABLE"]
