"""From parsed documents to wired solvers and solve reports.

GNF uses 1-based signed DIMACS literals; the solver core numbers vars from 0
and packs polarity into the low bit. ``sat`` alone packs literals
(``internal_lit``, ``dimacs_lit``), and
``Solver.add_clauses`` takes the document's clauses as they are written.
The other meetings of the two numbering schemes are here:
``Instance.solve`` turns a model into GNF values, and ``Instance.mask``
turns values into a theory's enabled mask, for ``solve_doc``,
``witness_lines`` and ``minimize.BoundProbes``. ``BoundProbes`` converts
only its atom var and the vars it adds. The theories get their vars
shifted to 0-based as they are built.
"""
from __future__ import annotations

from .gcpause import paused
from .sat import Solver, SAT
from .graphs import GraphTheory
from .scheduling import ProcessorTheory
from .gnf import (GnfDocument, VarOwners, check_edge, check_graph,
                  check_task)


class Instance:
    """A document together with its solver and theory objects."""

    ok = property(lambda self: self.solver.ok)  # False once UNSAT at level 0

    def __init__(self, doc, solver, graphs, theories, atoms):
        self.doc = doc
        self.solver = solver
        self.graphs = graphs  # gid -> GraphTheory
        self.theories = theories  # graphs, then processors, in doc order
        self.atoms = atoms  # (theory, binding) per doc predicate

    def solve(self, assumptions=()):
        """(status, values): "SAT" or "UNSAT" under ``assumptions``, solver
        literals, and on SAT a 1-based bool list over the document's vars."""
        res = self.solver.solve(assumptions)
        if res.status is SAT:
            return "SAT", [None] + res.model[:self.doc.nvars]
        return "UNSAT", None

    def mask(self, theory, values):
        """The enabled mask of ``theory`` under ``values``, a 1-based bool
        list over the document's vars."""
        return bytearray(values[v + 1] for v in theory.slot_vars)


@paused
def build_instance(doc: GnfDocument, seed=0, observer=None) -> Instance:
    # The parser's rules on declarations, for a document built in code, in
    # the order serialize writes them.
    owners = VarOwners(doc.nvars, doc.graphs)
    for gid in sorted(doc.graphs):
        g = doc.graphs[gid]
        check_graph(g.n, len(g.edges))
        owners.declare("graph", gid, g.edges, lambda e, n=g.n: check_edge(
            n, e.u, e.v, e.weight))
    for pid in sorted(doc.procs):
        owners.declare("processor", pid, doc.procs[pid].tasks,
                       lambda t: check_task(t.arrival, t.duration))
    solver = Solver(seed=seed, observer=observer)
    solver.new_vars(doc.nvars)
    graphs = {gid: GraphTheory(g.directed, g.n,
                               [(e.u, e.v, e.var - 1, e.weight)
                                for e in g.edges])
              for gid, g in doc.graphs.items()}
    procs = {pid: ProcessorTheory([(t.var - 1, t.arrival, t.duration,
                                    t.deadline) for t in p.tasks])
             for pid, p in doc.procs.items()}
    atoms = []
    for pred in doc.preds:
        kind, oid, args, var = pred.kind, pred.owner, pred.args, pred.var
        owner = owners.atom(kind, oid, args, var)
        th = (procs if owner == "processor" else graphs)[oid]
        # mst_edge names its edge by var, the only var among the arguments.
        if kind == "mst_edge":
            args = (args[0] - 1,)
        atoms.append((th, th.atom(th.add_atom(kind, args, var - 1))))
    theories = list(graphs.values()) + list(procs.values())
    for th in theories:
        solver.attach_theory(th)
    solver.add_clauses(doc.clauses)
    return Instance(doc, solver, graphs, theories, atoms)


def solve_doc(doc: GnfDocument, seed=0, observer=None):
    """Solve a document; returns (status, values, instance) where status is
    "SAT"/"UNSAT" and values is a 1-based bool list on SAT."""
    inst = build_instance(doc, seed=seed, observer=observer)
    return inst.solve() + (inst,)


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
        if th not in models:
            models[th] = (inst.mask(th, values), {})
        payload = th.model_witness(binding, *models[th])
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
