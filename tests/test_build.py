"""From documents to solvers: what ``build_instance`` hands the SAT core."""

import copy
import re

import pytest

from monosmt.build import build_instance, solve_doc
from monosmt.generators import Xorshift64Star, gen_flow, gen_maze, gen_sched
from monosmt.gnf import (EdgeDecl, GnfDocument, GnfError, GraphDecl,
                         PredDecl, ProcDecl, TaskDecl, parse, serialize)
from monosmt.sat import UNDEF, UNSAT, Solver, internal_lit

from instances import ALL_KINDS, rand_doc, rand_mixed_doc

DOCS = {
    "maze": lambda: gen_maze(4, 4, 0),
    "flow": lambda: gen_flow(4, 4, mode="unit", seed=0, demand=2),
    "sched": lambda: gen_sched(30, 2, 6, 0),
}


# DOCS and one document of each perfbench workload's generator shape.
LOADED = dict(DOCS, **{
    "maze 8x8": lambda: gen_maze(8, 8, 1000),
    "flow 14x14": lambda: gen_flow(14, 14, mode="unit", seed=1000),
    "sched 100": lambda: gen_sched(100, 3, 4, 1000),
    "maze 3x6": lambda: gen_maze(3, 6, 1000),
})


@pytest.mark.parametrize("make", LOADED.values(), ids=LOADED.keys())
def test_bulk_load_matches_one_add_clause_per_clause(make, monkeypatch):
    # build_instance hands the solver every clause in one add_clauses call,
    # which must load them as one add_clause call per clause in document
    # order would (a flow document's clauses are all units), and leave the
    # document's own clause lists alone.
    doc = make()
    bulk = build_instance(doc).solver
    assert doc == make()
    monkeypatch.setattr(Solver, "add_clauses", lambda self, clauses: all(
        self.add_clause([internal_lit(lit) for lit in c]) for c in clauses))
    each = build_instance(doc).solver
    for name in ("clauses", "watches", "trail", "value"):
        assert getattr(bulk, name) == getattr(each, name), name
    assert bulk.ok == each.ok and (bulk.clauses or bulk.trail)


# Clauses handed to add_clause, clauses in the document, clauses kept.
HANDED = {
    "sched 100": (LOADED["sched 100"], 397, 20_781, 20_484),
    "flow 14x14": (LOADED["flow 14x14"], 216, 216, 0),
    "maze 8x8": (LOADED["maze 8x8"], 3, 563, 560),
    "sched 200 (CI)": (lambda: gen_sched(200, 10, 50, 0), 804, 91_368,
                       90_764),
}


@pytest.mark.parametrize("make, handed, total, kept", HANDED.values(),
                         ids=HANDED.keys())
def test_bulk_load_hands_add_clause_only_the_uncommon_clauses(
        make, handed, total, kept, monkeypatch):
    # The loader watches the common clauses itself, so perfbench's
    # sat.add_clause_calls counts only these; every kept clause is a list
    # of the solver's own.
    calls = []
    add_clause = Solver.add_clause

    def counted(self, lits):
        calls.append(lits)
        return add_clause(self, lits)

    monkeypatch.setattr(Solver, "add_clause", counted)
    doc = make()
    solver = build_instance(doc).solver
    assert (len(calls), len(doc.clauses), len(solver.clauses)) == (
        handed, total, kept)
    written = {id(c) for c in doc.clauses}
    assert not any(id(c) in written for c in solver.clauses)


@pytest.mark.parametrize("bad", [4, -4, 0])
def test_an_unknown_literal_in_a_clause_is_named_as_written(bad):
    # The loader used to name the solver's literal: 6, 7 and -1.
    doc = GnfDocument(nvars=3, clauses=[[1, bad]])
    with pytest.raises(ValueError,
                       match=r"^unknown variable in clause: lit %d$" % bad):
        build_instance(doc)


@pytest.mark.parametrize("make", DOCS.values(), ids=DOCS.keys())
@pytest.mark.parametrize("where", [0, -1])
def test_out_of_range_literals_of_an_unparsed_document_are_rejected(
        make, where):
    # Generated documents reach the builder without the parser's range
    # check, so the DIMACS-to-internal conversion must not map a literal
    # beyond nvars onto some other var.
    nvars = make().nvars
    for bad in (nvars + 1, -nvars - 1, 0):
        doc = make()
        clause = doc.clauses[where]
        clause.insert(len(clause) // 2, bad)
        with pytest.raises(ValueError, match="unknown variable"):
            build_instance(doc)


def test_document_that_contradicts_itself_while_loading_is_unsat():
    # Loading stops at the clause that contradicts the ones before it, and
    # the solver answers UNSAT without searching.
    doc = GnfDocument(nvars=2, clauses=[[1], [-1], [2]])
    status, values, inst = solve_doc(doc)
    assert (status, values) == ("UNSAT", None)
    assert not inst.ok
    solver = inst.solver
    assert solver.conflicts == 0 and solver.decisions == 0
    assert solver.value[internal_lit(2)] == UNDEF


def test_ok_reads_the_solver_after_a_solve():
    # This document is UNSAT at level 0 only once the processor theory
    # runs, so loading its clauses leaves the solver ok.
    inst = build_instance(gen_sched(30, 3, 4, 2))
    assert inst.ok
    assert inst.solver.solve().status is UNSAT
    assert not inst.solver.ok
    assert not inst.ok


def three_var_doc(kind, var):
    """A document of 3 vars, edges or tasks on vars 1 and 2 and an atom on
    var 3, with ``var`` in place of the first edge or task var, the atom var
    (``kind`` "atom") or an mst_edge atom's edge var."""
    doc = GnfDocument(nvars=3)
    first = var if kind in ("edge", "task") else 1
    atom = var if kind == "atom" else 3
    if kind == "task":
        doc.procs[1] = ProcDecl(1, [TaskDecl(1, 0, 1, 5, first),
                                    TaskDecl(1, 0, 1, 5, 2)])
        doc.preds.append(PredDecl("schedulable", 1, (), atom))
    elif kind == "mst_edge":
        doc.graphs[1] = GraphDecl(1, False, 2, [EdgeDecl(1, 0, 1, first),
                                                EdgeDecl(1, 1, 0, 2)])
        doc.preds.append(PredDecl("mst_edge", 1, (var,), atom))
    else:
        doc.graphs[1] = GraphDecl(1, True, 2, [EdgeDecl(1, 0, 1, first),
                                               EdgeDecl(1, 1, 0, 2)])
        doc.preds.append(PredDecl("reach", 1, (0, 1), atom))
    return doc


@pytest.mark.parametrize("kind, var", [("edge", 1), ("task", 1),
                                       ("atom", 3), ("mst_edge", 2)])
def test_in_range_declaration_vars_build(kind, var):
    assert build_instance(three_var_doc(kind, var)).ok


@pytest.mark.parametrize("var", [0, 4, -1])
@pytest.mark.parametrize("kind", ["edge", "task", "atom", "mst_edge"])
def test_out_of_range_declaration_vars_of_an_unparsed_document(kind, var):
    # Without the check an atom on var 0 became internal var -1, which
    # indexes var 3, and an edge or task var 0 or 4 failed with a KeyError
    # or an IndexError. An mst_edge atom's edge var is range-checked before
    # it is looked up among the graph's edges, so both name the range.
    message = "var %d out of range 1..3" % var
    with pytest.raises(ValueError) as info:
        build_instance(three_var_doc(kind, var))
    assert str(info.value) == message
    with pytest.raises(GnfError) as info:
        parse(serialize(three_var_doc(kind, var)))
    assert str(info.value).endswith(": " + message)


def two_graph_doc():
    """Vars 1..8, each declared once: a digraph on edge vars 1 and 2, a
    ugraph on 3 and 4, a processor on task vars 5 and 6, a reach atom on
    var 7 and an mst_edge atom on var 8."""
    doc = GnfDocument(nvars=8)
    doc.graphs[1] = GraphDecl(1, True, 2, [EdgeDecl(1, 0, 1, 1),
                                           EdgeDecl(1, 1, 0, 2)])
    doc.graphs[2] = GraphDecl(2, False, 2, [EdgeDecl(2, 0, 1, 3),
                                            EdgeDecl(2, 1, 0, 4)])
    doc.procs[1] = ProcDecl(1, [TaskDecl(1, 0, 1, 5, 5),
                                TaskDecl(1, 0, 1, 5, 6)])
    doc.preds += [PredDecl("reach", 1, (0, 1), 7),
                  PredDecl("mst_edge", 2, (3,), 8)]
    return doc


def clash(fault):
    doc = two_graph_doc()
    reach, mst = doc.preds
    if fault == "atom on another graph's edge var":
        reach.var = 3
    elif fault == "atom on a task var":
        reach.var = 5
    elif fault == "one atom var on two graphs":
        mst.var = 7
    elif fault == "edge var twice in a graph":
        doc.graphs[1].edges[1].var = 1
    elif fault == "atom on its own graph's edge var":
        reach.var = 1
    elif fault == "one atom var twice on a graph":
        doc.preds.append(PredDecl("reach", 1, (1, 0), 7))
    elif fault == "mst_edge on another graph's edge var":
        mst.args = (2,)
    elif fault == "atom on an undeclared graph":
        reach.owner = 9
    elif fault == "atom on an undeclared processor":
        doc.preds.append(PredDecl("schedulable", 4, (), 9))
        doc.nvars = 9
    elif fault == "atom of an unknown kind":
        reach.kind = "nope"
    elif fault == "mst_edge with no argument":
        mst.args = ()
    elif fault == "mst_edge with two arguments":
        mst.args = (3, 4)
    elif fault == "reach with one argument on an undeclared graph":
        reach.args, reach.owner = (0,), 9
    elif fault == "endpoint out of range before a later edge var twice":
        doc.graphs[1].edges[0].v = 5
        doc.graphs[2].edges[1].var = 3
    elif fault == "task time before a later task var twice":
        doc.procs[1].tasks[0].duration = 0
        doc.procs[1].tasks[1].var = 5
    else:
        assert fault == "task var twice on a processor"
        doc.procs[1].tasks[1].var = 5
    return doc


@pytest.mark.parametrize("fault, message", [
    ("atom on another graph's edge var",
     "var 3 is already an edge or task var"),
    ("atom on a task var", "var 5 is already an edge or task var"),
    ("one atom var on two graphs", "var 7 is already a predicate atom"),
    ("edge var twice in a graph", "var 1 already an edge of graph 1"),
    ("atom on its own graph's edge var",
     "var 1 is already an edge or task var"),
    ("one atom var twice on a graph", "var 7 is already a predicate atom"),
    ("mst_edge on another graph's edge var",
     "var 2 is not an edge of graph 2"),
    ("task var twice on a processor", "var 5 already a task on processor 1"),
    ("atom on an undeclared graph", "graph 9 not declared"),
    ("atom on an undeclared processor", "processor 4 not declared"),
    ("atom of an unknown kind", "unknown declaration 'nope'"),
    ("mst_edge with no argument", "mst_edge expects <gid> <edgeVar> <var>"),
    ("mst_edge with two arguments",
     "mst_edge expects <gid> <edgeVar> <var>"),
    ("reach with one argument on an undeclared graph",
     "reach expects <gid> <u> <v> <var>"),
    ("endpoint out of range before a later edge var twice",
     "edge endpoint out of range"),
    ("task time before a later task var twice",
     "task needs A >= 0 and L >= 1"),
])
def test_var_clashes_read_alike_in_parser_and_builder(fault, message):
    # build_instance once took the first three and solved them SAT, named
    # the next five in its 0-based internal numbering and raised a KeyError
    # on the three after. It raised an IndexError on an mst_edge atom with
    # no argument, and dropped the second of two and solved. It named the
    # last three by a fault that the parser reads later.
    assert build_instance(two_graph_doc()).ok
    with pytest.raises(ValueError) as built:
        build_instance(clash(fault))
    with pytest.raises(GnfError) as parsed:
        parse(serialize(clash(fault)))
    assert str(built.value) == message
    assert re.sub(r"^line \d+: | \(line \d+\)$", "",
                  str(parsed.value)) == message


def declaration_fields(doc):
    """(record, field) per declaration field the fuzz below may set: each
    edge's var and endpoints, each task's var and times, and each atom's
    var, owner, kind and arguments."""
    fields = [(e, name) for gid in sorted(doc.graphs)
              for e in doc.graphs[gid].edges for name in ("var", "u", "v")]
    fields += [(t, name) for pid in sorted(doc.procs)
               for t in doc.procs[pid].tasks
               for name in ("var", "arrival", "duration")]
    fields += [(p, name) for p in doc.preds
               for name in ("var", "owner", "kind", "args")]
    return fields


def fault_value(rng, record, field, nvars, taken):
    """A value for ``record``'s ``field``: a var out of range, any var or
    one of the ``taken`` vars of the declarations; an endpoint out of
    range on either side or node 0; a task time that GNF rejects or
    allows; an undeclared owner; an unknown kind; or arguments one too
    few or too many, or, for mst_edge, one var."""
    pick = rng.randint(0, 5)
    var = ([0, nvars + 1, rng.randint(1, nvars)][pick] if pick < 3
           else taken[rng.randint(0, len(taken) - 1)])
    if field in ("u", "v"):
        return [-1, 9, 0][rng.randint(0, 2)]
    if field in ("arrival", "duration"):
        return [-1, 0, 1][rng.randint(0, 2)]
    if field == "owner":
        return [0, 2, 9][rng.randint(0, 2)]
    if field == "kind":
        return "nope"
    if field == "args":
        return [record.args[:-1], record.args + (var,),
                (var,)][rng.randint(0, 2 if record.kind == "mst_edge" else 1)]
    return var


def mutated(doc, faults):
    doc = copy.deepcopy(doc)
    fields = declaration_fields(doc)
    for index, value in faults:
        record, name = fields[index]
        setattr(record, name, value)
    return doc


def fault_text(doc):
    """The fault that build_instance names in ``doc``, and the one that
    parse names in its text less the line numbers, each None for none."""
    text = serialize(doc)
    try:
        build_instance(doc)
        built = None
    except ValueError as exc:
        built = str(exc)
    try:
        parse(text)
        parsed = None
    except GnfError as exc:
        parsed = re.sub(r"^line \d+: | \(line \d+\)$", "", str(exc))
    return built, parsed


def test_declaration_faults_read_alike_in_parser_and_builder():
    # Both read the rules from one table, gnf.VarOwners. The parser reads a
    # document in serialize order and names its first faulty line, so equal
    # texts mean that build_instance names that fault too.
    docs = [rand_doc(kind, seed) for kind in ALL_KINDS for seed in range(60)]
    docs += [rand_mixed_doc(seed) for seed in range(120)]
    rng = Xorshift64Star(35)
    seen = set()
    contested = 0  # two faults, each named alone, in different words
    for n, doc in enumerate(docs):
        fields = declaration_fields(doc)
        taken = [r.var for r, name in fields if name == "var"]
        faults = [(i, fault_value(rng, *fields[i], doc.nvars, taken))
                  for i in (rng.randint(0, len(fields) - 1)
                            for _ in range(1 + n % 2))]
        built, parsed = fault_text(mutated(doc, faults))
        assert built == parsed, (n, faults)
        seen.add(re.sub(r"-?\d+", "N", str(built)))
        if len(faults) == 2:
            alone = {fault_text(mutated(doc, [f]))[0] for f in faults}
            contested += None not in alone and len(alone) == 2
    assert contested >= 100
    assert seen >= {
        "None", "var N out of range N..N", "var N already an edge of graph N",
        "var N already a task on processor N",
        "var N is already an edge or task var",
        "var N is already a predicate atom", "var N is not an edge of graph N",
        "graph N not declared", "processor N not declared",
        "unknown declaration 'nope'", "mst_edge expects <gid> <edgeVar> <var>",
        "reach expects <gid> <u> <v> <var>",
        "schedulable expects <pid> <var>", "edge endpoint out of range",
        "task needs A >= N and L >= N"}
