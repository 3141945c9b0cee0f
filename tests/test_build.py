"""From documents to solvers: what ``build_instance`` hands the SAT core."""

import pytest

from monosmt.build import build_instance, internal_lit, solve_doc
from monosmt.generators import gen_flow, gen_maze, gen_sched
from monosmt.gnf import GnfDocument
from monosmt.sat import UNDEF, Solver

DOCS = {
    "maze": lambda: gen_maze(4, 4, 0),
    "flow": lambda: gen_flow(4, 4, mode="unit", seed=0, demand=2),
    "sched": lambda: gen_sched(30, 2, 6, 0),
}


@pytest.mark.parametrize("make", DOCS.values(), ids=DOCS.keys())
def test_every_clause_goes_through_add_clause_once_in_order(make,
                                                           monkeypatch):
    # The benchmark's tracer times and counts set-up through this one entry
    # point, so a loader that went around it would empty those metrics.
    doc = make()
    seen = []
    add_clause = Solver.add_clause

    def counted(self, lits):
        seen.append(list(lits))
        return add_clause(self, seen[-1])

    monkeypatch.setattr(Solver, "add_clause", counted)
    inst = build_instance(doc)
    assert inst.ok
    assert seen == [[internal_lit(l) for l in c] for c in doc.clauses]


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
