"""Deciding a theory's S-vars toward the extreme its level-0 atoms agree on.

After the level-0 fixpoint, ``Solver.solve`` sets the saved phase of every
S-var of a theory whose ``agreed_fill`` is True or False, before the first
decision. A theory with an unassigned atom, with atoms that point to
different extremes, or with no atom gives None and leaves the phases alone;
so does a var shared by theories whose fills differ.
"""

from monosmt.build import build_instance, solve_doc
from monosmt.generators import gen_flow
from monosmt.graphs import GraphTheory
from monosmt.oracle import check_model
from monosmt.sat import Solver, mk_lit
from monosmt.theory import POSITIVE

from instances import free_atom_flow
from test_sat_core import spy
from test_theory_driver import ToyTheory


def phases_at_first_decision(monkeypatch, solver):
    """A list that the solve fills with the saved phases as they stand at
    its first decision."""
    seen = []

    def checked(assumptions):
        if not seen:
            seen.append(list(solver.phase))
        return decide(assumptions)

    decide = spy(monkeypatch, solver, "_decide", checked)
    return seen


def test_flow_decided_toward_its_true_atom_never_conflicts():
    doc = gen_flow(8, 8, seed=1)
    status, values, inst = solve_doc(doc)
    assert status == "SAT" and check_model(doc, values) is None
    assert inst.theories[0].agreed_fill() is True
    assert inst.solver.conflicts == 0


def test_unassigned_atom_leaves_phases_alone(monkeypatch):
    inst = build_instance(free_atom_flow(8, 8, seed=1))
    solver, (th,) = inst.solver, inst.theories
    before = [v % 3 == 0 for v in range(len(solver.phase))]
    solver.phase[:] = before
    seen = phases_at_first_decision(monkeypatch, solver)
    assert solver.solve().status == "SAT"
    assert th.agreed_fill() is None
    assert seen == [before]
    assert solver.conflicts > 0


def two_graphs(saved):
    """Graph A (path e, f) with a true reach atom, whose fill is True, and
    graph B (path e, g) with a false one, whose fill is False; every var
    starts at phase ``saved``."""
    solver = Solver()
    e, f, g, a, b = (solver.new_var() for _ in range(5))
    first = GraphTheory(True, 3, [(0, 1, e, 1), (1, 2, f, 1)])
    first.add_atom("reach", (0, 2), a)
    second = GraphTheory(True, 3, [(0, 1, e, 1), (1, 2, g, 1)])
    second.add_atom("reach", (0, 2), b)
    solver.add_clause([mk_lit(a)])
    solver.add_clause([mk_lit(b, True)])
    solver.phase[:] = [saved] * 5
    return solver, first, second, (e, f, g)


def test_shared_var_with_different_fills_keeps_its_phase(monkeypatch):
    for saved in (False, True):
        solver, first, second, (e, f, g) = two_graphs(saved)
        solver.attach_theory(first)
        solver.attach_theory(second)
        seen = phases_at_first_decision(monkeypatch, solver)
        assert solver.solve().status == "SAT"
        assert (first.agreed_fill(), second.agreed_fill()) == (True, False)
        phase = seen[0]
        assert (phase[e], phase[f], phase[g]) == (saved, True, False)


def test_theory_without_atoms_is_ignored(monkeypatch):
    # The atomless theory shares var e with graph A; A's fill alone sets it.
    solver, first, _, (e, f, _) = two_graphs(False)
    bare = ToyTheory([e])
    solver.attach_theory(bare)
    solver.attach_theory(first)
    seen = phases_at_first_decision(monkeypatch, solver)
    assert solver.solve().status == "SAT"
    assert bare.agreed_fill() is None
    assert (seen[0][e], seen[0][f]) == (True, True)
