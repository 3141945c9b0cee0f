"""CDCL core behavior, frozen conflict-analysis shapes, and oracle agreement
on pure CNF."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import monosmt
from monosmt.build import build_instance, dimacs_lit, solve_doc
from monosmt.generators import Xorshift64Star, gen_maze
from monosmt.gnf import GnfDocument
from monosmt.oracle import brute_force_solve, check_clause_valid
from monosmt.sat import UNDEF, Solver, mk_lit, neg
from monosmt.theory import MonotonicTheory, POSITIVE

from instances import rand_doc


def fresh(n, **kw):
    solver = Solver(**kw)
    vs = [solver.new_var() for _ in range(n)]
    return solver, vs


def test_direct_contradiction_at_root():
    solver, (a,) = fresh(1)
    assert solver.add_clause([mk_lit(a)])
    assert not solver.add_clause([mk_lit(a, True)])
    assert solver.solve().status == "UNSAT"


def test_unit_propagation_under_assumption():
    solver, (a, b) = fresh(2)
    assert solver.add_clause([mk_lit(a), mk_lit(b)])
    res = solver.solve([mk_lit(a, True)])
    assert res.status == "SAT"
    assert res.model[b] and not res.model[a]


def test_empty_formula_is_sat():
    res = Solver().solve()
    assert res.status == "SAT"
    assert res.model == []


def test_all_sign_patterns_unsat():
    solver, (a, b) = fresh(2)
    for sa in (False, True):
        for sb in (False, True):
            solver.add_clause([mk_lit(a, sa), mk_lit(b, sb)])
    assert solver.solve().status == "UNSAT"


def pigeonhole_clauses(pigeons, holes):
    """var p*holes + h <=> pigeon p sits in hole h, 1-based DIMACS lits."""
    clauses = [[1 + p * holes + h for h in range(holes)]
               for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-(1 + p * holes + h), -(1 + q * holes + h)])
    return clauses


def test_pigeonhole_unsat_matches_oracle():
    doc = GnfDocument(nvars=6, clauses=pigeonhole_clauses(3, 2))
    assert brute_force_solve(doc)[0] == "UNSAT"
    status, _, _ = solve_doc(doc)
    assert status == "UNSAT"


def rand_cnf(nvars, nclauses, seed, width=3):
    rng = Xorshift64Star(seed)
    clauses = []
    for _ in range(nclauses):
        clause = []
        for _ in range(width):
            v = rng.randint(1, nvars)
            clause.append(v if rng.randint(0, 1) else -v)
        clauses.append(clause)
    return GnfDocument(nvars=nvars, clauses=clauses)


def test_random_3cnf_matches_enumeration():
    for seed in range(100):
        doc = rand_cnf(12, 40, seed)
        status, values, _ = solve_doc(doc)
        want, _ = brute_force_solve(doc)
        assert status == want, "seed %d" % seed
        if values is not None:
            bits = values[1:]
            for clause in doc.clauses:
                assert any(bits[abs(l) - 1] == (l > 0) for l in clause)


def test_first_uip_on_implication_chain():
    # Decide a, propagate a -> b -> c, conflict (-b | -c). The first UIP is
    # b, so the learned clause is the unit (-b) with a backjump to level 0.
    solver, (a, b, c) = fresh(3, log_clauses=True)
    solver.add_clause([mk_lit(a, True), mk_lit(b)])
    solver.add_clause([mk_lit(b, True), mk_lit(c)])
    solver.add_clause([mk_lit(b, True), mk_lit(c, True)])
    res = solver.solve([mk_lit(a)])
    assert res.status == "UNSAT"
    assert solver.learned_log[0] == (mk_lit(b, True),)
    assert solver.solve().status == "SAT"


def test_conflict_with_single_current_level_literal():
    # A conflict clause that is already asserting is learned as-is.
    solver, (a, b) = fresh(2, log_clauses=True)
    solver.add_clause([mk_lit(a, True), mk_lit(b)])
    solver.add_clause([mk_lit(a, True), mk_lit(b, True)])
    res = solver.solve([mk_lit(a)])
    assert res.status == "UNSAT"
    assert solver.learned_log[0] == (mk_lit(a, True),)


def test_learned_clauses_are_entailed():
    checked = 0
    for seed in range(20):
        doc = rand_cnf(8, 24, seed + 1000)
        _, _, inst = solve_doc(doc, log_clauses=True)
        for clause in inst.solver.learned_log:
            lits = [dimacs_lit(l) for l in clause]
            bad = check_clause_valid(doc, lits, include_cnf=True)
            assert bad is None, "seed %d clause %s" % (seed, lits)
            checked += 1
    assert checked > 0


def test_add_clause_rejects_literals_of_unknown_vars():
    solver, (a, b) = fresh(2)
    for lit in (-1, -2, 2 * 2, 2 * 2 + 1):
        with pytest.raises(ValueError):
            solver.add_clause([mk_lit(a), lit])
    assert solver.add_clause([mk_lit(b, True)])  # the highest literal is fine
    assert solver.solve().status == "SAT"


def test_add_clause_reads_an_iterator_once():
    solver, (a, b) = fresh(2)
    assert solver.add_clause(iter([mk_lit(a), mk_lit(b)]))
    assert solver.ok and len(solver.clauses) == 1


def test_solve_rejects_assumptions_of_unknown_vars():
    solver, (a,) = fresh(1)
    for lit in (-1, 2, 3):
        with pytest.raises(ValueError):
            solver.solve([lit])
    assert solver.solve([mk_lit(a, True)]).status == "SAT"


# A pure CNF with several learnt-clause reductions, and a maze.
@pytest.mark.parametrize("doc", [rand_cnf(100, 426, 0), gen_maze(6, 6, 1)],
                         ids=["cnf", "maze"])
def test_decisions_follow_activity_through_rescaling(doc):
    solver = build_instance(doc).solver
    nvars = len(solver.assigns)
    decide = solver._decide
    rescales = Counter()

    def force_rescales():
        # Keep both increments at their rescale thresholds, so that the
        # second bump of a var or a clause rescales them all.
        if solver._var_inc < 1e100:
            rescales["var"] += 1
            solver._var_inc = 1e100
        if solver._cla_inc < 1e20:
            rescales["clause"] += 1
            solver._cla_inc = 1e20

    def checked(assumptions):
        activity = solver.activity
        unassigned = [v for v in range(nvars) if solver.assigns[v] == UNDEF]
        current = Counter(v for negact, v in solver._order
                          if -negact == activity[v])
        assert all(current[v] == 1 for v in unassigned)
        lit, failed = decide(assumptions)
        if unassigned:
            want = min(unassigned, key=lambda v: (-activity[v], v))
            assert lit >> 1 == want
        force_rescales()
        return lit, failed

    solver._decide = checked
    force_rescales()
    rescales.clear()
    status = solver.solve().status
    assert solver.decisions > 50
    assert rescales["var"] >= 3 and rescales["clause"] >= 3
    assert status == solve_doc(doc)[0]


def test_reduce_db_unwatches_deleted_clauses_in_order():
    solver = build_instance(rand_cnf(100, 426, 0)).solver
    reduce_db = solver._reduce_db
    removed_total = 0

    def checked():
        nonlocal removed_total
        before = [list(ws) for ws in solver.watches]
        learnts = set(solver.learnts)
        reduce_db()
        removed = learnts - set(solver.learnts)
        assert removed
        removed_total += len(removed)
        for old, ws in zip(before, solver.watches):
            assert ws == [c for c in old if c not in removed]

    solver._reduce_db = checked
    assert solver.solve().status == "SAT"
    assert removed_total > 0


def test_assumptions_are_reusable():
    solver, (a, b) = fresh(2)
    solver.add_clause([mk_lit(a), mk_lit(b)])
    assert solver.solve([mk_lit(a, True), mk_lit(b, True)]).status == "UNSAT"
    res = solver.solve([mk_lit(a, True)])
    assert res.status == "SAT" and res.model[b]
    assert solver.solve().status == "SAT"


def test_attach_theory_after_solving_rejected():
    solver, _ = fresh(1)
    solver.solve()
    th = MonotonicTheory()
    try:
        solver.attach_theory(th)
    except ValueError:
        return
    raise AssertionError("late attach was accepted")


class ConstantTheory(MonotonicTheory):
    """One predicate that is simply false on every completion."""

    def eval_completion(self, maximal):
        return [False] * len(self._preds), {}


def test_theory_conflict_at_level_zero():
    solver, (p,) = fresh(1)
    th = ConstantTheory()
    th.register_predicate(p, POSITIVE, "never", ())
    solver.attach_theory(th)
    solver.add_clause([mk_lit(p)])
    assert solver.solve().status == "UNSAT"


def test_two_disjoint_graph_theories_match_oracle():
    # Two independent graphs in one document; propagation must interleave
    # without interference, so the status has to match the oracle.
    tested = 0
    for seed in range(60):
        doc = rand_doc("reach", seed)
        other = rand_doc("components_leq", seed + 7)
        if doc.nvars + other.nvars > 16:
            continue  # keep the exhaustive check quick
        shift = doc.nvars
        other_graph = other.graphs[1]
        other_graph.gid = 2
        for e in other_graph.edges:
            e.gid = 2
            e.var += shift
        doc.graphs[2] = other_graph
        for pred in other.preds:
            doc.preds.append(type(pred)(pred.kind, 2, pred.args,
                                        pred.var + shift))
        for clause in other.clauses:
            doc.clauses.append([l + shift if l > 0 else l - shift
                                for l in clause])
        doc.nvars += other.nvars
        status, values, _ = solve_doc(doc)
        want, _ = brute_force_solve(doc)
        assert status == want, "seed %d" % seed
        tested += 1
    assert tested >= 15


def test_stats_line_mentions_counters():
    solver, (a,) = fresh(1)
    solver.add_clause([mk_lit(a)])
    solver.solve()
    line = solver.stats_line()
    assert "conflicts=" in line and "decisions=" in line


_ROGUE_THEORIES = """
from monosmt.sat import Solver, mk_lit


class Rogue:
    # Implies ``lit`` for atom 0 on every pass and explains it by ``reason``.
    def __init__(self, lit, reason):
        self.lit, self.reason = lit, reason

    def attach(self, solver, tid):
        pass

    def on_assign(self, lit):
        pass

    def on_backjump(self, level):
        pass

    def propagate(self):
        return ((self.lit, 0),), None

    def explain(self, atom_id, lit):
        return self.reason


print(__debug__)
# An implication of an already false literal; an explanation that puts the
# implied literal second.
for false_var, rogue, validate in ((0, Rogue(mk_lit(0), None), False),
                                   (1, Rogue(mk_lit(0), [mk_lit(1),
                                                         mk_lit(0)]), True)):
    solver = Solver(validate_reasons=validate)
    solver.new_var()
    solver.new_var()
    solver.add_clause([mk_lit(false_var, True)])
    solver.attach_theory(rogue)
    try:
        print("returned", solver.solve().status)
    except RuntimeError as exc:
        print("raised", exc)
"""


def run_optimized(script):
    """stdout lines of ``script`` run by ``python -O`` with this package
    importable."""
    src = str(Path(monosmt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_theory_guards_survive_optimize_flag():
    assert run_optimized(_ROGUE_THEORIES) == [
        "False",
        "raised theory implied an assigned literal",
        "raised explain must put the implied literal first",
    ]


_NO_DECISION_LEFT = """
from monosmt.sat import Solver

print(__debug__)
solver = Solver()
solver.new_var()
# A decision heuristic that gives up while a var is still unassigned.
solver._decide = lambda assumptions: (None, False)
try:
    print("returned", solver.solve().status)
except RuntimeError as exc:
    print("raised", exc)
"""


def test_model_guard_survives_optimize_flag():
    assert run_optimized(_NO_DECISION_LEFT) == [
        "False",
        "raised model has unassigned vars",
    ]
