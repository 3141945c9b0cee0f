"""CDCL core behavior, frozen conflict-analysis shapes, and oracle agreement
on pure CNF."""

import copy
import heapq
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import monosmt
from monosmt.build import build_instance, solve_doc
from monosmt.generators import Xorshift64Star, gen_flow, gen_maze, gen_sched
from monosmt.gnf import GnfDocument
from monosmt.minimize import BoundProbes
from monosmt.oracle import brute_force_solve, check_clause_valid
from monosmt.sat import (TRUE, UNDEF, Solver, dimacs_lit, internal_lit, mk_lit,
                         neg)
from monosmt.theory import MonotonicTheory, POSITIVE

from instances import Recorder, rand_doc


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
    recorder = Recorder()
    solver, (a, b, c) = fresh(3, observer=recorder)
    solver.add_clause([mk_lit(a, True), mk_lit(b)])
    solver.add_clause([mk_lit(b, True), mk_lit(c)])
    solver.add_clause([mk_lit(b, True), mk_lit(c, True)])
    res = solver.solve([mk_lit(a)])
    assert res.status == "UNSAT"
    assert recorder.learnts[0] == (mk_lit(b, True),)
    assert solver.solve().status == "SAT"


def test_conflict_with_single_current_level_literal():
    # A conflict clause that is already asserting is learned as-is.
    recorder = Recorder()
    solver, (a, b) = fresh(2, observer=recorder)
    solver.add_clause([mk_lit(a, True), mk_lit(b)])
    solver.add_clause([mk_lit(a, True), mk_lit(b, True)])
    res = solver.solve([mk_lit(a)])
    assert res.status == "UNSAT"
    assert recorder.learnts[0] == (mk_lit(a, True),)


def test_learned_clauses_are_entailed():
    checked = 0
    for seed in range(20):
        doc = rand_cnf(8, 24, seed + 1000)
        recorder = Recorder()
        solve_doc(doc, observer=recorder)
        for clause in recorder.learnts:
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


def pop_order(solver):
    heap = list(solver._order)
    return [heapq.heappop(heap) for _ in range(len(heap))]


@pytest.mark.parametrize("seed", [0, 5])
def test_new_vars_matches_new_var_calls(seed):
    one_by_one, bulk = Solver(seed=seed), Solver(seed=seed)
    assert [one_by_one.new_var() for _ in range(300)] == list(range(300))
    assert bulk.new_vars(300) == 0
    # The noise stream written out: one draw per var, in var order; none at
    # seed 0.
    state = (seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
    noise = []
    for _ in range(300):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        noise.append((state % 1000) * 1e-6 if seed else 0.0)
    assert bulk.activity == noise
    assert len(set(noise)) > (200 if seed else 0)
    # Vars added later, as minimize's probe vars are, continue the stream.
    for solver in (one_by_one, bulk):
        assert solver.new_var() == 300 and solver.new_vars(2) == 301
    for solver in (one_by_one, bulk):
        assert len(solver.value) == 2 * 303 and len(solver.watches) == 606
    assert one_by_one.activity == bulk.activity
    assert one_by_one._seed_state == bulk._seed_state
    assert pop_order(one_by_one) == pop_order(bulk)
    assert [v for _, v in pop_order(bulk)] == sorted(
        range(303), key=lambda v: (-bulk.activity[v], v))


def test_solve_rejects_assumptions_of_unknown_vars():
    solver, (a,) = fresh(1)
    for lit in (-1, 2, 3):
        with pytest.raises(ValueError):
            solver.solve([lit])
    assert solver.solve([mk_lit(a, True)]).status == "SAT"


def spy(monkeypatch, solver, name, checked):
    """Routes ``solver``'s calls of its method ``name`` to ``checked``, and
    every other solver's to the method; returns ``solver``'s bound method.
    A ``Solver`` has no instance dict, so the class is patched."""
    method = getattr(Solver, name)

    def routed(self, *args):
        if self is solver:
            return checked(*args)
        return method(self, *args)

    monkeypatch.setattr(Solver, name, routed)
    return method.__get__(solver)


# A pure CNF with several learnt-clause reductions, and a maze.
@pytest.mark.parametrize("doc", [rand_cnf(100, 426, 0), gen_maze(6, 6, 1)],
                         ids=["cnf", "maze"])
def test_decisions_follow_activity_through_rescaling(doc, monkeypatch):
    solver = build_instance(doc).solver
    nvars = len(solver.level)
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
        unassigned = [v for v in range(nvars) if solver.value[2 * v] == UNDEF]
        current = Counter(v for negact, v in solver._order
                          if -negact == activity[v])
        assert all(current[v] == 1 for v in unassigned)
        lit, failed = decide(assumptions)
        if unassigned:
            want = min(unassigned, key=lambda v: (-activity[v], v))
            assert lit >> 1 == want
        force_rescales()
        return lit, failed

    decide = spy(monkeypatch, solver, "_decide", checked)
    force_rescales()
    rescales.clear()
    status = solver.solve().status
    assert solver.decisions > 50
    assert rescales["var"] >= 3 and rescales["clause"] >= 3
    assert status == solve_doc(doc)[0]


def test_reduce_db_unwatches_deleted_clauses_in_order(monkeypatch):
    solver = build_instance(rand_cnf(100, 426, 0)).solver
    removed_total = 0

    def checked():
        nonlocal removed_total
        # Clauses are lists, compared by identity; holding them in
        # ``before`` keeps their ids from being reused.
        before = [list(ws) for ws in solver.watches]
        learnts = {id(c) for c in solver.learnts}
        reduce_db()
        removed = learnts - {id(c) for c in solver.learnts}
        assert removed
        removed_total += len(removed)
        for old, ws in zip(before, solver.watches):
            assert list(map(id, ws)) == [id(c) for c in old
                                         if id(c) not in removed]

    reduce_db = spy(monkeypatch, solver, "_reduce_db", checked)
    assert solver.solve().status == "SAT"
    assert removed_total > 0


def test_clause_activity_tracks_the_learnt_clauses(monkeypatch):
    solver = build_instance(rand_cnf(100, 426, 0)).solver
    act = solver._clause_act
    deleted = []  # held, so that no deleted clause's id is reused
    locked_total = 0

    def checked():
        nonlocal locked_total
        assert set(act) == {id(c) for c in solver.learnts}
        before = list(solver.learnts)
        locked = [c for c in before if solver.reason[c[0] >> 1] is c
                  and solver.value[c[0]] == TRUE]
        reduce_db()
        kept = {id(c) for c in solver.learnts}
        assert set(act) == kept
        assert all(id(c) in kept for c in locked)
        deleted.extend(c for c in before if id(c) not in kept)
        assert not any(id(c) in act for c in deleted)
        locked_total += len(locked)

    reduce_db = spy(monkeypatch, solver, "_reduce_db", checked)
    assert solver.solve().status == "SAT"
    assert deleted and locked_total > 0
    assert set(act) == {id(c) for c in solver.learnts}


@pytest.mark.parametrize("make", [
    lambda: gen_maze(6, 6, 1),
    lambda: gen_flow(8, 8, seed=1),
    lambda: gen_sched(30, 3, 4, 2),
], ids=["maze", "flow", "sched"])
def test_solver_attributes_stay_in_their_slots(make):
    # A Solver holds every attribute in a declared slot; one more in an
    # instance dict would cost its memory and speed (see Solver).
    solver = build_instance(make()).solver
    assert not hasattr(solver, "__dict__")
    assert all(hasattr(solver, name) for name in Solver.__slots__
               if not name.startswith("__"))
    solver.solve()
    assert not hasattr(solver, "__dict__")
    # Kept theory conflicts are learnts too: no activity outlives its clause.
    assert set(solver._clause_act) == {id(c) for c in solver.learnts}


def test_bound_probes_keep_solver_attributes_in_their_slots():
    doc = gen_maze(3, 6, 2)
    idx = next(i for i, p in enumerate(doc.preds)
               if p.kind == "mst_weight_leq")
    search = BoundProbes(doc, idx)
    for bound in (0, 4000, 4012, 8000):
        search.solve(bound)
        assert not hasattr(search.solver, "__dict__")


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
    th = MonotonicTheory([])
    try:
        solver.attach_theory(th)
    except ValueError:
        return
    raise AssertionError("late attach was accepted")


class ConstantTheory(MonotonicTheory):
    """One predicate that is simply false on every completion."""

    def evaluate(self, pred, enabled, analysis):
        return False


def test_theory_conflict_at_level_zero():
    solver, (p,) = fresh(1)
    th = ConstantTheory([])
    th.register_predicate(p, POSITIVE, "never", ())
    solver.attach_theory(th)
    solver.add_clause([mk_lit(p)])
    assert solver.solve().status == "UNSAT"


def test_two_disjoint_graphs_match_oracle():
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


class ToyTheory:
    """The solver's theory interface with nothing propagated and no S-var;
    ``log`` is for subclasses that record their calls."""

    slot_vars = ()

    def __init__(self, log=None):
        self.log = log

    def attach(self, solver):
        self.solver = solver

    def on_assign(self, lit):
        pass

    def on_backjump(self, level):
        pass

    def agreed_fill(self):
        return None

    def propagate(self):
        return (), None


class LateConflict(ToyTheory):
    # From decision level 2 on, with var 0 true, the conflict (not x0): its
    # one literal lies at level 1, below the current level.
    def propagate(self):
        solver = self.solver
        if len(solver.trail_lim) >= 2 and solver.value[mk_lit(0)] == TRUE:
            return (), [mk_lit(0, True)]
        return (), None


def test_theory_conflict_below_the_current_level():
    # Var 0 is decided true at level 1 and var 1 at level 2; the conflict
    # then lies wholly at level 1, and the search backjumps there before
    # analysing it.
    recorder = Recorder()
    solver, vs = fresh(3, observer=recorder)
    for v in vs:
        solver.phase[v] = True
    solver.attach_theory(LateConflict())
    res = solver.solve()
    assert res.status == "SAT" and res.model == [False, True, True]
    assert solver.conflicts == 1
    assert recorder.learnts == [(mk_lit(0, True),)]


class ImpliesVar0(ToyTheory):
    def propagate(self):
        self.log.append("A")
        if self.solver.value[mk_lit(0)] == UNDEF:
            return ((mk_lit(0), 0),), None
        return (), None


class RecordsVar1(ToyTheory):
    def propagate(self):
        self.log.append(("B", self.solver.value[mk_lit(1)]))
        return (), None


def test_theory_implication_sends_the_search_back_to_bcp():
    # The first theory implies var 0 at level 0; BCP on (not x0 or x1) sets
    # var 1 before the first theory runs again, and only then does the
    # second theory run, already seeing var 1 true.
    log = []
    solver, (a, b) = fresh(2)
    solver.add_clause([mk_lit(a, True), mk_lit(b)])
    solver.attach_theory(ImpliesVar0(log))
    solver.attach_theory(RecordsVar1(log))
    assert solver.solve().status == "SAT"
    assert log == ["A", "A", ("B", TRUE)]


class ExplainsOnce(ToyTheory):
    # Implies x0, or not x0 when ``negative``, for atom 7 once x1 holds,
    # with the reason (that literal or not x1); ``log`` records each
    # explain call.
    negative = False

    def propagate(self):
        val = self.solver.value
        if val[mk_lit(1)] == TRUE and val[mk_lit(0)] == UNDEF:
            return ((mk_lit(0, self.negative), 7),), None
        return (), None

    def explain(self, atom_id, lit):
        self.log.append((atom_id, lit))
        return (lit, mk_lit(1, True))


@pytest.mark.parametrize("negative", [False, True], ids=["x0", "not-x0"])
def test_theory_reason_is_explained_once(negative):
    # The implication's slot holds the (theory, atom id) pair until the
    # first read explains it; later reads get the cached clause. The
    # implied literal, of either sign, is read off its var's value.
    log = []
    solver, (a, b) = fresh(2)
    th = ExplainsOnce(log)
    th.negative = negative
    solver.attach_theory(th)
    solver.trail_lim.append(len(solver.trail))
    solver._enqueue(mk_lit(b), None)
    assert solver._propagate_all() is None
    assert solver.reason[a] == (th, 7)
    first = solver._reason_clause(a)
    assert first == [mk_lit(a, negative), mk_lit(b, True)]
    assert solver.reason[a] is first
    assert solver._reason_clause(a) is first
    assert log == [(7, mk_lit(a, negative))]


_ROGUE_THEORIES = """
from monosmt.sat import Solver, mk_lit


class Rogue:
    # Implies ``lit`` for atom 0 on every pass from decision level ``level``
    # on, and explains it by ``reason``. It has no S-var.
    slot_vars = ()

    def __init__(self, lit, reason, level):
        self.lit, self.reason, self.level = lit, reason, level

    def attach(self, solver):
        self.solver = solver

    def on_assign(self, lit):
        pass

    def on_backjump(self, level):
        pass

    def agreed_fill(self):
        return None

    def propagate(self):
        if len(self.solver.trail_lim) < self.level:
            return (), None
        return ((self.lit, 0),), None

    def explain(self, atom_id, lit):
        return self.reason


print(__debug__)
# An implication of an already false literal; an explanation that puts the
# implied literal second. In the second, var 0 is decided false, var 2 is
# implied and the clauses below then conflict on var 3, so conflict analysis
# expands the reason for var 2.
for false_var, rogue in ((0, Rogue(mk_lit(0), None, 0)),
                         (1, Rogue(mk_lit(2), [mk_lit(1), mk_lit(2)], 1))):
    solver = Solver()
    for _ in range(4):
        solver.new_var()
    solver.add_clause([mk_lit(false_var, True)])
    solver.add_clause([mk_lit(2, True), mk_lit(0), mk_lit(3)])
    solver.add_clause([mk_lit(2, True), mk_lit(0), mk_lit(3, True)])
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



class GivesUp(Solver):
    # A decision heuristic that gives up while a var is still unassigned.
    def _decide(self, assumptions):
        return None, False


print(__debug__)
solver = GivesUp()
solver.new_var()
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


# -- bulk loading ------------------------------------------------------------

LOADED = ("ok", "clauses", "watches", "trail", "value", "level", "reason")


def load(nvars, clauses, bulk):
    """A solver of ``nvars`` vars given ``clauses``, GNF literal lists, by
    one ``add_clauses`` call or by one ``add_clause`` call each on their
    solver literals; returns the result and the solver."""
    solver, _ = fresh(nvars)
    if bulk:
        return solver.add_clauses(clauses), solver
    return all(solver.add_clause([internal_lit(lit) for lit in c])
               for c in clauses), solver


def assert_loads_alike(nvars, clauses):
    written = copy.deepcopy(clauses)
    (ok, bulk), (each_ok, each) = (load(nvars, clauses, True),
                                   load(nvars, clauses, False))
    assert clauses == written  # read, never changed
    assert ok == each_ok
    for name in LOADED:
        assert getattr(bulk, name) == getattr(each, name), name
    return bulk


def test_add_clauses_simplifies_as_add_clause_does():
    a, b, c, d = 1, 2, 3, 4
    solver = assert_loads_alike(4, [
        [b, -a], [a], [c, -c], [d, c, d], [-a, d, c], [b, c], [c, d, -b]])
    # a, then b by propagation; the tautology, the satisfied [b, c] and
    # the false literals go, and [d, c, d] is merged to [c, d].
    a, b, c, d = (mk_lit(v) for v in range(4))
    assert solver.ok and solver.trail == [a, b]
    assert [sorted(cl) for cl in solver.clauses] == [[a ^ 1, b], [c, d],
                                                      [c, d], [c, d]]


def test_add_clauses_stops_at_a_root_conflict():
    a, b, c, d = 1, 2, 3, 4
    clauses = [[a, b], [a], [-b], [-a], [d, c, b], [c, d]]
    assert_loads_alike(4, clauses)
    solver, _ = fresh(4)
    assert not solver.add_clauses(clauses)
    assert not solver.ok
    assert solver.clauses == [[mk_lit(0), mk_lit(1)]]
    assert not solver.add_clauses([[c, d]])  # an UNSAT solver takes none
    assert solver.clauses == [[mk_lit(0), mk_lit(1)]]


@pytest.mark.parametrize("clause", [[1, "bad"], [1, 2, "bad"],
                                    [1, 2, 3, 4, "bad"], ["bad"],
                                    ["bad", -10], ["bad", -10, 0]])
@pytest.mark.parametrize("bad", [-1, 16, 17, 2 ** 64 - 1])
def test_add_clauses_rejects_literals_of_unknown_vars(clause, bad):
    # ``bad`` is a solver literal of no var of 8, written in the clause as
    # GNF writes it: 0, 9, -9 and -2 ** 63. Two literals out of range can
    # differ in var by the x ^ y test. The bulk loader names the first
    # literal out of range as written.
    written = dimacs_lit(bad)
    assert internal_lit(written) == bad
    clause = [written if lit == "bad" else lit for lit in clause]
    with pytest.raises(ValueError, match=r"^unknown variable in clause: "
                       r"lit %d$" % written):
        load(8, [[1, 4], clause], True)
    with pytest.raises(ValueError, match="unknown variable in clause"):
        load(8, [[1, 4], clause], False)


def test_add_clauses_requires_level_zero():
    solver, _ = fresh(2)
    solver.trail_lim.append(len(solver.trail))
    with pytest.raises(ValueError, match="decision level 0"):
        solver.add_clauses([[1, 2]])


@pytest.mark.parametrize("seed", range(20))
def test_add_clauses_loads_random_clauses_as_add_clause_does(seed):
    # Literals drawn with replacement give duplicates and tautologies; one
    # clause in 30 is a unit, and 5 of these 20 sets conflict at the root.
    rng = Xorshift64Star(seed)
    clauses = [[dimacs_lit(mk_lit(rng.randint(0, 99),
                                  rng.randint(0, 1) == 1))
                for _ in range(1 if rng.randint(0, 29) == 0
                               else rng.randint(2, 5))]
               for _ in range(200)]
    solver = assert_loads_alike(100, clauses)
    assert solver.add_clauses([]) == solver.ok


def test_add_clauses_keeps_a_binary_clause_in_a_list_of_two():
    # A list built by appending holds four slots. Kept as such, the 10,976
    # binary clauses of gen_sched(100, 3, 4, 1000) held 0.17 MiB more.
    solver, (a, b) = fresh(2)
    solver.add_clauses([[lit for lit in (b + 1, a + 1)]])
    assert solver.clauses == [[mk_lit(a), mk_lit(b)]]
    assert sys.getsizeof(solver.clauses[0]) == sys.getsizeof([0, 0])
