"""EDF simulation, busy-window explanations, and the schedulability theory."""

import random

import pytest

from monosmt import oracle
from monosmt.build import run_solve
from monosmt.generators import gen_sched
from monosmt.gnf import GnfDocument, PredDecl, ProcDecl, TaskDecl
from monosmt.scheduling import (ProcessorTheory, TaskSpec, busy_window_tasks,
                                edf_simulate)
from monosmt.sat import dimacs_lit

from instances import solve_recorded
from test_sat_core import run_optimized


def specs(triples):
    return [TaskSpec(i, i + 1, a, l, d)
            for i, (a, l, d) in enumerate(triples)]


def all_on(tasks):
    return bytearray([1]) * len(tasks)


def sched_doc(triples, clauses):
    """Task vars 1..n, schedulable atom var n+1."""
    doc = GnfDocument(nvars=len(triples) + 1)
    proc = ProcDecl(1)
    for i, (a, l, d) in enumerate(triples):
        proc.tasks.append(TaskDecl(1, a, l, d, i + 1))
    doc.procs[1] = proc
    doc.preds.append(PredDecl("schedulable", 1, (), len(triples) + 1))
    doc.clauses = [list(c) for c in clauses]
    return doc


# -- simulator ---------------------------------------------------------------

def test_exact_fit_is_feasible():
    tasks = specs([(0, 2, 2)])
    res = edf_simulate(tasks, all_on(tasks))
    assert res.feasible
    assert res.completion == {0: 2}
    assert res.segments == [(0, 2, 0)]


def test_two_tasks_overload_one_slot():
    tasks = specs([(0, 2, 2), (0, 2, 3)])
    res = edf_simulate(tasks, all_on(tasks))
    assert (res.miss_tid, res.miss_deadline) == (1, 3)
    assert busy_window_tasks(tasks, all_on(tasks), res) == [0, 1]


def test_impossible_task_blamed_alone():
    # The first task cannot fit its own window, so the explanation must not
    # drag the later task in.
    tasks = specs([(0, 5, 4), (4, 1, 9)])
    res = edf_simulate(tasks, all_on(tasks))
    assert (res.miss_tid, res.miss_deadline) == (0, 4)
    assert busy_window_tasks(tasks, all_on(tasks), res) == [0]


def test_miss_detected_at_preemption_boundary():
    # The miss is noticed when a preemption check lands on the deadline,
    # before the job would have finished.
    tasks = specs([(0, 5, 4), (4, 1, 9)])
    res = edf_simulate(tasks, all_on(tasks))
    assert res.segments == [(0, 4, 0)]


def test_idle_gap_between_arrivals():
    tasks = specs([(0, 1, 1), (5, 1, 6)])
    res = edf_simulate(tasks, all_on(tasks))
    assert res.feasible
    assert res.segments == [(0, 1, 0), (5, 6, 1)]


def test_deadline_tie_breaks_by_arrival_then_id():
    tasks = specs([(1, 1, 4), (0, 1, 4)])
    res = edf_simulate(tasks, all_on(tasks))
    assert res.feasible
    assert res.segments == [(0, 1, 1), (1, 2, 0)]


def test_busy_window_needs_every_contributor():
    # Jointly infeasible set whose every proper subset is feasible: the
    # explanation window has to keep all three tasks.
    triples = [(0, 7, 11), (1, 1, 3), (2, 4, 8)]
    tasks = specs(triples)
    res = edf_simulate(tasks, all_on(tasks))
    assert (res.miss_tid, res.miss_deadline) == (0, 11)
    assert busy_window_tasks(tasks, all_on(tasks), res) == [0, 1, 2]
    for drop in range(3):
        enabled = all_on(tasks)
        enabled[drop] = 0
        assert edf_simulate(tasks, enabled).feasible, drop


def test_window_excludes_earlier_busy_period():
    # Work that finishes before an idle gap ahead of the overload is not
    # part of the returned window.
    triples = [(0, 1, 1), (5, 2, 8), (5, 2, 7)]
    tasks = specs(triples)
    res = edf_simulate(tasks, all_on(tasks))
    assert (res.miss_tid, res.miss_deadline) == (1, 8)
    assert busy_window_tasks(tasks, all_on(tasks), res) == [1, 2]


# -- properties against the demand-criterion oracle ----------------------------

def rand_triples(rng, n):
    out = []
    for _ in range(n):
        a = rng.randrange(0, 13)
        l = rng.randrange(1, 6)
        out.append((a, l, a + rng.randrange(1, 9)))
    return out


_MADE_UP_MISSES = """
from monosmt.scheduling import EdfResult, TaskSpec, busy_window_tasks
print(__debug__)
tasks = [TaskSpec(0, 1, 0, 2, 10)]
for completion in ({0: 1}, {}):  # window not covered; window not overloaded
    try:
        busy_window_tasks(tasks, bytearray([1]),
                          EdfResult(0, 10, completion, []))
    except RuntimeError as exc:
        print("raised", exc)
"""


def test_busy_window_guards_survive_optimize_flag():
    assert run_optimized(_MADE_UP_MISSES) == [
        "False",
        "raised miss window not covered",
        "raised busy window not overloaded",
    ]


def test_edf_agrees_with_demand_criterion():
    rng = random.Random(4242)
    for _ in range(120):
        triples = rand_triples(rng, rng.randrange(1, 7))
        tasks = specs(triples)
        enabled = bytearray(rng.randrange(2) for _ in tasks)
        got = edf_simulate(tasks, enabled).feasible
        assert got == oracle.demand_feasible(triples, enabled), (triples,
                                                                 enabled)


def test_disabling_tasks_never_hurts():
    rng = random.Random(77)
    found = 0
    for _ in range(150):
        triples = rand_triples(rng, rng.randrange(2, 7))
        tasks = specs(triples)
        enabled = bytearray(rng.randrange(2) for _ in tasks)
        if not edf_simulate(tasks, enabled).feasible:
            continue
        found += 1
        for i in range(len(tasks)):
            if enabled[i]:
                trimmed = bytearray(enabled)
                trimmed[i] = 0
                assert edf_simulate(tasks, trimmed).feasible
    assert found >= 40


def test_busy_window_subset_is_infeasible_alone():
    # The universal validity of miss explanations: the window tasks by
    # themselves overload the processor per the demand criterion.
    rng = random.Random(9001)
    misses = 0
    for _ in range(300):
        triples = rand_triples(rng, rng.randrange(2, 7))
        tasks = specs(triples)
        enabled = bytearray(rng.randrange(2) for _ in tasks)
        res = edf_simulate(tasks, enabled)
        if res.feasible:
            continue
        misses += 1
        window = busy_window_tasks(tasks, enabled, res)
        assert window
        assert all(enabled[tid] for tid in window)
        alone = bytearray(len(tasks))
        for tid in window:
            alone[tid] = 1
        assert not oracle.demand_feasible(triples, alone), (triples, window)
    assert misses >= 60


# -- theory registration ----------------------------------------------------------

# A task var named twice is rejected by the base constructor: see
# test_a_repeated_argument_var_is_rejected. Task times and atoms are
# checked where a document is read: see test_gnf's
# test_parser_and_theories_apply_the_same_rules.


def test_evaluate_matches_simulator():
    th = ProcessorTheory([(1, 0, 2, 2), (2, 0, 2, 3)])
    atom = th.atom(th.add_atom("schedulable", (), 3))
    assert th.evaluate(atom, bytearray([1, 0]), {})
    assert not th.evaluate(atom, bytearray([1, 1]), {})


# -- end-to-end clause shapes ------------------------------------------------------

def test_overload_clause_names_busy_window():
    doc = sched_doc([(0, 2, 2), (0, 2, 3)], [[1], [2], [3]])
    status, recorder = solve_recorded(doc)
    clauses = recorder.lemma_sets()
    assert status == "UNSAT"
    assert frozenset((-1, -2, -3)) in clauses
    assert oracle.check_clause_valid(doc, [-1, -2, -3]) is None


def test_singleton_overload_clause():
    doc = sched_doc([(0, 5, 4)], [[1], [2]])
    status, recorder = solve_recorded(doc)
    clauses = recorder.lemma_sets()
    assert status == "UNSAT"
    assert frozenset((-1, -2)) in clauses
    assert oracle.check_clause_valid(doc, [-1, -2]) is None


def test_feasible_clause_blames_disabled_tasks():
    doc = sched_doc([(0, 2, 2), (0, 2, 3)], [[1], [-2], [-3]])
    status, recorder = solve_recorded(doc)
    clauses = recorder.lemma_sets()
    assert status == "UNSAT"
    assert frozenset((2, 3)) in clauses
    assert oracle.check_clause_valid(doc, [2, 3]) is None


def test_all_enabled_feasible_gives_unit_clause():
    doc = sched_doc([(0, 1, 2)], [[1], [-2]])
    status, recorder = solve_recorded(doc)
    clauses = recorder.lemma_sets()
    assert status == "UNSAT"
    assert frozenset((2,)) in clauses


def test_true_atom_implies_a_task_that_misses_alone_off():
    # Task 1 misses alone; task 2 fits alone and stays free.
    doc = sched_doc([(0, 5, 4), (0, 2, 4)], [[3]])
    status, recorder = solve_recorded(doc)
    assert status == "SAT"
    assert [tuple(map(dimacs_lit, c)) for c in recorder.lemmas] == [(-1, -3)]
    assert oracle.check_clause_valid(doc, [-1, -3]) is None


@pytest.mark.parametrize("seed", range(10))
def test_task_reasons_hold_on_generated_schedules(seed):
    # solve_recorded checks every reason when it is made, the implied
    # literal first; some of them imply a task literal.
    doc = gen_sched(30, 3, 4, seed)
    _, recorder = solve_recorded(doc)
    check = oracle.check_lemma(doc)
    atoms = {pred.var for pred in doc.preds}
    task_first = [lits for lits in recorder.lemmas
                  if abs(dimacs_lit(lits[0])) not in atoms]
    assert task_first
    for lits in recorder.lemmas:
        assert check([dimacs_lit(lit) for lit in lits]) is None, lits


def test_schedule_witness_merges_resumed_segments():
    doc = sched_doc([(0, 5, 10), (2, 1, 20)], [[1], [2], [3]])
    code, lines = run_solve(doc, witness=True)
    assert code == 10
    assert lines[0] == "s SATISFIABLE"
    assert lines[1] == "v 1 2 3 0"
    assert lines[2] == "w schedulable 1 : 0 0 5 1 5 6"


def test_schedule_witness_keeps_real_preemptions():
    doc = sched_doc([(0, 3, 9), (1, 1, 3)], [[1], [2], [3]])
    code, lines = run_solve(doc, witness=True)
    assert code == 10
    assert lines[2] == "w schedulable 1 : 0 0 1 1 1 2 0 2 4"
