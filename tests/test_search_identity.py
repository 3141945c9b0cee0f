"""The CDCL core's search, pinned.

Each case records the verdict, the search counters and a hash of the learnt
clauses and theory lemmas a solver observer saw in a small seeded solve. A change to the core that is
meant to be faster but search the same (same trail order, decisions and
learnt clauses) must leave every entry here unchanged; a change that alters
the search, such as visiting watch lists in another order, shows up here.
So does a theory explanation that names other literals or the same ones in
another order.
"""

import hashlib

import pytest

from monosmt import generators, minimize
from monosmt.build import solve_doc

from instances import CALLS, Recorder


def fingerprint(status, solver, recorder):
    log = repr((recorder.learnts, recorder.lemmas)).encode()
    return (status, solver.conflicts, solver.decisions, solver.propagations,
            solver.theory_implications, solver.restarts,
            hashlib.sha256(log).hexdigest()[:16])


# (generator call, solver seed) -> (status, conflicts, decisions,
# propagations, theory_implications, restarts, clause-log hash)
PINNED = {
    # Every task that misses alone is implied off at level 0, and the
    # cardinality constraint fails there.
    ("gen_sched(30, 3, 4, 2)", 0):
        ("UNSAT", 1, 0, 464, 55, 0, "1391876e63685b7d"),
    ("gen_sched(30, 3, 4, 2)", 5):
        ("UNSAT", 1, 0, 464, 55, 0, "1391876e63685b7d"),
    # Slack 6 leaves decisions; seed 0 explains a two-task busy window.
    ("gen_sched(30, 2, 6, 0)", 0):
        ("SAT", 3, 23, 2623, 13, 0, "c12fb2798e6bfe96"),
    ("gen_sched(30, 2, 6, 0)", 5):
        ("SAT", 11, 48, 2472, 13, 0, "4120af1ea94a7830"),
    ("gen_maze(6, 6, 1)", 0):
        ("SAT", 110, 247, 1811, 131, 1, "5d0905fa717791a9"),
    ("gen_maze(6, 6, 1)", 5):
        ("SAT", 37, 246, 1620, 205, 0, "9a3702aa64c8bba2"),
    # The one true maxflow_geq atom holds on the maximal completion, so the
    # edges are decided on and nothing conflicts.
    ("gen_flow(8, 8, seed=1)", 0):
        ("SAT", 0, 113, 185, 0, 0, "1391876e63685b7d"),
    ("gen_flow(8, 8, seed=1)", 5):
        ("SAT", 0, 113, 185, 0, 0, "1391876e63685b7d"),
    # Seed 0 makes 9 negative mst_edge explanations.
    ("gen_maze(4, 4, 1)", 0):
        ("SAT", 1020, 1572, 16869, 405, 5, "75e8528f30925e0b"),
    ("gen_maze(4, 4, 1)", 5):
        ("SAT", 74, 171, 1307, 64, 0, "588c43e563d01a70"),
    # Each explains a false mst_weight_leq atom on a connected graph.
    ("rand_doc('mst_weight_leq', 0)", 0):
        ("UNSAT", 1, 0, 1, 0, 0, "90c5b62dc5e67994"),
    ("rand_doc('mst_weight_leq', 14)", 0):
        ("UNSAT", 1, 0, 2, 0, 0, "22bc31ce727cece2"),
    ("rand_doc('mst_weight_leq', 54)", 0):
        ("UNSAT", 1, 0, 1, 0, 0, "90c5b62dc5e67994"),
    ("gen_maze(8, 8, 3000)", 0):
        ("SAT", 125, 300, 2206, 210, 1, "a715298598036b01"),
    # Large enough that the maximal completion's carried forests and trees
    # (swaps, splits, trees that keep their distances) dominate.
    ("gen_maze(16, 16, 0)", 0):
        ("SAT", 408, 1932, 13445, 1604, 3, "51ee13bee6ae984f"),
    # Edge weights 1 to 3: shortest paths through the heap.
    ("rand_doc('distance_leq', 14)", 0):
        ("SAT", 1, 7, 10, 1, 0, "e8f35a0a948f6305"),
    # Reach atoms, one of them refuted by a theory lemma.
    ("rand_doc('reach', 10)", 0):
        ("SAT", 1, 2, 6, 2, 0, "9867baf4e6fce957"),
    # Seven positive maxflow_geq explanations, of 25 to 30 literals.
    ("squeeze_flow(7, 7, 133, 2)", 0):
        ("SAT", 10, 82, 243, 0, 0, "e297766c91bf9b72"),
    # A free maxflow_geq atom leaves the edges undecided, so the flow
    # searches; every flow evaluation goes through eval_completion.
    ("free_atom_flow(8, 8, seed=1)", 0):
        ("SAT", 28, 278, 394, 1, 0, "0c167720709045bb"),
    ("free_atom_flow(8, 8, seed=1)", 5):
        ("SAT", 30, 548, 719, 1, 0, "2fe6374504da1ac9"),
    # Four positive components_leq explanations (a forest) and one
    # negative (the disabled edges between components).
    ("rand_doc('components_leq', 125)", 0):
        ("UNSAT", 5, 8, 18, 0, 0, "2a4aca7c6d0c3906"),
    # A true mst_weight_leq atom, explained by its forest.
    ("rand_doc('mst_weight_leq', 32)", 0):
        ("UNSAT", 2, 1, 7, 0, 0, "64928a7dfa3540d0"),
    # A true reach atom, explained by its path.
    ("rand_doc('reach', 5)", 0):
        ("UNSAT", 1, 0, 3, 0, 0, "eec4670a0d56b4db"),
    # A false schedulable atom holds on the maximal completion, so its tasks
    # are decided on and nothing conflicts.
    ("rand_doc('schedulable', 0)", 0):
        ("SAT", 0, 1, 3, 0, 0, "1391876e63685b7d"),
    # A true schedulable atom, explained by the task assigned false.
    ("rand_doc('schedulable', 39)", 0):
        ("UNSAT", 1, 0, 2, 0, 0, "39fe193c17571398"),
}


@pytest.mark.parametrize("call,seed", sorted(PINNED))
def test_search_matches_pinned_counters(call, seed):
    doc = eval(call, CALLS)
    recorder = Recorder()
    status, _, inst = solve_doc(doc, seed=seed, observer=recorder)
    assert fingerprint(status, inst.solver, recorder) == PINNED[call, seed]


def test_minimize_probes_match_pinned_counters(monkeypatch):
    # Every probe goes to one solver; each is fingerprinted by the counters
    # it added and by the clauses a recorder of its own saw.
    probes = []
    solve = minimize.BoundProbes.solve

    def logged(search, bound):
        solver = search.solver
        solver.observer = recorder = Recorder()
        before = fingerprint(None, solver, recorder)
        status, values = solve(search, bound)
        after = fingerprint(status, solver, recorder)
        probes.append((status,) + tuple(a - b for a, b in
                                        zip(after[1:6], before[1:6]))
                      + after[6:])
        return status, values

    monkeypatch.setattr(minimize.BoundProbes, "solve", logged)
    doc = generators.gen_maze(3, 6, 2)
    bound_var = next(p.var for p in doc.preds if p.kind == "mst_weight_leq")
    result = minimize.minimize_bound(doc, bound_var)
    totals = [sum(probe[k] for probe in probes) for k in range(1, 6)]
    digest = hashlib.sha256(repr(probes).encode()).hexdigest()[:16]
    assert (result.bound, len(probes), totals, digest) == \
        (4012, 1, [0, 28, 111, 27, 0], "d5d92a67eaed6b62")


# The first seed of each kind whose solve makes a decision, a conflict and a
# theory implication. The flow document has a free atom: without it, its
# edges are decided toward the maximal completion and it solves with no
# conflict.
OBSERVED = ["gen_maze(6, 6, 1)", "free_atom_flow(8, 8, seed=1)",
            "gen_sched(30, 2, 6, 0)", "rand_doc('reach', 10)",
            "rand_doc('distance_leq', 3)", "rand_doc('maxflow_geq', 33)",
            "rand_doc('components_leq', 10)", "rand_doc('mst_weight_leq', 47)",
            "rand_doc('mst_edge', 3)", "rand_doc('schedulable', 12)"]


@pytest.mark.parametrize("call", OBSERVED)
def test_observer_does_not_change_search(call):
    runs = []
    for observer in (None, Recorder()):
        doc = eval(call, CALLS)
        status, values, inst = solve_doc(doc, observer=observer)
        solver = inst.solver
        runs.append((status, values, solver.conflicts, solver.decisions,
                     solver.propagations, solver.theory_implications,
                     solver.restarts))
    assert runs[0] == runs[1]
    assert observer.learnts or observer.lemmas
