"""The CDCL core's search, pinned.

Each case records the verdict, the search counters and a hash of the learnt-
and theory-clause logs of a small seeded solve. A change to the core that is
meant to be faster but search the same (same trail order, decisions and
learnt clauses) must leave every entry here unchanged; a change that alters
the search, such as visiting watch lists in another order, shows up here.
"""

import hashlib

import pytest

from monosmt import generators, minimize
from monosmt.build import solve_doc


def fingerprint(status, solver):
    log = repr((solver.learned_log, solver.theory_clause_log)).encode()
    return (status, solver.conflicts, solver.decisions, solver.propagations,
            solver.theory_implications, solver.restarts,
            hashlib.sha256(log).hexdigest()[:16])


# (generator call, solver seed) -> (status, conflicts, decisions,
# propagations, theory_implications, restarts, clause-log hash)
PINNED = {
    ("gen_sched(30, 3, 4, 2)", 0):
        ("UNSAT", 12, 66, 7787, 0, 0, "d3096da155e112ba"),
    ("gen_sched(30, 3, 4, 2)", 5):
        ("UNSAT", 26, 147, 9064, 0, 0, "ac65a8fd692b6b63"),
    ("gen_maze(6, 6, 1)", 0):
        ("SAT", 110, 247, 1811, 131, 1, "5d0905fa717791a9"),
    ("gen_maze(6, 6, 1)", 5):
        ("SAT", 37, 246, 1620, 205, 0, "9a3702aa64c8bba2"),
    ("gen_flow(8, 8, seed=1)", 0):
        ("SAT", 28, 278, 393, 0, 0, "0c167720709045bb"),
    ("gen_flow(8, 8, seed=1)", 5):
        ("SAT", 30, 539, 709, 0, 0, "2fe6374504da1ac9"),
}


@pytest.mark.parametrize("call,seed", sorted(PINNED))
def test_search_matches_pinned_counters(call, seed):
    doc = eval("generators." + call)
    status, _, inst = solve_doc(doc, seed=seed, log_clauses=True)
    assert fingerprint(status, inst.solver) == PINNED[call, seed]


def test_minimize_probes_match_pinned_counters(monkeypatch):
    probes = []

    def logged(doc, seed=0):
        status, values, inst = solve_doc(doc, seed=seed, log_clauses=True)
        probes.append(fingerprint(status, inst.solver))
        return status, values, inst

    monkeypatch.setattr(minimize, "solve_doc", logged)
    doc = generators.gen_maze(3, 6, 2)
    bound_var = next(p.var for p in doc.preds if p.kind == "mst_weight_leq")
    result = minimize.minimize_bound(doc, bound_var)
    totals = [sum(probe[k] for probe in probes) for k in range(1, 6)]
    digest = hashlib.sha256(repr(probes).encode()).hexdigest()[:16]
    assert (result.bound, len(probes), totals, digest) == \
        (4012, 15, [193, 488, 3111, 436, 0], "4e81b2923d5cabc8")
