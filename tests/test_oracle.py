"""Reference-checker behavior: budget, model checking, clause validity,
and theory lemmas checked at any size."""

import pytest

from monosmt import oracle
from monosmt.build import solve_doc
from monosmt.generators import gen_maze
from monosmt.gnf import (EdgeDecl, GnfDocument, GraphDecl, PredDecl, ProcDecl,
                         TaskDecl)
from monosmt.sat import dimacs_lit

from instances import ALL_KINDS, CALLS, rand_doc, solve_recorded


def chain_doc(length, kind="reach"):
    """Directed path 0 -> ... -> length with edge vars 1..length and one
    reach(0, length) atom right after them."""
    g = GraphDecl(1, True, length + 1)
    for i in range(length):
        g.edges.append(EdgeDecl(1, i, i + 1, i + 1, 1))
    doc = GnfDocument(nvars=length + 1)
    doc.graphs[1] = g
    doc.preds.append(PredDecl(kind, 1, (0, length), length + 1))
    return doc


def test_budget_refused_for_both_entry_points():
    doc = GnfDocument(nvars=oracle.BUDGET + 1)
    with pytest.raises(ValueError):
        oracle.brute_force_solve(doc)
    with pytest.raises(ValueError):
        oracle.check_clause_valid(doc, [1])
    ok = GnfDocument(nvars=oracle.BUDGET)
    assert oracle.brute_force_solve(ok)[0] == "SAT"


def test_empty_document_is_sat():
    assert oracle.brute_force_solve(GnfDocument(nvars=0)) == ("SAT", [None])


def test_model_is_lexicographically_first():
    doc = GnfDocument(nvars=2)
    doc.clauses = [[1, 2]]
    assert oracle.brute_force_solve(doc) == ("SAT", [None, True, False])


def test_forced_atom_without_support_is_unsat():
    doc = chain_doc(1)
    doc.clauses = [[-1], [2]]
    assert oracle.brute_force_solve(doc) == ("UNSAT", None)


def test_check_model_accepts_solver_models():
    doc = chain_doc(2)
    doc.clauses = [[3], [1, 2]]
    status, values, _ = solve_doc(doc)
    assert status == "SAT"
    assert oracle.check_model(doc, values) is None


def test_check_model_names_first_violation():
    doc = chain_doc(1)
    doc.clauses = [[1]]
    assert oracle.check_model(doc, [None, True, True]) is None
    msg = oracle.check_model(doc, [None, True, False])
    assert msg == "atom var 2 (reach) is False but predicate is True"
    msg = oracle.check_model(doc, [None, False, False])
    assert msg.startswith("clause 0 falsified")
    with pytest.raises(ValueError):
        oracle.check_model(doc, [None, True])
    with pytest.raises(ValueError):
        oracle.check_model(doc, [None, True, None])


def test_check_model_scans_each_graph_once_per_mask(monkeypatch):
    # Every mst_edge and mst_weight_leq atom of the maze's tree graph reads
    # one shared Prim scan of the model's mask.
    doc = gen_maze(8, 8, 0)
    status, values, _ = solve_doc(doc)
    assert status == "SAT"
    prim = oracle.mst_prim
    calls = []
    monkeypatch.setattr(oracle, "mst_prim",
                        lambda *args: calls.append(args) or prim(*args))
    assert oracle.check_model(doc, values) is None
    assert len(calls) == 1
    flipped = list(values)
    flipped[113] = not flipped[113]
    assert oracle.check_model(doc, flipped) == (
        "atom var 113 (mst_edge) is False but predicate is True")
    falsified = list(values)
    for lit in doc.clauses[0]:
        falsified[abs(lit)] = lit < 0
    assert oracle.check_model(doc, falsified) == (
        "clause 0 falsified: [-225, 113]")


def test_predicates_share_svars_and_read_any_mask_type():
    doc = gen_maze(8, 8, 0)
    _, values, _ = solve_doc(doc)
    preds, fresh = oracle.predicates(doc), oracle.predicates(doc)
    assert len({id(p.svars) for p in preds}) == len(doc.graphs)
    for p, q in zip(preds, fresh):
        mask = bytes(values[v] for v in p.svars)
        assert p.fn(bytearray(mask)) == q.fn(mask) == values[p.var]
        mask = bytes([1 - mask[0]]) + mask[1:]
        assert p.fn(bytearray(mask)) == q.fn(mask) == p.fn(mask)


def test_clause_validity_direct_edge():
    doc = chain_doc(1)
    assert oracle.check_clause_valid(doc, [-1, 2]) is None


def test_clause_validity_finds_missing_support():
    doc = chain_doc(2)
    assert oracle.check_clause_valid(doc, [-1, -2, 3]) is None
    cex = oracle.check_clause_valid(doc, [-1, 3])
    assert cex is not None
    assert cex[1] is True and cex[3] is False
    assert oracle.check_model(doc, cex) is None


def test_clause_validity_tautology():
    doc = chain_doc(1)
    assert oracle.check_clause_valid(doc, [1, -1]) is None


def test_clause_validity_can_consult_cnf():
    doc = chain_doc(2)
    doc.clauses = [[1], [2]]
    assert oracle.check_clause_valid(doc, [3]) is not None
    assert oracle.check_clause_valid(doc, [3], include_cnf=True) is None


# -- theory lemmas at any size ----------------------------------------------

def test_lemma_checker_catches_a_missing_literal():
    doc = chain_doc(2)  # reach(0, 2) is var 3
    check = oracle.check_lemma(doc)
    assert check([3, -1, -2]) is None  # reach or not e1 or not e2
    assert check([3, -1]) == bytes([1, 0])
    assert check([-3, 1]) is None  # not reach or e1
    assert check([-3]) == bytes([1, 1])


def test_lemma_checker_accepts_a_task_literal_first():
    # Task 1 (var 1) misses alone, task 2 (var 2) fits alone; schedulable is
    # var 3. The implied task literal comes first.
    proc = ProcDecl(1)
    proc.tasks += [TaskDecl(1, 0, 5, 4, 1), TaskDecl(1, 0, 2, 4, 2)]
    doc = GnfDocument(nvars=3)
    doc.procs[1] = proc
    doc.preds.append(PredDecl("schedulable", 1, (), 3))
    check = oracle.check_lemma(doc)
    assert check([-1, -3]) is None  # not x1 or not schedulable
    assert check([-2, -3]) == bytes([0, 1])  # not x2 or not schedulable


def test_lemma_checker_reports_clauses_not_of_lemma_form():
    # reach(0, 2) is var 3 and reach(0, 1) var 4; var 5 is no S-var. Each
    # clause below is valid, but none has exactly one atom literal whose
    # other literals all sit on that atom's S-vars.
    doc = chain_doc(2)
    doc.preds.append(PredDecl("reach", 1, (0, 1), 4))
    doc.nvars = 5
    check = oracle.check_lemma(doc)
    assert check([3, -1, -2]) is None
    assert check([3, -1, -2, -4]) is not None  # two atom literals
    assert check([-1, 1]) is not None  # no atom literal
    assert check([3, -1, -2, 5]) is not None  # var 5 is off the S-vars


def test_lemma_checker_agrees_with_brute_force():
    # Every lemma, which must be valid, and every lemma less its last
    # literal, on documents small enough to enumerate.
    checked = refuted = task_first = 0
    for kind in ALL_KINDS:
        for seed in range(40):
            doc = rand_doc(kind, seed)
            if doc.nvars > 12:
                continue
            check = oracle.check_lemma(doc)
            atoms = {pred.var for pred in doc.preds}
            for lits in set(solve_recorded(doc)[1].lemmas):
                lits = [dimacs_lit(lit) for lit in lits]
                task_first += abs(lits[0]) not in atoms
                for clause in (lits, lits[:-1]) if len(lits) > 1 else (lits,):
                    valid = oracle.check_clause_valid(doc, clause) is None
                    assert (check(clause) is None) == valid, (kind, seed)
                    assert valid or clause is not lits, (kind, seed)
                    checked += 1
                    refuted += not valid
    assert checked > 200 and refuted > 20 and task_first > 0


LARGE = ["gen_maze(8, 8, 0)", "gen_maze(8, 8, 1)",
         "free_atom_flow(10, 10, seed=0)",
         "free_atom_flow(10, 10, mode='random1to4', seed=0)",
         "gen_sched(30, 3, 4, 0)", "gen_sched(30, 3, 4, 2)",
         "squeeze_flow(7, 7, 133, 2)"]


@pytest.mark.parametrize("call", LARGE)
def test_every_lemma_holds_beyond_the_brute_force_budget(call):
    doc = eval(call, CALLS)
    assert doc.nvars > oracle.BUDGET
    _, recorder = solve_recorded(doc)
    check = oracle.check_lemma(doc)
    assert recorder.lemmas
    for lits in recorder.lemmas:
        assert check([dimacs_lit(lit) for lit in lits]) is None, lits


# -- evaluator spot checks -------------------------------------------------

def test_reach_respects_directedness():
    edges = [(1, 0, 1)]
    assert not oracle.reach_dfs(2, True, edges, [1], 0, 1)
    assert oracle.reach_dfs(2, False, edges, [1], 0, 1)
    assert oracle.reach_dfs(2, True, edges, [0], 1, 1)


def test_bellman_ford_undirected_relaxation():
    edges = [(0, 1, 2), (2, 1, 3)]
    dist = oracle.dist_bellman_ford(3, False, edges, [1, 1], 0)
    assert dist == [0, 2, 5]
    dist = oracle.dist_bellman_ford(3, True, edges, [1, 1], 0)
    assert dist[2] == oracle.INF


def test_maxflow_bottleneck():
    edges = [(0, 1, 3), (0, 2, 2), (1, 3, 1), (2, 3, 4)]
    assert oracle.maxflow_dfs(4, edges, [1, 1, 1, 1], 0, 3) == 3
    assert oracle.maxflow_dfs(4, edges, [1, 0, 1, 1], 0, 3) == 1


def test_prim_forest_and_tiebreak():
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 0, 1)]
    components, total, tree = oracle.mst_prim(3, edges, [1, 1, 1, 1])
    assert (components, total) == (1, 2)
    assert tree == {0, 1}
    components, total, tree = oracle.mst_prim(3, edges, [1, 0, 0, 1])
    assert (components, total, tree) == (2, 1, {0})


def test_demand_criterion_cases():
    assert not oracle.demand_feasible([(0, 3, 2)], [1])
    assert oracle.demand_feasible([(0, 2, 2), (2, 2, 4)], [1, 1])
    assert not oracle.demand_feasible([(0, 2, 3), (0, 2, 3)], [1, 1])
    assert oracle.demand_feasible([(0, 2, 3), (0, 2, 3)], [1, 0])
    assert oracle.demand_feasible([], [])
