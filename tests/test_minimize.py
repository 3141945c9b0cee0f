"""Binary-search minimization of spanning-tree weight bounds."""

import copy

import pytest

from monosmt import minimize
from monosmt.build import solve_doc
from monosmt.generators import gen_maze
from monosmt.gnf import EdgeDecl, GnfDocument, GraphDecl, PredDecl
from monosmt.minimize import minimize_bound


def tree_doc(edges, forced=(), bound=None):
    """Undirected graph, free edge vars 1..m, mst_weight_leq atom var m+1
    asserted true."""
    g = GraphDecl(1, False, 1 + max(max(u, v) for u, v, _ in edges))
    for i, (u, v, w) in enumerate(edges):
        g.edges.append(EdgeDecl(1, u, v, i + 1, w))
    doc = GnfDocument(nvars=len(edges) + 1)
    doc.graphs[1] = g
    atom = len(edges) + 1
    doc.preds.append(PredDecl("mst_weight_leq", 1, (bound,), atom))
    doc.clauses = [[atom]] + [list(c) for c in forced]
    return doc, atom


def reprobe(doc, atom, bound):
    trial = copy.deepcopy(doc)
    idx = next(i for i, p in enumerate(trial.preds) if p.var == atom)
    trial.preds[idx].args = (bound,)
    return solve_doc(trial)[0]


def test_triangle_minimum_is_two_lightest_edges():
    doc, atom = tree_doc([(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    res = minimize_bound(doc, atom)
    assert res.feasible and res.bound == 3
    assert reprobe(doc, atom, 3) == "SAT"
    assert reprobe(doc, atom, 2) == "UNSAT"
    assert res.values[atom] is True


def test_forced_heavy_edge_raises_minimum():
    # With the weight-3 edge forced in and the weight-1 edge forced out, the
    # only spanning tree is {3, 2}.
    doc, atom = tree_doc([(0, 1, 1), (1, 2, 2), (0, 2, 3)],
                         forced=[[-1], [3]])
    res = minimize_bound(doc, atom)
    assert res.feasible and res.bound == 5
    assert reprobe(doc, atom, 5) == "SAT"
    assert reprobe(doc, atom, 4) == "UNSAT"


def test_infeasible_document_reports_no_bound():
    doc, atom = tree_doc([(0, 1, 4)], forced=[[-1]])
    res = minimize_bound(doc, atom)
    assert not res.feasible
    assert res.bound is None and res.values is None
    assert res.probes == [(4, "UNSAT")]


def test_probe_log_is_a_monotone_search():
    doc, atom = tree_doc([(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    res = minimize_bound(doc, atom)
    assert res.probes[0] == (6, "SAT")
    sat_bounds = [b for b, s in res.probes if s == "SAT"]
    unsat_bounds = [b for b, s in res.probes if s == "UNSAT"]
    assert min(sat_bounds) == res.bound
    assert all(b < res.bound for b in unsat_bounds)


def test_non_monotone_answers_still_give_an_ordered_probe_log(monkeypatch):
    # Binary search only probes between its last UNSAT and its last SAT
    # bound, so the probe log stays ordered whatever the answers are: an
    # answer that is not monotone in the bound yields a wrong bound, never
    # an UNSAT probe above a SAT one.
    doc, atom = tree_doc([(0, 1, 5), (1, 2, 6), (0, 2, 7), (2, 3, 9)])

    def non_monotone(trial, seed=0):
        sat = trial.preds[0].args[0] % 3 != 1
        return ("SAT", [None] * (trial.nvars + 1), None) if sat else (
            "UNSAT", None, None)

    monkeypatch.setattr(minimize, "solve_doc", non_monotone)
    res = minimize_bound(doc, atom)
    sat_bounds = [b for b, s in res.probes if s == "SAT"]
    unsat_bounds = [b for b, s in res.probes if s == "UNSAT"]
    assert len(res.probes) > 3 and sat_bounds and unsat_bounds
    assert max(unsat_bounds) < min(sat_bounds) == res.bound


def test_zero_bound_reachable_when_graph_is_trivial():
    doc, atom = tree_doc([(0, 1, 0)])
    res = minimize_bound(doc, atom)
    assert res.feasible and res.bound == 0


def test_other_atoms_refused():
    doc, atom = tree_doc([(0, 1, 1)])
    doc.preds.append(PredDecl("components_leq", 1, (1,), atom + 1))
    doc.nvars += 1
    with pytest.raises(ValueError):
        minimize_bound(doc, atom + 1)
    with pytest.raises(ValueError):
        minimize_bound(doc, 999)


def test_original_document_is_untouched():
    # Probes share the caller's graphs and clauses; only the probed atom is
    # replaced, in a list of the probe's own.
    maze = gen_maze(3, 6, 2)
    for doc, atom in (tree_doc([(0, 1, 1), (1, 2, 2), (0, 2, 3)]),
                      (maze, next(p.var for p in maze.preds
                                  if p.kind == "mst_weight_leq"))):
        before = copy.deepcopy(doc)
        preds = doc.preds
        minimize_bound(doc, atom)
        assert doc == before and doc.preds is preds
