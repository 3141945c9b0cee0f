"""Minimization of spanning-tree weight bounds."""

import copy

import pytest

from monosmt import build, minimize
from monosmt.build import solve_doc
from monosmt.generators import Xorshift64Star, gen_maze
from monosmt.gnf import EdgeDecl, GnfDocument, GraphDecl, PredDecl
from monosmt.minimize import minimize_bound
from monosmt.oracle import check_model, mst_prim

from instances import rand_doc


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


def at_bound(doc, atom, bound):
    probed = copy.deepcopy(doc)
    next(p for p in probed.preds if p.var == atom).args = (bound,)
    return probed


def reprobe(doc, atom, bound):
    return solve_doc(at_bound(doc, atom, bound))[0]


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


def test_unsatisfiable_total_with_the_atom_free_probes_zero():
    # With every edge on and the atom false, no bound at or above the tree
    # weight 3 is satisfiable, but every bound below it is.
    doc, atom = tree_doc([(0, 1, 1), (1, 2, 2), (0, 2, 3)],
                         forced=[[1], [2], [3], [-4]])
    doc.clauses.remove([atom])
    res = minimize_bound(doc, atom)
    assert res.probes == [(6, "UNSAT"), (0, "SAT")]
    assert res.feasible and res.bound == 0 and res.values[atom] is False
    assert scratch_minimize(doc, atom)[0] == 0
    assert [reprobe(doc, atom, b) for b in range(7)] == ["SAT"] * 3 + [
        "UNSAT"] * 4


def test_reference_finds_zero_below_a_gap_of_unsatisfiable_bounds():
    # The atom false forces the weight-2 edge on, the atom true the
    # weight-10 edge alone: bounds 0 and 1 and bounds from 10 up are
    # satisfiable. Bisection from the total alone would stop at 10.
    doc, atom = tree_doc([(0, 1, 2), (0, 1, 10)])
    doc.clauses = [[-atom, -1], [-atom, 2], [atom, 1]]
    assert [reprobe(doc, atom, b) for b in range(13)] == (
        ["SAT"] * 2 + ["UNSAT"] * 8 + ["SAT"] * 3)
    assert minimize_bound(doc, atom).bound == 0
    assert scratch_minimize(doc, atom)[0] == 0


def test_probe_log_is_a_monotone_search():
    # The optimum need not be probed: a model whose tree weighs the
    # level-0 floor ends the search at once.
    doc, atom = tree_doc([(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    res = minimize_bound(doc, atom)
    assert res.probes[0] == (6, "SAT")
    assert res.bound == scratch_minimize(doc, atom)[0]
    assert all(b >= res.bound for b, s in res.probes if s == "SAT")
    assert all(b < res.bound for b, s in res.probes if s == "UNSAT")
    assert check_model(at_bound(doc, atom, res.bound), res.values) is None


def test_non_monotone_answers_still_give_an_ordered_probe_log(monkeypatch):
    # Bisection only probes between its last UNSAT and its last SAT bound,
    # so the probe log stays ordered whatever the answers are: an answer
    # that is not monotone in the bound yields a wrong bound, never an
    # UNSAT probe above a SAT one.
    asked = []

    def answers(unsat_mod):
        def solve(search, bound):
            asked.append(bound)
            return (("SAT", [None] * (search.inst.doc.nvars + 1))
                    if bound % 3 != unsat_mod else ("UNSAT", None))
        return solve

    # The asserted atom starts the search at the level-0 floor, 5 + 6 + 9.
    doc, atom = tree_doc([(0, 1, 5), (1, 2, 6), (0, 2, 7), (2, 3, 9)])
    monkeypatch.setattr(minimize.BoundProbes, "solve", answers(1))
    assert minimize_bound(doc, atom).probes == [(27, "SAT"), (20, "SAT")]
    # An unforced atom starts it at 0.
    asked.clear()
    doc, atom = tree_doc([(0, 1, 5), (1, 2, 6), (0, 2, 7), (2, 3, 11)])
    doc.clauses = []
    monkeypatch.setattr(minimize.BoundProbes, "solve", answers(0))
    res = minimize_bound(doc, atom)
    assert [b for b, _ in res.probes] == asked
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


def scratch_minimize(doc, atom):
    """Plain search over [0, total edge weight], with a document copy and a
    solver of its own per probe; returns (bound, probes), the bound None
    when infeasible. A model with the atom false meets every bound below
    its tree weight, so bound 0 is probed first. Once it is UNSAT, only
    models with the atom true meet a bound, each every bound from its tree
    weight up, so feasibility is monotone: the total decides it, and
    bisection finds the least bound."""
    owner = next(p.owner for p in doc.preds if p.var == atom)
    total = sum(e.weight for e in doc.graphs[owner].edges)
    probes = [(0, reprobe(doc, atom, 0))]
    if probes[0][1] == "SAT":
        return 0, probes
    probes.append((total, reprobe(doc, atom, total)))
    if probes[1][1] == "UNSAT":
        return None, probes
    lo, hi = 1, total
    while lo < hi:
        mid = (lo + hi) // 2
        status = reprobe(doc, atom, mid)
        probes.append((mid, status))
        if status == "SAT":
            hi = mid
        else:
            lo = mid + 1
    return hi, probes


def bound_doc(seed, forced):
    """``rand_doc('mst_weight_leq', seed)`` whose first atom a has no unit
    clause but sits in clauses of both signs over other vars x, y, z of
    random sign. Forced: (a or x), (a or not x) and (not a or y or z), so a
    holds. Otherwise a is free in (a or x or y) and (not a or z), and each
    edge is forced on with probability 1/2."""
    doc = rand_doc("mst_weight_leq", seed)
    atom = doc.preds[0].var
    rng = Xorshift64Star(seed)
    doc.clauses = [c for c in doc.clauses if c not in ([atom], [-atom])]
    x, y, z = ((v + (v >= atom)) * (-1) ** rng.randint(0, 1)
               for v in (rng.randint(1, doc.nvars - 1) for _ in range(3)))
    if forced:
        doc.clauses += [[atom, x], [atom, -x], [-atom, y, z]]
    else:
        doc.clauses += [[atom, x, y], [-atom, z]]
        doc.clauses += [[e.var] for e in doc.graphs[1].edges
                        if rng.randint(0, 1)]
    return doc, atom


def tree_weight(doc, atom, values):
    """The spanning-tree weight of the atom's graph under a model, by
    ``oracle.mst_prim``."""
    g = doc.graphs[next(p.owner for p in doc.preds if p.var == atom)]
    return mst_prim(g.n, [(e.u, e.v, e.weight) for e in g.edges],
                    [values[e.var] for e in g.edges])[1]


def logged_search(monkeypatch, doc, atom):
    """``minimize_bound`` with each probe's (bound, status, values)."""
    seen = []
    solve = minimize.BoundProbes.solve

    def logged(search, bound):
        status, values = solve(search, bound)
        seen.append((bound, status, values))
        return status, values

    monkeypatch.setattr(minimize.BoundProbes, "solve", logged)
    res = minimize_bound(doc, atom)
    assert res.probes == [(bound, status) for bound, status, _ in seen]
    return res, seen


def assert_same_answers(monkeypatch, doc, atom):
    """The optimum is ``scratch_minimize``'s, a solver of its own gives
    each probe's answer at that bound, and every model passes the model
    check at its bound. Which bounds are probed after the first depends on
    the models found, so on what the solver learnt before."""
    bound, _ = scratch_minimize(doc, atom)
    res, seen = logged_search(monkeypatch, doc, atom)
    assert res.bound == bound
    for probed, status, values in seen:
        assert reprobe(doc, atom, probed) == status
        if status == "SAT":
            assert check_model(at_bound(doc, atom, probed), values) is None
    if res.feasible:
        assert check_model(at_bound(doc, atom, bound), res.values) is None
    return res


def mazes():
    """``gen_maze(3, 6, k)`` for k < 6, each with its mst_weight_leq atom."""
    return [(doc, next(p.var for p in doc.preds if p.kind == "mst_weight_leq"))
            for doc in (gen_maze(3, 6, k) for k in range(6))]


def test_one_solver_searches_as_a_solver_per_probe_on_mazes(monkeypatch):
    for doc, atom in mazes():
        assert_same_answers(monkeypatch, doc, atom)


def test_one_solver_searches_as_a_solver_per_probe_on_random_documents(
        monkeypatch):
    # Searches with both answers; optima with the atom false. Bounds from
    # models end most searches without an UNSAT probe, hence 300 seeds.
    both = free = 0
    for seed in range(300):
        for forced in (True, False):
            doc, atom = bound_doc(seed, forced)
            res = assert_same_answers(monkeypatch, doc, atom)
            both += len({status for _, status in res.probes}) == 2
            free += res.feasible and not res.values[atom]
    assert both >= 50 and free >= 50


def level_zero_floor(doc, atom):
    """``BoundProbes.floor`` after a first probe at the total weight, and
    that probe's model; both None when it is UNSAT."""
    idx = next(i for i, p in enumerate(doc.preds) if p.var == atom)
    search = minimize.BoundProbes(doc, idx)
    total = sum(e.weight for e in doc.graphs[doc.preds[idx].owner].edges)
    status, values = search.solve(total)
    return (search.floor(), values) if status == "SAT" else (None, None)


def test_level_zero_floor_is_a_lower_bound():
    floored = 0
    # A first probe with few conflicts seldom learns the atom true at
    # level 0, which the floor needs; hence 600 seeds.
    for doc, atom in [bound_doc(seed, True) for seed in range(600)] + mazes():
        floor, _ = level_zero_floor(doc, atom)
        if floor:
            floored += 1
            assert reprobe(doc, atom, floor - 1) == "UNSAT"
    assert floored >= 25


def test_atom_true_in_a_model_but_not_at_level_zero_gets_no_floor():
    # Its first model has the atom true, yet a model with the atom false
    # satisfies the document at bound 0. Flooring the search at the tree of
    # the level-0 maximal completion would return that tree's weight, 9.
    doc, atom = bound_doc(6, False)
    floor, values = level_zero_floor(doc, atom)
    assert values[atom] is True and floor == 0
    res = minimize_bound(doc, atom)
    assert res.bound == scratch_minimize(doc, atom)[0] == 0


def test_no_probe_reaches_the_tree_of_a_model_with_the_atom_true(
        monkeypatch):
    lowered = 0  # models whose tree lowered the ceiling below their probe
    docs = [bound_doc(seed, forced) for seed in range(150)
            for forced in (True, False)]
    for doc, atom in docs + mazes():
        _, seen = logged_search(monkeypatch, doc, atom)
        ceiling = None
        for bound, status, values in seen:
            assert ceiling is None or bound < ceiling
            if status == "SAT" and values[atom]:
                weight = tree_weight(doc, atom, values)
                assert weight <= bound
                if ceiling is None or weight < ceiling:
                    lowered += weight < bound
                    ceiling = weight
    assert lowered >= 50


def test_probes_decide_the_owning_graphs_edges_on():
    # The maze's second graph, a directed one with vars of its own, keeps
    # the phases a plain build leaves.
    doc = gen_maze(3, 6, 2)
    idx = next(i for i, p in enumerate(doc.preds)
               if p.kind == "mst_weight_leq")
    search = minimize.BoundProbes(doc, idx)
    rest = copy.copy(doc)
    rest.preds = doc.preds[:idx] + doc.preds[idx + 1:]
    plain = build.build_instance(rest).solver.phase
    owned = set(search.theory.slot_vars)
    assert owned == {e.var - 1 for e in doc.graphs[1].edges}
    assert search.solver.phase == [True if v in owned else phase
                                   for v, phase in enumerate(plain)]


def test_first_model_often_weighs_the_optimum():
    # Edges decided on give a first model with a light tree. Its weight
    # meets the level-0 floor on many mazes, which ends the search after
    # one probe; with edges decided off, none ends there.
    ended = 0
    for k in range(1000, 1080):
        doc = gen_maze(3, 6, k)
        idx = next(i for i, p in enumerate(doc.preds)
                   if p.kind == "mst_weight_leq")
        res = minimize_bound(doc, doc.preds[idx].var)
        ended += len(res.probes) == 1
        search = minimize.BoundProbes(doc, idx)  # plain bisection
        lo, hi = 0, sum(e.weight for e in doc.graphs[1].edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if search.solve(mid)[0] == "SAT":
                hi = mid
            else:
                lo = mid + 1
        assert res.bound == hi
    assert ended >= 30
