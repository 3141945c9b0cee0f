"""Benchmark generators: determinism, instance semantics, rendering."""

import pytest

from monosmt import oracle
from monosmt.build import solve_doc
from monosmt.generators import (Xorshift64Star, gen_flow, gen_maze,
                                gen_sched)
from monosmt.gnf import GnfDocument, GnfError, serialize
from monosmt.render import render_maze

GOLDEN_MAZE_4X4_SEED1 = (
    "#########\n"
    "#S    # #\n"
    "##### # #\n"
    "#   # # #\n"
    "# # # # #\n"
    "# #   # #\n"
    "# ##### #\n"
    "#      F#\n"
    "#########"
)


def test_prng_stream_is_stable():
    rng = Xorshift64Star(1)
    first = [rng.next() for _ in range(3)]
    rng = Xorshift64Star(1)
    assert [rng.next() for _ in range(3)] == first
    assert Xorshift64Star(0).state == Xorshift64Star(1 << 64).state
    rng = Xorshift64Star(9)
    assert all(2 <= rng.randint(2, 5) <= 5 for _ in range(64))


@pytest.mark.parametrize("make", [
    lambda s: gen_maze(4, 4, s),
    lambda s: gen_flow(3, 4, "random1to4", s),
    lambda s: gen_sched(9, 3, 40, s),
], ids=["maze", "flow", "sched"])
def test_same_seed_same_bytes(make):
    assert serialize(make(11)) == serialize(make(11))
    assert serialize(make(11)) != serialize(make(12))


# -- maze ----------------------------------------------------------------------

def maze_model_facts(doc, values):
    width, height = (int(x) for x in doc.meta["maze"][:2])
    n = width * height
    g1, g2 = doc.graphs[1], doc.graphs[2]
    m = len(g1.edges)
    en1 = bytearray(1 if values[e.var] else 0 for e in g1.edges)
    en2 = bytearray(1 if values[e.var] else 0 for e in g2.edges)
    path = oracle.dist_bellman_ford(n, True,
                                    [(e.u, e.v, e.weight) for e in g2.edges],
                                    en2, 0)[n - 1]
    tree = oracle.mst_prim(n, [(e.u, e.v, e.weight) for e in g1.edges],
                           en1)[2]
    fwd_true = {i for i in range(m) if values[1 + 2 * m + i]}
    return path, tree, fwd_true


def test_maze_4x4_has_a_long_tree_path():
    doc = gen_maze(4, 4, 1)
    status, values, _ = solve_doc(doc)
    assert status == "SAT"
    path, tree, fwd_true = maze_model_facts(doc, values)
    assert 12 <= path <= 16
    assert fwd_true == tree
    assert oracle.check_model(doc, values) is None


def test_maze_2x2_matches_brute_force():
    doc = gen_maze(2, 2, 0)
    assert solve_doc(doc)[0] == "UNSAT"
    assert oracle.brute_force_solve(doc)[0] == "UNSAT"


def test_maze_3x3_cannot_stretch_far_enough():
    # Nine nodes allow a tree path of at most eight arcs, one short of the
    # lower bound, so every seed is unsatisfiable.
    for seed in range(3):
        assert solve_doc(gen_maze(3, 3, seed))[0] == "UNSAT"


def test_maze_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        gen_maze(1, 5, 0)
    with pytest.raises(ValueError):
        gen_maze(5, 1, 0)


# -- flow ------------------------------------------------------------------------

def test_flow_unit_defaults_and_demand():
    doc = gen_flow(4, 4, "unit", 0)
    assert doc.meta["flow"] == ["4", "4", "unit", "4"]
    status, values, _ = solve_doc(doc)
    assert status == "SAT"
    g = doc.graphs[1]
    enabled = bytearray(1 if values[e.var] else 0 for e in g.edges)
    edges = [(e.u, e.v, e.weight) for e in g.edges]
    assert oracle.maxflow_dfs(g.n, edges, enabled, 16, 17) >= 4
    assert oracle.check_model(doc, values) is None


def test_flow_demand_above_row_width_is_unsat():
    assert solve_doc(gen_flow(4, 4, "unit", 0, demand=5))[0] == "UNSAT"


def test_flow_small_instances_match_brute_force():
    for seed in range(21):
        for demand in (2, 4):
            doc = gen_flow(2, 2, "unit", seed, demand=demand)
            assert solve_doc(doc)[0] == oracle.brute_force_solve(doc)[0]


def test_flow_never_forces_vertical_arcs_off():
    doc = gen_flow(5, 5, "random1to4", 3)
    vertical_vars = set(range(1, 4 * 5 + 1))  # down arcs come first
    units = [c[0] for c in doc.clauses if len(c) == 1]
    assert not any(-u in vertical_vars for u in units if u < 0)
    assert any(u in vertical_vars for u in units if u > 0)


def test_flow_validation():
    with pytest.raises(ValueError):
        gen_flow(0, 3, "unit", 0)
    with pytest.raises(ValueError):
        gen_flow(3, 3, "best", 0)
    with pytest.raises(ValueError):
        gen_flow(3, 3, "unit", 0, demand=-1)


# -- sched -----------------------------------------------------------------------

def test_sched_places_exactly_half():
    doc = gen_sched(10, 2, 50, 0)
    status, values, _ = solve_doc(doc)
    assert status == "SAT"
    s = lambda i: 1 + 10 * 2 + i
    x = lambda i, p: 1 + i * 2 + p
    chosen = [i for i in range(10) if values[s(i)]]
    assert len(chosen) == 5
    # groups of five are all-or-none
    for base in (0, 5):
        flags = {values[s(i)] for i in range(base, base + 5)}
        assert len(flags) == 1
    for i in chosen:
        assert sum(bool(values[x(i, p)]) for p in range(2)) == 1
    for p in range(2):
        proc = doc.procs[p]
        triples = [(t.arrival, t.duration, t.deadline) for t in proc.tasks]
        enabled = [1 if values[t.var] else 0 for t in proc.tasks]
        assert oracle.demand_feasible(triples, enabled)
    assert oracle.check_model(doc, values) is None


def test_sched_small_instances_match_brute_force():
    for seed in range(11):
        for slack in (1, 5):
            doc = gen_sched(3, 1, slack, seed)
            assert doc.nvars <= oracle.BUDGET
            assert solve_doc(doc)[0] == oracle.brute_force_solve(doc)[0]


def test_sched_tight_slack_is_unsat():
    # Tasks of length > 1 cannot fit a one-tick window on any processor.
    assert solve_doc(gen_sched(3, 1, 1, 0))[0] == "UNSAT"


def test_sched_validation():
    with pytest.raises(ValueError):
        gen_sched(0, 1, 50, 0)
    with pytest.raises(ValueError):
        gen_sched(1, 0, 50, 0)
    with pytest.raises(ValueError):
        gen_sched(4, 1, 0, 0)
    with pytest.raises(ValueError):
        gen_sched(4, 1, 999, 0)


# -- render ----------------------------------------------------------------------

def test_render_layout_from_synthetic_model():
    doc = gen_maze(2, 2, 0)
    values = [False] * (doc.nvars + 1)
    m = 4
    values[1 + 2 * m + 0] = True  # open only the arc between cells 0 and 1
    art = render_maze(doc, values)
    assert art == ("#####\n"
                   "#S  #\n"
                   "#####\n"
                   "# #F#\n"
                   "#####")


def test_render_golden_solved_maze():
    doc = gen_maze(4, 4, 1)
    status, values, _ = solve_doc(doc)
    assert status == "SAT"
    art = render_maze(doc, values)
    assert art == GOLDEN_MAZE_4X4_SEED1
    # sixteen cells minus the two markers plus a spanning tree's 15 walls
    assert art.count(" ") == 29


def test_render_requires_maze_metadata():
    with pytest.raises(GnfError):
        render_maze(GnfDocument(nvars=0), [None])
