"""Graph predicate evaluators, witness clause shapes, and oracle agreement.

The frozen clauses below were hand-derived from the witness rules and
cross-checked by exhaustive enumeration; each test also re-checks its clause
through the independent oracle.
"""

from collections import Counter

import pytest

from monosmt import graphs, oracle
from monosmt.build import build_instance, run_solve, solve_doc
from monosmt.generators import Xorshift64Star, gen_maze
from monosmt.gnf import EdgeDecl, GnfDocument, GraphDecl, PredDecl
from monosmt.graphs import (EdgeSpec, GraphTheory, bfs_tree, dijkstra_tree,
                            edmonds_karp, find, span_scan)
from monosmt.sat import dimacs_lit

from instances import (Recorder, rand_graph, rand_pred, solve_recorded,
                       squeeze_flow, GRAPH_KINDS, DIRECTED_KINDS)
from test_completions import assert_same_tree


def graph_doc(directed, n, edges, preds, clauses):
    """edges are (u, v, w) with vars 1..m; pred atom vars follow the edges."""
    g = GraphDecl(1, directed, n)
    for i, (u, v, w) in enumerate(edges):
        g.edges.append(EdgeDecl(1, u, v, i + 1, w))
    doc = GnfDocument(nvars=len(edges) + len(preds))
    doc.graphs[1] = g
    for j, (kind, args) in enumerate(preds):
        doc.preds.append(PredDecl(kind, 1, args, len(edges) + 1 + j))
    doc.clauses = [list(c) for c in clauses]
    return doc


def assert_theory_clause(doc, want_status, want_clause):
    status, recorder = solve_recorded(doc)
    clauses = recorder.lemma_sets()
    assert status == want_status
    want = frozenset(want_clause)
    assert want in clauses, "expected %s in %s" % (sorted(want),
                                                   [sorted(c) for c in
                                                    clauses])
    assert oracle.check_clause_valid(doc, list(want)) is None


# -- reach -----------------------------------------------------------------

def test_reach_positive_path_witness():
    doc = graph_doc(True, 3, [(0, 1, 1), (1, 2, 1)],
                    [("reach", (0, 2))], [[1], [2], [-3]])
    assert_theory_clause(doc, "UNSAT", (-1, -2, 3))


def test_reach_reflexive_unit_witness():
    doc = graph_doc(True, 2, [(0, 1, 1)],
                    [("reach", (1, 1))], [[-2]])
    assert_theory_clause(doc, "UNSAT", (2,))


def test_reach_negative_single_edge_cut():
    doc = graph_doc(True, 2, [(0, 1, 1)],
                    [("reach", (0, 1))], [[-1], [2]])
    assert_theory_clause(doc, "UNSAT", (1, -2))


def test_reach_isolated_target_empty_cut():
    doc = graph_doc(True, 2, [], [("reach", (0, 1))], [[1]])
    assert_theory_clause(doc, "UNSAT", (-1,))


def count_tree_runs(monkeypatch, names=("bfs_tree", "dijkstra_tree")):
    """The names of the tree routines run from now on, in call order."""
    runs = []
    for name in names:
        def counted(*args, name=name, run=getattr(graphs, name)):
            runs.append(name)
            return run(*args)
        monkeypatch.setattr(graphs, name, counted)
    return runs


def test_reach_and_distance_read_one_tree_per_source(monkeypatch):
    # Weighted, so the heap runs; no extreme builds a second tree of 0.
    runs = count_tree_runs(monkeypatch)
    th = GraphTheory(True, 3, [(0, 1, 0, 2), (1, 2, 1, 1), (0, 2, 2, 5)])
    reach = th.add_atom("reach", (0, 2), 3)
    dist = th.add_atom("distance_leq", (0, 2, 3), 4)
    for maximal in (False, True):
        runs.clear()
        values = th._values(maximal)
        assert list(th.completion(maximal).stack[-1][2]) == [("dij", 0)]
        assert runs == ["dijkstra_tree"]
        assert values[reach] == values[dist] == maximal


# -- distance_leq ------------------------------------------------------------

def test_distance_positive_shortest_path_witness():
    # Triangle 0->1->2 of weight 2 beats the direct weight-3 edge.
    doc = graph_doc(True, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)],
                    [("distance_leq", (0, 2, 2))], [[1], [2], [3], [-4]])
    assert_theory_clause(doc, "UNSAT", (-1, -2, 4))


def test_distance_negative_incident_cut():
    # Only the weight-3 edge enabled: every assignment keeping e01 disabled
    # leaves the distance above 2. The disabled e12 starts at node 1, which
    # is unreached, so it is not in the cut.
    doc = graph_doc(True, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)],
                    [("distance_leq", (0, 2, 2))], [[-1], [-2], [3], [4]])
    assert_theory_clause(doc, "UNSAT", (1, -4))
    assert oracle.check_lemma(doc)([1, -4]) is None


def test_distance_zero_bound_reflexive():
    doc = graph_doc(True, 2, [(0, 1, 1)],
                    [("distance_leq", (0, 0, 0))], [[-2]])
    assert_theory_clause(doc, "UNSAT", (2,))


# -- components_leq ---------------------------------------------------------

def test_components_positive_spanning_forest():
    doc = graph_doc(False, 3, [(0, 1, 1), (1, 2, 1)],
                    [("components_leq", (1,))], [[1], [2], [-3]])
    assert_theory_clause(doc, "UNSAT", (-1, -2, 3))


def test_components_negative_cross_edges():
    doc = graph_doc(False, 3, [(0, 1, 1), (1, 2, 1)],
                    [("components_leq", (2,))], [[-1], [-2], [3]])
    assert_theory_clause(doc, "UNSAT", (1, 2, -3))


def test_components_count_isolated_vertices():
    th = GraphTheory(False, 3, [(0, 0, 0, 1)])  # self-loop joins nothing
    three = th.atom(th.add_atom("components_leq", (3,), 1))
    two = th.atom(th.add_atom("components_leq", (2,), 2))
    assert th.evaluate(three, bytearray([1]), {})
    assert not th.evaluate(two, bytearray([1]), {})


# -- maxflow_geq -------------------------------------------------------------

def test_maxflow_zero_demand_unit_witness():
    doc = graph_doc(True, 2, [(0, 1, 1)],
                    [("maxflow_geq", (0, 1, 0))], [[-2]])
    assert_theory_clause(doc, "UNSAT", (2,))


def test_maxflow_zero_demand_names_no_flow_edge():
    # A bound of 0 holds on every mask, so the lemma that refutes it names
    # no edge, even with edge 0 -> 1 forced on and carrying flow.
    doc = graph_doc(True, 2, [(0, 1, 1)],
                    [("maxflow_geq", (0, 1, 0))], [[1], [-2]])
    status, recorder = solve_recorded(doc)
    assert status == "UNSAT"
    assert recorder.lemma_sets() == [frozenset((2,))]


def test_maxflow_negative_single_cut_edge():
    doc = graph_doc(True, 2, [(0, 1, 3)],
                    [("maxflow_geq", (0, 1, 1))], [[-1], [2]])
    assert_theory_clause(doc, "UNSAT", (1, -2))


def test_maxflow_positive_two_path_support():
    doc = graph_doc(True, 4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)],
                    [("maxflow_geq", (0, 3, 2))],
                    [[1], [2], [3], [4], [-5]])
    assert_theory_clause(doc, "UNSAT", (-1, -2, -3, -4, 5))


def test_maxflow_sets_residual_cut_side():
    th = GraphTheory(True, 2, [(0, 1, 0, 5)])
    full = edmonds_karp(th._flow_adj, th._weights, 2, bytearray([1]), 0, 1)
    assert full.value == 5 and full.cut_side[0] and not full.cut_side[1]


def test_positive_flow_witness_reads_the_stacked_flow(monkeypatch):
    # Each witness lists exactly the edges that carry flow in the max flow
    # stacked on the minimal completion for the generation it explains.
    seen = []
    witness_slots = GraphTheory.witness_slots

    def checked(th, pred, positive, enabled, moved, analysis):
        slots = witness_slots(th, pred, positive, enabled, moved, analysis)
        if positive:
            gen = len(moved)  # the minimal completion's log up to the prefix
            stacked = next(a for g, _, a in th.completion(False).stack
                           if g == gen)
            flow = stacked[("flow", *pred.payload[:2])].flow
            assert slots == [eid for eid, f in enumerate(flow) if f > 0]
            seen.append(gen)
        return slots

    monkeypatch.setattr(GraphTheory, "witness_slots", checked)
    assert solve_doc(squeeze_flow(7, 7, 133, 2))[0] == "SAT"
    assert len(seen) > 3


# -- mst_weight_leq ----------------------------------------------------------

def test_mst_weight_positive_forest_witness():
    doc = graph_doc(False, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)],
                    [("mst_weight_leq", (3,))], [[1], [2], [3], [-4]])
    assert_theory_clause(doc, "UNSAT", (-1, -2, 4))


def test_mst_weight_disconnected_cut_witness():
    doc = graph_doc(False, 2, [(0, 1, 1)],
                    [("mst_weight_leq", (None,))], [[-1], [2]])
    assert_theory_clause(doc, "UNSAT", (1, -2))
    # Three components, one per node: every disabled edge joins two of
    # them, so the clause names all three, not one node's cut.
    doc = graph_doc(False, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)],
                    [("mst_weight_leq", (None,))], [[-1], [-2], [-3], [4]])
    assert_theory_clause(doc, "UNSAT", (1, 2, 3, -4))


def test_mst_weight_improving_edge_witness():
    # Connected but too heavy; the disabled lighter parallel edge is the
    # only thing that could bring the tree under the bound.
    doc = graph_doc(False, 2, [(0, 1, 5), (0, 1, 1)],
                    [("mst_weight_leq", (3,))], [[1], [-2], [3]])
    assert_theory_clause(doc, "UNSAT", (2, -3))


def test_mst_weight_improving_edge_ties_do_not_lighten():
    # The tree 0-1-2 weighs 4 > 3, and its path from 0 to 2 peaks at
    # weight 3. The disabled w2 edge 0-2 would lighten it; the disabled w3
    # edge 0-2 only ties the peak, so the lemma leaves it out.
    doc = graph_doc(False, 3, [(0, 1, 1), (1, 2, 3), (0, 2, 2), (0, 2, 3)],
                    [("mst_weight_leq", (3,))],
                    [[1], [2], [-3], [-4], [5]])
    assert_theory_clause(doc, "UNSAT", (3, -5))


# -- mst_edge ----------------------------------------------------------------

def test_mst_edge_disabled_case_witness():
    doc = graph_doc(False, 2, [(0, 1, 1)],
                    [("mst_edge", (1,))], [[-1], [-2]])
    assert_theory_clause(doc, "UNSAT", (1, 2))


def test_mst_edge_negative_cycle_witness():
    # The heaviest triangle edge is enabled yet outside the tree; the clause
    # names the tree path, the edge itself, and the atom.
    doc = graph_doc(False, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)],
                    [("mst_edge", (3,))], [[1], [2], [3], [4]])
    assert_theory_clause(doc, "UNSAT", (-1, -2, -3, -4))


def test_mst_edge_positive_lighter_cut_witness():
    doc = graph_doc(False, 2, [(0, 1, 5), (0, 1, 3)],
                    [("mst_edge", (1,))], [[1], [-2], [-3]])
    assert_theory_clause(doc, "UNSAT", (2, 3))


def test_mst_edge_positive_cut_spans_components():
    # The displacing cycle needs two currently disabled edges at once, so
    # the witness must contain every lighter cut edge, not just edges whose
    # insertion closes a cycle in the current forest.
    doc = graph_doc(False, 3, [(0, 1, 5), (0, 2, 1), (1, 2, 1)],
                    [("mst_edge", (1,))], [[1], [-2], [-3], [-4]])
    assert_theory_clause(doc, "UNSAT", (2, 4))


def test_mst_edge_self_loop_never_in_tree():
    th = GraphTheory(False, 2, [(0, 0, 0, 1)])
    atom = th.atom(th.add_atom("mst_edge", (0,), 1))
    assert not th.evaluate(atom, bytearray([1]), {})
    assert th.evaluate(atom, bytearray([0]), {})


# -- registration and validation ----------------------------------------------

# An edge var named twice is rejected by the base constructor: see
# test_a_repeated_argument_var_is_rejected. Endpoints, weights and atoms
# are checked where a document is read: see test_gnf's
# test_parser_and_theories_apply_the_same_rules.


# A self-loop (eid 2), parallel edges between 0 and 1 in both directions
# (eids 0, 3 and 5), tied weights and a zero weight, listed out of head order.
TABLE_EDGES = [(0, 1, 0, 3), (2, 0, 1, 1), (1, 1, 2, 3), (1, 0, 3, 0),
               (2, 1, 4, 1), (0, 1, 5, 3), (0, 2, 6, 2)]


@pytest.mark.parametrize("directed", [True, False],
                         ids=["directed", "undirected"])
def test_construction_tables_order(directed):
    th = GraphTheory(directed, 3, TABLE_EDGES)
    m = len(TABLE_EDGES)
    for x in range(3):
        out = [(eid, v) for eid, (u, v, _, _) in enumerate(TABLE_EDGES)
               if u == x]
        back = [(eid, u) for eid, (u, v, _, _) in enumerate(TABLE_EDGES)
                if v == x]
        adj = out if directed else out + back
        assert th._adj[x] == sorted(adj, key=lambda p: (p[1], p[0])), x
        arcs = ([(eid, head, True) for eid, head in out]
                + [(eid, head, False) for eid, head in back])
        assert th._flow_adj[x] == sorted(
            arcs, key=lambda p: (p[1], p[0], not p[2])), x
    assert th._order == sorted(range(m),
                               key=lambda i: (TABLE_EDGES[i][3], i))
    assert th._order == [3, 1, 4, 6, 0, 2, 5]
    assert [th._order[r] for r in th._rank] == list(range(m))


# -- pure helpers ---------------------------------------------------------------

def forest_ids(span):
    """The ids of a forest's edges, read off its mask in id order."""
    return [eid for eid, x in enumerate(span.forest) if x]


def test_span_scan_tie_break_by_edge_id():
    edges = [EdgeSpec(u, v, i, 1)
             for i, (u, v) in enumerate(((0, 1), (1, 2), (0, 2)))]
    span = span_scan(3, edges, [0, 1, 2], bytearray([1, 1, 1]))
    assert span.forest == bytearray([1, 1, 0])
    assert span.components == 1 and span.weight == 2


def test_span_scan_counts_isolated_nodes():
    span = span_scan(4, [EdgeSpec(0, 1, 0, 2)], [0], bytearray([1]))
    assert span.components == 3
    assert span.weight == 2 and span.forest == bytearray([1])


def reference_kruskal(n, edges, enabled):
    """Plain Kruskal in (weight, eid) order, with component labels kept as
    the smallest node of each component."""
    label = list(range(n))
    forest, weight = [], 0
    for eid in sorted(range(len(edges)), key=lambda i: (edges[i].weight, i)):
        e = edges[eid]
        a, b = label[e.u], label[e.v]
        if enabled[eid] and a != b:
            label = [min(a, b) if x in (a, b) else x for x in label]
            forest.append(eid)
            weight += e.weight
    return forest, len(set(label)), weight, label


def test_span_scan_matches_reference_kruskal():
    for i in range(300):
        rng = Xorshift64Star(i + 900)
        n = rng.randint(1, 9)
        edges = [EdgeSpec(rng.randint(0, n - 1), rng.randint(0, n - 1), j,
                          rng.randint(0, 2))  # many ties, some self-loops
                 for j in range(rng.randint(0, 20))]
        order = sorted(range(len(edges)), key=lambda j: (edges[j].weight, j))
        enabled = bytearray(rng.randint(0, 3) > 0 for _ in edges)
        span = span_scan(n, edges, order, enabled)
        forest, components, weight, label = reference_kruskal(n, edges,
                                                              enabled)
        assert forest_ids(span) == sorted(forest), i
        assert (span.components, span.weight) == (components, weight)
        assert [find(span.parent, x) for x in range(n)] == label, i
        th = GraphTheory(False, n, [(e.u, e.v, j, e.weight)
                                    for j, e in enumerate(edges)])
        assert th._labels(span.forest) == label, i


def test_unit_weight_trees_match_heap_dijkstra():
    # Self-loops and parallel edges, both directednesses, random masks: the
    # level-by-level run gives the heap's distances and parent edges.
    for i in range(1200):
        rng = Xorshift64Star(i + 4000)
        n = rng.randint(1, 10)
        m = rng.randint(0, 3 * n)
        th = GraphTheory(i % 2 == 0, n, [
            (rng.randint(0, n - 1), rng.randint(0, n - 1), j, 1)
            for j in range(m)])
        enabled = bytearray(rng.randint(0, 2) > 0 for _ in range(m))
        src = rng.randint(0, n - 1)
        assert (bfs_tree(th._adj, n, enabled, src)
                == dijkstra_tree(th._adj, [1] * m, n, enabled, src)), i


@pytest.mark.parametrize("weights,unit", [
    ((), True), ((1, 1, 1), True), ((1, 0, 1), False), ((1, 2, 1), False),
    ((0, 0, 0), False)])
def test_only_all_unit_weights_skip_the_heap(monkeypatch, weights, unit):
    runs = count_tree_runs(monkeypatch)
    th = GraphTheory(True, 3, [(j, (j + 1) % 3, j, w)
                                  for j, w in enumerate(weights)])
    th.add_atom("reach", (0, 2), 3)
    th._values(True)
    assert th._unit is unit
    assert runs == ["bfs_tree" if unit else "dijkstra_tree"]


# Node 4 is first reached from 1; 2 and 3 reach it at the same distance,
# and 3 is reached again, later, from 4.
REPARENT_EDGES = [(0, 1), (0, 2), (0, 3), (3, 4), (2, 4), (1, 4), (4, 3)]


def reparent_theory(weights):
    th = GraphTheory(True, 5, [(u, v, j, w) for j, ((u, v), w)
                                  in enumerate(zip(REPARENT_EDGES, weights))])
    th.add_atom("reach", (0, 4), len(REPARENT_EDGES))
    return th


def lose_edges(th, eids, key=("dij", 0)):
    """The maximal completion's analysis ``key``, by default the tree of 0,
    after losing edges ``eids``, and the one before."""
    th._values(True)
    comp = th.completion(True)
    before = comp.stack[-1][2][key]
    for eid in eids:
        th.on_assign(2 * eid + 1)  # edge var eid assigned false
    th._values(True)
    return comp.stack[-1][2][key], before, comp.enabled


def test_lost_tight_arc_keeps_the_distances_and_no_parent_list(
        monkeypatch):
    th = reparent_theory([1] * 7)
    runs = count_tree_runs(monkeypatch)
    tree, before, enabled = lose_edges(th, [5])
    assert before[1][4] == 5
    assert runs == ["bfs_tree"]  # the tree before the loss, and no other
    # Arcs 2 -> 4 (edge 4) and 3 -> 4 (edge 3) both keep distance 2, so
    # the distances stand, shared; no parent list is kept.
    assert tree[0] is before[0] and tree[1] is None
    assert tree[0] == bfs_tree(th._adj, th.n, enabled, 0)[0]


@pytest.mark.parametrize("weights,lost,runs", [
    ([1] * 7, [2], ["bfs_tree"]),  # 3's one other in-arc is longer
    ([1, 1, 1, 1, 1, 1, 0], [5], ["dijkstra_tree"])])  # a zero weight
def test_lost_parent_edge_without_a_same_distance_arc_runs_cold(
        monkeypatch, weights, lost, runs):
    th = reparent_theory(weights)
    th._values(True)
    ran = count_tree_runs(monkeypatch)
    tree, before, enabled = lose_edges(th, lost)
    assert ran == runs
    assert tree[0] is not before[0]
    assert tree == dijkstra_tree(th._adj, th._weights, th.n, enabled, 0)


# Path 0-1-2-3 of unit edges 0-2, and node 4 hangs off 3 by edge 5; edges 3
# (1, 3) and 4 (0, 2) weigh 2 and cross the cut of edge 1.
SWAP_EDGES = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 2), (0, 2, 2),
              (3, 4, 1)]


def swap_theory():
    return GraphTheory(False, 5, [(u, v, j, w) for j, (u, v, w)
                                  in enumerate(SWAP_EDGES)])


def lose_forest_edges(monkeypatch, eids):
    """The maximal completion's forest of SWAP_EDGES after losing ``eids``
    one group at a time, the forest before each, and the span_scan runs
    made by the losses, not those of the labels that check each forest."""
    th = swap_theory()
    th.add_atom("components_leq", (1,), len(SWAP_EDGES))
    th._values(True)
    ran = count_tree_runs(monkeypatch, ("span_scan",))
    runs, steps = [], []
    for group in eids:
        ran.clear()
        span, before, enabled = lose_edges(th, group, ("span",))
        runs += ran
        assert_same_tree(th, span,
                         span_scan(th.n, th.edges, th._order, enabled))
        steps.append((span, before))
    return steps, runs


def test_lost_forest_edge_swaps_in_the_least_crossing_edge(monkeypatch):
    [(span, before)], runs = lose_forest_edges(monkeypatch, [[1]])
    assert runs == [] and forest_ids(before) == [0, 1, 2, 5]
    # Edges 3 and 4 both leave the exhausted side {0, 1}; the lower id wins.
    assert forest_ids(span) == [0, 2, 3, 5] and span.weight == 5
    assert span.added == [3]
    assert span.parent is None  # no union-find carried


def test_lost_bridge_splits_the_forest(monkeypatch):
    # Once edge 4 is gone, edge 0 cuts off node 0, the old root, which
    # leaves {1, 2, 3, 4} to its smallest node; edge 5 then cuts off
    # node 4, away from that root.
    steps, runs = lose_forest_edges(monkeypatch, [[4], [0], [5]])
    assert runs == []
    (kept, old), (cut0, _), (cut5, _) = steps
    assert kept is old
    assert (cut0.components, cut5.components) == (2, 3)
    assert cut5.parent is None
    th = swap_theory()
    assert th._labels(cut5.forest) == [0, 1, 1, 1, 4]
    # The joining edges: two components give those leaving the side {0},
    # read with no scan; three give every moved edge between two labels.
    ran = count_tree_runs(monkeypatch, ("span_scan",))
    assert cut0.side == [0] and th._joining(cut0, [4, 0]) == [0, 4]
    assert ran == []
    assert th._joining(cut5, [4, 0, 5]) == [0, 4, 5]
    assert ran == ["span_scan"]  # the labels' one scan


def test_two_lost_forest_edges_scan_cold(monkeypatch):
    [(span, _)], runs = lose_forest_edges(monkeypatch, [[1, 2]])
    assert runs == ["span_scan"] and forest_ids(span) == [0, 3, 4, 5]


# -- randomized dual-route checks ----------------------------------------------

def theory_atom(g, pred):
    """The theory of ``g`` and the atom of ``pred`` in it, both keeping
    their GNF var numbers, which no solver reads here."""
    th = GraphTheory(g.directed, g.n,
                     [(e.u, e.v, e.var, e.weight) for e in g.edges])
    return th, th.atom(th.add_atom(pred.kind, pred.args, pred.var))


def test_evaluators_agree_with_oracle_family():
    for i in range(250):
        rng = Xorshift64Star(i + 1)
        kind = GRAPH_KINDS[i % len(GRAPH_KINDS)]
        g = rand_graph(rng, kind in DIRECTED_KINDS)
        pred = rand_pred(rng, kind, g, len(g.edges) + 1)
        th, atom = theory_atom(g, pred)
        (ref,) = oracle.predicates(GnfDocument(graphs={1: g}, preds=[pred]))
        for _ in range(8):
            enabled = bytearray(rng.randint(0, 1)
                                for _ in range(len(g.edges)))
            got = th.evaluate(atom, enabled, {})
            assert got == ref.fn(enabled), (kind, i, list(enabled))


def test_monotone_bracketing_on_nested_masks():
    # Growing the enabled set can only help a positive predicate and only
    # hurt the negative-monotone mst_edge.
    for i in range(150):
        rng = Xorshift64Star(i + 500)
        kind = GRAPH_KINDS[i % len(GRAPH_KINDS)]
        g = rand_graph(rng, kind in DIRECTED_KINDS)
        pred = rand_pred(rng, kind, g, len(g.edges) + 1)
        th, atom = theory_atom(g, pred)
        m = len(g.edges)
        small = bytearray(rng.randint(0, 2) == 0 for _ in range(m))
        grown = bytearray(b or rng.randint(0, 1) for b in small)
        lo = th.evaluate(atom, small, {})
        hi = th.evaluate(atom, grown, {})
        if kind == "mst_edge":
            assert not (hi and not lo), (kind, i)
        else:
            assert not (lo and not hi), (kind, i)


def test_witness_lines_payloads():
    doc = graph_doc(True, 3, [(0, 1, 1), (1, 2, 1)],
                    [("reach", (0, 2))], [[1], [2], [3]])
    code, lines = run_solve(doc, witness=True)
    assert code == 10
    assert lines[0] == "s SATISFIABLE"
    assert lines[1] == "v 1 2 3 0"
    assert lines[2] == "w reach 1 0 2 : 0 1 2"

    # A least-weight path: 0 -> 1 -> 2 weighs 2, the edge 0 -> 2 weighs 5.
    doc = graph_doc(True, 3, [(0, 2, 5), (0, 1, 1), (1, 2, 1)],
                    [("reach", (0, 2))], [[1], [2], [3], [4]])
    code, lines = run_solve(doc, witness=True)
    assert lines[1:] == ["v 1 2 3 4 0", "w reach 1 0 2 : 0 1 2"]

    doc = graph_doc(False, 3, [(0, 1, 2), (1, 2, 4), (0, 2, 9)],
                    [("mst_weight_leq", (6,))], [[1], [2], [-3], [4]])
    code, lines = run_solve(doc, witness=True)
    assert code == 10
    assert lines[2] == "w mst_weight_leq 1 6 : 1 2"

    doc = graph_doc(True, 2, [(0, 1, 3)],
                    [("maxflow_geq", (0, 1, 2))], [[1], [2]])
    code, lines = run_solve(doc, witness=True)
    assert lines[2] == "w maxflow_geq 1 0 1 2 : 0 1 3"


def test_mst_weight_witness_lists_the_forest_by_weight_not_id():
    # Edge var 2 weighs less than var 1, so the tree lists it first.
    doc = graph_doc(False, 3, [(0, 1, 4), (1, 2, 2)],
                    [("mst_weight_leq", (None,))], [[3]])
    code, lines = run_solve(doc, witness=True)
    assert code == 10
    assert lines[2] == "w mst_weight_leq 1 inf : 2 1"


def test_mst_weight_improving_edges_merge_the_forest_by_weight():
    # The forest {0, 1} weighs 10. Edge 2 (weight 5) could replace edge 0
    # (weight 9); edge 3 joins nodes 1 and 2, which the lighter edge 1
    # already joins. Merging the forest in id order would put edge 0,
    # too heavy to merge, ahead of edge 1, and name edge 3 too.
    th = GraphTheory(False, 3, [(0, 1, 0, 9), (1, 2, 1, 1), (0, 2, 2, 5),
                                   (1, 2, 3, 3)])
    enabled = bytearray([1, 1, 0, 0])
    assert th._mst_weight_neg_slots(enabled, [2, 3], {}) == [2]


def test_every_maze_lemma_passes_the_oracle(monkeypatch):
    # A forest of two components names its one cut from the smaller side a
    # split recorded; every lemma, that cut's among them, must hold.
    from_side = Counter()
    neg_slots = GraphTheory._mst_weight_neg_slots

    def spied(th, enabled, disabled, analysis):
        out = neg_slots(th, enabled, disabled, analysis)
        span = analysis[("span",)]
        from_side[size] += span.components == 2 and span.side is not None
        return out

    monkeypatch.setattr(GraphTheory, "_mst_weight_neg_slots", spied)
    lemmas = 0
    for size, seeds in ((8, range(1000, 1005)), (16, [0])):
        for seed in seeds:
            doc = gen_maze(size, size, seed)
            recorder = Recorder()
            inst = build_instance(doc, observer=recorder)
            assert inst.solver.solve().status == "SAT"
            check = oracle.check_lemma(doc)
            for lits in recorder.lemmas:
                assert check([dimacs_lit(lit) for lit in lits]) is None, (
                    size, seed, lits)
            lemmas += len(recorder.lemmas)
    assert lemmas > 1000
    assert from_side[8] >= 350 and from_side[16] >= 250
