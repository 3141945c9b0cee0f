"""One routine per analysis kind, and only the keys the atoms read.

``GraphTheory._carried`` ends each kind's branch in that kind's cold run, so
with no old analysis it must give what the cold routine gives, on either
extreme: ``span_scan`` for ("span",), ``bfs_tree`` on unit weights and
``dijkstra_tree`` otherwise for ("dij", src), and ``edmonds_karp`` with no
start for ("flow", s, t). It is compared in every field a witness reads.

Every key of a stacked evaluation is carried into the next one, so a key
that no atom reads would be carried for ever. After every propagate and
every solve, each stacked analysis may hold only ("span",) when an
mst_edge, components_leq or mst_weight_leq atom reads it, ("dij", u) for a
reach or distance_leq atom from u, and ("flow", s, t) for a maxflow_geq atom
with a bound above 0.
"""

from monosmt.build import build_instance
from monosmt.generators import Xorshift64Star
from monosmt.graphs import (GraphTheory, bfs_tree, dijkstra_tree,
                            edmonds_karp, find, span_scan)

from instances import GRAPH_KINDS, rand_doc


def rand_theory(rng, directed, lo, hi):
    """A random multigraph of weights ``lo`` to ``hi``, edge i on var i."""
    n, m = rng.randint(2, 9), rng.randint(1, 26)
    return GraphTheory(directed, n, [
        (rng.randint(0, n - 1), rng.randint(0, n - 1), i, rng.randint(lo, hi))
        for i in range(m)])


def rand_mask(rng, m):
    return bytearray(rng.randint(0, 3) > 0 for _ in range(m))


def test_carried_from_nothing_is_the_cold_run_of_its_kind():
    kinds = {"span": 0, "bfs": 0, "dij": 0, "flow": 0}
    for seed in range(240):
        rng = Xorshift64Star(seed)
        shape = seed % 4
        if shape == 0:  # ugraph forests
            th = rand_theory(rng, False, 1, 4)
        elif shape == 1:  # unit-weight digraph trees
            th = rand_theory(rng, True, 1, 1)
        else:  # weighted digraph trees, zero weights included, and flows
            th = rand_theory(rng, True, 0, 3)
        n = th.n
        for _ in range(3):
            enabled = rand_mask(rng, len(th.edges))
            src = rng.randint(0, n - 1)
            sink = (src + rng.randint(1, n - 1)) % n
            for maximal in (False, True):
                if shape == 0:
                    got = th._carried(("span",), None, enabled, (), maximal)
                    want = span_scan(n, th.edges, th._order, enabled)
                    assert got.forest == want.forest
                    assert (got.components, got.weight) == (
                        want.components, want.weight)
                    assert [find(got.parent, x) for x in range(n)] == [
                        find(want.parent, x) for x in range(n)]
                    kinds["span"] += 1
                elif shape == 3:
                    got = th._carried(("flow", src, sink), None, enabled, (),
                                      maximal)
                    want = edmonds_karp(th._flow_adj, th._weights, n,
                                        enabled, src, sink)
                    assert got.value == want.value
                    assert bytes(got.cut_side) == bytes(want.cut_side)
                    assert got.flow == want.flow
                    kinds["flow"] += 1
                else:
                    got = th._carried(("dij", src), None, enabled, (),
                                      maximal)
                    if th._unit:
                        want = bfs_tree(th._adj, n, enabled, src)
                        kinds["bfs"] += 1
                    else:
                        want = dijkstra_tree(th._adj, th._weights, n,
                                             enabled, src)
                        kinds["dij"] += 1
                    assert got == want  # (dist, parent)
    assert min(kinds.values()) > 100


def read_keys(th):
    """The analysis keys the atoms of ``th`` read."""
    keys = set()
    for pred in th._preds:
        kind, payload = pred.kind, pred.payload
        if kind in ("mst_edge", "components_leq", "mst_weight_leq"):
            keys.add(("span",))
        elif kind in ("reach", "distance_leq"):
            keys.add(("dij", payload[0]))
        elif payload[2] > 0:  # maxflow_geq
            keys.add(("flow", payload[0], payload[1]))
    return keys


def test_stacked_analyses_hold_only_keys_the_atoms_read():
    stacked = {kind: 0 for kind in GRAPH_KINDS}

    def check(th, kind):
        allowed = read_keys(th)
        for comp in (th.completion(False), th.completion(True)):
            for _, _, analysis in comp.stack:
                assert set(analysis) <= allowed
                stacked[kind] += len(analysis)

    for kind in GRAPH_KINDS:
        for seed in range(60):
            inst = build_instance(rand_doc(kind, seed))
            if not inst.ok:
                continue
            for th in inst.theories:
                def checked(th=th, propagate=th.propagate):
                    result = propagate()
                    check(th, kind)
                    return result
                th.propagate = checked
            inst.solve()
            for th in inst.theories:
                check(th, kind)
    assert min(stacked.values()) > 0
