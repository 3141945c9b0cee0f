"""Warm-started max flow checked against cold starts and the oracle.

``edmonds_karp(..., start=prev, lost=...)`` must give the value and residual
cut side of a cold start on the new mask, return a valid flow of that mask,
and leave ``prev`` untouched, whatever edges the step enabled or disabled,
including edges that carry flow in ``prev`` on s-t paths or on cycles. Its
flow must be the one a scan of every edge would have cancelled to.
``GraphTheory._carried`` must keep a maximal completion's flow only where
that flow is still a maximum flow with the same cut side.
"""

import random

from monosmt import graphs, oracle
from monosmt.graphs import FlowResult, GraphTheory, edmonds_karp


def rand_flow_graph(rng):
    """(n, edges as (u, v, cap)) with antiparallel pairs, parallel arcs and
    cycles; capacities 1-4."""
    n = rng.randint(3, 8)
    edges = []
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, 4)))
        if rng.random() < 0.3:
            edges.append((v, u, rng.randint(1, 4)))
    for _ in range(rng.randint(0, 2)):  # a cycle through random nodes
        ring = rng.sample(range(n), rng.randint(2, n))
        edges.extend((a, b, rng.randint(1, 4))
                     for a, b in zip(ring, ring[1:] + ring[:1]))
    return n, edges


def add_circulation(n, edges, res, enabled, rng):
    """``res`` plus one unit around a cycle of enabled arcs with spare
    capacity, when there is one: same value, a flow no cold start makes."""
    flow = res.flow[:]
    spare = [eid for eid, (_, _, cap) in enumerate(edges)
             if enabled[eid] and flow[eid] < cap]
    rng.shuffle(spare)
    for eid in spare:
        u, v, _ = edges[eid]
        parent = {v: None}
        queue = [v]
        for x in queue:
            for fid in spare:
                a, b, _ = edges[fid]
                if a == x and b not in parent:
                    parent[b] = fid
                    queue.append(b)
        if u in parent:
            node = u
            while node != v:
                fid = parent[node]
                flow[fid] += 1
                node = edges[fid][0]
            flow[eid] += 1
            return FlowResult(res.value, flow, None)
    return res


def check_flow(n, edges, enabled, s, t, res):
    net = [0] * n
    for eid, (u, v, cap) in enumerate(edges):
        f = res.flow[eid]
        assert 0 <= f <= cap
        if not enabled[eid]:
            assert f == 0
        net[u] -= f
        net[v] += f
    for x in range(n):
        if x not in (s, t):
            assert net[x] == 0
    assert net[t] == res.value == -net[s]


def scan_cancelled(n, edges, adj, caps, enabled, s, t, prev, cancel):
    """Max flow from ``prev`` with the flow on every disabled edge
    cancelled first, scanning all edges in (u, v, eid) order: the flow a
    warm start given only the lost edges must reach."""
    flow, value = prev.flow[:], prev.value
    for eid in sorted(range(len(edges)), key=lambda e: (*edges[e][:2], e)):
        u, v, _ = edges[eid]
        while flow[eid] and not enabled[eid]:
            value -= cancel(adj, flow, n, s, t, value, eid, u, v)
    return edmonds_karp(adj, caps, n, enabled, s, t,
                        start=FlowResult(value, flow, None))


def test_warm_start_matches_cold_start_and_oracle(monkeypatch):
    cancels = []  # s-t value each cancel took off
    real_cancel = graphs._cancel

    def counting_cancel(*args):
        drop = real_cancel(*args)
        cancels.append(drop)
        return drop

    monkeypatch.setattr(graphs, "_cancel", counting_cancel)
    rng = random.Random(20150125)
    for _ in range(300):
        n, edges = rand_flow_graph(rng)
        th = GraphTheory(True, n, [(u, v, eid, cap) for eid, (u, v, cap)
                                      in enumerate(edges)])
        adj, caps, m = th._flow_adj, th._weights, len(edges)
        s, t = rng.sample(range(n), 2)
        enabled = bytearray(rng.random() < 0.7 for _ in range(m))
        prev = edmonds_karp(adj, caps, n, enabled, s, t)
        for _ in range(6):
            if rng.random() < 0.3:
                prev = add_circulation(n, edges, prev, enabled, rng)
            before = enabled[:]
            carrying = [eid for eid in range(m) if prev.flow[eid]]
            for eid in rng.sample(carrying, min(len(carrying),
                                                rng.randint(0, 2))):
                enabled[eid] = 0
            for eid in rng.sample(range(m), rng.randint(0, 3)):
                enabled[eid] ^= 1
            lost = [(u, v, eid) for eid, (u, v, _) in enumerate(edges)
                    if before[eid] and not enabled[eid]]
            rng.shuffle(lost)
            base = prev.flow[:]
            warm = edmonds_karp(adj, caps, n, enabled, s, t, start=prev,
                                lost=lost)
            cold = edmonds_karp(adj, caps, n, enabled, s, t)
            assert prev.flow == base
            assert warm.flow is not prev.flow
            assert warm.flow == scan_cancelled(n, edges, adj, caps, enabled,
                                               s, t, prev, real_cancel).flow
            assert warm.value == cold.value == oracle.maxflow_dfs(
                n, edges, enabled, s, t)
            assert bytes(warm.cut_side) == bytes(cold.cut_side)
            check_flow(n, edges, enabled, s, t, warm)
            prev = warm
    # Both kinds of cancelling ran often: along s-t paths and along cycles.
    assert sum(d > 0 for d in cancels) > 200
    assert sum(d == 0 for d in cancels) > 100


def test_maximal_completion_keeps_a_flow_only_while_it_stays_maximal():
    # Edges are lost one at a time, with no solver. A flow is kept where no
    # lost edge carried flow or starts in its cut side; a lost edge with no
    # flow that starts in the cut side can shrink the cut side, so that
    # step runs warm.
    rng = random.Random(14060043)
    kept = inside = 0
    for _ in range(300):
        n, edges = rand_flow_graph(rng)
        th = GraphTheory(True, n, [(u, v, eid, cap) for eid, (u, v, cap)
                                      in enumerate(edges)])
        adj, caps, m = th._flow_adj, th._weights, len(edges)
        s, t = rng.sample(range(n), 2)
        enabled = bytearray([1]) * m
        old = edmonds_karp(adj, caps, n, enabled, s, t)
        for eid in rng.sample(range(m), m):
            enabled[eid] = 0
            new = th._carried(("flow", s, t), old, enabled, [eid], True)
            cold = edmonds_karp(adj, caps, n, enabled, s, t)
            assert new.value == cold.value
            assert bytes(new.cut_side) == bytes(cold.cut_side)
            check_flow(n, edges, enabled, s, t, new)
            if not old.flow[eid] and old.cut_side[edges[eid][0]]:
                assert new is not old
                inside += 1
            kept += new is old
            old = new
    assert kept > 1000 and inside > 500
