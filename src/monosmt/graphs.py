"""Symbolic graphs: edge-variable graphs with monotonic predicate solvers.

Each edge of a symbolic graph is guarded by a solver variable; a predicate
atom then constrains a property of whichever subgraph the true edge variables
select. A ``GraphTheory`` is built with all its edges, and their vars are its
S-vars, edge id == mask slot. Evaluation on the minimal completion uses only edges assigned true,
on the maximal completion all edges not assigned false.

Determinism rules used throughout: traversals visit neighbors in (node id,
edge id) order, shortest-path trees (one per source, read by its reach and
distance_leq atoms alike) settle nodes in (distance, node id) order, and
spanning trees are built in (weight, edge id) order, which also makes the
minimum spanning tree unique. Unit-weight graphs build those trees with
``bfs_tree``, others with ``dijkstra_tree``; on unit weights both agree.

A completion's spanning forest and shortest-path trees are carried over
from its previous evaluation where the edges moved since cannot change
them (after Spira and Pan 1975, Ramalingam and Reps 1996), and equal a cold
run in what its witnesses read. The minimal completion's witnesses walk
paths, so its carried forest keeps a cold scan's union-find roots and its
trees their parent edges. The maximal completion only shows an atom false,
and such a witness is a cut, read off distances, a forest mask, a split's
side or a flow's cut side: its carried trees keep their distances alone
and its carried forests no union-find; only a cold run builds either.
A forest is a mask over edge ids. A maximal completion's forest that loses
one forest edge takes in its place the least enabled edge leaving the
smaller side of the cut. With no such edge the forest splits and keeps the
smaller side it grew, which names the one cut of a forest of two
components (Holm, de Lichtenberg and Thorup 2001 give the general dynamic
case). A carried forest records the edges it gained beyond the moved ones,
so the mst_edge atoms to reread are known without diffing two masks.
A maximal completion's tree keeps its distances while each node that lost
a tight in-arc (a, b), one with d[a] + w == d[b], keeps another and no
edge weighs 0. A max flow of the maximal completion stands while no lost
edge carried flow or starts in its residual cut side. Any other max flow
is augmented from the previous one, after cancelling the flow on the lost
edges; its value and cut side equal a cold run's.
Each evaluation lists the atoms whose value moved since the previous one.
An explanation reads the path, cut or flow of the newest evaluation when it
is of the generation the implication recorded, and runs one cold otherwise.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter

from .theory import MonotonicTheory, POSITIVE, NEGATIVE

INF = float("inf")


@dataclass(slots=True)
class EdgeSpec:
    u: int
    v: int
    var: int
    weight: int


# ----------------------------------------------------------------------
# pure algorithms over an enabled-edge mask

def bfs_tree(adj, n, enabled, src):
    """Breadth-first distances and parent edges from src, visiting each
    level in node-id order. Returns (dist, parent)."""
    dist = [INF] * n
    parent = [-1] * n
    dist[src] = 0
    level = [src]
    d = 0
    while level:
        d += 1
        nxt = []
        for u in level:
            for eid, w in adj[u]:
                if dist[w] is INF and enabled[eid]:  # unreached
                    dist[w] = d
                    parent[w] = eid
                    nxt.append(w)
        if len(nxt) > 1:
            nxt.sort()
        level = nxt
    return dist, parent


def dijkstra_tree(adj, weights, n, enabled, src):
    """Shortest-path distances and parent edges from src, settled off a
    heap in (distance, node id) order while no edge weighs 0, so on unit
    weights ``bfs_tree``'s tree. Returns (dist, parent)."""
    dist = [INF] * n
    parent = [-1] * n
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for eid, w in adj[u]:
            if not enabled[eid]:
                continue
            nd = d + weights[eid]
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = eid
                heapq.heappush(heap, (nd, w))
    return dist, parent


def find(parent, x):
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class SpanResult:
    """Kruskal scan output. ``forest`` is a mask over edge ids, 1 for a
    forest edge, never written once built. ``parent`` is a union-find over
    nodes, each root its component's smallest node, kept by a cold scan and
    the minimal completion's extensions; a maximal forest carried by
    ``_swap`` has None. ``added`` lists the edges that entered the forest
    since the analysis this one was carried from, other than the moved
    edges: [] after an extension or a split, the replacement edge after a
    swap, None after a cold scan, which has no such analysis.
    ``side`` is the smaller side of the latest split, as ``_swap`` grew it,
    and a later swap keeps it: the same nodes form each component. It is
    None for a forest no split made."""

    __slots__ = ("components", "forest", "weight", "parent", "added", "side")

    def __init__(self, components, forest, weight, parent, added=None,
                 side=None):
        self.components = components
        self.forest = forest
        self.weight = weight
        self.parent = parent
        self.added = added
        self.side = side


def span_scan(n, edges, order, enabled) -> SpanResult:
    """Kruskal's scan of the enabled edges in ``order``, stopping once one
    component is left."""
    parent = list(range(n))
    forest = bytearray(len(edges))
    weight = 0
    components = n
    for eid in order:
        if not enabled[eid]:
            continue
        e = edges[eid]
        ru = e.u  # find, inlined
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        rv = e.v
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru != rv:
            if ru > rv:
                ru, rv = rv, ru
            parent[rv] = ru
            forest[eid] = 1
            weight += e.weight
            components -= 1
            if components == 1:
                break
    return SpanResult(components, forest, weight, parent)


class FlowResult:
    __slots__ = ("value", "flow", "cut_side")

    def __init__(self, value, flow, cut_side):
        self.value = value
        self.flow = flow
        self.cut_side = cut_side  # nodes residual-reachable from s


def edmonds_karp(flow_adj, caps, n, enabled, s, t, start=None,
                 lost=()) -> FlowResult:
    """Max flow by shortest augmenting paths.

    ``start`` is a flow of the same graph under another mask, usually the
    previous evaluation of the same completion, to augment from instead of
    the zero flow. Its ``flow`` list is copied, never changed. ``lost``
    lists, as (u, v, eid) triples, the edges disabled in ``enabled`` that
    ``start``'s mask had enabled: only they can carry flow now. First every
    unit they carry is cancelled (see ``_cancel``), edge by edge in
    (u, v, eid) order, which leaves a valid flow of this mask; then the
    same augmenting loop runs as for a cold start. The value and
    ``cut_side`` (the nodes residual-reachable from s) are the same for
    every maximum flow, so they do not depend on the start; only ``flow``
    itself does.
    """
    if start is None:
        flow = [0] * len(caps)
        value = 0
    else:
        flow = start.flow[:]
        value = start.value
        for u, v, eid in sorted(lost):
            while flow[eid]:
                value -= _cancel(flow_adj, flow, n, s, t, value, eid, u, v)
    while True:
        parent = [None] * n
        visited = bytearray(n)
        visited[s] = 1
        queue = [s]
        found = False
        for u in queue:
            if found:
                break
            for eid, head, fwd in flow_adj[u]:
                if not enabled[eid] or visited[head]:
                    continue
                residual = caps[eid] - flow[eid] if fwd else flow[eid]
                if residual <= 0:
                    continue
                visited[head] = 1
                parent[head] = (eid, fwd, u, residual)
                if head == t:
                    found = True
                    break
                queue.append(head)
        if not found:
            return FlowResult(value, flow, visited)
        path = []  # (eid, fwd, tail, residual) arcs, from t back to s
        node = t
        while node != s:
            path.append(parent[node])
            node = path[-1][2]
        bottleneck = min([arc[3] for arc in path])
        for eid, fwd, _, _ in path:
            flow[eid] += bottleneck if fwd else -bottleneck
        value += bottleneck


def _cancel(flow_adj, flow, n, s, t, value, eid, u, v):
    """Take flow off edge eid (u -> v) along a cycle of arcs that carry
    flow, counting the value as one more arc, t -> s. With that arc a valid
    flow is a circulation, so every arc carrying flow lies on such a cycle.
    A cycle through t -> s is an s-t path, and cancelling it lowers the
    value; returns that decrease."""
    parent = [None] * n
    seen = bytearray(n)
    seen[v] = 1
    queue = [v]
    for x in queue:
        if x == u:
            break
        if x == t and value > 0 and not seen[s]:
            seen[s] = 1
            parent[s] = (-1, t)
            queue.append(s)
        for fid, y, fwd in flow_adj[x]:
            if fwd and flow[fid] > 0 and not seen[y]:
                seen[y] = 1
                parent[y] = (fid, x)
                queue.append(y)
    else:
        raise RuntimeError("start flow is not a valid flow")
    cycle = [eid]
    delta = flow[eid]
    through_sink = False
    node = u
    while node != v:
        fid, node = parent[node]
        if fid < 0:
            through_sink = True
            delta = min(delta, value)
        else:
            cycle.append(fid)
            delta = min(delta, flow[fid])
    for fid in cycle:
        flow[fid] -= delta
    return delta if through_sink else 0


# ----------------------------------------------------------------------

_SPAN = ("span",)


class GraphTheory(MonotonicTheory):
    """Theory solver for the predicates of one symbolic graph.

    ``edges`` lists (u, v, var, weight) tuples, ``var`` an internal solver
    var; an edge's id is its position in the list. The graph, its edges
    and its atoms are taken as GNF allows them: the parser and
    ``build_instance`` check them with ``gnf.check_graph``,
    ``gnf.check_edge`` and ``gnf.VarOwners``. The edge vars are the S-vars
    in edge order, so slot == edge id.
    """

    def __init__(self, directed: bool, n: int, edges):
        self.n = n
        self.edges = [EdgeSpec(*e) for e in edges]
        super().__init__([e.var for e in self.edges])
        self._weights = [e.weight for e in self.edges]
        self._unit = all(w == 1 for w in self._weights)
        self._positive = 0 not in self._weights  # so trees keep distances
        self._flow_adj = [[] for _ in range(n)]
        for eid, e in enumerate(self.edges):
            self._flow_adj[e.u].append((eid, e.v, True))
            self._flow_adj[e.v].append((eid, e.u, False))
        # Each list is in eid order, an edge's forward arc before its
        # backward one, so a stable sort by head gives (head, eid, forward
        # first) order, as a stable sort by weight gives (weight, eid).
        # Traversals follow a digraph's forward arcs, a ugraph's every arc.
        head = itemgetter(1)
        for lst in self._flow_adj:
            lst.sort(key=head)
        self._adj = [[(eid, w) for eid, w, fwd in lst if fwd or not directed]
                     for lst in self._flow_adj]
        self._order = sorted(range(len(self.edges)),
                             key=self._weights.__getitem__)
        self._rank = sorted(range(len(self.edges)),  # eid -> its place
                            key=self._order.__getitem__)
        self._mst_atoms = {}  # eid -> its mst_edge atom ids, one group
        self._atoms = []  # every other atom

    def add_atom(self, kind: str, args, pvar: int) -> int:
        """Register the GNF predicate ``kind`` with its arguments after the
        graph id, an mst_edge naming its edge by internal var, on atom var
        ``pvar``; returns the atom id."""
        if kind != "mst_edge":
            aid = self.register_predicate(pvar, POSITIVE, kind, args)
            self._atoms.append(self._preds[aid])
            return aid
        eid = self._slots[args[0]]
        aid = self.register_predicate(pvar, NEGATIVE, kind, (eid,))
        self._mst_atoms.setdefault(eid, []).append(aid)
        return aid

    # -- evaluation ---------------------------------------------------------

    def eval_completion(self, maximal, enabled, moved, values, base):
        """Every atom evaluated on one extreme into ``values``, on the
        analyses of ``base`` carried over where they can be (``_carried``),
        and the atoms whose value changed: of the mst_edge group, read off
        one forest, only those of moved edges or forest changes can. A
        carried forest names the edges it gained beyond the moved ones in
        ``added``; after a cold scan the whole group is reread."""
        analysis = {}
        for key, prev in base.items():
            new = self._carried(key, prev, enabled, moved, maximal)
            if new is not None:
                analysis[key] = new
        preds = self._atoms
        group = self._mst_atoms
        if group:
            span = self._analysis(enabled, analysis, _SPAN)
            prev = base.get(_SPAN)
            if span is prev:
                eids = moved
            elif prev is None or span.added is None:
                eids = group
            else:
                eids = moved + span.added
            preds = [self._preds[aid] for eid in eids
                     for aid in group.get(eid, ())] + preds
        return analysis, self._update(preds, enabled, analysis, values)

    def _carried(self, key, old, enabled, moved, maximal):
        """Analysis ``key`` of ``enabled`` from ``old``, the one from before
        the edges ``moved`` changed, or None when a cold run is needed. The
        minimal completion gains edges: the forest's edge set gains them all
        while each joins two components, a tree stands while no edge (a, b)
        has d[a] + w <= d[b] (a tie may change a parent edge), and a
        max flow is augmented from the old one. The maximal completion
        loses edges: the forest stands while it loses no forest edge, is
        swapped or split when it loses one (``_swap``) and runs cold when
        it loses more; a max flow stands while no lost edge carried flow or
        starts in its cut side: that flow is still valid, so still maximal,
        and every residual arc lost starts unreachable from s. Otherwise the
        flow on the lost edges is cancelled and the rest augmented. A tree
        keeps its distances, as ``(d, None)`` with no parent list, while
        each head b of a lost tight arc, one with d[a] + w == d[b], keeps
        an enabled tight in-arc: with every w >= 1 its tail is nearer, so by
        induction on distance each node keeps a path of its old length, and
        losing edges shortens none. The ``d`` list, like a forest mask, is
        shared, never written. With a zero weight two heads could keep each
        other, so such a graph runs cold on any lost tight arc. The gaining
        side's match, a flow standing while every gained edge starts outside
        its cut side, is not built: no shipped workload carries a
        minimal-completion flow. A forest mask, like the minimal union-find,
        is copied before it changes."""
        edges = self.edges
        if key[0] == "flow":
            lost = ([(edges[eid].u, edges[eid].v, eid) for eid in moved]
                    if maximal else ())
            if maximal and not any(old.flow[eid] or old.cut_side[u]
                                   for u, _, eid in lost):
                return old
            return edmonds_karp(self._flow_adj, self._weights, self.n,
                                enabled, key[1], key[2], start=old, lost=lost)
        if key == _SPAN:
            if maximal:
                lost = [eid for eid in moved if old.forest[eid]]
                if len(lost) > 1:
                    return None
                return self._swap(old, lost[0], enabled) if lost else old
            parent, weight = old.parent[:], old.weight
            forest = old.forest[:]
            for eid in moved:
                e = edges[eid]
                ru, rv = find(parent, e.u), find(parent, e.v)
                if ru == rv:
                    return None
                parent[max(ru, rv)] = min(ru, rv)
                forest[eid] = 1
                weight += e.weight
            return SpanResult(old.components - len(moved), forest, weight,
                              parent, [])
        dist = old[0]  # a ("dij", src) tree, so of a digraph
        if not maximal:
            for eid in moved:
                e = edges[eid]
                if dist[e.u] != INF and dist[e.u] + e.weight <= dist[e.v]:
                    return None
            return old
        weights = self._weights
        for eid in moved:
            e = edges[eid]
            want = dist[e.v]
            if want == INF or dist[e.u] + e.weight != want:
                continue  # not tight: no shortest path used it
            if not self._positive:
                return None
            for fid, a, fwd in self._flow_adj[e.v]:
                if not fwd and enabled[fid] and dist[a] + weights[fid] == want:
                    break  # an arc (a, b) still tight
            else:
                return None
        return dist, None

    def _swap(self, old, eid, enabled):
        """Forest ``old`` after losing forest edge ``eid`` alone. Both ends
        grow over forest edges in lockstep until one side, the smaller, is
        exhausted, so at most twice its size is visited. The least enabled
        edge leaving it takes the place of ``eid`` in a copy of the mask
        and is the result's ``added``; the split ``side`` stands. With no
        such edge the forest splits: the grown side becomes ``side``. The
        result keeps no union-find. ``old`` is never written."""
        adj, fs, rank = self._adj, old.forest, self._rank
        e = self.edges[eid]
        mark = bytearray(self.n)  # each grown node's side, 1 or 2
        mark[e.u], mark[e.v] = 1, 2
        a, b, ka, kb, s = [e.u], [e.v], 0, 0, 1  # a grows next, marked s
        while ka < len(a):
            for fid, y in adj[a[ka]]:
                if not mark[y] and fs[fid]:
                    mark[y] = s
                    a.append(y)
            a, b, ka, kb, s = b, a, kb, ka + 1, 3 - s
        best, low = None, len(rank)  # a is exhausted
        for x in a:
            for fid, y in adj[x]:
                if mark[y] != s and enabled[fid] and rank[fid] < low:
                    best, low = fid, rank[fid]
        forest = fs[:]
        forest[eid] = 0
        if best is None:
            return SpanResult(old.components + 1, forest,
                              old.weight - e.weight, None, [], a)
        forest[best] = 1
        return SpanResult(old.components, forest, old.weight - e.weight
                          + self.edges[best].weight, None, [best], old.side)

    def _analysis(self, enabled, analysis, key):
        """Analysis ``key`` of the enabled mask, memoized in ``analysis``:
        ("span",), ("dij", src), the one shortest-path tree that reach and
        distance_leq atoms of ``src`` read, or ("flow", s, t)."""
        hit = analysis.get(key)
        if hit is None:
            name, n = key[0], self.n
            if name == "span":
                hit = span_scan(n, self.edges, self._order, enabled)
            elif name == "dij":
                hit = (bfs_tree(self._adj, n, enabled, key[1]) if self._unit
                       else dijkstra_tree(self._adj, self._weights, n,
                                          enabled, key[1]))
            else:
                hit = edmonds_karp(self._flow_adj, self._weights, n, enabled,
                                   key[1], key[2])
            analysis[key] = hit
        return hit

    def span_weight(self, enabled):
        """Weight of the spanning forest of the ``enabled`` mask."""
        return span_scan(self.n, self.edges, self._order, enabled).weight

    def evaluate(self, pred, enabled, analysis):
        kind, payload = pred.kind, pred.payload
        if kind == "mst_edge":
            eid = payload[0]
            return (not enabled[eid] or self._analysis(
                enabled, analysis, _SPAN).forest[eid] == 1)
        if kind == "reach":
            u, v = payload
            return self._analysis(enabled, analysis, ("dij", u))[0][v] != INF
        if kind == "distance_leq":
            u, v, bound = payload
            return self._analysis(enabled, analysis, ("dij", u))[0][v] <= bound
        if kind == "maxflow_geq":
            s, t, bound = payload
            return bound <= 0 or self._analysis(
                enabled, analysis, ("flow", s, t)).value >= bound
        span = self._analysis(enabled, analysis, _SPAN)
        if kind == "components_leq":
            return span.components <= payload[0]
        if kind == "mst_weight_leq":
            if span.components > 1:
                return False
            bound = payload[0]
            return True if bound is None else span.weight <= bound
        raise AssertionError(kind)

    # -- witnesses ------------------------------------------------------------

    def witness_slots(self, pred, positive, enabled, moved, analysis):
        """Edge ids, an edge's slot being its id. A true atom names its
        support on the minimal completion, a false one the disabled edges
        of the maximal completion that could make it true; an mst_edge
        atom, whose predicate is negative, the reverse."""
        kind, payload = pred.kind, pred.payload
        if kind == "mst_edge":
            return self._mst_edge_slots(payload[0], positive, enabled, moved,
                                        analysis)
        if positive:
            if kind == "maxflow_geq" and payload[2] <= 0:
                return []  # holds on every mask
            return self._support(pred, enabled, analysis)
        if kind == "mst_weight_leq":
            return self._mst_weight_neg_slots(enabled, moved, analysis)
        # Reach and distance atoms live on digraphs, where only a disabled
        # edge whose tail is reached can shorten a path from u; a flow can
        # only grow through one leaving the residual cut side, and the
        # components only merge through one joining two of them.
        edges = self.edges
        if kind == "maxflow_geq":
            side = self._analysis(enabled, analysis,
                                  ("flow", payload[0], payload[1])).cut_side
            return [eid for eid in sorted(moved)
                    if side[edges[eid].u] and not side[edges[eid].v]]
        if kind == "components_leq":
            comp = self._labels(self._analysis(enabled, analysis,
                                               _SPAN).forest)
            return [eid for eid in sorted(moved)
                    if comp[edges[eid].u] != comp[edges[eid].v]]
        dist = self._analysis(enabled, analysis, ("dij", payload[0]))[0]
        return [eid for eid in sorted(moved) if dist[edges[eid].u] != INF]

    def _support(self, pred, enabled, analysis):
        """Edge ids that make a reach, distance, flow or spanning-tree atom
        hold on ``enabled``: the shortest path from v back to u, the edges
        carrying the max flow in id order, or the forest edges in (weight,
        eid) order."""
        kind, payload = pred.kind, pred.payload
        if kind in ("reach", "distance_leq"):
            u, v = payload[0], payload[1]
            _, parent = self._analysis(enabled, analysis, ("dij", u))
            return self._tree_path(parent, u, v)
        if kind == "maxflow_geq":
            flow = self._analysis(enabled, analysis,
                                  ("flow", payload[0], payload[1])).flow
            return [eid for eid, f in enumerate(flow) if f > 0]
        forest = self._analysis(enabled, analysis, _SPAN).forest
        return [eid for eid in self._order if forest[eid]]

    def _tree_path(self, parent, u, v):
        """Edge ids walking parent edges from v back to u."""
        edges = self.edges
        path = []
        node = v
        while node != u:
            eid = parent[node]
            if eid < 0:
                raise RuntimeError("witness path missing")
            path.append(eid)
            e = edges[eid]
            node = e.u if e.v == node else e.v
        return path

    def _labels(self, forest):
        """Each node's component in the forest mask ``forest``, named by its
        smallest node, as a cold ``span_scan``'s union-find root is: nodes
        are visited in id order, each unlabelled one labelling its tree."""
        comp = [-1] * self.n
        for root in range(self.n):
            if comp[root] < 0:
                comp[root] = root
                grown = [root]
                for x in grown:
                    for eid, y in self._adj[x]:
                        if comp[y] < 0 and forest[eid]:
                            comp[y] = root
                            grown.append(y)
        return comp

    def _mst_weight_neg_slots(self, enabled, disabled, analysis):
        """Disabled edge ids that could make a false mst_weight_leq atom
        hold: a cut isolating one component, or the edges that could
        lighten a connected tree. Two components have one cut, the edges
        leaving a split's ``side``, all of them disabled; other disconnected
        forests take the component with the fewest cut edges, then the
        least smallest node, from the labels of the forest mask."""
        edges = self.edges
        span = self._analysis(enabled, analysis, _SPAN)
        if span.components == 2 and span.side is not None:
            inside = set(span.side)
            return sorted([eid for x in inside for eid, y in self._adj[x]
                           if y not in inside])
        if span.components > 1:
            # Disconnected: a cut of disabled edges isolating one component.
            comp = self._labels(span.forest)
            cuts = {}
            for eid in sorted(disabled):
                e = edges[eid]
                cu, cv = comp[e.u], comp[e.v]
                if cu != cv:
                    cuts.setdefault(cu, []).append(eid)
                    cuts.setdefault(cv, []).append(eid)
            best = min(set(comp), key=lambda r: (len(cuts.get(r, ())), r))
            return sorted(cuts.get(best, ()))
        # Connected but too heavy: disabled edges that could lighten the
        # tree, those whose ends the forest joins only through a heavier
        # edge. Equal weight does not lighten it.
        parent = list(range(self.n))
        forest = [eid for eid in self._order if span.forest[eid]]
        merged = 0
        out = []
        for eid in self._order:
            if enabled[eid]:
                continue
            e = edges[eid]
            while (merged < len(forest)
                   and edges[forest[merged]].weight <= e.weight):
                f = edges[forest[merged]]
                parent[find(parent, f.u)] = find(parent, f.v)
                merged += 1
            if find(parent, e.u) != find(parent, e.v):
                out.append(eid)
        return sorted(out)

    def _mst_edge_slots(self, eid, positive, enabled, moved, analysis):
        edges = self.edges
        e = edges[eid]
        if positive:
            if not enabled[eid]:
                return [eid]
            # Edge is in the tree of the maximal completion, which means no
            # path of strictly lighter edges joins its endpoints there. It
            # stays in every tree unless such a path opens up, and any such
            # path must cross out of the lighter-reachable region through a
            # currently disabled lighter edge: those edges are the witness.
            rank = self._rank
            below = rank[eid]
            lighter = bytearray(len(edges))
            for fid in self._order[:below]:
                lighter[fid] = enabled[fid]
            dist, _ = bfs_tree(self._adj, self.n, lighter, e.u)
            if dist[e.v] is not INF:
                raise RuntimeError("edge not in the completion tree")
            return [fid for fid in sorted(moved) if rank[fid] < below
                    and (dist[edges[fid].u] is INF)
                    != (dist[edges[fid].v] is INF)]
        # Negative: the edge is enabled yet outside the minimal-completion
        # tree, so the tree path between its endpoints plus the edge itself
        # pins it out of every extension's tree.
        forest = self._analysis(enabled, analysis, _SPAN).forest
        _, parent = bfs_tree(self._adj, self.n, forest, e.u)
        return self._tree_path(parent, e.u, e.v)[::-1] + [eid]

    # -- model witnesses ---------------------------------------------------------

    def model_witness(self, pred, enabled, analysis):
        """Integer payload shown for a true atom under a full model: a node
        path for reach and distance, (u, v, flow) triples for flow, the
        component count, tree edge vars for spanning-tree atoms.
        ``analysis`` memoizes the analyses of the model's mask for the other
        atoms of this graph."""
        kind = pred.kind
        if kind == "mst_edge":
            return ["tree" if enabled[pred.payload[0]] else "disabled"]
        if kind == "components_leq":
            return [self._analysis(enabled, analysis, _SPAN).components]
        edges = self.edges
        support = self._support(pred, enabled, analysis)
        if kind == "mst_weight_leq":
            return [edges[eid].var for eid in support]
        if kind == "maxflow_geq":
            s, t, _ = pred.payload
            flow = self._analysis(enabled, analysis, ("flow", s, t)).flow
            return [x for eid in support
                    for x in (edges[eid].u, edges[eid].v, flow[eid])]
        # A digraph path: each arc's head is the next node from u.
        return [pred.payload[0]] + [edges[eid].v for eid in reversed(support)]
