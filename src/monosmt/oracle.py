"""Reference checkers built on a second, independent algorithm family.

Where the theory modules use breadth-first search, Dijkstra, Kruskal,
Edmonds-Karp, and EDF simulation, this module answers the same questions with
depth-first search, Bellman-Ford, Prim, Ford-Fulkerson on depth-first paths,
and the processor-demand criterion. Agreement between the two families is a
tested property; keeping the implementations disjoint is what makes the
cross-check meaningful, so nothing here may import from the theory modules.

The solver-facing entry points work on a GnfDocument and plain 1-based model
value lists. Exhaustive operations refuse instances beyond BUDGET variables.
"""
from __future__ import annotations

import heapq
from collections import namedtuple
from functools import cache

from .gnf import GnfDocument

INF = float("inf")
BUDGET = 22


# ----------------------------------------------------------------------
# evaluators (edges are (u, v, weight) triples, enabled is indexable by eid)

def _adjacency(n, directed, edges, enabled):
    adj = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        if enabled[eid]:
            adj[u].append(v)
            if not directed:
                adj[v].append(u)
    return adj


def _mark(adj, seen, s):
    """Mark in ``seen`` every node reachable from s, depth first."""
    seen[s] = 1
    stack = [s]
    while stack:
        for y in adj[stack.pop()]:
            if not seen[y]:
                seen[y] = 1
                stack.append(y)


def reach_dfs(n, directed, edges, enabled, u, v):
    seen = bytearray(n)
    _mark(_adjacency(n, directed, edges, enabled), seen, u)
    return bool(seen[v])


def dist_bellman_ford(n, directed, edges, enabled, src):
    dist = [INF] * n
    dist[src] = 0
    for _ in range(max(n - 1, 1)):
        changed = False
        for eid, (u, v, w) in enumerate(edges):
            if not enabled[eid]:
                continue
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if not directed and dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def components_count_dfs(n, edges, enabled):
    adj = _adjacency(n, False, edges, enabled)
    seen = bytearray(n)
    count = 0
    for s in range(n):
        if not seen[s]:
            count += 1
            _mark(adj, seen, s)
    return count


def maxflow_dfs(n, edges, enabled, s, t):
    """Ford-Fulkerson with depth-first augmenting paths."""
    radj = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        if enabled[eid]:
            radj[u].append((eid, v, True))
            radj[v].append((eid, u, False))
    flow = [0] * len(edges)
    total = 0
    while True:
        parent = [None] * n
        room = [0] * n  # each reached node's bottleneck from s
        room[s] = INF
        stack = [s]
        while stack and parent[t] is None:
            x = stack.pop()
            here = room[x]
            for eid, head, fwd in radj[x]:
                if room[head]:
                    continue
                residual = edges[eid][2] - flow[eid] if fwd else flow[eid]
                if residual <= 0:
                    continue
                room[head] = residual if residual < here else here
                parent[head] = (eid, fwd, x)
                if head == t:
                    break
                stack.append(head)
        if parent[t] is None:
            return total
        node = t
        while node != s:
            eid, fwd, node = parent[node]
            flow[eid] += room[t] if fwd else -room[t]
        total += room[t]


def mst_prim(n, edges, enabled):
    """Prim scan under the (weight, edge id) order.

    Returns (components, total weight, tree edge id set). The order makes
    the minimum spanning forest unique, so this agrees with any correct
    construction using the same tie-break.
    """
    adj = [[] for _ in range(n)]
    for eid, (u, v, w) in enumerate(edges):
        if enabled[eid] and u != v:
            adj[u].append((w, eid, v))
            adj[v].append((w, eid, u))
    seen = bytearray(n)
    tree = set()
    total = 0
    components = 0
    for s in range(n):
        if seen[s]:
            continue
        components += 1
        seen[s] = 1
        heap = list(adj[s])
        heapq.heapify(heap)
        while heap:
            w, eid, x = heapq.heappop(heap)
            if seen[x]:
                continue
            seen[x] = 1
            tree.add(eid)
            total += w
            for item in adj[x]:
                if not seen[item[2]]:
                    heapq.heappush(heap, item)
    return components, total, tree


def demand_feasible(tasks, enabled):
    """Processor-demand criterion: a task set meets all deadlines under
    preemptive EDF iff over every interval the total duration of tasks
    confined to it fits. tasks are (arrival, duration, deadline) triples."""
    act = [t for tid, t in enumerate(tasks) if enabled[tid]]
    for a, l, d in act:
        if d - a < l:
            return False
    arrivals = sorted({t[0] for t in act})
    deadlines = sorted({t[2] for t in act})
    for a0 in arrivals:
        for d0 in deadlines:
            if d0 <= a0:
                continue
            demand = sum(l for a, l, d in act if a >= a0 and d <= d0)
            if demand > d0 - a0:
                return False
    return True


# ----------------------------------------------------------------------
# document-level checking

_Pred = namedtuple("_Pred", "var svars fn")


def _memo(fn):
    """fn memoized by the bytes of its mask, so that a bytes and a
    bytearray mask read alike."""
    fn = cache(fn)
    return lambda en: fn(bytes(en))


def _graph(g):
    """Graph g's S-vars and a maker of its atoms' evaluators, which share
    one edge list, one var-to-edge-id map and one memoized Prim scan."""
    n, directed = g.n, g.directed
    edges = [(e.u, e.v, e.weight) for e in g.edges]
    eids = {e.var: eid for eid, e in enumerate(g.edges)}
    prim = cache(lambda en: mst_prim(n, edges, en))

    def make(kind, args):
        if kind == "reach":
            u, v = args
            return lambda en: reach_dfs(n, directed, edges, en, u, v)
        if kind == "distance_leq":
            u, v, bound = args
            return lambda en: dist_bellman_ford(n, directed, edges, en,
                                                u)[v] <= bound
        if kind == "maxflow_geq":
            s, t, bound = args
            return lambda en: bound <= 0 or maxflow_dfs(n, edges, en, s,
                                                        t) >= bound
        if kind == "components_leq":
            return lambda en: components_count_dfs(n, edges, en) <= args[0]
        if kind == "mst_weight_leq":
            bound = args[0]
            return lambda en: prim(en)[0] <= 1 and (
                bound is None or prim(en)[1] <= bound)
        if kind == "mst_edge":
            eid = eids[args[0]]
            return lambda en: not en[eid] or eid in prim(en)[2]
        raise AssertionError(kind)
    return [e.var for e in g.edges], make


def _processor(proc):
    """Processor proc's S-vars and a maker of its atoms' evaluators."""
    tasks = [(t.arrival, t.duration, t.deadline) for t in proc.tasks]
    return [t.var for t in proc.tasks], (
        lambda kind, args: lambda en: demand_feasible(tasks, en))


def predicates(doc: GnfDocument):
    """One reference predicate per ``doc.preds`` entry, in order: its atom
    ``var``, its ``svars`` in mask order, and ``fn(enabled)`` on a mask,
    memoized by the mask's bytes. The atoms of one graph or processor share
    one ``svars`` list and whatever their evaluators can share."""
    owners = {}
    preds = []
    for p in doc.preds:
        sched = p.kind == "schedulable"
        if (sched, p.owner) not in owners:
            owners[sched, p.owner] = (_processor(doc.procs[p.owner]) if sched
                                      else _graph(doc.graphs[p.owner]))
        svars, make = owners[sched, p.owner]
        preds.append(_Pred(p.var, svars, _memo(make(p.kind, p.args))))
    return preds


DECREASING = ("mst_edge", "schedulable")  # the negative monotone kinds


def check_lemma(doc: GnfDocument):
    """A check of one theory lemma of ``doc``, in DIMACS literals, at any
    size: None when it is valid, else the S-var mask it fails on.

    Its one atom literal must hold once its other literals, all on that
    atom's S-vars, are false. Every other S-var gets the value least
    favourable to the atom literal; the predicate is monotonic, so agreeing
    there means agreeing on every completion. A clause with no atom literal,
    or more than one, is reported invalid.
    """
    preds = {decl.var: (decl.kind, pred)
             for decl, pred in zip(doc.preds, predicates(doc))}

    def check(clause):
        heads = [lit for lit in clause if abs(lit) in preds]
        if len(heads) != 1:
            return bytes(lit < 0 for lit in clause)
        (head,) = heads
        kind, pred = preds[abs(head)]
        fill = (head > 0) == (kind in DECREASING)
        value = {abs(lit): lit < 0 for lit in clause if lit != head}
        mask = bytes(value.pop(v, fill) for v in pred.svars)
        if value or pred.fn(mask) != (head > 0):
            return mask  # a literal off the atom's S-vars, or a failure
        return None
    return check


def _clause_masks(doc: GnfDocument):
    masks = []
    for clause in doc.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    return masks


def brute_force_solve(doc: GnfDocument):
    """Exhaustive search in lexicographic assignment order.

    Returns ("SAT", values) with a 1-based bool list, or ("UNSAT", None).
    """
    values = check_clause_valid(doc, [], include_cnf=True)
    return ("UNSAT", None) if values is None else ("SAT", values)


def check_model(doc: GnfDocument, values):
    """None if the complete model satisfies all clauses and atom semantics,
    else a violation message naming the first failing clause or atom."""
    if len(values) != doc.nvars + 1 or any(v is None for v in values[1:]):
        raise ValueError("model must assign every declared var")
    lit_true = [*values, *(not v for v in values[:0:-1])]  # [-v] is not v
    for idx, clause in enumerate(doc.clauses):
        if not any(map(lit_true.__getitem__, clause)):
            return "clause %d falsified: %s" % (idx, clause)
    masks = {}  # one mask per graph or processor, by its shared svars
    for decl, p in zip(doc.preds, predicates(doc)):
        mask = masks.get(id(p.svars))
        if mask is None:
            mask = masks[id(p.svars)] = bytes(map(values.__getitem__,
                                                  p.svars))
        have = values[p.var]
        want = p.fn(mask)
        if have != want:
            return "atom var %d (%s) is %s but predicate is %s" % (
                p.var, decl.kind, have, want)
    return None


def check_clause_valid(doc: GnfDocument, clause, include_cnf=False):
    """Exhaustively search for an assignment consistent with every atom's
    semantics (and the CNF when include_cnf) that falsifies the clause.
    Returns None when the clause is valid, else a counterexample values list.
    """
    if doc.nvars > BUDGET:
        raise ValueError("instance exceeds the %d-var oracle budget" % BUDGET)
    base = fixed = 0
    for lit in clause:
        bit = 1 << (abs(lit) - 1)
        want = bit if lit < 0 else 0  # falsifying a literal negates it
        if fixed & bit and (base & bit) != want:
            return None  # clause contains x and not-x: a tautology
        fixed |= bit
        base |= want
    free = ((1 << doc.nvars) - 1) & ~fixed
    masks = _clause_masks(doc) if include_cnf else []
    preds = predicates(doc)
    sub = 0
    while True:
        bits = base | sub  # the free vars count up in binary
        inv = ~bits
        if all(bits & pos or inv & neg for pos, neg in masks) and all(
                ((bits >> (p.var - 1)) & 1) == p.fn(bytes(
                    (bits >> (v - 1)) & 1 for v in p.svars)) for p in preds):
            return [None] + [bool((bits >> i) & 1) for i in range(doc.nvars)]
        if sub == free:
            return None
        sub = (sub - free) & free  # the next subset of free, in order
