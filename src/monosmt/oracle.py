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

from .gnf import GnfDocument

INF = float("inf")
BUDGET = 22


# ----------------------------------------------------------------------
# evaluators (edges are (u, v, weight) triples, enabled is indexable by eid)

def reach_dfs(n, directed, edges, enabled, u, v):
    adj = [[] for _ in range(n)]
    for eid, (a, b, _) in enumerate(edges):
        if enabled[eid]:
            adj[a].append(b)
            if not directed:
                adj[b].append(a)
    seen = bytearray(n)
    seen[u] = 1
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for y in adj[x]:
            if not seen[y]:
                seen[y] = 1
                stack.append(y)
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
    adj = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        if enabled[eid]:
            adj[u].append(v)
            adj[v].append(u)
    seen = bytearray(n)
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        seen[s] = 1
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
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
        seen = bytearray(n)
        seen[s] = 1
        stack = [s]
        while stack and not seen[t]:
            x = stack.pop()
            for eid, head, fwd in radj[x]:
                if seen[head]:
                    continue
                residual = edges[eid][2] - flow[eid] if fwd else flow[eid]
                if residual <= 0:
                    continue
                seen[head] = 1
                parent[head] = (eid, fwd, x)
                if head == t:
                    break
                stack.append(head)
        if not seen[t]:
            return total
        bottleneck = None
        node = t
        while node != s:
            eid, fwd, prev = parent[node]
            residual = edges[eid][2] - flow[eid] if fwd else flow[eid]
            if bottleneck is None or residual < bottleneck:
                bottleneck = residual
            node = prev
        node = t
        while node != s:
            eid, fwd, prev = parent[node]
            flow[eid] += bottleneck if fwd else -bottleneck
            node = prev
        total += bottleneck


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

class _Pred:
    __slots__ = ("var", "svars", "fn", "memo")

    def __init__(self, var, svars, fn):
        self.var = var
        self.svars = svars
        self.fn = fn
        self.memo = {}

    def truth(self, bits):
        key = 0
        for i, v in enumerate(self.svars):
            key |= ((bits >> (v - 1)) & 1) << i
        hit = self.memo.get(key)
        if hit is None:
            enabled = bytes((key >> i) & 1 for i in range(len(self.svars)))
            hit = self.fn(enabled)
            self.memo[key] = hit
        return hit


def _graph_fn(g, kind, args):
    n = g.n
    edges = [(e.u, e.v, e.weight) for e in g.edges]
    if kind == "reach":
        u, v = args
        return lambda en: reach_dfs(n, g.directed, edges, en, u, v)
    if kind == "distance_leq":
        u, v, bound = args
        return lambda en: dist_bellman_ford(n, g.directed, edges, en,
                                            u)[v] <= bound
    if kind == "maxflow_geq":
        s, t, bound = args
        return lambda en: bound <= 0 or maxflow_dfs(n, edges, en, s,
                                                    t) >= bound
    if kind == "components_leq":
        bound = args[0]
        return lambda en: components_count_dfs(n, edges, en) <= bound
    if kind == "mst_weight_leq":
        bound = args[0]

        def fn(en):
            components, total, _ = mst_prim(n, edges, en)
            if components > 1:
                return False
            return True if bound is None else total <= bound
        return fn
    if kind == "mst_edge":
        evar = args[0]
        eid = next(i for i, e in enumerate(g.edges) if e.var == evar)
        return lambda en: not en[eid] or eid in mst_prim(n, edges, en)[2]
    raise AssertionError(kind)


def predicates(doc: GnfDocument):
    """One reference predicate per ``doc.preds`` entry, in order: its atom
    ``var``, its ``svars`` in mask order, and ``fn(enabled)`` on a mask."""
    preds = []
    for p in doc.preds:
        if p.kind == "schedulable":
            proc = doc.procs[p.owner]
            tasks = [(t.arrival, t.duration, t.deadline) for t in proc.tasks]
            svars = [t.var for t in proc.tasks]
            fn = (lambda ts: lambda en: demand_feasible(ts, en))(tasks)
        else:
            g = doc.graphs[p.owner]
            svars = [e.var for e in g.edges]
            fn = _graph_fn(g, p.kind, p.args)
        preds.append(_Pred(p.var, svars, fn))
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


def _values_to_bits(values):
    bits = 0
    for var, val in enumerate(values[1:], start=1):
        if val:
            bits |= 1 << (var - 1)
    return bits


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
    bits = _values_to_bits(values)
    inv = ~0 ^ bits
    for idx, (pos, neg) in enumerate(_clause_masks(doc)):
        if not (bits & pos or inv & neg):
            return "clause %d falsified: %s" % (idx, doc.clauses[idx])
    for decl, p in zip(doc.preds, predicates(doc)):
        have = values[p.var]
        want = p.truth(bits)
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
                ((bits >> (p.var - 1)) & 1) == p.truth(bits) for p in preds):
            return [None] + [bool((bits >> i) & 1) for i in range(doc.nvars)]
        if sub == free:
            return None
        sub = (sub - free) & free  # the next subset of free, in order
