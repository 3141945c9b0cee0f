"""Benchmark instance generators.

All randomness comes from a self-contained xorshift64* stream so that a seed
reproduces the same document byte for byte on any platform. Each generator
returns a GnfDocument; serialize it for the file form.
"""
from __future__ import annotations

from .cardinality import encode_cardinality
from .gnf import GnfDocument, GraphDecl, EdgeDecl, ProcDecl, TaskDecl, \
    PredDecl

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
_ZERO_SEED = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """xorshift64* PRNG: shifts 12/25/27, odd 64-bit output multiplier.

    A zero seed would be a fixed point, so it is remapped to a constant.
    """

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or _ZERO_SEED

    def next(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], both inclusive."""
        return lo + self.next() % (hi - lo + 1)


def _grid_edges(width, height):
    """Undirected grid edge list as (u, v) with u = row*width + col."""
    out = []
    for r in range(height):
        for c in range(width):
            node = r * width + c
            if c + 1 < width:
                out.append((node, node + 1))
            if r + 1 < height:
                out.append((node, node + width))
    return out


def gen_maze(width, height, seed) -> GnfDocument:
    """Coupled-graph maze: a weighted grid whose chosen edges must form a
    connected subgraph, a second directed copy restricted to the spanning
    tree of the chosen edges, and two-sided bounds on the corner-to-corner
    path length through that tree (longer than 3 widths, at most 4)."""
    if width < 2 or height < 2:
        raise ValueError("maze needs width and height >= 2")
    rng = Xorshift64Star(seed)
    pairs = _grid_edges(width, height)
    m = len(pairs)
    n = width * height
    start, finish = 0, n - 1
    e1 = lambda i: 1 + i
    mvar = lambda i: 1 + m + i
    fwd = lambda i: 1 + 2 * m + i
    bwd = lambda i: 1 + 3 * m + i
    far, near, conn = 4 * m + 1, 4 * m + 2, 4 * m + 3
    doc = GnfDocument(nvars=4 * m + 3)
    g1 = GraphDecl(1, False, n)
    g2 = GraphDecl(2, True, n)
    for i, (u, v) in enumerate(pairs):
        g1.edges.append(EdgeDecl(1, u, v, e1(i), rng.randint(1, 1000)))
    for i, (u, v) in enumerate(pairs):
        g2.edges.append(EdgeDecl(2, u, v, fwd(i), 1))
        g2.edges.append(EdgeDecl(2, v, u, bwd(i), 1))
    doc.graphs = {1: g1, 2: g2}
    for i in range(m):
        doc.preds.append(PredDecl("mst_edge", 1, (e1(i),), mvar(i)))
    doc.preds.append(PredDecl("distance_leq", 2,
                              (start, finish, 4 * width), far))
    doc.preds.append(PredDecl("distance_leq", 2,
                              (start, finish, 3 * width - 1), near))
    doc.preds.append(PredDecl("mst_weight_leq", 1, (None,), conn))
    for i in range(m):
        # forward arc holds exactly when the edge is chosen and in the tree
        doc.clauses.append([-fwd(i), mvar(i)])
        doc.clauses.append([-fwd(i), e1(i)])
        doc.clauses.append([-mvar(i), -e1(i), fwd(i)])
        doc.clauses.append([-bwd(i), fwd(i)])
        doc.clauses.append([-fwd(i), bwd(i)])
    doc.clauses.append([far])
    doc.clauses.append([-near])
    doc.clauses.append([conn])
    doc.meta["maze"] = [str(x) for x in
                        (width, height, 2, start, finish)]
    return doc


def gen_flow(width, height, mode="unit", seed=0, demand=None) -> GnfDocument:
    """Chokepoint flow: a directed grid with a super source feeding the top
    row and a super sink draining the bottom row. Downward arcs are free or
    forced on, sideways arcs are a seeded mix of forced and free, and a
    max-flow atom demands the configured throughput."""
    if width < 1 or height < 1:
        raise ValueError("flow grid needs width and height >= 1")
    if mode not in ("unit", "random1to4"):
        raise ValueError("mode must be unit or random1to4")
    if demand is not None and demand < 0:
        raise ValueError("demand must be >= 0")
    rng = Xorshift64Star(seed)
    n = width * height
    source, sink = n, n + 1
    cap = (lambda: 1) if mode == "unit" else (lambda: rng.randint(1, 4))
    if demand is None:
        demand = 4 if mode == "unit" else 8
    g = GraphDecl(1, True, n + 2)
    forced = []  # (var, value)
    var = 0

    def arc(u, v, force):
        nonlocal var
        var += 1
        g.edges.append(EdgeDecl(1, u, v, var, cap()))
        if force is not None:
            forced.append((var, force))

    for r in range(height - 1):
        for c in range(width):
            node = r * width + c
            arc(node, node + width, True if rng.randint(1, 5) == 1 else None)
    for r in range(height):
        for c in range(width - 1):
            node = r * width + c
            for u, v in ((node, node + 1), (node + 1, node)):
                roll = rng.randint(1, 5)
                force = True if roll == 1 else False if roll == 2 else None
                arc(u, v, force)
    for c in range(width):
        arc(source, c, True)
    for c in range(width):
        arc((height - 1) * width + c, sink, True)
    atom = var + 1
    doc = GnfDocument(nvars=atom)
    doc.graphs = {1: g}
    doc.preds.append(PredDecl("maxflow_geq", 1, (source, sink, demand),
                              atom))
    for v, value in forced:
        doc.clauses.append([v if value else -v])
    doc.clauses.append([atom])
    doc.meta["flow"] = [str(x) for x in (width, height, mode, demand)]
    return doc


def gen_sched(n_tasks, n_procs, slack, seed) -> GnfDocument:
    """Task placement: each task may run on at most one processor, whose
    speed scales the duration; consecutive tasks form all-or-none groups;
    exactly half of all tasks must be scheduled and every processor must
    stay feasible."""
    if n_tasks < 1 or n_procs < 1:
        raise ValueError("need at least one task and one processor")
    if not 1 <= slack <= 998:
        raise ValueError("slack must be in 1..998")
    rng = Xorshift64Star(seed)
    arrivals = []
    lengths = []
    for _ in range(n_tasks):
        arrivals.append(rng.randint(1, 1000 - slack - 1))
        lengths.append(rng.randint(1, 5))
    slowdown = [100 + rng.randint(0, 100) for _ in range(n_procs)]
    x = lambda i, p: 1 + i * n_procs + p
    s = lambda i: 1 + n_tasks * n_procs + i
    atom = lambda p: 1 + n_tasks * n_procs + n_tasks + p
    nvars = n_tasks * n_procs + n_tasks + n_procs
    doc = GnfDocument(nvars=nvars)
    for p in range(n_procs):
        proc = ProcDecl(p)
        for i in range(n_tasks):
            dur = -(-slowdown[p] * lengths[i] // 100)  # ceil
            proc.tasks.append(TaskDecl(p, arrivals[i], dur,
                                       arrivals[i] + slack, x(i, p)))
        doc.procs[p] = proc
        doc.preds.append(PredDecl("schedulable", p, (), atom(p)))
    for i in range(n_tasks):
        doc.clauses.append([-s(i)] + [x(i, p) for p in range(n_procs)])
        for p in range(n_procs):
            doc.clauses.append([-x(i, p), s(i)])
            for q in range(p + 1, n_procs):
                doc.clauses.append([-x(i, p), -x(i, q)])
    half = n_tasks // 2
    if half:
        # group divides half, so at most the last task is left ungrouped
        group = next(g for g in range(min(half, 10), 0, -1) if half % g == 0)
        for base in range(0, n_tasks - group + 1, group):
            for i in range(base, base + group - 1):
                doc.clauses.append([-s(i), s(i + 1)])
                doc.clauses.append([s(i), -s(i + 1)])
        more, nxt = encode_cardinality([s(i) for i in range(n_tasks)],
                                       half, "=", nvars + 1)
        doc.clauses.extend(more)
        doc.nvars = nxt - 1
    for p in range(n_procs):
        doc.clauses.append([atom(p)])
    doc.meta["sched"] = [str(v) for v in (n_tasks, n_procs, slack)]
    return doc
