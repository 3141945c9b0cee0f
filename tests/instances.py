"""Seeded random instance builders and solver instrumentation shared across
the test suite.

Every builder is a pure function of an integer seed, so a failure reproduces
from the seed printed in the assertion message. The random builders stay
inside the brute-force budget: graphs get at most 5 nodes and 6 symbolic
edges, schedulers at most 6 tasks, and documents at most 22 variables.
``squeeze_flow`` and ``free_atom_flow`` build on a generated grid and are
larger.
"""

from monosmt import generators
from monosmt.build import build_instance
from monosmt.generators import Xorshift64Star, gen_flow
from monosmt.gnf import (EdgeDecl, GnfDocument, GraphDecl, PredDecl, ProcDecl,
                         TaskDecl)
from monosmt.sat import FALSE, UNDEF, dimacs_lit

GRAPH_KINDS = ("reach", "distance_leq", "maxflow_geq", "components_leq",
               "mst_weight_leq", "mst_edge")
ALL_KINDS = GRAPH_KINDS + ("schedulable",)
DIRECTED_KINDS = ("reach", "distance_leq", "maxflow_geq")


def rand_graph(rng, directed, gid=1, first_var=1, max_nodes=5, max_edges=6):
    """Random multigraph; self-loops and parallel edges allowed."""
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, max_edges)
    g = GraphDecl(gid, directed, n)
    for i in range(m):
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        g.edges.append(EdgeDecl(gid, u, v, first_var + i, rng.randint(1, 4)))
    return g


def rand_pred(rng, kind, g, var):
    n = g.n
    m = len(g.edges)
    if kind == "reach":
        args = (rng.randint(0, n - 1), rng.randint(0, n - 1))
    elif kind == "distance_leq":
        args = (rng.randint(0, n - 1), rng.randint(0, n - 1),
                rng.randint(0, 8))
    elif kind == "maxflow_geq":
        s = rng.randint(0, n - 1)
        t = (s + rng.randint(1, n - 1)) % n
        args = (s, t, rng.randint(0, 4))
    elif kind == "components_leq":
        args = (rng.randint(0, n),)
    elif kind == "mst_weight_leq":
        bound = None if rng.randint(1, 4) == 1 else rng.randint(0, 3 * m)
        args = (bound,)
    elif kind == "mst_edge":
        args = (g.edges[rng.randint(0, m - 1)].var,)
    else:
        raise AssertionError(kind)
    return PredDecl(kind, g.gid, args, var)


def rand_tasks(rng, pid=1, first_var=1, max_tasks=6):
    """Random processor with a horizon of about 20 time units."""
    proc = ProcDecl(pid)
    for i in range(rng.randint(1, max_tasks)):
        a = rng.randint(0, 12)
        proc.tasks.append(TaskDecl(pid, a, rng.randint(1, 5),
                                   a + rng.randint(1, 8), first_var + i))
    return proc


def add_glue(rng, doc, extra_vars=2, extra_clauses=3):
    """Unit-assert atoms with mixed polarity, then add random CNF clauses."""
    for p in doc.preds:
        roll = rng.randint(0, 3)
        if roll == 0:
            doc.clauses.append([p.var])
        elif roll == 1:
            doc.clauses.append([-p.var])
    doc.nvars += rng.randint(0, extra_vars)
    for _ in range(rng.randint(0, extra_clauses)):
        clause = []
        for _ in range(rng.randint(1, 3)):
            v = rng.randint(1, doc.nvars)
            clause.append(v if rng.randint(0, 1) else -v)
        doc.clauses.append(clause)


def rand_doc(kind, seed):
    """Random single-theory document built around one predicate kind."""
    rng = Xorshift64Star(seed)
    doc = GnfDocument()
    if kind == "schedulable":
        proc = rand_tasks(rng)
        doc.procs[1] = proc
        doc.nvars = len(proc.tasks) + 1
        doc.preds.append(PredDecl("schedulable", 1, (), doc.nvars))
    else:
        g = rand_graph(rng, kind in DIRECTED_KINDS)
        doc.graphs[1] = g
        doc.nvars = len(g.edges)
        for _ in range(rng.randint(1, 3)):
            doc.nvars += 1
            doc.preds.append(rand_pred(rng, kind, g, doc.nvars))
    add_glue(rng, doc)
    assert doc.nvars <= 22
    return doc


def rand_mixed_doc(seed):
    """A graph theory and a processor theory sharing one document."""
    rng = Xorshift64Star(seed)
    doc = GnfDocument()
    kind = GRAPH_KINDS[rng.randint(0, len(GRAPH_KINDS) - 1)]
    g = rand_graph(rng, kind in DIRECTED_KINDS, max_nodes=4, max_edges=4)
    doc.graphs[1] = g
    var = len(g.edges)
    proc = rand_tasks(rng, first_var=var + 1, max_tasks=3)
    doc.procs[1] = proc
    var += len(proc.tasks)
    var += 1
    doc.preds.append(rand_pred(rng, kind, g, var))
    var += 1
    doc.preds.append(PredDecl("schedulable", 1, (), var))
    doc.nvars = var
    add_glue(rng, doc)
    assert doc.nvars <= 22
    return doc


def squeeze_flow(width, height, seed, demand):
    """A ``gen_flow`` grid of capacities 1 to 4 whose flow is pinned to
    ``demand``: the generated ``maxflow_geq demand`` atom is asserted, a
    second atom ``maxflow_geq demand + 1`` is refuted, and one clause
    (a or b) per free edge, over random free edges, turns edges on. Each
    refutation of the second atom is explained by a positive flow witness,
    which no generated workload makes."""
    doc = gen_flow(width, height, mode="random1to4", seed=seed, demand=demand)
    source, sink, _ = doc.preds[0].args
    doc.nvars += 1
    doc.preds.append(PredDecl("maxflow_geq", 1, (source, sink, demand + 1),
                              doc.nvars))
    doc.clauses.append([-doc.nvars])
    forced = {abs(c[0]) for c in doc.clauses if len(c) == 1}
    free = [e.var for e in doc.graphs[1].edges if e.var not in forced]
    rng = Xorshift64Star(seed)
    for _ in free:
        doc.clauses.append([free[rng.randint(0, len(free) - 1)]
                            for _ in range(2)])
    return doc


def free_atom_flow(*args, **kwargs):
    """``gen_flow(*args, **kwargs)`` with a second ``maxflow_geq`` atom of
    the same source, sink and demand on a fresh var that no clause names.
    The free atom is unassigned at decision level 0, so the theory has no
    agreed fill (``MonotonicTheory.agreed_fill``) and the edges start at
    phase False: the search still conflicts, where the plain document is
    decided toward the maximal completion and solves without a conflict."""
    doc = gen_flow(*args, **kwargs)
    doc.nvars += 1
    doc.preds.append(PredDecl("maxflow_geq", 1, doc.preds[0].args, doc.nvars))
    return doc


# The names a document builder call written as text may use.
CALLS = {**vars(generators), "rand_doc": rand_doc,
         "squeeze_flow": squeeze_flow, "free_atom_flow": free_atom_flow}


class Recorder:
    """Solver observer keeping every learnt clause and theory lemma, each a
    tuple of solver literals, in the order the search made them."""

    def __init__(self):
        self.learnts = []
        self.lemmas = []

    def learnt(self, lits):
        self.learnts.append(lits)

    def lemma(self, lits):
        self.lemmas.append(lits)

    def lemma_sets(self):
        """The lemmas as sets of DIMACS literals."""
        return [frozenset(dimacs_lit(l) for l in c) for c in self.lemmas]


def check_reasons(solver, theories, recorder=None):
    """Explain every theory implication when it is made, and check it.

    Each theory's ``propagate`` is wrapped. For every implied literal still
    unassigned, ``explain`` runs before the solver enqueues the literal, and
    the clause must assert it: the implied literal first and every other
    literal false. Each checked clause goes to ``recorder.lemma``, so a test
    sees the explanations that conflict analysis never expanded.
    """
    for th in theories:
        th.propagate = _checked(solver, th, th.propagate, recorder)


def _checked(solver, th, propagate, recorder):
    def checked():
        implied, conflict = propagate()
        if conflict is None:
            for lit, atom_id in implied:
                if solver.value[lit] != UNDEF:
                    continue
                lits = tuple(th.explain(atom_id, lit))
                if lits[0] != lit or any(solver.value[other] != FALSE
                                         for other in lits[1:]):
                    raise AssertionError("reason %r does not assert %d"
                                         % (lits, lit))
                if recorder is not None:
                    recorder.lemma(lits)
        return implied, conflict
    return checked


def solve_recorded(doc):
    """Solve ``doc`` with every reason checked; returns (status, recorder)."""
    recorder = Recorder()
    inst = build_instance(doc, observer=recorder)
    if not inst.ok:
        return "UNSAT", recorder
    check_reasons(inst.solver, inst.theories, recorder)
    return inst.solver.solve().status, recorder
