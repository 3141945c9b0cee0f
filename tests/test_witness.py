"""Model witnesses (`w` lines) checked against the model with the oracle's
algorithms, independently of the graph theory that prints them."""

from collections import defaultdict

from monosmt import graphs, oracle
from monosmt.build import run_solve, solve_doc, witness_lines
from monosmt.generators import gen_flow, gen_maze
from monosmt.gnf import EdgeDecl, GnfDocument, GraphDecl, PredDecl

from instances import GRAPH_KINDS, rand_doc


def witness_docs():
    for kind in GRAPH_KINDS:
        for seed in range(300):
            yield rand_doc(kind, seed)
    for seed in range(3):
        yield gen_maze(4, 4, seed)
        yield gen_flow(6, 6, demand=2, seed=seed)


def model_of(lines):
    values = [None]
    for tok in lines[1].split()[1:-1]:
        values.append(int(tok) > 0)
    return values


def check_path(g, enabled, nodes, u, v):
    """Node path from u to v over enabled edges; returns its least weight."""
    assert nodes[0] == u and nodes[-1] == v, nodes
    weight = 0
    for a, b in zip(nodes, nodes[1:]):
        steps = [e.weight for i, e in enumerate(g.edges) if enabled[i] and (
            (e.u, e.v) == (a, b) or not g.directed and (e.v, e.u) == (a, b))]
        assert steps, "no enabled edge %d-%d" % (a, b)
        weight += min(steps)
    return weight


def check_flow(g, enabled, triples, s, t, bound):
    assert len(triples) % 3 == 0
    flows = defaultdict(list)
    for k in range(0, len(triples), 3):
        a, b, f = triples[k:k + 3]
        assert f > 0
        flows[a, b].append(f)
    # Each (u, v) flow needs its own enabled (u, v) edge of enough capacity.
    for (a, b), fs in flows.items():
        caps = sorted((e.weight for i, e in enumerate(g.edges)
                       if enabled[i] and (e.u, e.v) == (a, b)), reverse=True)
        assert len(fs) <= len(caps), (a, b)
        assert all(f <= c for f, c in zip(sorted(fs, reverse=True), caps))
    net = [0] * g.n
    for (a, b), fs in flows.items():
        net[a] -= sum(fs)
        net[b] += sum(fs)
    assert all(net[x] == 0 for x in range(g.n) if x not in (s, t)), net
    assert net[t] == -net[s] >= bound


def check_witness(doc, values, pred, payload):
    g = doc.graphs[pred.owner]
    enabled = [1 if values[e.var] else 0 for e in g.edges]
    triples = [(e.u, e.v, e.weight) for e in g.edges]
    if pred.kind in ("reach", "distance_leq"):
        nodes = [int(x) for x in payload]
        weight = check_path(g, enabled, nodes, pred.args[0], pred.args[1])
        if pred.kind == "distance_leq":
            assert weight <= pred.args[2]
    elif pred.kind == "maxflow_geq":
        s, t, bound = pred.args
        check_flow(g, enabled, [int(x) for x in payload], s, t, bound)
    elif pred.kind == "components_leq":
        assert [int(x) for x in payload] == [
            oracle.components_count_dfs(g.n, triples, enabled)]
    elif pred.kind == "mst_weight_leq":
        eid_of = {e.var: i for i, e in enumerate(g.edges)}
        tree = [eid_of[int(x)] for x in payload]
        assert len(set(tree)) == len(tree) == g.n - 1
        assert all(enabled[i] for i in tree)
        in_tree = [1 if i in tree else 0 for i in range(len(g.edges))]
        assert oracle.components_count_dfs(g.n, triples, in_tree) == 1
        _, weight, _ = oracle.mst_prim(g.n, triples, enabled)
        assert sum(g.edges[i].weight for i in tree) == weight
        assert pred.args[0] is None or weight <= pred.args[0]
    else:
        assert pred.kind == "mst_edge"
        eid = next(i for i, e in enumerate(g.edges) if e.var == pred.args[0])
        assert payload == (["tree"] if enabled[eid] else ["disabled"])
        if enabled[eid]:
            assert eid in oracle.mst_prim(g.n, triples, enabled)[2]


def test_witness_lines_hold_in_the_model():
    checked = defaultdict(int)
    for doc in witness_docs():
        code, lines = run_solve(doc, witness=True)
        if code != 10:
            continue
        values = model_of(lines)
        true_preds = [p for p in doc.preds if values[p.var]]
        wlines = lines[2:]
        assert len(wlines) == len(true_preds)
        for pred, line in zip(true_preds, wlines):
            head, _, payload = line.partition(" : ")
            params = [pred.owner] + ["inf" if a is None else a
                                     for a in pred.args]
            assert head.split() == ["w", pred.kind] + [str(x)
                                                       for x in params]
            check_witness(doc, values, pred, payload.split())
            checked[pred.kind] += 1
    for kind in GRAPH_KINDS:
        assert checked[kind] >= 50, dict(checked)


def test_atoms_of_one_graph_share_the_model_analysis(monkeypatch):
    # A path 0-1-2-3 plus an isolated node 4, with five true components_leq
    # atoms of different bounds.
    k = 5
    g = GraphDecl(1, False, 5)
    for i in range(3):
        g.edges.append(EdgeDecl(1, i, i + 1, i + 1, 1))
    doc = GnfDocument(nvars=3 + k)
    doc.graphs[1] = g
    for j in range(k):
        doc.preds.append(PredDecl("components_leq", 1, (2 + j,), 4 + j))
    doc.clauses = [[v] for v in range(1, 4 + k)]
    status, values, inst = solve_doc(doc)
    assert status == "SAT"
    scans = []
    real_scan = graphs.span_scan
    monkeypatch.setattr(graphs, "span_scan",
                        lambda *args: scans.append(args) or real_scan(*args))
    lines = witness_lines(inst, values)
    assert lines == ["w components_leq 1 %d : 2" % (2 + j) for j in range(k)]
    assert len(scans) == 1
