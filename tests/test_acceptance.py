"""Acceptance gate: end-to-end behavior and tolerances, one criterion per
test, each reporting a single pass/fail line in the terminal summary."""

import copy
import time

import pytest

from monosmt import oracle
from monosmt.build import solve_doc
from monosmt.generators import Xorshift64Star, gen_flow, gen_maze, gen_sched
from monosmt.gnf import EdgeDecl, GnfDocument, GraphDecl, PredDecl
from monosmt.graphs import GraphTheory
from monosmt.minimize import minimize_bound
from monosmt.sat import dimacs_lit
from monosmt.scheduling import ProcessorTheory
from monosmt.theory import AtomBinding, POSITIVE

from instances import ALL_KINDS, DIRECTED_KINDS, Recorder, rand_doc


@pytest.fixture(scope="session")
def theory_sweep():
    """1000 seeded instances per predicate kind, solved both ways, with
    every learned theory clause retained for validity checking."""
    t0 = time.monotonic()
    mismatches = []
    clause_batches = []
    total = 0
    for kind in ALL_KINDS:
        for seed in range(1000):
            doc = rand_doc(kind, seed)
            recorder = Recorder()
            status, _, _ = solve_doc(doc, observer=recorder)
            want, _ = oracle.brute_force_solve(doc)
            total += 1
            if status != want:
                mismatches.append((kind, seed, status, want))
            log = recorder.lemmas
            if log:
                clause_batches.append(
                    (doc, [[dimacs_lit(l) for l in c] for c in log]))
    return {
        "elapsed": time.monotonic() - t0,
        "total": total,
        "mismatches": mismatches,
        "clause_batches": clause_batches,
    }


def test_criterion_1_status_agreement(theory_sweep, acceptance):
    sweep = theory_sweep
    ok = not sweep["mismatches"] and sweep["elapsed"] < 300
    acceptance(1, "status-agreement", ok,
               "%d instances, %d mismatches, %.1fs"
               % (sweep["total"], len(sweep["mismatches"]),
                  sweep["elapsed"]))


def test_criterion_2_clause_validity(theory_sweep, acceptance):
    checked = 0
    bad = []
    for doc, clauses in theory_sweep["clause_batches"]:
        for clause in clauses:
            checked += 1
            cex = oracle.check_clause_valid(doc, clause)
            if cex is not None:
                bad.append((clause, cex))
    ok = checked > 0 and not bad
    acceptance(2, "clause-validity", ok,
               "%d clauses checked, %d counterexamples" % (checked,
                                                           len(bad)))


def rand_graph_setup(rng, kind):
    n = rng.randint(2, 5)
    m = rng.randint(1, 6)
    th = GraphTheory(kind in DIRECTED_KINDS, n,
                     [(rng.randint(0, n - 1), rng.randint(0, n - 1), eid,
                       rng.randint(1, 4)) for eid in range(m)])
    if kind == "reach":
        payload = (rng.randint(0, n - 1), rng.randint(0, n - 1))
    elif kind == "distance_leq":
        payload = (rng.randint(0, n - 1), rng.randint(0, n - 1),
                   rng.randint(0, 8))
    elif kind == "maxflow_geq":
        s = rng.randint(0, n - 1)
        payload = (s, (s + rng.randint(1, n - 1)) % n, rng.randint(0, 4))
    elif kind == "components_leq":
        payload = (rng.randint(0, n),)
    elif kind == "mst_weight_leq":
        payload = (None,) if rng.randint(0, 3) == 0 \
            else (rng.randint(0, 3 * m),)
    else:
        payload = (rng.randint(0, m - 1),)
    return th, payload, m


def test_criterion_3_monotone_evaluators(acceptance):
    flips_per_kind = 10000
    violations = []
    for kind_index, kind in enumerate(ALL_KINDS):
        rng = Xorshift64Star(kind_index + 1)
        done = 0
        while done < flips_per_kind:
            if kind == "schedulable":
                size = rng.randint(1, 6)
                tasks = []
                for i in range(size):
                    a = rng.randint(0, 12)
                    tasks.append((i + 1, a, rng.randint(1, 5),
                                  a + rng.randint(1, 8)))
                th = ProcessorTheory(tasks)
                atom = th.atom(th.add_atom("schedulable", (), size + 1))
            else:
                th, payload, size = rand_graph_setup(rng, kind)
                atom = AtomBinding(0, 0, POSITIVE, kind, payload)
            evaluate = lambda en: th.evaluate(atom, en, {})
            for _ in range(8):
                if done >= flips_per_kind:
                    break
                mask = bytearray(rng.randint(0, 1) for _ in range(size))
                zeros = [i for i in range(size) if not mask[i]]
                if not zeros:
                    continue
                before = evaluate(mask)
                flipped = bytearray(mask)
                flipped[zeros[rng.randint(0, len(zeros) - 1)]] = 1
                after = evaluate(flipped)
                done += 1
                if kind in oracle.DECREASING:
                    if after and not before:
                        violations.append((kind, bytes(mask)))
                elif before and not after:
                    violations.append((kind, bytes(mask)))
    acceptance(3, "monotone-evaluators", not violations,
               "%d kinds x %d flips, %d violations"
               % (len(ALL_KINDS), flips_per_kind, len(violations)))


def test_criterion_4_maze_coupling(acceptance):
    t0 = time.monotonic()
    doc = gen_maze(8, 8, 0)
    status, values, _ = solve_doc(doc)
    elapsed = time.monotonic() - t0
    ok = status == "SAT" and elapsed < 60
    detail = "status %s, %.1fs" % (status, elapsed)
    if ok:
        n = 64
        g1, g2 = doc.graphs[1], doc.graphs[2]
        m = len(g1.edges)
        en1 = bytearray(1 if values[e.var] else 0 for e in g1.edges)
        en2 = bytearray(1 if values[e.var] else 0 for e in g2.edges)
        path = oracle.dist_bellman_ford(
            n, True, [(e.u, e.v, e.weight) for e in g2.edges], en2, 0)[n - 1]
        tree = oracle.mst_prim(
            n, [(e.u, e.v, e.weight) for e in g1.edges], en1)[2]
        fwd_true = {i for i in range(m) if values[1 + 2 * m + i]}
        ok = 24 <= path <= 32 and fwd_true == tree \
            and oracle.check_model(doc, values) is None
        detail += ", path %d, tree arcs %s" % (path,
                                               "match" if fwd_true == tree
                                               else "differ")
    acceptance(4, "maze-coupling", ok, detail)


def test_criterion_5_flow_chokepoint(acceptance):
    t0 = time.monotonic()
    sat_doc = gen_flow(8, 8, "unit", 0, demand=4)
    status_sat, values, _ = solve_doc(sat_doc)
    status_unsat, _, _ = solve_doc(gen_flow(8, 8, "unit", 0, demand=9))
    elapsed = time.monotonic() - t0
    ok = status_sat == "SAT" and status_unsat == "UNSAT" and elapsed < 30
    detail = "demand 4 %s, demand 9 %s, %.1fs" % (status_sat, status_unsat,
                                                  elapsed)
    if ok:
        g = sat_doc.graphs[1]
        enabled = bytearray(1 if values[e.var] else 0 for e in g.edges)
        edges = [(e.u, e.v, e.weight) for e in g.edges]
        flow = oracle.maxflow_dfs(g.n, edges, enabled, 64, 65)
        ok = flow >= 4 and oracle.check_model(sat_doc, values) is None
        detail += ", oracle flow %d" % flow
    acceptance(5, "flow-chokepoint", ok, detail)


def test_criterion_6_sched_placement(acceptance):
    n_tasks, n_procs = 100, 10
    t0 = time.monotonic()
    doc = gen_sched(n_tasks, n_procs, 50, 0)
    status, values, _ = solve_doc(doc)
    elapsed = time.monotonic() - t0
    ok = status == "SAT" and elapsed < 120
    detail = "status %s, %.1fs" % (status, elapsed)
    if ok:
        s = lambda i: 1 + n_tasks * n_procs + i
        x = lambda i, p: 1 + i * n_procs + p
        chosen = [i for i in range(n_tasks) if values[s(i)]]
        group = 10
        groups_ok = all(
            len({values[s(i)] for i in range(base, base + group)}) == 1
            for base in range(0, n_tasks, group))
        placed_ok = all(
            sum(bool(values[x(i, p)]) for p in range(n_procs)) ==
            (1 if values[s(i)] else 0) for i in range(n_tasks))
        feasible_ok = True
        for p in range(n_procs):
            proc = doc.procs[p]
            triples = [(t.arrival, t.duration, t.deadline)
                       for t in proc.tasks]
            enabled = [1 if values[t.var] else 0 for t in proc.tasks]
            if not oracle.demand_feasible(triples, enabled):
                feasible_ok = False
        ok = len(chosen) == 50 and groups_ok and placed_ok and feasible_ok
        detail += ", %d scheduled, groups %s, demand %s" % (
            len(chosen), "all-or-none" if groups_ok else "split",
            "feasible" if feasible_ok else "infeasible")
    acceptance(6, "sched-placement", ok, detail)


def rand_grid_mst_doc(seed):
    rng = Xorshift64Star(seed)
    width = rng.randint(2, 4)
    height = rng.randint(2, 4)
    n = width * height
    g = GraphDecl(1, False, n)
    clauses = []
    var = 0
    for r in range(height):
        for c in range(width):
            node = r * width + c
            arcs = []
            if c + 1 < width:
                arcs.append((node, node + 1))
            if r + 1 < height:
                arcs.append((node, node + width))
            for u, v in arcs:
                var += 1
                g.edges.append(EdgeDecl(1, u, v, var, rng.randint(1, 9)))
                roll = rng.randint(1, 6)
                if roll == 1:
                    clauses.append([-var])
                elif roll == 2:
                    clauses.append([var])
    atom = var + 1
    doc = GnfDocument(nvars=atom)
    doc.graphs[1] = g
    doc.preds.append(PredDecl("mst_weight_leq", 1,
                              (sum(e.weight for e in g.edges),), atom))
    doc.clauses = clauses + [[atom]]
    return doc, atom


def test_criterion_8_minimize_optimal(acceptance):
    feasible = 0
    wrong = []
    for seed in range(20):
        doc, atom = rand_grid_mst_doc(seed + 1)
        res = minimize_bound(doc, atom)
        if not res.feasible:
            continue
        feasible += 1
        at = copy.deepcopy(doc)
        idx = next(i for i, p in enumerate(at.preds) if p.var == atom)
        at.preds[idx].args = (res.bound,)
        below = copy.deepcopy(doc)
        below.preds[idx].args = (res.bound - 1,)
        if solve_doc(at)[0] != "SAT" or solve_doc(below)[0] != "UNSAT":
            wrong.append(seed)
    ok = feasible >= 10 and not wrong
    acceptance(8, "minimize-optimal", ok,
               "20 grids, %d feasible, %d optimality failures"
               % (feasible, len(wrong)))
