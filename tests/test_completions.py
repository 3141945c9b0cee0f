"""Trail-restored completions checked against masks rebuilt from the solver.

After every ``propagate`` call, each theory's two completion masks must equal
the masks rebuilt from ``solver.value``, and every evaluation still on a
completion's stack must match ``evaluate``, the theories' one evaluation
hook, on the mask rebuilt from the trail prefix it belongs to. So must
every max flow in a stacked analysis, which was warm-started from an older
one or kept from it: on each mask it is stacked for, its value and
residual cut side must be those of a cold ``edmonds_karp``. Every stacked
spanning forest and shortest-path tree, which may be carried over from an
older generation, or extended, swapped or split from one, or keep only its
distances, must equal a cold ``span_scan`` or ``dijkstra_tree`` on its own
generation's mask in every field the search reads. A carried forest's mask
may differ from the one it was carried from only on the moved edges and
the ones it records as ``added``, which no moved edge is among. A split's
``side`` is the lost edge's end's component in a cold scan, and no larger
than the other end's. Each evaluation must get the
completion's live value list and the newest stacked analyses as its base,
and the change list it returns must name exactly the atoms whose value it
changed in that list. Each stacked generation's values are rebuilt by
undoing change lists downward from the live list. Every scan that visits
only the dirty atoms must imply and conflict exactly as a full rescan of
the same trail does. The checks run through restarts and backjumps, and
through ``BoundProbes``, which adds atoms between solves.
"""

import random
from collections import Counter

from monosmt import generators, graphs
from monosmt.build import build_instance
from monosmt.generators import Xorshift64Star
from monosmt.graphs import (GraphTheory, SpanResult, dijkstra_tree,
                            edmonds_karp, find, span_scan)
from monosmt.minimize import BoundProbes
from monosmt.sat import FALSE, TRUE, Solver, mk_lit
from monosmt.scheduling import ProcessorTheory
from monosmt.theory import NEGATIVE, POSITIVE

from instances import (ALL_KINDS, check_reasons, free_atom_flow, rand_doc,
                       rand_mixed_doc)
from test_theory_driver import ToyTheory


def cold(th, enabled, key, memo):
    """Analysis ``key`` of ``enabled`` run from scratch, memoized."""
    memo_key = (bytes(enabled), key)
    hit = memo.get(memo_key)
    if hit is None:
        if key[0] == "span":
            hit = span_scan(th.n, th.edges, th._order, enabled)
        elif key[0] == "dij":
            hit = dijkstra_tree(th._adj, th._weights, th.n, enabled, key[1])
        else:
            hit = edmonds_karp(th._flow_adj, th._weights, th.n, enabled,
                               *key[1:])
        memo[memo_key] = hit
    return hit


def assert_same_tree(th, got, want):
    """A stacked forest or shortest-path tree equals a cold one. A carried
    maximal forest keeps no union-find, so the labels of its mask stand for
    its roots; a carried maximal tree keeps its distances and no parent
    list."""
    if isinstance(want, SpanResult):
        assert got.forest == want.forest
        assert (got.components, got.weight) == (want.components, want.weight)
        roots = [find(want.parent, x) for x in range(th.n)]
        if got.parent is None:
            assert th._labels(got.forest) == roots
        else:
            assert [find(got.parent, x) for x in range(th.n)] == roots
    else:
        assert got[0] == want[0]  # (dist, parent)
        assert got[1] is None or got[1] == want[1]


def concrete_values(th, enabled, memo):
    # Keyed by the atom count too: ``BoundProbes`` adds atoms between
    # solves, and the masks repeat.
    key = (len(th._preds), bytes(enabled))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = [th.evaluate(th.atom(i), enabled, {})
                           for i in range(len(th._preds))]
    return hit


def masks_at(th, maximal, prefixes):
    """One extreme rebuilt from the first ``p`` trail literals, for each
    ``p`` of the ascending ``prefixes``."""
    svars = th.slot_vars
    slot = {v: i for i, v in enumerate(svars)}
    fill = 1 if maximal else 0
    mask = bytearray([fill]) * len(svars)
    trail = th.solver.trail
    masks = []
    done = 0
    for prefix in prefixes:
        for lit in trail[done:prefix]:
            i = slot.get(lit >> 1)
            if i is not None and (lit & 1) == maximal:
                mask[i] = 1 - fill
        done = prefix
        masks.append(mask[:])
    return masks


class Checker:
    """Wraps each theory's propagate with the completion checks."""

    def __init__(self, solver, theories, seed=0):
        self.solver = solver
        self.rng = random.Random(seed)
        self.memo = {th: {} for th in theories}
        self.checks = 0
        self.evals = 0
        self.stacked = 0
        # (id, mask) -> stacked max flow, forest or tree checked on that
        # mask; holding each keeps its id from being reused
        self.flows = {}
        self.trees = {}
        self.reused = Counter()  # "flow"/"span"/"dij": carried unchanged
        self.reparented = 0  # trees sharing the older one's dist list only
        # "swap"/"split": a lost forest edge; "added"/"side": a swap that
        # recorded its replacement, a split that recorded its side
        self.forests = Counter()
        # Per theory class: scans that visited fewer than all atoms,
        # counting a propagate that returned without a scan.
        self.partial = Counter()
        self.scans = 0
        for th in theories:
            th.propagate = self._wrap(th, th.propagate)
            th._scan = self._wrap_scan(th, th._scan)
            th.eval_completion = self._wrap_eval(th, th.eval_completion)
            if isinstance(th, GraphTheory):
                th._swap = self._wrap_swap(th, th._swap)

    def _wrap(self, th, propagate):
        def checked():
            scans = self.scans
            result = propagate()
            if self.scans == scans:  # no atom to visit: returned early
                self.partial[type(th)] += 1
                assert result == ((), None)
                assert th._scan(th._preds) == result
                th._dirty = set()  # as the early return left it
            self.check(th)
            return result
        return checked

    def _wrap_scan(self, th, scan):
        def checked(preds):
            self.scans += 1
            result = scan(preds)
            if len(preds) < len(th._preds):
                self.partial[type(th)] += 1
                assert scan(th._preds) == result
            return result
        return checked

    def _wrap_swap(self, th, swap):
        def counted(old, eid, enabled):
            new = swap(old, eid, enabled)
            split = new.components > old.components
            self.forests["split" if split else "swap"] += 1
            if not split:
                (fid,) = new.added
                assert new.forest[fid] and not old.forest[fid]
                assert new.side is old.side
                self.forests["added"] += 1
                return new
            assert new.added == []
            e = th.edges[eid]
            side = set(new.side)
            assert len(side) == len(new.side)
            assert (e.u in side) != (e.v in side)
            want = cold(th, enabled, ("span",), self.memo[th])
            label = [find(want.parent, x) for x in range(th.n)]
            end, other = (e.u, e.v) if e.u in side else (e.v, e.u)
            assert side == {x for x in range(th.n) if label[x] == label[end]}
            assert len(side) <= label.count(label[other])
            self.forests["side"] += 1
            return new
        return counted

    def _wrap_eval(self, th, eval_completion):
        def checked(maximal, enabled, moved, values, base):
            comp = th.completion(maximal)
            gen, _, analysis = comp.stack[-1] if comp.stack else (0, (), {})
            assert enabled is comp.enabled and moved == comp.log[gen:]
            assert values is comp.values and len(values) == len(th._preds)
            if comp.stack:
                assert base is analysis
            else:
                assert base == {} and values == [None] * len(th._preds)
            old = values[:]
            result = eval_completion(maximal, enabled, moved, values, base)
            assert values is comp.values
            span, prev = result[0].get(("span",)), base.get(("span",))
            if prev is not None and (span is prev or span.added is not None):
                added = [] if span is prev else span.added
                assert not set(added) & set(moved)
                assert {eid for eid, (x, y) in enumerate(
                    zip(span.forest, prev.forest)) if x != y} <= set(
                        moved + added)
            assert sorted(result[1]) == [
                i for i, v in enumerate(values) if v != old[i]]
            self.evals += 1
            return result
        return checked

    def check(self, th):
        solver = self.solver
        svars = th.slot_vars
        at = {lit >> 1: i for i, lit in enumerate(solver.trail)}
        for maximal in (False, True):
            comp = th.completion(maximal)
            live = bytearray(
                (solver.value[2 * v] != FALSE) if maximal
                else (solver.value[2 * v] == TRUE) for v in svars)
            assert comp.enabled == live
            assert len(comp.enabled) == len(svars)
            # Where each generation sits in the trail.
            prefix = [at[svars[slot]] for slot in comp.log]
            prefix.append(len(solver.trail))  # the current generation
            prefixes = [prefix[gen] for gen, _, _ in comp.stack]
            masks = masks_at(th, maximal, prefixes)
            # Each generation's values, undoing change lists downward from
            # the live list.
            values = comp.values[:]
            per_gen = []
            for _, changed, _ in reversed(comp.stack):
                per_gen.append(values[:])
                for i in changed:
                    values[i] = not values[i]
            older = {}
            for (_, _, analysis), mask, values in zip(comp.stack, masks,
                                                      reversed(per_gen)):
                assert values == concrete_values(th, mask, self.memo[th])
                self.stacked += 1
                for key, res in analysis.items():
                    checked = (self.flows if key[0] == "flow" else
                               self.trees if key[0] in ("span", "dij")
                               else None)
                    if checked is None or (id(res), bytes(mask)) in checked:
                        continue
                    want = cold(th, mask, key, self.memo[th])
                    if key[0] == "flow":
                        assert res.value == want.value
                        assert bytes(res.cut_side) == bytes(want.cut_side)
                    else:
                        assert_same_tree(th, res, want)
                    checked[id(res), bytes(mask)] = res
                    if res is older.get(key):
                        self.reused[key[0]] += 1
                    elif key[0] == "dij" and key in older:
                        self.reparented += res[0] is older[key][0]
                older = analysis
            gen = self.rng.randint(0, len(comp.log))
            enabled, moved, _ = th.completion_at(maximal, gen)
            assert enabled == masks_at(th, maximal, [prefix[gen]])[0]
            assert moved == comp.log[:gen]
            assert enabled is not comp.enabled  # a copy, free to change
            assert sorted(moved) == [i for i, b in enumerate(enabled)
                                     if b != maximal]
        self.checks += 1


def solve_checked(inst, seed=0):
    """Solve with the completion checks and every theory reason checked."""
    ths = inst.theories
    checker = Checker(inst.solver, ths, seed)
    check_reasons(inst.solver, ths)
    res = inst.solver.solve()
    return res, checker


def test_generated_instances_through_restarts_and_backjumps(monkeypatch):
    scanned = []  # every forest a theory scanned cold

    def recorded(*args):
        scanned.append(span_scan(*args))
        return scanned[-1]

    monkeypatch.setattr(graphs, "span_scan", recorded)
    docs = ([generators.gen_maze(4, 4, s) for s in range(3)]
            + [generators.gen_maze(5, 5, 7)]
            # The benchmark's maze size.
            + [generators.gen_maze(8, 8, s) for s in range(2)]
            + [generators.gen_flow(5, 5, mode="unit", seed=s, demand=2)
               for s in range(3)]
            + [generators.gen_flow(5, 5, mode="random1to4", seed=s)
               for s in range(2)]
            + [generators.gen_sched(20, 2, 2, s) for s in range(2)]
            + [generators.gen_sched(30, 3, 4, 0)]
            # The sched documents above end at level 0; this one backjumps.
            + [generators.gen_sched(30, 2, 6, 0)])
    restarts = conflicts = checks = evals = stacked = extended = 0
    reparented = 0
    reused, partial, forests = Counter(), Counter(), Counter()
    for i, doc in enumerate(docs):
        inst = build_instance(doc)
        solver = inst.solver
        res, checker = solve_checked(inst, seed=i)
        assert res.status in ("SAT", "UNSAT")
        restarts += solver.restarts
        conflicts += solver.conflicts  # each one backjumps
        checks += checker.checks
        evals += checker.evals
        stacked += checker.stacked
        partial += checker.partial
        reused += checker.reused
        reparented += checker.reparented
        forests += checker.forests
        cold_ids = {id(span) for span in scanned}
        extended += len({id(t) for t in checker.trees.values()
                         if isinstance(t, SpanResult)} - cold_ids)
    assert restarts >= 5 and conflicts >= 1000
    assert checks > 1000 and evals > checks and stacked > checks
    # Every theory class lists its changes, so each scans partially.
    assert partial[GraphTheory] > 0 and partial[ProcessorTheory] > 0
    # Each way of skipping a cold run was taken, and checked.
    assert reused["span"] > 0 and reused["dij"] > 0 and extended > 0
    assert reparented > 0
    assert forests["swap"] > 0 and forests["split"] > 0
    assert forests["added"] > 0 and forests["side"] > 0


def test_stacked_max_flows_match_cold_starts():
    # Each has a free atom, so its edges are not decided toward the
    # maximal completion and the search conflicts.
    docs = [free_atom_flow(12, 12, mode="unit", seed=0, demand=11),
            free_atom_flow(12, 12, mode="random1to4", seed=1, demand=16),
            free_atom_flow(10, 10, mode="random1to4", seed=2, demand=14)]
    restarts = conflicts = flows = kept = 0
    for i, doc in enumerate(docs):
        inst = build_instance(doc)
        res, checker = solve_checked(inst, seed=i)
        assert res.status in ("SAT", "UNSAT")
        restarts += inst.solver.restarts
        conflicts += inst.solver.conflicts
        flows += len(checker.flows)
        kept += checker.reused["flow"]
    # Flows kept from an older generation are checked again on each mask.
    assert restarts >= 2 and conflicts >= 200 and flows >= 2000
    assert kept > 0


def test_carried_analyses_match_cold_runs_on_random_edge_orders():
    # Edges move one at a time in random order, with no solver: dense
    # graphs of weights 1 and 2 give many equal-length paths and equal-weight
    # forests, where a gained edge can take over a parent edge and a lost
    # tight arc leaves another at the same distance. Unit-weight digraphs
    # keep breadth-first trees' distances; digraphs of weights 0 to 2
    # check that a zero weight runs cold.
    reused = Counter()
    reparented = Counter()
    forests = Counter()  # "swap"/"split": the maximal forest lost an edge
    cases = ([(seed, 1, 2) for seed in range(300)]
             + [(seed, 1, 1) for seed in range(300, 500, 2)]
             + [(seed, 0, 2) for seed in range(500, 700, 2)])
    for seed, lo, hi in cases:
        rng = Xorshift64Star(seed)
        directed = seed % 2 == 0
        n, m = rng.randint(2, 8), rng.randint(1, 24)
        th = GraphTheory(directed, n, [
            (rng.randint(0, n - 1), rng.randint(0, n - 1), i,
             rng.randint(lo, hi)) for i in range(m)])
        if directed:
            keys = [("dij", 0), ("dij", 1), ("dij", n - 1)]
            for j, key in enumerate(keys[:2]):
                th.add_atom("distance_leq", (key[1], n - 1, 3), m + j)
            th.add_atom("reach", (n - 1, 0), m + 2)  # a third source if n > 2
        else:
            keys = [("span",)]
            th.add_atom("mst_edge", (0,), m)
            th.add_atom("components_leq", (1,), m + 1)
        order = list(range(m))
        for i in range(m - 1, 0, -1):
            j = rng.randint(0, i)
            order[i], order[j] = order[j], order[i]
        for var in order:
            th.on_assign(2 * var + rng.randint(0, 1))
            for maximal in (False, True):
                comp = th.completion(maximal)
                older = comp.stack[-1][2] if comp.stack else {}
                th._values(maximal)
                analysis = comp.stack[-1][2]
                for key in keys:
                    assert_same_tree(th, analysis[key],
                                     cold(th, comp.enabled, key, {}))
                    tree = analysis[key]
                    reused[key[0]] += tree is older.get(key)
                    if key[0] == "dij" and key in older:
                        reparented[lo, hi] += (tree is not older[key]
                                               and tree[0] is older[key][0])
                    elif maximal and key in older and tree is not older[key]:
                        split = tree.components > older[key].components
                        forests["split" if split else "swap"] += 1
    assert reused["span"] > 0 and reused["dij"] > 0
    assert reparented[1, 1] > 0 and reparented[1, 2] > 0
    assert forests["swap"] > 0 and forests["split"] > 0


def test_bound_probes_add_atoms_to_an_attached_theory():
    # Each probe registers an atom between solves, which drops the stacks,
    # so each extreme's value list starts over with an entry more.
    checks = probes = 0
    for k in range(1000, 1003):
        doc = generators.gen_maze(3, 6, k)
        idx = next(i for i, p in enumerate(doc.preds)
                   if p.kind == "mst_weight_leq")
        search = BoundProbes(doc, idx)
        ths = search.solver._theories
        checker = Checker(search.solver, ths, k)
        check_reasons(search.solver, ths)
        lo, hi = 0, sum(e.weight for e in doc.graphs[1].edges)
        while lo < hi:  # plain bisection: several probes
            mid = (lo + hi) // 2
            checks_before = checker.checks
            if search.solve(mid)[0] == "SAT":
                hi = mid
            else:
                lo = mid + 1
            assert checker.checks > checks_before
            probes += 1
        checks += checker.checks
        assert len(search.theory._preds) > len(search.atoms) > 1
    assert probes >= 9 and checks > 100


def test_random_documents_of_every_kind():
    docs = [rand_doc(kind, seed) for kind in ALL_KINDS for seed in range(40)]
    docs += [rand_mixed_doc(seed) for seed in range(40)]
    checks = 0
    for i, doc in enumerate(docs):
        inst = build_instance(doc)
        if inst.ok:
            _, checker = solve_checked(inst, seed=i)
            checks += checker.checks
    assert checks > 500


def test_toy_instances_with_shared_argument_vars():
    for seed in range(30):
        rng = random.Random(seed)
        solver = Solver(seed=seed)
        vs = [solver.new_var() for _ in range(12)]
        args, atoms = vs[:8], vs[8:]
        samples = [rng.sample(args, 3) for _ in atoms]
        # Each var's slot is the order of its first use.
        th = ToyTheory(dict.fromkeys(v for sample in samples for v in sample))
        for k, (pvar, sample) in enumerate(zip(atoms, samples)):
            kind = ("any", "not_all")[k % 2]
            polarity = POSITIVE if kind == "any" else NEGATIVE
            th.add_pred(pvar, polarity, kind, sample)
        solver.attach_theory(th)
        for _ in range(rng.randint(10, 30)):
            solver.add_clause([mk_lit(rng.choice(vs), rng.random() < 0.5)
                               for _ in range(3)])
        checker = Checker(solver, [th], seed)
        check_reasons(solver, [th])
        solver.solve()
        assert checker.checks > 0
        assert len(th.completion(False).enabled) == len(th.slot_vars)


def test_the_constructor_fixes_the_slots_and_both_masks():
    th = ToyTheory([5, 7])
    assert th.slot_vars == [5, 7]
    assert th.completion(False).enabled == bytearray([0, 0])
    assert th.completion(True).enabled == bytearray([1, 1])
