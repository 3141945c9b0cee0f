"""Trail-restored completions checked against masks rebuilt from the solver.

After every ``propagate`` call, each theory's two completion masks must equal
the masks rebuilt from ``solver.value``, and every evaluation still on a
completion's stack must match ``evaluate``, the theories' one evaluation
hook, on the mask rebuilt from the trail prefix it belongs to. So must every max flow in a stacked analysis,
which was warm-started from an older one: its value and residual cut side
must be those of a cold ``edmonds_karp`` on that mask. The checks run
through restarts and backjumps.
"""

import random

from monosmt import generators
from monosmt.build import build_instance
from monosmt.graphs import GraphTheory, edmonds_karp
from monosmt.sat import FALSE, TRUE, Solver, mk_lit
from monosmt.scheduling import ProcessorTheory
from monosmt.theory import NEGATIVE, POSITIVE

from instances import ALL_KINDS, check_reasons, rand_doc, rand_mixed_doc
from test_theory_driver import ToyTheory


def slot_vars(th):
    if isinstance(th, GraphTheory):
        return [e.var for e in th.edges]
    if isinstance(th, ProcessorTheory):
        return [t.var for t in th.tasks]
    return th.arg_vars


def cold_flow(th, enabled, key, memo):
    memo_key = (bytes(enabled), key)
    hit = memo.get(memo_key)
    if hit is None:
        hit = memo[memo_key] = edmonds_karp(th._flow_adj, th._weights,
                                            th.n, enabled, *key[1:])
    return hit


def concrete_values(th, enabled, memo):
    key = bytes(enabled)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = [th.evaluate(th.atom(i), enabled, {})
                           for i in range(len(th._preds))]
    return hit


def masks_at(th, maximal, prefixes):
    """One extreme rebuilt from the first ``p`` trail literals, for each
    ``p`` of the ascending ``prefixes``."""
    svars = slot_vars(th)
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
        self.stacked = 0
        self.flows = set()  # stacked max flows checked so far
        for th in theories:
            th.propagate = self._wrap(th, th.propagate)

    def _wrap(self, th, propagate):
        def checked():
            result = propagate()
            self.check(th)
            return result
        return checked

    def check(self, th):
        solver = self.solver
        svars = slot_vars(th)
        for maximal in (False, True):
            comp = th.completion(maximal)
            live = bytearray(
                (solver.value[2 * v] != FALSE) if maximal
                else (solver.value[2 * v] == TRUE) for v in svars)
            assert comp.enabled == live
            assert len(comp.enabled) == len(svars)
            # Where each stacked generation sits in the trail.
            prefixes = [solver.pos[svars[comp.log[gen]]]
                        if gen < len(comp.log) else len(solver.trail)
                        for gen, _, _ in comp.stack]
            masks = masks_at(th, maximal, prefixes)
            for (_, values, analysis), mask in zip(comp.stack, masks):
                assert values == concrete_values(th, mask, self.memo[th])
                self.stacked += 1
                for key, res in analysis.items():
                    if key[0] == "flow" and res not in self.flows:
                        cold = cold_flow(th, mask, key, self.memo[th])
                        assert res.value == cold.value
                        assert bytes(res.cut_side) == bytes(cold.cut_side)
                        self.flows.add(res)
            prefix = self.rng.randint(0, len(solver.trail))
            enabled, moved, _ = th.completion_before(maximal, prefix)
            assert enabled == masks_at(th, maximal, [prefix])[0]
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


def test_generated_instances_through_restarts_and_backjumps():
    docs = ([generators.gen_maze(4, 4, s) for s in range(3)]
            + [generators.gen_maze(5, 5, 7)]
            + [generators.gen_flow(5, 5, mode="unit", seed=s, demand=2)
               for s in range(3)]
            + [generators.gen_flow(5, 5, mode="random1to4", seed=s)
               for s in range(2)]
            + [generators.gen_sched(20, 2, 2, s) for s in range(2)]
            + [generators.gen_sched(30, 3, 4, 0)])
    restarts = conflicts = checks = stacked = 0
    for i, doc in enumerate(docs):
        inst = build_instance(doc)
        solver = inst.solver
        res, checker = solve_checked(inst, seed=i)
        assert res.status in ("SAT", "UNSAT")
        restarts += solver.restarts
        conflicts += solver.conflicts  # each one backjumps
        checks += checker.checks
        stacked += checker.stacked
    assert restarts >= 5 and conflicts >= 1000
    assert checks > 1000 and stacked > checks


def test_stacked_max_flows_match_cold_starts():
    docs = [generators.gen_flow(12, 12, mode="unit", seed=0, demand=11),
            generators.gen_flow(12, 12, mode="random1to4", seed=1,
                                demand=16)]
    restarts = conflicts = flows = 0
    for i, doc in enumerate(docs):
        inst = build_instance(doc)
        res, checker = solve_checked(inst, seed=i)
        assert res.status in ("SAT", "UNSAT")
        restarts += inst.solver.restarts
        conflicts += inst.solver.conflicts
        flows += len(checker.flows)
    assert restarts >= 2 and conflicts >= 200 and flows >= 2000


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
        th = ToyTheory()
        for k, pvar in enumerate(atoms):
            kind = ("any", "not_all")[k % 2]
            polarity = POSITIVE if kind == "any" else NEGATIVE
            th.add_pred(pvar, polarity, kind, rng.sample(args, 3))
        solver.attach_theory(th)
        for _ in range(rng.randint(10, 30)):
            solver.add_clause([mk_lit(rng.choice(vs), rng.random() < 0.5)
                               for _ in range(3)])
        checker = Checker(solver, [th], seed)
        check_reasons(solver, [th])
        solver.solve()
        assert checker.checks > 0
        assert len(th.completion(False).enabled) == len(th.arg_vars)


def test_registering_an_svar_twice_keeps_one_slot():
    th = ToyTheory()
    assert th.add_s_var(5) == th.add_s_var(5) == 0
    assert th.add_s_var(7) == 1
    assert len(th.completion(False).enabled) == 2
    assert th.completion(True).enabled == bytearray([1, 1])
