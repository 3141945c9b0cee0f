"""The generic propagation driver, exercised through a tiny toy theory."""

import copy
import itertools
import random

import pytest

from monosmt.build import build_instance, solve_doc
from monosmt.generators import gen_maze
from monosmt.graphs import GraphTheory
from monosmt.oracle import brute_force_solve, check_lemma, check_model
from monosmt.scheduling import ProcessorTheory
from monosmt.sat import FALSE, TRUE, Solver, dimacs_lit, internal_lit, mk_lit
from monosmt.theory import MonotonicTheory, NEGATIVE, POSITIVE

from instances import (GRAPH_KINDS, Recorder, check_reasons, rand_doc,
                       rand_mixed_doc)
from test_sat_core import run_optimized


class ToyTheory(MonotonicTheory):
    """Two predicate kinds over explicit argument variables: ``any`` is the
    disjunction (positive monotone), ``not_all`` the negated conjunction
    (negative monotone). The constructor takes the argument vars of every
    predicate, each once, in mask slot order."""

    def add_pred(self, pvar, polarity, kind, arg_vars):
        return self.register_predicate(
            pvar, polarity, kind, tuple(self._slots[v] for v in arg_vars))

    def evaluate(self, pred, enabled, analysis):
        bits = [enabled[slot] for slot in pred.payload]
        if pred.kind == "any":
            return any(bits)
        assert pred.kind == "not_all"
        return not all(bits)


def toy(kind, polarity, nargs=2, **kw):
    solver = Solver(**kw)
    args = [solver.new_var() for _ in range(nargs)]
    p = solver.new_var()
    th = ToyTheory(args)
    th.add_pred(p, polarity, kind, args)
    solver.attach_theory(th)
    return solver, th, args, p


def test_pvar_reused_as_svar_rejected():
    th = ToyTheory([0])
    with pytest.raises(ValueError):
        th.register_predicate(0, POSITIVE, "any", (1,))


def test_svar_reused_as_pvar_rejected():
    th = ToyTheory([])
    th.register_predicate(0, POSITIVE, "any", (1,))
    with pytest.raises(ValueError):
        th.register_predicate(0, POSITIVE, "any", (2,))


# A repeated argument var, next to its first use or not, would share a
# slot, which a graph's edge id or a processor's task id cannot.
@pytest.mark.parametrize("make,var", [
    (lambda: GraphTheory(True, 2, [(0, 1, 0, 1), (1, 0, 0, 1)]), 0),
    (lambda: GraphTheory(False, 2, [(0, 1, 4, 1), (1, 0, 1, 1),
                                    (1, 0, 4, 1)]), 4),
    (lambda: ProcessorTheory([(5, 0, 1, 1), (6, 0, 1, 1),
                              (5, 0, 1, 1)]), 5),
    (lambda: ToyTheory([3, 7, 7]), 7),
], ids=["graph", "graph-apart", "processor", "toy"])
def test_a_repeated_argument_var_is_rejected(make, var):
    with pytest.raises(ValueError, match="^argument var %d used twice$" % var):
        make()


def test_positive_predicate_propagates_both_ways():
    solver, th, (a, b), p = toy("any", POSITIVE)
    solver.add_clause([mk_lit(a)])
    res = solver.solve()
    assert res.status == "SAT" and res.model[p]

    solver, th, (a, b), p = toy("any", POSITIVE)
    solver.add_clause([mk_lit(a, True)])
    solver.add_clause([mk_lit(b, True)])
    res = solver.solve()
    assert res.status == "SAT" and not res.model[p]


def test_negative_predicate_swaps_completions():
    # Everything enabled: not_all is false on the minimal completion already,
    # so the atom is forced false.
    solver, th, (a, b), p = toy("not_all", NEGATIVE)
    solver.add_clause([mk_lit(a)])
    solver.add_clause([mk_lit(b)])
    res = solver.solve()
    assert res.status == "SAT" and not res.model[p]

    # One argument disabled: true on the maximal completion, atom forced true.
    solver, th, (a, b), p = toy("not_all", NEGATIVE)
    solver.add_clause([mk_lit(a, True)])
    res = solver.solve()
    assert res.status == "SAT" and res.model[p]


def test_fallback_clause_negative_predicate():
    recorder = Recorder()
    solver, th, (a, b), p = toy("not_all", NEGATIVE, observer=recorder)
    solver.add_clause([mk_lit(a)])
    solver.add_clause([mk_lit(b)])
    solver.add_clause([mk_lit(p)])
    assert solver.solve().status == "UNSAT"
    want = {mk_lit(p, True), mk_lit(a, True), mk_lit(b, True)}
    assert any(set(c) == want for c in recorder.lemmas)


def test_fallback_clause_positive_predicate():
    recorder = Recorder()
    solver, th, (a, b), p = toy("any", POSITIVE, observer=recorder)
    solver.add_clause([mk_lit(a)])
    solver.add_clause([mk_lit(p, True)])
    assert solver.solve().status == "UNSAT"
    want = {mk_lit(p), mk_lit(a, True)}
    assert any(set(c) == want for c in recorder.lemmas)


def test_propagate_is_idempotent_on_unchanged_trail():
    solver, th, (a, b), p = toy("any", POSITIVE)
    solver.add_clause([mk_lit(a)])
    implied, conflict = th.propagate()
    assert conflict is None
    assert [lit for lit, _ in implied] == [mk_lit(p)]
    again, conflict = th.propagate()
    assert again == () and conflict is None


def test_backjump_to_a_fixpoint_leaves_no_atom_to_scan(monkeypatch):
    # The level a backjump restores ended at a theory fixpoint, and its
    # evaluations are on top of the stacks again: nothing is rescanned, not
    # after an implication and not after a conflict, until a value moves.
    solver, th, (a, b), p = toy("any", POSITIVE)
    assert th.propagate() == ((), None)  # the first scan, of every atom
    scans = []
    scan = th._scan
    monkeypatch.setattr(th, "_scan",
                        lambda preds: scans.append(len(preds)) or scan(preds))
    for atom_lit in (None, mk_lit(p, True)):
        solver.trail_lim.append(len(solver.trail))
        if atom_lit is not None:
            solver._enqueue(atom_lit, None)
        solver._enqueue(mk_lit(a), None)  # the minimal completion gains a
        implied, conflict = th.propagate()
        assert (conflict is None) == (atom_lit is None)
        assert [gen for gen, _, _ in th.completion(False).stack] == [0, 1]
        solver._cancel_until(0)
        assert [gen for gen, _, _ in th.completion(False).stack] == [0]
        del scans[:]
        assert th.propagate() == ((), None) and scans == []
    solver.trail_lim.append(len(solver.trail))
    solver._enqueue(mk_lit(b), None)
    assert th.propagate() == (((mk_lit(p), 0),), None) and scans == [1]


def test_two_predicates_share_argument_vars():
    solver = Solver()
    a, b, p, q = (solver.new_var() for _ in range(4))
    th = ToyTheory([a, b])
    th.add_pred(p, POSITIVE, "any", (a, b))
    th.add_pred(q, NEGATIVE, "not_all", (a, b))
    solver.attach_theory(th)
    solver.add_clause([mk_lit(a)])
    solver.add_clause([mk_lit(b)])
    res = solver.solve()
    assert res.status == "SAT"
    assert res.model[p] and not res.model[q]


def brute_status(nvars, clauses, preds):
    """Tiny independent enumeration: preds are (pvar, fn(bits) -> bool)."""
    for bits in itertools.product((False, True), repeat=nvars):
        if any(not any(bits[l >> 1] != bool(l & 1) for l in cl)
               for cl in clauses):
            continue
        if all(bits[pvar] == fn(bits) for pvar, fn in preds):
            return "SAT"
    return "UNSAT"


def test_random_toy_instances_with_validated_reasons():
    import random
    for seed in range(40):
        rng = random.Random(seed)
        solver = Solver()
        vs = [solver.new_var() for _ in range(5)]
        a, b, c, p, q = vs
        th = ToyTheory([a, b, c])
        th.add_pred(p, POSITIVE, "any", (a, b, c))
        th.add_pred(q, NEGATIVE, "not_all", (a, c))
        solver.attach_theory(th)
        check_reasons(solver, [th])
        clauses = []
        for _ in range(rng.randint(1, 5)):
            cl = [mk_lit(rng.choice(vs), rng.random() < 0.5)
                  for _ in range(rng.randint(1, 3))]
            clauses.append(cl)
            solver.add_clause(cl)
        want = brute_status(5, clauses, [
            (p, lambda bits: bits[a] or bits[b] or bits[c]),
            (q, lambda bits: not (bits[a] and bits[c])),
        ])
        assert solver.solve().status == want, "seed %d" % seed


def test_attach_replays_assignments_made_before_it():
    # Level-0 units on edge, task and atom vars go in before the theories
    # are attached, so the theories learn of them only from the trail.
    for seed in range(40):
        doc = rand_mixed_doc(seed)
        rng = random.Random(seed)
        g, proc = doc.graphs[1], doc.procs[1]
        svars = [e.var for e in g.edges] + [t.var for t in proc.tasks]
        for v in rng.sample(svars, 2):
            doc.clauses.append([rng.choice((v, -v))])
        solver = Solver()
        for _ in range(doc.nvars):
            solver.new_var()
        units = [c for c in doc.clauses if len(c) == 1]
        ok = all(solver.add_clause([internal_lit(c[0])]) for c in units)
        graph = GraphTheory(g.directed, g.n, [
            (e.u, e.v, e.var - 1, e.weight) for e in g.edges])
        cpu = ProcessorTheory([(t.var - 1, t.arrival, t.duration,
                                   t.deadline) for t in proc.tasks])
        for pred in doc.preds:
            th = cpu if pred.kind == "schedulable" else graph
            args = ((pred.args[0] - 1,) if pred.kind == "mst_edge"
                    else pred.args)
            th.add_atom(pred.kind, args, pred.var - 1)
        solver.attach_theory(graph)
        solver.attach_theory(cpu)
        for th, decls in ((graph, g.edges), (cpu, proc.tasks)):
            lits = [mk_lit(d.var - 1) for d in decls]
            assert th.completion(False).enabled == bytearray(
                solver.value[l] == TRUE for l in lits)
            assert th.completion(True).enabled == bytearray(
                solver.value[l] != FALSE for l in lits)
        ok = ok and all(solver.add_clause([internal_lit(l) for l in c])
                        for c in doc.clauses if len(c) > 1)
        status = solver.solve().status if ok else "UNSAT"
        assert status == brute_force_solve(doc)[0], "seed %d" % seed


def test_atom_registered_after_a_solve_is_scanned_and_explained():
    # Each document is solved without its last atom, whose var is then a
    # plain var. The atom is registered on the attached graph and solved for
    # true and then false, each under an assumption. Atom vars are not
    # watched; the next scan reads the late atom's value.
    late_lemmas = 0
    for kind in GRAPH_KINDS:
        for seed in range(30):
            doc = rand_doc(kind, seed)
            late = doc.preds[-1]
            early = copy.copy(doc)
            early.preds = doc.preds[:-1]
            recorder = Recorder()
            inst = build_instance(early, observer=recorder)
            solver, (th,) = inst.solver, inst.theories
            check_reasons(solver, [th], recorder)
            first = solver.solve().status if inst.ok else "UNSAT"
            assert first == brute_force_solve(early)[0]
            args = (late.args[0] - 1,) if kind == "mst_edge" else late.args
            th.add_atom(kind, args, late.var - 1)
            assert solver._var_theories[late.var - 1] == ()
            for want in (True, False):
                asked = copy.copy(doc)
                asked.clauses = doc.clauses + [[late.var if want
                                                else -late.var]]
                res = solver.solve([mk_lit(late.var - 1, not want)])
                where = "%s seed %d, atom %s" % (kind, seed, want)
                assert res.status == brute_force_solve(asked)[0], where
                if res.status == "SAT":
                    assert check_model(asked, [None] + res.model) is None
            check = check_lemma(doc)
            for lits in recorder.lemmas:
                assert check([dimacs_lit(lit) for lit in lits]) is None, (
                    kind, seed, lits)
            late_lemmas += sum(lits[0] >> 1 == late.var - 1
                               for lits in recorder.lemmas)
    assert late_lemmas >= 50


def test_explanations_reuse_only_the_newest_stacked_evaluation(
        monkeypatch):
    # A witness reads the analyses of the newest stacked evaluation when its
    # trail prefix is of that generation, and a fresh dict otherwise, so an
    # older prefix runs cold. Either way the witness equals one read off a
    # fresh dict, but for a true max flow's: a warm flow may route apart.
    seen = {True: 0, False: 0}  # witnesses by whether they read the newest
    labelled = []  # forest masks whose labels the witness running read
    carried = []  # each stacked forest whose labels a witness read
    witness_slots, labels = GraphTheory.witness_slots, GraphTheory._labels

    def checked(th, pred, positive, enabled, moved, analysis):
        comp = th.completion(positive != (pred.polarity == POSITIVE))
        newest = len(moved) == comp.stack[-1][0]
        if newest:
            assert analysis is comp.stack[-1][2]
        else:
            assert analysis == {}
            assert all(analysis is not stacked for _, _, stacked
                       in comp.stack)
        seen[newest] += 1
        span = analysis.get(("span",))
        labelled.clear()
        got = witness_slots(th, pred, positive, enabled, moved, analysis)
        if span is not None and labelled:  # labels of that forest
            carried.append(span)
        if not (positive and pred.kind == "maxflow_geq"):
            assert got == witness_slots(th, pred, positive, enabled, moved,
                                        {})
        return got

    def read(th, forest):
        labelled.append(forest)
        return labels(th, forest)

    monkeypatch.setattr(GraphTheory, "witness_slots", checked)
    monkeypatch.setattr(GraphTheory, "_labels", read)
    assert solve_doc(gen_maze(8, 8, 1000))[0] == "SAT"
    for kind in GRAPH_KINDS:
        for s in range(60):
            solve_doc(rand_doc(kind, s))
    assert seen[True] > seen[False] > 0
    assert any(span.parent is None for span in carried)


class ExpansionCheck:
    """Records ``explain(atom_id, lit)`` for each atom a theory implies,
    before the solver enqueues it, and checks every expanded reason
    against it. A lemma whose first literal is true on the trail is a
    reason that analysis expanded; a theory conflict has every literal
    false. ``later`` counts the expansions made once the explaining
    extreme's log had grown past the implication's generation."""

    def __init__(self):
        self.solver = None
        self.made = {}  # implied lit -> (clause, extreme, its log length)
        self.compared = self.later = 0

    def wrap(self, th):
        propagate = th.propagate

        def recorded():
            implied, conflict = propagate()
            for lit, atom_id in implied if conflict is None else ():
                pred = th.atom(atom_id)
                use_true = (not (lit & 1)) == (pred.polarity == POSITIVE)
                comp = th.completion(not use_true)
                self.made[lit] = (th.explain(atom_id, lit), comp,
                                  len(comp.log))
            return implied, conflict
        th.propagate = recorded

    def learnt(self, lits):
        pass

    def lemma(self, lits):
        if self.solver.value[lits[0]] != TRUE:
            return
        clause, comp, gen = self.made[lits[0]]
        assert list(lits) == clause
        self.compared += 1
        self.later += len(comp.log) > gen


def test_an_expanded_reason_is_the_clause_explained_at_its_implication():
    check = ExpansionCheck()
    for seed in range(1000, 1006):
        inst = build_instance(gen_maze(8, 8, seed), observer=check)
        check.solver = inst.solver
        for th in inst.theories:
            check.wrap(th)
        assert inst.solver.solve().status == "SAT"
    assert check.compared >= 150 and check.later >= 100


_WRONG_ATOM = """
from monosmt.graphs import GraphTheory
from monosmt.sat import Solver, mk_lit

print(__debug__)
solver = Solver()
edge, p, q = solver.new_var(), solver.new_var(), solver.new_var()
th = GraphTheory(True, 2, [(0, 1, edge, 1)])
th.add_atom("reach", (0, 1), p)
th.add_atom("reach", (1, 0), q)
solver.add_clause([mk_lit(edge)])
solver.attach_theory(th)
try:
    print("returned", th.explain(0, mk_lit(q)))  # atom 0 is p, not q
except RuntimeError as exc:
    print("raised", exc)
"""


def test_explain_guard_survives_optimize_flag():
    assert run_optimized(_WRONG_ATOM) == [
        "False",
        "raised explain asked for another atom's literal",
    ]
