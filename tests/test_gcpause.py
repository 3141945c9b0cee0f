"""The cyclic collector stays off the solver's objects from GNF text to
verdict: ``gnf.parse``, ``build_instance`` and ``Solver.solve`` run with it
paused, and nothing they make is cyclic garbage."""

import gc
import weakref

import pytest

from monosmt.build import build_instance, run_solve, solve_doc
from monosmt.generators import gen_flow, gen_maze, gen_sched
from monosmt.gnf import GnfError, parse, serialize
from monosmt.minimize import minimize_bound
from monosmt.sat import Solver, mk_lit

from instances import ALL_KINDS, rand_doc, rand_mixed_doc


@pytest.fixture
def collector():
    """Leaves the collector enabled and unfrozen, as the test found it."""
    assert gc.isenabled() and not gc.get_freeze_count()
    yield
    gc.unfreeze()
    gc.enable()


class Node:
    """A cyclic garbage candidate: ``Node().cycle()`` refers to itself."""

    def cycle(self):
        self.me = self
        return self


class Probe:
    """A theory that propagates nothing and records, at each pass, whether
    the collector is enabled; ``fail`` makes its first pass raise. It has
    no S-var."""

    slot_vars = ()

    def __init__(self, fail=False):
        self.fail = fail
        self.enabled = []

    def attach(self, solver):
        pass

    def on_assign(self, lit):
        pass

    def on_backjump(self, level):
        pass

    def agreed_fill(self):
        return None

    def propagate(self):
        self.enabled.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("theory failed")
        return (), None


def probed_solver(theory):
    solver = Solver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([mk_lit(a), mk_lit(b)])
    solver.attach_theory(theory)
    return solver


def test_collector_is_enabled_after_a_solve(collector):
    probe = Probe()
    assert probed_solver(probe).solve().status == "SAT"
    assert probe.enabled and not any(probe.enabled)
    assert gc.isenabled()
    assert solve_doc(gen_maze(4, 4, 0))[0] == "SAT"
    assert gc.isenabled()


def test_collector_is_enabled_after_a_parse_error(collector):
    with pytest.raises(GnfError):
        parse("p gnf 2 1\n1 2\n")
    assert gc.isenabled()


def test_collector_is_enabled_after_a_solve_whose_theory_raises(collector):
    probe = Probe(fail=True)
    with pytest.raises(RuntimeError, match="theory failed"):
        probed_solver(probe).solve()
    assert probe.enabled == [False]
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled_and_its_young_objects_stay(
        collector):
    # Neither collected nor promoted: the caller's cycle stays garbage in
    # the youngest generation, and the caller's live list stays there too.
    text = serialize(gen_maze(4, 4, 0))
    gc.disable()
    kept = []
    dropped = weakref.ref(Node().cycle())
    doc = parse(text)
    probe = Probe()
    solver = build_instance(doc).solver
    assert solver.solve().status == "SAT"
    assert probed_solver(probe).solve().status == "SAT"
    assert not gc.isenabled() and not any(probe.enabled)
    assert dropped() is not None
    young = gc.get_objects(generation=0)
    assert any(obj is kept for obj in young)
    assert any(obj is dropped() for obj in young)


def test_a_frozen_caller_stays_frozen_and_the_call_is_still_paused(
        collector):
    gc.freeze()
    frozen = gc.get_freeze_count()
    probe = Probe()
    doc = parse(serialize(gen_sched(10, 2, 4, 0)))
    assert gc.get_freeze_count() == frozen
    build_instance(doc).solver.solve()
    assert probed_solver(probe).solve().status == "SAT"
    assert probe.enabled and not any(probe.enabled)
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_a_cycle_dropped_before_a_parse_is_collected_when_it_returns(
        collector):
    text = serialize(gen_maze(4, 4, 0))
    dropped = weakref.ref(Node().cycle())
    parse(text)
    assert dropped() is None


def _solve_all(done):
    """Every solve the program offers, each result dropped on return;
    ``done`` counts them."""
    for make in (lambda: gen_maze(4, 4, 0),
                 lambda: gen_flow(4, 4, mode="unit", seed=0, demand=2),
                 lambda: gen_sched(30, 2, 6, 0)):
        solve_doc(make())
        run_solve(make(), witness=True)
        done.extend(("solve_doc", "run_solve"))
    for seed in range(4):
        for kind in ALL_KINDS:
            run_solve(rand_doc(kind, seed), witness=True)
            done.append(kind)
        run_solve(rand_mixed_doc(seed), witness=True)
        done.append("mixed")
    doc = gen_maze(3, 6, 2)
    atom = next(p.var for p in doc.preds if p.kind == "mst_weight_leq")
    assert minimize_bound(doc, atom).feasible
    done.append("minimize")


def test_the_program_makes_no_cyclic_garbage(collector, monkeypatch):
    # With the collector off, only reference counting frees anything: each
    # solver must be freed once its caller drops it, and nothing may be
    # left for a collection to find.
    made = []
    init = Solver.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Solver, "__init__", tracked)
    done = []
    gc.collect()
    gc.disable()
    _solve_all(done)
    alive = sum(ref() is not None for ref in made)
    found = gc.collect()
    gc.enable()
    assert len(made) == len(done)
    assert alive == 0
    assert found == 0
