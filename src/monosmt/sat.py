"""Conflict-driven clause-learning SAT core with theory hooks.

Variables are dense 0-based ints. A literal packs a variable and a sign into one
int: ``2*v`` asserts variable ``v``, ``2*v + 1`` negates it, so negation is
``lit ^ 1``. Assignment values are 1 (true), -1 (false), 0 (unassigned),
kept per literal: the value of variable ``v`` is that of literal ``2*v``.

GNF numbers vars from 1 and writes a negation with a minus. ``internal_lit``
and ``dimacs_lit`` convert one literal between the two forms, and
``Solver.add_clauses`` loads a document's clauses as GNF writes them,
converting each literal by ``internal_lit``'s rule as it reads it.

Attached theories are driven to fixpoint after every unit-propagation fixpoint.
A theory implication is enqueued with a lazy reason, the pair ``(theory,
atom_id)``; the reason clause is only materialized (via the theory's
``explain``) if conflict analysis touches it, and the materialized clause is
cached as the var's reason until a backjump discards it. The solver keeps no
trail positions: the implied literal is read off its var's value, and the
theory explains it at the generation it recorded when it implied it.

Each solve seeds the saved phases once, at the level-0 fixpoint before its
first decision: the S-vars of a theory whose level-0 atoms all hold on one
extreme completion (``agreed_fill``) get that extreme's value, true for the
maximal and false for the minimal, unless another theory's fill differs.
Phase saving then runs as usual.
"""
from __future__ import annotations

import heapq

from .gcpause import paused

TRUE = 1
FALSE = -1
UNDEF = 0

SAT = "SAT"
UNSAT = "UNSAT"


def mk_lit(var: int, negative: bool = False) -> int:
    return var * 2 + (1 if negative else 0)


def internal_lit(dimacs: int) -> int:
    """The solver literal of a GNF literal (vars 1..n, minus for negation).
    0 becomes -1 and a literal beyond n a literal beyond the solver's vars,
    so neither can name a var that exists."""
    return dimacs + dimacs - 2 if dimacs > 0 else -dimacs - dimacs - 1


def dimacs_lit(lit: int) -> int:
    var = (lit >> 1) + 1
    return -var if lit & 1 else var


def neg(lit: int) -> int:
    return lit ^ 1


def luby(y: int, x: int) -> int:
    """x-th term (1-based) of the Luby restart sequence with base factor y."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return y ** seq


class SolveResult:
    __slots__ = ("status", "model")

    def __init__(self, status, model=None):
        self.status = status
        self.model = model


class Solver:
    """CDCL solver: watched literals, first-UIP learning, VSIDS-style
    activities with decay 0.95, phase saving, Luby restarts (base 100) and
    activity-based deletion of learnt clauses.

    ``value[lit]`` is the value of a literal; propagation and theories
    read the same table.
    A clause is the plain list of its literals, watched on its first two.
    Only learnt clauses and theory conflicts, which are learnt once
    analysed, have an activity, held in ``_clause_act`` by ``id(clause)``:
    an entry is added when such a clause is made and deleted when
    ``_reduce_db`` deletes the clause, so every key is the id of a live
    clause.
    The next decision is the unassigned variable of highest activity, lowest
    index on ties. ``_order`` is a lazy heap of ``(-activity, var)`` in which
    every unassigned variable has exactly one entry carrying its current
    activity (``_queued[var]`` is set while such an entry is in the heap);
    entries outdated by a later bump are dropped when popped.

    ``seed`` perturbs initial variable activities for reproducible search
    variation. ``observer``, if given, sees every clause the search makes,
    each as a tuple of literals: ``observer.learnt(lits)`` for a clause
    learnt by conflict analysis and ``observer.lemma(lits)`` for a theory
    conflict or a theory reason that analysis expanded. Observing does not
    change the search.

    ``solve`` runs with the cyclic garbage collector paused (see
    ``gcpause.paused``), so cyclic garbage that an observer makes during a
    solve waits for a full collection.

    The attributes are declared in ``__slots__``: on CPython 3.11 a 30th
    attribute in an instance dict grew it from 296 to 1,584 bytes, and flow
    ran about 2% slower in-process. ``__weakref__`` serves the theories'
    weak proxies. There is no instance dict: a test that spies on one
    solver's method patches the class.
    """

    __slots__ = (
        "observer", "ok", "value", "level", "reason", "phase",
        "activity", "trail", "trail_lim", "qhead", "clauses", "learnts",
        "watches", "_clause_act", "_theories", "_var_theories", "_solving",
        "_order", "_queued", "_seen", "_var_inc", "_cla_inc", "_max_learnts",
        "conflicts", "decisions", "propagations", "theory_implications",
        "restarts", "_seed_state", "__weakref__")

    def __init__(self, seed=0, observer=None):
        self.observer = observer
        self.ok = True

        self.value = []            # lit -> TRUE/FALSE/UNDEF
        self.level = []            # var -> decision level
        self.reason = []           # var -> lit list | (theory, atom_id) | None
        self.phase = []            # var -> saved phase (bool: last value)
        self.activity = []
        self.trail = []
        self.trail_lim = []
        self.qhead = 0

        self.clauses = []
        self.learnts = []
        self.watches = []          # lit -> clauses with lit ^ 1 watched
        self._clause_act = {}      # id(clause) -> activity of a learnt

        self._theories = []
        self._var_theories = []    # var -> tuple of theories watching it
        self._solving = False

        self._order = []           # lazy max-heap of (-activity, var)
        self._queued = bytearray()  # var -> has a current entry in _order
        self._seen = bytearray()
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._max_learnts = 0

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.theory_implications = 0
        self.restarts = 0

        rng_state = (seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
        self._seed_state = rng_state if seed else 0

    # ------------------------------------------------------------------
    # problem construction

    def new_var(self) -> int:
        return self.new_vars(1)

    def new_vars(self, n: int) -> int:
        """Add ``n`` vars; returns the first. Their seed noise is drawn in
        var order, as ``n`` calls of ``new_var`` draw it."""
        v0 = len(self.level)
        self.value += [UNDEF] * (2 * n)
        self.level += [0] * n
        self.reason += [None] * n
        self.phase += [False] * n
        noise = [0.0] * n
        for i in range(n if self._seed_state else 0):
            self._seed_state = (self._seed_state * 1103515245 + 12345) & 0xFFFFFFFF
            noise[i] = (self._seed_state % 1000) * 1e-6
        self.activity += noise
        self.watches += [[] for _ in range(2 * n)]
        self._seen += bytes(n)
        self._var_theories += [()] * n
        self._queued += b"\1" * n
        for v, a in enumerate(noise, v0):
            heapq.heappush(self._order, (-a, v))
        return v0

    def add_clause(self, lits) -> bool:
        """Add a clause over existing vars; returns False on a root conflict.

        Must be called at decision level 0. Tautologies are dropped, duplicate
        literals merged, and literals already false at level 0 removed.
        """
        if self.trail_lim:
            raise ValueError("add_clause requires decision level 0")
        lits = sorted(lits)
        val = self.value
        if lits and (lits[0] < 0 or lits[-1] >= len(val)):
            bad = lits[0] if lits[0] < 0 else lits[-1]
            raise ValueError("unknown variable in clause: lit %d" % bad)
        if not self.ok:
            return False
        out = []
        prev = -1
        for lit in lits:  # sorted: duplicates and x, -x sit side by side
            if lit == prev:
                continue
            if lit == prev ^ 1:
                return True  # tautology
            prev = lit
            v = val[lit]
            if v == TRUE:
                return True
            if v == UNDEF:
                out.append(lit)  # a literal false at level 0 is dropped
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            self.ok = self._bcp() is None
            return self.ok
        self.clauses.append(out)
        self._watch(out)
        return True

    def add_clauses(self, clauses) -> bool:
        """Add each clause of ``clauses``, GNF literal lists (vars 1..n,
        minus for negation), as ``add_clause`` would add its solver
        literals; returns False on a root conflict, and then reads no
        further clause.

        The lists are read, never kept or changed. Two or three unassigned
        literals of different vars, the common clauses, need no
        simplification: each is converted as ``internal_lit`` converts it,
        sorted and watched in a new list of its own. Every other clause is
        checked for a literal of an unknown var, named as written, and
        converted for ``add_clause``.
        """
        if self.trail_lim:
            raise ValueError("add_clauses requires decision level 0")
        if not self.ok:
            return False
        val, watches, db = self.value, self.watches, self.clauses
        top = len(val)
        for clause in clauses:
            n = len(clause)
            # internal_lit, inlined. Sorted, x ^ y > 1 where neighbours x
            # and y differ in var; x >= 0 and the last < top where every
            # literal is in range.
            if n == 2:
                x, y = clause
                x = x + x - 2 if x > 0 else -x - x - 1
                y = y + y - 2 if y > 0 else -y - y - 1
                lits = [x, y] if x < y else [y, x]
                x, y = lits
                simple = (x ^ y > 1 and x >= 0 and y < top
                          and not (val[x] or val[y]))
            elif n == 3:
                x, y, z = clause
                lits = [x + x - 2 if x > 0 else -x - x - 1,
                        y + y - 2 if y > 0 else -y - y - 1,
                        z + z - 2 if z > 0 else -z - z - 1]
                lits.sort()
                x, y, z = lits
                simple = (x ^ y > 1 and y ^ z > 1 and x >= 0 and z < top
                          and not (val[x] or val[y] or val[z]))
            else:
                simple = False
            if simple:
                db.append(lits)
                watches[x ^ 1].append(lits)  # _watch, inlined
                watches[y ^ 1].append(lits)
                continue
            for lit in clause:  # named as written
                if not 0 < abs(lit) <= top >> 1:
                    raise ValueError("unknown variable in clause: lit %d" % lit)
            if not self.add_clause([internal_lit(lit) for lit in clause]):
                return False
        return True

    def attach_theory(self, theory) -> None:
        if self._solving:
            raise ValueError("cannot attach a theory after solving has begun")
        self._theories.append(theory)
        var_theories = self._var_theories
        for v in theory.slot_vars:  # routes its assignments to on_assign
            var_theories[v] += (theory,)
        theory.attach(self)

    # ------------------------------------------------------------------
    # trail operations

    def _enqueue(self, lit, reason) -> None:
        """Assign ``lit`` true. ``_bcp`` repeats these steps inline."""
        v = lit >> 1
        self.value[lit] = TRUE
        self.value[lit ^ 1] = FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        for th in self._var_theories[v]:
            th.on_assign(lit)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        trail = self.trail
        val, phase = self.value, self.phase
        reason = self.reason
        activity, queued, order = self.activity, self._queued, self._order
        for lit in trail[bound:]:
            v = lit >> 1
            phase[v] = not lit & 1
            val[lit] = UNDEF
            val[lit ^ 1] = UNDEF
            reason[v] = None
            if not queued[v]:
                queued[v] = 1
                heapq.heappush(order, (-activity[v], v))
        if len(order) > len(val):  # two literals per var
            self._rebuild_order()  # shed the entries outdated by bumps
        del trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(trail)
        for th in self._theories:
            th.on_backjump(lvl)

    # ------------------------------------------------------------------
    # propagation

    def _watch(self, c) -> None:
        self.watches[c[0] ^ 1].append(c)
        self.watches[c[1] ^ 1].append(c)

    def _bcp(self):
        """Unit propagation to fixpoint; returns a falsified clause or None.

        An implied literal is assigned inline, step for step as ``_enqueue``
        does it.
        """
        trail = self.trail
        watches = self.watches
        val = self.value
        level, reason = self.level, self.reason
        var_theories = self._var_theories
        lvl = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            fl = p ^ 1  # the watched literal that just became false
            ws = watches[p]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                first = c[0]
                if first == fl:
                    first = c[1]
                    c[0] = first
                    c[1] = fl
                if val[first] == TRUE:
                    ws[j] = c
                    j += 1
                    continue
                k = 2
                m = len(c)
                while k < m:
                    lk = c[k]
                    if val[lk] != FALSE:
                        c[k] = c[1]
                        c[1] = lk
                        watches[lk ^ 1].append(c)
                        break
                    k += 1
                else:
                    ws[j] = c
                    j += 1
                    if val[first] == FALSE:
                        del ws[j:i]  # keep the watches not yet visited
                        self.qhead = len(trail)
                        self.propagations += qhead - start
                        return c
                    v = first >> 1
                    val[first] = TRUE
                    val[first ^ 1] = FALSE
                    level[v] = lvl
                    reason[v] = c
                    trail.append(first)
                    ths = var_theories[v]
                    if ths:
                        for th in ths:
                            th.on_assign(first)
            del ws[j:]
        self.qhead = qhead
        self.propagations += qhead - start
        return None

    def _propagate_all(self):
        """BCP and theory propagation to mutual fixpoint; returns None, a
        falsified clause, or a theory conflict as a tuple of lits. The
        theories run in order after each BCP fixpoint; the first that implies
        a literal sends the search back to BCP before the next one runs."""
        while True:
            confl = self._bcp()
            if confl is not None:
                return confl
            for th in self._theories:
                implied, conflict = th.propagate()
                if conflict is not None:
                    conflict = tuple(conflict)
                    if self.observer is not None:
                        self.observer.lemma(conflict)
                    return conflict
                for lit, atom_id in implied:
                    if self.value[lit] != UNDEF:
                        raise RuntimeError(
                            "theory implied an assigned literal")
                    self._enqueue(lit, (th, atom_id))
                    self.theory_implications += 1
                if implied:
                    break
            else:
                return None

    def _reason_clause(self, var):
        r = self.reason[var]
        if type(r) is tuple:  # a clause reason is a list, never a tuple
            lit = 2 * var + (self.value[2 * var] != TRUE)
            lits = list(r[0].explain(r[1], lit))
            if lits[0] != lit:
                raise RuntimeError(
                    "explain must put the implied literal first")
            if self.observer is not None:
                self.observer.lemma(tuple(lits))
            r = self.reason[var] = lits
        return r

    # ------------------------------------------------------------------
    # conflict analysis

    def _bump_var(self, v):
        """Raise the activity of ``v``, an assigned var: ``_analyze`` bumps
        only the vars of false literals. Its heap entry is outdated now, so
        it is queued again when unassigned."""
        act = self.activity[v] + self._var_inc
        self.activity[v] = act
        if act > 1e100:
            for i in range(len(self.activity)):
                self.activity[i] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_order()
        else:
            self._queued[v] = 0

    def _rebuild_order(self):
        """Rebuild ``_order`` with one entry per unassigned var."""
        activity, val = self.activity, self.value
        self._order = [(-activity[v], v) for v in range(len(activity))
                       if val[2 * v] == UNDEF]
        heapq.heapify(self._order)
        self._queued = bytearray(a == UNDEF for a in val[::2])

    def _bump_clause(self, c):
        act = self._clause_act
        a = act[id(c)] = act[id(c)] + self._cla_inc
        if a > 1e20:
            for lc in self.learnts:
                act[id(lc)] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, confl):
        """First-UIP analysis. Returns (learnt_lits, backjump_level)."""
        seen = self._seen
        clause_act = self._clause_act
        learnt = []
        to_clear = []
        path = 0
        p = -1
        idx = len(self.trail) - 1
        cur = len(self.trail_lim)
        while True:
            if id(confl) in clause_act:
                self._bump_clause(confl)
            for k in range(0 if p < 0 else 1, len(confl)):
                q = confl[k]
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    self._bump_var(v)
                    if self.level[v] >= cur:
                        path += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            v = p >> 1
            seen[v] = 0
            path -= 1
            if path == 0:
                break
            confl = self._reason_clause(v)
        learnt.insert(0, neg(p))
        if len(learnt) == 1:
            bj = 0
        else:
            mi = max(range(1, len(learnt)), key=lambda i: self.level[learnt[i] >> 1])
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bj = self.level[learnt[1] >> 1]
        for v in to_clear:
            seen[v] = 0
        return learnt, bj

    # ------------------------------------------------------------------
    # decisions

    def _decide(self, assumptions):
        for a in assumptions:
            v = self.value[a]
            if v == FALSE:
                return None, True  # assumption contradicted
            if v == UNDEF:
                return a, False
        order, activity, queued = self._order, self.activity, self._queued
        while order:
            negact, v = heapq.heappop(order)
            if -negact != activity[v]:
                continue  # outdated by a later bump
            queued[v] = 0
            if self.value[2 * v] == UNDEF:
                return mk_lit(v, not self.phase[v]), False
        return None, False  # nothing left (callers guard on trail size)

    def _seed_phases(self):
        """Point the saved phase of each theory's S-vars at the extreme all
        its atoms hold on (``agreed_fill``); a var that two theories would
        point different ways keeps its phase."""
        fills = {}
        for th in self._theories:
            fill = th.agreed_fill()
            if fill is not None:
                for v in th.slot_vars:
                    fills[v] = fill if fills.get(v, fill) == fill else None
        phase = self.phase
        for v, fill in fills.items():
            if fill is not None:
                phase[v] = fill

    # ------------------------------------------------------------------
    # learnt-clause management

    def _keep_theory_clause(self, lits):
        """Learn a theory conflict clause once the clause learnt from it is
        asserted. Its literals above the backjump level are no longer false;
        a lone one is the asserting literal, already true."""
        val = self.value
        nonfalse = [l for l in lits if val[l] != FALSE]
        if not nonfalse:
            raise RuntimeError("theory conflict clause is still false")
        if len(nonfalse) >= 2:
            lits.sort(key=lambda l: val[l] == FALSE)
        else:
            lits.remove(nonfalse[0])
            lits.sort(key=lambda l: -self.level[l >> 1])
            lits.insert(0, nonfalse[0])
        self.learnts.append(lits)
        if len(lits) >= 2:
            self._watch(lits)

    def _reduce_db(self):
        """Delete the learnt clauses in the less active half that are longer
        than two and not a reason, and drop their watches (a clause is
        watched on its first two literals); the other watches keep their
        order."""
        act = self._clause_act
        self.learnts.sort(key=lambda c: act[id(c)])
        keep_from = len(self.learnts) // 2
        kept = []
        dead = []
        for i, c in enumerate(self.learnts):
            locked = self.reason[c[0] >> 1] is c and self.value[c[0]] == TRUE
            if i < keep_from and len(c) > 2 and not locked:
                dead.append(c)
            else:
                kept.append(c)
        self.learnts = kept
        dead_ids = {id(c) for c in dead}  # dead holds each id until done
        for lit in {c[k] ^ 1 for c in dead for k in (0, 1)}:
            ws = self.watches[lit]
            ws[:] = [c for c in ws if id(c) not in dead_ids]
        for i in dead_ids:
            del act[i]
        self._max_learnts = int(self._max_learnts * 1.1) + 1

    # ------------------------------------------------------------------
    # main search

    @paused
    def solve(self, assumptions=()) -> SolveResult:
        if not self.ok:
            return SolveResult(UNSAT)
        self._solving = True
        assumptions = list(assumptions)
        for a in assumptions:
            if not 0 <= a < len(self.value):
                raise ValueError("unknown variable in assumption")
        nvars = len(self.level)
        self._max_learnts = max(self._max_learnts,
                                max(len(self.clauses) // 3, 100))
        budget = 100 * luby(2, 1)
        since_restart = 0
        seeded = False
        while True:
            confl = self._propagate_all()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                theory_clause = None
                if type(confl) is tuple:
                    theory_clause = confl = list(confl)
                top = 0
                for l in confl:
                    lv = self.level[l >> 1]
                    if lv > top:
                        top = lv
                # A theory conflict may lie wholly below the current level.
                self._cancel_until(top)
                if top == 0:
                    self.ok = False
                    return SolveResult(UNSAT)
                if theory_clause is not None:  # analysis bumps it, as a learnt
                    self._clause_act[id(theory_clause)] = 0.0
                learnt, bj = self._analyze(confl)
                if self.observer is not None:
                    self.observer.learnt(tuple(learnt))
                self._cancel_until(bj)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.learnts.append(learnt)
                    self._clause_act[id(learnt)] = 0.0
                    self._watch(learnt)
                    self._bump_clause(learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                if len(self.learnts) >= self._max_learnts + len(self.trail):
                    self._reduce_db()
                if since_restart >= budget:
                    self.restarts += 1
                    since_restart = 0
                    budget = 100 * luby(2, self.restarts + 1)
                    self._cancel_until(0)
                if theory_clause is not None:
                    self._keep_theory_clause(theory_clause)
            else:
                if not seeded:  # the level-0 fixpoint, before any decision
                    seeded = True
                    self._seed_phases()
                lit, failed = self._decide(assumptions)
                if failed:
                    self._cancel_until(0)
                    return SolveResult(UNSAT)
                if lit is None:
                    # No decision left: every var is assigned and every
                    # assumption was checked satisfied along the way.
                    if len(self.trail) != nvars:
                        raise RuntimeError("model has unassigned vars")
                    model = [x == TRUE for x in self.value[::2]]
                    self._cancel_until(0)
                    return SolveResult(SAT, model)
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
