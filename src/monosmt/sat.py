"""Conflict-driven clause-learning SAT core with theory hooks.

Variables are dense 0-based ints. A literal packs a variable and a sign into one
int: ``2*v`` asserts variable ``v``, ``2*v + 1`` negates it, so negation is
``lit ^ 1``. Assignment values are 1 (true), -1 (false), 0 (unassigned).

Attached theories are driven to fixpoint after every unit-propagation fixpoint.
A theory implication is enqueued with an opaque lazy reason; the reason clause
is only materialized (via the theory's ``explain``) if conflict analysis
touches it, and the materialized clause is cached on the trail slot until a
backjump discards it.
"""
from __future__ import annotations

import heapq

TRUE = 1
FALSE = -1
UNDEF = 0

SAT = "SAT"
UNSAT = "UNSAT"


def mk_lit(var: int, negative: bool = False) -> int:
    return var * 2 + (1 if negative else 0)


def neg(lit: int) -> int:
    return lit ^ 1


def lit_var(lit: int) -> int:
    return lit >> 1


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


class Clause:
    __slots__ = ("lits", "learnt", "activity", "deleted")

    def __init__(self, lits, learnt=False):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.deleted = False

    def __repr__(self):
        return "Clause(%r%s)" % (self.lits, ", learnt" if self.learnt else "")


class LazyReason:
    """Opaque reason tag for a theory implication, expanded on demand."""

    __slots__ = ("theory", "atom_id")

    def __init__(self, theory, atom_id):
        self.theory = theory
        self.atom_id = atom_id


class SolveResult:
    __slots__ = ("status", "model")

    def __init__(self, status, model=None):
        self.status = status
        self.model = model

    def __repr__(self):
        return "SolveResult(%s)" % self.status


class Solver:
    """CDCL solver: watched literals, first-UIP learning, VSIDS-style
    activities with decay 0.95, phase saving, Luby restarts (base 100) and
    activity-based deletion of learnt clauses.

    ``seed`` perturbs initial variable activities for reproducible search
    variation. ``log_clauses`` records learnt clauses and every
    theory-produced clause. ``validate_reasons`` materializes each theory
    reason eagerly and asserts it is asserting at the moment of implication
    (test instrumentation).
    """

    def __init__(self, seed=0, log_clauses=False, validate_reasons=False):
        self.log_clauses = log_clauses
        self.validate_reasons = validate_reasons
        self.ok = True

        self.assigns = []          # var -> TRUE/FALSE/UNDEF
        self.level = []            # var -> decision level
        self.reason = []           # var -> Clause | LazyReason | None
        self.pos = []              # var -> trail index
        self.phase = []            # var -> saved phase (bool: last value)
        self.activity = []
        self.trail = []
        self.trail_lim = []
        self.qhead = 0

        self.clauses = []
        self.learnts = []
        self.watches = []          # lit -> list[Clause]
        self._pending = []         # clauses to attach at next propagation

        self._theories = []
        self._var_theories = {}    # var -> list of theories watching it
        self._solving = False

        self._order = []           # lazy max-heap of (-activity, var)
        self._seen = bytearray()
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._max_learnts = 0

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.theory_implications = 0
        self.restarts = 0
        self.learned_log = [] if log_clauses else None
        self.theory_clause_log = [] if log_clauses else None

        rng_state = (seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
        self._seed_state = rng_state if seed else 0

    # ------------------------------------------------------------------
    # problem construction

    def new_var(self) -> int:
        v = len(self.assigns)
        self.assigns.append(UNDEF)
        self.level.append(0)
        self.reason.append(None)
        self.pos.append(-1)
        self.phase.append(False)
        noise = 0.0
        if self._seed_state:
            self._seed_state = (self._seed_state * 1103515245 + 12345) & 0xFFFFFFFF
            noise = (self._seed_state % 1000) * 1e-6
        self.activity.append(noise)
        self.watches.append([])
        self.watches.append([])
        self._seen.append(0)
        heapq.heappush(self._order, (-self.activity[v], v))
        return v

    def add_clause(self, lits) -> bool:
        """Add a clause over existing vars; returns False on a root conflict.

        Must be called at decision level 0. Tautologies are dropped, duplicate
        literals merged, and literals already false at level 0 removed.
        """
        if self.trail_lim:
            raise ValueError("add_clause requires decision level 0")
        for lit in lits:
            if not 0 <= lit_var(lit) < len(self.assigns):
                raise ValueError("unknown variable in clause: lit %d" % lit)
        if not self.ok:
            return False
        out = []
        seen = set()
        for lit in sorted(lits):
            if lit in seen:
                continue
            if neg(lit) in seen:
                return True  # tautology
            v = self.lit_value(lit)
            if v == TRUE:
                return True
            if v == FALSE:
                continue  # false at level 0, drop
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            if self._bcp() is not None:
                self.ok = False
                return False
            return True
        c = Clause(out)
        self.clauses.append(c)
        self._watch(c)
        return True

    def attach_theory(self, theory) -> int:
        if self._solving:
            raise ValueError("cannot attach a theory after solving has begun")
        tid = len(self._theories)
        self._theories.append(theory)
        theory.attach(self, tid)
        return tid

    def watch_var(self, var: int, theory) -> None:
        """Route future assignments of ``var`` to ``theory.on_assign``."""
        self._var_theories.setdefault(var, []).append(theory)

    # ------------------------------------------------------------------
    # state inspection (also the trail view theories read)

    def var_value(self, var: int) -> int:
        return self.assigns[var]

    def lit_value(self, lit: int) -> int:
        a = self.assigns[lit >> 1]
        return -a if lit & 1 else a

    def assigned_lit(self, var: int) -> int:
        """The literal currently true for an assigned var."""
        return var * 2 if self.assigns[var] == TRUE else var * 2 + 1

    # ------------------------------------------------------------------
    # trail operations

    def _enqueue(self, lit, reason) -> None:
        v = lit >> 1
        self.assigns[v] = FALSE if lit & 1 else TRUE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.pos[v] = len(self.trail)
        self.trail.append(lit)
        for th in self._var_theories.get(v, ()):
            th.on_assign(lit)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            v = self.trail[i] >> 1
            self.phase[v] = self.assigns[v] == TRUE
            self.assigns[v] = UNDEF
            self.reason[v] = None
            self.pos[v] = -1
            heapq.heappush(self._order, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)
        for th in self._theories:
            th.on_backjump(lvl)

    # ------------------------------------------------------------------
    # propagation

    def _watch(self, c: Clause) -> None:
        self.watches[neg(c.lits[0])].append(c)
        self.watches[neg(c.lits[1])].append(c)

    def _attach_pending(self):
        """Safely insert clauses learned mid-search (theory conflicts).

        Returns a conflicting clause if one is already falsified.
        """
        while self._pending:
            c = self._pending.pop()
            lits = c.lits
            nonfalse = [l for l in lits if self.lit_value(l) != FALSE]
            if len(nonfalse) >= 2:
                lits.sort(key=lambda l: self.lit_value(l) == FALSE)
                self.learnts.append(c)
                self._watch(c)
            elif len(nonfalse) == 1:
                l0 = nonfalse[0]
                lits.remove(l0)
                lits.sort(key=lambda l: -self.level[l >> 1])
                lits.insert(0, l0)
                self.learnts.append(c)
                if len(lits) >= 2:
                    self._watch(c)
                if self.lit_value(l0) == UNDEF:
                    self._enqueue(l0, c)
            else:
                lits.sort(key=lambda l: -self.level[l >> 1])
                self.learnts.append(c)
                if len(lits) >= 2:
                    self._watch(c)
                return c
        return None

    def _bcp(self):
        """Unit propagation to fixpoint; returns a falsified Clause or None."""
        trail = self.trail
        watches = self.watches
        lit_value = self.lit_value
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            fl = p ^ 1  # the watched literal that just became false
            ws = watches[p]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c.deleted:
                    continue
                lits = c.lits
                if lits[0] == fl:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if lit_value(first) == TRUE:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    if lit_value(lits[k]) != FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        watches[neg(lits[1])].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if lit_value(first) == FALSE:
                        while i < n:
                            ws[j] = ws[i]
                            j += 1
                            i += 1
                        del ws[j:]
                        self.qhead = len(trail)
                        return c
                    self._enqueue(first, c)
            del ws[j:]
        return None

    def _theory_pass(self):
        """One theory-propagation round. Returns (conflict_lits, progressed)."""
        for th in self._theories:
            implied, conflict = th.propagate()
            if conflict is not None:
                return conflict, False
            progressed = False
            for lit, atom_id in implied:
                val = self.lit_value(lit)
                if val == TRUE:
                    continue
                if val != UNDEF:
                    raise RuntimeError("theory implied an assigned literal")
                reason = LazyReason(th, atom_id)
                if self.validate_reasons:
                    reason = self._materialize(th, atom_id, lit, check=True)
                self._enqueue(lit, reason)
                self.theory_implications += 1
                progressed = True
            if progressed:
                return None, True  # re-run BCP before the next theory
        return None, False

    def _propagate_all(self):
        """BCP and theory propagation to mutual fixpoint.

        Returns None, a falsified Clause, or a list of theory conflict lits.
        """
        while True:
            confl = self._attach_pending()
            if confl is not None:
                return confl
            confl = self._bcp()
            if confl is not None:
                return confl
            t_confl, progressed = self._theory_pass()
            if t_confl is not None:
                if self.theory_clause_log is not None:
                    self.theory_clause_log.append(tuple(t_confl))
                return list(t_confl)
            if not progressed:
                return None

    def _materialize(self, theory, atom_id, lit, check=False):
        lits = list(theory.explain(atom_id, lit))
        if lits[0] != lit:
            raise RuntimeError("explain must put the implied literal first")
        if check:
            for other in lits[1:]:
                if self.lit_value(other) != FALSE:
                    raise RuntimeError(
                        "reason literal not false at implication time")
        if self.theory_clause_log is not None:
            self.theory_clause_log.append(tuple(lits))
        return Clause(lits)

    def _reason_clause(self, var):
        r = self.reason[var]
        if isinstance(r, LazyReason):
            r = self._materialize(r.theory, r.atom_id, self.assigned_lit(var))
            self.reason[var] = r
        return r

    # ------------------------------------------------------------------
    # conflict analysis

    def _bump_var(self, v):
        self.activity[v] += self._var_inc
        if self.activity[v] > 1e100:
            for i in range(len(self.activity)):
                self.activity[i] *= 1e-100
            self._var_inc *= 1e-100
            self._order = [(-self.activity[i], i) for i in range(len(self.assigns))
                           if self.assigns[i] == UNDEF]
            heapq.heapify(self._order)
            return
        heapq.heappush(self._order, (-self.activity[v], v))

    def _bump_clause(self, c):
        c.activity += self._cla_inc
        if c.activity > 1e20:
            for lc in self.learnts:
                lc.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, confl: Clause):
        """First-UIP analysis. Returns (learnt_lits, backjump_level)."""
        seen = self._seen
        learnt = []
        to_clear = []
        path = 0
        p = -1
        idx = len(self.trail) - 1
        cur = len(self.trail_lim)
        while True:
            lits = confl.lits
            if confl.learnt:
                self._bump_clause(confl)
            for k in range(0 if p < 0 else 1, len(lits)):
                q = lits[k]
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
            v = self.lit_value(a)
            if v == FALSE:
                return None, True  # assumption contradicted
            if v == UNDEF:
                return a, False
        order = self._order
        while order:
            negact, v = heapq.heappop(order)
            if self.assigns[v] != UNDEF:
                continue
            if -negact != self.activity[v]:
                heapq.heappush(order, (-self.activity[v], v))
                continue
            return mk_lit(v, not self.phase[v]), False
        return None, False  # nothing left (callers guard on trail size)

    # ------------------------------------------------------------------
    # learnt-clause management

    def _reduce_db(self):
        self.learnts.sort(key=lambda c: c.activity)
        keep_from = len(self.learnts) // 2
        kept = []
        for i, c in enumerate(self.learnts):
            locked = self.reason[c.lits[0] >> 1] is c and \
                self.lit_value(c.lits[0]) == TRUE
            if i < keep_from and len(c.lits) > 2 and not locked:
                c.deleted = True
            else:
                kept.append(c)
        self.learnts = kept
        self._max_learnts = int(self._max_learnts * 1.1) + 1

    # ------------------------------------------------------------------
    # main search

    def solve(self, assumptions=()) -> SolveResult:
        if not self.ok:
            return SolveResult(UNSAT)
        self._solving = True
        assumptions = list(assumptions)
        for a in assumptions:
            if not 0 <= (a >> 1) < len(self.assigns):
                raise ValueError("unknown variable in assumption")
        nvars = len(self.assigns)
        self._max_learnts = max(self._max_learnts,
                                max(len(self.clauses) // 3, 100))
        budget = 100 * luby(2, 1)
        since_restart = 0
        while True:
            confl = self._propagate_all()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                theory_clause = None
                if isinstance(confl, list):
                    theory_clause = Clause(confl, learnt=True)
                    confl = theory_clause
                top = 0
                for l in confl.lits:
                    lv = self.level[l >> 1]
                    if lv > top:
                        top = lv
                if top == 0:
                    self.ok = False
                    self._finish()
                    return SolveResult(UNSAT)
                if top < len(self.trail_lim):
                    self._cancel_until(top)
                learnt, bj = self._analyze(confl)
                if self.learned_log is not None:
                    self.learned_log.append(tuple(learnt))
                self._cancel_until(bj)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    c = Clause(learnt, learnt=True)
                    self.learnts.append(c)
                    self._watch(c)
                    self._bump_clause(c)
                    self._enqueue(learnt[0], c)
                if theory_clause is not None:
                    self._pending.append(theory_clause)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                if len(self.learnts) >= self._max_learnts + len(self.trail):
                    self._reduce_db()
                if since_restart >= budget:
                    self.restarts += 1
                    since_restart = 0
                    budget = 100 * luby(2, self.restarts + 1)
                    self._cancel_until(0)
            else:
                lit, failed = self._decide(assumptions)
                if failed:
                    self._finish()
                    return SolveResult(UNSAT)
                if lit is None:
                    # No decision left: every var is assigned and every
                    # assumption was checked satisfied along the way.
                    if len(self.trail) != nvars:
                        raise RuntimeError("model has unassigned vars")
                    model = [self.assigns[v] == TRUE for v in range(nvars)]
                    self._finish()
                    return SolveResult(SAT, model)
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)

    def _finish(self):
        self._cancel_until(0)

    def stats_line(self) -> str:
        return ("conflicts=%d decisions=%d propagations=%d "
                "theory_implications=%d restarts=%d"
                % (self.conflicts, self.decisions, self.propagations,
                   self.theory_implications, self.restarts))
