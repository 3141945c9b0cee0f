"""Framework for lazy theory solvers over monotonic Boolean predicates.

A predicate over a set of argument variables (its S-atoms) is *positive
monotonic* when flipping any argument from false to true can never flip the
predicate from true to false, and *negative monotonic* in the symmetric case.
Each predicate is tied to one solver variable, its atom, which must hold
exactly when the predicate holds. A theory's S-vars are fixed when it is
built: its constructor takes them in mask slot order, and
``Solver.attach_theory`` routes each one's assignments to its
``on_assign``.

Under a partial assignment every completion of the S-atoms lies between two
extremes: the *minimal* completion assigns false to every unassigned S-atom
and the *maximal* completion assigns true. For a positive predicate, truth on
the minimal completion forces the atom true everywhere and falsity on the
maximal completion forces it false; a negative predicate swaps which extreme
guarantees which polarity. That pair of checks is the paper's propagation
rule, and it assigns atoms only.

A theory may also imply an S-literal from an atom's value alone, as a
DPLL(T) theory may imply any literal (Nieuwenhuis, Oliveras & Tinelli, JACM
2006). ``ProcessorTheory`` does: while a ``schedulable`` atom is true, a
task that misses its deadline even when it runs alone is off. The reason of
such an implied literal ``l`` is ``(l or not a)``, where ``a`` is the atom's
literal on the trail, and ``explain`` builds it only when asked.

Each extreme is a trail-restored ``Completion``: an enabled mask updated in
place as S-atoms are assigned, plus a log of the changed S-atoms in trail
order. The log length is the completion's generation. A backjump pops the
log entries of unassigned S-atoms and restores their bits, so the mask is
never rebuilt from the solver. Every predicate is evaluated on a completion
once per generation, together with the analyses behind the values (a
spanning forest, a shortest-path tree, a max flow); these evaluations stack
up by generation and a backjump drops only those newer than the generation
it restores, so the level it returns to keeps its evaluation. The values
live in one list per completion, written in place: a stacked evaluation
keeps the ids of the atoms it flipped, and a backjump flips them back as it
pops, as it restores the mask from the log. An implied atom records the
generation of the extreme that implied it, and its explanation reads the
mask of that generation off the same log, reusing the newest stacked
analysis when it is of that generation; an older generation runs cold.

Propagation is change-driven: each evaluation lists the atoms whose value
moved, and a scan visits those, in id order; with none, there is no scan.
A backjump returns to a level that ended at a theory fixpoint, whose
evaluations top the stacks again, so it leaves no atom to visit.

``agreed_fill`` names the extreme on which every atom holds at decision level
0: a true positive or false negative atom holds on the maximal completion, a
false positive or true negative one on the minimal. The solver decides the
S-vars of a theory whose atoms all agree toward that extreme, which can
never turn one of them against the trail.

A theory supplies one evaluation hook, ``MonotonicTheory.evaluate``: the
truth of one predicate on one enabled mask. ``eval_completion`` calls it
for every predicate on an extreme, and explanations reuse the analyses it
memoized. Only the driver touches the stack: it hands ``eval_completion``
the live value list, the newest stacked analyses and the slots moved
since. A theory may override ``eval_completion`` to evaluate atoms in
groups that share an analysis, to reuse the analyses that those slots
cannot have changed, and to find the atoms whose value moved without
evaluating every atom; ``GraphTheory`` does so.
"""
from __future__ import annotations

import weakref

from .sat import TRUE, FALSE, UNDEF, mk_lit

POSITIVE = 1
NEGATIVE = -1


class AtomBinding:
    """Registration record tying a solver var to one predicate instance.
    ``gen`` is set when the theory implies the atom: the generation of the
    extreme whose value implied it."""

    __slots__ = ("atom_id", "pvar", "polarity", "kind", "payload", "gen")

    def __init__(self, atom_id, pvar, polarity, kind, payload):
        self.atom_id = atom_id
        self.pvar = pvar
        self.polarity = polarity
        self.kind = kind
        self.payload = payload


class Completion:
    """One extreme completion of the current trail, updated with it.

    ``enabled`` has one byte per S-atom slot, 1 where the S-atom is in the
    completion. ``log`` lists the slots the trail has moved off the fill
    value (set true for the minimal completion, false for the maximal one)
    in trail order; its length is the generation. ``stack`` holds
    ``(generation, changed, analysis)`` evaluations made along the current
    trail, oldest first, all for prefixes of ``log``. ``values`` has a bool
    per atom id, as the newest of them left it; ``changed`` lists the ids
    each one flipped, so a popped entry flips them back.
    """

    __slots__ = ("maximal", "enabled", "log", "stack", "values")

    def __init__(self, maximal: bool, n: int):
        self.maximal = maximal
        self.enabled = bytearray([maximal]) * n
        self.log = []
        self.stack = []
        self.values = []


class MonotonicTheory:
    """Base class driving under/over-approximation propagation.

    Subclasses supply one hook, ``evaluate(pred, enabled, analysis)``, the
    truth of one predicate on an enabled mask. It memoizes the analyses
    behind the value (a spanning forest, a max flow) in the ``analysis``
    dict, shared by every predicate evaluated on the same mask.
    ``eval_completion`` applies it to every predicate on one extreme of the
    current trail; a subclass may override it to evaluate atoms in groups.
    The constructor takes ``slot_vars``, the S-var of each mask slot in
    slot order, and rejects a var named twice. ``witness_lits``
    alone picks the extreme and the literal signs of a reason clause; a
    subclass may override ``witness_slots`` to pick which of that extreme's
    moved S-atoms the clause names, and in what order. The base names them
    all, which is the paper's justification set.
    """

    def __init__(self, slot_vars):
        self.solver = None
        self._preds: list[AtomBinding] = []
        self._pvars: dict[int, int] = {}  # pvar -> atom_id
        self.slot_vars: list[int] = list(slot_vars)  # mask slot -> S-var
        slots = self._slots = {v: i for i, v in enumerate(self.slot_vars)}
        if len(slots) < len(self.slot_vars):  # a repeat kept its last slot
            raise ValueError("argument var %d used twice" % next(
                v for i, v in enumerate(self.slot_vars) if slots[v] != i))
        n = len(slots)
        # Indexed by ``maximal``: (minimal, maximal).
        self._ext = (Completion(False, n), Completion(True, n))
        self._dirty = set()  # atom ids the next scan visits, new ones too

    # -- registration ---------------------------------------------------

    def register_predicate(self, pvar: int, polarity: int, kind: str,
                           payload) -> int:
        """Bind ``pvar`` to a predicate; returns its atom id.

        On a theory already attached to a solver, which must then be at
        decision level 0 (between solves), the stacked evaluations are
        dropped, as the value lists have no entry for the new atom, and the
        next read of each extreme starts its list over; the next scan
        visits every atom.
        """
        if pvar in self._slots:
            raise ValueError("atom var %d is already an argument var" % pvar)
        if pvar in self._pvars:
            raise ValueError("var %d already bound to a predicate" % pvar)
        atom_id = len(self._preds)
        binding = AtomBinding(atom_id, pvar, polarity, kind, payload)
        self._preds.append(binding)
        self._pvars[pvar] = atom_id
        if self.solver is not None:
            for comp in self._ext:
                comp.stack.clear()
            self._dirty.update(range(atom_id))
        self._dirty.add(atom_id)
        return atom_id

    def attach(self, solver) -> None:
        """Take the assignments the solver made before attaching.
        ``Solver.attach_theory`` watches the S-vars; atom vars are not
        watched: ``propagate`` reads their values from the solver.

        The theory keeps only a weak reference to the solver, so the two
        form no reference cycle and a dropped solver is freed by reference
        counting at once; the caller keeps the solver alive."""
        self.solver = weakref.proxy(solver)
        for lit in solver.trail:  # assignments made before attaching
            if lit >> 1 in self._slots:
                self.on_assign(lit)

    def atom(self, atom_id: int) -> AtomBinding:
        return self._preds[atom_id]

    def completion(self, maximal: bool) -> Completion:
        return self._ext[maximal]

    # -- solver callbacks ------------------------------------------------

    def on_assign(self, lit: int) -> None:
        slot = self._slots[lit >> 1]
        if lit & 1:
            comp = self._ext[1]  # the maximal completion loses a member
            comp.enabled[slot] = 0
            comp.log.append(slot)
        else:
            comp = self._ext[0]  # the minimal completion gains one
            comp.enabled[slot] = 1
            comp.log.append(slot)

    def on_backjump(self, level: int) -> None:
        value = self.solver.value
        slot_vars = self.slot_vars
        for comp in self._ext:
            log, enabled = comp.log, comp.enabled
            fill = 1 if comp.maximal else 0
            n = len(log)
            while n and value[2 * slot_vars[log[n - 1]]] == UNDEF:
                n -= 1
                enabled[log[n]] = fill
            if n < len(log):
                del log[n:]
                stack, values = comp.stack, comp.values
                while stack and stack[-1][0] > n:
                    for i in stack.pop()[1]:
                        values[i] = not values[i]
        self._dirty = set()  # see ``propagate``

    def propagate(self):
        """Scan the predicates; returns (implied, conflict_lits).

        ``implied`` is a tuple of (literal, atom_id) pairs over currently
        unassigned vars: atom literals here, and in a subclass also
        S-literals forced by the value of atom ``atom_id`` (see
        ``explain``). ``conflict_lits`` is a falsified clause when an
        implication contradicts an existing atom assignment.

        Visits in atom-id order the atoms whose value changed since each
        extreme was last read: each extreme read before is evaluated now if
        it moved, which adds its changed atoms (see ``_values``). The rest
        still give nothing, so with no changed atom there is no scan. An
        atom the last scan left unassigned was forced by neither extreme, so
        its own assignment since forces no atom until an extreme's value
        moves; atom vars are therefore not watched. A backjump, which
        follows every conflict, returns to a level that ended at a fixpoint
        of every theory, whose evaluations top the stacks again: an atom
        unassigned there was forced by neither extreme, so only atoms whose
        values move afterwards can imply. Only the first scan and the one
        after ``register_predicate`` visit every atom.
        """
        for comp in self._ext:
            if comp.stack:  # empty: unread, so no clean atom needs it
                self._values(comp.maximal)
        if not self._dirty:
            return (), None
        implied, conflict = self._scan(
            [self._preds[i] for i in sorted(self._dirty)])
        self._dirty = set()
        return implied, conflict

    def _scan(self, preds):
        """Checks ``preds`` against both extremes, in order; returns
        ``propagate``'s pair."""
        value = self.solver.value
        implied = []
        for pred in preds:
            lit = 2 * pred.pvar  # the atom asserted
            val = value[lit]
            if val != TRUE:
                # Truth on this extreme survives every completion.
                if self._values(pred.polarity == NEGATIVE)[pred.atom_id]:
                    if val == FALSE:
                        return (), self.explain(pred.atom_id, lit)
                    pred.gen = len(self._ext[pred.polarity == NEGATIVE].log)
                    implied.append((lit, pred.atom_id))
                    continue
            if val != FALSE:
                if not self._values(pred.polarity == POSITIVE)[pred.atom_id]:
                    if val == TRUE:
                        return (), self.explain(pred.atom_id, lit + 1)
                    pred.gen = len(self._ext[pred.polarity == POSITIVE].log)
                    implied.append((lit + 1, pred.atom_id))
        return tuple(implied), None

    def eval_completion(self, maximal, enabled, moved, values, base):
        """Every predicate evaluated on one extreme's live ``enabled`` mask
        into ``values``, the extreme's bool per atom id (None each when no
        evaluation is stacked); returns ``(analysis, changed)``: the
        analyses behind the values and the ids of the atoms whose value
        changed. ``base`` holds the newest stacked analyses ({} when none),
        ``moved`` the slots since."""
        analysis = {}
        return analysis, self._update(self._preds, enabled, analysis, values)

    def _update(self, preds, enabled, analysis, values):
        """Writes the value of each of ``preds`` into ``values``; returns
        the ids of those whose value changed, in ``preds`` order."""
        changed = []
        for pred in preds:
            val = self.evaluate(pred, enabled, analysis)
            if values[pred.atom_id] != val:
                values[pred.atom_id] = val
                changed.append(pred.atom_id)
        return changed

    def _values(self, maximal: bool):
        """Per-atom values on one extreme, evaluated once per generation
        and stacked; the atoms whose value moved join a pending scan. With
        nothing stacked the value list starts over."""
        comp = self._ext[maximal]
        stack = comp.stack
        if not stack or stack[-1][0] != len(comp.log):
            if not stack:
                comp.values = [None] * len(self._preds)
            gen, _, base = stack[-1] if stack else (0, None, {})
            analysis, changed = self.eval_completion(
                maximal, comp.enabled, comp.log[gen:], comp.values, base)
            stack.append((len(comp.log), changed, analysis))
            self._dirty.update(changed)
        return comp.values

    def explain(self, atom_id: int, lit: int) -> list[int]:
        """Reason clause for an implied literal, implied literal first.

        A true ``lit`` is the theory's own implication, and every other
        literal is false at the generation it recorded; otherwise (a
        conflict, or an implication not yet enqueued) every other literal
        is false on the current log. An S-literal implied by the value of
        atom ``atom_id`` alone gets ``[lit, not a]``, ``a`` being the
        atom's literal on the trail.
        """
        pred = self._preds[atom_id]
        value = self.solver.value
        if lit >> 1 != pred.pvar:
            if lit >> 1 not in self._slots:
                raise RuntimeError("explain asked for another atom's literal")
            return [lit, 2 * pred.pvar + (value[2 * pred.pvar] == TRUE)]
        gen = pred.gen if value[lit] == TRUE else None
        return [lit] + self.witness_lits(pred, not (lit & 1), gen)

    def agreed_fill(self):
        """The extreme on which every atom holds as the trail has it: True
        for the maximal completion, False for the minimal, None when an
        atom is unassigned, when two atoms disagree, or when there is none.
        A true positive or false negative atom holds on the maximal
        completion, a false positive or true negative one on the minimal.
        """
        value = self.solver.value
        fill = None
        for pred in self._preds:
            val = value[2 * pred.pvar]
            if val == UNDEF:
                return None
            holds = (val == TRUE) == (pred.polarity == POSITIVE)
            if fill is None:
                fill = holds
            elif fill != holds:
                return None
        return fill

    # Never called by the solver; perfbench/tracer.py patches this name.
    def decide_hint(self):
        return None

    # -- helpers for subclasses -------------------------------------------

    def completion_at(self, maximal: bool, gen):
        """One extreme at generation ``gen``, its log cut there; None is
        the current generation.

        Returns ``(enabled, moved, analysis)``: the enabled mask, the slots
        moved off the fill value by then (in trail order), and an analysis
        dict for that mask: the newest stacked evaluation's when it is of
        that generation, else a fresh one, so an older generation runs its
        analyses cold. The mask is a fresh copy.
        """
        comp = self._ext[maximal]
        moved = comp.log[:gen]
        gen = len(moved)
        enabled = comp.enabled[:]
        fill = 1 if maximal else 0
        for slot in comp.log[gen:]:
            enabled[slot] = fill
        stack = comp.stack
        analysis = stack[-1][2] if stack and stack[-1][0] == gen else {}
        return enabled, moved, analysis

    def witness_lits(self, pred, positive: bool, gen) -> list[int]:
        """Clause tail justifying the atom of ``pred`` (true when
        ``positive``) at generation ``gen`` of the extreme it reads (None:
        the current one). For a positive predicate an implied-true atom is
        justified by the S-atoms assigned true, the minimal completion's
        moved slots (their loss could only weaken the predicate), and an
        implied-false one by those assigned false, the maximal's; a
        negative predicate swaps the roles. Each
        slot ``witness_slots`` picks enters as the literal its assignment
        falsifies."""
        use_true = positive == (pred.polarity == POSITIVE)
        enabled, moved, analysis = self.completion_at(not use_true, gen)
        slot_vars = self.slot_vars
        return [mk_lit(slot_vars[slot], use_true) for slot in
                self.witness_slots(pred, positive, enabled, moved, analysis)]

    def witness_slots(self, pred, positive: bool, enabled, moved, analysis):
        """The slots of ``moved`` that a witness names, in clause order.
        ``enabled``, ``moved`` and ``analysis`` are ``completion_at``'s
        reading of the extreme ``witness_lits`` chose. The base names every
        moved slot, in var order."""
        return sorted(moved, key=self.slot_vars.__getitem__)

    def evaluate(self, pred, enabled, analysis) -> bool:
        """Truth of ``pred`` on the ``enabled`` mask."""
        raise NotImplementedError
