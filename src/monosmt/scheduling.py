"""Uniprocessor schedulability theory.

Each task of a processor is guarded by a solver variable, and a
``ProcessorTheory`` is built with all its tasks, whose vars are its S-vars,
task id == mask slot. A schedulable atom states that the selected task set
meets every deadline under preemptive earliest-deadline-first dispatch. The
predicate is monotone decreasing: adding tasks can only introduce misses, so
a miss under the tasks assigned true is final while feasibility of the full
candidate set settles the atom positively.

Explanations for misses use a busy-window argument: walking left from the
missed deadline through the region continuously covered by pending tasks with
deadlines at or before it yields a window that those tasks alone overload, so
the clause blaming just them is valid no matter what else runs.

Beyond the atom propagation of ``MonotonicTheory``, a true atom also implies
task literals: a task whose ``arrival + duration`` exceeds its deadline
misses even when it runs alone, so while the atom holds it is off in every
completion, and ``propagate`` implies it false with the reason
``(not x_t or not atom)``. The test is O(1) per task, and at decision level 0
it finds every such task at the first scan.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .sat import TRUE, UNDEF
from .theory import MonotonicTheory, NEGATIVE


@dataclass(slots=True)
class TaskSpec:
    tid: int
    var: int
    arrival: int
    duration: int
    deadline: int


class EdfResult:
    __slots__ = ("miss_tid", "miss_deadline", "completion", "segments")

    def __init__(self, miss_tid, miss_deadline, completion, segments):
        self.miss_tid = miss_tid
        self.miss_deadline = miss_deadline
        self.completion = completion
        self.segments = segments  # (start, end, tid) execution chunks

    @property
    def feasible(self):
        return self.miss_tid is None


def edf_simulate(tasks, enabled) -> EdfResult:
    """Run preemptive EDF over the enabled tasks until the first detected
    deadline miss or completion of all work. Ties pop by (deadline, arrival,
    task id)."""
    jobs = sorted((t for t in tasks if enabled[t.tid]),
                  key=lambda t: (t.arrival, t.deadline, t.tid))
    rem = {t.tid: t.duration for t in jobs}
    completion = {}
    segments = []
    heap = []
    now = 0
    i = 0
    n = len(jobs)
    while i < n or heap:
        if not heap:
            now = max(now, jobs[i].arrival)
        while i < n and jobs[i].arrival <= now:
            t = jobs[i]
            heapq.heappush(heap, (t.deadline, t.arrival, t.tid))
            i += 1
        d, a, tid = heap[0]
        finish = now + rem[tid]
        next_arr = jobs[i].arrival if i < n else None
        if next_arr is not None and next_arr < finish:
            rem[tid] -= next_arr - now
            segments.append((now, next_arr, tid))
            now = next_arr
            if now >= d:  # still pending at the deadline
                return EdfResult(tid, d, completion, segments)
            continue
        heapq.heappop(heap)
        rem[tid] = 0
        segments.append((now, finish, tid))
        now = finish
        completion[tid] = finish
        if finish > d:
            return EdfResult(tid, d, completion, segments)
    return EdfResult(None, None, completion, segments)


def busy_window_tasks(tasks, enabled, result: EdfResult):
    """Task ids whose combined demand overloads the window ending at the
    missed deadline. The returned set is jointly infeasible on any
    uniprocessor, independent of what other tasks exist."""
    miss = tasks[result.miss_tid]
    t_miss = result.miss_deadline
    if miss.arrival + miss.duration > miss.deadline:
        return [miss.tid]
    intervals = []
    for t in tasks:
        if not enabled[t.tid] or t.deadline > t_miss:
            continue
        hi = min(result.completion.get(t.tid, t_miss), t_miss)
        if t.arrival < hi:
            intervals.append((t.arrival, hi))
    intervals.sort()
    t0, hi = intervals[0]
    for s, e in intervals[1:]:
        if s > hi:
            t0, hi = s, e
        elif e > hi:
            hi = e
    if hi < t_miss:
        raise RuntimeError("miss window not covered")
    picked = [t.tid for t in tasks
              if enabled[t.tid] and t.deadline <= t_miss
              and t0 <= t.arrival < t_miss]
    if sum(tasks[tid].duration for tid in picked) <= t_miss - t0:
        raise RuntimeError("busy window not overloaded")
    return picked


class ProcessorTheory(MonotonicTheory):
    """Theory solver for the schedulability atoms of one processor.

    ``tasks`` lists (var, arrival, duration, deadline) tuples, ``var`` an
    internal solver var; a task's id is its position in the list. The tasks
    and atoms are taken as GNF allows them: the parser and
    ``build_instance`` check them with ``gnf.check_task`` and
    ``gnf.VarOwners``. The task vars are the S-vars in task order, so slot
    == task id.
    """

    def __init__(self, tasks):
        self.tasks = [TaskSpec(tid, *t) for tid, t in enumerate(tasks)]
        super().__init__([t.var for t in self.tasks])
        # Tasks that miss alone: off while an atom of this processor holds.
        self._misses_alone = [t.var for t in self.tasks
                              if t.arrival + t.duration > t.deadline]

    def add_atom(self, kind: str, args, pvar: int) -> int:
        """Register a ``schedulable`` atom (no arguments) on atom var
        ``pvar``; returns the atom id."""
        return self.register_predicate(pvar, NEGATIVE, kind, ())

    # -- theory interface ------------------------------------------------------

    def propagate(self):
        """The atom scan, then ``not x_t`` for each unassigned task that
        misses alone while an atom is true, tagged with that atom."""
        implied, conflict = super().propagate()
        if conflict is None and self._misses_alone:
            value = self.solver.value
            for pred in self._preds:
                if value[2 * pred.pvar] == TRUE:
                    implied += tuple((2 * v + 1, pred.atom_id)
                                     for v in self._misses_alone
                                     if value[2 * v] == UNDEF)
                    break
        return implied, conflict

    def evaluate(self, pred, enabled, analysis):
        return self._edf(enabled, analysis).feasible

    def witness_slots(self, pred, positive, enabled, moved, analysis):
        """Task ids, a task's slot being its id: a miss names its busy
        window; feasibility names every task assigned false."""
        if positive:
            return super().witness_slots(pred, positive, enabled, moved,
                                         analysis)
        result = self._edf(enabled, analysis)
        if result.feasible:
            raise RuntimeError("witness requested without a miss")
        return busy_window_tasks(self.tasks, enabled, result)

    def _edf(self, enabled, analysis):
        """EDF run of the enabled mask, memoized in ``analysis``."""
        result = analysis.get("edf")
        if result is None:
            result = analysis["edf"] = edf_simulate(self.tasks, enabled)
        return result

    def model_witness(self, pred, enabled, analysis):
        """Chronological (taskId, start, end) run chunks of the EDF schedule
        for a full model, flattened; adjacent chunks of a task merged.
        ``analysis`` memoizes the run for the other atoms of the model."""
        result = self._edf(enabled, analysis)
        merged = []
        for s, e, tid in result.segments:
            if merged and merged[-1][2] == tid and merged[-1][1] == s:
                merged[-1][1] = e
            else:
                merged.append([s, e, tid])
        tokens = []
        for s, e, tid in merged:
            tokens.extend((tid, s, e))
        return tokens
