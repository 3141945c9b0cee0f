"""Verdict checks that share no logic with the solver.

SAT verdicts are confirmed by ``monosmt.oracle.check_model``, whose
evaluators come from a different algorithm family than the theory solvers
(Prim for Kruskal, Bellman-Ford for Dijkstra, depth-first Ford-Fulkerson for
Edmonds-Karp, the processor-demand criterion for EDF simulation). Flow
instances are SAT by construction (the demand is the max flow of the
maximal completion) and sched instances are UNSAT by the overload count
below, so for those the expected verdict is known before any solve.
"""
from __future__ import annotations

import copy

from monosmt import oracle

CONFIRMED = "confirmed"    # the verdict is right and independently shown
WRONG = "wrong"            # the verdict contradicts an independent check
UNCONFIRMED = "unconfirmed"  # plausible, but nothing here can prove it


def sched_overload_unsat(doc) -> bool:
    """True when counting runnable tasks proves a gen_sched document UNSAT.

    A task can run only if its duration on some processor is at most
    deadline - arrival. Tasks are tied into all-or-none groups by pairs of
    binary clauses (s_i -> s_j, s_j -> s_i) over their selection vars, and
    exactly half of all tasks must be selected. If the groups whose every
    task can run hold fewer than half the tasks, no model exists.
    """
    procs = [doc.procs[p] for p in sorted(doc.procs)]
    n = len(procs[0].tasks)
    task_of_x = {p.tasks[i].var: i for p in procs for i in range(n)}
    task_of_s = {}
    for c in doc.clauses:  # x_ip -> s_i, written as (-x_ip, s_i)
        if len(c) == 2 and -c[0] in task_of_x and c[1] > 0:
            task_of_s[c[1]] = task_of_x[-c[0]]
    implications = set()
    for c in doc.clauses:
        if (len(c) == 2 and abs(c[0]) in task_of_s
                and abs(c[1]) in task_of_s and (c[0] < 0) != (c[1] < 0)):
            a, b = (-c[0], c[1]) if c[0] < 0 else (-c[1], c[0])
            implications.add((task_of_s[a], task_of_s[b]))
    group = list(range(n))

    def find(i):
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    for a, b in implications:
        if (b, a) in implications:
            group[find(a)] = find(b)
    runnable = [any(p.tasks[i].duration <= p.tasks[i].deadline
                    - p.tasks[i].arrival for p in procs) for i in range(n)]
    members = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    can_run = sum(len(m) for m in members.values()
                  if all(runnable[i] for i in m))
    return can_run < n // 2


def _values(bits: str):
    return [None] + [b == "1" for b in bits]


def check_verdict(case, status, bits, bound=None):
    """Classify one solver answer; returns (CONFIRMED|WRONG|UNCONFIRMED,
    message)."""
    if case.bound_var:
        if status == "UNSAT":
            return UNCONFIRMED, "no feasible bound found"
        doc = copy.deepcopy(case.doc)
        pred = next(p for p in doc.preds if p.var == case.bound_var)
        pred.args = (bound,)
    else:
        doc = case.doc
    if case.expect is not None and status != case.expect:
        return WRONG, "expected %s by construction, got %s" % (case.expect,
                                                               status)
    if status == "SAT":
        problem = oracle.check_model(doc, _values(bits))
        if problem is not None:
            return WRONG, "model rejected: " + problem
        return CONFIRMED, "model checked"
    if case.expect == "UNSAT":
        return CONFIRMED, "overload count"
    return UNCONFIRMED, "UNSAT with no independent proof"
