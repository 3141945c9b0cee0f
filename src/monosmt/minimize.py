"""Bound minimization for spanning-tree weight atoms.

The search rewrites one mst_weight_leq atom's bound and re-solves the
document from scratch per probe. Feasibility is monotone in the bound, which
binary search exploits; the caller gets the smallest bound that stays
satisfiable, with its model.
"""
from __future__ import annotations

import copy
import dataclasses

from .build import solve_doc
from .gnf import GnfDocument


class MinimizeResult:
    __slots__ = ("feasible", "bound", "values", "probes")

    def __init__(self, feasible, bound, values, probes):
        self.feasible = feasible
        self.bound = bound
        self.values = values
        self.probes = probes  # (bound, status) in probe order


def minimize_bound(doc: GnfDocument, bound_var: int, seed=0):
    """Smallest satisfiable bound for the mst_weight_leq atom on bound_var,
    searched over [0, total edge weight]."""
    idx = next((i for i, p in enumerate(doc.preds)
                if p.var == bound_var and p.kind == "mst_weight_leq"), None)
    if idx is None:
        raise ValueError("var %d is not an mst_weight_leq atom" % bound_var)
    total = sum(e.weight for e in doc.graphs[doc.preds[idx].owner].edges)
    probes = []

    def probe(bound):
        trial = copy.copy(doc)  # shares all but the probed atom
        trial.preds = doc.preds[:]
        trial.preds[idx] = dataclasses.replace(doc.preds[idx], args=(bound,))
        status, values, _ = solve_doc(trial, seed=seed)
        probes.append((bound, status))
        return status == "SAT", values

    sat, values = probe(total)
    if not sat:
        return MinimizeResult(False, None, None, probes)
    lo, hi = 0, total
    best = values
    while lo < hi:
        mid = (lo + hi) // 2
        sat, values = probe(mid)
        if sat:
            hi = mid
            best = values
        else:
            lo = mid + 1
    return MinimizeResult(True, hi, best, probes)
