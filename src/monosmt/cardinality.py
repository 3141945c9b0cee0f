"""Cardinality constraints by sequential counter.

The encoder emits CNF over GNF-style signed literals. Auxiliary register
variables are allocated from a caller-supplied counter so they land after the
declared variables of a document. An at-least bound is an at-most bound on
the negated literals; equality is the conjunction of both.
"""
from __future__ import annotations


def _at_most(lits, k, next_var):
    """Clauses forcing at most k of lits true; returns (clauses, next_var).

    Registers s[i][j] mean "at least j of the first i+1 literals are true".
    """
    n = len(lits)
    if k >= n:
        return [], next_var
    if k == 0:
        return [[-l] for l in lits], next_var
    clauses = []
    prev = None  # the register row of the literal before x
    for x in lits[:-1]:
        row = list(range(next_var, next_var + k))
        next_var += k
        clauses.append([-x, row[0]])
        if prev is None:
            for j in range(1, k):
                clauses.append([-row[j]])
        else:
            clauses.append([-prev[0], row[0]])
            for j in range(1, k):
                clauses.append([-x, -prev[j - 1], row[j]])
                clauses.append([-prev[j], row[j]])
            clauses.append([-x, -prev[k - 1]])
        prev = row
    clauses.append([-lits[-1], -prev[k - 1]])
    return clauses, next_var


def encode_cardinality(xs, k, relation, next_var):
    """CNF for sum(xs) <relation> k over vars xs; returns (clauses, next_var).

    relation is one of "<=", ">=", "=". Auxiliary vars are numbered from
    next_var upward; the advanced counter is returned.
    """
    if not 0 <= k <= len(xs):
        raise ValueError("bound %d outside 0..%d" % (k, len(xs)))
    if relation not in ("<=", ">=", "="):
        raise ValueError("relation must be <=, >= or =")
    clauses = []
    if relation in ("<=", "="):
        more, next_var = _at_most(list(xs), k, next_var)
        clauses.extend(more)
    if relation in (">=", "="):
        more, next_var = _at_most([-x for x in xs], len(xs) - k, next_var)
        clauses.extend(more)
    return clauses, next_var
