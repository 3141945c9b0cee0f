"""Sequential-counter cardinality encoding, checked by projected counting."""

import math

import pytest

from monosmt.cardinality import encode_cardinality
from monosmt.sat import Solver, internal_lit, mk_lit


def projected_count(n_base, k, relation):
    """Number of assignments to the first n_base vars extendable to a model
    of the encoding, counted with one assumption-solve per assignment."""
    xs = list(range(1, n_base + 1))
    clauses, next_var = encode_cardinality(xs, k, relation, n_base + 1)
    solver = Solver()
    for _ in range(next_var - 1):
        solver.new_var()
    for clause in clauses:
        solver.add_clause([internal_lit(l) for l in clause])
    count = 0
    for bits in range(1 << n_base):
        assumptions = [mk_lit(i, not (bits >> i) & 1) for i in range(n_base)]
        if solver.solve(assumptions).status == "SAT":
            count += 1
    return count


def test_exactly_one_matches_pairwise_encoding():
    clauses, next_var = encode_cardinality([1, 2], 1, "=", 3)
    solver = Solver()
    for _ in range(next_var - 1):
        solver.new_var()
    for clause in clauses:
        solver.add_clause([internal_lit(l) for l in clause])
    for a in (False, True):
        for b in (False, True):
            assumptions = [mk_lit(0, not a), mk_lit(1, not b)]
            got = solver.solve(assumptions).status
            assert got == ("SAT" if a != b else "UNSAT"), (a, b)


@pytest.mark.parametrize("k", range(7))
def test_equality_counts_are_binomial(k):
    assert projected_count(6, k, "=") == math.comb(6, k)


def test_at_most_and_at_least_counts():
    assert projected_count(6, 2, "<=") == sum(math.comb(6, j)
                                              for j in range(3))
    assert projected_count(6, 2, ">=") == sum(math.comb(6, j)
                                              for j in range(2, 7))


def test_vacuous_bound_emits_nothing():
    assert encode_cardinality([1, 2, 3], 3, "<=", 4) == ([], 4)


def test_zero_bound_is_unit_negations():
    clauses, nv = encode_cardinality([1, 2, 3], 0, "<=", 4)
    assert clauses == [[-1], [-2], [-3]] and nv == 4


def test_full_bound_equality_forces_all_true():
    clauses, nv = encode_cardinality([1, 2, 3], 3, "=", 4)
    assert sorted(map(tuple, clauses)) == [(1,), (2,), (3,)] and nv == 4


def test_aux_vars_allocated_from_counter():
    clauses, next_var = encode_cardinality(list(range(1, 7)), 2, "<=", 7)
    assert next_var == 7 + 5 * 2
    assert max(abs(l) for c in clauses for l in c) < next_var
    assert min(abs(l) for c in clauses for l in c) >= 1


def test_validation():
    with pytest.raises(ValueError):
        encode_cardinality([1, 2], 3, "<=", 3)
    with pytest.raises(ValueError):
        encode_cardinality([1, 2], -1, "<=", 3)
    with pytest.raises(ValueError):
        encode_cardinality([1, 2], 1, "<", 3)


def test_encoding_is_deterministic():
    first = encode_cardinality(list(range(1, 9)), 3, "=", 9)
    second = encode_cardinality(list(range(1, 9)), 3, "=", 9)
    assert first == second
