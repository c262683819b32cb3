"""Exact rational linear algebra helpers."""

from __future__ import annotations

import random
from fractions import Fraction

from lambdacone.linalg import kernel_basis, rref


def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_pivots():
    m = _frac_matrix([[2, 4, 6], [1, 2, 4]])
    pivots, rank = rref(m)
    assert pivots == [0, 2]
    assert rank == 2
    assert m[0] == [1, 2, 0]
    assert m[1] == [0, 0, 1]


def test_kernel_basis_is_echelon():
    # x + y + z = 0 has a two-dimensional kernel with leading ones.
    m = _frac_matrix([[1, 1, 1]])
    basis = kernel_basis(m, 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    lead_cols = []
    for v in basis:
        lead = next(i for i, x in enumerate(v) if x)
        assert v[lead] == 1
        lead_cols.append(lead)
    assert lead_cols == sorted(lead_cols)


def _unit(n, i):
    return [Fraction(int(j == i)) for j in range(n)]


def test_kernel_basis_is_its_own_rref():
    rng = random.Random(33)
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(n_cols)]
                for _ in range(rng.randint(1, n_rows))]
        # Repeat and combine rows so the matrix is rank deficient.
        rows += [[a + b for a, b in zip(rng.choice(rows), rng.choice(rows))]
                 for _ in range(n_rows - len(rows))]
        rows.append([0] * n_cols)
        m = _frac_matrix(rows)
        basis = kernel_basis(m, n_cols)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        _, rank = rref([list(row) for row in m])
        assert len(basis) == n_cols - rank
        reduced = [list(v) for v in basis]
        rref(reduced)
        assert reduced == basis


def test_kernel_basis_full_column_rank_is_empty():
    assert kernel_basis(_frac_matrix([[1, 2], [3, 4], [5, 6]]), 2) == []


def test_kernel_basis_without_rows_is_unit_vectors():
    assert kernel_basis([], 3) == [_unit(3, i) for i in range(3)]


def test_kernel_basis_of_zero_matrix_is_unit_vectors():
    assert kernel_basis(_frac_matrix([[0, 0, 0], [0, 0, 0]]), 3) == [
        _unit(3, i) for i in range(3)
    ]


def test_kernel_basis_leaves_input_alone():
    m = _frac_matrix([[2, 4, 6, 0], [1, 2, 4, 1]])
    before = [list(row) for row in m]
    kernel_basis(m, 4)
    assert m == before
