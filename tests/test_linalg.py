"""Exact rational linear algebra helpers."""

from __future__ import annotations

import random
from fractions import Fraction

from lambdacone.linalg import invert, kernel_basis, rref


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


def test_invert_roundtrip():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = _frac_matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        try:
            inv = invert(m)
        except ValueError:
            continue
        for i in range(n):
            for j in range(n):
                entry = sum(m[i][k] * inv[k][j] for k in range(n))
                assert entry == (1 if i == j else 0)
