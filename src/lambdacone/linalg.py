"""Exact linear algebra over the rationals: RREF, kernels, inversion.

Matrices are lists of lists of Fraction.  Everything is small (at most a few
hundred rows) and exact, so plain fraction-free-ish Gauss-Jordan is enough.
"""

from __future__ import annotations

from fractions import Fraction


def rref(matrix: list) -> tuple:
    """Reduce ``matrix`` in place to reduced row echelon form.

    Returns (pivot_columns, rank).  Pivots are chosen left to right, so the
    result is canonical for a given column order.
    """
    if not matrix:
        return [], 0
    n_rows = len(matrix)
    n_cols = len(matrix[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, n_rows):
            if matrix[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        matrix[row], matrix[pivot_row] = matrix[pivot_row], matrix[row]
        inv = Fraction(1) / matrix[row][col]
        matrix[row] = [x * inv for x in matrix[row]]
        for r in range(n_rows):
            if r != row and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return pivots, len(pivots)


def kernel_basis(matrix: list, n_cols: int) -> list:
    """Canonical basis of the null space of ``matrix`` (rows = equations).

    Each basis vector has a leading 1 at a distinct column and zeros at the
    leading columns of the other vectors; vectors are ordered by leading
    column.  The input matrix is not modified.
    """
    work = [list(row) for row in matrix]
    pivots, _ = rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -work[r][f]
        vectors.append(v)
    if not vectors:
        return []
    # Echelonize the kernel itself so leading entries sit as far left as
    # possible with coefficient 1 (deterministic representatives).
    pivots, rank = rref(vectors)
    return vectors[:rank]


def invert(matrix: list) -> list:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(matrix)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    pivots, rank = rref(work)
    if rank != n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]
