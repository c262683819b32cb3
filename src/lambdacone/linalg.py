"""Exact linear algebra over the rationals: RREF and kernels.

Matrices are lists of lists of exact rationals: int or Fraction, never float.
``rref`` divides, so the rows it reduces hold Fractions; ``kernel_basis``
returns an integral entry as an int.  Everything is small (at most a few
hundred rows) and exact, so plain Gauss-Jordan is enough.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import _exact


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
        matrix[row] = [x * inv if x else x for x in matrix[row]]
        for r in range(n_rows):
            if r != row and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b if b else a
                             for a, b in zip(matrix[r], matrix[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return pivots, len(pivots)


def kernel_basis(matrix: list, n_cols: int) -> list:
    """Canonical basis of the null space of ``matrix`` (rows = equations).

    Each basis vector has a leading 1 at a distinct column and zeros at the
    leading columns of the other vectors; vectors are ordered by leading
    column.  The input matrix is not modified.  Reducing with the columns
    reversed makes the free columns the leftmost possible ones, and the vector
    of free column f is nonzero only at f and at pivot columns right of f, so
    one RREF gives the reduced echelon basis of the kernel.
    """
    work = [row[::-1] for row in matrix]
    pivots, _ = rref(work)
    pivot_set = set(pivots)
    vectors = []
    for f in reversed(range(n_cols)):
        if f in pivot_set:
            continue
        v = [0] * n_cols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = _exact(-work[r][f])
        vectors.append(v[::-1])
    return vectors
