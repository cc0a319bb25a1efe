"""Small exact linear algebra kernel over Fraction (rank, inverse)."""

from __future__ import annotations

from fractions import Fraction


def row_reduce(rows):
    """In-place-free reduced row echelon form; returns (rref, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrix_rank(rows) -> int:
    return len(row_reduce(rows)[1])


def invert_matrix(rows):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    red, pivots = row_reduce(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a):
    return [list(col) for col in zip(*a)]
