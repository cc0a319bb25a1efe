"""Small exact linear algebra kernel over the rationals (rank, inverse).

Entries are ints or Fractions.  Row reduction eliminates over the integers
and divides by each pivot once, at the end (fraction-free elimination).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def row_reduce(rows):
    """Reduced row echelon form of a rational matrix; returns (rref, pivot_columns).

    Each row is scaled to integers by the lcm of its denominators, updated as
    piv * row_i - f * row_r and kept primitive by dividing out its gcd, as in
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968).  The RREF is
    unique, so the result equals Gauss-Jordan elimination over Fraction.
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                row = [piv * a - f * b for a, b in zip(m[i], m[r])]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return red + [[Fraction(0)] * ncols for _ in m[r:]], pivots


def matrix_rank(rows) -> int:
    return len(row_reduce(rows)[1])


def invert_matrix(rows):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
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
