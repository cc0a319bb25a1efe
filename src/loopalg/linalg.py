"""Small exact linear algebra kernel over the rationals (rank, inverse).

Entries are ints or Fractions.  Every kernel scales the matrix to integers
(``scalars.scale_to_integers``), eliminates in int arithmetic and builds a
Fraction only for an entry it returns (fraction-free elimination): the rank
builds none, and the inverse returns int entries over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import scale_to_integers


def _eliminate(m, reduce=True):
    """Fraction-free elimination of integer rows in place; returns the pivot columns.

    Each update piv * row_i - f * row_r is kept primitive by dividing out its
    gcd, as in fraction-free elimination (Bareiss, Math. Comp. 22, 1968).
    With reduce=True the rows above each pivot are cleared too (Gauss-Jordan);
    otherwise only the rows below it, which is all a rank needs.
    """
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(0 if reduce else r + 1, len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                row = [piv * a - f * b for a, b in zip(m[i], m[r])]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def row_reduce(rows):
    """Reduced row echelon form of a rational matrix; returns (rref, pivot_columns).

    The RREF is unique, so the result equals Gauss-Jordan elimination over
    Fraction; each pivot row is divided by its pivot once, at the end.
    """
    m = scale_to_integers(rows)[1]
    pivots = _eliminate(m)
    ncols = len(m[0]) if m else 0
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return red + [[Fraction(0)] * ncols for _ in m[len(pivots):]], pivots


def matrix_rank(rows) -> int:
    return len(_eliminate(scale_to_integers(rows)[1], reduce=False))


def _integer_inverse(rows):
    """(M, d) with M integer and M / d the inverse of a square rational matrix, or None."""
    n = len(rows)
    m = scale_to_integers([list(row) + [int(i == j) for j in range(n)]
                           for i, row in enumerate(rows)])[1]
    if _eliminate(m) != list(range(n)):
        return None
    den = lcm(*[m[r][r] for r in range(n)])
    return [[x * (den // row[r]) for x in row[n:]] for r, row in enumerate(m)], den


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
