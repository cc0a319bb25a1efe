"""Small exact linear algebra kernel over the rationals (rank, inverse).

Entries are ints or Fractions.  The RREF and the rank scale the matrix to
integers (``scalars.scale_to_integers``), and the private inverse takes an
all-int matrix (its caller, ``liealg``'s basis change, scales T itself).
Every kernel eliminates in int arithmetic and builds a Fraction only for an
entry it returns (fraction-free elimination): the rank builds none, and the
inverse returns int entries over one denominator.  The elimination divides
each updated row exactly by the previous pivot (Bareiss, Math. Comp. 22,
1968), so every entry stays a minor of the input and no row needs a gcd.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import scale_to_integers


def _eliminate(m, reduce=True):
    """Fraction-free elimination of integer rows in place; returns the pivot columns.

    The pivot of column c is the first row at or below r with a nonzero entry
    there; a column without one is skipped, and the walk stops once every row
    holds a pivot.  Each update (piv * row_i - f * row_r) / prev, prev the previous
    pivot (1 at the start), divides exactly (Bareiss): every entry stays a minor of
    the input, so the rows grow no faster than those minors.  Every row the
    step covers is updated, a zero f included, or the next division would
    not be exact.  With reduce=True the rows above each pivot are cleared too
    (Gauss-Jordan), and every pivot row ends with the last pivot on its
    pivot column; otherwise only the rows below it, which is all a rank needs.
    """
    pivots = []
    prev = 1
    r = 0
    rows = len(m)
    for c in range(len(m[0]) if m else 0):
        for pr in range(r, rows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        piv = top[c]
        for i in range(0 if reduce else r + 1, rows):
            f = m[i][c]
            if i != r and (f or piv != prev):
                m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == rows:
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
    """(M, d) with M integer and M / d the inverse of a square int matrix T, or None.

    Gauss-Jordan on [T | I] leaves det * [I | T**-1] with det the
    determinant of T up to sign, so d = |det| is read off the diagonal.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if _eliminate(m) != list(range(n)):
        return None
    det = m[0][0] if m else 1
    sign = 1 if det > 0 else -1
    return [[sign * x for x in row[n:]] for row in m], sign * det


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
