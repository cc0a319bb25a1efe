"""The exact kernels against the plain Fraction algorithms they replaced.

Each reference below is the earlier implementation of a kernel:
Gauss-Jordan elimination over Fraction, congruence diagonalization over
Fraction, the dense adjoint table behind the structural invariants, the
basis change that multiplies PuiseuxScalars term by term, matrix
commutators multiplied out in Fraction, and the loop quotient built as one
PuiseuxScalar per base term.  The kernels must return exactly what the references return.
The layered storage of ``LieAlgebra`` is checked the same way: its round
trips, substitutions and rescalings against PuiseuxScalar arithmetic on
each constant, and every operation against the canonical integer form of
its layers.
"""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import CLASSIFIED, H2_RESCALED, NON_UNIMODULAR, random_invertible
from loopalg import (
    JacobiViolation,
    LieAlgebra,
    LinearlyDependent,
    LoopSpec,
    NotSymmetric,
    PuiseuxScalar,
    SymbolicAlgebra,
    algebra_from_matrices,
    bundled_spec,
    center_dim,
    classify3,
    contract,
    derived_subalgebra_dim,
    factor_algebra,
    killing_form,
    rescale_basis,
    selection_ok,
    signature,
    WrongDimension,
)
from loopalg import liealg, linalg, scalars
from loopalg.linalg import mat_mul, mat_sub, matrix_rank, row_reduce
from loopalg.liealg import ContractionUndefined, NotInSpan
from loopalg.loop import SpecJacobiViolation
from loopalg.scalars import add_term


# -- references ------------------------------------------------------------------

def gauss_jordan(rows):
    """Reduced row echelon form over Fraction; returns (rref, pivot_columns)."""
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


def ref_signature(form):
    """Inertia by congruence diagonalization over Fraction."""
    m = [[Fraction(x) for x in row] for row in form]
    n = len(m)
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if i is None:
                    continue
                for j in range(n):
                    m[k][j] += m[i][j]
                for row in m:
                    row[k] += row[i]
        piv = m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / piv
                for j in range(n):
                    m[i][j] -= f * m[k][j]
                for row in m:
                    row[i] -= f * row[k]
    pos = sum(1 for k in range(n) if m[k][k] > 0)
    neg = sum(1 for k in range(n) if m[k][k] < 0)
    return pos, neg, n - pos - neg


def dense_ad(alg):
    """ad[a][e][d] = C_ad^e as a dense Fraction table."""
    n = alg.dim
    ad = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in alg.constants_fraction().items():
        ad[i][k][j] = c
        ad[j][k][i] = -c
    return ad


def ref_derived_dim(alg):
    ad, n = dense_ad(alg), alg.dim
    rows = [[ad[i][k][j] for k in range(n)] for i in range(n) for j in range(i + 1, n)]
    return len(gauss_jordan(rows)[1])


def ref_center_dim(alg):
    ad, n = dense_ad(alg), alg.dim
    rows = [[ad[a][e][b] for a in range(n)] for b in range(n) for e in range(n)]
    return n - len(gauss_jordan(rows)[1])


def ref_killing(alg):
    ad, n = dense_ad(alg), alg.dim
    form = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            tr = sum(ad[a][e][d] * ad[b][d][e] for e in range(n) for d in range(n))
            form[a][b] = form[b][a] = tr
    return form


def ref_classify3(alg):
    ad = dense_ad(alg)
    d = ref_derived_dim(alg)
    if d == 0:
        return "abelian3"
    sig = signature(ref_killing(alg))
    if d == 1:
        return "heisenberg" if ref_center_dim(alg) == 1 and sig == (0, 0, 3) else "other"
    if d == 2:
        if any(sum(ad[a][e][e] for e in range(3)) for a in range(3)):
            return "other"
        return {(0, 1, 2): "e2", (1, 0, 2): "e11"}.get(sig, "other")
    return {(0, 3, 0): "so3", (2, 1, 0): "so21"}.get(sig, "other")


def ref_inverse(t):
    """T**-1 over Fraction: the right block of the Gauss-Jordan form of [T | I]."""
    n = len(t)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(t)]
    return [row[n:] for row in gauss_jordan(aug)[0]]


def ref_change_basis(alg, t):
    """Basis change with PuiseuxScalar arithmetic on every term."""
    n = alg.dim
    tinv = ref_inverse(t)
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            vec = {}
            for (i, j), row in alg.brackets().items():
                w = t[a][i] * t[b][j] - t[a][j] * t[b][i]
                for k, s in row.items():
                    if w:
                        add_term(vec, k, w * s)
            out = {}
            for k, s in vec.items():
                for l in range(n):
                    if tinv[k][l]:
                        add_term(out, l, tinv[k][l] * s)
            if out:
                table[(a, b)] = out
    return LieAlgebra(n, table, names=alg.names)


def ref_algebra_from_matrices(mats, names=None):
    """Structure constants from Fraction commutators solved by gauss_jordan."""
    mats = [[[Fraction(x) for x in row] for row in m] for m in mats]
    n, d = len(mats), len(mats[0])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    comms = [mat_sub(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i])) for i, j in pairs]
    red, pivots = gauss_jordan(
        [[m[r][c] for m in mats + comms] for r in range(d) for c in range(d)])
    assert pivots[:n] == list(range(n))
    brackets = {}
    for col, (i, j) in enumerate(pairs, start=n):
        assert not any(row[col] for row in red[n:])
        brackets[(i, j)] = {k: red[k][col] for k in range(n) if red[k][col]}
    return LieAlgebra(n, brackets, names=names)


def ref_factor_algebra(spec, m):
    """The quotient at a closed selection m: each base term c * h**p of
    base_brackets() as the PuiseuxScalar c * eps**(m_i + m_j + p - m_k)."""
    table = {}
    for (i, j), terms in spec.base_brackets().items():
        for k, c, p in terms:
            table.setdefault((i, j), {})[k] = PuiseuxScalar.monomial(c, m[i] + m[j] + p - m[k])
    return LieAlgebra(spec.n_generators, table)


# -- inputs ------------------------------------------------------------------------

def random_entry(rng):
    if rng.random() < 0.35:
        return 0
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7, 12)))


def random_matrix(rng):
    """Random rational matrix with zero rows/columns and dependent rows mixed in."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    m = [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:
        m[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in m:
            row[c] = 0
    if nrows >= 3 and rng.random() < 0.5:
        f, g = random_entry(rng), random_entry(rng)
        m[-1] = [f * x + g * y for x, y in zip(m[0], m[1])]
    return m


def random_symmetric(rng, n):
    """Random symmetric rational matrix; some singular, some with an all-zero diagonal."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = random_entry(rng)
    shape = rng.random()
    if shape < 0.25:
        for i in range(n):
            m[i][i] = 0
    elif shape < 0.5 and n >= 2:
        # a repeated row and column: singular
        i, j = rng.sample(range(n), 2)
        f = random_entry(rng)
        m[j] = [f * x for x in m[i]]
        for row in m:
            row[j] = f * row[i]
    return m


def random_basis(rng, n):
    while True:
        t = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
             for _ in range(n)]
        if len(gauss_jordan(t)[1]) == n:
            return t


def lorentz_matrices():
    """4x4 rotations, boosts E_i4 + E_4i and translations E_i4, as int matrices."""
    def e(*cells):
        return [[int((r, c) in cells) for c in range(4)] for r in range(4)]

    rotations = [mat_sub(e((k, j)), e((j, k))) for j, k in ((1, 2), (2, 0), (0, 1))]
    return (rotations, [e((i, 3), (3, i)) for i in range(3)], [e((i, 3)) for i in range(3)])


def so31():
    """so(3,1) from the 4x4 rotation and boost matrices."""
    rotations, boosts, _ = lorentz_matrices()
    return algebra_from_matrices(rotations + boosts)


def conjugate(mats, p):
    """p^-1 A p for each A: the same structure constants, non-integer entries."""
    p_inv = ref_inverse(p)
    return [mat_mul(mat_mul(p_inv, a), p) for a in mats]


# -- matrix commutators ------------------------------------------------------------

def test_algebra_from_matrices_matches_fraction_commutators():
    rng = random.Random(4613)
    rotations, boosts, translations = lorentz_matrices()
    half = Fraction(1, 2)
    sl2 = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
    families = [rotations + boosts, rotations + translations, sl2,
                [[[x * half for x in row] for row in m] for m in sl2]]
    cases = [(mats, None) for mats in families]
    for mats in families:
        d = len(mats[0])
        for _ in range(3):
            # conjugated and rescaled generators: entries with mixed denominators
            factors = [Fraction(rng.randint(1, 5), rng.choice((1, 2, 3, 7))) for _ in mats]
            scaled = [[[x * f for x in row] for row in m] for m, f in zip(mats, factors)]
            cases.append((conjugate(scaled, random_basis(rng, d)), None))
    cases.append((rotations + boosts, ["J1", "J2", "J3", "B1", "B2", "B3"]))
    for mats, names in cases:
        alg = algebra_from_matrices(mats, names=names)
        assert alg.to_json() == ref_algebra_from_matrices(mats, names).to_json()
    assert any(Fraction(t["c"]).denominator > 1
               for case in cases[len(families):]
               for entry in algebra_from_matrices(case[0]).to_json()["brackets"]
               for t in entry["terms"])


def test_algebra_from_matrices_errors_on_rational_generators():
    p = [[Fraction(1, 2), 1], [Fraction(1, 3), 2]]
    d, e, f = conjugate([[[Fraction(1, 3), 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]], p)
    with pytest.raises(LinearlyDependent):
        algebra_from_matrices([e, [[x * Fraction(3, 7) for x in row] for row in e]])
    with pytest.raises(NotInSpan) as err:  # [d, e] = e / 3, but [e, f] leaves the span
        algebra_from_matrices([d, e, f])
    assert err.value.pair == (1, 2)


# -- row reduction -------------------------------------------------------------------

def test_row_reduce_matches_fraction_gauss_jordan():
    rng = random.Random(6061)
    shapes = set()
    deficient = 0
    for _ in range(400):
        m = random_matrix(rng)
        before = [list(row) for row in m]
        red, pivots = row_reduce(m)
        assert (red, pivots) == gauss_jordan(m)
        assert all(type(x) is Fraction for row in red for x in row)
        assert m == before
        assert matrix_rank(m) == len(pivots)
        if m and m[0]:
            shapes.add((len(m) > len(m[0])) - (len(m) < len(m[0])))
            deficient += len(pivots) < min(len(m), len(m[0]))
    assert shapes == {-1, 0, 1} and deficient > 50


def test_matrix_rank_builds_no_fraction_and_no_rref(monkeypatch):
    rng = random.Random(6061)
    cases = [random_matrix(rng) for _ in range(400)]
    ranks = [len(row_reduce(m)[1]) for m in cases]

    def refuse(*args):
        raise AssertionError("matrix_rank built a Fraction or an RREF")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    monkeypatch.setattr(linalg, "row_reduce", refuse)
    assert [matrix_rank(m) for m in cases] == ranks


def test_integer_inverse_is_the_exact_inverse():
    rng = random.Random(17)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        t = scalars.scale_to_integers([[random_entry(rng) for _ in range(n)] for _ in range(n)])[1]
        inv = linalg._integer_inverse(t)
        if inv is None:
            singular += 1
            assert len(gauss_jordan(t)[1]) < n
        else:
            m, d = inv
            assert type(d) is int and d > 0
            assert all(type(x) is int for row in m for x in row)
            # T * (M / d) = I
            assert mat_mul(t, m) == [[d * int(i == j) for j in range(n)] for i in range(n)]
            assert [[Fraction(x, d) for x in row] for row in m] == ref_inverse(t)
    assert 0 < singular < 200


def low_rank(rng, nrows, ncols, rank):
    """nrows x ncols matrix whose rows are small integer combinations of
    `rank` random rational rows, so its rank is at most `rank`."""
    base = [[random_entry(rng) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-3, 3) for _ in range(rank)]
        rows.append([sum(c * x for c, x in zip(coeffs, col)) for col in zip(*base)] if rank
                    else [0] * ncols)
    return rows


def check_elimination(m):
    """row_reduce, matrix_rank and _integer_inverse of m against the Fraction references."""
    red, pivots = gauss_jordan(m)
    assert row_reduce(m) == (red, pivots)
    assert matrix_rank(m) == len(pivots)
    if len(m) == (len(m[0]) if m else 0):
        s = scalars.scale_to_integers(m)[1]
        inv = linalg._integer_inverse(s)
        if len(pivots) < len(m):
            assert inv is None
        else:
            inverse, d = inv
            assert [[Fraction(x, d) for x in row] for row in inverse] == ref_inverse(s)
    return len(pivots)


def test_bareiss_elimination_matches_fraction_gauss_jordan_on_low_rank_matrices():
    # exact division by the previous pivot must hold through row swaps,
    # skipped columns and rows whose entry in the pivot column is zero
    rng = random.Random(1968)
    deficient = full = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rank = rng.randint(0, min(nrows, ncols))
        m = low_rank(rng, nrows, ncols, rank)
        if rng.random() < 0.3:
            c = rng.randrange(ncols)
            for row in m:
                row[c] = 0
        got = check_elimination(m)
        assert got <= rank
        deficient += got < min(nrows, ncols)
    for _ in range(40):
        n = rng.randint(1, 12)
        full += check_elimination(low_rank(rng, n, n, n)) == n
    assert deficient > 75 and full > 20


def test_bareiss_elimination_of_a_large_matrix_matches_and_stays_fast():
    rng = random.Random(22)
    cases = [low_rank(rng, 24, 24, 20), low_rank(rng, 24, 24, 24)]
    start = time.perf_counter()
    results = [(row_reduce(m), matrix_rank(m),
                linalg._integer_inverse(scalars.scale_to_integers(m)[1])) for m in cases]
    elapsed = time.perf_counter() - start
    for m, (reduced, rank, inv) in zip(cases, results):
        assert reduced == gauss_jordan(m) and rank == len(reduced[1])
    assert results[0][2] is None and results[0][1] <= 20
    inverse, d = results[1][2]
    assert results[1][1] == 24
    assert [[Fraction(x, d) for x in row] for row in inverse] == ref_inverse(
        scalars.scale_to_integers(cases[1])[1])
    assert elapsed < 0.5


@pytest.mark.parametrize("m", [
    [],
    [[0, 0, 0], [0, 0, 0]],
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    [[1, 2], [3, 4], [5, 6], [7, 9]],
    [[0, 1], [0, 2], [3, 0]],
    [[1, 2, 3, 4], [2, 4, 7, 1]],
], ids=["empty", "zero", "zero_first_column", "more_rows_than_columns", "pivot_in_the_last_row",
        "more_columns_than_rows"])
def test_bareiss_elimination_of_degenerate_shapes(m):
    # no pivot at all, a skipped column, a pivot found in the last row, and the
    # early exit once every row holds a pivot with columns left over
    check_elimination(m)


def test_integer_inverse_of_a_singular_int_matrix_is_none():
    for m in ([[0]], [[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[0, 0], [0, 1]]):
        assert linalg._integer_inverse(m) is None
        assert check_elimination(m) < len(m)


def test_integer_inverse_of_an_int_matrix_skips_the_rational_scaling(monkeypatch):
    rng = random.Random(3131)
    cases = [low_rank(rng, n, n, rng.choice((n, n, n - 1))) for n in range(1, 9) for _ in range(20)]
    cases = [[[int(x * 420) for x in row] for row in m] for m in cases]

    def refuse(rows):
        raise AssertionError("_integer_inverse scaled an all-int matrix")

    monkeypatch.setattr(linalg, "scale_to_integers", refuse)
    regular = 0
    for m in cases:
        inv = linalg._integer_inverse(m)
        if len(gauss_jordan(m)[1]) < len(m):
            assert inv is None
        else:
            inverse, d = inv
            assert [[Fraction(x, d) for x in row] for row in inverse] == ref_inverse(m)
            regular += 1
    assert 40 < regular < len(cases)


# -- signature -------------------------------------------------------------------------

def shaped_symmetric(rng):
    """Matrices with repeated and zero eigenvalues: rank-1 +-v v^T and P D P^T with
    D over {-2, 0, 3}, each with the inertia it is built to have."""
    for n in range(1, 9):
        for _ in range(3):
            v = [rng.randint(-3, 3) for _ in range(n)]
            s = rng.choice((1, -1))
            rank = int(any(v))
            yield [[s * x * y for y in v] for x in v], (rank * (s > 0), rank * (s < 0), n - rank)
            d = [rng.choice((-2, 0, 3)) for _ in range(n)]
            p = random_basis(rng, n)
            pdp = [[sum(pi[k] * d[k] * pj[k] for k in range(n)) for pj in p] for pi in p]
            yield pdp, (sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0))


def test_signature_matches_fraction_congruence():
    rng = random.Random(1212)
    seen = set()
    cases = [(random_symmetric(rng, rng.randint(0, 8)), None) for _ in range(1500)]
    for m, built in cases + list(shaped_symmetric(random.Random(2424))):
        n = len(m)
        sig = signature(m)
        assert built in (None, sig), m
        assert sig == ref_signature(m), m
        seen.add((sig[2] > 0, n > 0 and not any(m[i][i] for i in range(n))))
    # singular and regular matrices, with and without an all-zero diagonal
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def ref_det(m):
    """Determinant over Fraction by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_charpoly_matches_determinants():
    rng = random.Random(3030)
    for _ in range(300):
        n = rng.randint(0, 7)
        if rng.random() < 0.5:
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        else:  # 420 clears every denominator random_entry draws
            a = [[int(x * 420) for x in row] for row in random_symmetric(rng, n)]
        coeffs = scalars._charpoly(a)
        assert len(coeffs) == n + 1 and all(type(c) is int for c in coeffs), a
        for t in range(-2, n + 2):
            shifted = [[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a)]
            assert sum(c * t ** (n - k) for k, c in enumerate(coeffs)) == ref_det(shifted), (a, t)


def test_signature_of_a_large_matrix_matches_and_stays_fast():
    rng = random.Random(24)
    m = random_symmetric(rng, 24)
    for i in range(24):
        m[i][i] = 0
    start = time.perf_counter()
    sig = signature(m)
    elapsed = time.perf_counter() - start
    assert sig == ref_signature(m)
    assert elapsed < 0.5


def test_signature_of_an_int_matrix_skips_the_rational_scaling(monkeypatch):
    rng = random.Random(2121)
    # 420 clears every denominator random_entry draws
    cases = [[[int(x * 420) for x in row] for row in random_symmetric(rng, rng.randint(0, 8))]
             for _ in range(300)]

    def refuse(rows):
        raise AssertionError("signature scaled an all-int matrix")

    monkeypatch.setattr(scalars, "scale_to_integers", refuse)
    for m in cases:
        assert signature(m) == ref_signature(m), m
    with pytest.raises(AssertionError, match="scaled"):
        signature([[Fraction(1, 2)]])


def test_signature_refuses_what_it_refused_before_the_inertia_kernel():
    with pytest.raises(NotSymmetric, match="^matrix is not square$"):
        signature([[1, 0], [0]])
    with pytest.raises(NotSymmetric, match="^matrix is not square$"):
        signature([[1, 2, 3]])
    with pytest.raises(NotSymmetric, match=r"^entry \(0,2\) != \(2,0\)$"):
        signature([[1, 0, 1], [0, 1, 0], [2, 0, 1]])
    with pytest.raises(NotSymmetric, match=r"^entry \(0,1\) != \(1,0\)$"):
        signature([[0, Fraction(1, 2)], ["1/3", 0]])
    with pytest.raises(TypeError, match=r"^not an exact rational: 1\.5$"):
        signature([[1.5]])
    with pytest.raises(TypeError, match="^not an exact rational: True$"):
        signature([[1, True], [True, 1]])


# -- invariants ----------------------------------------------------------------------

def _invariant_cases():
    rng = random.Random(3141)
    bases = [build() for build in CLASSIFIED.values()]
    bases += [LieAlgebra(3, table) for table in NON_UNIMODULAR.values()]
    for alg in bases:
        yield alg
        for _ in range(20):
            yield alg.change_basis(random_basis(rng, 3))


def test_invariants_match_dense_reference():
    count = 0
    for alg in _invariant_cases():
        assert derived_subalgebra_dim(alg) == ref_derived_dim(alg)
        assert center_dim(alg) == ref_center_dim(alg)
        kill = killing_form(alg)
        assert kill == ref_killing(alg)
        assert all(type(x) is Fraction for row in kill for x in row)
        assert classify3(alg) == ref_classify3(alg)
        count += 1
    assert count == 9 * 21


def test_invariants_of_so31_match_dense_reference():
    rng = random.Random(31)
    base = so31()
    for alg in [base] + [base.change_basis(random_basis(rng, 6)) for _ in range(3)]:
        assert derived_subalgebra_dim(alg) == ref_derived_dim(alg) == 6
        assert center_dim(alg) == ref_center_dim(alg) == 0
        assert killing_form(alg) == ref_killing(alg)


def bianchi(a=None, extra=None):
    """ad X2 acting on span(X0, X1) by the 2x2 matrix a: [X2, X_c] = sum_b a[b][c] X_b;
    extra adds brackets to the table."""
    table = {(c, 2): {b: -a[b][c] for b in range(2)} for c in range(2)} if a else {}
    return LieAlgebra(3, {**table, **(extra or {})})


# One representative of each Bianchi type, VI_h at h = 2 and -1/3 (as diag(1, h))
BIANCHI = {
    "I": bianchi(),
    "II": bianchi(extra={(0, 1): {2: 1}}),
    "III": bianchi([[1, 0], [0, 0]]),
    "IV": bianchi([[1, 1], [0, 1]]),
    "V": bianchi([[1, 0], [0, 1]]),
    "VI_0": bianchi([[1, 0], [0, -1]]),
    "VI_2": bianchi([[1, 0], [0, 2]]),
    "VI_-1/3": bianchi([[1, 0], [0, Fraction(-1, 3)]]),
    "VII_0": bianchi([[0, -1], [1, 0]]),
    "VII_1/2": bianchi([[Fraction(1, 2), -1], [1, Fraction(1, 2)]]),
    "VIII": bianchi(extra={(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: 1}}),
    "IX": bianchi(extra={(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
}


def fractional_basis(rng):
    """A random invertible 3x3 basis change with at least one non-integer entry."""
    while True:
        t = random_basis(rng, 3)
        if any(x.denominator > 1 for row in t for x in row):
            return t


def test_classify3_matches_dense_reference_on_every_bianchi_type():
    labels = {"I": "abelian3", "II": "heisenberg", "VI_0": "e11", "VII_0": "e2",
              "VIII": "so21", "IX": "so3"}
    rng = random.Random(1898)
    for name, alg in BIANCHI.items():
        assert classify3(alg) == ref_classify3(alg) == labels.get(name, "other")
        for _ in range(20):
            changed = alg.change_basis(fractional_basis(rng))
            assert classify3(changed) == ref_classify3(changed)


def test_classify3_matches_dense_reference_on_changed_quotients():
    count = 0
    for _, changed, _ in _changed_quotients():
        for eps in (1, Fraction(1, 3), 0, -1, Fraction(-3, 2)):
            alg = changed.evaluate_at(eps)
            assert classify3(alg) == ref_classify3(alg)
            count += 1
    assert count > 100


def test_classify3_reads_the_inertia_kernel_not_the_public_signature(monkeypatch):
    def refuse(form):
        raise AssertionError("classify3 called the public signature")

    monkeypatch.setattr(scalars, "signature", refuse)
    monkeypatch.setattr(liealg, "signature", refuse, raising=False)
    labels = {"I": "abelian3", "II": "heisenberg", "VI_0": "e11", "VII_0": "e2",
              "VIII": "so21", "IX": "so3"}
    rng = random.Random(1969)
    for name, alg in BIANCHI.items():
        assert classify3(alg) == labels.get(name, "other")
        for _ in range(10):
            changed = alg.change_basis(random_invertible(rng, 3))
            assert classify3(changed) == ref_classify3(changed) == labels.get(name, "other")


def test_classify3_labels_every_small_symmetric_bianchi_matrix_by_its_inertia():
    # [X_i, X_j] = sum_m eps_ijm M[m] is a Lie algebra for every symmetric M (class A)
    rng = random.Random(1925)
    wide = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(2000)]
    count = 0
    for a, b, c, d, e, f in itertools.chain(itertools.product((-1, 0, 1), repeat=6), wide):
        m = [[a, b, c], [b, d, e], [c, e, f]]
        alg = LieAlgebra(3, {(0, 1): dict(enumerate(m[2])), (1, 2): dict(enumerate(m[0])),
                             (0, 2): {k: -x for k, x in enumerate(m[1])}})
        pos, neg, _ = ref_signature(m)
        assert classify3(alg) == liealg._BIANCHI_LABELS[max(pos, neg), min(pos, neg)], m
        count += 1
    assert count == 729 + 2000


@pytest.mark.parametrize("reader", [derived_subalgebra_dim, center_dim, killing_form, classify3])
def test_invariant_readers_name_themselves_on_symbolic_input(reader):
    family = factor_algebra(bundled_spec("h2"))
    with pytest.raises(SymbolicAlgebra, match=f"^{reader.__name__} requires eps-free"):
        reader(family)


# -- loop quotients ---------------------------------------------------------------------

def test_quotient_over_mixed_denominators_matches_the_puiseux_reference():
    spec = LoopSpec.from_json(H2_RESCALED)
    assert {ij: [c for _, c, _ in terms] for ij, terms in spec.base_brackets().items()} == {
        (0, 1): [Fraction(1, 3)], (0, 2): [Fraction(-3, 4)], (1, 2): [Fraction(4, 3)]}
    closed = 0
    for m in itertools.product(range(4), repeat=3):
        ok = selection_ok(spec, m)
        assert ok == all(m[i] + m[j] + p >= m[k]
                         for (i, j), terms in spec.base_brackets().items() for k, _, p in terms)
        if ok:
            assert factor_algebra(spec, m).same_constants(ref_factor_algebra(spec, m))
            closed += 1
    assert closed == 40


# -- basis change ---------------------------------------------------------------------

def test_change_basis_matches_termwise_reference_on_symbolic_quotients():
    rng = random.Random(271)
    families = 0
    for name in ("h2", "l1", "l2"):
        spec = bundled_spec(name)
        for sel in itertools.product(range(3), repeat=3):
            if not selection_ok(spec, sel):
                continue
            family = factor_algebra(spec, sel)
            families += family.is_symbolic
            t = random_basis(rng, 3)
            changed = family.change_basis(t)
            assert changed.same_constants(ref_change_basis(family, t))
            for eps in (1, Fraction(1, 4), 0, -1):
                assert changed.evaluate_at(eps).same_constants(family.evaluate_at(eps).change_basis(t))
    assert families > 30


# -- the prepared basis ---------------------------------------------------------------
# change_basis keeps the last T's integer scaling and inverse: a hit must give
# what a miss gives, and what the termwise reference gives.

def test_change_basis_memo_over_a_sequence_of_two_bases():
    rng = random.Random(3)
    family = factor_algebra(bundled_spec("l1"), (1, 0, 1))
    t, t2 = random_basis(rng, 3), random_basis(rng, 3)
    results = [family.change_basis(m) for m in (t, t2, t, t, t2)]
    for got, m in zip(results, (t, t2, t, t, t2)):
        assert got.same_constants(ref_change_basis(family, m))
    assert results[0].same_constants(results[2]) and results[1].same_constants(results[4])
    for eps in (1, Fraction(1, 2), 0, -1):
        point = family.evaluate_at(eps)
        assert point.change_basis(t).same_constants(results[0].evaluate_at(eps))


def test_change_basis_memo_keys_on_the_exact_entries():
    alg = CLASSIFIED["so3"]()
    ints = [[1, 2, 0], [0, 1, -1], [3, 0, 1]]
    info = liealg._prepared_basis.cache_info
    start = info()
    results = [alg.change_basis(ints),
               alg.change_basis([[Fraction(x) for x in row] for row in ints]),
               alg.change_basis([[str(x) for x in row] for row in ints]),
               alg.change_basis([[Fraction(2 * x, 2) for x in row] for row in ints])]
    assert info().misses - start.misses <= 1 and info().hits - start.hits >= 3
    assert info().currsize == info().maxsize == 1
    want = ref_change_basis(alg, [[Fraction(x) for x in row] for row in ints])
    assert all(got.same_constants(want) for got in results)
    # T / 2 is another key: a miss, and the result of T / 2
    halves = [[Fraction(x, 2) for x in row] for row in ints]
    misses = info().misses
    assert alg.change_basis(halves).same_constants(ref_change_basis(alg, halves))
    assert info().misses == misses + 1


def test_change_basis_memo_reads_the_callers_matrix_again():
    rng = random.Random(5)
    alg = factor_algebra(bundled_spec("h2"))
    t = [list(row) for row in random_basis(rng, 3)]
    before = [list(row) for row in t]
    first = alg.change_basis(t)
    # the same list objects, changed in place
    t[0][2] -= Fraction(1, 2)
    while len(gauss_jordan(t)[1]) < 3:
        t[0][0] += 1
    second = alg.change_basis(t)
    assert first.same_constants(ref_change_basis(alg, before))
    assert second.same_constants(ref_change_basis(alg, t))
    assert not second.same_constants(first)


def test_change_basis_memo_never_keeps_a_refusal():
    alg = CLASSIFIED["so21"]()
    t = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    good = alg.change_basis(t)
    singular = [[1, 1, 0], [2, 2, 0], [0, 0, 1]]
    for _ in range(2):
        with pytest.raises(LinearlyDependent, match="^change-of-basis matrix is singular$"):
            alg.change_basis(singular)
    alg.change_basis(t)
    for wrong in ([[1, 0], [0, 1]], [[1, 1, 0], [0, 1, 0]], [[1, 1, 0], [0, 1], [0, 0, 2]]):
        with pytest.raises(WrongDimension, match="^change-of-basis matrix must be dim x dim$"):
            alg.change_basis(wrong)
    with pytest.raises(TypeError, match=r"^not an exact rational: 0\.5$"):
        alg.change_basis([[1, 1, 0], [0, 0.5, 0], [0, 0, 2]])
    assert alg.change_basis(t).same_constants(good)
    assert good.same_constants(ref_change_basis(alg, [[Fraction(x) for x in row] for row in t]))


_DIM = "change-of-basis matrix must be dim x dim"


# every entry of T is read before its shape is checked, and a string row is
# refused once its characters are read, so the first fault of T in that order wins
@pytest.mark.parametrize("t, error, message", [
    ([[1, 0, 0], "010", [0, 0, 1]], TypeError, "a row or vector must be a list, got the string '010'"),
    ([[1, 0, 0], "0a0", [0, 0, 1]], scalars.InputError, "not a rational: 'a'"),
    ([[1, 0, 0], [0, 1], [0, 0, 1]], WrongDimension, _DIM),
    ([[1, 0, 0], [0, 1, 0, 0], [0, 0, 1]], WrongDimension, _DIM),
    ([[1, 0, 0], [0, 1, 0]], WrongDimension, _DIM),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]], WrongDimension, _DIM),
    ([[1, 0, 0], [0, 0.5, 0], [0, 0, 1]], TypeError, "not an exact rational: 0.5"),
    ([[1, 0, 0], [0, True, 0], [0, 0, 1]], TypeError, "not an exact rational: True"),
    ([[1, 0, 0], [0, "1_0", 0], [0, 0, 1]], scalars.InputError, "not a rational: '1_0'"),
    ([[1, 0, 0], [0, "1/0", 0], [0, 0, 1]], scalars.InputError, "zero denominator: '1/0'"),
    ([[1, 1, 0], [2, 2, 0], [0, 0, 1]], LinearlyDependent, "change-of-basis matrix is singular"),
    ([[1, 0], [0, 1, 0], [0, 0, 0.5]], TypeError, "not an exact rational: 0.5"),
    ([[0.5, 0, 0], [0, 1, 0], [0, 0]], TypeError, "not an exact rational: 0.5"),
    ([[1, 0, 0], [0, 0.5, 0]], TypeError, "not an exact rational: 0.5"),
    (["100", [0, 1, 0], [0, 0]], TypeError, "a row or vector must be a list, got the string '100'"),
    ([[1, 0], [0, 1, 0], "001"], TypeError, "a row or vector must be a list, got the string '001'"),
    ([[1, 1, 0], [1, 1, 0], [0, 0, "1_0"]], scalars.InputError, "not a rational: '1_0'"),
    ([[1, 0, 0], None, [0, 0, 1]], TypeError, "'NoneType' object is not iterable"),
], ids=["string_row", "string_row_no_rational", "short_row", "long_row", "two_rows", "four_rows",
        "float", "bool", "digit_separator", "zero_denominator", "singular", "short_then_float",
        "float_then_short", "two_rows_then_float", "string_then_short", "short_then_string",
        "singular_then_separator", "none_row"])
def test_change_basis_refuses_a_bad_matrix_by_its_first_fault(t, error, message):
    alg = CLASSIFIED["so3"]()
    for _ in range(2):
        with pytest.raises(error) as info:
            alg.change_basis(t)
        assert type(info.value) is error and str(info.value) == message


def test_change_basis_memo_on_so31():
    rng = random.Random(31)
    alg = so31()
    bases = [random_basis(rng, 6) for _ in range(2)]
    for t in (bases[0], bases[0], bases[1], bases[0]):
        got = alg.change_basis(t)
        assert got.same_constants(ref_change_basis(alg, t))
        assert got.change_basis(ref_inverse(t)).same_constants(alg)


def test_change_basis_memo_keys_a_matrix_of_mixed_entries_once():
    alg = CLASSIFIED["e11"]()
    ints = [[1, 2, 0], [0, 1, -1], [3, 0, 1]]
    mixed = [[1, Fraction(2), "0"], ["0/5", "1", Fraction(-2, 2)], [Fraction(6, 2), 0, "1"]]
    info = liealg._prepared_basis.cache_info
    first = alg.change_basis(ints)
    start = info()
    again = alg.change_basis(mixed)
    assert info().hits == start.hits + 1 and info().misses == start.misses
    want = ref_change_basis(alg, [[Fraction(x) for x in row] for row in ints])
    assert again.same_constants(first) and first.same_constants(want)


def test_prepared_basis_keeps_the_rows_of_t_not_its_minors():
    # the memo holds S = dt * T and its inverse, O(n**2) ints: a table of every 2x2
    # minor of T would take O(n**4), about 63 MB here
    n = 40
    alg = LieAlgebra(n, {(0, 1): {2: 1}})
    t = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    liealg._prepared_basis.cache_clear()
    tracemalloc.start()
    try:
        got = alg.change_basis(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert got.change_basis(ref_inverse(t)).same_constants(alg)


# -- layered storage ----------------------------------------------------------------

def _changed_quotients():
    """h2, l1 and l2 at every closed selection in [0, 2]^3, each also in a random basis."""
    rng = random.Random(1907)
    for name in ("h2", "l1", "l2"):
        spec = bundled_spec(name)
        for sel in itertools.product(range(3), repeat=3):
            if selection_ok(spec, sel):
                family = factor_algebra(spec, sel)
                t = random_basis(rng, 3)
                yield family, family.change_basis(t), t


def ref_rescale(alg, w):
    """Each constant times eps**(w_k - w_i - w_j), in PuiseuxScalar arithmetic."""
    return {(i, j): {k: s * PuiseuxScalar.monomial(1, w[k] - w[i] - w[j]) for k, s in row.items()}
            for (i, j), row in alg.brackets().items()}


def test_storage_round_trips_through_the_public_forms():
    count = 0
    for _, alg, _ in _changed_quotients():
        again = LieAlgebra(alg.dim, alg.brackets(), names=alg.names)
        loaded = LieAlgebra.from_json(alg.to_json())
        for other in (again, loaded):
            assert other.same_constants(alg) and other.names == alg.names
            assert other.brackets() == alg.brackets()
            assert other.to_json() == alg.to_json()
        assert alg.is_symbolic == any(
            q != 0 for row in alg.brackets().values() for s in row.values() for q, _ in s.terms)
        count += 1
    assert count == 65


def test_evaluate_at_matches_substituting_each_scalar():
    for _, alg, _ in _changed_quotients():
        for e in (1, Fraction(1, 4), 0, -1):
            table = {ij: {k: s.substitute(e) for k, s in row.items()}
                     for ij, row in alg.brackets().items()}
            got = alg.evaluate_at(e)
            assert got.same_constants(LieAlgebra(3, table))
            assert got.constants_fraction() == {
                (i, j, k): c for (i, j), row in table.items() for k, c in row.items() if c}


# eps**q of every layer, the exact-power bound's refusal included
POWER_QS = [*range(-3, 4), Fraction(1, 2), Fraction(-2, 3), scalars.MAX_POWER_BITS // 4 + 1]
POWER_EPS = [1, -1, Fraction(2, 3), Fraction(-2, 3), Fraction(-7, 5), 0, 4, Fraction(8, 27)]


def _outcome(fn):
    """fn() or the type and message of the refusal it raises."""
    try:
        return fn()
    except (scalars.Rejected, scalars.InputError) as exc:
        return type(exc), str(exc)


def test_evaluate_at_matches_the_termwise_power_rule(monkeypatch):
    kinds = set()
    for qs in itertools.chain(((q,) for q in POWER_QS), itertools.combinations(POWER_QS, 2)):
        s = PuiseuxScalar(zip(qs, (Fraction(-5, 3), Fraction(7, 2))))
        table = {(0, 1): {2: s}, (0, 2): {1: 3 * s, 2: s}}
        alg = LieAlgebra(3, table)
        for eps in POWER_EPS:
            # every constant has the exponents of s, so s.substitute names the first refusal
            want = _outcome(lambda: {(i, j, k): x.substitute(eps) for (i, j), row in table.items()
                                     for k, x in row.items()})
            got = _outcome(lambda: alg.evaluate_at(eps).constants_fraction())
            assert got == (want if isinstance(want, tuple) else
                           {key: c for key, c in want.items() if c}), (qs, eps)
            if isinstance(got, tuple):
                kinds.add(got[0])
    assert kinds == {scalars.NegativeExponent, scalars.InexactPower, scalars.InputError}
    assert _outcome(lambda: LieAlgebra(3, {(0, 1): {2: PuiseuxScalar.monomial(4, -2)}})
                    .evaluate_at(0)) == (scalars.NegativeExponent,
                                         "term 4*eps^-2 diverges for eps -> 0")

    # an integer q is raised on ints, the sign of a negative eps on the numerator
    def refuse(k, n):
        raise AssertionError("an integer power took a root")

    monkeypatch.setattr(scalars, "_int_nth_root", refuse)
    for q in range(-3, 4):
        alg = LieAlgebra(3, {(0, 1): {2: PuiseuxScalar.monomial(Fraction(-5, 3), q)}})
        for eps in POWER_EPS:
            if eps:
                want = Fraction(-5, 3) * Fraction(eps) ** q
                assert alg.evaluate_at(eps).constants_fraction() == {(0, 1, 2): want}
    assert LieAlgebra(3, {(0, 1): {2: PuiseuxScalar.monomial(1, -3)}}).evaluate_at(
        Fraction(-2, 3)).constants_fraction() == {(0, 1, 2): Fraction(-27, 8)}


# the order-independence twins: exponents with every kind of refusal, eps values that
# reach each of them, and the contraction weights of the quotient ops
TWIN_QS = [-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(2, 3),
           scalars.MAX_POWER_BITS // 4 + 1]
TWIN_EPS = [0, 1, -1, Fraction(2, 3), 4, Fraction(8, 27), Fraction(-1, 8)]
TWIN_WEIGHTS = [-1, 0, Fraction(1, 2), 1, 2]


def _twin(alg):
    """alg built again from its layers, both the layers and each layer's keys reversed."""
    layers = {q: dict(reversed(layer.items())) for q, layer in reversed(alg._layers.items())}
    return LieAlgebra._from_layers(alg.dim, alg._den, layers, alg.names)


def _stored(fn):
    """The stored (den, layers) of the algebra fn() returns, or its refusal."""
    out = _outcome(fn)
    return out if isinstance(out, tuple) else (out._den, out._layers)


def test_refusals_are_a_function_of_the_constants_not_of_their_order():
    # evaluate_at reads the layers only, so these random layers need not be Lie
    rng = random.Random(26)
    kinds = set()
    for _ in range(400):
        n = rng.choice((3, 4))
        keys = [(i, j, k) for i, j in itertools.combinations(range(n), 2) for k in range(n)]
        layers = {q: {key: rng.choice((-5, -3, -2, -1, 1, 2, 3, 4))
                      for key in rng.sample(keys, rng.randint(1, 4))}
                  for q in rng.sample(TWIN_QS, rng.randint(1, 4))}
        alg = LieAlgebra._from_layers(n, rng.choice((1, 2, 3, 6)), layers,
                                      [f"X{i}" for i in range(n)])
        twin = _twin(alg)
        for e in TWIN_EPS:
            got = _stored(lambda: alg.evaluate_at(e))
            assert got == _stored(lambda: twin.evaluate_at(e)), (layers, e)
            kinds.add(got[0] if isinstance(got[0], type) else None)
    assert kinds == {None, scalars.NegativeExponent, scalars.InexactPower, scalars.InputError}

    rng = random.Random(2006)
    undefined = 0
    for _, changed, _ in _changed_quotients():
        for e in (1, Fraction(1, 3)):
            alg = changed.evaluate_at(e)
            same = LieAlgebra.from_json(alg.to_json())
            for _ in range(4):
                w = [rng.choice(TWIN_WEIGHTS) for _ in range(3)]
                got = _stored(lambda: contract(alg, w))
                assert got == _stored(lambda: contract(_twin(alg), w)), w
                undefined += got[0] is ContractionUndefined
                limit = _stored(lambda: rescale_basis(alg, w).evaluate_at(0))
                assert limit == _stored(lambda: rescale_basis(same, w).evaluate_at(0)), w
    assert undefined > 20


def test_a_quotient_op_with_prepared_inputs_builds_no_fraction(monkeypatch):
    rng = random.Random(9)
    specs = [bundled_spec(name) for name in ("h2", "l1", "l2")]
    bases = [random_basis(rng, 3) for _ in specs]
    eps_values = (Fraction(1), Fraction(0), Fraction(-1))
    built = []
    new = Fraction.__dict__["__new__"].__func__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in Fraction.__dict__:  # Python 3.12+ builds results here
        from_coprime = Fraction.__dict__["_from_coprime_ints"].__func__

        def counted_from_coprime(cls, *args):
            built.append(args)
            return from_coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_from_coprime))
    labels = []
    for spec, t in zip(specs, bases):
        liealg._prepared_basis.cache_clear()
        fam = factor_algebra(spec)
        moved = fam.change_basis(t)
        for e in eps_values:
            a, b = fam.evaluate_at(e), moved.evaluate_at(e)
            labels.append((classify3(a), classify3(b), a.change_basis(t).same_constants(b)))
    monkeypatch.undo()
    assert built == []
    assert all(x == y and same for x, y, same in labels) and len(labels) == 9


def test_rescale_basis_matches_reference_and_inverts():
    w = (Fraction(1, 2), 0, 1)
    for _, alg, _ in _changed_quotients():
        fam = rescale_basis(alg, w)
        assert fam.same_constants(LieAlgebra(3, ref_rescale(alg, w)))
        assert rescale_basis(fam, [-x for x in w]).same_constants(alg)


def test_inverse_basis_change_cancels_back_to_the_quotient():
    # every constant the round trip creates cancels, and no zero entry or
    # empty layer is left behind to tell the two apart
    for family, alg, t in _changed_quotients():
        back = alg.change_basis(ref_inverse(t))
        assert back.same_constants(family)
        assert back.brackets() == family.brackets()
        assert repr(back) == repr(family)


# -- integer layers -----------------------------------------------------------------

def assert_canonical(alg):
    """Layers {q: {(i, j, k): n}} over one int _den > 0: gcd(_den, every n of every
    layer) = 1, no zero, none empty."""
    assert type(alg._den) is int and alg._den > 0
    for layer in alg._layers.values():
        assert layer and all(type(n) is int and n for n in layer.values())
        assert all(0 <= i < j < alg.dim and 0 <= k < alg.dim for i, j, k in layer)
    assert math.gcd(alg._den, *[n for layer in alg._layers.values() for n in layer.values()]) == 1


def test_every_constructor_and_operation_stores_canonical_integer_layers():
    rng = random.Random(2020)
    built = [build() for build in CLASSIFIED.values()]
    built += [LieAlgebra(3, table) for table in NON_UNIMODULAR.values()]
    built.append(LieAlgebra(3, {(0, 1): {2: PuiseuxScalar([(Fraction(1, 2), Fraction(1, 3)), (0, 2)])},
                                (0, 2): {1: PuiseuxScalar.monomial(Fraction(-5, 6), 1)}}))
    built += [LieAlgebra.from_json(alg.to_json()) for alg in built]
    rotations, boosts, _ = lorentz_matrices()
    built += [so31(), algebra_from_matrices(conjugate(rotations + boosts, random_basis(rng, 4)))]
    for family, changed, _ in _changed_quotients():
        built += [family, changed]
        built += [changed.evaluate_at(e) for e in (1, Fraction(1, 4), 0, Fraction(-9, 4))]
        built.append(rescale_basis(changed, (Fraction(1, 2), 0, 1)))
    eps_free = [alg for alg in built if not alg.is_symbolic]
    built += [alg.change_basis(random_basis(rng, alg.dim)) for alg in eps_free]
    built += [contract(alg, [0] * alg.dim) for alg in eps_free]
    built += [contract(alg, [1] * alg.dim) for alg in eps_free]
    for alg in built:
        assert_canonical(alg)
    assert len(built) > 400


def test_two_routes_to_one_contraction_store_the_same_layers():
    # Y = (X0, X1 / 2, X2 / 3) of so3: [Y0, Y1] = 3/2 Y2, [Y1, Y2] = 1/6 Y0,
    # [Y0, Y2] = -2/3 Y1, one layer over 6; w keeps only [Y0, Y1], which
    # contract reduces from 9/6 to 3/2, and rescale_basis moves the other two
    # to a q = 2 layer over the same denominator 6
    alg = CLASSIFIED["so3"]().change_basis([[1, 0, 0], [0, Fraction(1, 2), 0],
                                            [0, 0, Fraction(1, 3)]])
    w = (1, 1, 2)
    family = rescale_basis(alg, [-x for x in w])
    assert (alg._den, alg._layers) == (6, {0: {(0, 1, 2): 9, (0, 2, 1): -4, (1, 2, 0): 1}})
    assert (family._den, family._layers) == (6, {0: {(0, 1, 2): 9}, 2: {(0, 2, 1): -4, (1, 2, 0): 1}})
    contracted = contract(alg, w)
    assert contracted.same_constants(family.evaluate_at(0))
    assert (contracted._den, contracted._layers) == (2, {0: {(0, 1, 2): 3}})
    assert classify3(contracted) == "heisenberg"
    for _, changed, _ in _changed_quotients():
        alg = changed.evaluate_at(Fraction(1, 3))
        for w in ((0, 0, 0), (0, 1, 1), (1, 1, 2), (1, 0, 1)):
            try:
                contracted = contract(alg, w)
            except ContractionUndefined:
                continue
            assert contracted.same_constants(rescale_basis(alg, [-x for x in w]).evaluate_at(0))


def ref_jacobi_violation(alg):
    """(triple, residual) of the first failing basis triple i < j < k, in
    PuiseuxScalar arithmetic on brackets(); None when the identity holds."""
    table = alg.brackets()

    def bracket(a, b):
        if a < b:
            return table.get((a, b), {})
        return {k: s * -1 for k, s in table.get((b, a), {}).items()}

    for i, j, k in itertools.combinations(range(alg.dim), 3):
        res = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for d, s in bracket(b, c).items():
                for e, t in bracket(a, d).items():
                    res[e] = res.get(e, PuiseuxScalar()) + s * t
        res = {e: s for e, s in res.items() if s}
        if res:
            return (i, j, k), res
    return None


# Failing tables: one rational, one with fractional exponents and layers over
# different denominators, one whose first failure is not the first triple.
FAILING = {
    "rational": (3, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {0: Fraction(-3, 4)},
                     (1, 2): {1: Fraction(2, 3)}}),
    "symbolic": (3, {(0, 1): {2: PuiseuxScalar([(Fraction(1, 2), Fraction(1, 3)), (0, 2)])},
                     (0, 2): {1: PuiseuxScalar.monomial(Fraction(-5, 6), 1),
                              2: PuiseuxScalar.monomial(Fraction(1, 7), 0)},
                     (1, 2): {0: PuiseuxScalar.monomial(Fraction(3, 4), Fraction(1, 2)),
                              1: PuiseuxScalar.monomial(Fraction(1, 5), 2)}}),
    "later_triple": (4, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1},
                         (2, 3): {3: Fraction(1, 2)}, (1, 3): {2: Fraction(1, 3)}}),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_integer_jacobi_check_reports_the_puiseux_residual(name, monkeypatch):
    dim, table = FAILING[name]
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(dim, table)
    monkeypatch.setattr(LieAlgebra, "validate", lambda self: None)
    unchecked = LieAlgebra(dim, table)
    monkeypatch.undo()
    assert (err.value.triple, err.value.residual) == ref_jacobi_violation(unchecked)
    with pytest.raises(JacobiViolation) as again:
        unchecked.validate()
    assert str(again.value) == str(err.value)


def test_integer_jacobi_residuals_are_pinned():
    pinned = {
        "rational": ((0, 1, 2), "{2: PuiseuxScalar(-1/24)}"),
        "symbolic": ((0, 1, 2), "{2: PuiseuxScalar(2/5*eps^2 + 1/15*eps^(5/2)), "
                                "0: PuiseuxScalar(-3/28*eps^(1/2)), 1: PuiseuxScalar(-1/35*eps^2)}"),
        "later_triple": ((0, 1, 3), "{1: PuiseuxScalar(-1/3), 3: PuiseuxScalar(-1/2)}"),
    }
    for name, (dim, table) in FAILING.items():
        with pytest.raises(JacobiViolation) as err:
            LieAlgebra(dim, table)
        triple, residual = pinned[name]
        assert err.value.triple == triple and repr(err.value.residual) == residual
        assert str(err.value) == f"Jacobi identity fails on triple ({','.join(map(str, triple))}); residual {residual}"


# -- the sparse Jacobi walk against the dense triple loop -----------------------------

def ref_dense_jacobi(alg):
    """The dense check the sparse walk replaced: every triple i < j < k in turn, the cyclic
    sum of [X_a, [X_b, X_c]] in Fraction over the stored layers, each bracket's terms in
    stored order; ((i, j, k), {e: {q: c}}) for the first failing triple, None if none fails."""
    adj = {}
    for q, layer in alg._layers.items():
        for (i, j, k), n in layer.items():
            adj.setdefault((i, j), []).append((k, q, Fraction(n, alg._den)))
            adj.setdefault((j, i), []).append((k, q, Fraction(-n, alg._den)))
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        res = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for d, q1, c1 in adj.get((b, c), ()):
                for e, q2, c2 in adj.get((a, d), ()):
                    qc = res.setdefault(e, {})
                    qc[q1 + q2] = qc.get(q1 + q2, 0) + c1 * c2
        res = {e: {q: c for q, c in qc.items() if c} for e, qc in res.items()}
        if res := {e: qc for e, qc in res.items() if qc}:
            return (i, j, k), res
    return None


def _unchecked(monkeypatch, build):
    """build() with the Jacobi checks of LieAlgebra and LoopSpec switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(LieAlgebra, "validate", lambda self: None)
        patch.setattr(LoopSpec, "_check_jacobi", lambda self: None)
        return build()


JACOBI_QS = (Fraction(0), Fraction(1, 2), Fraction(1))


def random_bracket_table(rng, n):
    """A sparse table with 1..2n constants, each a sum of eps-layers q in JACOBI_QS."""
    table = {}
    for _ in range(rng.randint(1, 2 * n)):
        i, j = sorted(rng.sample(range(n), 2))
        terms = [(rng.choice(JACOBI_QS), Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 2))]
        table.setdefault((i, j), {})[rng.randrange(n)] = PuiseuxScalar(terms)
    return table


def test_sparse_jacobi_walk_matches_the_dense_triple_loop(monkeypatch):
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(3, 7)
        table = random_bracket_table(rng, n)
        alg = _unchecked(monkeypatch, lambda: LieAlgebra(n, table))
        dense = ref_dense_jacobi(alg)
        try:
            alg.validate()
        except JacobiViolation as err:
            (i, j, k), res = dense
            residual = {e: PuiseuxScalar(list(qc.items())) for e, qc in res.items()}
            assert (err.triple, err.residual) == ref_jacobi_violation(alg)
            assert str(err) == f"Jacobi identity fails on triple ({i},{j},{k}); residual {residual}"
            outcomes[False] += 1
        else:
            assert dense is None and ref_jacobi_violation(alg) is None
            outcomes[True] += 1
    assert min(outcomes.values()) > 400, outcomes  # both kinds are well represented


def random_graded_spec(rng):
    """(s, generators, brackets) with s = 2, grades in 0..3 and every term on the grade law."""
    grades = [rng.randint(0, 3) for _ in range(rng.randint(2, 4))]
    n = len(grades)
    brackets = {}
    for i, j in itertools.combinations(range(n), 2):
        for k in range(n):
            p, odd = divmod(grades[i] + grades[j] - grades[k], 2)
            if p >= 0 and not odd and rng.random() < 0.6:
                c = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
                brackets.setdefault((i, j), []).append((k, c, p))
    return 2, [(f"G{i}", g) for i, g in enumerate(grades)], brackets


def test_spec_jacobi_refusal_matches_the_dense_triple_loop(monkeypatch):
    rng = random.Random(310)
    refused = 0
    for _ in range(1000):
        s, generators, brackets = random_graded_spec(rng)
        spec = _unchecked(monkeypatch, lambda: LoopSpec(s, generators, brackets))
        # the route the spec check took before: its level-0 quotient, checked densely
        dense = ref_dense_jacobi(factor_algebra(spec, [0] * spec.n_generators))
        try:
            LoopSpec(s, generators, brackets)
        except SpecJacobiViolation as err:
            (i, j, k), res = dense
            res = {(e, int(q)): c for e, qc in res.items() for q, c in sorted(qc.items())}
            assert str(err) == f"Jacobi identity fails on basic triple ({i},{j},{k}): {res}"
            refused += 1
        else:
            assert dense is None
    assert 200 < refused < 800, refused


def test_sparse_jacobi_walk_of_a_large_sparse_algebra_is_fast():
    alg = LieAlgebra(120, {(0, 1): {2: 1}})
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        alg.validate()
        best = min(best, time.perf_counter() - start)
    assert best < 0.010, best
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(120, {(0, 1): {2: 1}, (117, 118): {119: 1}, (2, 119): {119: 1}})
    assert err.value.triple == (0, 1, 119)


def test_a_loop_spec_checks_jacobi_without_building_an_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a LoopSpec built or validated an algebra")

    monkeypatch.setattr(LieAlgebra, "_from_layers", classmethod(refuse))
    monkeypatch.setattr(LieAlgebra, "validate", refuse)
    for name in ("h2", "l1", "l2"):
        bundled_spec(name)
    LoopSpec.from_json(H2_RESCALED)
    with pytest.raises(SpecJacobiViolation, match=r"basic triple \(0,1,2\)"):
        LoopSpec(2, [("A", 1), ("B", 1), ("C", 2)], {(0, 1): [(2, 1, 0)], (0, 2): [(0, 1, 1)]})
