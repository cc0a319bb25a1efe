"""The exact kernels against the plain Fraction algorithms they replaced.

Each reference below is the earlier implementation of a kernel:
Gauss-Jordan elimination over Fraction, congruence diagonalization over
Fraction, the dense adjoint table behind the structural invariants, the
basis change that multiplies PuiseuxScalars term by term, and matrix
commutators multiplied out in Fraction.  The kernels must return exactly what the references return.
The layered storage of ``LieAlgebra`` is checked the same way: its round
trips, substitutions and rescalings against PuiseuxScalar arithmetic on
each constant, and every operation against the canonical integer form of
its layers.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import CLASSIFIED, NON_UNIMODULAR
from loopalg import (
    JacobiViolation,
    LieAlgebra,
    LinearlyDependent,
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
)
from loopalg import linalg, scalars
from loopalg.linalg import mat_mul, mat_sub, matrix_rank, row_reduce
from loopalg.liealg import ContractionUndefined, NotInSpan
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
        t = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
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
        inv = linalg._integer_inverse(m)
        if len(pivots) < len(m):
            assert inv is None
        else:
            inverse, d = inv
            assert [[Fraction(x, d) for x in row] for row in inverse] == ref_inverse(m)
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
    results = [(row_reduce(m), matrix_rank(m), linalg._integer_inverse(m)) for m in cases]
    elapsed = time.perf_counter() - start
    for m, (reduced, rank, inv) in zip(cases, results):
        assert reduced == gauss_jordan(m) and rank == len(reduced[1])
    assert results[0][2] is None and results[0][1] <= 20
    inverse, d = results[1][2]
    assert results[1][1] == 24
    assert [[Fraction(x, d) for x in row] for row in inverse] == ref_inverse(cases[1])
    assert elapsed < 0.5


# -- signature -------------------------------------------------------------------------

def test_signature_matches_fraction_congruence():
    rng = random.Random(1212)
    seen = set()
    for _ in range(1500):
        n = rng.randint(0, 8)
        m = random_symmetric(rng, n)
        sig = signature(m)
        assert sig == ref_signature(m), m
        seen.add((sig[2] > 0, n > 0 and not any(m[i][i] for i in range(n))))
    # singular and regular matrices, with and without an all-zero diagonal
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


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


@pytest.mark.parametrize("reader", [derived_subalgebra_dim, center_dim, killing_form, classify3])
def test_invariant_readers_name_themselves_on_symbolic_input(reader):
    family = factor_algebra(bundled_spec("h2"))
    with pytest.raises(SymbolicAlgebra, match=f"^{reader.__name__} requires eps-free"):
        reader(family)


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
    """Every layer is (d, {(i, j, k): n}): ints, d > 0, gcd(d, every n) = 1, no zero, none empty."""
    for q, (d, layer) in alg._layers.items():
        assert type(d) is int and d > 0
        assert layer and all(type(n) is int and n for n in layer.values())
        assert math.gcd(d, *layer.values()) == 1
        assert all(0 <= i < j < alg.dim and 0 <= k < alg.dim for i, j, k in layer)


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
    # contract reduces from 9/6 and rescale_basis splits off the q = 2 layer
    alg = CLASSIFIED["so3"]().change_basis([[1, 0, 0], [0, Fraction(1, 2), 0],
                                            [0, 0, Fraction(1, 3)]])
    w = (1, 1, 2)
    family = rescale_basis(alg, [-x for x in w])
    assert alg._layers == {0: (6, {(0, 1, 2): 9, (0, 2, 1): -4, (1, 2, 0): 1})}
    assert family._layers == {0: (2, {(0, 1, 2): 3}), 2: (6, {(0, 2, 1): -4, (1, 2, 0): 1})}
    contracted = contract(alg, w)
    assert contracted.same_constants(family.evaluate_at(0))
    assert contracted._layers == {0: (2, {(0, 1, 2): 3})}
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
