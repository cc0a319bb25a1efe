import itertools
import random
from fractions import Fraction

import pytest

from conftest import CLASSIFIED, abelian3, e2, heisenberg, random_invertible, so3
from loopalg import (
    ContractionUndefined,
    JacobiViolation,
    LieAlgebra,
    LinearlyDependent,
    PuiseuxScalar,
    SymbolicAlgebra,
    WrongDimension,
    algebra_from_matrices,
    center_dim,
    classify3,
    contract,
    derived_subalgebra_dim,
    is_classic_iw,
    killing_form,
    rescale_basis,
)
from loopalg.liealg import AlgebraFormatError, NotInSpan

P = PuiseuxScalar


# -- independent oracles -------------------------------------------------------

def dense_constants(alg):
    """Dense antisymmetric C[i][j][k] as floats, built from the public table."""
    n = alg.dim
    c = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in alg.brackets().items():
        for k, s in row.items():
            v = float(s.constant_value())
            c[i][j][k] = v
            c[j][i][k] = -v
    return c


def jacobi_residual_dense(alg):
    """Brute-force max |sum_cyc C_bc^d C_ad^e| over all triples."""
    c = dense_constants(alg)
    n = alg.dim
    worst = 0.0
    for a, b, x in itertools.product(range(n), repeat=3):
        for e in range(n):
            total = sum(
                c[b][x][d] * c[a][d][e] + c[x][a][d] * c[b][d][e] + c[a][b][d] * c[x][d][e]
                for d in range(n)
            )
            worst = max(worst, abs(total))
    return worst


def killing_dense(alg):
    """Killing form from explicit float ad matrices: B_ab = trace(ad_a ad_b)."""
    c = dense_constants(alg)
    n = alg.dim
    ad = [[[c[a][d][e] for d in range(n)] for e in range(n)] for a in range(n)]
    return [
        [
            sum(ad[a][e][d] * ad[b][d][e] for e in range(n) for d in range(n))
            for b in range(n)
        ]
        for a in range(n)
    ]


# -- validation ----------------------------------------------------------------

def test_validate_accepts_standard_algebras():
    for build in CLASSIFIED.values():
        build().validate()


def test_all_plus_cyclic_table_is_a_real_form():
    # {X,Y}=Z, {X,Z}=Y, {Y,Z}=X: the cyclic Jacobi sum telescopes to zero,
    # so this is a genuine algebra (indefinite Killing form), not a violation
    alg = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}})
    alg.validate()
    assert jacobi_residual_dense(alg) == 0.0
    assert classify3(alg) == "so21"


def test_jacobi_violation_detected():
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})
    assert err.value.triple == (0, 1, 2)
    bad = LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {1: 1}}, check=False)
    assert jacobi_residual_dense(bad) > 0


def test_validate_symbolic_family():
    # eps-dependent constants: {S,N1}=eps^2 M2, {M2,S}=N1, {N1,M2}=eps S
    fam = LieAlgebra(
        3,
        {(0, 1): {2: 1}, (0, 2): {1: -P.monomial(1, 1)}, (1, 2): {0: P.monomial(1, 2)}},
        names=["M2", "S", "N1"],
    )
    fam.validate()
    assert fam.is_symbolic


def test_validate_matches_dense_oracle_on_random_tables():
    rng = random.Random(5)
    for _ in range(40):
        table = {}
        for i in range(3):
            for j in range(i + 1, 3):
                row = {k: rng.randint(-2, 2) for k in range(3) if rng.random() < 0.5}
                if row:
                    table[(i, j)] = row
        try:
            LieAlgebra(3, table)
            valid = True
        except JacobiViolation:
            valid = False
        dense = jacobi_residual_dense(LieAlgebra(3, table, check=False))
        assert valid == (dense == 0.0)


# -- structural invariants -------------------------------------------------------

def test_derived_dim_examples():
    assert derived_subalgebra_dim(abelian3()) == 0
    assert derived_subalgebra_dim(heisenberg()) == 1
    assert derived_subalgebra_dim(so3()) == 3
    assert derived_subalgebra_dim(e2()) == 2


def test_derived_dim_rejects_symbolic():
    fam = LieAlgebra(3, {(0, 1): {2: P.monomial(1, 1)}})
    with pytest.raises(SymbolicAlgebra):
        derived_subalgebra_dim(fam)


def test_killing_examples():
    assert killing_form(so3()) == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
    assert killing_form(abelian3()) == [[0] * 3 for _ in range(3)]
    expect = [[Fraction(-2), 0, 0], [0, 0, 0], [0, 0, 0]]
    assert killing_form(e2()) == expect


def test_killing_matches_dense_oracle():
    rng = random.Random(17)
    for build in CLASSIFIED.values():
        alg = build().change_basis(random_invertible(rng, 3))
        exact = killing_form(alg)
        dense = killing_dense(alg)
        for i in range(3):
            for j in range(3):
                assert float(exact[i][j]) == pytest.approx(dense[i][j], abs=1e-9)


def test_center_dims():
    assert center_dim(heisenberg()) == 1
    assert center_dim(abelian3()) == 3
    assert center_dim(so3()) == 0


def test_classify3_examples():
    assert classify3(e2()) == "e2"
    limit = LieAlgebra(3, {(0, 1): {2: 1}}, names=["M2", "S", "N1"])
    assert classify3(limit) == "heisenberg"
    assert classify3(abelian3()) == "abelian3"
    for label, build in CLASSIFIED.items():
        assert classify3(build()) == label


def test_classify3_requires_dim3_and_eps_free():
    with pytest.raises(WrongDimension):
        classify3(LieAlgebra(2, {}))
    with pytest.raises(SymbolicAlgebra):
        classify3(LieAlgebra(3, {(0, 1): {2: P.monomial(1, 1)}}))


def test_classify3_basis_change_invariance_smoke():
    rng = random.Random(23)
    for label, build in CLASSIFIED.items():
        base = build()
        for _ in range(25):
            assert classify3(base.change_basis(random_invertible(rng, 3))) == label


# Non-unimodular algebras with a two-dimensional derived algebra: their Killing
# inertia matches e11 / e2, but some tr ad X_a is nonzero.
NON_UNIMODULAR = {
    # Bianchi V: [X2,X0] = X0, [X2,X1] = X1
    "bianchi_v": {(0, 2): {0: -1}, (1, 2): {1: -1}},
    # Bianchi VII_h, h = 1/2: ad X2 = [[h, -1], [1, h]] on span(X0, X1)
    "bianchi_vii_half": {(0, 2): {0: Fraction(-1, 2), 1: -1}, (1, 2): {0: 1, 1: Fraction(-1, 2)}},
}


def random_rational_basis(rng):
    from loopalg.linalg import invert_matrix

    while True:
        t = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(3)]
             for _ in range(3)]
        if invert_matrix(t) is not None:
            return t


def test_classify3_rejects_non_unimodular_under_rational_basis_changes():
    rng = random.Random(404)
    cases = [(LieAlgebra(3, table), "other") for table in NON_UNIMODULAR.values()]
    cases += [(build(), label) for label, build in CLASSIFIED.items()]
    for alg, label in cases:
        assert classify3(alg) == label
        for _ in range(50):
            assert classify3(alg.change_basis(random_rational_basis(rng))) == label


# -- contraction -----------------------------------------------------------------

def test_contract_identity_and_abelianization():
    alg = so3()
    assert contract(alg, (0, 0, 0)).same_constants(alg)
    assert classify3(contract(alg, (1, 1, 1))) == "abelian3"


def test_contract_so3_to_e2():
    out = contract(so3(), (0, 1, 1))
    assert classify3(out) == "e2"


def test_contract_undefined_lists_triples():
    with pytest.raises(ContractionUndefined) as err:
        contract(so3(), (1, 0, 0))
    # [X1,X2]=X0 needs w1+w2 >= w0
    assert (1, 2, 0, Fraction(0), Fraction(0), Fraction(1)) in err.value.violations


def test_contract_checks_nonzero_constants_only():
    alg = heisenberg()  # only {X0,X1}=X2
    # (0,2)/(1,2) triples would violate the weight condition, but their
    # constants vanish, so only the (0,1)->2 triple is inspected
    out = contract(alg, (5, 0, 0))
    assert out.same_constants(LieAlgebra(3, {}))
    out = contract(alg, (1, 1, 2))
    assert out.same_constants(alg)


def test_classic_iw_examples():
    assert is_classic_iw((0, 0, 0, 1, 1, 1))
    assert not is_classic_iw((Fraction(3, 2), Fraction(1, 2), 1))
    assert is_classic_iw((0, 0, 0))
    assert is_classic_iw((Fraction(1, 2), Fraction(1, 2), 0))
    assert not is_classic_iw((-1, 0, 0))


def test_classic_iw_structural_consequences():
    # weight-0 span closes; positive-weight span is an abelian ideal
    weights = (0, 1, 1)
    out = contract(so3(), weights)
    zero_idx = [i for i, w in enumerate(weights) if w == 0]
    pos_idx = [i for i, w in enumerate(weights) if w != 0]
    for i in zero_idx:
        for j in zero_idx:
            assert set(out.bracket_on_basis(i, j)) <= set(zero_idx)
    for i in pos_idx:
        for j in pos_idx:
            assert not out.bracket_on_basis(i, j)
    for i in range(3):
        for j in pos_idx:
            assert set(out.bracket_on_basis(i, j)) <= set(pos_idx)


# -- rescaling ---------------------------------------------------------------------

def test_rescale_zero_weights_is_identity():
    alg = so3()
    assert rescale_basis(alg, (0, 0, 0)).same_constants(alg)


def test_rescale_normalizes_quotient_family():
    # {L,A1}=A2, {A2,L}=A1, {A1,A2}=eps*L rescaled by the sign-branch
    # normalization (A_i by eps^(1/2)) lands on the eps-free form
    fam = LieAlgebra(
        3,
        {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: P.monomial(1, 1)}},
        names=["L", "A1", "A2"],
    )
    out = rescale_basis(fam, (0, Fraction(1, 2), Fraction(1, 2)))
    assert not out.is_symbolic
    assert classify3(out) == "so3"
    assert out.same_constants(
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})
    )


def test_rescale_reproduces_prelimit_family():
    # negated weights turn the eps-free sign branch into the quotient family
    # with exponents (0, 1, 2) on ({M2,S}, {N1,M2}, {S,N1})
    branch = LieAlgebra(
        3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}, names=["M2", "S", "N1"]
    )
    out = rescale_basis(branch, (Fraction(-1, 2), Fraction(-1), Fraction(-3, 2)))
    expect = LieAlgebra(
        3,
        {(0, 1): {2: 1}, (0, 2): {1: -P.monomial(1, 1)}, (1, 2): {0: P.monomial(1, 2)}},
        names=["M2", "S", "N1"],
    )
    assert out.same_constants(expect)


def test_contract_equals_limit_of_rescaled_family():
    cases = [
        (so3(), (0, 1, 1)),
        (so3(), (1, 1, 1)),
        (heisenberg(), (0, 0, 0)),
        (heisenberg(), (1, 1, 2)),
        (e2(), (0, 2, 2)),
    ]
    for alg, w in cases:
        contracted = contract(alg, w)
        family = rescale_basis(alg, tuple(-Fraction(x) for x in w))
        limits = {
            ij: {k: s.limit_at_zero() for k, s in row.items()}
            for ij, row in family.brackets().items()
        }
        rebuilt = LieAlgebra(alg.dim, limits, names=alg.names)
        assert rebuilt.same_constants(contracted)


# -- matrix generators ---------------------------------------------------------------

def _e(i, j, n=4):
    return [[Fraction(int(r == i and c == j)) for c in range(n)] for r in range(n)]


def _msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_single_matrix_is_abelian():
    alg = algebra_from_matrices([_msub(_e(0, 1), _e(1, 0))])
    assert alg.dim == 1 and not alg.brackets()


def test_sl2_constants():
    e, f, h = _e(0, 1, 2), _e(1, 0, 2), _msub(_e(0, 0, 2), _e(1, 1, 2))
    alg = algebra_from_matrices([e, f, h], names=["E", "F", "H"])
    expect = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    assert alg.same_constants(expect)


def test_rotation_boost_algebra():
    rots = [
        _msub(_e(2, 1), _e(1, 2)),
        _msub(_e(0, 2), _e(2, 0)),
        _msub(_e(1, 0), _e(0, 1)),
    ]
    boosts = [_madd(_e(i, 3), _e(3, i)) for i in range(3)]
    alg = algebra_from_matrices(rots + boosts)
    # boosts close on the rotations with a minus sign: [B1,B2] = -J3
    assert alg.bracket_on_basis(3, 4) == {2: P.constant(-1)}
    assert alg.bracket_on_basis(0, 1) == {2: P.one()}
    assert alg.bracket_on_basis(0, 4) == {5: P.one()}  # [J1,B2]=B3
    assert contract(alg, (0,) * 6).same_constants(alg)
    with pytest.raises(ContractionUndefined):
        contract(alg, (1, 0, 0, 0, 0, 0))  # [J2,J3]=J1 needs w2+w3 >= w1


def test_not_closed_and_dependent():
    with pytest.raises(NotInSpan) as err:
        algebra_from_matrices([_e(0, 0, 2), _e(0, 1, 2), _e(1, 0, 2)])
    assert err.value.pair == (1, 2)
    with pytest.raises(LinearlyDependent):
        algebra_from_matrices([_e(0, 1, 2), [[0, 2], [0, 0]]])


# -- degenerate dimensions and formats ---------------------------------------------

def test_degenerate_dimensions():
    zero = LieAlgebra(0, {})
    one = LieAlgebra(1, {})
    for alg in (zero, one):
        alg.validate()
        assert derived_subalgebra_dim(alg) == 0
        assert killing_form(alg) == [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
        assert contract(alg, [1] * alg.dim).same_constants(alg)


def test_json_round_trip_and_format_errors():
    fam = LieAlgebra(
        3,
        {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: P.monomial(1, 1)}},
        names=["L", "A1", "A2"],
    )
    again = LieAlgebra.from_json(fam.to_json())
    assert again.same_constants(fam) and again.names == fam.names

    with pytest.raises(AlgebraFormatError):
        LieAlgebra.from_json({"dim": 2, "brackets": [{"i": 1, "j": 0, "terms": []}]})
    with pytest.raises(AlgebraFormatError):
        LieAlgebra.from_json({"dim": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"k": 5, "c": "1", "q": "0"}]}]})
    with pytest.raises(AlgebraFormatError):
        LieAlgebra.from_json({"dim": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"k": 0, "c": "x", "q": "0"}]}]})
    with pytest.raises(AlgebraFormatError):
        LieAlgebra.from_json({"brackets": []})


def test_evaluate_at_on_symbolic_family():
    fam = LieAlgebra(
        3,
        {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: P.monomial(1, 1)}},
        names=["L", "A1", "A2"],
    )
    assert classify3(fam.evaluate_at(1)) == "so3"
    assert classify3(fam.evaluate_at(-1)) == "so21"
    assert classify3(fam.evaluate_at(0)) == "e2"
    assert classify3(fam.evaluate_at(Fraction(1, 7))) == "so3"
