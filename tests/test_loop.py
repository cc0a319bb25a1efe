import itertools
import json
import random
from fractions import Fraction

import pytest

from loopalg import (
    CLASS_LABELS,
    InexactPower,
    InputError,
    LieAlgebra,
    LoopElement,
    LoopSpec,
    NegativeExponent,
    PuiseuxScalar,
    SpecFormatError,
    bundled_spec,
    check_selection,
    classify3,
    embedding_check,
    factor_algebra,
    loop_bracket,
    rescale_basis,
    selection_ok,
)
from loopalg.loop import BracketMismatch, GradeMismatch, NotClosed, SpecJacobiViolation, bundled_path

P = PuiseuxScalar


@pytest.fixture(scope="module")
def h2():
    return bundled_spec("h2")


@pytest.fixture(scope="module")
def l1():
    return bundled_spec("l1")


@pytest.fixture(scope="module")
def l2():
    return bundled_spec("l2")


# -- spec validation -------------------------------------------------------------

def test_bundled_specs_well_formed(h2, l1, l2):
    assert h2.names == ("L", "A1", "A2") and h2.grades == (0, 1, 1)
    assert l1.names == ("M2", "S", "N1") and l1.grades == (1, 2, 3)
    assert l2.names == ("N1", "N2", "S") and l2.grades == (3, 3, 2)
    assert {h2.s, l1.s, l2.s} == {2}


def test_grade_law_enforced_at_load():
    with pytest.raises(SpecFormatError):
        LoopSpec(2, [("X", 0), ("Y", 1)], {(0, 1): [(0, 1, 0)]})  # 0+1 != 0+0
    with pytest.raises(SpecFormatError):
        LoopSpec(2, [("X", 1), ("Y", 1)], {(0, 1): [(0, 1, 1)]})  # 2 != 1+2


def test_jacobi_enforced_at_load():
    # grade-consistent but {B,{C,A}} = h*C survives the cyclic sum
    with pytest.raises(SpecJacobiViolation, match="Jacobi"):
        LoopSpec(
            2,
            [("A", 1), ("B", 1), ("C", 2)],
            {(0, 1): [(2, 1, 0)], (0, 2): [(0, 1, 1)]},
        )


def _reference_bracket(table, a, b):
    """[a, b] of sparse {(generator, level): coeff} maps, from the raw table."""
    out = {}
    for (i, ni), ci in a.items():
        for (j, nj), cj in b.items():
            if i == j:
                continue
            sign = 1 if i < j else -1
            for k, c, hpow in table.get((min(i, j), max(i, j)), ()):
                key = (k, ni + nj + hpow)
                out[key] = out.get(key, 0) + sign * ci * cj * c
    return out


def _reference_jacobi_fails(n, table):
    for i, j, k in itertools.combinations(range(n), 3):
        x, y, z = ({(g, 0): Fraction(1)} for g in (i, j, k))
        total = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for key, v in _reference_bracket(table, a, _reference_bracket(table, b, c)).items():
                total[key] = total.get(key, 0) + v
        if any(total.values()):
            return True
    return False


def test_jacobi_check_matches_reference_on_random_tables():
    rng = random.Random(1729)
    outcomes = set()
    for _ in range(150):
        s = rng.choice((1, 2))
        n = rng.choice((3, 4))
        grades = [rng.randint(0, 3) for _ in range(n)]
        table = {}
        for i, j in itertools.combinations(range(n), 2):
            terms = []
            for k in range(n):
                lift = grades[i] + grades[j] - grades[k]
                if lift >= 0 and lift % s == 0 and rng.random() < 0.4:
                    terms.append((k, Fraction(rng.randint(-2, 2), rng.choice((1, 2))), lift // s))
            if terms:
                table[(i, j)] = terms
        fails = _reference_jacobi_fails(n, table)
        outcomes.add(fails)
        gens = [(f"G{g}", grade) for g, grade in enumerate(grades)]
        if fails:
            with pytest.raises(SpecJacobiViolation, match="Jacobi"):
                LoopSpec(s, gens, table)
        else:
            LoopSpec(s, gens, table)
    assert outcomes == {True, False}


def test_selection_field_round_trip(h2):
    data = h2.to_json()
    data["selection"] = [1, 1, 0]
    spec = LoopSpec.from_json(data)
    assert spec.selection == (1, 1, 0)
    assert spec.to_json()["selection"] == [1, 1, 0]


# -- loop brackets ---------------------------------------------------------------

def test_loop_bracket_examples(h2, l1):
    # {N1 (level 0), M2 (level 0)} = h*S: the S tower at level 1, grade 4
    out = loop_bracket(l1, l1.basis_element(2, 0), l1.basis_element(0, 0))
    assert out.terms == ((1, 1, Fraction(1)),)
    assert l1.element_grade(out) == 4

    x = l1.basis_element(2, 0)
    assert loop_bracket(l1, x, x).is_zero()

    # {h^2 A1, h A2} = h^4 L
    out = loop_bracket(h2, h2.basis_element(1, 2), h2.basis_element(2, 1))
    assert out.terms == ((0, 4, Fraction(1)),)


@pytest.mark.parametrize("index", [-1, 3])
def test_generator_index_outside_the_spec_is_rejected(h2, index):
    # -1 would read A2's grade through Python's negative index, 3 (= dim) is past the end
    with pytest.raises(InputError, match=f"generator index {index} out of range 0..2"):
        h2.element([(index, 0, 1)])
    with pytest.raises(InputError, match="out of range"):
        h2.element([(0, 0, 1), (index, 0, 0)])
    with pytest.raises(InputError, match="out of range"):
        h2.basis_element(index)
    stray = LoopElement(((index, 0, Fraction(1)),))
    with pytest.raises(InputError, match="out of range"):
        loop_bracket(h2, h2.basis_element(0), stray)
    with pytest.raises(InputError, match="out of range"):
        loop_bracket(h2, stray, h2.basis_element(0))


def test_loop_bracket_antisymmetry(h2):
    with pytest.raises(ValueError):
        h2.element([(1, 0, 2), (2, 1, Fraction(1, 3))])  # grades 1 and 3
    a = h2.element([(1, 1, 2), (2, 1, -1)])
    b = h2.basis_element(0, 2)
    ab = loop_bracket(h2, a, b)
    ba = loop_bracket(h2, b, a)
    assert ab.terms == tuple((i, n, -c) for i, n, c in ba.terms)


@pytest.mark.parametrize("term", [(0.9, 1, 1), (True, 1, 1), (1, 1.0, 1), (1, False, 1)])
def test_element_indices_must_be_integers(h2, term):
    with pytest.raises(TypeError, match="must be an integer"):
        h2.element([term])


def test_grade_conservation_random(h2, l1, l2):
    rng = random.Random(314)
    specs = [h2, l1, l2]
    for _ in range(300):
        spec = rng.choice(specs)
        elems = []
        for _ in range(2):
            g = rng.randint(0, 2 * 8)
            slots = [
                (i, n)
                for i in range(spec.n_generators)
                for n in range(9)
                if spec.grade_of(i, n) == g
            ]
            if not slots:
                break
            picks = rng.sample(slots, k=min(len(slots), rng.randint(1, 3)))
            elems.append(spec.element([(i, n, rng.randint(1, 4)) for i, n in picks]))
        if len(elems) < 2:
            continue
        x, y = elems
        out = loop_bracket(spec, x, y)
        if not out.is_zero():
            assert spec.element_grade(out) == spec.element_grade(x) + spec.element_grade(y)


def test_jacobi_at_random_levels(h2, l1, l2):
    # levels factor out of the base brackets; spot-check that directly
    rng = random.Random(271)
    for spec in (h2, l1, l2):
        for _ in range(40):
            trip = [
                spec.basis_element(rng.randrange(spec.n_generators), rng.randint(0, 8))
                for _ in range(3)
            ]
            x, y, z = trip
            total = {}
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                inner = loop_bracket(spec, b, c)
                outer = loop_bracket(spec, a, inner)
                for i, n, co in outer.terms:
                    total[(i, n)] = total.get((i, n), Fraction(0)) + co
            assert all(v == 0 for v in total.values())


@pytest.mark.parametrize("brackets", [
    {(False, True): [(2, 1, 0)]}, {(0.0, 1): [(2, 1, 0)]}, {(0, 1.0): [(2, 1, 0)]},
    {(0, 1): [(2.0, 1, 0)]}, {(0, 1): [(True, 1, 0)]},
])
def test_bracket_indices_must_be_integers(brackets):
    # as in LieAlgebra: a bool key would be written by to_json as "i": false,
    # which from_json refuses, and a float key is not a generator index
    with pytest.raises(TypeError, match="must be an integer"):
        LoopSpec(1, [("A", 0), ("B", 0), ("C", 0)], brackets)


# -- selections --------------------------------------------------------------------

def test_check_selection_examples(h2):
    check_selection(h2, (1, 1, 0))  # levels L:1, A1:1, A2:0
    with pytest.raises(NotClosed):
        check_selection(h2, (0, 0, 2))
    check_selection(h2, (0, 0, 0))


def test_selection_wrong_length(h2):
    with pytest.raises(SpecFormatError):
        check_selection(h2, (0, 0))
    with pytest.raises(SpecFormatError):
        check_selection(h2, (0, 0, -1))


def test_closure_iff_nonnegative_exponents(h2):
    # the same inequalities govern subalgebra closure and quotient exponents
    for sel in itertools.product(range(6), repeat=3):
        exponents = [
            sel[i] + sel[j] + hpow - sel[k]
            for (i, j), terms in h2.base_brackets().items()
            for k, _, hpow in terms
        ]
        assert selection_ok(h2, sel) == all(e >= 0 for e in exponents)


# -- factor algebras ---------------------------------------------------------------

def test_factor_constants_h2(h2):
    alg = factor_algebra(h2)
    assert alg.names == ("L", "A1", "A2")
    assert alg.bracket_on_basis(0, 1) == {2: P.constant(1)}
    assert alg.bracket_on_basis(2, 0) == {1: P.constant(1)}
    assert alg.bracket_on_basis(1, 2) == {0: P.monomial(1, 1)}


def test_factor_constants_l1(l1):
    alg = factor_algebra(l1)
    assert alg.bracket_on_basis(1, 2) == {0: P.monomial(1, 2)}  # {S,N1}=eps^2 M2
    assert alg.bracket_on_basis(0, 1) == {2: P.constant(1)}           # {M2,S}=N1
    assert alg.bracket_on_basis(2, 0) == {1: P.monomial(1, 1)}  # {N1,M2}=eps S


def test_factor_constants_l2(l2):
    alg = factor_algebra(l2)
    assert alg.bracket_on_basis(0, 1) == {2: P.monomial(1, 2)}  # {N1,N2}=eps^2 S
    assert alg.bracket_on_basis(1, 2) == {0: P.monomial(1, 1)}  # {N2,S}=eps N1
    assert alg.bracket_on_basis(2, 0) == {1: P.monomial(1, 1)}  # {S,N1}=eps N2


def test_factor_algebra_respects_selection_and_names(h2):
    alg = factor_algebra(h2, (1, 1, 0))
    assert alg.names == ("h*L", "h*A1", "A2")
    # {A1',A2'} at levels (1,0) + hpow 1 lands at level 2, class level 1: eps^1
    assert alg.bracket_on_basis(1, 2) == {0: P.monomial(1, 1)}
    assert alg.bracket_on_basis(0, 1) == {2: P.monomial(1, 2)}
    alg2 = factor_algebra(h2, (1, 1, 2))
    assert alg2.names == ("h*L", "h*A1", "h^2*A2")


def test_factor_algebra_passes_jacobi_symbolically(h2, l1, l2):
    for spec in (h2, l1, l2):
        for sel in itertools.product(range(3), repeat=3):
            if selection_ok(spec, sel):
                factor_algebra(spec, sel).validate()


def test_factor_propagates_not_closed(h2):
    with pytest.raises(NotClosed):
        factor_algebra(h2, (0, 0, 2))


def test_l2_is_l1_with_m2_tower_raised(l1, l2):
    lifted = factor_algebra(l1, (1, 0, 0))   # [h*M2, S, N1]
    plain = factor_algebra(l2)               # [N1, N2, S]
    # correspondence: h*M2 <-> N2, S <-> S, N1 <-> N1
    perm = {0: 1, 1: 2, 2: 0}  # lifted index -> plain index
    for i in range(3):
        for j in range(3):
            got = lifted.bracket_on_basis(i, j)
            want = plain.bracket_on_basis(perm[i], perm[j])
            assert {perm[k]: s for k, s in got.items()} == want


def test_factor_matches_rescaled_sign_branch(l1):
    # quotient constants coincide with the rescaled eps-free branch at
    # weights given by half the grades
    branch = LieAlgebra(
        3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}, names=["M2", "S", "N1"]
    )
    weights = tuple(-Fraction(g, 2) for g in l1.grades)
    assert rescale_basis(branch, weights).same_constants(factor_algebra(l1))


def test_branch_killing_signatures(h2, l1, l2):
    from loopalg import killing_form, signature

    for spec in (h2, l1, l2):
        fam = factor_algebra(spec)
        for eps, sig in ((1, (0, 3, 0)), (Fraction(9, 4), (0, 3, 0)),
                         (-1, (2, 1, 0)), (Fraction(-1, 2), (2, 1, 0))):
            assert signature(killing_form(fam.evaluate_at(eps))) == sig


def test_evaluate_at_quotients(h2, l1, l2):
    assert classify3(factor_algebra(h2).evaluate_at(0)) == "e2"
    assert classify3(factor_algebra(l1).evaluate_at(0)) == "heisenberg"
    l2_at_zero = factor_algebra(l2).evaluate_at(0)
    assert classify3(l2_at_zero) == "abelian3"
    assert not l2_at_zero.brackets()


def test_evaluate_at_exactness_errors():
    fam = rescale_basis(
        LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
        (Fraction(-1, 2), 0, 0),
    )
    out = fam.evaluate_at(4)  # eps^(1/2) -> 2 exactly
    assert out.bracket_on_basis(0, 1) == {2: P.constant(2)}
    with pytest.raises(InexactPower):
        fam.evaluate_at(2)
    neg = rescale_basis(LieAlgebra(3, {(0, 1): {2: 1}}), (1, 0, 0))
    with pytest.raises(NegativeExponent):
        neg.evaluate_at(0)
    # the message names the constant's own coefficient
    neg3 = rescale_basis(LieAlgebra(3, {(0, 1): {2: 3}}), (1, 0, 0))
    with pytest.raises(NegativeExponent, match=r"^term 3\*eps\^-1 diverges for eps -> 0$"):
        neg3.evaluate_at(0)


# -- embeddings ---------------------------------------------------------------------

F1_MAP = [(2, 0), (0, 1), (1, 1)]  # M2->A2, S->h*L, N1->h*A1
F2_MAP = [(1, 1), (2, 1), (0, 1)]  # N1->h*A1, N2->h*A2, S->h*L


def test_embedding_f1(h2, l1):
    report = embedding_check(l1, h2, F1_MAP)
    assert report.codimension == 2
    assert set(report.missing) == {("L", 0), ("A1", 0)}


def test_embedding_f2(h2, l2):
    report = embedding_check(l2, h2, F2_MAP)
    assert report.codimension == 3
    assert set(report.missing) == {("L", 0), ("A1", 0), ("A2", 0)}


def test_embedding_identity(h2):
    report = embedding_check(h2, h2, [(0, 0), (1, 0), (2, 0)])
    assert report.codimension == 0


def test_embedding_grade_mismatch(h2, l1):
    with pytest.raises(GradeMismatch):
        embedding_check(l1, h2, [(2, 1), (0, 1), (1, 1)])  # M2 -> h*A2 shifts grade
    with pytest.raises(GradeMismatch):
        embedding_check(l1, h2, [(2, 0), (0, 1)])  # not total
    # h*X and Y would both map to h*Z: two towers into one is not injective
    with pytest.raises(GradeMismatch, match="same host tower"):
        embedding_check(LoopSpec(2, [("X", 0), ("Y", 2)], {}), LoopSpec(2, [("Z", 0)], {}),
                        [(0, 0), (0, 1)], window=4)


def test_embedding_bracket_mismatch(h2):
    # swapping A1 and A2 preserves grades but flips bracket signs
    with pytest.raises(BracketMismatch):
        embedding_check(h2, h2, [(0, 0), (2, 0), (1, 0)])
    for window in (0, 8):
        with pytest.raises(BracketMismatch, match=r"\(L,A1\) at levels \(0,0\)"):
            embedding_check(h2, h2, [(0, 0), (2, 0), (1, 0)], window=window)


@pytest.mark.parametrize("gen_map", [
    [(2.9, 0), (0, 1.7), (1, 1)],  # truncates to F1_MAP if coerced
    [(2, 0.0), (0, 1), (1, 1)],
    [(2, False), (0, True), (1, True)],
])
def test_embedding_map_entries_must_be_integers(h2, l1, gen_map):
    with pytest.raises(TypeError, match="must be an integer"):
        embedding_check(l1, h2, gen_map)


def test_embedding_reports_per_window(h2, l1, l2):
    # the window bounds only the codimension bookkeeping
    expected = {
        "l1": (l1, F1_MAP, {("L", 0), ("A1", 0)}),
        "l2": (l2, F2_MAP, {("L", 0), ("A1", 0), ("A2", 0)}),
        "h2": (h2, [(0, 0), (1, 0), (2, 0)], set()),
    }
    for sub, gen_map, missing in expected.values():
        for window in (0, 4, 8):
            report = embedding_check(sub, h2, gen_map, window=window)
            assert report.window == window
            assert set(report.missing) == missing
            assert report.codimension == len(missing)
    # a map that covers every tower reads no level, but the window is still checked
    for window in (2.0, True):
        with pytest.raises(TypeError, match="window must be an integer"):
            embedding_check(h2, h2, [(0, 0), (1, 0), (2, 0)], window=window)
    # a negative window reported missing=(), codimension 0, as if every level were covered
    for sub, gen_map, window in ((h2, [(0, 0), (1, 0), (2, 0)], -3), (l1, F1_MAP, -1)):
        with pytest.raises(InputError, match=f"^window must be nonnegative, got {window}$"):
            embedding_check(sub, h2, gen_map, window=window)


# -- serialization ------------------------------------------------------------------

def _shipped(name):
    with open(bundled_path(name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("data", [
    _shipped("l1"),
    # a selection, and one two-term bracket whose terms come in descending k
    {"s": 1,
     "generators": [{"name": "A", "grade": 0}, {"name": "B", "grade": 1}, {"name": "C", "grade": 1}],
     "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "hpow": 0},
                                             {"k": 1, "c": "-1/2", "hpow": 0}]}],
     "selection": [0, 1, 1]},
], ids=["l1", "selection_descending_k"])
def test_spec_json_round_trip(data):
    spec = LoopSpec.from_json(data)
    assert spec.to_json() == data
    again = LoopSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert again.names == spec.names
    assert again.base_brackets() == spec.base_brackets()
    assert again.to_json() == spec.to_json()


def test_malformed_spec_errors():
    good = bundled_spec("h2").to_json()
    bad = json.loads(json.dumps(good))
    bad["brackets"][0]["i"], bad["brackets"][0]["j"] = 1, 0
    with pytest.raises(SpecFormatError):
        LoopSpec.from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["generators"][1]["grade"] = 2  # breaks the grade law
    with pytest.raises(SpecFormatError):
        LoopSpec.from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["brackets"][0]["terms"][0]["c"] = "one"
    with pytest.raises(SpecFormatError):
        LoopSpec.from_json(bad)
    with pytest.raises(SpecFormatError):
        bundled_spec("h3")
    with pytest.raises(SpecFormatError, match="expected a JSON object, got list"):
        LoopSpec.from_json([])


# -- the quotient pipeline works on rational layers ---------------------------------

def test_quotient_pipeline_builds_no_puiseux_scalar(h2, l1, l2, monkeypatch):
    # quotients, eps-substitution, classification and embeddings never pass
    # through the public scalar type
    def refuse(self, terms=None):
        raise AssertionError("PuiseuxScalar built inside the quotient pipeline")

    monkeypatch.setattr(PuiseuxScalar, "__init__", refuse)
    closed = 0
    for spec in (h2, l1, l2):
        for sel in itertools.product(range(3), repeat=3):
            if not selection_ok(spec, sel):
                continue
            closed += 1
            fam = factor_algebra(spec, sel)
            for eps in (1, Fraction(1, 4), 0, -1):
                assert classify3(fam.evaluate_at(eps)) in CLASS_LABELS
    assert closed > 0
    assert embedding_check(l1, h2, F1_MAP, window=8).codimension == 2
    assert embedding_check(l2, h2, F2_MAP, window=8).codimension == 3
