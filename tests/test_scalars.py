import copy
import pickle
import random
from fractions import Fraction

import pytest

from loopalg import (
    InexactPower,
    InputError,
    NegativeExponent,
    NotSymmetric,
    PuiseuxScalar,
    Rejected,
    signature,
)
from loopalg.scalars import MAX_POWER_BITS, as_fraction

P = PuiseuxScalar


def test_limit_examples():
    assert P.monomial(1, 2).substitute(0) == 0
    assert P.monomial(5, 0).substitute(0) == 5
    with pytest.raises(NegativeExponent):
        P.monomial(1, Fraction(-1, 2)).substitute(0)


def test_limit_mixed_terms():
    s = P.monomial(3, 0) + P.monomial(7, Fraction(1, 2)) + P.monomial(-2, 4)
    assert s.substitute(0) == 3
    assert P().substitute(0) == 0


def test_exact_substitution():
    s = P.monomial(1, Fraction(1, 2))
    assert s.substitute(4) == 2
    assert s.substitute(Fraction(9, 16)) == Fraction(3, 4)
    with pytest.raises(InexactPower):
        s.substitute(2)
    with pytest.raises(InexactPower):
        s.substitute(-4)
    assert P.monomial(1, Fraction(1, 3)).substitute(-8) == -2
    assert P.monomial(5, -2).substitute(Fraction(1, 2)) == 20
    with pytest.raises(NegativeExponent):
        P.monomial(1, -1).substitute(0)
    # eps = 0 takes the one-sided limit
    assert (P.monomial(2, 0) + P.monomial(9, 3)).substitute(0) == 2


def test_exact_powers_are_bounded_before_any_arithmetic():
    # eps = 2 has 3 bits (numerator and denominator), so q = n costs 3n bits
    top = MAX_POWER_BITS // 3
    assert P.monomial(1, top).substitute(2) == 2 ** top
    assert P.monomial(1, top + 1).substitute(0) == 0  # eps = 0 is exempt
    assert P.monomial(5, 0).substitute(Fraction(10) ** 30000) == 5  # and so is q = 0
    for q in (top + 1, -(top + 1), Fraction(1, top + 1), Fraction(2 * top + 1, 2)):
        with pytest.raises(InputError, match="exact-power bound"):
            P.monomial(1, q).substitute(2)


def test_arithmetic_merges_and_drops_zeros():
    a = P.monomial(1, 1) + P.monomial(2, 1)
    assert a == P.monomial(3, 1)
    zero = a + (-1) * a
    assert zero.terms == () and zero == P() and zero == 0
    # a bool compares as the int it is, although as_fraction refuses one
    assert P.monomial(1, 0) == True and zero == False  # noqa: E712
    assert not zero
    assert (P.monomial(1, 2) + P.monomial(1, 0) + P.monomial(-1, 2)).terms == ((0, 1),)
    prod = P.monomial(2, Fraction(1, 2)) * P.monomial(3, Fraction(3, 2))
    assert prod == P.monomial(6, 2)
    assert 2 * P.monomial(1, 1) == P.monomial(2, 1)
    assert P.monomial(Fraction(1, 3), 0) * 3 == P.monomial(1, 0)
    assert str(P()) == "0"


@pytest.mark.parametrize("op, symbol", [(lambda a, b: a + b, "+"), (lambda a, b: a * b, "*")])
def test_scalar_arithmetic_with_a_foreign_type_is_a_type_error(op, symbol):
    # a float is no exact rational: + and * refuse it, and == never holds
    for a, b, names in ((P.monomial(1, 0), 0.5, "'PuiseuxScalar' and 'float'"),
                        (0.5, P.monomial(1, 0), "'float' and 'PuiseuxScalar'")):
        with pytest.raises(TypeError) as err:
            op(a, b)
        assert str(err.value) == f"unsupported operand type(s) for {symbol}: {names}"
    assert P.monomial(1, 0) != 1.0 and P() != 0.0 and P.monomial(1, 0) == 1


def test_scalar_is_immutable_and_hashable():
    s = P.monomial(1, 1)
    with pytest.raises(AttributeError):
        s.terms = ()
    assert len({P.monomial(1, 1), P.monomial(1, 1), P.monomial(1, 0)}) == 2


def test_scalar_copies_and_pickles():
    s = P([(0, Fraction(-2, 3)), (Fraction(1, 2), 5), (2, Fraction(7, 4))])
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is P and twin == s and hash(twin) == hash(s)
        assert twin.terms == s.terms and str(twin) == str(s)


def test_rational_arithmetic_is_exact():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        assert a * (1 / a) == 1


def test_a_digit_separator_is_no_rational():
    for text in ("1_000", "1_0/3"):
        with pytest.raises(InputError, match=f"^not a rational: '{text}'$"):
            as_fraction(text)


def test_signature_examples():
    assert signature([[-2, 0, 0], [0, -2, 0], [0, 0, -2]]) == (0, 3, 0)
    assert signature([[0] * 3 for _ in range(3)]) == (0, 0, 3)
    assert signature([[2, 0, 0], [0, 2, 0], [0, 0, -2]]) == (2, 1, 0)


def test_signature_off_diagonal_pivoting():
    # hyperbolic plane: zero diagonal, indefinite
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == (1, 1, 1)


def test_signature_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        signature([[0, 1], [2, 0]])
    with pytest.raises(NotSymmetric):
        signature([[0, 1]])


def test_signature_congruence_invariant():
    from conftest import random_invertible
    from loopalg.linalg import mat_mul

    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = random_invertible(rng, n)
        congruent = mat_mul([list(c) for c in zip(*p)], mat_mul(m, p))
        assert signature(congruent) == signature(m)
