import math
import random
from fractions import Fraction

import pytest

from loopalg import (
    InexactPower,
    InputError,
    NegativeExponent,
    NonPositiveEval,
    NotSymmetric,
    PuiseuxScalar,
    Rejected,
    signature,
)
from loopalg.scalars import MAX_POWER_BITS

P = PuiseuxScalar


def test_limit_examples():
    assert P.monomial(1, 2).limit_at_zero() == 0
    assert P.constant(5).limit_at_zero() == 5
    with pytest.raises(NegativeExponent):
        P.monomial(1, Fraction(-1, 2)).limit_at_zero()


def test_limit_mixed_terms():
    s = P.monomial(3, 0) + P.monomial(7, Fraction(1, 2)) + P.monomial(-2, 4)
    assert s.limit_at_zero() == 3
    assert P.zero().limit_at_zero() == 0


def test_eval_examples():
    assert P.monomial(1, 1).eval(4) == pytest.approx(4.0)
    assert P.monomial(1, Fraction(1, 2)).eval(4) == pytest.approx(2.0)
    assert (P.monomial(1, 2) + P.constant(3)).eval(2) == pytest.approx(7.0)
    for bad in (0.0, -1.0):
        with pytest.raises(NonPositiveEval):
            P.one().eval(bad)


def test_eval_rejects_a_result_that_is_not_a_finite_double():
    # eps**q overflows the double range inside pow
    with pytest.raises(Rejected, match=r"term 1\*eps\^2000 is not a finite double at eps=10\.0"):
        P.monomial(1, 2000).eval(10.0)
    # finite c and finite eps**q whose product is inf
    with pytest.raises(Rejected, match=r"eps=10000000000\.0"):
        P.monomial(10 ** 300, 1).eval(1e10)
    # +inf and -inf terms would sum to nan
    with pytest.raises(Rejected, match="not a finite double"):
        P([(1, 10 ** 300), (2, -(10 ** 300))]).eval(1e10)
    with pytest.raises(Rejected, match="eps=nan"):
        P.monomial(1, 1).eval(math.nan)
    # every term finite, their sum is not
    with pytest.raises(Rejected, match=r"eps \+ 17\d*\*eps\^2 is not a finite double at eps=1\.0$"):
        P([(1, Fraction(17, 10) * 10 ** 308), (2, Fraction(17, 10) * 10 ** 308)]).eval(1.0)
    assert P.monomial(1, 1000).eval(2.0) == 2.0 ** 1000


def test_eval_converges_to_limit():
    rng = random.Random(20240817)
    for _ in range(50):
        terms = [
            (Fraction(rng.randint(0, 8), rng.choice([1, 2, 3])),
             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(rng.randint(1, 4))
        ]
        s = P(terms)
        lim = float(s.limit_at_zero())
        diffs = [abs(s.eval(10.0 ** -k) - lim) for k in range(1, 7)]
        assert diffs[-1] <= diffs[0] + 1e-12
        positive = [(q, c) for q, c in s.terms if q > 0]
        bound = sum(abs(float(c)) * (1e-6) ** float(q) for q, c in positive)
        assert diffs[-1] <= bound + 1e-12


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
    assert (P.constant(2) + P.monomial(9, 3)).substitute(0) == 2


def test_exact_powers_are_bounded_before_any_arithmetic():
    # eps = 2 has 3 bits (numerator and denominator), so q = n costs 3n bits
    top = MAX_POWER_BITS // 3
    assert P.monomial(1, top).substitute(2) == 2 ** top
    assert P.monomial(1, top + 1).substitute(0) == 0  # eps = 0 is exempt
    assert P.constant(5).substitute(Fraction(10) ** 30000) == 5  # and so is q = 0
    for q in (top + 1, -(top + 1), Fraction(1, top + 1), Fraction(2 * top + 1, 2)):
        with pytest.raises(InputError, match="exact-power bound"):
            P.monomial(1, q).substitute(2)


def test_arithmetic_merges_and_drops_zeros():
    a = P.monomial(1, 1) + P.monomial(2, 1)
    assert a == P.monomial(3, 1)
    assert (a - a).is_zero()
    assert not (a - a)
    prod = P.monomial(2, Fraction(1, 2)) * P.monomial(3, Fraction(3, 2))
    assert prod == P.monomial(6, 2)
    assert 2 * P.monomial(1, 1) == P.monomial(2, 1)
    assert P.constant(Fraction(1, 3)) * 3 == P.one()


def test_scalar_is_immutable_and_hashable():
    s = P.monomial(1, 1)
    with pytest.raises(AttributeError):
        s._terms = ()
    assert len({P.monomial(1, 1), P.monomial(1, 1), P.constant(1)}) == 2


def test_json_round_trip():
    s = P.monomial(Fraction(-3, 2), Fraction(5, 2)) + P.constant(7)
    assert P.from_json(s.to_json()) == s
    assert s.to_json() == [{"c": "7", "q": "0"}, {"c": "-3/2", "q": "5/2"}]


def test_rational_arithmetic_is_exact():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        assert a * (1 / a) == 1


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
