"""Shared builders for small reference algebras used across the test modules."""

import random
from fractions import Fraction

from loopalg import LieAlgebra, PuiseuxScalar


def so3():
    # [X0,X1]=X2, [X1,X2]=X0, [X2,X0]=X1
    return LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def so21():
    # one sign flipped relative to so3
    return LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: 1}})


def e2():
    # rotation acting on two commuting translations, Killing rank 1 negative
    return LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: -1}}, names=["L", "A1", "A2"])


def e11():
    # boost variant: Killing rank 1 positive
    return LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: 1}})


def heisenberg():
    return LieAlgebra(3, {(0, 1): {2: 1}})


def abelian3():
    return LieAlgebra(3, {})


def solvable_other():
    # [X0,X1]=X1 plus a central X2: derived dim 1 but Killing nonzero
    return LieAlgebra(3, {(0, 1): {1: 1}})


CLASSIFIED = {
    "so3": so3,
    "so21": so21,
    "e2": e2,
    "e11": e11,
    "heisenberg": heisenberg,
    "abelian3": abelian3,
    "other": solvable_other,
}


# Non-unimodular algebras with a two-dimensional derived algebra: their Killing
# inertia matches e11 / e2, but some tr ad X_a is nonzero.
NON_UNIMODULAR = {
    # Bianchi V: [X2,X0] = X0, [X2,X1] = X1
    "bianchi_v": {(0, 2): {0: -1}, (1, 2): {1: -1}},
    # Bianchi VII_h, h = 1/2: ad X2 = [[h, -1], [1, h]] on span(X0, X1)
    "bianchi_vii_half": {(0, 2): {0: Fraction(-1, 2), 1: -1}, (1, 2): {0: 1, 1: Fraction(-1, 2)}},
}


# h2 in the basis (L/2, 2*A1/3, A2): a rescaling, so Jacobi still holds, and its
# constants 1/3, -3/4 and (4/3)*h have three different denominators
H2_RESCALED = {
    "s": 2,
    "generators": [{"name": "L", "grade": 0}, {"name": "A1", "grade": 1},
                   {"name": "A2", "grade": 1}],
    "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "1/3", "hpow": 0}]},
                 {"i": 0, "j": 2, "terms": [{"k": 1, "c": "-3/4", "hpow": 0}]},
                 {"i": 1, "j": 2, "terms": [{"k": 0, "c": "4/3", "hpow": 1}]}],
}


def random_invertible(rng: random.Random, n: int):
    """Random invertible rational n x n matrix with small entries."""
    from loopalg.linalg import matrix_rank

    while True:
        t = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if matrix_rank(t) == n:
            return t


def eps_monomial(c, q):
    return PuiseuxScalar.monomial(c, q)
