"""Exact scalar arithmetic underlying all structure constants.

Every structure constant in this package is a finite sum ``sum_i c_i * eps**q_i``
with rational coefficients ``c_i`` and rational exponents ``q_i`` (a Puiseux
monomial sum in the deformation parameter ``eps``).  Plain rationals are
``fractions.Fraction`` throughout and serialize as ``"p/q"`` (``"p"`` when the
denominator is 1); Puiseux scalars serialize as lists of ``{"c": ..., "q": ...}``.

The limit ``eps -> 0`` is always taken from the positive side.  Sign branches
(negative energies vs positive energies) are handled by substituting a signed
rational value before any structural analysis, never by evaluating fractional
powers of negative numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]


class NegativeExponent(ValueError):
    """A term eps**q with q < 0 has no limit at eps = 0."""


class NonPositiveEval(ValueError):
    """Numeric evaluation requires eps > 0 (fractional exponents need a positive base)."""


class InexactPower(ValueError):
    """Exact substitution hit eps**q with no rational value."""


class NotSymmetric(ValueError):
    """Signature is only defined for symmetric matrices."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, strings like "3/2", and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def add_term(acc: dict, key, value) -> None:
    """acc[key] += value in a sparse map: a key whose sum is exactly zero is dropped."""
    total = acc[key] + value if key in acc else value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _nth_root_exact(value: Fraction, n: int) -> Fraction:
    """Exact n-th root of a rational, or raise InexactPower."""
    if n <= 0:
        raise ValueError("root index must be positive")
    if value < 0:
        if n % 2 == 0:
            raise InexactPower(f"no real {n}-th root of {value}")
        return -_nth_root_exact(-value, n)
    num = _int_nth_root(value.numerator, n)
    den = _int_nth_root(value.denominator, n)
    if num is None or den is None:
        raise InexactPower(f"{value} is not an exact {n}-th power")
    return Fraction(num, den)


def _int_nth_root(k: int, n: int):
    """Integer n-th root of k >= 0 if exact, else None."""
    if k in (0, 1):
        return k
    # integer Newton iteration; exact for arbitrary precision
    x = 1 << (-(-k.bit_length() // n))
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x ** n == k else None


class PuiseuxScalar:
    """Immutable finite sum of terms c * eps**q with rational c and q.

    No zero coefficients are stored and exponents are pairwise distinct;
    addition merges terms by exponent and drops exact zeros immediately.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        merged: dict[Fraction, Fraction] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for q, c in items:
                add_term(merged, as_fraction(q), as_fraction(c))
        object.__setattr__(self, "_terms", tuple(sorted(merged.items())))

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxScalar is immutable")

    @classmethod
    def constant(cls, c: RationalLike) -> "PuiseuxScalar":
        return cls.monomial(c, 0)

    @classmethod
    def monomial(cls, c: RationalLike, q: RationalLike) -> "PuiseuxScalar":
        """The single term c * eps**q."""
        return cls([(as_fraction(q), as_fraction(c))])

    @classmethod
    def zero(cls) -> "PuiseuxScalar":
        return cls()

    @classmethod
    def one(cls) -> "PuiseuxScalar":
        return cls.constant(1)

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Sorted (exponent, coefficient) pairs."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True when the scalar does not depend on eps."""
        return all(q == 0 for q, _ in self._terms)

    def constant_value(self) -> Fraction:
        """The value of an eps-free scalar."""
        if not self.is_constant():
            raise ValueError(f"{self} depends on eps")
        return self._terms[0][1] if self._terms else Fraction(0)

    def limit_at_zero(self) -> Fraction:
        """Limit for eps -> 0+; defined iff all exponents are >= 0."""
        out = Fraction(0)
        for q, c in self._terms:
            if q < 0:
                raise NegativeExponent(f"term {c}*eps^{q} diverges for eps -> 0")
            if q == 0:
                out = c
        return out

    def eval(self, eps: float) -> float:
        """Double-precision value at eps > 0."""
        if eps <= 0:
            raise NonPositiveEval(f"eps must be positive, got {eps}")
        return sum(float(c) * float(eps) ** float(q) for q, c in self._terms)

    def substitute(self, eps: RationalLike) -> Fraction:
        """Exact value at a rational eps.

        At eps = 0 this is the eps -> 0+ limit (NegativeExponent if it does
        not exist).  Fractional exponents require eps to be an exact power;
        otherwise InexactPower is raised.
        """
        eps = as_fraction(eps)
        if eps == 0:
            return self.limit_at_zero()
        out = Fraction(0)
        for q, c in self._terms:
            if q.denominator == 1:
                out += c * eps ** q.numerator
            else:
                root = _nth_root_exact(eps, q.denominator)
                out += c * root ** q.numerator
        return out

    def __add__(self, other):
        if not isinstance(other, PuiseuxScalar):
            return NotImplemented
        return PuiseuxScalar(list(self._terms) + list(other._terms))

    def __neg__(self):
        return PuiseuxScalar([(q, -c) for q, c in self._terms])

    def __sub__(self, other):
        if not isinstance(other, PuiseuxScalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PuiseuxScalar):
            out: list = []
            for q1, c1 in self._terms:
                for q2, c2 in other._terms:
                    out.append((q1 + q2, c1 * c2))
            return PuiseuxScalar(out)
        if isinstance(other, (int, Fraction)):
            return PuiseuxScalar([(q, c * other) for q, c in self._terms])
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, PuiseuxScalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == PuiseuxScalar.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        return f"PuiseuxScalar({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for q, c in self._terms:
            if q == 0:
                parts.append(str(c))
            elif q == 1:
                parts.append(f"{c}*eps")
            else:
                parts.append(f"{c}*eps^{q}" if q.denominator == 1 else f"{c}*eps^({q})")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> list:
        return [{"c": str(c), "q": str(q)} for q, c in self._terms]

    @classmethod
    def from_json(cls, data: Iterable) -> "PuiseuxScalar":
        return cls([(Fraction(t["q"]), Fraction(t["c"])) for t in data])


def signature(form) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of a symmetric rational matrix.

    Computed by exact congruence diagonalization (no floating point), so the
    result is invariant under any exact change of basis.
    """
    m = [[as_fraction(x) for x in row] for row in form]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NotSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    for k in range(n):
        if m[k][k] == 0:
            # prefer swapping in a later nonzero diagonal entry
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if i is None:
                    continue
                # all remaining diagonal entries vanish: row/col addition
                # makes m[k][k] = 2*m[i][k] != 0 and stays congruent
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
