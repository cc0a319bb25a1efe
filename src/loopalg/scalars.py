"""Exact scalar arithmetic underlying all structure constants.

Every structure constant in this package is a finite sum ``sum_i c_i * eps**q_i``
with rational coefficients ``c_i`` and rational exponents ``q_i`` (a Puiseux
monomial sum in the deformation parameter ``eps``).  Plain rationals are
``fractions.Fraction`` throughout and serialize as ``"p/q"`` (``"p"`` when the
denominator is 1).

The limit ``eps -> 0`` is always taken from the positive side.  Sign branches
(negative energies vs positive energies) are handled by substituting a signed
rational value before any structural analysis, never by evaluating fractional
powers of negative numbers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class InputError(ValueError):
    """Malformed input: a file, an option or a parameter outside its domain (CLI exit 64)."""


class Rejected(ValueError):
    """Well-formed input that the mathematics refuses (CLI exit 1)."""


class NegativeExponent(Rejected):
    """A term eps**q with q < 0 has no limit at eps = 0."""


class InexactPower(Rejected):
    """Exact substitution hit eps**q with no rational value."""


class NotSymmetric(Rejected):
    """Signature is only defined for symmetric matrices."""


def as_fraction(value: Fraction | int | str) -> Fraction:
    """Coerce ints, strings like "3/2" and Fractions to Fraction; a float or bool is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def as_int(value, what: str) -> int:
    """An exact int: a float (3.0 included), a bool or a string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def add_term(acc: dict, key, value) -> None:
    """acc[key] += value in a sparse map: a key whose sum is exactly zero is dropped."""
    total = acc[key] + value if key in acc else value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class FrozenRecord:
    """Immutable record whose fields are the subclass's ``__slots__``.

    A subclass ``__init__`` states the constructor signature and passes the
    field values, in ``__slots__`` order, to this one.  ``repr``, ``==`` and
    hash go by the field values and assignment raises AttributeError, as for
    a frozen dataclass.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()


def scale_to_integers(rows) -> tuple[int, list[list[int]]]:
    """(d, d * rows) for a rational matrix, d the lcm of all its denominators.

    One positive scale for the whole matrix keeps its row space, rank, RREF
    and inertia, and a result divided by d (or a power of d) undoes it.
    """
    # star-args from a list: a tuple built from a generator is resized, and
    # the interpreter keeps every freed one in its tuple free list
    d = lcm(*[x.denominator for row in rows for x in row])
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


# An exact eps**q costs about max(|numerator(q)|, denominator(q)) times the
# bit length of eps; past this many bits the input is refused, not computed.
MAX_POWER_BITS = 1 << 16


def eps_power(eps: Fraction, q, c) -> Fraction:
    """Exact eps**q for a rational eps; eps = 0 takes the eps -> 0+ limit.

    c is the coefficient of the term c*eps**q that needs the power: it only
    names that term when the limit diverges (NegativeExponent).  A fractional
    q needs eps to be an exact power (InexactPower), and a power q != 0 beyond
    MAX_POWER_BITS is an InputError.
    """
    if eps == 0 or q == 0:  # the eps -> 0+ limit, or eps**0 = 1
        if q < 0:
            raise NegativeExponent(f"term {c}*eps^{q} diverges for eps -> 0")
        return Fraction(1 if q == 0 else 0)
    bits = eps.numerator.bit_length() + eps.denominator.bit_length()
    if max(abs(q.numerator), q.denominator) * bits > MAX_POWER_BITS:
        raise InputError(f"eps^({q}) at eps = {eps} exceeds the exact-power bound "
                         f"of {MAX_POWER_BITS} bits")
    root = eps if q.denominator == 1 else _nth_root_exact(eps, q.denominator)
    return root ** q.numerator


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


class PuiseuxScalar(FrozenRecord):
    """Immutable finite sum of terms c * eps**q with rational c and q.

    The value type of the bracket tables that ``LieAlgebra`` hands out.  Its
    field ``terms`` holds sorted (exponent, coefficient) pairs, no zero
    coefficient and no exponent twice; ``+`` and ``*`` merge terms by
    exponent and drop exact zeros immediately.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        merged: dict[Fraction, Fraction] = {}
        for q, c in terms or ():
            add_term(merged, as_fraction(q), as_fraction(c))
        super().__init__(tuple(sorted(merged.items())))

    @classmethod
    def constant(cls, c: Fraction | int | str) -> "PuiseuxScalar":
        return cls.monomial(c, 0)

    @classmethod
    def monomial(cls, c: Fraction | int | str, q: Fraction | int | str) -> "PuiseuxScalar":
        """The single term c * eps**q."""
        return cls([(as_fraction(q), as_fraction(c))])

    def substitute(self, eps: Fraction | int | str) -> Fraction:
        """Exact value at a rational eps.

        At eps = 0 this is the eps -> 0+ limit (NegativeExponent if it does
        not exist).  Fractional exponents require eps to be an exact power;
        otherwise InexactPower is raised.
        """
        eps = as_fraction(eps)
        return sum((c * eps_power(eps, q, c) for q, c in self.terms), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, PuiseuxScalar):
            return NotImplemented
        return PuiseuxScalar(list(self.terms) + list(other.terms))

    def __mul__(self, other):
        if isinstance(other, PuiseuxScalar):
            out: list = []
            for q1, c1 in self.terms:
                for q2, c2 in other.terms:
                    out.append((q1 + q2, c1 * c2))
            return PuiseuxScalar(out)
        if isinstance(other, (int, Fraction)):
            return PuiseuxScalar([(q, c * other) for q, c in self.terms])
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, PuiseuxScalar):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == (((Fraction(0), Fraction(other)),) if other else ())
        return NotImplemented

    __hash__ = FrozenRecord.__hash__  # defining __eq__ cleared the inherited one

    def __repr__(self):
        return f"PuiseuxScalar({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for q, c in self.terms:
            if q == 0:
                parts.append(str(c))
            elif q == 1:
                parts.append(f"{c}*eps")
            else:
                parts.append(f"{c}*eps^{q}" if q.denominator == 1 else f"{c}*eps^({q})")
        return " + ".join(parts).replace("+ -", "- ")


def signature(form) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of a symmetric rational matrix.

    Computed by exact congruence diagonalization in integers (no floating
    point), so the result is invariant under any exact change of basis.  A
    matrix with a non-int entry is scaled to integers by the lcm of its
    denominators (an all-int one is eliminated as given); each pivot
    piv then replaces the trailing block by sgn(piv) * (piv * a_ij - a_ik * a_kj),
    which is |piv| times the Schur complement, divided by the gcd of its
    entries.  Both scalings are positive, so neither changes the inertia.
    """
    m = [[x if type(x) is int else as_fraction(x) for x in row] for row in form]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NotSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    a = m if all(type(x) is int for row in m for x in row) else scale_to_integers(m)[1]
    pos = rank = 0
    while a:
        if not a[0][0]:
            # prefer swapping in a later nonzero diagonal entry
            j = next((j for j in range(1, len(a)) if a[j][j]), None)
            if j is not None:
                a[0], a[j] = a[j], a[0]
                for row in a:
                    row[0], row[j] = row[j], row[0]
            else:
                i = next((i for i in range(1, len(a)) if a[i][0]), None)
                if i is None:  # a zero row and column: one zero of the inertia
                    a = [row[1:] for row in a[1:]]
                    continue
                # all remaining diagonal entries vanish: row/col addition
                # makes a[0][0] = 2*a[i][0] != 0 and stays congruent
                a[0] = [x + y for x, y in zip(a[0], a[i])]
                for row in a:
                    row[0] += row[i]
        piv = a[0][0]
        s = 1 if piv > 0 else -1
        pos += s > 0
        rank += 1
        top = a[0][1:]
        a = [[s * (piv * x - row[0] * y) for x, y in zip(row[1:], top)] for row in a[1:]]
        g = gcd(*[x for row in a for x in row])
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return pos, rank - pos, n - rank
