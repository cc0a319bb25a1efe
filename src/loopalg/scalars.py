"""Exact scalar arithmetic underlying all structure constants.

Every structure constant in this package is a finite sum ``sum_i c_i * eps**q_i``
with rational coefficients ``c_i`` and rational exponents ``q_i`` (a Puiseux
monomial sum in the deformation parameter ``eps``).  Plain rationals are
``fractions.Fraction`` throughout and serialize as ``"p/q"`` (``"p"`` when the
denominator is 1).

The limit ``eps -> 0`` is always taken from the positive side.  Sign branches
(negative energies vs positive energies) are handled by substituting a signed
rational value before any structural analysis, never by evaluating fractional
powers of negative numbers.  One exact rule, :func:`eps_power`, gives eps**q as a
pair of ints from the int pair of eps, with a root only for a fractional q.
The inertia of a symmetric matrix is read by Descartes' rule of signs off its
characteristic polynomial, with no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import ne


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
    """Coerce ints, strings like "3/2" and Fractions to Fraction; a float or bool is a
    TypeError, and a string that is no rational (or has a zero denominator) an InputError.
    A digit separator ("1_000") is refused on every Python version, as 3.10 does."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            if isinstance(value, str) and "_" in value:  # Fraction reads "1_0" from 3.11 on
                raise ValueError
            return Fraction(value)
        except ValueError:
            raise InputError(f"not a rational: {value!r}") from None
        except ZeroDivisionError:
            raise InputError(f"zero denominator: {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def as_int(value, what: str) -> int:
    """An exact int: a float (3.0 included), a bool or a string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _as_row(values) -> list:
    """The entries of a row or vector, an int as it is and any other as_fraction.
    A string would be read one character at a time, so it is a TypeError once
    its characters are read: one that is no rational stays the InputError naming it."""
    row = [x if type(x) is int else as_fraction(x) for x in values]
    if isinstance(values, str):
        raise TypeError(f"a row or vector must be a list, got the string {values!r}")
    return row


def _as_entry(entry, width: int, what: str):
    """An entry of a list, such as a (generator, level, coeff) term, checked to be a tuple
    or list of ``width`` values before it is unpacked: a TypeError naming it otherwise."""
    if isinstance(entry, (tuple, list)) and len(entry) == width:
        return entry
    raise TypeError(f"{what} must be a {width}-tuple, got {entry!r}")


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


def _show(x, text=str) -> str:
    """text(x) of a rational, or its sign and size in bits when a part passes Python's
    int->str digit limit (``sys.get_int_max_str_digits()``, 4300 by default)."""
    try:
        return text(x)
    except ValueError:
        n, d = x.numerator, x.denominator
        return f"{'-' * (n < 0)}<{n.bit_length()}-bit/{d.bit_length()}-bit rational>"


def eps_power(eps: Fraction, q, c) -> tuple[int, int]:
    """Exact eps**q = a / b as ints, b > 0, for rational eps and q; eps = 0 takes
    the eps -> 0+ limit.

    c is the coefficient of the term c*eps**q that needs the power: it only
    names that term when the limit diverges (NegativeExponent).  The int pair
    (numerator, denominator) of eps is swapped for a negative q and rooted part by
    part for a fractional q, which needs an exact power (InexactPower); a power
    q != 0 beyond MAX_POWER_BITS is an InputError.
    """
    a, b = eps.as_integer_ratio()
    if not a or q == 0:  # the eps -> 0+ limit, or eps**0 = 1
        if q < 0:
            raise NegativeExponent(f"term {_show(c)}*eps^{_show(q)} diverges for eps -> 0")
        return int(q == 0), 1
    if max(abs(q.numerator), q.denominator) * (a.bit_length() + b.bit_length()) > MAX_POWER_BITS:
        raise InputError(f"eps^({_show(q)}) at eps = {_show(eps)} exceeds the exact-power bound "
                         f"of {MAX_POWER_BITS} bits")
    if (n := q.denominator) > 1:
        if a < 0 and n % 2 == 0:
            raise InexactPower(f"eps^({q}) is not real at eps = {_show(eps)}")
        ra, b = _int_nth_root(abs(a), n), _int_nth_root(b, n)
        if ra is None or b is None:
            raise InexactPower(f"eps^({q}) is not rational at eps = {_show(eps)}")
        a = ra if a > 0 else -ra
    if q < 0:  # (a / b)**q = (b / a)**|q|, the sign kept on the numerator
        a, b = (b if a > 0 else -b), abs(a)
    return a ** abs(q.numerator), b ** abs(q.numerator)


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
        return sum((c * Fraction(*eps_power(eps, q, c)) for q, c in self.terms), Fraction(0))

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
            c = _show(c)
            if q == 0:
                parts.append(c)
            elif q == 1:
                parts.append(f"{c}*eps")
            else:
                parts.append(f"{c}*eps^{_show(q)}" if q.denominator == 1 else f"{c}*eps^({_show(q)})")
        return " + ".join(parts).replace("+ -", "- ")


def signature(form) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of a symmetric rational matrix.

    Read exactly (no floating point) off the signs of its characteristic
    polynomial by :func:`_inertia`, so the result is invariant under any exact
    change of basis.  A matrix with a non-int entry is scaled to integers by
    the lcm of its denominators (a positive scale, which keeps the inertia; an
    all-int one is passed as given).
    """
    m = [_as_row(row) for row in form]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NotSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    return _inertia(m if all(type(x) is int for row in m for x in row) else scale_to_integers(m)[1])


def _inertia(a) -> tuple[int, int, int]:
    """Inertia of a symmetric int matrix by Descartes' rule of signs.

    Its eigenvalues are the roots of p(x) = det(xI - A), all real, so the sign
    changes of p's coefficients count the positive ones exactly, and those of
    p(-x), each c_k times (-1)**k, the negative ones.
    """
    p = _charpoly(a)
    pos = _sign_changes(p)
    neg = _sign_changes([-c if k % 2 else c for k, c in enumerate(p)])
    return pos, neg, len(a) - pos - neg


def _charpoly(a) -> list:
    """The coefficients [1, c_1, ..., c_n] of det(xI - A) for a square int matrix.

    Faddeev-LeVerrier: M_1 = I, c_k = -tr(A M_k) / k, M_(k+1) = A M_k + c_k I.
    Each division by k is exact, so the recurrence needs only +, * and //.
    """
    n = len(a)
    coeffs, m = [1], [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        m = [[sum([x * y for x, y in zip(row, col)]) for col in cols] for row in a]
        c = -sum([m[i][i] for i in range(n)]) // k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def _sign_changes(coeffs) -> int:
    """Sign changes along a coefficient sequence, zeros skipped (Descartes' count)."""
    signs = [x > 0 for x in coeffs if x]
    return sum(map(ne, signs, signs[1:]))
