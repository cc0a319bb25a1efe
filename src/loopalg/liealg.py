"""Finite-dimensional Lie algebras with eps-dependent structure constants.

For basis indices i < j,

    [X_i, X_j] = sum_k C_ij^k X_k,    C_ij^k(eps) = sum_q eps**q (C_q)_ij^k,

with the (j, i) bracket implied by antisymmetry.  An algebra stores these
constants as integers over one denominator d > 0: one sparse integer layer
{(i, j, k): n} per exponent q, with (C_q)_ij^k = n / d and gcd(d, every n of
every layer) = 1.  That form is unique, so two algebras with the same
constants compare equal as a plain (d, layers) pair.  Each operation is one
pass over the layers: eps = 0 keeps the q = 0 layer (a negative q has no
limit), another value of eps scales each layer by eps**q taken as a pair of
ints a / b, a weighted rescaling shifts q, and a basis change transforms
each layer on its own by the 2x2 minors of T.  These passes add and multiply ints and
divide the result once by the gcd of all its entries; a Fraction is built
only where a constant is handed out as a rational, and a
:class:`~loopalg.scalars.PuiseuxScalar` only where it is handed out with its
powers of eps.  Every direct construction (``from_json`` included) checks
the Jacobi identity exactly, by one sparse walk over the nonzero brackets
(:func:`_jacobi_failure`, which a ``LoopSpec`` runs on its level-0 layers
too), so every value of this type is a genuine Lie algebra (possibly
depending on the parameter eps).  Operations whose results
are Lie algebras by construction -- basis changes, rescalings, substitutions
of eps, contraction limits, matrix commutators, loop quotients -- build
their layers directly and skip the re-check.

On top of the data type this module provides the structural toolbox used by
the quotient/contraction pipeline: derived subalgebra and center dimensions
and the exact Killing form, a classifier for 3-dimensional real algebras by
the inertia of their integer Bianchi matrix (read off its characteristic
polynomial), the generalized weighted contraction and its diagonal-rescaling
counterpart, and extraction of structure constants from a list of matrix
generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from . import linalg
from .scalars import (InputError, PuiseuxScalar, Rejected, _as_entry, _as_row, _show,
                      _sign_changes, add_term, as_fraction, as_int, eps_power, scale_to_integers)

CLASS_LABELS = ("so3", "so21", "e2", "e11", "heisenberg", "abelian3", "other")

# The largest dimension an algebra or loop spec may declare, checked before anything is built
MAX_DIM = 10_000


class JacobiViolation(Rejected):
    """The Jacobi identity fails on a triple of basis elements."""

    def __init__(self, i, j, k, residual):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on triple ({i},{j},{k}); residual {residual}"
        )


class SymbolicAlgebra(Rejected):
    """Operation requires eps-free structure constants."""


class WrongDimension(Rejected):
    """Operation is only defined for a specific dimension."""


class ContractionUndefined(Rejected):
    """Weighted contraction violates n_i + n_j >= n_k on a nonzero constant."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = ", ".join(
            f"({i},{j})->{k}: {_show(wi)}+{_show(wj)}-{_show(wk)} < 0"
            for i, j, k, wi, wj, wk in self.violations
        )
        super().__init__(f"contraction undefined; violated triples: {detail}")


class NotInSpan(Rejected):
    """A matrix commutator leaves the span of the given generators."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"commutator of generators {i} and {j} leaves the span")


class LinearlyDependent(Rejected):
    """Matrix generators are not linearly independent."""


class AlgebraFormatError(InputError):
    """Malformed algebra description (file or dict)."""


def _shape(dim, names, error=AlgebraFormatError) -> tuple[int, tuple[str, ...]]:
    """Checked dimension and generator names (X0, X1, ... by default); a bad
    one raises ``error``, the format error of the description read."""
    dim = as_int(dim, "dim")
    if dim < 0:
        raise error("dimension must be nonnegative")
    if dim > MAX_DIM:
        raise error(f"dimension {dim} exceeds the bound of {MAX_DIM}")
    if names is None:
        names = [f"X{i}" for i in range(dim)]
    elif not isinstance(names, (list, tuple)):
        raise error(f"names must be a list, got {names!r}")
    if len(names) != dim:
        raise error("names length does not match dimension")
    for name in names:
        if not isinstance(name, str):
            raise error(f"generator names must be strings, got {name!r}")
    if len(set(names)) != dim:
        raise error("generator names must be distinct")
    return dim, tuple(names)


def _bracket_terms(brackets, n, width, error):
    """(i, j, k, *rest) for each term (k, *rest), a ``width``-tuple, of a bracket
    table {(i, j): terms}; a mapping {k: coeff} gives the terms (k, coeff).  The
    indices are exact ints with 0 <= i < j < n and 0 <= k < n."""
    for key, terms in brackets.items():
        i, j = map(as_int, _as_entry(key, 2, "a bracket key"), "ij")
        if not 0 <= i < j < n:
            raise error(f"bracket key ({i},{j}) must satisfy 0 <= i < j < {n}")
        for term in terms.items() if hasattr(terms, "items") else terms:
            k, *rest = _as_entry(term, width, "a bracket term")
            k = as_int(k, "k")
            if not 0 <= k < n:
                raise error(f"bracket target {k} out of range")
            yield i, j, k, *rest


def _json_objects(data, key, default=None):
    """data[key] (``default`` if given and key is absent), or a TypeError naming a field
    that is not an array of JSON objects."""
    value = data[key] if default is None else data.get(key, default)
    if not isinstance(value, list):
        raise TypeError(f"field {key!r} must be an array")
    if not all(isinstance(entry, dict) for entry in value):
        raise TypeError(f"field {key!r} must hold objects")
    return value


def _from_json(data, exponent, error, what, build):
    """build(table) for a JSON description, its ``brackets`` list read as
    {(i, j): [(k, c, e), ...]} with e the ``exponent`` entry (0 when absent).
    A KeyError (a missing field), TypeError, ValueError (a bad rational's
    InputError included) or ArithmeticError becomes ``error``."""
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        table: dict[tuple[int, int], list] = {}
        for entry in _json_objects(data, "brackets", []):
            i, j = as_int(entry["i"], "i"), as_int(entry["j"], "j")
            if i >= j:
                raise error(f"bracket entry requires i < j, got ({i},{j})")
            table.setdefault((i, j), []).extend(
                (t["k"], t["c"], t.get(exponent, 0)) for t in _json_objects(entry, "terms"))
        return build(table)
    except (error, Rejected):
        raise
    except KeyError as exc:
        raise error(f"malformed {what}: missing field {exc}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise error(f"malformed {what}: {exc}") from exc


def _to_json(table, exponent):
    """The JSON ``brackets`` list of a table {(i, j): [(k, c, e), ...]}, the
    inverse of :func:`_from_json`: pairs sorted, terms in the table's order,
    c written as a string and e as the ``exponent`` entry."""
    return [{"i": i, "j": j, "terms": [{"k": k, "c": str(c), exponent: e} for k, c, e in terms]}
            for (i, j), terms in sorted(table.items())]


class LieAlgebra:
    """Lie algebra stored as integer layers over one denominator: ``_layers[q]`` is
    {(i, j, k): n}, n / ``_den`` the eps**q coefficient of C_ij^k, with i < j, ``_den`` > 0,
    gcd(``_den``, every n) = 1, no zero entry and no empty layer (no constants: (1, {}))."""

    def __init__(self, dim, brackets, names=None):
        self._dim, self._names = _shape(dim, names)
        layers: dict = {}
        for i, j, k, coeff in _bracket_terms(brackets, self._dim, 2, AlgebraFormatError):
            qc = coeff.terms if isinstance(coeff, PuiseuxScalar) else [(0, as_fraction(coeff))]
            for q, c in qc:
                add_term(layers.setdefault(q, {}), (i, j, k), c)
        self._den, self._layers = _canonical(*_scale_table(layers))
        self.validate()

    @classmethod
    def _from_layers(cls, dim, den, layers, names) -> "LieAlgebra":
        """An algebra from layers {q: {(i, j, k): n}} of ints over den > 0 (no n
        zero) that are Lie by construction; the names are taken as given (the
        caller's are already checked)."""
        alg = cls.__new__(cls)
        alg._dim, alg._names = dim, tuple(names)
        alg._den, alg._layers = _canonical(den, layers)
        return alg

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def _rows(self) -> dict:
        """{(i, j): {k: [(q, c), ...]}} with pairs, targets and exponents sorted."""
        rows: dict[tuple[int, int], dict] = {}
        for q, layer in sorted(self._layers.items()):
            for (i, j, k), c in layer.items():
                rows.setdefault((i, j), {}).setdefault(k, []).append((q, Fraction(c, self._den)))
        return {ij: dict(sorted(rows[ij].items())) for ij in sorted(rows)}

    def brackets(self):
        """The (i, j) -> {k: scalar} table, i < j only."""
        return {ij: {k: PuiseuxScalar(qc) for k, qc in row.items()}
                for ij, row in self._rows().items()}

    def bracket_on_basis(self, i: int, j: int) -> dict[int, PuiseuxScalar]:
        """[X_i, X_j] as a sparse coefficient vector (any i, j)."""
        (a, b), sign = ((i, j), 1) if i < j else ((j, i), -1)
        return {k: PuiseuxScalar([(q, sign * c) for q, c in qc])
                for k, qc in self._rows().get((a, b), {}).items()}

    def validate(self):
        """Check the Jacobi identity exactly: :func:`_jacobi_failure` on the stored layers."""
        if failure := _jacobi_failure(self._layers):
            (i, j, k), res = failure
            raise JacobiViolation(i, j, k, {e: PuiseuxScalar([
                (q, Fraction(n, self._den ** 2)) for q, n in qn.items()]) for e, qn in res.items()})

    @property
    def is_symbolic(self) -> bool:
        """True when any structure constant depends on eps."""
        return len(self._layers) > (0 in self._layers)  # a layer other than q = 0

    def constants_fraction(self) -> dict[tuple[int, int, int], Fraction]:
        """Structure constants as plain rationals; requires an eps-free algebra."""
        layer = _eps_free(self, "constants_fraction")
        return {key: Fraction(c, self._den) for key, c in layer.items()}

    def same_constants(self, other: "LieAlgebra") -> bool:
        return (self._dim, self._den, self._layers) == (other._dim, other._den, other._layers)

    def evaluate_at(self, eps) -> "LieAlgebra":
        """Substitute an exact rational value for eps (eps = 0 takes the limit).

        Layer q scales by the int pair eps**q = a / b of :func:`~loopalg.scalars.eps_power`,
        and the result is the int sum of the layers over lcm(b) * den.  The layers go in
        ascending q, as the terms of :meth:`~loopalg.scalars.PuiseuxScalar.substitute` do,
        and a diverging one is named by its least (i, j, k): a refusal is a function of
        the constants, not of the order they were built in."""
        eps = as_fraction(eps)
        powers = []
        for q, layer in sorted(self._layers.items()):
            # only eps = 0 with q < 0 diverges, and eps_power names that term
            least = Fraction(layer[min(layer)], self._den) if q < 0 and not eps else None
            a, b = eps_power(eps, q, least) if q else (1, 1)
            if a:
                powers.append((a, b, layer))
        den = lcm(*[b for _, b, _ in powers])
        out: dict[tuple[int, int, int], int] = {}
        for a, b, layer in powers:
            f = a * (den // b)
            for key, c in layer.items():
                out[key] = x = out.get(key, 0) + f * c
                if not x:
                    del out[key]
        return LieAlgebra._from_layers(self._dim, den * self._den, {0: out}, self._names)

    def change_basis(self, t_rows) -> "LieAlgebra":
        """Rewrite the algebra in the basis Y_a = sum_j T[a][j] X_j (T invertible).

        T is read in one pass into a flat key of each entry's numerator and
        denominator (an int or Fraction as it is, any other entry through
        ``as_fraction``), and its shape is checked once every entry is read.  T is
        prepared once (:func:`_prepared_basis`): scaled to the integer matrix
        S = dt * T and inverted as M / dinv.  The last T is kept, so a run of basis
        changes by one T (an algebra, then each of its specialisations) prepares it
        once.  [Y_a, Y_b] multiplies each stored term by the 2x2 minor of rows a and
        b of S on its columns, formed from those two rows; M maps the sums by target
        into a row of the pair, and only its nonzero entries are stored.  The inner
        loops run in int arithmetic over the stored layers, and the new constants
        are their int sums over dt * dinv * den.
        """
        n, key, ends = self._dim, [], []
        for t_row in t_rows:
            for x in t_row:
                if type(x) is not int and type(x) is not Fraction:
                    x = as_fraction(x)
                key += x.as_integer_ratio()
            if isinstance(t_row, str):
                _as_row(t_row)  # raises the TypeError that names a string row
            ends.append(len(key))
        if ends != [2 * n * r for r in range(1, n + 1)]:
            raise WrongDimension("change-of-basis matrix must be dim x dim")
        scale, s, tinv = _prepared_basis(n, tuple(key))
        acc: dict = {}
        for q, layer in self._layers.items():
            out = acc[q] = {}
            items = list(layer.items())
            for a, b in combinations(range(n), 2):
                sa, sb = s[a], s[b]
                vec: dict[int, int] = {}
                for (i, j, k), c in items:
                    if x := sa[i] * sb[j] - sa[j] * sb[i]:
                        vec[k] = vec.get(k, 0) + x * c
                row: dict[int, int] = {}
                for k, c in vec.items():
                    for l, m in tinv[k]:
                        row[l] = row.get(l, 0) + m * c
                for l, x in row.items():
                    if x:
                        out[a, b, l] = x
        return LieAlgebra._from_layers(n, scale * self._den, acc, self._names)

    def to_json(self) -> dict:
        table = {ij: [(k, c, str(q)) for k, qc in row.items() for q, c in qc]
                 for ij, row in self._rows().items()}
        return {"dim": self._dim, "names": list(self._names), "brackets": _to_json(table, "q")}

    @classmethod
    def from_json(cls, data: dict) -> "LieAlgebra":
        return _from_json(data, "q", AlgebraFormatError, "algebra description", lambda table: cls(
            data["dim"], {ij: [(k, PuiseuxScalar.monomial(c, q)) for k, c, q in terms]
                          for ij, terms in table.items()}, names=data.get("names")))

    def __repr__(self):
        nz = len({key for layer in self._layers.values() for key in layer})
        return f"LieAlgebra(dim={self._dim}, names={list(self._names)}, nonzero_terms={nz})"


@lru_cache(maxsize=1)
def _prepared_basis(n, key) -> tuple[int, tuple, tuple]:
    """(dt * dinv, S, M), all ints, for an n x n T keyed by its entries' numerators and
    denominators in turn, row by row, as one flat tuple: dt the lcm of the denominators,
    S = dt * T as int rows, and M / dinv = S**-1 with each row as its nonzero (column,
    entry) pairs.  A singular T raises LinearlyDependent."""
    dt = lcm(*key[1::2])
    flat = [p * (dt // d) for p, d in zip(key[::2], key[1::2])]
    s = tuple([tuple(flat[r * n:r * n + n]) for r in range(n)])
    inv = linalg._integer_inverse(s)
    if inv is None:
        raise LinearlyDependent("change-of-basis matrix is singular")
    tinv, dinv = inv
    return dt * dinv, s, tuple([tuple([(l, m) for l, m in enumerate(row) if m])
                                for row in tinv])


def _eps_free(alg: LieAlgebra, op: str) -> dict:
    """The q = 0 layer {(i, j, k): n} of an eps-free algebra; SymbolicAlgebra otherwise."""
    if alg.is_symbolic:
        raise SymbolicAlgebra(f"{op} requires eps-free structure constants")
    return alg._layers.get(0, {})


def _check_weights(alg: LieAlgebra, weights) -> tuple[Fraction, ...]:
    w = tuple(_as_row(weights))
    if len(w) != alg.dim:
        raise WrongDimension(f"expected {alg.dim} weights, got {len(w)}")
    return w


def _canonical(den, layers) -> tuple[int, dict]:
    """The stored form (d, {q: {key: m}}) of the layers {q: {key: n}} over den > 0: one
    gcd over all layers, empty ones dropped (none left gives d = 1)."""
    if not all(layers.values()):
        layers = {q: ints for q, ints in layers.items() if ints}
    g = gcd(den, *[n for ints in layers.values() for n in ints.values()])
    return (den, layers) if g == 1 else (
        den // g, {q: {key: n // g for key, n in ints.items()} for q, ints in layers.items()})


def _jacobi_failure(layers):
    """((i, j, k), {e: {q: n}}), the least basis triple failing Jacobi and its residual (n / den**2
    the eps**q coefficient of X_e), for layers {q: {(i, j, k): n}} over den; None if it holds.
    adj[a][b] lists the terms (e, q, c) of [X_a, X_b].  Only the triples {a, b, c} with a term X_d
    of [X_b, X_c] and a nonzero [X_a, X_d] are summed, in ascending order: any other sums to 0."""
    adj: dict[int, dict[int, list]] = {}
    for q, layer in layers.items():
        for (i, j, k), c in layer.items():
            adj.setdefault(i, {}).setdefault(j, []).append((k, q, c))
            adj.setdefault(j, {}).setdefault(i, []).append((k, q, -c))
    triples = {tuple(sorted((a, b, c))) for b, row in adj.items() for c, terms in row.items()
               if b < c for d, _, _ in terms for a in adj.get(d, ()) if a != b and a != c}
    for i, j, k in sorted(triples):
        res: dict[int, dict] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):  # a, b and c all have brackets
            for d, q1, c1 in adj[b].get(c, ()):
                for e, q2, c2 in adj[a].get(d, ()):
                    add_term(res.setdefault(e, {}), q1 + q2, c1 * c2)
        if res := {e: qn for e, qn in res.items() if qn}:
            return (i, j, k), res


def _scale_table(table) -> tuple[int, dict]:
    """(d, {a: {b: d * c}}) for a table {a: {b: c}} of rationals, d the lcm of all
    its denominators (:func:`~loopalg.scalars.scale_to_integers`), order kept."""
    d, rows = scale_to_integers([row.values() for row in table.values()])
    return d, {a: dict(zip(row, ints)) for (a, row), ints in zip(table.items(), rows)}


def derived_subalgebra_dim(alg: LieAlgebra) -> int:
    """Dimension of the span of all brackets [X_i, X_j] (exact rank)."""
    rows: dict[tuple[int, int], list] = {}
    for (i, j, k), c in _eps_free(alg, "derived_subalgebra_dim").items():
        rows.setdefault((i, j), [0] * alg.dim)[k] = c
    return linalg.matrix_rank(list(rows.values()))


def center_dim(alg: LieAlgebra) -> int:
    """Dimension of {x : [x, y] = 0 for all y} (exact nullity)."""
    # row (b, k) holds C_ab^k over a; only the nonzero rows are built
    rows: dict[tuple[int, int], list] = {}
    for (i, j, k), c in _eps_free(alg, "center_dim").items():
        rows.setdefault((j, k), [0] * alg.dim)[i] = c
        rows.setdefault((i, k), [0] * alg.dim)[j] = -c
    return alg.dim - linalg.matrix_rank(list(rows.values()))


def killing_form(alg: LieAlgebra):
    """B(X_a, X_b) = trace(ad_a . ad_b) as an exact rational matrix.

    ad[a] = {(e, d): f * C_ad^e} holds the nonzero entries of ad X_a for the
    algebra's denominator f, so each entry is an int sum divided by f**2."""
    n, f = alg.dim, alg._den
    layer = _eps_free(alg, "killing_form")
    ad: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for (i, j, k), c in layer.items():
        ad[i][k, j] = c
        ad[j][k, i] = -c
    killing = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            killing[a][b] = killing[b][a] = Fraction(
                sum(c * ad[b][d, e] for (e, d), c in ad[a].items() if (d, e) in ad[b]), f * f)
    return killing


# Inertia (up to an overall sign) of the Bianchi matrix of a unimodular algebra
_BIANCHI_LABELS = {(3, 0): "so3", (2, 1): "so21", (2, 0): "e2", (1, 1): "e11",
                   (1, 0): "heisenberg", (0, 0): "abelian3"}


def classify3(alg: LieAlgebra) -> str:
    """Classify a 3-dimensional real algebra by its Bianchi matrix.

    Row m of M is the bracket [X_j, X_k] for the cyclic triple (m, j, k), so
    [X_i, X_j] = sum_m eps_ijm M[m].  Every tr ad X_a vanishes exactly when
    M is symmetric; otherwise the algebra is "other" (Bianchi III, IV, V,
    VI_h and VII_h with h != 0).  A basis change Y = T X sends M to
    det(T) * T**-T M T**-1, so the inertia of a symmetric M up to an overall
    sign is a basis invariant, and it names the Bianchi class A type: so3
    (IX), so21 (VIII), e2 (VII_0), e11 (VI_0), heisenberg (II) and abelian3
    (I).  M is read from the stored integer layer, the constants times the
    algebra's one positive denominator, which keeps the inertia.  The roots of
    the characteristic polynomial x**3 - e1 x**2 + e2 x - e3 of a symmetric M
    are its eigenvalues, all real, so Descartes' rule of signs counts them
    exactly: the sign changes of (1, -e1, e2, -e3) are the positive ones and
    those of (1, e1, e2, e3) the negative ones, counted as ``signature`` counts.
    """
    if alg.dim != 3:
        raise WrongDimension(f"classify3 needs dimension 3, got {alg.dim}")
    m = [[0] * 3, [0] * 3, [0] * 3]
    for (i, j, k), c in _eps_free(alg, "classify3").items():
        # (i, j) = (0, 1), (1, 2) are cyclic; (0, 2) is [X_2, X_0] with its sign flipped
        m[3 - i - j][k] = c if j - i == 1 else -c
    (a, b, c), (p, d, e), (r, s, f) = m
    if (b, c, e) != (p, r, s):
        return "other"
    e1 = a + d + f  # tr M, the sum of the principal 2x2 minors and det M
    e2 = a * d + a * f + d * f - b * b - c * c - e * e
    e3 = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    pos, neg = _sign_changes((1, -e1, e2, -e3)), _sign_changes((1, e1, e2, e3))
    return _BIANCHI_LABELS[max(pos, neg), min(pos, neg)]


def is_classic_iw(weights) -> bool:
    """True iff every weight is 0 or equal to one common positive constant."""
    nonzero = {x for x in _as_row(weights) if x}
    return not nonzero or (len(nonzero) == 1 and min(nonzero) > 0)


def contract(alg: LieAlgebra, weights) -> LieAlgebra:
    """Weighted contraction limit of an eps-free algebra.

    Requires n_i + n_j >= n_k on every nonzero constant; the contracted
    constants keep C_ij^k where n_i + n_j = n_k and drop the rest.
    """
    layer = _eps_free(alg, "contract")
    w = _check_weights(alg, weights)
    violations = []
    kept = {}
    for (i, j, k), c in layer.items():
        e = w[i] + w[j] - w[k]
        if e < 0:
            violations.append((i, j, k, w[i], w[j], w[k]))
        elif e == 0:
            kept[i, j, k] = c
    if violations:
        raise ContractionUndefined(sorted(violations))
    return LieAlgebra._from_layers(alg.dim, alg._den, {0: kept}, alg.names)


def rescale_basis(alg: LieAlgebra, weights) -> LieAlgebra:
    """Conjugate by the diagonal map X_a -> eps**(-n_a) X_a.

    In the rescaled basis each constant picks up eps**(n_k - n_i - n_j);
    exponents may go negative.  This is the pre-limit family of a weighted
    contraction: for eps-free input, contract(alg, w) equals the eps -> 0
    limit of rescale_basis(alg, -w), entrywise, whenever it exists.
    """
    w = _check_weights(alg, weights)
    layers: dict = {}
    for q, layer in alg._layers.items():
        for (i, j, k), c in layer.items():
            layers.setdefault(q + w[k] - w[i] - w[j], {})[i, j, k] = c
    return LieAlgebra._from_layers(alg.dim, alg._den, layers, alg.names)


def algebra_from_matrices(mats, names=None) -> LieAlgebra:
    """Structure constants of a list of square rational matrices under [A,B] = AB - BA.

    The matrices must be linearly independent and their pairwise commutators
    must lie in their span (checked by one exact elimination over the
    generators and all commutators).  Each generator A_i is scaled once to
    the integer matrix M_i = s_i A_i, s_i the lcm of its denominators, so the
    commutators [M_i, M_j] = s_i s_j [A_i, A_j] multiply only ints.
    """
    mats = [[_as_row(row) for row in m] for m in mats]
    n, names = _shape(len(mats), names)
    if n == 0:
        return LieAlgebra(0, {}, names=[])
    d = len(mats[0])
    for m in mats:
        if len(m) != d or any(len(row) != d for row in m):
            raise WrongDimension("generators must be square matrices of equal size")
    scale, ints = zip(*[scale_to_integers(m) for m in mats])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    comms = [linalg.mat_sub(linalg.mat_mul(ints[i], ints[j]), linalg.mat_mul(ints[j], ints[i]))
             for i, j in pairs]
    # columns are the flattened generators, then the commutators: the
    # generators are independent iff they take the first n pivots, and a
    # commutator is then in their span iff its entries below row n vanish
    red, pivots = linalg.row_reduce(
        [[m[r][c] for m in (*ints, *comms)] for r in range(d) for c in range(d)]
    )
    if pivots[:n] != list(range(n)):
        raise LinearlyDependent("matrix generators are linearly dependent")
    layer = {}
    for col, (i, j) in enumerate(pairs, start=n):
        if any(row[col] for row in red[n:]):
            raise NotInSpan(i, j)
        # [M_i, M_j] = sum_k c_k M_k gives [A_i, A_j] = sum_k c_k s_k / (s_i s_j) A_k
        layer.update(((i, j, k), red[k][col] * Fraction(scale[k], scale[i] * scale[j]))
                     for k in range(n) if red[k][col])
    return LieAlgebra._from_layers(n, *_scale_table({0: layer}), names)
