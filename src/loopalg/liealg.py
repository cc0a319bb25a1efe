"""Finite-dimensional Lie algebras with eps-dependent structure constants.

For basis indices i < j,

    [X_i, X_j] = sum_k C_ij^k X_k,    C_ij^k(eps) = sum_q eps**q (C_q)_ij^k,

with the (j, i) bracket implied by antisymmetry.  An algebra stores these
constants as integer layers, one per exponent q: a denominator d and a
sparse table {(i, j, k): n} with (C_q)_ij^k = n / d, d > 0 and gcd(d, every
n) = 1.  That form is unique, so two algebras with the same constants
compare equal as plain dicts.  Each operation is one pass over the layers:
eps = 0 keeps the q = 0 layer (a negative q has no limit), another value of
eps scales each layer by eps**q, a weighted rescaling shifts q, and a basis
change transforms each layer on its own.  These passes add and multiply
ints and divide each result layer once by the gcd of its entries; a Fraction
is built only where a constant is handed out as a rational, and a
:class:`~loopalg.scalars.PuiseuxScalar` only where it is handed out with its
powers of eps.  Every direct
construction (``from_json`` included) checks the Jacobi identity exactly, so
every value of this type is a genuine Lie algebra (possibly depending on the
parameter eps).  Operations whose results are Lie algebras by construction --
basis changes, rescalings, substitutions of eps, contraction limits, matrix
commutators, loop quotients -- build their layers directly and skip the
re-check.

On top of the data type this module provides the structural toolbox used by
the quotient/contraction pipeline: derived subalgebra and center dimensions
and the exact Killing form, a classifier for 3-dimensional real algebras by the
inertia of their integer Bianchi matrix, the generalized weighted contraction
and its diagonal-rescaling counterpart, and extraction of structure constants
from a list of matrix generators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .scalars import (InputError, PuiseuxScalar, Rejected, add_term, as_fraction,
                      as_int, eps_power, scale_to_integers, signature)

CLASS_LABELS = ("so3", "so21", "e2", "e11", "heisenberg", "abelian3", "other")


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
            f"({i},{j})->{k}: {wi}+{wj}-{wk} < 0" for i, j, k, wi, wj, wk in self.violations
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


def _bracket_terms(brackets, n, error):
    """(i, j, k, rest) for each term (k, *rest) of a bracket table {(i, j): terms};
    a mapping {k: coeff} gives the terms (k, coeff).  The indices are exact ints
    with 0 <= i < j < n and 0 <= k < n."""
    for (i, j), terms in brackets.items():
        i, j = as_int(i, "i"), as_int(j, "j")
        if not 0 <= i < j < n:
            raise error(f"bracket key ({i},{j}) must satisfy 0 <= i < j < {n}")
        for k, *rest in terms.items() if hasattr(terms, "items") else terms:
            k = as_int(k, "k")
            if not 0 <= k < n:
                raise error(f"bracket target {k} out of range")
            yield i, j, k, rest


def _from_json(data, exponent, error, what, build):
    """build(table) for a JSON description, its ``brackets`` list read as
    {(i, j): [(k, c, e), ...]} with e the ``exponent`` entry (0 when absent).
    A KeyError, TypeError, ValueError or ArithmeticError becomes ``error``."""
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        table: dict[tuple[int, int], list] = {}
        for entry in data.get("brackets", []):
            i, j = as_int(entry["i"], "i"), as_int(entry["j"], "j")
            if i >= j:
                raise error(f"bracket entry requires i < j, got ({i},{j})")
            table.setdefault((i, j), []).extend(
                (t["k"], t["c"], t.get(exponent, 0)) for t in entry["terms"])
        return build(table)
    except (InputError, Rejected):
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise error(f"malformed {what}: {exc}") from exc


def _to_json(table, exponent):
    """The JSON ``brackets`` list of a table {(i, j): [(k, c, e), ...]}, the
    inverse of :func:`_from_json`: pairs sorted, terms in the table's order,
    c written as a string and e as the ``exponent`` entry."""
    return [{"i": i, "j": j, "terms": [{"k": k, "c": str(c), exponent: e} for k, c, e in terms]}
            for (i, j), terms in sorted(table.items())]


class LieAlgebra:
    """Lie algebra stored as integer layers: ``_layers[q]`` is (d, {(i, j, k): n}),
    n / d the eps**q coefficient of C_ij^k, with i < j, d > 0, gcd(d, every n) = 1,
    no zero entry and no empty layer."""

    def __init__(self, dim, brackets, names=None):
        self._dim, self._names = _shape(dim, names)
        layers: dict = {}
        for i, j, k, (coeff,) in _bracket_terms(brackets, self._dim, AlgebraFormatError):
            qc = coeff.terms if isinstance(coeff, PuiseuxScalar) else [(0, as_fraction(coeff))]
            for q, c in qc:
                add_term(layers.setdefault(q, {}), (i, j, k), c)
        self._layers = _canonical({q: _rational_layer(layer) for q, layer in layers.items()})
        self.validate()

    @classmethod
    def _from_layers(cls, dim, layers, names) -> "LieAlgebra":
        """An algebra from layers {q: (d, {(i, j, k): n})} (ints, d > 0, no n
        zero) that are Lie by construction; the names are taken as given (the
        caller's are already checked)."""
        alg = cls.__new__(cls)
        alg._dim, alg._names = dim, tuple(names)
        alg._layers = _canonical(layers)
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
        for q, (d, layer) in sorted(self._layers.items()):
            for (i, j, k), c in layer.items():
                rows.setdefault((i, j), {}).setdefault(k, []).append((q, Fraction(c, d)))
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
        """Check the Jacobi identity exactly on all basis triples, in ints over
        the lcm of the layer denominators."""
        # adj[a, b] lists the terms (e, q, c) of [X_a, X_b] = sum c / den eps**q X_e
        den, terms = _over_lcm(self._layers)
        adj: dict[tuple[int, int], list] = {}
        for q, (i, j, k), c in terms:
            adj.setdefault((i, j), []).append((k, q, c))
            adj.setdefault((j, i), []).append((k, q, -c))
        for i in range(self._dim):
            for j in range(i + 1, self._dim):
                for k in range(j + 1, self._dim):
                    res: dict[int, dict] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for d, q1, c1 in adj.get((b, c), ()):
                            for e, q2, c2 in adj.get((a, d), ()):
                                add_term(res.setdefault(e, {}), q1 + q2, c1 * c2)
                    residual = {e: PuiseuxScalar([(q, Fraction(r, den * den)) for q, r in qc.items()])
                                for e, qc in res.items() if qc}
                    if residual:
                        raise JacobiViolation(i, j, k, residual)

    @property
    def is_symbolic(self) -> bool:
        """True when any structure constant depends on eps."""
        return any(q != 0 for q in self._layers)

    def constants_fraction(self) -> dict[tuple[int, int, int], Fraction]:
        """Structure constants as plain rationals; requires an eps-free algebra."""
        d, layer = _eps_free(self, "constants_fraction")
        return {key: Fraction(c, d) for key, c in layer.items()}

    def same_constants(self, other: "LieAlgebra") -> bool:
        return self._dim == other._dim and self._layers == other._layers

    def evaluate_at(self, eps) -> "LieAlgebra":
        """Substitute an exact rational value for eps (eps = 0 takes the limit)."""
        eps = as_fraction(eps)
        # a diverging layer is named by its first term
        powers = [(eps_power(eps, q, Fraction(next(iter(layer.values())), d)), d, layer)
                  for q, (d, layer) in self._layers.items()]
        # every term over one common denominator: den(eps**q) * den(layer)
        den = lcm(*[p.denominator * d for p, d, _ in powers if p])
        out: dict[tuple[int, int, int], int] = {}
        for p, d, layer in powers:
            if p:
                f = p.numerator * (den // (p.denominator * d))
                for key, c in layer.items():
                    add_term(out, key, f * c)
        return LieAlgebra._from_layers(self._dim, {0: (den, out)}, self._names)

    def change_basis(self, t_rows) -> "LieAlgebra":
        """Rewrite the algebra in the basis Y_a = sum_j T[a][j] X_j (T invertible).

        T is scaled once to the integer matrix dt * T and inverted as M / dinv,
        so the inner loops run in int arithmetic over the stored layers; each
        new layer is its int sum over dt * dinv * den(layer).
        """
        t = [[as_fraction(x) for x in row] for row in t_rows]
        if len(t) != self._dim or any(len(r) != self._dim for r in t):
            raise WrongDimension("change-of-basis matrix must be dim x dim")
        dt, t = scale_to_integers(t)
        inv = linalg._integer_inverse(t)
        if inv is None:
            raise LinearlyDependent("change-of-basis matrix is singular")
        tinv, dinv = inv
        # linear in the constants: each layer transforms on its own
        pairs = {(i, j) for _, layer in self._layers.values() for i, j, _ in layer}
        acc: dict = {q: {} for q in self._layers}
        for a in range(self._dim):
            for b in range(a + 1, self._dim):
                w = {(i, j): t[a][i] * t[b][j] - t[a][j] * t[b][i] for i, j in pairs}
                for q, (_, layer) in self._layers.items():
                    vec: dict[int, int] = {}
                    for (i, j, k), c in layer.items():
                        if w[i, j]:
                            add_term(vec, k, w[i, j] * c)
                    out = acc[q]
                    for k, c in vec.items():
                        for l in range(self._dim):
                            if tinv[k][l]:
                                add_term(out, (a, b, l), tinv[k][l] * c)
        layers = {q: (dt * dinv * d, acc[q]) for q, (d, _) in self._layers.items()}
        return LieAlgebra._from_layers(self._dim, layers, self._names)

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
        nz = len({key for _, layer in self._layers.values() for key in layer})
        return f"LieAlgebra(dim={self._dim}, names={list(self._names)}, nonzero_terms={nz})"


def _eps_free(alg: LieAlgebra, op: str) -> tuple[int, dict]:
    """The q = 0 layer (d, {(i, j, k): n}) of an eps-free algebra; SymbolicAlgebra otherwise."""
    if alg.is_symbolic:
        raise SymbolicAlgebra(f"{op} requires eps-free structure constants")
    return alg._layers.get(0, (1, {}))


def _check_weights(alg: LieAlgebra, weights) -> tuple[Fraction, ...]:
    w = tuple(as_fraction(x) for x in weights)
    if len(w) != alg.dim:
        raise WrongDimension(f"expected {alg.dim} weights, got {len(w)}")
    return w


def _primitive(den, ints) -> tuple[int, dict]:
    """The stored form of the layer {key: n / den}, den > 0: (d, {key: m})
    with gcd(d, every m) = 1, by one gcd over the layer."""
    g = gcd(den, *ints.values())
    return (den, ints) if g == 1 else (den // g, {key: n // g for key, n in ints.items()})


def _canonical(layers) -> dict:
    """{q: _primitive(d, ints)} over the nonempty layers {q: (d, ints)}."""
    return {q: _primitive(d, ints) for q, (d, ints) in layers.items() if ints}


def _rational_layer(layer) -> tuple[int, dict]:
    """(d, {key: d * c}) for a layer {key: c} of rationals, d the lcm of its denominators."""
    d, (row,) = scale_to_integers([layer.values()])
    return d, dict(zip(layer, row))


def _over_lcm(layers) -> tuple[int, list]:
    """(den, [(q, key, n), ...]): every constant of the layers as n / den, den
    the lcm of the layer denominators."""
    den = lcm(*[d for d, _ in layers.values()])
    return den, [(q, key, c * (den // d)) for q, (d, layer) in layers.items()
                 for key, c in layer.items()]


def derived_subalgebra_dim(alg: LieAlgebra) -> int:
    """Dimension of the span of all brackets [X_i, X_j] (exact rank)."""
    rows: dict[tuple[int, int], list] = {}
    for (i, j, k), c in _eps_free(alg, "derived_subalgebra_dim")[1].items():
        rows.setdefault((i, j), [0] * alg.dim)[k] = c
    return linalg.matrix_rank(list(rows.values()))


def center_dim(alg: LieAlgebra) -> int:
    """Dimension of {x : [x, y] = 0 for all y} (exact nullity)."""
    # row (b, k) holds C_ab^k over a; only the nonzero rows are built
    rows: dict[tuple[int, int], list] = {}
    for (i, j, k), c in _eps_free(alg, "center_dim")[1].items():
        rows.setdefault((j, k), [0] * alg.dim)[i] = c
        rows.setdefault((i, k), [0] * alg.dim)[j] = -c
    return alg.dim - linalg.matrix_rank(list(rows.values()))


def killing_form(alg: LieAlgebra):
    """B(X_a, X_b) = trace(ad_a . ad_b) as an exact rational matrix.

    ad[a] = {(e, d): f * C_ad^e} holds the nonzero entries of ad X_a for the
    layer denominator f, so each entry is an int sum divided by f**2."""
    n = alg.dim
    f, layer = _eps_free(alg, "killing_form")
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
    (I).  M is read from the stored integer layer, the constants times its
    positive denominator, which keeps the inertia.
    """
    if alg.dim != 3:
        raise WrongDimension(f"classify3 needs dimension 3, got {alg.dim}")
    m = [[0] * 3 for _ in range(3)]
    for (i, j, k), c in _eps_free(alg, "classify3")[1].items():
        # (i, j) = (0, 1), (1, 2) are cyclic; (0, 2) is [X_2, X_0] with its sign flipped
        m[3 - i - j][k] = c if j - i == 1 else -c
    if m[0][1] != m[1][0] or m[0][2] != m[2][0] or m[1][2] != m[2][1]:
        return "other"
    pos, neg, _ = signature(m)
    return _BIANCHI_LABELS[max(pos, neg), min(pos, neg)]


def is_classic_iw(weights) -> bool:
    """True iff every weight is 0 or equal to one common positive constant."""
    w = [as_fraction(x) for x in weights]
    nonzero = {x for x in w if x != 0}
    if not nonzero:
        return True
    return len(nonzero) == 1 and next(iter(nonzero)) > 0


def contract(alg: LieAlgebra, weights) -> LieAlgebra:
    """Weighted contraction limit of an eps-free algebra.

    Requires n_i + n_j >= n_k on every nonzero constant; the contracted
    constants keep C_ij^k where n_i + n_j = n_k and drop the rest.
    """
    d, layer = _eps_free(alg, "contract")
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
        raise ContractionUndefined(violations)
    return LieAlgebra._from_layers(alg.dim, {0: (d, kept)}, alg.names)


def rescale_basis(alg: LieAlgebra, weights) -> LieAlgebra:
    """Conjugate by the diagonal map X_a -> eps**(-n_a) X_a.

    In the rescaled basis each constant picks up eps**(n_k - n_i - n_j);
    exponents may go negative.  This is the pre-limit family of a weighted
    contraction: for eps-free input, contract(alg, w) equals the eps -> 0
    limit of rescale_basis(alg, -w), entrywise, whenever it exists.
    """
    w = _check_weights(alg, weights)
    # layers of different denominators may land on one exponent
    den, terms = _over_lcm(alg._layers)
    layers: dict = {}
    for q, (i, j, k), c in terms:
        layers.setdefault(q + w[k] - w[i] - w[j], (den, {}))[1][i, j, k] = c
    return LieAlgebra._from_layers(alg.dim, layers, alg.names)


def algebra_from_matrices(mats, names=None) -> LieAlgebra:
    """Structure constants of a list of square rational matrices under [A,B] = AB - BA.

    The matrices must be linearly independent and their pairwise commutators
    must lie in their span (checked by one exact elimination over the
    generators and all commutators).  Each generator A_i is scaled once to
    the integer matrix M_i = s_i A_i, s_i the lcm of its denominators, so the
    commutators [M_i, M_j] = s_i s_j [A_i, A_j] multiply only ints.
    """
    mats = [[[x if type(x) is int else as_fraction(x) for x in row] for row in m] for m in mats]
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
    return LieAlgebra._from_layers(n, {0: _rational_layer(layer)}, names)
