"""Finite-dimensional Lie algebras with eps-dependent structure constants.

An algebra is stored as sparse antisymmetric structure constants over
:class:`~loopalg.scalars.PuiseuxScalar`: for basis indices i < j,

    [X_i, X_j] = sum_k C_ij^k X_k,

with the (j, i) bracket implied by antisymmetry.  The Jacobi identity is
checked exactly where input enters (direct construction and ``from_json``),
so every value of this type is a genuine Lie algebra (possibly depending on
the parameter eps).  Operations whose results are Lie algebras by
construction -- basis changes, rescalings, substitutions of eps, contraction
limits, matrix commutators -- skip the re-check.

On top of the data type this module provides the structural toolbox used by
the quotient/contraction pipeline: derived subalgebra and center dimensions,
the exact Killing form, a classifier for 3-dimensional real algebras, the
generalized weighted contraction and its diagonal-rescaling counterpart, and
extraction of structure constants from a list of matrix generators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .scalars import PuiseuxScalar, add_term, as_fraction, signature

CLASS_LABELS = ("so3", "so21", "e2", "e11", "heisenberg", "abelian3", "other")


class JacobiViolation(ValueError):
    """The Jacobi identity fails on a triple of basis elements."""

    def __init__(self, i, j, k, residual):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on triple ({i},{j},{k}); residual {residual}"
        )


class SymbolicAlgebra(ValueError):
    """Operation requires eps-free structure constants."""


class WrongDimension(ValueError):
    """Operation is only defined for a specific dimension."""


class ContractionUndefined(ValueError):
    """Weighted contraction violates n_i + n_j >= n_k on a nonzero constant."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = ", ".join(
            f"({i},{j})->{k}: {wi}+{wj}-{wk} < 0" for i, j, k, wi, wj, wk in self.violations
        )
        super().__init__(f"contraction undefined; violated triples: {detail}")


class NotInSpan(ValueError):
    """A matrix commutator leaves the span of the given generators."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"commutator of generators {i} and {j} leaves the span")


class LinearlyDependent(ValueError):
    """Matrix generators are not linearly independent."""


class AlgebraFormatError(ValueError):
    """Malformed algebra description (file or dict)."""


def _coerce_scalar(value) -> PuiseuxScalar:
    if isinstance(value, PuiseuxScalar):
        return value
    return PuiseuxScalar.constant(as_fraction(value))


class LieAlgebra:
    """Lie algebra given by sparse structure constants over PuiseuxScalar."""

    def __init__(self, dim, brackets, names=None, check=True):
        self._dim = int(dim)
        if self._dim < 0:
            raise AlgebraFormatError("dimension must be nonnegative")
        if names is None:
            names = [f"X{i}" for i in range(self._dim)]
        names = [str(n) for n in names]
        if len(names) != self._dim:
            raise AlgebraFormatError("names length does not match dimension")
        self._names = tuple(names)
        table: dict[tuple[int, int], dict[int, PuiseuxScalar]] = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < j < self._dim):
                raise AlgebraFormatError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            row = {}
            items = terms.items() if isinstance(terms, Mapping) else terms
            for k, coeff in items:
                if not 0 <= k < self._dim:
                    raise AlgebraFormatError(f"bracket target {k} out of range")
                add_term(row, k, _coerce_scalar(coeff))
            if row:
                table[(i, j)] = row
        self._brackets = table
        if check:
            self.validate()

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def brackets(self):
        """The stored (i, j) -> {k: scalar} table, i < j only."""
        return {ij: dict(row) for ij, row in self._brackets.items()}

    def bracket_on_basis(self, i: int, j: int) -> dict[int, PuiseuxScalar]:
        """[X_i, X_j] as a sparse coefficient vector (any i, j)."""
        if i == j:
            return {}
        if i < j:
            return dict(self._brackets.get((i, j), {}))
        return {k: -s for k, s in self._brackets.get((j, i), {}).items()}

    def _ad_apply(self, i, vec):
        """[X_i, sum_d vec_d X_d] as a sparse vector over PuiseuxScalar."""
        out: dict[int, PuiseuxScalar] = {}
        for d, coeff in vec.items():
            for e, c in self.bracket_on_basis(i, d).items():
                add_term(out, e, coeff * c)
        return out

    def validate(self):
        """Check the Jacobi identity exactly on all basis triples."""
        for i in range(self._dim):
            for j in range(i + 1, self._dim):
                bij = self.bracket_on_basis(i, j)
                for k in range(j + 1, self._dim):
                    res = self._ad_apply(i, self.bracket_on_basis(j, k))
                    for a, vec in ((j, self.bracket_on_basis(k, i)), (k, bij)):
                        for e, c in self._ad_apply(a, vec).items():
                            add_term(res, e, c)
                    if res:
                        raise JacobiViolation(i, j, k, res)

    @property
    def is_symbolic(self) -> bool:
        """True when any structure constant depends on eps."""
        return any(
            not s.is_constant() for row in self._brackets.values() for s in row.values()
        )

    def constants_fraction(self) -> dict[tuple[int, int, int], Fraction]:
        """Structure constants as plain rationals; requires an eps-free algebra."""
        out = {}
        for (i, j), row in self._brackets.items():
            for k, s in row.items():
                if not s.is_constant():
                    raise SymbolicAlgebra(
                        f"structure constant C_{i}{j}^{k} = {s} depends on eps"
                    )
                out[(i, j, k)] = s.constant_value()
        return out

    def structure_constants(self):
        """Canonical hashable form of the bracket table, for exact comparison."""
        return frozenset(
            (i, j, k, s) for (i, j), row in self._brackets.items() for k, s in row.items()
        )

    def same_constants(self, other: "LieAlgebra") -> bool:
        return self._dim == other._dim and self.structure_constants() == other.structure_constants()

    def evaluate_at(self, eps) -> "LieAlgebra":
        """Substitute an exact rational value for eps (eps = 0 takes the limit)."""
        eps = as_fraction(eps)
        table = {
            ij: {k: s.substitute(eps) for k, s in row.items()}
            for ij, row in self._brackets.items()
        }
        return LieAlgebra(self._dim, table, names=self._names, check=False)

    def change_basis(self, t_rows) -> "LieAlgebra":
        """Rewrite the algebra in the basis Y_a = sum_j T[a][j] X_j (T invertible)."""
        t = [[as_fraction(x) for x in row] for row in t_rows]
        if len(t) != self._dim or any(len(r) != self._dim for r in t):
            raise WrongDimension("change-of-basis matrix must be dim x dim")
        tinv = linalg.invert_matrix(t)
        if tinv is None:
            raise LinearlyDependent("change-of-basis matrix is singular")
        table: dict[tuple[int, int], dict[int, PuiseuxScalar]] = {}
        for a in range(self._dim):
            for b in range(a + 1, self._dim):
                vec: dict[int, PuiseuxScalar] = {}
                for (i, j), row in self._brackets.items():
                    w = t[a][i] * t[b][j] - t[a][j] * t[b][i]
                    if not w:
                        continue
                    for k, s in row.items():
                        add_term(vec, k, w * s)
                out: dict[int, PuiseuxScalar] = {}
                for k, s in vec.items():
                    for l in range(self._dim):
                        if tinv[k][l]:
                            add_term(out, l, tinv[k][l] * s)
                if out:
                    table[(a, b)] = out
        return LieAlgebra(self._dim, table, names=self._names, check=False)

    def to_json(self) -> dict:
        brackets = []
        for (i, j) in sorted(self._brackets):
            terms = []
            for k in sorted(self._brackets[(i, j)]):
                for t in self._brackets[(i, j)][k].to_json():
                    terms.append({"k": k, "c": t["c"], "q": t["q"]})
            brackets.append({"i": i, "j": j, "terms": terms})
        return {"dim": self._dim, "names": list(self._names), "brackets": brackets}

    @classmethod
    def from_json(cls, data: dict) -> "LieAlgebra":
        try:
            dim = data["dim"]
            names = data.get("names")
            table: dict[tuple[int, int], list] = {}
            for entry in data.get("brackets", []):
                i, j = int(entry["i"]), int(entry["j"])
                if i >= j:
                    raise AlgebraFormatError(f"bracket entry requires i < j, got ({i},{j})")
                terms = table.setdefault((i, j), [])
                for t in entry["terms"]:
                    terms.append(
                        (int(t["k"]), PuiseuxScalar.monomial(Fraction(t["c"]), Fraction(t.get("q", 0))))
                    )
        except AlgebraFormatError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise AlgebraFormatError(f"malformed algebra description: {exc}") from exc
        return cls(dim, table, names=names)

    def __repr__(self):
        nz = sum(len(row) for row in self._brackets.values())
        return f"LieAlgebra(dim={self._dim}, names={list(self._names)}, nonzero_terms={nz})"


def _require_eps_free(alg: LieAlgebra, op: str):
    if alg.is_symbolic:
        raise SymbolicAlgebra(f"{op} requires eps-free structure constants")


def _check_weights(alg: LieAlgebra, weights) -> tuple[Fraction, ...]:
    w = tuple(as_fraction(x) for x in weights)
    if len(w) != alg.dim:
        raise WrongDimension(f"expected {alg.dim} weights, got {len(w)}")
    return w


def _ad_table(alg: LieAlgebra, op: str):
    """Dense adjoint matrices of an eps-free algebra: ad[a][e][d] = C_ad^e."""
    _require_eps_free(alg, op)
    n = alg.dim
    zero = Fraction(0)
    ad = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in alg.constants_fraction().items():
        ad[i][k][j] = c
        ad[j][k][i] = -c
    return ad


def derived_subalgebra_dim(alg: LieAlgebra) -> int:
    """Dimension of the span of all brackets [X_i, X_j] (exact rank)."""
    ad = _ad_table(alg, "derived_subalgebra_dim")
    n = alg.dim
    rows = [[ad[i][k][j] for k in range(n)] for i in range(n) for j in range(i + 1, n)]
    return linalg.matrix_rank(rows)


def center_dim(alg: LieAlgebra) -> int:
    """Dimension of {x : [x, y] = 0 for all y} (exact nullity)."""
    ad = _ad_table(alg, "center_dim")
    n = alg.dim
    rows = [[ad[a][e][b] for a in range(n)] for b in range(n) for e in range(n)]
    return n - linalg.matrix_rank(rows)


def killing_form(alg: LieAlgebra):
    """B(X_a, X_b) = trace(ad_a . ad_b) as an exact rational matrix."""
    ad = _ad_table(alg, "killing_form")
    n = alg.dim
    form = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            tr = sum(ad[a][e][d] * ad[b][d][e] for e in range(n) for d in range(n))
            form[a][b] = form[b][a] = tr
    return form


def classify3(alg: LieAlgebra) -> str:
    """Classify a 3-dimensional real algebra by exact structural invariants.

    Decision tree on (derived dimension, center dimension, Killing inertia):
    abelian3, heisenberg, e2 / e11 (two-dimensional derived algebra, every
    tr ad X_a zero, rank-1 Killing negative / positive), so3 / so21
    (definite / indefinite Killing), else "other" -- the non-unimodular
    Bianchi types (III, IV, V, VI_h, VII_h with h != 0) included.
    Invariant under any exact change of basis.
    """
    if alg.dim != 3:
        raise WrongDimension(f"classify3 needs dimension 3, got {alg.dim}")
    ad = _ad_table(alg, "classify3")
    d = derived_subalgebra_dim(alg)
    if d == 0:
        return "abelian3"
    kill = killing_form(alg)
    sig = signature(kill)
    if d == 1:
        if center_dim(alg) == 1 and sig == (0, 0, 3):
            return "heisenberg"
        return "other"
    if d == 2:
        if any(sum(ad[a][e][e] for e in range(3)) for a in range(3)):
            return "other"
        if sig == (0, 1, 2):
            return "e2"
        if sig == (1, 0, 2):
            return "e11"
        return "other"
    if sig == (0, 3, 0):
        return "so3"
    if sig == (2, 1, 0):
        return "so21"
    return "other"


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
    _require_eps_free(alg, "contract")
    w = _check_weights(alg, weights)
    violations = []
    table: dict[tuple[int, int], dict[int, PuiseuxScalar]] = {}
    for (i, j), row in alg.brackets().items():
        kept = {}
        for k, s in row.items():
            e = w[i] + w[j] - w[k]
            if e < 0:
                violations.append((i, j, k, w[i], w[j], w[k]))
            elif e == 0:
                kept[k] = s
        if kept:
            table[(i, j)] = kept
    if violations:
        raise ContractionUndefined(violations)
    return LieAlgebra(alg.dim, table, names=alg.names, check=False)


def rescale_basis(alg: LieAlgebra, weights) -> LieAlgebra:
    """Conjugate by the diagonal map X_a -> eps**(-n_a) X_a.

    In the rescaled basis each constant picks up eps**(n_k - n_i - n_j);
    exponents may go negative.  This is the pre-limit family of a weighted
    contraction: for eps-free input, contract(alg, w) equals the eps -> 0
    limit of rescale_basis(alg, -w), entrywise, whenever it exists.
    """
    w = _check_weights(alg, weights)
    table = {}
    for (i, j), row in alg.brackets().items():
        table[(i, j)] = {
            k: s * PuiseuxScalar.monomial(1, w[k] - w[i] - w[j]) for k, s in row.items()
        }
    return LieAlgebra(alg.dim, table, names=alg.names, check=False)


def algebra_from_matrices(mats: Sequence, names=None) -> LieAlgebra:
    """Structure constants of a list of square rational matrices under [A,B] = AB - BA.

    The matrices must be linearly independent and their pairwise commutators
    must lie in their span (checked by exact linear solve).
    """
    mats = [[[as_fraction(x) for x in row] for row in m] for m in mats]
    n = len(mats)
    if n == 0:
        return LieAlgebra(0, {}, names=[])
    d = len(mats[0])
    for m in mats:
        if len(m) != d or any(len(row) != d for row in m):
            raise WrongDimension("generators must be square matrices of equal size")
    # columns of the solve are the flattened generators
    basis_cols = [[m[r][c] for m in mats] for r in range(d) for c in range(d)]
    if linalg.matrix_rank(basis_cols) < n:
        raise LinearlyDependent("matrix generators are linearly dependent")
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            comm = linalg.mat_sub(linalg.mat_mul(mats[i], mats[j]), linalg.mat_mul(mats[j], mats[i]))
            flat = [comm[r][c] for r in range(d) for c in range(d)]
            x = linalg.solve_linear(basis_cols, flat)
            if x is None:
                raise NotInSpan(i, j)
            row = {k: PuiseuxScalar.constant(v) for k, v in enumerate(x) if v}
            if row:
                table[(i, j)] = row
    return LieAlgebra(n, table, names=names, check=False)
