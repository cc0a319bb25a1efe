"""Graded positive loop algebras over a central element h, and their quotients.

A :class:`LoopSpec` describes an infinite-dimensional algebra intensionally:
finitely many *basic generators* X_i with nonnegative integer grades g_i, a
central grading element h of grade s, and base brackets

    {X_i, X_j} = sum_k  c * h**p * X_k        (grade law: g_i + g_j = g_k + s*p),

stored once, in input order, as integers over one denominator d: the table
{(i, j): {(k, p): c * d}}, scaled by ``liealg._scale_table``.

The algebra is spanned by the towers {h**n X_i : n >= 0}.  Levels only add
under the bracket, so every structural check is made once at level 0: the
Jacobi identity on the level-0 quotient, embeddings on each generator pair at
levels (0, 0).  The truncation window of an embedding check (the ``window``
argument, default 8 levels) bounds only its codimension bookkeeping, never
correctness.

A :class:`TowerSelection` keeps, for each tower, only the levels >= m_i.
Factoring the selected algebra by the ideal generated by (h - eps) collapses
each tower to its minimal-level representative and gives a finite
:class:`~loopalg.liealg.LieAlgebra` with constants c * eps**(m_i + m_j + p - m_k).
The selected set is a subalgebra exactly when all those exponents are
nonnegative, so one walk over the table (:func:`_quotient_layers`) is both
the closure check and the quotient: it files each term under its exponent,
and a negative one refuses the selection, naming the least such (i, j, k).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .liealg import (LieAlgebra, _bracket_terms, _from_json, _jacobi_failure, _json_objects,
                     _scale_table, _shape, _to_json)
from .scalars import (FrozenRecord, InputError, Rejected, _as_entry, _show, add_term, as_fraction,
                      as_int)

DEFAULT_MAX_LEVEL = 8
_BUNDLED = ("h2", "l1", "l2")


class SpecFormatError(InputError):
    """Malformed loop-spec description (file or dict)."""


class SpecJacobiViolation(Rejected):
    """A grade-consistent loop spec fails the Jacobi identity."""


class NotClosed(Rejected):
    """A tower selection is not closed under the base brackets."""

    def __init__(self, i, j, k, needed, got):
        self.triple = (i, j, k)
        super().__init__(
            f"selection not closed on ({i},{j})->{k}: need level >= {needed}, bracket lands at {got}"
        )


class GradeMismatch(Rejected):
    """A generator map does not preserve grades."""


class BracketMismatch(Rejected):
    """A generator map does not carry base brackets to host brackets."""


class LoopElement(FrozenRecord):
    """Homogeneous element sum c * h**n X_i, stored as (i, n, c) terms."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__(terms)

    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def _normalize(pairs) -> "LoopElement":
        acc: dict[tuple[int, int], Fraction] = {}
        for i, n, c in [_as_entry(term, 3, "an element term") for term in pairs]:
            key = (as_int(i, "generator index"), as_int(n, "level"))
            if key[1] < 0:
                raise InputError("negative levels are not part of the positive loop algebra")
            add_term(acc, key, as_fraction(c))
        return LoopElement(tuple((i, n, acc[(i, n)]) for i, n in sorted(acc)))


class TowerSelection(tuple):
    """Minimal retained level per tower; plain tuple of nonnegative ints."""

    def __new__(cls, levels):
        levels = tuple(as_int(m, "selection level") for m in levels)
        if any(m < 0 for m in levels):
            raise SpecFormatError("selection levels must be nonnegative")
        return super().__new__(cls, levels)


class LoopSpec:
    """Basic generators, grades, and base brackets of a positive loop algebra."""

    def __init__(self, s, generators, brackets, selection=None):
        self._s = as_int(s, "s")
        if self._s < 1:
            raise SpecFormatError("grade of h must be a positive integer")
        generators = [_as_entry(g, 2, "a generator") for g in generators]
        n, self._names = _shape(len(generators), [name for name, _ in generators], SpecFormatError)
        self._grades = tuple(as_int(grade, "grade") for _, grade in generators)
        for name, grade in zip(self._names, self._grades):
            if grade < 0:
                raise SpecFormatError(f"generator {name} has negative grade")
        table, seen = {}, set()
        for i, j, k, coeff, hpow in _bracket_terms(brackets, n, 3, SpecFormatError):
            hpow, coeff = as_int(hpow, "hpow"), as_fraction(coeff)
            if hpow < 0:
                raise SpecFormatError("h-powers must be nonnegative")
            if (i, j, k) in seen:
                raise SpecFormatError(f"duplicate target {k} in bracket ({i},{j})")
            seen.add((i, j, k))
            if coeff == 0:
                continue
            if self._grades[i] + self._grades[j] != self._grades[k] + self._s * hpow:
                raise SpecFormatError(
                    f"grade law violated on ({i},{j})->{k}: "
                    f"{self._grades[i]}+{self._grades[j]} != {self._grades[k]}+{self._s}*{hpow}"
                )
            table.setdefault((i, j), {})[k, hpow] = coeff
        self._den, self._brackets = _scale_table(table)
        self._selection = None if selection is None else TowerSelection(selection)
        self._check_jacobi()

    @property
    def s(self) -> int:
        return self._s

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def grades(self) -> tuple[int, ...]:
        return self._grades

    @property
    def n_generators(self) -> int:
        return len(self._names)

    @property
    def selection(self):
        return self._selection

    def base_brackets(self):
        return {ij: tuple([(k, Fraction(num, self._den), p) for (k, p), num in terms.items()])
                for ij, terms in self._brackets.items()}

    def grade_of(self, i: int, level: int) -> int:
        if not 0 <= i < len(self._grades):
            raise InputError(f"generator index {i} out of range 0..{len(self._grades) - 1}")
        return self._grades[i] + self._s * level

    # -- elements ----------------------------------------------------------

    def element(self, pairs) -> LoopElement:
        """Build a homogeneous element from (generator, level, coeff) terms."""
        pairs = list(pairs)
        elem = LoopElement._normalize(pairs)
        for i, n, _ in pairs:  # a term with a zero coefficient still names a generator
            self.grade_of(i, n)
        self.element_grade(elem)
        return elem

    def basis_element(self, i: int, level: int = 0) -> LoopElement:
        return self.element([(i, level, 1)])

    def element_grade(self, elem: LoopElement):
        """Common grade of a homogeneous element (None for the zero element)."""
        grades = {self.grade_of(i, n) for i, n, _ in elem.terms}
        if len(grades) > 1:
            raise InputError(f"element is not homogeneous; grades {sorted(grades)}")
        return grades.pop() if grades else None

    def _bracket_raw(self, a, b):
        """Bracket of sparse {(i, level): coeff} maps; levels just add."""
        out: dict[tuple[int, int], Fraction] = {}
        for (i, ni), ci in a.items():
            for (j, nj), cj in b.items():
                if i == j:
                    continue
                (p, q), sign = ((i, j), 1) if i < j else ((j, i), -1)
                for (k, hp), num in self._brackets.get((p, q), {}).items():
                    add_term(out, (k, ni + nj + hp), Fraction(sign * ci * cj * num, self._den))
        return out

    def _check_jacobi(self):
        # levels only shift under the bracket, exactly as powers of eps multiply, so Jacobi on
        # the level-0 quotient certifies every level; grades put each X_e at one residual level
        if failure := _jacobi_failure(_quotient_layers(self, [0] * self.n_generators)):
            (i, j, k), res = failure
            res = ", ".join(f"{(e, q)}: {_show(Fraction(n, self._den ** 2), repr)}"
                            for e, qn in res.items() for q, n in qn.items())  # a dict's repr
            raise SpecJacobiViolation(f"Jacobi identity fails on basic triple ({i},{j},{k}): {{{res}}}")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "s": self._s,
            "generators": [
                {"name": n, "grade": g} for n, g in zip(self._names, self._grades)
            ],
            "brackets": _to_json(self.base_brackets(), "hpow"),
        }
        if self._selection is not None:
            out["selection"] = list(self._selection)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "LoopSpec":
        return _from_json(data, "hpow", SpecFormatError, "loop spec", lambda table: cls(
            data["s"], [(g["name"], g["grade"]) for g in _json_objects(data, "generators")], table,
            selection=data.get("selection")))

    def __repr__(self):
        gens = ", ".join(f"{n}:{g}" for n, g in zip(self._names, self._grades))
        return f"LoopSpec(s={self._s}, generators=[{gens}])"


def bundled_path(name: str) -> str:
    """The file of a spec shipped with the package: "h2", "l1" or "l2"."""
    if name not in _BUNDLED:
        raise SpecFormatError(f"unknown bundled spec {name!r}; choose from {_BUNDLED}")
    return os.path.join(os.path.dirname(__file__), "specs", f"{name}.json")


def bundled_spec(name: str) -> LoopSpec:
    """One of the specs shipped with the package: "h2", "l1" or "l2"."""
    with open(bundled_path(name), encoding="utf-8") as fh:
        return LoopSpec.from_json(json.load(fh))


def loop_bracket(spec: LoopSpec, x: LoopElement, y: LoopElement) -> LoopElement:
    """Bilinear bracket of homogeneous elements; levels add with the h-powers."""
    spec.element_grade(x)
    spec.element_grade(y)
    raw = spec._bracket_raw(
        {(i, n): c for i, n, c in x.terms}, {(j, n): c for j, n, c in y.terms}
    )
    return spec.element([(i, n, c) for (i, n), c in raw.items()])


def _quotient_layers(spec: LoopSpec, m: TowerSelection) -> dict:
    """Layers {q: {(i, j, k): c * d}} of the quotient at levels m, over the spec's
    denominator d: each base term c * h**p, in table order, filed under
    q = m_i + m_j + p - m_k; NotClosed names the least (i, j, k) with q < 0."""
    if len(m) != spec.n_generators:
        raise SpecFormatError("selection length does not match generator count")
    layers: dict = {}
    bad = []
    for (i, j), terms in spec._brackets.items():
        for (k, p), num in terms.items():
            q = m[i] + m[j] + p - m[k]
            if q < 0:
                bad.append((i, j, k, m[k], m[i] + m[j] + p))
            layers.setdefault(q, {})[i, j, k] = num
    if bad:
        raise NotClosed(*min(bad))
    return layers


def check_selection(spec: LoopSpec, selection) -> None:
    """Raise NotClosed unless m_i + m_j + hpow >= m_k on every base term."""
    _quotient_layers(spec, TowerSelection(selection))


def selection_ok(spec: LoopSpec, selection) -> bool:
    try:
        check_selection(spec, selection)
    except NotClosed:
        return False
    return True


def _class_name(name: str, level: int) -> str:
    return name if level == 0 else f"h*{name}" if level == 1 else f"h^{level}*{name}"


def factor_algebra(spec: LoopSpec, selection=None) -> LieAlgebra:
    """Quotient of the selected subalgebra by the ideal generated by (h - eps).

    Each tower collapses to the class of its minimal-level representative
    h**m_i X_i, and the bracket constants become coeff * eps**(m_i+m_j+p-m_k);
    NotClosed unless the selection makes every exponent nonnegative.  The spec's
    Jacobi check covers every quotient, since level shifts only multiply
    constants by powers of eps.
    """
    if selection is None:
        selection = spec.selection or [0] * spec.n_generators
    m = TowerSelection(selection)
    layers = _quotient_layers(spec, m)
    names = [_class_name(n, lvl) for n, lvl in zip(spec.names, m)]
    if len(set(names)) != len(names):  # A at level 1 and a generator named "h*A"
        clash = next(name for name in names if names.count(name) > 1)
        raise InputError(f"levels {list(m)} give two quotient classes the name {clash!r}")
    return LieAlgebra._from_layers(spec.n_generators, spec._den, layers, names)


class EmbeddingReport(FrozenRecord):
    """Result of a verified embedding; missing = host tower slots not covered."""

    __slots__ = ("window", "missing")

    def __init__(self, window, missing):
        super().__init__(window, missing)

    @property
    def codimension(self) -> int:
        return len(self.missing)


def embedding_check(sub: LoopSpec, host: LoopSpec, gen_map, window=DEFAULT_MAX_LEVEL) -> EmbeddingReport:
    """Verify a grade-preserving map of sub towers into host towers.

    gen_map lists, per sub generator, a (host index, level offset) pair:
    h**n X_i maps to h**(n + offset_i) Y_(host index).  Grades must be
    preserved, no two sub generators may share a host tower (the map would
    not be injective), and every sub base bracket must map termwise onto the
    host bracket of the images.  Both sides of a bracket at levels (n1, n2) are
    the level-(0, 0) bracket shifted by n1 + n2, so each generator pair is
    checked once at levels (0, 0); the window bounds only the codimension
    bookkeeping in the report.
    """
    if sub.s != host.s:
        raise GradeMismatch(f"h grades differ: {sub.s} != {host.s}")
    gen_map = [(as_int(t, "host index"), as_int(o, "level offset"))
               for t, o in [_as_entry(e, 2, "a generator map entry") for e in gen_map]]
    window = as_int(window, "window")
    if window < 0:
        raise InputError(f"window must be nonnegative, got {window}")
    if len(gen_map) != sub.n_generators:
        raise GradeMismatch("generator map must cover every sub generator")
    for i, (tgt, off) in enumerate(gen_map):
        if not 0 <= tgt < host.n_generators:
            raise GradeMismatch(f"host index {tgt} out of range")
        if off < 0:
            raise GradeMismatch("level offsets must be nonnegative")
        if sub.grades[i] != host.grades[tgt] + host.s * off:
            raise GradeMismatch(
                f"grade of {sub.names[i]} is {sub.grades[i]}, image has grade "
                f"{host.grades[tgt]} + {host.s}*{off}"
            )
    if len({tgt for tgt, _ in gen_map}) != len(gen_map):
        raise GradeMismatch("two sub generators map into the same host tower")

    for i in range(sub.n_generators):
        for j in range(i + 1, sub.n_generators):
            lhs = host._bracket_raw({gen_map[i]: 1}, {gen_map[j]: 1})
            rhs = sub._bracket_raw({(i, 0): 1}, {(j, 0): 1})
            # the map is injective on towers, so relabelling merges no terms
            if lhs != {(gen_map[k][0], lvl + gen_map[k][1]): c for (k, lvl), c in rhs.items()}:
                raise BracketMismatch(
                    f"bracket of ({sub.names[i]},{sub.names[j]}) at levels "
                    "(0,0) does not map onto the host bracket"
                )

    # one sub generator per host tower, so tower g holds just the levels >= its offset
    offsets = dict(gen_map)
    missing = tuple((host.names[g], lvl) for g in range(host.n_generators)
                    for lvl in range(min(offsets.get(g, window + 1), window + 1)))
    return EmbeddingReport(window=window, missing=missing)
