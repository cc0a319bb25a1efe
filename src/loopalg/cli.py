"""Command-line front end: validation, classification, quotients, contractions,
the Kepler oracle, and the three built-in demonstrations.

Exit codes: 0 success, 1 validation/classification failure, 2 numerical
(oracle) failure, 64 usage error or malformed input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import kepler, liealg, loop
from .liealg import (
    AlgebraFormatError,
    ContractionUndefined,
    JacobiViolation,
    LieAlgebra,
    LinearlyDependent,
    SymbolicAlgebra,
    WrongDimension,
    algebra_from_matrices,
    classify3,
    contract,
    is_classic_iw,
)
from .loop import LoopSpec, SpecFormatError, bundled_spec, check_selection, factor_algebra
from .scalars import InexactPower, NegativeExponent, NonPositiveEval, NotSymmetric

OK, FAIL_VALIDATION, FAIL_NUMERIC, USAGE = 0, 1, 2, 64

EXPECTED_TABLE1 = {
    "h2": ("so3", "e2", "so21"),
    "l1": ("so3", "heisenberg", "so21"),
    "l2": ("so3", "abelian3", "so21"),
}

_VALIDATION_ERRORS = (
    JacobiViolation,
    SymbolicAlgebra,
    WrongDimension,
    ContractionUndefined,
    LinearlyDependent,
    liealg.NotInSpan,
    loop.NotClosed,
    loop.GradeMismatch,
    loop.BracketMismatch,
    NegativeExponent,
    NonPositiveEval,
    InexactPower,
    NotSymmetric,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- input handling ---------------------------------------------------------

def _read_json(path):
    """Parse a JSON file; bundled spec names (h2.json, ...) resolve without a file."""
    base = os.path.basename(path)
    if not os.path.exists(path) and base in {f"{n}.json" for n in loop._BUNDLED}:
        return bundled_spec(base[:-5]).to_json()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: top-level JSON value must be an object")
    return data


def _load_spec(path) -> LoopSpec:
    data = _read_json(path)
    if "generators" not in data:
        raise UsageError(f"{path} is not a loop-spec file (no 'generators' key)")
    return LoopSpec.from_json(data)


def _load_algebra(path) -> LieAlgebra:
    data = _read_json(path)
    if "dim" not in data:
        raise UsageError(f"{path} is not an algebra file (no 'dim' key)")
    return LieAlgebra.from_json(data)


def _parse_fractions(text, what):
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from exc


def _at_eps(alg: LieAlgebra, text) -> LieAlgebra:
    """alg with the --eps value substituted, or alg itself without --eps."""
    if text is None:
        return alg
    values = _parse_fractions(text, "eps")
    if len(values) != 1:
        raise UsageError(f"--eps takes one rational, got {text!r}")
    return alg.evaluate_at(values[0])


def _parse_ints(text, what):
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from exc


def _emit(args, data, human):
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(human)


def _algebra_lines(alg: LieAlgebra) -> str:
    lines = [f"dim {alg.dim}; generators: {', '.join(alg.names)}"]
    table = alg.brackets()
    for (i, j) in sorted(table):
        terms = " + ".join(
            f"({table[(i, j)][k]})*{alg.names[k]}" for k in sorted(table[(i, j)])
        )
        lines.append(f"  {{{alg.names[i]}, {alg.names[j]}}} = {terms}")
    if len(lines) == 1:
        lines.append("  all brackets vanish")
    return "\n".join(lines)


# -- subcommands --------------------------------------------------------------

def _cmd_validate(args):
    data = _read_json(args.file)
    if "generators" in data:
        spec = LoopSpec.from_json(data)  # checks grade law and Jacobi
        if spec.selection is not None:
            check_selection(spec, spec.selection)
        kind = "loop spec"
        detail = {"kind": kind, "generators": list(spec.names), "s": spec.s, "ok": True}
    else:
        alg = LieAlgebra.from_json(data)  # checks Jacobi
        kind = "algebra"
        detail = {"kind": kind, "dim": alg.dim, "names": list(alg.names), "ok": True}
    _emit(args, detail, f"OK: {args.file} is a valid {kind}")
    return OK


def _cmd_classify(args):
    label = classify3(_at_eps(_load_algebra(args.file), args.eps))
    _emit(args, {"label": label}, label)
    return OK


def _cmd_contract(args):
    alg = _load_algebra(args.file)
    weights = _parse_fractions(args.weights, "weights")
    out = contract(alg, weights)
    human = _algebra_lines(out) + f"\nclassic Inonu-Wigner weights: {is_classic_iw(weights)}"
    _emit(args, {"algebra": out.to_json(), "classic_iw": is_classic_iw(weights)}, human)
    return OK


def _cmd_quotient(args):
    spec = _load_spec(args.file)
    levels = _parse_ints(args.levels, "levels") if args.levels else None
    alg = _at_eps(factor_algebra(spec, levels), args.eps)
    _emit(args, {"algebra": alg.to_json()}, _algebra_lines(alg))
    return OK


def _cmd_selection_check(args):
    spec = _load_spec(args.file)
    levels = _parse_ints(args.levels, "levels")
    check_selection(spec, levels)
    _emit(args, {"ok": True, "levels": levels}, f"OK: levels {levels} select a closed subalgebra")
    return OK


def _cmd_verify_kepler(args):
    try:
        params = kepler.KeplerParams(m=args.m, alpha=args.alpha, beta=args.beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    report = kepler.identity_suite(
        params, samples=args.samples, seed=args.seed, tol=args.tol
    )
    if args.format == "table":
        for res in report.identities:
            print(f"{'PASS' if res.passed else 'FAIL'} {res.name:34} "
                  f"max_rel_residual={res.max_rel_residual:.3e}")
        rt = report.radial_term
        print(f"radial coefficient: {rt['radial_coefficient']} ({rt['note']})")
    else:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return OK if report.all_pass else FAIL_NUMERIC


def demo_table1():
    """Classify the quotients of the three bundled specs over the energy signs."""
    rows = []
    for name in ("h2", "l1", "l2"):
        family = factor_algebra(bundled_spec(name))
        labels = tuple(classify3(family.evaluate_at(eps)) for eps in (1, 0, -1))
        rows.append({
            "spec": name,
            "labels": labels,
            "expected": EXPECTED_TABLE1[name],
            "match": labels == EXPECTED_TABLE1[name],
        })
    return rows


def _cmd_demo_table1(args):
    rows = demo_table1()
    lines = [f"{'spec':6} {'E<0 (eps=1)':14} {'E=0 (eps=0)':14} {'E>0 (eps=-1)':14} match"]
    for row in rows:
        a, b, c = row["labels"]
        lines.append(f"{row['spec']:6} {a:14} {b:14} {c:14} {'yes' if row['match'] else 'NO'}")
    _emit(args, rows, "\n".join(lines))
    return OK if all(row["match"] for row in rows) else FAIL_VALIDATION


def _lorentz_generators():
    """4x4 rotation/boost generators: J_i cyclic, B_i = e_i4 + e_4i."""
    def e(i, j):
        return [[Fraction(int(r == i and c == j)) for c in range(4)] for r in range(4)]

    def minus(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def plus(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    J = [minus(e(2, 1), e(1, 2)), minus(e(0, 2), e(2, 0)), minus(e(1, 0), e(0, 1))]
    B = [plus(e(i, 3), e(3, i)) for i in range(3)]
    return J + B


def _levi_civita(i, j, k):
    return {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (2, 1, 0): -1, (0, 2, 1): -1, (1, 0, 2): -1}.get((i, j, k), 0)


def _canonical_e3() -> LieAlgebra:
    """Euclidean algebra e(3): rotations J, abelian translations B, [J_i,B_j]=eps_ijk B_k."""
    table = {}
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            table[(i, j)] = {k: _levi_civita(i, j, k)}
            table[(i, 3 + j)] = {3 + k: _levi_civita(i, j, k)}
            table[(j, 3 + i)] = {3 + k: _levi_civita(j, i, k)}
    names = ["J1", "J2", "J3", "B1", "B2", "B3"]
    return LieAlgebra(6, table, names=names)


def demo_lorentz():
    """Contract the rotation/boost algebra so(3,1) to the Euclidean algebra e(3)."""
    so31 = algebra_from_matrices(
        _lorentz_generators(), names=["J1", "J2", "J3", "B1", "B2", "B3"]
    )
    weights = (0, 0, 0, 1, 1, 1)
    contracted = contract(so31, weights)
    expected = _canonical_e3()
    boosts_abelian = all(
        not contracted.bracket_on_basis(i, j) for i in range(3, 6) for j in range(3, 6)
    )
    return {
        "weights": [str(Fraction(w)) for w in weights],
        "classic_iw": is_classic_iw(weights),
        "boosts_abelian": boosts_abelian,
        "match": contracted.same_constants(expected),
        "contracted": contracted.to_json(),
    }


def _cmd_demo_lorentz(args):
    result = demo_lorentz()
    ok = result["match"] and result["classic_iw"] and result["boosts_abelian"]
    human = "\n".join([
        f"contraction weights: ({', '.join(result['weights'])})",
        f"classic Inonu-Wigner: {result['classic_iw']}",
        f"contracted boosts commute: {result['boosts_abelian']}",
        f"exact match with canonical e(3): {result['match']}",
        "PASS" if ok else "FAIL",
    ])
    _emit(args, result, human)
    return OK if ok else FAIL_VALIDATION


def demo_hysteresis():
    """Order of limits matters: eps->0 after beta->0 differs from the reverse.

    Path A sends the perturbation to zero first, leaving the unperturbed
    quotient family, which contracts to e2.  Path B quotients the perturbed
    loop algebra first; its constants never reference the perturbation
    strength, so the eps = 0 label (heisenberg) survives beta -> 0 unchanged.
    """
    eps_path = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(0)]
    beta_path = [Fraction(1, 2), Fraction(1, 4), Fraction(0)]
    fam_a = factor_algebra(bundled_spec("h2"))
    fam_b = factor_algebra(bundled_spec("l1"))
    path_a = [{"eps": str(e), "label": classify3(fam_a.evaluate_at(e))} for e in eps_path]
    path_b_eps = [{"eps": str(e), "label": classify3(fam_b.evaluate_at(e))} for e in eps_path]
    origin_b = path_b_eps[-1]["label"]
    path_b_beta = [{"beta": str(b), "label": origin_b} for b in beta_path]
    return {
        "path_A": {"order": "beta->0 then eps->0", "beta": "0", "points": path_a},
        "path_B": {"order": "eps->0 then beta->0", "eps_leg": path_b_eps,
                   "beta_leg": path_b_beta},
        "origin_labels": {"path_A": path_a[-1]["label"], "path_B": origin_b},
        "hysteresis": path_a[-1]["label"] != origin_b,
    }


def _cmd_demo_hysteresis(args):
    result = demo_hysteresis()
    a, b, o = result["path_A"], result["path_B"], result["origin_labels"]
    lines = [f"path A ({a['order']}):"]
    lines += [f"  eps={pt['eps']:>4}: {pt['label']}" for pt in a["points"]]
    lines.append(f"path B ({b['order']}):")
    lines += [f"  eps={pt['eps']:>4}: {pt['label']}" for pt in b["eps_leg"]]
    lines += [f"  beta={pt['beta']:>3}: {pt['label']}" for pt in b["beta_leg"]]
    lines.append(f"origin labels: path A -> {o['path_A']}, path B -> {o['path_B']}"
                 f" ({'different' if result['hysteresis'] else 'same'})")
    _emit(args, result, "\n".join(lines))
    return OK if result["hysteresis"] else FAIL_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopalg",
        description=(
            "Graded loop algebras, energy-ideal quotients, and generalized "
            "Inonu-Wigner contractions over exact rationals. Bundled loop specs "
            "h2.json, l1.json, l2.json resolve by name. Classification of "
            "quotients depends only on the sign of eps, so table demos sample "
            "eps in {1, 0, -1} (eps > 0 corresponds to bound states, E < 0)."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, func, help_, needs_format=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if needs_format:
            p.add_argument("--format", choices=("table", "json"), default="table")
        return p

    p = add("validate", _cmd_validate, "validate an algebra or loop-spec file")
    p.add_argument("file")

    p = add("classify", _cmd_classify, "classify a 3-dimensional algebra file")
    p.add_argument("file")
    p.add_argument("--eps", help="substitute this rational for eps first "
                   "(write a negative value as --eps=-1/2)")

    p = add("contract", _cmd_contract, "contract an algebra file with rational weights")
    p.add_argument("file")
    p.add_argument("--weights", required=True, help="comma-separated rationals, one per generator")

    p = add("quotient", _cmd_quotient, "factor algebra of a loop spec by its energy ideal")
    p.add_argument("file")
    p.add_argument("--levels", help="comma-separated minimal levels (default: file selection or zeros)")
    p.add_argument("--eps", help="substitute this rational for eps "
                   "(write a negative value as --eps=-1/2)")

    p = add("selection-check", _cmd_selection_check, "check that tower levels select a closed subalgebra")
    p.add_argument("file")
    p.add_argument("--levels", required=True)

    p = add("verify-kepler", _cmd_verify_kepler, "run the Poisson-bracket identity suite")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)

    add("demo-table1", _cmd_demo_table1, "classify the bundled quotients over the energy signs")
    add("demo-lorentz", _cmd_demo_lorentz, "contract so(3,1) to e(3) by rescaling the boosts")
    add("demo-hysteresis", _cmd_demo_hysteresis, "show that the two limit orders disagree at the origin")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (SpecFormatError, AlgebraFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_VALIDATION
    except (kepler.BoundaryTooClose, kepler.IdentityFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
