"""Checks of the program's outputs.

Every check rests on a property of the method or on a quantity computed here,
apart from the program: traces of ad, quotient exponents, contraction limits,
embedding codimensions and closed-form Poisson brackets.  No check compares
against a stored copy of the program's output.  A checker returns None when
the output is right and raises CheckFailed when it is wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Labels of the unimodular types (tr ad x = 0 for every x).
UNIMODULAR = frozenset({"so3", "so21", "e2", "e11", "heisenberg", "abelian3"})

# The paper's Table 1: label of each bundled quotient for eps > 0, eps = 0
# and eps < 0.
TABLE1 = {
    "h2": ("so3", "e2", "so21"),
    "l1": ("so3", "heisenberg", "so21"),
    "l2": ("so3", "abelian3", "so21"),
}

DOCUMENTED_EXITS = (0, 1, 2, 64)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- quantities computed apart from the program ------------------------------

def sign_column(eps) -> int:
    """Column of TABLE1 for a rational eps: 0 for eps > 0, 1 for 0, 2 for < 0."""
    eps = Fraction(eps)
    return 0 if eps > 0 else 1 if eps == 0 else 2


def constants(alg_json) -> dict:
    """Structure constants (i, j, k) -> {q: c} of an algebra in its JSON form."""
    out: dict = {}
    for entry in alg_json["brackets"]:
        for t in entry["terms"]:
            key = (int(entry["i"]), int(entry["j"]), int(t["k"]))
            row = out.setdefault(key, {})
            q = Fraction(t.get("q", "0"))
            row[q] = row.get(q, Fraction(0)) + Fraction(t["c"])
    return {key: {q: c for q, c in row.items() if c} for key, row in out.items()
            if any(row.values())}


def eps_free(consts) -> dict:
    """(i, j, k) -> c of constants that do not depend on eps."""
    out = {}
    for key, row in consts.items():
        expect(set(row) == {Fraction(0)}, f"constant {key} depends on eps: {row}")
        out[key] = row[Fraction(0)]
    return out


def trace_ad(consts: dict, dim: int) -> list:
    """tr ad X_a = sum_b C_ab^b for eps-free constants keyed with i < j."""
    tr = [Fraction(0)] * dim
    for (i, j, k), c in consts.items():
        if k == j:
            tr[i] += c          # [X_i, X_j] has a C_ij^j X_j term
        if k == i:
            tr[j] -= c          # [X_j, X_i] = -[X_i, X_j]
    return tr


def det3(t) -> Fraction:
    return (t[0][0] * (t[1][1] * t[2][2] - t[1][2] * t[2][1])
            - t[0][1] * (t[1][0] * t[2][2] - t[1][2] * t[2][0])
            + t[0][2] * (t[1][0] * t[2][1] - t[1][1] * t[2][0]))


def base_terms(spec_json) -> list:
    """(i, j, k, c, hpow) for every base bracket term of a loop spec."""
    return [(int(e["i"]), int(e["j"]), int(t["k"]), Fraction(t["c"]), int(t.get("hpow", 0)))
            for e in spec_json["brackets"] for t in e["terms"] if Fraction(t["c"])]


def quotient_constants(terms, selection) -> dict:
    """(i, j, k) -> {q: c} of the factor algebra: q = m_i + m_j + p - m_k."""
    m = selection
    return {(i, j, k): {Fraction(m[i] + m[j] + p - m[k]): c} for i, j, k, c, p in terms}


def selection_closed(terms, selection) -> bool:
    """Every quotient exponent is nonnegative."""
    return all(q >= 0 for row in quotient_constants(terms, selection).values() for q in row)


def substitute(consts: dict, eps) -> dict:
    """Exact value of integer-exponent constants at a rational eps (0: the limit)."""
    eps = Fraction(eps)
    out = {}
    for key, row in consts.items():
        value = Fraction(0)
        for q, c in row.items():
            expect(q.denominator == 1 and q >= 0, f"exponent {q} has no value at {eps}")
            value += c * eps ** int(q)
        if value:
            out[key] = {Fraction(0): value}
    return out


def contraction(consts: dict, weights):
    """Constants kept by the weighted contraction, or None when it is undefined."""
    kept = {}
    for (i, j, k), c in consts.items():
        e = weights[i] + weights[j] - weights[k]
        if e < 0:
            return None
        if e == 0:
            kept[(i, j, k)] = {Fraction(0): c}
    return kept


def classic_iw(weights) -> bool:
    nonzero = {w for w in weights if w}
    return not nonzero or (len(nonzero) == 1 and min(nonzero) > 0)


def embedding_missing(gen_map, host_names, window) -> set:
    """Host tower slots (name, level) that no sub tower reaches up to the window."""
    lowest = {}
    for tgt, off in gen_map:
        lowest[tgt] = min(off, lowest.get(tgt, off))
    return {(name, lvl) for g, name in enumerate(host_names)
            for lvl in range(window + 1) if lvl < lowest.get(g, window + 1)}


def e3_constants() -> dict:
    """Euclidean algebra e(3) on (J1, J2, J3, B1, B2, B3): [J_i, J_j] = J_k,
    [J_i, B_j] = B_k for cyclic (i, j, k), translations commuting."""
    out = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for a, b, c, s in ((i, j, k, 1), (i, 3 + j, 3 + k, 1), (j, 3 + i, 3 + k, -1)):
            key, sign = ((a, b, c), s) if a < b else ((b, a, c), -s)
            out[key] = {Fraction(0): Fraction(sign)}
    return out


def operands(identity_name: str) -> list:
    """Observables whose gradients a bracket identity '{f,g}=...' needs."""
    inner = identity_name[identity_name.index("{") + 1:identity_name.index("}")]
    return [name.strip() for name in inner.split(",")]


# -- checkers ----------------------------------------------------------------

def check_label(label, expected=None, invariant=None, tr_ad=()):
    """A 3-dim label: the expected one, basis-invariant, and never unimodular
    when some tr ad x is nonzero."""
    if expected is not None:
        expect(label == expected, f"label {label!r}, expected {expected!r}")
    if invariant is not None:
        expect(label == invariant,
               f"label {label!r} after a basis change, {invariant!r} before")
    if any(tr_ad):
        expect(label not in UNIMODULAR,
               f"unimodular label {label!r} for an algebra with tr ad = {list(map(str, tr_ad))}")


def check_same_algebra(got_json, want_consts, what):
    got = constants(got_json)
    expect(got == want_consts, f"{what}: constants {got} differ from {want_consts}")


def check_oracle_report(rep, tol=1e-5):
    """An identity_suite or cross-check report (JSON form) in which every
    identity holds at tol, and, for identity_suite with alpha != beta, the
    m*beta radial variant is not conserved."""
    expect(rep["identities"], "report lists no identities")
    for res in rep["identities"]:
        r = res["max_rel_residual"]
        expect(isinstance(r, (int, float)) and math.isfinite(r),
               f"{res['name']}: residual {r!r} is not a finite number")
        expect(r <= tol, f"{res['name']}: residual {r:.3e} exceeds {tol}")
        expect(res["pass"] is True, f"{res['name']} is reported as failing")
    expect(rep["all_pass"] is True, "report says not every identity passes")
    params = rep["params"]
    if "radial_term" in rep:
        names = [res["name"] for res in rep["identities"]]
        expect(("{H,L}=0" in names) == (params["beta"] == 0),
               "L is listed as conserved exactly when beta = 0")
        if params["alpha"] != params["beta"]:
            rt = rep["radial_term"]
            expect(rt["variant_conserved"] is False
                   and rt["m_beta_variant_max_rel_residual"] > tol,
                   "the m*beta radial variant passes as conserved with alpha != beta")


def check_wrong_binding(rep, tol=1e-5):
    """A cross-check of a wrong binding must be reported as failing."""
    expect(rep["all_pass"] is False, "a wrong binding is reported as passing")
    expect(any(res["max_rel_residual"] > tol and res["pass"] is False
               for res in rep["identities"]),
           "no identity of a wrong binding fails")


def check_codimension(missing, codimension, gen_map, host_names, window):
    """Missing host slots and codimension agree with the map's level offsets."""
    want = embedding_missing(gen_map, host_names, window)
    expect(set(missing) == want, f"missing slots {sorted(missing)}, expected {sorted(want)}")
    expect(codimension == len(want), f"codimension {codimension}, expected {len(want)}")


def check_exit(code, want, stderr=""):
    expect(code == want, f"exit code {code}, expected {want}; stderr {stderr.strip()[:200]!r}")
    if code != 0:
        check_one_line_error(stderr)


def check_one_line_error(stderr):
    lines = stderr.strip().splitlines()
    expect(len(lines) == 1 and not lines[0].startswith("Traceback"),
           f"expected a one-line error message, got {len(lines)} lines: {stderr.strip()[:200]!r}")


def check_rejected_input(code, stdout, stderr):
    """Bad input must end in a documented nonzero exit code with a one-line
    message, and must never report PASS."""
    expect(code in DOCUMENTED_EXITS and code != 0,
           f"exit code {code} for input that must be rejected")
    check_one_line_error(stderr)
    expect("PASS" not in stdout and '"pass": true' not in stdout,
           "a PASS is reported for input that must be rejected")


def check_oracle_report_text(o):
    """verify-kepler table output: every identity PASS, m*alpha confirmed."""
    lines = o.strip().splitlines()
    expect(lines[-1].startswith("radial coefficient: m*alpha"), f"last line {lines[-1]!r}")
    expect(len(lines) > 1 and all(ln.startswith("PASS ") for ln in lines[:-1]),
           "verify-kepler reports an identity as failing")


def check_table1_output(o):
    """demo-table1 output, either format: the paper's grid."""
    if o.lstrip().startswith("["):
        rows = {row["spec"]: tuple(row["labels"]) for row in json.loads(o)}
    else:
        rows = {f[0]: tuple(f[1:4]) for f in (ln.split() for ln in o.strip().splitlines()[1:])
                if f[-1] == "yes"}
    expect(rows == TABLE1, f"demo-table1 grid {rows}")


def check_lorentz_output(o):
    """demo-lorentz output, either format: the contraction is e(3)."""
    if o.lstrip().startswith("{"):
        data = json.loads(o)
        check_same_algebra(data["contracted"], e3_constants(), "contracted so(3,1)")
        expect(data["match"] and data["classic_iw"] and data["boosts_abelian"],
               f"demo-lorentz flags {data['match'], data['classic_iw'], data['boosts_abelian']}")
    else:
        expect(o.strip().splitlines()[-1] == "PASS", "demo-lorentz does not end in PASS")


def check_hysteresis_output(o):
    """demo-hysteresis output, either format: the two limit orders disagree."""
    a, b = TABLE1["h2"][1], TABLE1["l1"][1]
    if o.lstrip().startswith("{"):
        data = json.loads(o)
        expect(data["origin_labels"] == {"path_A": a, "path_B": b} and data["hysteresis"],
               f"demo-hysteresis origins {data['origin_labels']}")
        for leg, n in ((data["path_A"]["points"], "h2"), (data["path_B"]["eps_leg"], "l1")):
            expect(all(pt["label"] == TABLE1[n][sign_column(pt["eps"])] for pt in leg),
                   f"demo-hysteresis {n} leg {leg}")
    else:
        want = f"origin labels: path A -> {a}, path B -> {b} (different)"
        expect(o.strip().splitlines()[-1] == want, "demo-hysteresis origin line")
