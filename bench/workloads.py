"""The workloads: their inputs, their operations and the checks on each.

A workload builds its inputs from the seed in ``setup`` and then hands out
rounds of operations.  Every round holds the same operations in the same
proportion, so the share of known-fault operations in ``attempted`` is the
same in every run.  An operation's ``run`` makes only calls into loopalg (or,
for cli-cold, starts one ``loopalg.cli`` process); its ``check`` compares the
result with properties of the method or with quantities from ``checks``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import loopalg
from loopalg import (
    ContractionUndefined,
    KeplerParams,
    LieAlgebra,
    NegativeExponent,
    PhasePoint,
    algebra_from_matrices,
    bundled_spec,
    check_selection,
    classify3,
    contract,
    cross_check_loop_spec,
    embedding_check,
    factor_algebra,
    identity_suite,
    poisson,
    rescale_basis,
)
from loopalg import loop as loop_module

from checks import (
    TABLE1,
    UNIMODULAR,
    base_terms,
    check_codimension,
    check_exit,
    check_hysteresis_output,
    check_label,
    check_lorentz_output,
    check_oracle_report,
    check_oracle_report_text,
    check_rejected_input,
    check_same_algebra,
    check_table1_output,
    check_wrong_binding,
    classic_iw,
    constants,
    contraction,
    det3,
    eps_free,
    expect,
    operands,
    quotient_constants,
    selection_closed,
    sign_column,
    substitute,
    trace_ad,
)

BENCH_DIR = Path(__file__).resolve().parent


class Op(NamedTuple):
    kind: str
    run: Callable
    check: Callable
    known_fault: bool = False


class Spans:
    """Wall time of calls into named loopalg functions, and work counters.

    Spans are only kept in the traced run; in a timed run ``call`` is a
    plain call.
    """

    def __init__(self):
        self.enabled = False
        self.times: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times.setdefault(name, []).append(time.perf_counter() - t)
        return out

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


# -- shared inputs ------------------------------------------------------------

# Representatives keyed by name: (i, j) -> {k: c} with i < j.
REPRESENTATIVES = {
    "so3": {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
    "so21": {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: 1}},
    "e2": {(0, 1): {2: 1}, (0, 2): {1: -1}},
    "e11": {(0, 1): {2: 1}, (0, 2): {1: 1}},
    "heisenberg": {(0, 1): {2: 1}},
    "abelian3": {},
    # [X0, X1] = X1 with X2 central: solvable, tr ad X0 = 1
    "solvable": {(0, 1): {1: 1}},
    # Bianchi V: [X2, X0] = X0, [X2, X1] = X1
    "bianchi5": {(0, 2): {0: -1}, (1, 2): {1: -1}},
    # Bianchi VII_h, h = 1/2: ad X2 = [[h, -1], [1, h]] on span(X0, X1)
    "bianchi7_half": {(0, 2): {0: Fraction(-1, 2), 1: -1}, (1, 2): {0: 1, 1: Fraction(-1, 2)}},
}

# classify3 gives Bianchi V and VII_{1/2} unimodular labels (e11, e2): its
# d == 2 branch looks only at the Killing inertia.  The cli-cold ops on them
# fail until that is mended; their basis change does not depend on the seed.
CLASSIFIER_FAULTS = ("bianchi5", "bianchi7_half")
FIXED_BASIS = [[Fraction(x) for x in row] for row in ((1, 1, 0), (0, 1, 1), (1, 0, 1))]

GRID = tuple(itertools.product(range(3), repeat=3))
SPECS = tuple(TABLE1)

# Generator maps of the embeddings l1 -> h2 and l2 -> h2: (host index, level offset).
EMBED_MAPS = {"l1": ((2, 0), (0, 1), (1, 1)), "l2": ((1, 1), (2, 1), (0, 1))}
EMBED_WINDOWS = (2, 4, 8)

WEIGHT_VALUES = tuple(Fraction(n, 2) for n in range(5))          # 0, 1/2, ..., 2
POSITIVE_EPS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3, 2))

# Kepler parameters (m, alpha, beta): beta = 0 is included, alpha != beta in all.
KEPLER_PARAMS = (KeplerParams(1.0, 1.0, 0.5), KeplerParams(1.0, 1.0, 0.0),
                 KeplerParams(2.0, 0.5, 0.75))
NATURAL_BINDINGS = {
    "h2": {"L": "L", "A1": "A1", "A2": "A2"},
    "l1": {"M2": "M2", "S": "S", "N1": "N1"},
    "l2": {"N1": "N1", "N2": "N2", "S": "S"},
}
WRONG_BINDING = {"M2": "M2", "S": "S", "N1": "N2"}
SUITE_SAMPLES = 100
CROSS_SAMPLES = 100
CLI_SAMPLES = 30


def random_basis(rng: random.Random):
    """Random invertible 3x3 matrix with small rational entries."""
    while True:
        t = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(3)]
             for _ in range(3)]
        if det3(t):
            return t


def random_weights(rng, consts, dim, valid):
    """Fractional weights for which the contraction of consts is (not) defined."""
    while True:
        w = [rng.choice(WEIGHT_VALUES) for _ in range(dim)]
        if (contraction(consts, w) is not None) == valid:
            return w


def representative(name) -> LieAlgebra:
    return LieAlgebra(3, REPRESENTATIVES[name])


def lorentz() -> LieAlgebra:
    """so(3,1) from 4x4 rotation and boost generators."""
    def e(i, j):
        return [[int(r == i and c == j) for c in range(4)] for r in range(4)]

    def comb(a, b, s):
        return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    rot = [comb(e(2, 1), e(1, 2), -1), comb(e(0, 2), e(2, 0), -1), comb(e(1, 0), e(0, 1), -1)]
    boost = [comb(e(i, 3), e(3, i), 1) for i in range(3)]
    return algebra_from_matrices(rot + boost, names=["J1", "J2", "J3", "B1", "B2", "B3"])


def child_env():
    """Environment of a child process: this checkout's loopalg, default window."""
    env = {k: v for k, v in os.environ.items() if k != "LOOPALG_MAX_LEVEL"}
    env["PYTHONPATH"] = str(Path(loopalg.__file__).parent.parent)
    return env


def gradients_needed(report, binding=None) -> int:
    """Distinct observable gradients per sample point that a report's
    identities need; the m*beta radial variant of identity_suite adds one."""
    binding = binding or {}
    needed = {binding.get(name, name) for res in report["identities"]
              for name in operands(res["name"])}
    return len(needed) + ("radial_term" in report)


# -- loop-quotient ------------------------------------------------------------

class LoopQuotient:
    """Quotient, contraction and embedding ops over the bundled specs.

    Per round: for each spec one quotient op at selection (0, 0, 0) and three
    at random closed selections; three contraction ops (two defined, one
    undefined); one embedding op for each of l1, l2 at each window.  So the
    median op is a quotient op and the tail holds the window-8 embeddings.
    """

    trace_rounds = 3

    def setup(self, seed, workdir, spans):
        self.spans = spans
        self.specs = {n: bundled_spec(n) for n in SPECS}
        self.terms = {n: base_terms(s.to_json()) for n, s in self.specs.items()}
        self.closed = {n: [sel for sel in GRID if selection_closed(self.terms[n], sel)]
                       for n in SPECS}
        h2_half = factor_algebra(self.specs["h2"]).evaluate_at(Fraction(1, 2))
        self.contractibles = [representative(n) for n in ("so3", "so21", "e2")]
        self.contractibles += [h2_half, lorentz()]

    def round(self, rng):
        ops = []
        for n in SPECS:
            ops.append(self._quotient(n, (0, 0, 0), rng, table_eps=True))
            ops += [self._quotient(n, rng.choice(self.closed[n]), rng, table_eps=False)
                    for _ in range(3)]
        for valid in (True, True, False):
            ops.append(self._contraction(rng.choice(self.contractibles), rng, valid))
        for sub in EMBED_MAPS:
            for window in EMBED_WINDOWS:
                ops.append(self._embedding(sub, window))
        rng.shuffle(ops)
        return ops

    def _quotient(self, n, sel, rng, table_eps):
        spec, terms, spans = self.specs[n], self.terms[n], self.spans
        probe = rng.choice(GRID)
        t = random_basis(rng)
        if table_eps:
            eps_values = (Fraction(1), Fraction(0), Fraction(-1))
        else:
            eps_values = (rng.choice(POSITIVE_EPS), Fraction(0), -rng.choice(POSITIVE_EPS))

        def run():
            try:
                check_selection(spec, probe)
                probe_closed = True
            except loop_module.NotClosed:
                probe_closed = False
            check_selection(spec, sel)
            fam = spans.call("factor_algebra", factor_algebra, spec, sel)
            moved = spans.call("change_basis", fam.change_basis, t)
            points = []
            for e in eps_values:
                a, b = fam.evaluate_at(e), moved.evaluate_at(e)
                c = spans.call("change_basis", a.change_basis, t)
                points.append((e, a, b, c, spans.call("classify3", classify3, a),
                               spans.call("classify3", classify3, b)))
            return probe_closed, fam, points

        def check(out):
            probe_closed, fam, points = out
            expect(probe_closed == selection_closed(terms, probe),
                   f"{n}: check_selection on {probe} disagrees with the exponent test")
            want = quotient_constants(terms, sel)
            check_same_algebra(fam.to_json(), want, f"{n} quotient at {sel}")
            for e, a, b, c, label_a, label_b in points:
                check_same_algebra(a.to_json(), substitute(want, e), f"{n} at eps={e}")
                expect(constants(b.to_json()) == constants(c.to_json()),
                       f"{n} at {sel}: evaluate_at and change_basis do not commute at eps={e}")
                # eps != 0 labels match Table 1 at every closed selection, since
                # X_i -> eps**(-m_i) X_i maps the quotient onto that at (0, 0, 0)
                expected = TABLE1[n][sign_column(e)] if e or table_eps else None
                check_label(label_a, expected=expected)
                check_label(label_b, invariant=label_a,
                            tr_ad=trace_ad(eps_free(constants(b.to_json())), 3))

        return Op("quotient", run, check)

    def _contraction(self, alg, rng, valid):
        consts = eps_free(constants(alg.to_json()))
        w = random_weights(rng, consts, alg.dim, valid)

        def run():
            fam = rescale_basis(alg, [-x for x in w])
            try:
                limit = fam.evaluate_at(0)
            except NegativeExponent:
                limit = None
            try:
                contracted = contract(alg, w)
            except ContractionUndefined:
                contracted = None
            return limit, contracted

        def check(out):
            limit, contracted = out
            want = contraction(consts, w)
            if want is None:
                expect(limit is None and contracted is None,
                       f"weights {w}: contraction undefined, yet a limit was returned")
                return
            expect(limit is not None and contracted is not None,
                   f"weights {w}: contraction defined, yet an error was raised")
            check_same_algebra(limit.to_json(), want, f"eps->0 limit of rescale_basis, w={w}")
            check_same_algebra(contracted.to_json(), want, f"contract, w={w}")

        return Op("contraction", run, check)

    def _embedding(self, sub, window):
        spec, host, gen_map, spans = self.specs[sub], self.specs["h2"], EMBED_MAPS[sub], self.spans

        def run():
            return spans.call("embedding_check", embedding_check, spec, host, gen_map,
                              window=window)

        def check(rep):
            check_codimension(rep.missing, rep.codimension, gen_map, host.names, window)

        return Op("embedding", run, check)


# -- kepler-oracle ------------------------------------------------------------

class KeplerOracle:
    """One op: one identity_suite or cross_check_loop_spec call.

    Per round: identity_suite at each parameter set, and two more at
    beta = 0; cross-checks bound to the natural observables, of l1 twice and
    l2 once at each set and of h2 where beta = 0; one cross-check of a
    deliberately wrong binding.  The beta = 0 suites are the slowest ops and
    3 of the 16, so the 90th percentile lies inside them; the median lies
    among the l1 cross-checks.
    """

    trace_rounds = 2

    def setup(self, seed, workdir, spans):
        self.spans = spans
        self.specs = {n: bundled_spec(n) for n in SPECS}
        self.verify_rng = random.Random(seed)

    def round(self, rng):
        ops = []
        for params in KEPLER_PARAMS:
            for _ in range(3 if params.beta == 0 else 1):
                ops.append(self._suite(params, rng.randrange(2 ** 31)))
            for n in ("l1", "l1", "l2", "h2"):
                if n != "h2" or params.beta == 0:
                    ops.append(self._cross(n, NATURAL_BINDINGS[n], params, rng.randrange(2 ** 31)))
        ops.append(self._cross("l1", WRONG_BINDING, KEPLER_PARAMS[0], rng.randrange(2 ** 31)))
        return ops

    def _suite(self, params, seed):
        def run():
            return identity_suite(params, samples=SUITE_SAMPLES, seed=seed)

        def check(rep):
            data = rep.to_json()
            check_oracle_report(data)
            self.spans.count("gradients_needed", gradients_needed(data) * SUITE_SAMPLES)

        return Op("identity_suite", run, check)

    def _cross(self, n, binding, params, seed):
        spec = self.specs[n]
        wrong = binding is WRONG_BINDING

        def run():
            return cross_check_loop_spec(spec, binding, params, samples=CROSS_SAMPLES, seed=seed)

        def check(rep):
            data = rep.to_json()
            if wrong:
                check_wrong_binding(data)
            else:
                check_oracle_report(data)
            self.spans.count("gradients_needed", gradients_needed(data, binding) * CROSS_SAMPLES)

        return Op("cross_check", run, check)

    def verify(self):
        """poisson against brackets known in closed form, on closures defined here."""
        rng = self.verify_rng
        coord = {
            "r": lambda r, phi, pr, pphi: r,
            "phi": lambda r, phi, pr, pphi: phi,
            "pr": lambda r, phi, pr, pphi: pr,
            "pphi": lambda r, phi, pr, pphi: pphi,
        }
        for params in KEPLER_PARAMS:
            m, alpha = params.m, params.alpha
            cases = (
                (coord["r"], coord["pr"], lambda r, phi, pr, pphi: 1.0),
                (coord["phi"], coord["pphi"], lambda r, phi, pr, pphi: 1.0),
                (coord["r"], coord["phi"], lambda r, phi, pr, pphi: 0.0),
                (coord["r"], "H0", lambda r, phi, pr, pphi: pr / m),
                (coord["phi"], "H0", lambda r, phi, pr, pphi: pphi / (m * r * r)),
                (coord["pr"], "H0",
                 lambda r, phi, pr, pphi: pphi * pphi / (m * r ** 3) - alpha / (r * r)),
            )
            for _ in range(8):
                x = (rng.uniform(0.5, 3.0), rng.uniform(-2.9, 2.9),
                     rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                for f, g, want in cases:
                    got, w = poisson(f, g, params, PhasePoint(*x)), want(*x)
                    expect(math.isfinite(got) and abs(got - w) <= 1e-6 * max(1.0, abs(w)),
                           f"poisson at {x}: {got} != closed form {w}")


# -- cli-cold -----------------------------------------------------------------

def kepler_report(stdout) -> dict:
    """The identities of verify-kepler output, in either format, in JSON form."""
    if stdout.lstrip().startswith("{"):
        return json.loads(stdout)
    lines = stdout.strip().splitlines()
    report = {"identities": [{"name": ln.split()[1]} for ln in lines
                             if ln.startswith(("PASS ", "FAIL "))]}
    if lines and lines[-1].startswith("radial coefficient"):
        report["radial_term"] = lines[-1]
    return report


def run_child(cmd, cwd, timeout=120):
    """Run one child process to its end, with its output in files under cwd.

    Returns (exit code, stdout, stderr, peak RSS in KiB).  The child is
    reaped with wait4, which gives the resource use of that child alone.
    """
    def expired(signum, frame):
        raise TimeoutError(f"{cmd[1:3]} ran longer than {timeout} s")

    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)


class CliCold:
    """One op: one fresh ``python -m loopalg.cli`` process.

    Per round: every subcommand in table and in json format, over the
    bundled specs and algebra files written in setup, plus four known-fault
    ops.  Processes run one at a time.
    """

    trace_rounds = 1

    def setup(self, seed, workdir, spans):
        self.spans = spans
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.profile_dir = None
        self.profiles = []
        self.peak_rss_kb = 0
        rng = random.Random(seed)
        self.terms = {n: base_terms(bundled_spec(n).to_json()) for n in SPECS}
        self.closed = {n: [sel for sel in GRID if selection_closed(self.terms[n], sel)]
                       for n in SPECS}
        self.rep_consts = {}
        for name in [*sorted(UNIMODULAR), "solvable"]:
            alg = representative(name).change_basis(random_basis(rng))
            self._write(f"rep_{name}.json", alg.to_json())
            self.rep_consts[name] = eps_free(constants(alg.to_json()))
        for n in SPECS:
            fam = factor_algebra(bundled_spec(n)).change_basis(random_basis(rng))
            self._write(f"fam_{n}.json", fam.to_json())
        self.fault_tr_ad = {}
        for name in CLASSIFIER_FAULTS:
            alg = representative(name).change_basis(FIXED_BASIS)
            self._write(f"rep_{name}.json", alg.to_json())
            self.fault_tr_ad[name] = trace_ad(eps_free(constants(alg.to_json())), 3)

    def _write(self, name, data):
        (self.workdir / name).write_text(json.dumps(data), encoding="utf-8")

    def _cli(self, args, check=None, exit_code=0, known_fault=False):
        """One process running `loopalg ARGS`; check(stdout) runs on exit 0.
        With exit_code None the input must be rejected as documented."""
        def run():
            cmd = [sys.executable, "-m", "loopalg.cli", *args]
            if self.profile_dir is not None:
                out = str(self.profile_dir / f"cli-{len(self.profiles)}.prof")
                self.profiles.append(out)
                cmd = [sys.executable, str(BENCH_DIR / "cli_profiled.py"), out, *args]
            code, stdout, stderr, rss_kb = run_child(cmd, self.workdir)
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            return code, stdout, stderr

        def checked(out):
            code, stdout, stderr = out
            if args[0] == "verify-kepler":
                self.spans.count("gradients_needed",
                                 gradients_needed(kepler_report(stdout)) * CLI_SAMPLES)
            if exit_code is None:
                check_rejected_input(code, stdout, stderr)
                return
            check_exit(code, exit_code, stderr)
            if code == 0 and check is not None:
                check(stdout)

        return Op(args[0], run, checked, known_fault)

    def round(self, rng):
        ops = []
        sign = lambda: rng.choice((1, -1, 0)) * rng.choice(POSITIVE_EPS)
        levels = lambda sel: ",".join(map(str, sel))

        n = rng.choice(SPECS)
        want = f"OK: {n}.json is a valid loop spec"
        ops.append(self._cli(["validate", f"{n}.json"], lambda o, want=want: expect(
            o.strip() == want, f"validate printed {o!r}")))
        ops.append(self._cli(
            ["validate", f"rep_{rng.choice(sorted(self.rep_consts))}.json", "--format", "json"],
            lambda o: expect(json.loads(o) == {"kind": "algebra", "dim": 3, "ok": True,
                                               "names": ["X0", "X1", "X2"]},
                             f"validate printed {o!r}")))

        name = rng.choice(sorted(self.rep_consts))
        ops.append(self._cli(["classify", f"rep_{name}.json"], lambda o, name=name: check_label(
            o.strip(), expected=name if name in UNIMODULAR else None,
            tr_ad=trace_ad(self.rep_consts[name], 3))))
        n, eps = rng.choice(SPECS), sign()
        ops.append(self._cli(
            ["classify", f"fam_{n}.json", f"--eps={eps}", "--format", "json"],
            lambda o, want=TABLE1[n][sign_column(eps)]: check_label(json.loads(o)["label"],
                                                                    expected=want)))

        for fmt in ("table", "json"):
            name = rng.choice(sorted(set(self.rep_consts) - {"abelian3"}))
            consts = self.rep_consts[name]
            w = random_weights(rng, consts, 3, valid=True)
            ops.append(self._cli(["contract", f"rep_{name}.json", "--weights",
                                  ",".join(map(str, w)), "--format", fmt],
                                 self._contract_check(fmt, consts, w)))

        n = rng.choice(SPECS)
        sel = rng.choice(self.closed[n])
        ops.append(self._cli(["quotient", f"{n}.json", "--levels", levels(sel)],
                             self._quotient_table_check(len({t[:2] for t in self.terms[n]}))))
        n = rng.choice(SPECS)
        sel, eps = rng.choice(self.closed[n]), sign()
        want = substitute(quotient_constants(self.terms[n], sel), eps)
        ops.append(self._cli(
            ["quotient", f"{n}.json", "--levels", levels(sel), f"--eps={eps}", "--format", "json"],
            lambda o, want=want, what=f"quotient {n} at {sel}, eps={eps}": check_same_algebra(
                json.loads(o)["algebra"], want, what)))

        for fmt in ("table", "json"):
            n, sel = rng.choice(SPECS), rng.choice(GRID)
            if fmt == "json":
                check = lambda o, sel=sel: expect(json.loads(o) == {"ok": True, "levels": list(sel)},
                                                  f"selection-check printed {o!r}")
            else:
                check = lambda o: expect(o.startswith("OK:"), f"selection-check printed {o!r}")
            ops.append(self._cli(
                ["selection-check", f"{n}.json", "--levels", levels(sel), "--format", fmt],
                check, exit_code=0 if selection_closed(self.terms[n], sel) else 1))

        for fmt in ("table", "json"):
            p = rng.choice(KEPLER_PARAMS)
            ops.append(self._cli(
                ["verify-kepler", "--m", str(p.m), "--alpha", str(p.alpha), "--beta", str(p.beta),
                 "--samples", str(CLI_SAMPLES), "--seed", str(rng.randrange(2 ** 31)),
                 "--format", fmt],
                check_oracle_report_text if fmt == "table" else
                lambda o: check_oracle_report(json.loads(o))))

        ops += [self._cli([f"demo-{demo}", "--format", fmt], check)
                for demo, check in (("table1", check_table1_output),
                                    ("lorentz", check_lorentz_output),
                                    ("hysteresis", check_hysteresis_output))
                for fmt in ("table", "json")]

        # Known faults, failing today.  classify gives the two non-unimodular
        # Bianchi algebras unimodular labels; verify-kepler passes with
        # beta = nan and quotient ends in a traceback on eps = abc, where both
        # inputs must be rejected.
        for name in CLASSIFIER_FAULTS:
            ops.append(self._cli(["classify", f"rep_{name}.json"],
                                 lambda o, tr=self.fault_tr_ad[name]: check_label(o.strip(), tr_ad=tr),
                                 known_fault=True))
        ops.append(self._cli(["verify-kepler", "--beta", "nan", "--samples", str(CLI_SAMPLES)],
                             exit_code=None, known_fault=True))
        ops.append(self._cli(["quotient", "l1.json", "--eps", "abc"], exit_code=None,
                             known_fault=True))
        return ops

    @staticmethod
    def _contract_check(fmt, consts, w):
        want = contraction(consts, w)

        def check(o):
            if fmt == "json":
                data = json.loads(o)
                check_same_algebra(data["algebra"], want, f"contract with {w}")
                expect(data["classic_iw"] == classic_iw(w), f"classic_iw for {w}")
                return
            lines = o.strip().splitlines()
            expect(lines[-1] == f"classic Inonu-Wigner weights: {classic_iw(w)}",
                   f"contract printed {lines[-1]!r}")
            pairs = len({k[:2] for k in want}) or 1      # or "all brackets vanish"
            expect(len(lines) - 2 == pairs, f"contract with {w} printed {len(lines) - 2} brackets")
        return check

    @staticmethod
    def _quotient_table_check(n_brackets):
        def check(o):
            lines = o.strip().splitlines()
            expect(lines[0].startswith("dim 3; generators:"), f"quotient printed {lines[0]!r}")
            expect(len(lines) - 1 == n_brackets, f"quotient printed {len(lines) - 1} brackets")
        return check


WORKLOADS = {
    "loop-quotient": LoopQuotient,
    "kepler-oracle": KeplerOracle,
    "cli-cold": CliCold,
}
