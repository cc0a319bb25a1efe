import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from loopalg import (
    BoundaryTooClose,
    InputError,
    KeplerParams,
    PhasePoint,
    bundled_spec,
    cross_check_loop_spec,
    evaluate,
    identity_suite,
    poisson,
    poisson_fn,
    sample_points,
)

PARAMS = KeplerParams(m=1.0, alpha=1.0, beta=0.5)
PURE = KeplerParams(m=1.0, alpha=1.0, beta=0.0)


def points(n=25, seed=7):
    return [PhasePoint(*x) for x in sample_points(n, seed)]


def test_phase_point_domain():
    with pytest.raises(ValueError):
        PhasePoint(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        PhasePoint(1.0, math.pi, 0.0, 1.0)
    with pytest.raises(ValueError):
        KeplerParams(m=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_point_must_be_finite(bad):
    for slot in range(4):
        coords = [1.0, 0.3, 0.1, 1.0]
        coords[slot] = bad
        with pytest.raises(InputError, match="must be finite"):
            PhasePoint(*coords)
        # a raw tuple goes through the same check
        with pytest.raises(InputError, match="must be finite"):
            poisson("H", "L", PARAMS, tuple(coords))


def test_eval_examples():
    x = PhasePoint(1.0, 0.0, 0.0, 1.0)
    assert evaluate("H0", KeplerParams(1, 1, 0.5), x) == pytest.approx(-0.5)
    for pt in points():
        assert evaluate("L", PARAMS, pt) == pt.pphi


def test_evaluate_takes_a_raw_point_through_the_phase_point_checks():
    # evaluate read point.astuple() and raised AttributeError on a tuple that poisson accepts
    x = (1.0, 0.3, 0.2, 0.5)
    for name in ("H", "N1"):
        assert evaluate(name, PARAMS, x) == evaluate(name, PARAMS, PhasePoint(*x))
    with pytest.raises(InputError, match="r must be positive"):
        evaluate("H", PARAMS, (0.0, 0.3, 0.2, 0.5))


def test_observable_wrapper():
    # evaluate resolves a name or takes a raw closure over (r, phi, pr, pphi)
    x = PhasePoint(1.3, 0.4, -0.2, 1.1)
    s_closure = lambda r, phi, pr, pphi: evaluate("S", PARAMS, PhasePoint(r, phi, pr, pphi))
    assert evaluate(s_closure, PARAMS, x) == evaluate("S", PARAMS, x)
    with pytest.raises(KeyError, match="unknown observable"):
        evaluate("Q", PARAMS, x)
    with pytest.raises(TypeError) as err:
        evaluate(3, PARAMS, x)
    assert str(err.value) == "not an observable: 3"


def test_deformed_runge_lenz_reduces_to_plain():
    for pt in points():
        assert evaluate("M1", PURE, pt) == pytest.approx(evaluate("A1", PURE, pt))
        assert evaluate("M2", PURE, pt) == pytest.approx(evaluate("A2", PURE, pt))


def test_beta_to_zero_continuity():
    for pt in points(10):
        m_gap, s_gap = [], []
        for beta in (1e-1, 1e-2, 1e-3, 1e-4):
            p = KeplerParams(m=1.0, alpha=1.0, beta=beta)
            m_gap.append(
                abs(evaluate("M1", p, pt) - evaluate("A1", p, pt))
                + abs(evaluate("M2", p, pt) - evaluate("A2", p, pt))
            )
            s_gap.append(
                abs(evaluate("S", p, pt) - evaluate("h", p, pt) * evaluate("L", p, pt))
            )
        for gaps in (m_gap, s_gap):
            assert gaps == sorted(gaps, reverse=True) or gaps[-1] < 1e-12
            assert gaps[-1] <= 1e-3 * max(1.0, gaps[0] / 1e-1)


def test_poisson_antisymmetry_and_trivial():
    for pt in points(10):
        assert poisson("H", "H", PARAMS, pt) == pytest.approx(0.0, abs=1e-9)
        ab = poisson("M1", "S", PARAMS, pt)
        ba = poisson("S", "M1", PARAMS, pt)
        assert ab == pytest.approx(-ba, abs=1e-9)


def test_poisson_reproduces_closed_forms():
    for pt in points(15):
        scale = max(1.0, abs(evaluate("A2", PARAMS, pt)))
        assert poisson("L", "A1", PARAMS, pt) == pytest.approx(
            evaluate("A2", PARAMS, pt), abs=1e-6 * scale
        )
        scale = max(1.0, abs(evaluate("S", PARAMS, pt)))
        assert poisson("M1", "M2", PARAMS, pt) == pytest.approx(
            evaluate("S", PARAMS, pt), abs=1e-6 * scale
        )


def test_poisson_boundary_guard():
    with pytest.raises(BoundaryTooClose):
        poisson("H", "L", PARAMS, PhasePoint(1e-7, 0.0, 0.0, 1.0))
    with pytest.raises(BoundaryTooClose):
        poisson("H", "L", PARAMS, PhasePoint(1.0, math.pi - 1e-7, 0.0, 1.0))
    # a bracket closure guards each point it is called at, not only poisson()'s:
    # at phi = 3.14159 it read 0.94 across the cut, at r = 1e-7 a math domain error
    for x in ((1.0, 3.14159, 0.1, 1.0), (1e-7, 0.3, 0.1, 1.0)):
        with pytest.raises(BoundaryTooClose):
            poisson_fn("M1", "M2", PARAMS)(*x)


def test_identity_suite_pure_kepler():
    report = identity_suite(PURE, samples=100, seed=3)
    assert report.all_pass
    names = {res.name for res in report.identities}
    assert {"{H,L}=0", "{L,A1}=A2", "{A2,L}=A1", "{A1,A2}=h0*L"} <= names


def test_identity_suite_deformed():
    report = identity_suite(PARAMS, samples=150, seed=5)
    assert report.all_pass
    by_name = {res.name: res for res in report.identities}
    assert "{H,L}=0" not in by_name  # L is only conserved without the perturbation
    assert by_name["{M2,S}=h*M1-(m*beta)^2/2"].max_rel_residual <= 1e-5
    rt = report.radial_term
    assert rt["radial_coefficient"] == "m*alpha"
    assert rt["max_rel_residual"] <= 1e-5
    assert not rt["variant_conserved"]


def test_identity_suite_deterministic():
    a = identity_suite(PARAMS, samples=60, seed=42).to_json()
    b = identity_suite(PARAMS, samples=60, seed=42).to_json()
    assert a == b


def test_identity_suite_refuses_zero_samples():
    with pytest.raises(ValueError):
        identity_suite(PARAMS, samples=0)


def test_cross_check_bundled_specs():
    rep = cross_check_loop_spec(
        bundled_spec("h2"), {"L": "L", "A1": "A1", "A2": "A2"}, PURE, samples=80, seed=11
    )
    assert rep.all_pass
    rep = cross_check_loop_spec(
        bundled_spec("l1"), {"M2": "M2", "S": "S", "N1": "N1"}, PARAMS, samples=80, seed=11
    )
    assert rep.all_pass
    rep = cross_check_loop_spec(
        bundled_spec("l2"), {"N1": "N1", "N2": "N2", "S": "S"}, PARAMS, samples=80, seed=11
    )
    assert rep.all_pass


def test_cross_check_detects_wrong_binding():
    rep = cross_check_loop_spec(
        bundled_spec("l1"), {"M2": "M2", "S": "S", "N1": "N2"}, PARAMS, samples=40, seed=2
    )
    assert not rep.all_pass


def test_numerical_jacobi():
    # nested finite differences: larger outer step keeps roundoff in check,
    # and the residual is judged against the magnitudes actually involved
    triples = [
        ("L", "A1", "A2"),
        ("M1", "M2", "S"),
        ("M2", "S", "N1"),
        ("N1", "N2", "S"),
        ("H", "M1", "N2"),
    ]
    pts = sample_points(15, 13)
    for f, g, k in triples:
        inner = [
            poisson_fn(g, k, PARAMS),
            poisson_fn(k, f, PARAMS),
            poisson_fn(f, g, PARAMS),
        ]
        for x in pts:
            pt = PhasePoint(*x)
            terms = [
                poisson(f, inner[0], PARAMS, pt, step=1e-4),
                poisson(g, inner[1], PARAMS, pt, step=1e-4),
                poisson(k, inner[2], PARAMS, pt, step=1e-4),
            ]
            mags = [abs(fn(*x)) for fn in inner]
            mags += [abs(evaluate(name, PARAMS, pt)) for name in (f, g, k)]
            assert abs(sum(terms)) <= 1e-4 * max(1.0, *mags)


def test_report_json_shape():
    rep = identity_suite(PARAMS, samples=20, seed=0)
    data = rep.to_json()
    assert data["all_pass"] is True
    assert {"name", "samples", "max_rel_residual", "pass"} <= set(data["identities"][0])
    assert data["params"] == {"m": 1.0, "alpha": 1.0, "beta": 0.5}


def test_nan_residual_fails_the_identity():
    # N1 bound to a realization that is NaN for r > 2.5: every identity that
    # touches such a point must fail with a NaN worst residual, never pass
    def n1(r, phi, pr, pphi):
        return math.nan if r > 2.5 else evaluate("N1", PARAMS, PhasePoint(r, phi, pr, pphi))

    binding = {"M2": "M2", "S": "S", "N1": n1}
    rep = cross_check_loop_spec(bundled_spec("l1"), binding, PARAMS, samples=30, seed=1)
    failing = [res for res in rep.identities if not res.passed]
    assert not rep.all_pass and failing
    assert all(math.isnan(res.max_rel_residual) for res in failing)


def test_params_must_be_finite():
    for bad in ({"m": math.inf}, {"alpha": math.nan}, {"beta": -math.inf}):
        with pytest.raises(ValueError, match="finite"):
            KeplerParams(**bad)


def test_both_oracles_reject_empty_samples_and_tol_outside_its_domain():
    # a wrongly bound spec passed every row with tol = inf, and every row of a
    # cross-check passed with no sample at all
    wrong = {"M2": "M1", "S": "S", "N1": "N1"}
    for kwargs in ({"samples": 0}, {"tol": math.inf}, {"tol": math.nan}, {"tol": -1.0}):
        with pytest.raises(InputError):
            cross_check_loop_spec(bundled_spec("l1"), wrong, PARAMS, **{"samples": 5, **kwargs})
        with pytest.raises(InputError):
            identity_suite(PARAMS, **{"samples": 5, **kwargs})
    assert identity_suite(PARAMS, samples=5, tol=0.0).all_pass is False


def _worst(residuals):
    worst = 0.0
    for res in residuals:
        if res > worst or math.isnan(res):
            worst = res
    return worst


def _reference_residual(f, g, rhs, params, pts):
    """Worst relative residual of {f, g} = rhs(pt), one poisson() per point."""
    out = []
    for pt in pts:
        lhs, want = poisson(f, g, params, pt), rhs(pt)
        scale = max(1.0, abs(lhs), abs(want), abs(evaluate(f, params, pt)),
                    abs(evaluate(g, params, pt)))
        out.append(abs(lhs - want) / scale)
    return _worst(out)


def test_residuals_match_pointwise_reference():
    # every reported residual, recomputed point by point from poisson() and
    # evaluate() with each relation's right-hand side written out in floats
    for params in (PARAMS, PURE):
        m, beta = params.m, params.beta
        pts = points(25, 7)

        def ev(name, pt):
            return evaluate(name, params, pt)

        def m1_beta_variant(r, phi, pr, pphi):
            return (pphi * pphi / r - m * beta) * math.cos(phi) + (
                pr * pphi + m * beta * math.sqrt(r) * math.sin(phi / 2)
            ) * math.sin(phi)

        conserved = ["M1", "M2", "S", "N1", "N2"] + (["L"] if beta == 0 else [])
        relations = [(f"{{H,{x}}}=0", "H", x, lambda pt: 0.0) for x in conserved] + [
            ("{L,A1}=A2", "L", "A1", lambda pt: ev("A2", pt)),
            ("{A2,L}=A1", "A2", "L", lambda pt: ev("A1", pt)),
            ("{A1,A2}=h0*L", "A1", "A2", lambda pt: -2 * m * ev("H0", pt) * pt.pphi),
            ("{M1,M2}=S", "M1", "M2", lambda pt: ev("S", pt)),
            ("{S,M1}=h*M2", "S", "M1", lambda pt: ev("h", pt) * ev("M2", pt)),
            ("{M2,S}=h*M1-(m*beta)^2/2", "M2", "S", lambda pt: ev("N1", pt)),
            ("{N1,M2}=h*S", "N1", "M2", lambda pt: ev("h", pt) * ev("S", pt)),
            ("{S,N1}=h^2*M2", "S", "N1", lambda pt: ev("h", pt) ** 2 * ev("M2", pt)),
            ("{N1,N2}=h^2*S", "N1", "N2", lambda pt: ev("h", pt) ** 2 * ev("S", pt)),
            ("{N2,S}=h*N1", "N2", "S", lambda pt: ev("h", pt) * ev("N1", pt)),
            ("{S,N1}=h*N2", "S", "N1", lambda pt: ev("h", pt) * ev("N2", pt)),
        ]
        report = identity_suite(params, samples=25, seed=7)
        assert [res.name for res in report.identities] == [rel[0] for rel in relations]
        for res, (name, f, g, rhs) in zip(report.identities, relations):
            assert res.max_rel_residual == _reference_residual(f, g, rhs, params, pts), name
        variant = _reference_residual("H", m1_beta_variant, lambda pt: 0.0, params, pts)
        assert report.radial_term["m_beta_variant_max_rel_residual"] == variant
        assert report.radial_term["max_rel_residual"] == report.identities[0].max_rel_residual

    for spec_name, binding, params in (
        ("h2", {"L": "L", "A1": "A1", "A2": "A2"}, PURE),
        ("l1", {"M2": "M2", "S": "S", "N1": "N1"}, PARAMS),
        ("l2", {"N1": "N1", "N2": "N2", "S": "S"}, PARAMS),
    ):
        spec = bundled_spec(spec_name)
        rep = cross_check_loop_spec(spec, binding, params, samples=25, seed=7)
        brackets = sorted(spec.base_brackets().items())
        assert len(rep.identities) == len(brackets)
        for res, ((i, j), terms) in zip(rep.identities, brackets):
            def rhs(pt, terms=terms):
                h = evaluate("h", params, pt)
                return sum(float(c) * h ** p * evaluate(binding[spec.names[k]], params, pt)
                           for k, c, p in terms)

            f, g = binding[spec.names[i]], binding[spec.names[j]]
            assert res.max_rel_residual == _reference_residual(f, g, rhs, params, points(25, 7))


L1, L1_BINDING = bundled_spec("l1"), {"M2": "M2", "S": "S", "N1": "N1"}


@pytest.mark.parametrize("step", [0, 0.0, -1e-6, math.nan, math.inf])
def test_step_must_be_finite_and_positive(step):
    # step = 0 divided by zero, and step = nan gave a NaN report
    point = PhasePoint(1.0, 0.3, 0.1, 1.0)
    calls = (
        lambda: identity_suite(PARAMS, samples=3, step=step),
        lambda: cross_check_loop_spec(L1, L1_BINDING, PARAMS, samples=3, step=step),
        lambda: poisson("H", "L", PARAMS, point, step=step),
        lambda: poisson_fn("M1", "M2", PARAMS, step=step),
    )
    for call in calls:
        with pytest.raises(InputError, match="step must be finite and positive"):
            call()


def test_step_that_leaves_the_domain_is_too_close_to_the_boundary():
    # with step = 1, r - d <= 0 at every sample: the stencil would divide by zero
    with pytest.raises(BoundaryTooClose):
        identity_suite(PARAMS, samples=3, step=1.0)
    with pytest.raises(BoundaryTooClose):
        cross_check_loop_spec(L1, L1_BINDING, PARAMS, samples=3, step=1.0)
    # a step that keeps every sample inside the domain still runs
    assert identity_suite(PARAMS, samples=3, step=1e-4).all_pass


def test_integer_fields_take_only_integers():
    for bad in ({"samples": True}, {"samples": 5.0}, {"seed": 1.5}, {"seed": True},
                {"seed": "1"}, {"seed": None}):
        kwargs = {"samples": 5, **bad}
        with pytest.raises(TypeError, match="must be an integer"):
            identity_suite(PARAMS, **kwargs)
        with pytest.raises(TypeError, match="must be an integer"):
            cross_check_loop_spec(L1, L1_BINDING, PARAMS, **kwargs)
    with pytest.raises(TypeError, match="samples must be an integer"):
        sample_points(True, 1)


def test_real_fields_refuse_bool():
    for bad in ({"m": True}, {"alpha": False}, {"beta": True}):
        with pytest.raises(TypeError, match="must be a real number"):
            KeplerParams(**bad)
    with pytest.raises(TypeError, match="must be a real number"):
        PhasePoint(1.0, 0.3, True, 1.0)
    # int and float both stay accepted
    assert KeplerParams(2, 1, 0) == KeplerParams(2.0, 1.0, 0.0)
    assert evaluate("H0", KeplerParams(1, 1, 0), PhasePoint(1, 0, 0, 1)) == -0.5


def test_tol_and_step_refuse_bool():
    # tol=True ran every row at tol 1 and reported "tol": true; step=True ran at step 1
    point = PhasePoint(1.0, 0.3, 0.1, 1.0)
    calls = {
        "tol": (lambda: identity_suite(PARAMS, samples=2, tol=True),
                lambda: cross_check_loop_spec(L1, L1_BINDING, PARAMS, samples=2, tol=True)),
        "step": (lambda: identity_suite(PARAMS, samples=2, step=True),
                 lambda: cross_check_loop_spec(L1, L1_BINDING, PARAMS, samples=2, step=True),
                 lambda: poisson("H", "L", PARAMS, point, step=True),
                 lambda: poisson_fn("M1", "M2", PARAMS, step=True)),
    }
    for name, group in calls.items():
        for call in group:
            with pytest.raises(TypeError, match=f"^{name} must be a real number, got True$"):
                call()


def test_params_are_stored_as_float():
    # a Fraction field reached OracleReport.to_json, which json.dumps refused
    params = KeplerParams(Fraction(1, 2), 1, 0)
    assert [type(x) for x in (params.m, params.alpha, params.beta)] == [float] * 3
    assert params == KeplerParams(0.5, 1.0, 0.0)
    report = json.loads(json.dumps(identity_suite(params, samples=2).to_json()))
    assert report["params"] == {"m": 0.5, "alpha": 1.0, "beta": 0.0}


def test_binding_must_name_every_spec_generator():
    with pytest.raises(InputError, match=r"generator\(s\) N1$"):
        cross_check_loop_spec(L1, {"M2": "M2", "S": "S"}, PARAMS, samples=3)
    with pytest.raises(InputError, match=r"generator\(s\) S, N1$"):
        cross_check_loop_spec(L1, {"M2": "M2"}, PARAMS, samples=3)


@pytest.fixture
def fresh_bind():
    from loopalg import kepler

    kepler._bind.cache_clear()  # so the evaluator binds the patched math functions
    yield kepler
    kepler._bind.cache_clear()


@pytest.mark.parametrize("params", [PARAMS, PURE])
def test_one_trig_sharing_stencil_per_sample(fresh_bind, monkeypatch, params):
    # per sample: cos, sin of phi and phi/2 at the centre and at phi +- d (12
    # calls), sqrt at r and r +- d (3 calls); per block of samples, one
    # gradient read for each of the 10 distinct operands
    counts = dict.fromkeys(("trig", "sqrt", "partials"), 0)
    widths = set()  # slots in the stencil tuples that the gradients read

    def counting(group, fn):
        def wrapper(*args):
            counts[group] += 1
            if group == "partials":
                widths.add(len(args[0][0][0][0]))
            return fn(*args)
        return wrapper

    for name, group in (("cos", "trig"), ("sin", "trig"), ("sqrt", "sqrt")):
        monkeypatch.setattr(math, name, counting(group, getattr(math, name)))
    monkeypatch.setattr(fresh_bind, "_partials", counting("partials", fresh_bind._partials))
    report = identity_suite(params, samples=20, seed=4)
    assert report.all_pass
    blocks = -(-20 // fresh_bind._BLOCK)
    assert counts == {"trig": 12 * 20, "sqrt": 3 * 20, "partials": 10 * blocks}
    # the suite fills the two private slots; a cross-check reads only the 11
    # named observables, and a closure operand takes the slot after them
    assert widths == {13}
    widths.clear()
    cross_check_loop_spec(L1, L1_BINDING, params, samples=3)
    assert widths == {11}
    widths.clear()
    n1 = lambda r, phi, pr, pphi: evaluate("N1", params, PhasePoint(r, phi, pr, pphi))
    cross_check_loop_spec(L1, {"M2": "M2", "S": "S", "N1": n1}, params, samples=3)
    assert widths == {12}


def test_identity_suite_memory_is_bounded_by_the_block():
    # the traced peak above the sample points' own: about 0.36 MB with blocks
    # of 32 points, and 32 MB when all 5000 points' stencils were held at once
    tracemalloc.start()
    try:
        sample_points(5000, 2)
        points_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        identity_suite(PARAMS, samples=5000, seed=2)
        suite_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert suite_peak - points_peak < 2_000_000
