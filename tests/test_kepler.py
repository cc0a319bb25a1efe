import math

import pytest

from loopalg import (
    BoundaryTooClose,
    IdentityFailed,
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


def test_eval_examples():
    x = PhasePoint(1.0, 0.0, 0.0, 1.0)
    assert evaluate("H0", KeplerParams(1, 1, 0.5), x) == pytest.approx(-0.5)
    for pt in points():
        assert evaluate("L", PARAMS, pt) == pt.pphi


def test_observable_wrapper():
    # evaluate resolves a name or takes a raw closure over (r, phi, pr, pphi)
    x = PhasePoint(1.3, 0.4, -0.2, 1.1)
    s_closure = lambda r, phi, pr, pphi: evaluate("S", PARAMS, PhasePoint(r, phi, pr, pphi))
    assert evaluate(s_closure, PARAMS, x) == evaluate("S", PARAMS, x)
    with pytest.raises(KeyError, match="unknown observable"):
        evaluate("Q", PARAMS, x)


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


def test_identity_suite_fail_fast():
    with pytest.raises(IdentityFailed):
        identity_suite(PARAMS, samples=30, seed=1, tol=1e-16, fail_fast=True)
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
    with pytest.raises(IdentityFailed):
        cross_check_loop_spec(bundled_spec("l1"), binding, PARAMS, samples=30, seed=1,
                              fail_fast=True)


def test_params_must_be_finite():
    for bad in ({"m": math.inf}, {"alpha": math.nan}, {"beta": -math.inf}):
        with pytest.raises(ValueError, match="finite"):
            KeplerParams(**bad)
