"""The Kepler oracle against the closure-per-observable algorithm it replaced.

The references below are the earlier implementation: one nested closure per
observable (N1 calls h, which calls H, which calls H0), a central-difference
gradient taken per operand per sample point, the sample loop over those
closures, and sample points drawn with Random.uniform.  The oracle evaluates
every named observable together and runs one identity at a time over blocks
of sample points, so the values, the brackets and every report must equal
the references exactly, float for float.
"""

import math
import random

import pytest

from loopalg import (
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
from loopalg.kepler import _BLOCK, OBSERVABLE_NAMES, IdentityResult, _key, _run_identities

PARAM_SETS = (KeplerParams(1, 1, 0.5), KeplerParams(1, 1, 0), KeplerParams(2, 0.5, 0.75),
              KeplerParams(0.3, 2.5, -1.7))


# -- references ------------------------------------------------------------------

def reference_observables(params):
    """One closure per observable over raw coordinates (r, phi, pr, pphi)."""
    m, alpha, beta = params.m, params.alpha, params.beta
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def H0(r, phi, pr, pphi):
        return (pr * pr + (pphi * pphi) / (r * r)) / (2 * m) - alpha / r

    def H(r, phi, pr, pphi):
        return H0(r, phi, pr, pphi) - beta * cos(phi / 2) / sqrt(r)

    def h(r, phi, pr, pphi):
        return -2 * m * H(r, phi, pr, pphi)

    def L(r, phi, pr, pphi):
        return pphi

    def A1(r, phi, pr, pphi):
        p_y = pr * sin(phi) + pphi * cos(phi) / r
        return pphi * p_y - m * alpha * cos(phi)

    def A2(r, phi, pr, pphi):
        p_x = pr * cos(phi) - pphi * sin(phi) / r
        return -pphi * p_x - m * alpha * sin(phi)

    def M1(r, phi, pr, pphi):
        return A1(r, phi, pr, pphi) + m * beta * sqrt(r) * sin(phi / 2) * sin(phi)

    def M2(r, phi, pr, pphi):
        return A2(r, phi, pr, pphi) - m * beta * sqrt(r) * sin(phi / 2) * cos(phi)

    def S(r, phi, pr, pphi):
        return h(r, phi, pr, pphi) * pphi - m * beta * (
            pr * sqrt(r) * sin(phi / 2) + pphi * cos(phi / 2) / sqrt(r)
        )

    def N1(r, phi, pr, pphi):
        return h(r, phi, pr, pphi) * M1(r, phi, pr, pphi) - (m * beta) ** 2 / 2

    def N2(r, phi, pr, pphi):
        return h(r, phi, pr, pphi) * M2(r, phi, pr, pphi)

    return {
        "H0": H0, "H": H, "h": h, "L": L, "A1": A1, "A2": A2,
        "M1": M1, "M2": M2, "S": S, "N1": N1, "N2": N2,
    }


def reference_sample_points(samples, seed):
    """Phase points drawn coordinate by coordinate with Random.uniform."""
    rng = random.Random(seed)
    pts = []
    for _ in range(samples):
        r = rng.uniform(0.5, 3.0)
        phi = rng.uniform(-math.pi + 0.2, math.pi - 0.2)
        pr = rng.uniform(-2.0, 2.0)
        pphi = rng.uniform(-2.0, 2.0)
        while abs(pphi) < 0.1:
            pphi = rng.uniform(-2.0, 2.0)
        pts.append((r, phi, pr, pphi))
    return pts


def reference_partials(fn, x, step):
    out = []
    for i in range(4):
        d = step * max(1.0, abs(x[i]))
        xp = list(x)
        xm = list(x)
        xp[i] += d
        xm[i] -= d
        out.append((fn(*xp) - fn(*xm)) / (2 * d))
    return out


def bracket(pf, pg):
    return pf[0] * pg[2] - pf[2] * pg[0] + pf[1] * pg[3] - pf[3] * pg[1]


def reference_run(rows, h, points, tol, step):
    """The sample loop over (name, f, g, [(c, p, X)]) rows of raw closures."""
    operands = {fn: None for _, f, g, _ in rows for fn in (f, g)}
    closures = {h: None, **operands}
    closures.update((fn, None) for *_, terms in rows for _, _, fn in terms)
    worst = [0.0] * len(rows)
    for x in points:
        grad = {fn: reference_partials(fn, x, step) for fn in operands}
        val = {fn: fn(*x) for fn in closures}
        hv = val[h]
        for i, (_, f, g, terms) in enumerate(rows):
            lhs = bracket(grad[f], grad[g])
            want = sum(float(c) * hv ** p * val[fn] for c, p, fn in terms)
            scale = max(1.0, abs(lhs), abs(want), abs(val[f]), abs(val[g]))
            res = abs(lhs - want) / scale
            if res > worst[i] or math.isnan(res):
                worst[i] = res
    return [IdentityResult(row[0], len(points), res, res <= tol)
            for row, res in zip(rows, worst)]


def reference_suite(params, samples, seed, tol=1e-5, step=1e-6):
    """(identity results, m*beta variant result) of the identity suite."""
    F = reference_observables(params)
    m, beta = params.m, params.beta

    def h0_L(r, phi, pr, pphi):
        return -2 * m * F["H0"](r, phi, pr, pphi) * pphi

    def M1_beta_variant(r, phi, pr, pphi):
        return (pphi * pphi / r - m * beta) * math.cos(phi) + (
            pr * pphi + m * beta * math.sqrt(r) * math.sin(phi / 2)
        ) * math.sin(phi)

    conserved = ("M1", "M2", "S", "N1", "N2") + (("L",) if beta == 0 else ())
    table = [(f"{{H,{x}}}=0", "H", x, ()) for x in conserved] + [
        ("{L,A1}=A2", "L", "A1", [(1, 0, "A2")]),
        ("{A2,L}=A1", "A2", "L", [(1, 0, "A1")]),
        ("{A1,A2}=h0*L", "A1", "A2", [(1, 0, h0_L)]),
        ("{M1,M2}=S", "M1", "M2", [(1, 0, "S")]),
        ("{S,M1}=h*M2", "S", "M1", [(1, 1, "M2")]),
        ("{M2,S}=h*M1-(m*beta)^2/2", "M2", "S", [(1, 0, "N1")]),
        ("{N1,M2}=h*S", "N1", "M2", [(1, 1, "S")]),
        ("{S,N1}=h^2*M2", "S", "N1", [(1, 2, "M2")]),
        ("{N1,N2}=h^2*S", "N1", "N2", [(1, 2, "S")]),
        ("{N2,S}=h*N1", "N2", "S", [(1, 1, "N1")]),
        ("{S,N1}=h*N2", "S", "N1", [(1, 1, "N2")]),
    ]

    def bind(obs):
        return F[obs] if isinstance(obs, str) else obs

    rows = [(name, bind(f), bind(g), [(c, p, bind(x)) for c, p, x in terms])
            for name, f, g, terms in table]
    rows.append(("{H,M1 with m*beta radial term}=0", F["H"], M1_beta_variant, ()))
    *results, variant = reference_run(rows, F["h"], reference_sample_points(samples, seed), tol,
                                      step)
    return results, variant


def reference_cross(spec, binding, params, samples, seed, tol=1e-5, step=1e-6):
    F = reference_observables(params)
    names = spec.names
    bound = {n: F[binding[n]] if isinstance(binding[n], str) else binding[n] for n in names}
    rows = []
    for (i, j), terms in sorted(spec.base_brackets().items()):
        label = " + ".join(f"{c}*h^{p}*{names[k]}" if p else f"{c}*{names[k]}"
                           for k, c, p in terms)
        rows.append((f"{{{names[i]},{names[j]}}}={label}", bound[names[i]], bound[names[j]],
                     [(c, p, bound[names[k]]) for k, c, p in terms]))
    return reference_run(rows, F["h"], reference_sample_points(samples, seed), tol, step)


def raw(name, params):
    """A user closure for one observable, built from the reference formulas."""
    fn = reference_observables(params)[name]
    return lambda r, phi, pr, pphi: fn(r, phi, pr, pphi)


BINDINGS = (
    ("h2", {"L": "L", "A1": "A1", "A2": "A2"}),
    ("l1", {"M2": "M2", "S": "S", "N1": "N1"}),
    ("l2", {"N1": "N1", "N2": "N2", "S": "S"}),
    ("l1", {"M2": "M2", "S": "S", "N1": "N2"}),  # the wrong binding
)


# -- tests -----------------------------------------------------------------------

@pytest.mark.parametrize("samples, seed", [(1, 0), (7, 3), (_BLOCK + 1, 11), (250, 42),
                                           (40, 2 ** 40 + 9)])
def test_sample_points_match_the_uniform_reference(samples, seed):
    assert sample_points(samples, seed) == reference_sample_points(samples, seed)


@pytest.mark.parametrize("samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_reports_across_block_boundaries_match_reference(samples):
    for params in PARAM_SETS[:3:2]:
        report = identity_suite(params, samples=samples, seed=8)
        results, variant = reference_suite(params, samples, 8)
        assert list(report.identities) == results
        assert report.radial_term["m_beta_variant_max_rel_residual"] == variant.max_rel_residual
        for name, binding in BINDINGS:
            spec = bundled_spec(name)
            report = cross_check_loop_spec(spec, binding, params, samples=samples, seed=8)
            assert list(report.identities) == reference_cross(spec, binding, params, samples, 8)


def test_nan_in_the_last_block_fails_exactly_the_rows_that_read_it():
    params, samples = PARAM_SETS[0], 2 * _BLOCK + 3
    points = sample_points(samples, 5)
    last = points[2 * _BLOCK:]
    # no earlier sample's stencil comes near a point of the last block
    assert not any(abs(x[0] - y[0]) < 1e-3 and abs(x[1] - y[1]) < 1e-3
                   for x in points[:2 * _BLOCK] for y in last)
    ref = reference_observables(params)

    def broken(r, phi, pr, pphi):
        if any(abs(r - y[0]) < 1e-3 and abs(phi - y[1]) < 1e-3 for y in last):
            return math.nan
        return ref["N1"](r, phi, pr, pphi)

    table = [("{H,broken}=0", "H", broken, ()), ("{H,M1}=0", "H", "M1", ()),
             ("{M2,S}=broken", "M2", "S", [(1, 0, broken)]),
             ("{S,M1}=h*M2", "S", "M1", [(1, 1, "M2")]),
             ("{N1,M2}=h*S", broken, "M2", [(1, 1, "S")])]
    keyed = [(name, _key(f), _key(g), [(c, p, _key(x)) for c, p, x in terms])
             for name, f, g, terms in table]
    report = _run_identities(keyed, params, points, 1e-5, 1e-6)
    assert [math.isnan(res.max_rel_residual) for res in report] == [True, False, True, False, True]
    assert [res.passed for res in report] == [False, True, False, True, False]
    rows = [(name, ref.get(f, f), ref.get(g, g), [(c, p, ref.get(x, x)) for c, p, x in terms])
            for name, f, g, terms in table]
    want = reference_run(rows, ref["h"], points, 1e-5, 1e-6)
    assert [res for res in report if res.passed] == [res for res in want if res.passed]
    assert [math.isnan(res.max_rel_residual) for res in want] == [True, False, True, False, True]


@pytest.mark.parametrize("params", PARAM_SETS)
def test_evaluate_matches_reference_closures(params):
    ref = reference_observables(params)
    assert set(ref) == set(OBSERVABLE_NAMES)
    for x in sample_points(200, 5):
        pt = PhasePoint(*x)
        for name in OBSERVABLE_NAMES:
            assert evaluate(name, params, pt) == ref[name](*x), (name, x)


@pytest.mark.parametrize("params", PARAM_SETS)
def test_poisson_matches_reference_gradients(params):
    ref = reference_observables(params)
    user_s = raw("S", params)
    for x in sample_points(20, 6):
        for f, g in (("M1", "M2"), ("H", "N1"), ("L", "A1"), (user_s, "N2"), ("S", "S")):
            rf, rg = ref.get(f, f), ref.get(g, g)
            want = bracket(reference_partials(rf, x, 1e-6), reference_partials(rg, x, 1e-6))
            assert poisson(f, g, params, x) == want
        inner = poisson_fn("M1", "M2", params)

        def ref_inner(*y):
            return bracket(reference_partials(ref["M1"], y, 1e-6),
                           reference_partials(ref["M2"], y, 1e-6))

        want = bracket(reference_partials(ref_inner, x, 1e-4), reference_partials(ref["H"], x, 1e-4))
        assert poisson(inner, "H", params, x, step=1e-4) == want


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("seed", [0, 9])
def test_identity_suite_matches_reference(params, seed):
    for tol in (1e-5, 1e-12):
        report = identity_suite(params, samples=40, seed=seed, tol=tol)
        results, variant = reference_suite(params, 40, seed, tol=tol)
        assert list(report.identities) == results
        assert report.radial_term["m_beta_variant_max_rel_residual"] == variant.max_rel_residual
        assert report.radial_term["variant_conserved"] == variant.passed


@pytest.mark.parametrize("params", PARAM_SETS)
def test_cross_check_matches_reference(params):
    mixed = (
        ("l1", {"M2": raw("M2", params), "S": "S", "N1": raw("N1", params)}),
        ("l2", {"N1": "N1", "N2": raw("N2", params), "S": raw("S", params)}),
    )
    for name, binding in BINDINGS + mixed:
        spec = bundled_spec(name)
        for seed in (0, 4):
            report = cross_check_loop_spec(spec, binding, params, samples=30, seed=seed)
            assert list(report.identities) == reference_cross(spec, binding, params, 30, seed)


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("step", [1e-4, 1e-5])
def test_reports_at_larger_steps_match_reference(params, step):
    for tol in (1e-5, 1e-9):
        report = identity_suite(params, samples=30, seed=3, tol=tol, step=step)
        results, variant = reference_suite(params, 30, 3, tol=tol, step=step)
        assert list(report.identities) == results, tol
        assert report.radial_term["m_beta_variant_max_rel_residual"] == variant.max_rel_residual
        for name, binding in BINDINGS:
            spec = bundled_spec(name)
            report = cross_check_loop_spec(spec, binding, params, samples=30, seed=3, tol=tol,
                                           step=step)
            assert list(report.identities) == reference_cross(spec, binding, params, 30, 3,
                                                              tol=tol, step=step), (tol, name)


@pytest.mark.parametrize("params", PARAM_SETS)
def test_near_the_branch_cut_matches_reference(params):
    # phi within 0.25 of the cut at +-pi: the stencil's phi +- d points move
    # the half-angle functions most there
    ref = reference_observables(params)
    user_n1 = raw("N1", params)
    cut = [(1.7, math.pi - 1e-3, 0.4, -1.2), (0.6, 0.1 - math.pi, -1.5, 0.3),
           (2.9, math.pi - 0.24, 1.9, 1.1), (1.1, 0.2 - math.pi, 0.0, -0.8)]
    for x in cut:
        for name in OBSERVABLE_NAMES:
            assert evaluate(name, params, PhasePoint(*x)) == ref[name](*x), (name, x)
        for f, g in (("H", "M1"), ("M2", "S"), ("S", "N1"), ("N1", "N2"), ("A1", "A2"),
                     (user_n1, "M2"), ("H", user_n1)):
            rf, rg = ref.get(f, f), ref.get(g, g)
            want = bracket(reference_partials(rf, x, 1e-6), reference_partials(rg, x, 1e-6))
            assert poisson(f, g, params, x) == want, (f, g, x)
    # seeds 7 and 17 sample points within 0.25 of the cut, seed 7 on both sides
    for seed in (7, 17):
        near = [x for x in sample_points(40, seed) if abs(x[1]) > math.pi - 0.25]
        assert near and (seed != 7 or {math.copysign(1, x[1]) for x in near} == {-1, 1})
        report = identity_suite(params, samples=40, seed=seed, tol=1e-9)
        results, variant = reference_suite(params, 40, seed, tol=1e-9)
        assert list(report.identities) == results
        assert report.radial_term["m_beta_variant_max_rel_residual"] == variant.max_rel_residual
        for name, binding in BINDINGS:
            report = cross_check_loop_spec(bundled_spec(name), binding, params, samples=40,
                                           seed=seed, tol=1e-9)
            assert list(report.identities) == reference_cross(bundled_spec(name), binding,
                                                              params, 40, seed, tol=1e-9)
