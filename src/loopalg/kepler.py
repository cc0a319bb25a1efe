"""Numerical Poisson-bracket oracle for the perturbed 2-D Kepler system.

Canonical coordinates are (r, phi, p_r, p_phi) with phi on the open branch
(-pi, pi).  The Hamiltonians are

    H0 = (p_r**2 + p_phi**2 / r**2) / (2 m) - alpha / r
    H  = H0 - beta * cos(phi/2) / sqrt(r)          (perturbation strength beta)

and the conserved set realized here, writing h = -2 m H and using the unit
vectors rhat = (cos phi, sin phi), phihat = (-sin phi, cos phi):

    L  = p_phi
    A  = (A1, A2) = L p_y xhat - L p_x yhat - m alpha rhat      (Runge-Lenz)
    M  = A - m beta sqrt(r) sin(phi/2) phihat
       = (p_phi**2 / r - m alpha) rhat
         - (p_r p_phi + m beta sqrt(r) sin(phi/2)) phihat
    S  = {M1, M2} = h p_phi - m beta (p_r sqrt(r) sin(phi/2)
                                      + p_phi cos(phi/2) / sqrt(r))
    N1 = {M2, S} = h M1 - (m beta)**2 / 2
    N2 = h M2

Note the m*alpha (not m*beta) radial coefficient in M: it is forced by
M(0) = A, and the conservation check {H, M_i} = 0 in the identity suite
arbitrates empirically between the two candidate coefficients (the report
carries both residuals).

Brackets are evaluated by central finite differences,

    {f, g} = df/dr dg/dp_r - df/dp_r dg/dr + df/dphi dg/dp_phi
             - df/dp_phi dg/dphi,

with per-coordinate step  step * max(1, |coordinate|); the default step
1e-6 puts the second-order truncation error far below the default relative
tolerance of 1e-5.  The identity suite and the loop-spec cross-check share
one relation form and one sample loop.  At each sample point one
trig-sharing stencil evaluates every named observable at the centre and at
the 8 stencil points: phi enters only through cos phi, sin phi, cos phi/2
and sin phi/2, which are taken once for the 7 points that keep phi, and r
through sqrt(r), taken once for the 7 points that keep r.  The identity
suite's two helper quantities (h0*L and the m*beta radial variant of M1)
ride in private trailing slots, and each user-supplied closure operand in a
slot after them, so one stencil gives every gradient and value.  The stencil
refuses a point within one step of r = 0 or of the cut at phi = +-pi.
"""

from __future__ import annotations

import functools
import math
import random

from .scalars import FrozenRecord, InputError, as_int

_DOMAIN = {"r": (0.5, 3.0), "phi_margin": 0.2, "p": (-2.0, 2.0), "pphi_min": 0.1}

OBSERVABLE_NAMES = ("H0", "H", "L", "A1", "A2", "M1", "M2", "S", "N1", "N2", "h")


class BoundaryTooClose(ValueError):
    """Finite-difference stencil would leave the coordinate domain."""


class IdentityFailed(RuntimeError):
    """A bracket identity exceeded its tolerance at a sampled point."""

    def __init__(self, name, point, residual):
        self.name = name
        self.point = point
        self.residual = residual
        super().__init__(f"{name} failed at {point}: relative residual {residual:.3e}")


def _refuse_bool(value, name):
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def _require_finite(record):
    for name, value in zip(record.__slots__, record._values()):
        _refuse_bool(value, name)
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value}")


class KeplerParams(FrozenRecord):
    """Mass, Coulomb coupling, and perturbation strength (beta may be 0)."""

    __slots__ = ("m", "alpha", "beta")

    def __init__(self, m=1.0, alpha=1.0, beta=0.5):
        super().__init__(m, alpha, beta)
        _require_finite(self)
        if self.m <= 0:
            raise InputError(f"mass must be positive, got {self.m}")
        # stored as float, so a report that copies them is JSON-serializable
        super().__init__(float(m), float(alpha), float(beta))


class PhasePoint(FrozenRecord):
    """Canonical point (r, phi, p_r, p_phi), r > 0 and phi inside (-pi, pi)."""

    __slots__ = ("r", "phi", "pr", "pphi")

    def __init__(self, r, phi, pr, pphi):
        super().__init__(r, phi, pr, pphi)
        _require_finite(self)
        if self.r <= 0:
            raise InputError(f"r must be positive, got {self.r}")
        if not -math.pi < self.phi < math.pi:
            raise InputError(f"phi must lie strictly inside (-pi, pi), got {self.phi}")

    def astuple(self):
        return (self.r, self.phi, self.pr, self.pphi)


# Two private trailing slots of the evaluator's tuple, used by the identity
# suite only: h0*L grades {A1, A2}, and M1 with an m*beta radial term is the
# variant whose conservation is checked.  No name reaches them.
_H0_L, _M1_BETA = len(OBSERVABLE_NAMES), len(OBSERVABLE_NAMES) + 1


@functools.lru_cache(maxsize=32)
def _bind(params: KeplerParams):
    """(values, stencil) over one core evaluator of every observable.

    values(r, phi, pr, pphi) is the tuple of all observables at a point, in
    OBSERVABLE_NAMES order followed by the two private slots.  stencil(x,
    step, closures) is (values at x, [(values(x + d e_i), values(x - d e_i),
    2 d) for each coordinate i]), d = step * max(1, |x_i|), each tuple followed
    by the closures' values; the points that keep phi or r share its trig
    values or sqrt(r).  A point within d of r = 0 or of the cut raises
    BoundaryTooClose before anything is evaluated.
    """
    m, alpha, beta = params.m, params.alpha, params.beta
    two_m, minus_two_m, m_alpha, m_beta = 2 * m, -2 * m, m * alpha, m * beta
    n1_shift = m_beta ** 2 / 2
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def at(r, phi, pr, pphi, c, s, c2, s2, u):
        # c, s, c2, s2 = cos phi, sin phi, cos phi/2, sin phi/2 and u = sqrt(r)
        H0 = (pr * pr + (pphi * pphi) / (r * r)) / two_m - alpha / r
        H = H0 - beta * c2 / u
        h = minus_two_m * H
        A1 = pphi * (pr * s + pphi * c / r) - m_alpha * c
        A2 = -pphi * (pr * c - pphi * s / r) - m_alpha * s
        lift = m_beta * u * s2
        M1 = A1 + lift * s
        M2 = A2 - lift * c
        S = h * pphi - m_beta * (pr * u * s2 + pphi * c2 / u)
        return (H0, H, pphi, A1, A2, M1, M2, S, h * M1 - n1_shift, h * M2, h,
                minus_two_m * H0 * pphi, (pphi * pphi / r - m_beta) * c + (pr * pphi + lift) * s)

    def values(r, phi, pr, pphi):
        return at(r, phi, pr, pphi, cos(phi), sin(phi), cos(phi / 2), sin(phi / 2), sqrt(r))

    def stencil(x, step, closures=()):
        r, phi, pr, pphi = x
        dr, dphi, dpr, dpphi = [step * max(1.0, abs(v)) for v in x]
        if r - dr <= 0 or abs(phi) + dphi >= math.pi:
            raise BoundaryTooClose(f"point (r={r}, phi={phi}) is within one stencil step"
                                   " of the domain boundary")
        point = at
        if closures:  # built only when needed: the wrapper costs the named-only path
            def point(r, phi, pr, pphi, *trig):
                return at(r, phi, pr, pphi, *trig) + tuple(fn(r, phi, pr, pphi) for fn in closures)
        c, s, c2, s2, u = cos(phi), sin(phi), cos(phi / 2), sin(phi / 2), sqrt(r)
        rp, rm, fp, fm = r + dr, r - dr, phi + dphi, phi - dphi
        return point(r, phi, pr, pphi, c, s, c2, s2, u), [
            (point(rp, phi, pr, pphi, c, s, c2, s2, sqrt(rp)),
             point(rm, phi, pr, pphi, c, s, c2, s2, sqrt(rm)), 2 * dr),
            (point(r, fp, pr, pphi, cos(fp), sin(fp), cos(fp / 2), sin(fp / 2), u),
             point(r, fm, pr, pphi, cos(fm), sin(fm), cos(fm / 2), sin(fm / 2), u), 2 * dphi),
            (point(r, phi, pr + dpr, pphi, c, s, c2, s2, u),
             point(r, phi, pr - dpr, pphi, c, s, c2, s2, u), 2 * dpr),
            (point(r, phi, pr, pphi + dpphi, c, s, c2, s2, u),
             point(r, phi, pr, pphi - dpphi, c, s, c2, s2, u), 2 * dpphi),
        ]

    return values, stencil


def _key(obs):
    """An observable as its index in OBSERVABLE_NAMES (by name) or as a raw closure."""
    if isinstance(obs, str):
        if obs not in OBSERVABLE_NAMES:
            raise KeyError(f"unknown observable {obs!r}; choose from {OBSERVABLE_NAMES}")
        return OBSERVABLE_NAMES.index(obs)
    if callable(obs):
        return obs
    raise TypeError(f"not an observable: {obs!r}")


def evaluate(obs, params: KeplerParams, point: PhasePoint) -> float:
    """Closed-form value of an observable (by name or raw closure) at a point."""
    key, x = _key(obs), point.astuple()
    return key(*x) if callable(key) else _bind(params)[0](*x)[key]


def _slots(keys):
    """(closures, slot): the closures among keys, and slot(key), its index in the stencil tuple."""
    index = {fn: _M1_BETA + 1 + i for i, fn in enumerate(dict.fromkeys(filter(callable, keys)))}
    return tuple(index), lambda key: index.get(key, key)


def _partials(cols, key):
    """Central-difference gradient of stencil slot key, from the stencil's point columns."""
    return [(vp[key] - vm[key]) / dd for vp, vm, dd in cols]


def _bracket(pf, pg):
    """{f, g} from the gradients of f and g over (r, phi, pr, pphi)."""
    return pf[0] * pg[2] - pf[2] * pg[0] + pf[1] * pg[3] - pf[3] * pg[1]


def _check_step(step):
    _refuse_bool(step, "step")
    if not 0 < step < math.inf:
        raise InputError(f"step must be finite and positive, got {step}")


def poisson(f, g, params: KeplerParams, point: PhasePoint, step: float = 1e-6) -> float:
    """{f, g} at one phase-space point via central finite differences."""
    x = (point if isinstance(point, PhasePoint) else PhasePoint(*point)).astuple()
    return poisson_fn(f, g, params, step)(*x)


def poisson_fn(f, g, params: KeplerParams, step: float = 1e-6):
    """{f, g} as a raw-coordinate closure, usable as an operand of poisson().

    Nesting finite differences amplifies roundoff, so outer brackets over a
    poisson_fn should use a larger step (1e-4 works well) than the inner one.
    """
    _check_step(step)
    kf, kg = _key(f), _key(g)
    closures, slot = _slots((kf, kg))
    stencil, sf, sg = _bind(params)[1], slot(kf), slot(kg)

    def value(r, phi, pr, pphi):
        cols = stencil((r, phi, pr, pphi), step, closures)[1]
        return _bracket(_partials(cols, sf), _partials(cols, sg))

    return value


def sample_points(samples: int, seed: int):
    """Deterministic sample of valid phase points, away from r = 0 and the cut."""
    if as_int(samples, "samples") < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    rng = random.Random(as_int(seed, "seed"))
    r_lo, r_hi = _DOMAIN["r"]
    p_lo, p_hi = _DOMAIN["p"]
    margin = _DOMAIN["phi_margin"]
    pts = []
    for _ in range(samples):
        r = rng.uniform(r_lo, r_hi)
        phi = rng.uniform(-math.pi + margin, math.pi - margin)
        pr = rng.uniform(p_lo, p_hi)
        pphi = rng.uniform(p_lo, p_hi)
        while abs(pphi) < _DOMAIN["pphi_min"]:
            pphi = rng.uniform(p_lo, p_hi)
        pts.append((r, phi, pr, pphi))
    return pts


class IdentityResult(FrozenRecord):
    __slots__ = ("name", "samples", "max_rel_residual", "passed")

    def __init__(self, name, samples, max_rel_residual, passed):
        super().__init__(name, samples, max_rel_residual, passed)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_rel_residual": self.max_rel_residual,
            "pass": self.passed,
        }


class OracleReport(FrozenRecord):
    __slots__ = ("params", "samples", "seed", "tol", "identities", "radial_term")

    def __init__(self, params, samples, seed, tol, identities, radial_term=None):
        super().__init__(params, samples, seed, tol, identities, radial_term)

    @property
    def all_pass(self) -> bool:
        return all(res.passed for res in self.identities)

    def to_json(self) -> dict:
        out = {
            "params": {"m": self.params.m, "alpha": self.params.alpha, "beta": self.params.beta},
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "identities": [res.to_json() for res in self.identities],
            "all_pass": self.all_pass,
        }
        if self.radial_term is not None:
            out["radial_term"] = self.radial_term
        return out


def _run_identities(identities, params, points, tol, step, n_raising):
    """Worst relative residual of each (name, f, g, terms) row over points.

    A row over observable keys (see _key) states {f, g} = sum float(c) *
    h(x)**p * X(x) over its (c, p, X) terms.  The loop is point-major: at each
    point one stencil (see _bind), closures in its trailing slots, gives every
    gradient and value, each power of h is taken once, and all rows share
    them.  The first n_raising rows raise IdentityFailed at the first failing
    sample (the first failing row there); the others are only reported.
    """
    _refuse_bool(tol, "tol")
    if not 0 <= tol < math.inf:
        raise InputError(f"tol must be finite and nonnegative, got {tol}")
    _check_step(step)
    stencil, h = _bind(params)[1], _key("h")
    closures, slot = _slots(key for _, f, g, terms in identities
                            for key in (f, g, *(x for *_, x in terms)))
    rows = [(name, slot(f), slot(g), [(float(c), p, slot(x)) for c, p, x in terms])
            for name, f, g, terms in identities]
    operands = {key: None for _, f, g, _ in rows for key in (f, g)}
    powers = {p for *_, terms in rows for _, p, _ in terms}
    worst = [0.0] * len(rows)
    for x in points:
        val, cols = stencil(x, step, closures)
        grad = {key: _partials(cols, key) for key in operands}
        hv = val[h]
        hp = {p: hv ** p for p in powers}
        for i, (name, f, g, terms) in enumerate(rows):
            lhs = _bracket(grad[f], grad[g])
            want = 0  # summed from 0, left to right, as sum() adds a row of floats
            for c, p, key in terms:
                want += c * hp[p] * val[key]
            scale = max(1.0, abs(lhs), abs(want), abs(val[f]), abs(val[g]))
            res = abs(lhs - want) / scale
            if res > worst[i] or math.isnan(res):  # once NaN, worst stays NaN
                worst[i] = res
            if i < n_raising and not res <= tol:
                raise IdentityFailed(name, x, res)
    return [IdentityResult(row[0], len(points), res, res <= tol)
            for row, res in zip(rows, worst)]


def identity_suite(
    params: KeplerParams,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-5,
    step: float = 1e-6,
    fail_fast: bool = False,
) -> OracleReport:
    """Check every bracket identity of the conserved set at sampled points.

    Covers conservation {H, X} = 0 (L only when beta = 0), the angular
    momentum / Runge-Lenz relations, the deformed relations through S, N1,
    N2, and both closed algebras on (M2, S, N1) and (N1, N2, S).  Also
    resolves the radial-coefficient ambiguity in M by testing the m*beta
    variant's conservation alongside the implemented m*alpha one.  With
    fail_fast, IdentityFailed is raised at the first failing sample; the
    m*beta variant, which fails by design unless alpha == beta, never raises.
    """
    alpha, beta = params.alpha, params.beta
    conserved = ("M1", "M2", "S", "N1", "N2") + (("L",) if beta == 0 else ())
    table = [(f"{{H,{x}}}=0", "H", x, ()) for x in conserved] + [
        ("{L,A1}=A2", "L", "A1", [(1, 0, "A2")]),
        ("{A2,L}=A1", "A2", "L", [(1, 0, "A1")]),
        ("{A1,A2}=h0*L", "A1", "A2", [(1, 0, _H0_L)]),
        ("{M1,M2}=S", "M1", "M2", [(1, 0, "S")]),
        ("{S,M1}=h*M2", "S", "M1", [(1, 1, "M2")]),
        ("{M2,S}=h*M1-(m*beta)^2/2", "M2", "S", [(1, 0, "N1")]),
        ("{N1,M2}=h*S", "N1", "M2", [(1, 1, "S")]),
        ("{S,N1}=h^2*M2", "S", "N1", [(1, 2, "M2")]),
        ("{N1,N2}=h^2*S", "N1", "N2", [(1, 2, "S")]),
        ("{N2,S}=h*N1", "N2", "S", [(1, 1, "N1")]),
        ("{S,N1}=h*N2", "S", "N1", [(1, 1, "N2")]),
    ]

    def key(obs):  # a name, or one of the private slots of the evaluator
        return obs if isinstance(obs, int) else _key(obs)

    rows = [(name, key(f), key(g), [(c, p, key(x)) for c, p, x in terms])
            for name, f, g, terms in table]
    variant_row = ("{H,M1 with m*beta radial term}=0", _key("H"), _M1_BETA, ())
    *results, variant = _run_identities(rows + [variant_row], params,
                                        sample_points(samples, seed), tol, step,
                                        len(rows) if fail_fast else 0)
    radial_term = {
        "radial_coefficient": "m*alpha",
        "max_rel_residual": results[0].max_rel_residual,  # {H,M1}=0
        "m_beta_variant_max_rel_residual": variant.max_rel_residual,
        "variant_conserved": variant.passed,
        "note": "variants coincide when alpha == beta" if alpha == beta else
                "m*beta variant fails conservation; m*alpha confirmed",
    }
    return OracleReport(params, samples, seed, tol, tuple(results), radial_term)


def cross_check_loop_spec(
    spec,
    binding: dict,
    params: KeplerParams,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-5,
    step: float = 1e-6,
    fail_fast: bool = False,
) -> OracleReport:
    """Verify every base bracket of a loop spec against the realization.

    binding maps each spec generator name to an observable (name or raw
    closure); each {X_i, X_j} = sum c h**p X_k becomes the numerical check
    poisson(bind i, bind j) = sum c * h(x)**p * bind k (x).
    """
    names = spec.names
    missing = [name for name in names if name not in binding]
    if missing:
        raise InputError(f"binding has no observable for spec generator(s) {', '.join(missing)}")
    bound = {name: _key(binding[name]) for name in names}
    rows = []
    for (i, j), terms in sorted(spec.base_brackets().items()):
        label = " + ".join(f"{c}*h^{p}*{names[k]}" if p else f"{c}*{names[k]}"
                           for k, c, p in terms)
        rows.append((f"{{{names[i]},{names[j]}}}={label}", bound[names[i]], bound[names[j]],
                     [(c, p, bound[names[k]]) for k, c, p in terms]))
    results = _run_identities(rows, params, sample_points(samples, seed), tol, step,
                              len(rows) if fail_fast else 0)
    return OracleReport(params, samples, seed, tol, tuple(results))
