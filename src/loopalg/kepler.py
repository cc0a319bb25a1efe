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
tolerance of 1e-5.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

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


@dataclass(frozen=True)
class KeplerParams:
    """Mass, Coulomb coupling, and perturbation strength (beta may be 0)."""

    m: float = 1.0
    alpha: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        for name in ("m", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m}")


@dataclass(frozen=True)
class PhasePoint:
    """Canonical point (r, phi, p_r, p_phi), r > 0 and phi inside (-pi, pi)."""

    r: float
    phi: float
    pr: float
    pphi: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError(f"r must be positive, got {self.r}")
        if not -math.pi < self.phi < math.pi:
            raise ValueError(f"phi must lie strictly inside (-pi, pi), got {self.phi}")

    def astuple(self):
        return (self.r, self.phi, self.pr, self.pphi)


@functools.lru_cache(maxsize=32)
def _bind_all(params: KeplerParams):
    """Closed-form observables as fast closures over raw coordinates."""
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


def evaluate(obs, params: KeplerParams, point: PhasePoint) -> float:
    """Closed-form value of an observable (by name or raw closure) at a point."""
    return _resolve(obs, params)(*point.astuple())


def _resolve(obs, params):
    if isinstance(obs, str):
        if obs not in OBSERVABLE_NAMES:
            raise KeyError(f"unknown observable {obs!r}; choose from {OBSERVABLE_NAMES}")
        return _bind_all(params)[obs]
    if callable(obs):
        return obs
    raise TypeError(f"not an observable: {obs!r}")


def _partials(fn, x, step):
    """Central-difference gradient of fn at raw point x = (r, phi, pr, pphi)."""
    out = []
    for i in range(4):
        d = step * max(1.0, abs(x[i]))
        xp = list(x)
        xm = list(x)
        xp[i] += d
        xm[i] -= d
        out.append((fn(*xp) - fn(*xm)) / (2 * d))
    return out


def _check_boundary(x, step):
    dr = step * max(1.0, abs(x[0]))
    dphi = step * max(1.0, abs(x[1]))
    if x[0] - dr <= 0 or abs(x[1]) + dphi >= math.pi:
        raise BoundaryTooClose(
            f"point (r={x[0]}, phi={x[1]}) is within one stencil step of the domain boundary"
        )


def _bracket_from_partials(pf, pg):
    return pf[0] * pg[2] - pf[2] * pg[0] + pf[1] * pg[3] - pf[3] * pg[1]


def poisson(f, g, params: KeplerParams, point: PhasePoint, step: float = 1e-6) -> float:
    """{f, g} at one phase-space point via central finite differences."""
    x = point.astuple() if isinstance(point, PhasePoint) else tuple(point)
    _check_boundary(x, step)
    fr, gr = _resolve(f, params), _resolve(g, params)
    return _bracket_from_partials(_partials(fr, x, step), _partials(gr, x, step))


def poisson_fn(f, g, params: KeplerParams, step: float = 1e-6):
    """{f, g} as a raw-coordinate closure, usable as an operand of poisson().

    Nesting finite differences amplifies roundoff, so outer brackets over a
    poisson_fn should use a larger step (1e-4 works well) than the inner one.
    """
    fr, gr = _resolve(f, params), _resolve(g, params)

    def value(r, phi, pr, pphi):
        x = (r, phi, pr, pphi)
        return _bracket_from_partials(_partials(fr, x, step), _partials(gr, x, step))

    return value


def sample_points(samples: int, seed: int):
    """Deterministic sample of valid phase points, away from r = 0 and the cut."""
    rng = random.Random(seed)
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


@dataclass(frozen=True)
class IdentityResult:
    name: str
    samples: int
    max_rel_residual: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_rel_residual": self.max_rel_residual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class OracleReport:
    params: KeplerParams
    samples: int
    seed: int
    tol: float
    identities: tuple[IdentityResult, ...]
    radial_term: dict | None = None

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


def _run_identities(identities, points, tol, step, fail_fast):
    """identities: (name, f_raw, g_raw, rhs_raw) quadruples over raw closures."""
    results = []
    for name, fr, gr, rhs in identities:
        worst = 0.0
        for x in points:
            lhs = _bracket_from_partials(_partials(fr, x, step), _partials(gr, x, step))
            want = rhs(*x)
            scale = max(1.0, abs(lhs), abs(want), abs(fr(*x)), abs(gr(*x)))
            res = abs(lhs - want) / scale
            if res > worst or math.isnan(res):  # once NaN, worst stays NaN
                worst = res
            if fail_fast and not res <= tol:
                raise IdentityFailed(name, x, res)
        results.append(IdentityResult(name, len(points), worst, worst <= tol))
    return results


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
    variant's conservation alongside the implemented m*alpha one.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    F = _bind_all(params)
    m, alpha, beta = params.m, params.alpha, params.beta
    zero = lambda r, phi, pr, pphi: 0.0

    identities = []
    conserved = ["M1", "M2", "S", "N1", "N2"] + (["L"] if beta == 0 else [])
    for x_name in conserved:
        identities.append((f"{{H,{x_name}}}=0", F["H"], F[x_name], zero))
    identities += [
        ("{L,A1}=A2", F["L"], F["A1"], F["A2"]),
        ("{A2,L}=A1", F["A2"], F["L"], F["A1"]),
        (
            "{A1,A2}=h0*L",
            F["A1"],
            F["A2"],
            lambda r, phi, pr, pphi: -2 * m * F["H0"](r, phi, pr, pphi) * pphi,
        ),
        ("{M1,M2}=S", F["M1"], F["M2"], F["S"]),
        (
            "{S,M1}=h*M2",
            F["S"],
            F["M1"],
            lambda r, phi, pr, pphi: F["h"](r, phi, pr, pphi) * F["M2"](r, phi, pr, pphi),
        ),
        ("{M2,S}=h*M1-(m*beta)^2/2", F["M2"], F["S"], F["N1"]),
        (
            "{N1,M2}=h*S",
            F["N1"],
            F["M2"],
            lambda r, phi, pr, pphi: F["h"](r, phi, pr, pphi) * F["S"](r, phi, pr, pphi),
        ),
        (
            "{S,N1}=h^2*M2",
            F["S"],
            F["N1"],
            lambda r, phi, pr, pphi: F["h"](r, phi, pr, pphi) ** 2 * F["M2"](r, phi, pr, pphi),
        ),
        (
            "{N1,N2}=h^2*S",
            F["N1"],
            F["N2"],
            lambda r, phi, pr, pphi: F["h"](r, phi, pr, pphi) ** 2 * F["S"](r, phi, pr, pphi),
        ),
        (
            "{N2,S}=h*N1",
            F["N2"],
            F["S"],
            lambda r, phi, pr, pphi: F["h"](r, phi, pr, pphi) * F["N1"](r, phi, pr, pphi),
        ),
        (
            "{S,N1}=h*N2",
            F["S"],
            F["N1"],
            lambda r, phi, pr, pphi: F["h"](r, phi, pr, pphi) * F["N2"](r, phi, pr, pphi),
        ),
    ]

    points = sample_points(samples, seed)
    results = _run_identities(identities, points, tol, step, fail_fast)

    # radial-coefficient disambiguation: conservation of the m*beta variant
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def M1_beta_variant(r, phi, pr, pphi):
        return (pphi * pphi / r - m * beta) * cos(phi) + (
            pr * pphi + m * beta * sqrt(r) * sin(phi / 2)
        ) * sin(phi)

    variant = _run_identities(
        [("{H,M1 with m*beta radial term}=0", F["H"], M1_beta_variant, zero)],
        points, tol, step, fail_fast=False,
    )[0]
    chosen = next(res for res in results if res.name == "{H,M1}=0")
    radial_term = {
        "radial_coefficient": "m*alpha",
        "max_rel_residual": chosen.max_rel_residual,
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
    F = _bind_all(params)
    h = F["h"]
    bound = {name: _resolve(binding[name], params) for name in spec.names}

    identities = []
    for (i, j), terms in sorted(spec.base_brackets().items()):
        ni, nj = spec.names[i], spec.names[j]

        def rhs(r, phi, pr, pphi, terms=terms):
            hv = h(r, phi, pr, pphi)
            return sum(
                float(c) * hv ** p * bound[spec.names[k]](r, phi, pr, pphi)
                for k, c, p in terms
            )

        label = " + ".join(
            f"{c}*h^{p}*{spec.names[k]}" if p else f"{c}*{spec.names[k]}"
            for k, c, p in terms
        )
        identities.append((f"{{{ni},{nj}}}={label}", bound[ni], bound[nj], rhs))

    points = sample_points(samples, seed)
    results = _run_identities(identities, points, tol, step, fail_fast)
    return OracleReport(params, samples, seed, tol, tuple(results))
