"""Closed-form solid angle of cylinder surfaces at a point source.

All results are normalized: a SolidAngle.value is the fraction of the full
sphere (multiply by 4*pi for steradians). The two canonical building blocks
are evaluated here:

omega_cyl0
    Lateral surface of height L seen from a source in its base plane at
    radial distance d >= r. In terms of the aperture phi_o = arcsin(r/d) and
    the near-wall distance rho(phi) = d cos(phi) - sqrt(r^2 - d^2 sin^2 phi),

        omega = L/(2 pi) * integral_0^phi_o dphi / sqrt(L^2 + rho^2)

    which reduces, with m = 4 r d / (L^2 + (d+r)^2), n = 4 r d / (d+r)^2 and
    gamma_o = (pi/2 + phi_o)/2, to

        omega = (2 pi)^-1 sqrt(1 - m/n) {
                    sqrt(1-n) [Pi(n; m) - Pi(n; gamma_o | m)]
                  - [K(m) - F(gamma_o | m)] }.

    Carlson's addition theorem folds each complete-minus-incomplete pair
    into one integral at the complementary amplitude, and its leftover R_C
    is an arctangent (derivation in omega_cyl0). With a = sqrt(d^2 - r^2),
    x = m' sin^2(gamma_o), y = 1 - m sin^2(gamma_o) and
    p = (1-n) cos^2(gamma_o) + x, the form evaluated is

        2 pi omega = atan(2 L r / (a sqrt(L^2 + a^2)))
                   - sqrt(1-m/n) cos(gamma_o) [ 2r/(d+r) R_F(x, m', y)
                       - sqrt(1-n) (n/3) cos^2(gamma_o) R_J(x, m', y, p) ].

omega_circ
    End disc of radius r at axial distance L from the source plane, source at
    radial distance d from the disc axis. At and outside the rim (d >= r) it
    is the near face below plus the shell, CIRC = FACE + CYL0. The paper's
    d > r form is 1/4 minus terms of order 1, which leaves a disc seen
    edge-on or from a few radii away right only in absolute terms; FACE
    and CYL0 each vanish with L, so their sum keeps a small disc's relative
    accuracy (far off the plane, L >> r, they near -1/4 and 1/4 and cancel,
    as every closed form does there). Inside the rim the path uses only
    first and second kind integrals, with m' = 1-m and a signed amplitude
    sin(eps) = sgn(d-r) sqrt((1-n)/(1-m)):

        omega = 1/4 - (2 pi)^-1 { 2r/(d+r) sqrt(1-m/n) K(m)
                                  + [E(m)-K(m)] F(eps|m') + K(m) E(eps|m') }

    The paper writes this as two forms with eps >= 0, one for d > r and one
    for d < r. F(eps|m') and E(eps|m') are odd in eps, and the paper's
    radial factors n/(1+sqrt(1-n)) = 1 - sqrt(1-n) (d > r) and
    1 + sqrt(1-n) (d < r) both equal 2r/(d+r), so the d < r form is the
    d > r expression at eps < 0, as in Macklin's form. E(eps|m') is DLMF
    19.25.9's sum m F(eps|m') + (m m'/3) sin^3(eps) R_D(cos^2(eps), 1, n)
    + m' sin(eps) L/sqrt(L^2 + (d-r)^2) (at r = 1), whose terms share the
    sign of eps; F - (m'/3) sin^3(eps) R_D(cos^2(eps), n, 1) cancels two
    terms of size log(r/d) near the axis. Below d = 2^-500 r the disc
    takes its on-axis value, from which it differs by O(d^2).

    The third-kind form and the Macklin form are kept as cross-check paths;
    all three agree to roundoff away from d = r.

near face
    Below the base outside the shell, omega_total needs CIRC(h) - CYL0(h),
    and omega_circ at d >= r adds CYL0 back.
    The shell form and the disc's third-kind form carry the same complete
    Pi(n; m) and K(m), which cancel in closed form (see _face):

        CIRC(h) - CYL0(h) = (2 pi)^-1 sqrt(1 - m/n) [ sqrt(1-n) (n/3)
                              sin^3(gamma_o) R_J(cos^2, y, 1, sqrt(1-n))
                              - 2r/(d+r) sin(gamma_o) R_F(cos^2, y, 1) ]

    At d = r it is the equal-distance form below minus 1/4, and at h = 0
    it is CIRC(0): 0 outside the rim and 1/4 on it.

Each quantity has one route: the exact limits below where they apply, the
elliptic form everywhere else. The large-L series (omega_cyl0_series) and
the disc cross-check paths are separate functions for verification only;
no evaluator takes a route argument. Each closed form takes its exact parts
and calls elliptic.carlson_* once per distinct argument tuple, with no
wrapper in between: the shell term takes 1 R_F + 1 R_J and one
arctangent, the near face 1 R_F + 1 R_J, the disc inside the rim
1 R_F + 1 R_D at epsilon plus one AGM loop for its complete K(m) and
K(m) - E(m) (elliptic._complete_pair, also the K of the near face's
equal-distance form), the disc at d >= r, face plus shell, 2 R_F + 2 R_J
and one arctangent, the third-kind disc form 1 R_F + 1 R_J and the
Macklin form 3 R_F + 3 R_D. So a 2-term or 3-term omega_total costs
2 R_F + 2 R_J, and no hot-path kernel call has a zero argument.

Each canonical term is one private function of plain floats at r = 1:
_shell(L, d, t), _disc(L, d, t) and _face(h, d, t), with t = d - 1. Each
takes the term's exact limits, then evaluates its closed form, and returns
(value, method, err). The shell and the near face compute only the gamma_o
parts of the parameters (_gamma_params), the disc inside the rim only the
epsilon parts (_eps_params); at d >= r the disc is _face plus _shell, so
the three call each other in that one direction only. omega_total runs
geometry's float case split and sums these functions directly; omega_cyl0
and omega_circ validate their input and call the same functions, and params_from_geometry and omega_cyl0_series work in
the same units. So the answer is the same at any uniform scale, whether
omega_total forms the canonical terms or a caller passes one directly.

Hot-path rules: omega_total's path pays for no interpreter work that
leaves the bits alone. The two tags are the module names _ELLIPTIC and
_SPECIAL, not Method attribute reads. Every clamp or maximum is a
comparison with the built-in's exact result, NaN included: min(1.0, x) is
`x if x < 1.0 else 1.0` and max is `if u > q: q = u`. The
L^2 + (d+1)^2 overflow test is inline, and _den_m_overflow only raises.
omega_total adds its one or two terms to 0.0 in term order, with no loop.
SolidAngle stores a value in (0, 1) at once; 0, 1, -0.0, NaN and values
outside [0, 1] take the band check and clamp. The kernels are still called
as elliptic.carlson_* with their public checks, and R_F and R_J run
_check_rf_args only when some argument is not positive.
tests/test_frozen_bits.py holds float.hex() of values, tags, error
estimates and hot-path kernel tuples, and fails on any changed bit.

Near-boundary arithmetic: lengths become ratios in one place,
_units(L, r, d) = (L/r, d/r, (d-r)/r), which every evaluator and
omega_total call. d - r is formed before the division, so a source a few
ulp off the wall keeps its offset at any r. (1-n), (1-m) and (1-m/n) are
always computed from the geometry ((d-r)/(d+r),
(L^2+(d-r)^2)/(L^2+(d+r)^2), L/sqrt(L^2+(d+r)^2)), never as subtractions
from 1, so d -> r and L -> 0 keep full precision. The same applies inside
the kernels: every elliptic call gets sin, cos^2, 1 - m sin^2 and
1 - n sin^2 as exact products of geometry factors (see EllipticParams; the
shell's x and p are sums of such products), never recovered from a rounded
angle. Rebuilding them from the angle costs up to
eight digits near the corners (d -> r, L -> 0) where those factors vanish.

Special values (the formulas above degenerate there, exact limits are used):
omega_cyl0 = 1/4 at d = r with L > 0, and 0 at L = 0; omega_circ at L = 0 is
{0, 1/4, 1/2} for d {>, =, <} r; on axis omega_circ = (1 - L/hyp)/2, which is
evaluated as r^2/(2 hyp (hyp + L)) with hyp = sqrt(L^2+r^2) so that a far
disc keeps its relative accuracy; at d = r the near face is
-sqrt(1-m1) K(m1)/(2 pi) with m1 = 4r^2/(L^2+4r^2), and omega_circ is that
plus the shell's 1/4.
Note omega_cyl0 is discontinuous at the corner (d -> r+, L -> 0).
"""

from __future__ import annotations

import enum
import math

from . import elliptic
from .errors import DivergentError, DomainError, OnAxisError
from .geometry import CanonicalConfig, CylinderSpec, SourcePoint, _split, _value_type
from .geometry import decompose  # noqa: F401 - perfbench's tracer wraps solid_angle.decompose

__all__ = [
    "Method",
    "SolidAngle",
    "EllipticParams",
    "params_from_geometry",
    "omega_cyl0",
    "omega_cyl0_series",
    "omega_circ",
    "omega_circ_third_kind",
    "omega_circ_macklin",
    "omega_total",
]

_TWO_PI = 2.0 * math.pi
# heuristic kernel-tolerance x conditioning budget for the closed elliptic forms,
# not a rigorous bound
_ERR_ELLIPTIC = 1e-11
_ERR_SPECIAL = 1e-13
# d/r below which the disc takes its on-axis value: off the axis by d it moves
# by O(d^2), far below an ulp, and the elliptic form would round m and n on
# the subnormal grid
_NEAR_AXIS = 2.0**-500
_VALUE_GUARD = 1e-12
_INF = math.inf


class Method(enum.Enum):
    ELLIPTIC = "elliptic"
    SERIES = "series"
    SPECIAL = "special"
    QUADRATURE = "quadrature"
    MONTECARLO = "montecarlo"


# the two tags of the closed-form terms, read as module names: a Method.X
# read costs about ten times a global's on the scalar path
_ELLIPTIC = Method.ELLIPTIC
_SPECIAL = Method.SPECIAL


@_value_type
class SolidAngle:
    """Normalized solid angle (fraction of 4*pi) with method tag and error estimate."""

    value: float
    method: Method
    err_estimate: float

    def __post_init__(self):
        if 0.0 < self.value < 1.0:
            # in range, nothing to check or clamp; 1.0 goes on, so that an
            # int or NumPy 1 is stored as the float 1.0
            return
        band = max(_VALUE_GUARD, 4.0 * self.err_estimate)
        if not -band <= self.value <= 1.0 + band:
            raise DomainError(
                f"solid angle {self.value!r} outside [0, 1] past the error band {band!r}"
            )
        object.__setattr__(self, "value", min(1.0, max(0.0, self.value)))

    @property
    def steradians(self) -> float:
        return 4.0 * math.pi * self.value


@_value_type
class EllipticParams:
    """Stable parameter bundle shared by the closed forms, in units of r.

    m and n are checked to lie in [0, 1] (roundoff past the ends is clamped).
    The bundle carries no angles, only the Carlson-ready parts of the two
    amplitudes gamma_o = (pi/2 + arcsin(r/d))/2 and
    epsilon = arcsin sqrt((1-n)/(1-m)), as exact products of geometry factors:

        sin^2(gamma_o) = (d+r)/2d      cos^2(gamma_o) = (d-r)/2d
        1 - m sin^2(gamma_o) = (L^2 + (d-r)(d+r)) / (L^2 + (d+r)^2)
        1 - n sin^2(gamma_o) = (d-r)/(d+r) = sqrt_one_minus_n exactly
        sin^2(eps) = (d-r)^2 (L^2+(d+r)^2) / ((d+r)^2 (L^2+(d-r)^2))
        cos^2(eps) = 4 r d L^2 / ((d+r)^2 (L^2+(d-r)^2))
        1 - m' sin^2(eps) = n exactly

    so neither 1 - n sin^2(gamma_o) nor 1 - m' sin^2(eps) has a field of its
    own. sin_epsilon carries the sign of d - r (eps < 0 inside the rim),
    which writes the paper's d < r disc form as its d > r one; omega_circ
    evaluates that form only inside the rim. sqrt_one_minus_n is
    |d-r|/(d+r). The gamma_o parts exist only for d >= r (lateral-surface
    geometry), the epsilon parts only for m_prime > 0 (m itself may round up
    to 1.0 while the complement is still resolved); the unused entries are
    None.
    These go straight into the Carlson kernels; see the module docstring for
    why.
    """

    m: float
    n: float
    m_prime: float
    sqrt_one_minus_n: float
    sqrt_one_minus_m_over_n: float
    one_minus_n: float
    sin_gamma_o: float | None
    cos2_gamma_o: float | None
    y_gamma_o: float | None
    sin_epsilon: float | None
    cos2_epsilon: float | None


def _den_m_overflow(L: float, LL: float, d: float) -> None:
    """Raise the DomainError for L^2 + (d+1)^2 = inf at r = 1, naming the ratio."""
    ratio, value = ("L/r", L) if LL == _INF else ("d/r", d)
    raise DomainError(f"L^2 + (d+r)^2 overflows in units of r: {ratio} = {value!r} is too large")


def _gamma_params(L: float, d: float, t: float) -> tuple:
    """The shell side of EllipticParams at r = 1, for t = d - 1 >= 0.

    Returns (n, m', sqrt(1-n), sqrt(1-m/n), sin, cos^2, y of gamma_o), the
    fields _face reads (_shell reads all but sin); 1 - n is sqrt(1-n)^2 bit
    for bit. t comes in separately so a caller can take d - r from unscaled
    lengths. n = 4d/(d+1)^2 exceeds 1 by a few ulp at most, so capping it at
    1 is the whole clamp.
    """
    s = d + 1.0
    LL = L * L
    den_m = LL + s * s
    if den_m == _INF:
        _den_m_overflow(L, LL, d)
    n = 4.0 * d / (s * s)
    # half-angle of pi/2 + phi_o, so sin^2/cos^2 close over (d +- r)/2d
    sin_g = math.sqrt(s / (2.0 * d))
    return (
        n if n < 1.0 else 1.0,
        (LL + t * t) / den_m,
        abs(t) / s,
        L / math.hypot(L, s),
        sin_g if sin_g < 1.0 else 1.0,
        t / (2.0 * d),
        (LL + t * s) / den_m,
    )


def _eps_params(L: float, d: float, t: float) -> tuple:
    """The disc side of EllipticParams at r = 1, for t = d - 1 of either sign.

    Returns (m, n, m', sqrt(1-n), sqrt(1-m/n), sin, cos^2 of epsilon), the
    fields _disc reads; the epsilon parts are None when m' = 0. m <= n, so
    capping m at n clamps both.
    """
    s = d + 1.0
    LL = L * L
    den_m = LL + s * s
    if den_m == _INF:
        _den_m_overflow(L, LL, d)
    den_t = LL + t * t
    n = 4.0 * d / (s * s)
    n = n if n < 1.0 else 1.0
    m_prime = den_t / den_m
    sin_epsilon = cos2_epsilon = None
    if m_prime > 0.0:
        # products of ratios at most 1, so nothing overflows before den_m does
        u = t / s
        sin2 = u * u * (den_m / den_t)
        sin_epsilon = math.copysign(math.sqrt(sin2 if sin2 < 1.0 else 1.0), t)
        cos2_epsilon = n * (LL / den_t)
    m = 4.0 * d / den_m
    return (
        n if n < m else m,
        n,
        m_prime,
        abs(t) / s,
        L / math.hypot(L, s),
        sin_epsilon,
        cos2_epsilon,
    )


def _units(L: float, r: float, d: float) -> tuple[float, float, float]:
    """(L, d, t) in units of r, t = d - 1 taken from the unscaled lengths.

    The one place where lengths become ratios. Forming d - r before dividing
    keeps the offset of a source a few ulp off the wall, and nothing is
    squared before the division, so no uniform scale of (L, r, d) under- or
    overflows.
    """
    return L / r, d / r, (d - r) / r


def params_from_geometry(cfg: CanonicalConfig) -> EllipticParams:
    """Compute m, n and companions from (L, r, d) without 1-x subtractions.

    L and d are taken in units of r (_units) and the rest is computed at
    r = 1, so no uniform scale of (L, r, d) under- or overflows.
    """
    L, d, t = _units(cfg.L, cfg.r, cfg.d)
    if d == 0.0:
        raise OnAxisError(
            "elliptic parametrization is undefined on the axis (d = 0); "
            "omega_circ handles that case in closed form"
        )
    m, n, m_prime, s_n, s_mn, s_e, c2_e = _eps_params(L, d, t)
    s_g, c2_g, y_g = _gamma_params(L, d, t)[4:] if t >= 0.0 else (None, None, None)
    return EllipticParams(m, n, m_prime, s_n, s_mn, s_n * s_n, s_g, c2_g, y_g, s_e, c2_e)


def _shell(L: float, d: float, t: float) -> tuple[float, Method, float]:
    """(value, method, err) of the shell term at r = 1 for d >= 1, t = d - 1."""
    if L == 0.0:
        return 0.0, _SPECIAL, 0.0
    if t == 0.0:
        # rho vanishes identically: a quarter sphere for any L > 0
        return 0.25, _SPECIAL, _ERR_SPECIAL
    n, m_prime, s_n, s_mn, _, c2_g, y_g = _gamma_params(L, d, t)
    s = d + 1.0
    ts = t * s
    x = m_prime * (s / (2.0 * d))  # m' sin^2(gamma_o)
    p = s_n * s_n * c2_g + x
    first = elliptic.carlson_rf(x, m_prime, y_g)
    third = elliptic.carlson_rj(x, m_prime, y_g, p)
    bracket = (2.0 / s) * first - s_n * (n / 3.0) * c2_g * third
    # the addition theorem's R_C term in closed form; two roots so that
    # t s (L^2 + t s) cannot overflow before L^2 + s^2 does
    arc = math.atan(2.0 * L / (math.sqrt(ts) * math.sqrt(L * L + ts)))
    return (arc - s_mn * math.sqrt(c2_g) * bracket) / _TWO_PI, _ELLIPTIC, _ERR_ELLIPTIC


def omega_cyl0(cfg: CanonicalConfig) -> SolidAngle:
    """Lateral surface of height L from a base-plane source at d >= r.

    The result lies in [0, 1/4]. Exact limits (L = 0, d = r) are taken as
    SPECIAL; everywhere else the elliptic form is the route (the large-L
    series is the separate verification route omega_cyl0_series). The
    tangent limit is approached slowly: near d = r,
    1/4 - omega ~ arccos(r/d)/(2 pi) ~ sqrt(2 (d/r - 1))/(2 pi).

    With Pi(n; phi|m) = F(phi|m) + (n/3) sin^3(phi) R_J,
    1 - n sin^2(gamma_o) = sqrt(1-n) and 1 - sqrt(1-n) = 2r/(d+r), the
    paper's form is two complete-minus-incomplete pairs:

        2 pi omega / sqrt(1-m/n) = sqrt(1-n) (n/3) [R_J(0, m', 1, 1-n)
                                     - sin^3(gamma_o) R_J(cos^2, y, 1, sqrt(1-n))]
                                 - 2r/(d+r) [K(m) - F(gamma_o|m)]

    with K(m) = R_F(0, m', 1) and F(gamma_o|m) = sin(gamma_o) R_F(cos^2, y, 1),
    y = 1 - m sin^2(gamma_o). Carlson's addition theorem (Numer. Math. 33,
    1979; DLMF 19.26(i)) with lambda = cot^2(gamma_o) and
    mu = m' tan^2(gamma_o), so that lambda mu = m', folds each pair into one
    integral at the complementary amplitude. With x = m' sin^2(gamma_o),
    p0 = 1 - n and p = p0 cos^2(gamma_o) + x:

        K(m) - F(gamma_o|m) = cos(gamma_o) R_F(x, m', y)
        R_J(0, m', 1, p0) - sin^3(gamma_o) R_J(cos^2, y, 1, sqrt(1-n))
            = cos^3(gamma_o) R_J(x, m', y, p) + 3 R_C(g - e, g)

    where g = p0 (p0 + lambda)(p0 + mu) and e = p0 n (n - m). Times its
    prefactor sqrt(1-m/n) sqrt(1-n) n, the R_C term is exactly
    atan(2 L r / (a sqrt(L^2 + a^2))) with a = sqrt(d^2 - r^2), so

        2 pi omega = atan(2 L r / (a sqrt(L^2 + a^2)))
                   - sqrt(1-m/n) cos(gamma_o) [ 2r/(d+r) R_F(x, m', y)
                       - sqrt(1-n) (n/3) cos^2(gamma_o) R_J(x, m', y, p) ]

    one R_F and one R_J on the same (x, m', y). The arctangent tends to
    pi/2 as d -> r, where the bracket's cos(gamma_o) vanishes: the 1/4
    limit. Its argument is taken from the geometry; R_C(g - e, g) with the
    gap g - (g - e) found by subtraction loses digits. sin^2(gamma_o) enters
    as (d+r)/2d, not as the square of a rounded sine.
    """
    if cfg.d < cfg.r:
        raise DomainError(f"omega_cyl0 requires d >= r (source outside the shell); got d={cfg.d!r} < r={cfg.r!r}")
    return SolidAngle(*_shell(*_units(cfg.L, cfg.r, cfg.d)))


def omega_cyl0_series(cfg: CanonicalConfig, terms: int = 3) -> SolidAngle:
    """Large-L series for omega_cyl0, truncated at `terms` in {1, 2, 3}.

    Termwise integration of the defining integral in powers of 1/L^2:

        omega = (2 pi)^-1 { phi_o
                 - 1/2 [ r d cos(phi_o) - r^2 (pi/2 - phi_o) ] / L^2
                 + 3/8 [ r d (d^2 + 2 r^2) cos(phi_o)
                         - r^2 (r^2 + 2 d^2) (pi/2 - phi_o) ] / L^4 - ... }

    Valid for sqrt(d^2 - r^2) < L, and DivergentError is raised outside
    that radius; err_estimate is the first omitted term's magnitude, or the
    last included one when all three are used (no further coefficients are
    available). Where a kept term or that error term overflows (L/r too
    small for the expansion, at d = r), DivergentError is raised too.
    """
    if cfg.d < cfg.r:
        raise DomainError(f"omega_cyl0_series requires d >= r; got d={cfg.d!r} < r={cfg.r!r}")
    if cfg.L <= 0.0:
        raise DivergentError(f"the 1/L^2 expansion has no L = 0 limit; got L={cfg.L!r}")
    if terms not in (1, 2, 3):
        raise DomainError(f"terms must be 1, 2 or 3 (three coefficients exist); got {terms!r}")

    # d - r from the unscaled lengths: a rounded r/d would lose the digits of
    # pi/2 - phi_o near d = r
    L, d, t = _units(cfg.L, cfg.r, cfg.d)
    d_cos = math.sqrt(t * (d + 1.0))  # d cos(phi_o) = cot(phi_o) = sqrt(d^2 - r^2)
    if L <= d_cos:
        raise DivergentError(
            f"the 1/L^2 expansion needs sqrt(d^2 - r^2) < L; got L/r = {L!r} <= {d_cos!r}; use omega_cyl0"
        )
    phi_o = math.atan2(1.0, d_cos)
    resid = math.atan(d_cos)  # pi/2 - phi_o
    inv_L2 = 1.0 / (L * L) if L * L > 0.0 else math.inf

    t1 = phi_o
    t2 = -0.5 * (d_cos - resid) * inv_L2
    t3 = 0.375 * (d_cos * (d * d + 2.0) - (1.0 + 2.0 * d * d) * resid) * inv_L2 * inv_L2
    # the kept terms and the one err_estimate is taken from
    if not all(map(math.isfinite, (t1, t2, t3)[: min(terms + 1, 3)])):
        raise DivergentError(f"the 1/L^2 expansion overflows at L/r = {L!r}; use omega_cyl0")

    total = t1 if terms == 1 else t1 + t2 if terms == 2 else t1 + t2 + t3
    err = abs((t2, t3, t3)[terms - 1]) / _TWO_PI
    return SolidAngle(max(0.0, total / _TWO_PI), Method.SERIES, err)


def _disc(L: float, d: float, t: float) -> tuple[float, Method, float]:
    """(value, method, err) of the disc term at r = 1 for d >= 0, t = d - 1.

    At and outside the rim the disc is the near face plus the shell,
    CIRC = FACE + CYL0, summed as omega_total sums the pair. Both vanish
    with L, so a disc seen edge-on is not 1/4 minus terms of order 1, as in
    the paper's d > r form. Inside the rim it is the first/second-kind
    form.
    """
    if t >= 0.0:
        (v1, m1, e1), (v2, m2, e2) = _face(L, d, t), _shell(L, d, t)
        return v1 + v2, m2 if m1 is _SPECIAL else m1, e1 + e2
    if L == 0.0:
        return 0.5, _SPECIAL, 0.0
    if d < _NEAR_AXIS:  # on the axis to within roundoff
        hyp = math.hypot(L, 1.0)
        # 1 - L/hyp without the cancellation that ruins it for L >> r
        return 0.5 / (hyp * (hyp + L)), _SPECIAL, _ERR_SPECIAL
    m, n, m_prime, _, s_mn, s_e, c2_e = _eps_params(L, d, t)
    # K and K - E come from one AGM loop. K - E scales with m, so m is taken
    # as 1 - m' where that subtraction rounds once (m' < 1/2): near m = 1 it
    # is up to a few ulp closer than the quotient 4d/(L^2+(d+1)^2). The
    # incomplete integrals carry parameter m', so their
    # y = 1 - m' sin^2(eps) collapses to n exactly
    # (m' sin^2(eps) = (d-r)^2/(d+r)^2 algebraically)
    if m_prime < 0.5:
        m = 1.0 - m_prime
    K, K_minus_E = elliptic._complete_pair(m, m_prime)
    F_eps = s_e * elliptic.carlson_rf(c2_e, n, 1.0)
    # DLMF 19.25.9 with k^2 = m', k'^2 = m and Delta^2 = n: every term has the
    # sign of eps, where F - (m'/3) sin^3 R_D(cos^2, n, 1) cancels two terms
    # that grow like log(1/d) near the axis; cos(eps)/sqrt(n) = L/hypot(L, t)
    rd = elliptic.carlson_rd(c2_e, 1.0, n)
    E_eps = m * F_eps + s_e * m_prime * ((m / 3.0) * s_e * s_e * rd + L / math.hypot(L, t))
    cross = K * E_eps - K_minus_E * F_eps
    # the paper's d < r factor 1 + sqrt(1-n) is 2/(d+1), and its sign flips
    # of the eps terms are carried by sin(eps) < 0
    return 0.25 - ((2.0 / (d + 1.0)) * s_mn * K + cross) / _TWO_PI, _ELLIPTIC, _ERR_ELLIPTIC


def omega_circ(cfg: CanonicalConfig) -> SolidAngle:
    """End disc of radius r at axial distance L, source at radial distance d.

    At and outside the rim (d >= r) it is the near face plus the shell,
    _face + _shell, as omega_total sums that pair below the base; that sum
    keeps a small disc accurate relative to its value. Inside the rim the
    first/second-kind form is the route. Exact limits (L = 0, d = 0, d = r)
    take their closed expressions.
    """
    return SolidAngle(*_disc(*_units(cfg.L, cfg.r, cfg.d)))


def _face(h: float, d: float, t: float) -> tuple[float, Method, float]:
    """(value, method, err) of CIRC(h) - CYL0(h) at r = 1 for d >= 1, t = d - 1.

    The disc's third-kind form 2 pi CIRC = sqrt(1-m/n) [sqrt(1-n) Pi(n; m)
    - K(m)] and the shell form share Pi(n; m) = K + (n/3) R_J(0, m', 1, 1-n),
    and 1 - sqrt(1-n) = 2/(d+1), so the complete integrals cancel exactly:

        2 pi (CIRC - CYL0) / sqrt(1-m/n)
            = sqrt(1-n) (n/3) sin^3(gamma_o) R_J(cos^2, y, 1, sqrt(1-n))
              - 2/(d+1) sin(gamma_o) R_F(cos^2, y, 1)

    one R_F and one R_J, both at gamma_o.
    """
    if h == 0.0:
        # CYL0(0) = 0, and CIRC(0) is 0 outside the rim and 1/4 on it
        return (0.0 if t > 0.0 else 0.25), _SPECIAL, 0.0
    if t == 0.0:
        # CIRC(h) - 1/4 at d = r = 1, h > 0: both complete integrals collapse
        # onto m1 = 4 / (h^2 + 4). Work with the complement (h/hypot)^2 so K
        # stays finite when m1 rounds to 1. h = inf (h/r overflowed) is the
        # far limit m1 = 0. Of m1 itself K needs only the AGM's stop test,
        # for which 1 - m1c serves.
        sqrt_m1c = h / math.hypot(h, 2.0) if h < _INF else 1.0
        m1c = sqrt_m1c * sqrt_m1c
        # where m1c underflows, sqrt_m1c K falls past the last digit of 1/4
        gap = sqrt_m1c * elliptic._complete_pair(1.0 - m1c, m1c)[0] / _TWO_PI if m1c > 0.0 else 0.0
        return -gap, _SPECIAL, _ERR_SPECIAL
    n, _, s_n, s_mn, s_g, c2_g, y_g = _gamma_params(h, d, t)
    third = s_g * s_g * s_g * elliptic.carlson_rj(c2_g, y_g, 1.0, s_n)
    first = s_g * elliptic.carlson_rf(c2_g, y_g, 1.0)
    face = s_mn * (s_n * (n / 3.0) * third - (2.0 / (d + 1.0)) * first) / _TWO_PI
    return face, _ELLIPTIC, _ERR_ELLIPTIC


def omega_circ_third_kind(cfg: CanonicalConfig) -> SolidAngle:
    """Cross-check path for omega_circ using complete third-kind integrals.

    Regular region only: L > 0, 0 < d != r (the limits are owned by
    omega_circ; on the axis params_from_geometry raises OnAxisError).
    K(m) = R_F(0, m', 1) and Pi(n; m) = K(m) + (n/3) R_J(0, m', 1, 1-n):
    one R_F and one R_J.
    """
    L, r, d = cfg.L, cfg.r, cfg.d
    if L <= 0.0:
        raise DomainError(f"omega_circ_third_kind requires L > 0; got L={L!r}")
    if d == r:
        raise DivergentError(
            "complete Pi(n; m) diverges at n = 1 (d = r); use omega_circ's equal-distance form"
        )
    p = params_from_geometry(cfg)
    K = elliptic.carlson_rf(0.0, p.m_prime, 1.0)
    Pi = K + (p.n / 3.0) * elliptic.carlson_rj(0.0, p.m_prime, 1.0, p.one_minus_n)
    u = math.copysign(p.sqrt_one_minus_n, d - r)
    value = (0.5 if d < r else 0.0) + p.sqrt_one_minus_m_over_n * (u * Pi - K) / _TWO_PI
    return SolidAngle(value, Method.ELLIPTIC, _ERR_ELLIPTIC)


def omega_circ_macklin(cfg: CanonicalConfig) -> SolidAngle:
    """Second cross-check path for omega_circ (first/second kind throughout).

    With alpha = d/L, beta = r/L and m' = 1 - m:

        4 pi omega = 2 pi + 2 [K(m) - E(m)] [F(theta|m') + F(psi|m')]
                   - 2 K(m) { E(theta|m') + E(psi|m')
                              + 2 beta / (sqrt(1+(alpha+beta)^2)
                                          (beta + sqrt(1+alpha^2))) }

    where sin(theta) = sqrt(1+(alpha+beta)^2) / (beta + sqrt(1+alpha^2)) and
    sin(psi) = (sqrt(1+alpha^2) - beta) / sqrt(1+(alpha-beta)^2). The angles
    are never formed: each amplitude enters as its exact parts sin, cos^2 and
    1 - m' sin^2, its F and E share one R_F(cos^2, y, 1), and K and E share
    R_F(0, m', 1), so the form takes 3 R_F + 3 R_D. psi < 0 (source closer
    than the disc rim is wide) enters through the odd extension
    F(-psi) = -F(psi). d = r is rejected per contract; callers are routed to
    omega_circ's equal-distance form.
    """
    L, r, d = cfg.L, cfg.r, cfg.d
    if L <= 0.0:
        raise DomainError(f"omega_circ_macklin requires L > 0; got L={L!r}")
    if d == r:
        raise DivergentError(
            "omega_circ_macklin rejects d = r; use omega_circ's equal-distance form"
        )
    alpha, beta = d / L, r / L
    u = math.hypot(1.0, alpha)
    A = math.hypot(1.0, alpha + beta)
    B = beta + u
    C = math.hypot(1.0, alpha - beta)
    m_prime = (C / A) * (C / A)

    # cos^2 and y = 1 - m' sin^2 of both amplitudes are g_minus or g_plus over
    # a square, with g_minus = 2 beta / (sqrt(1+alpha^2) + alpha) and g_plus =
    # 2 beta (sqrt(1+alpha^2) + alpha): B^2 - A^2 = g_minus, B^2 - C^2 = g_plus,
    # A^2 - (sqrt(1+a^2)-beta)^2 = g_plus. Each is formed as a product of
    # ratios at most 1, so no square overflows at small L/r.
    w, v = 2.0 * beta, u + alpha

    K = elliptic.carlson_rf(0.0, m_prime, 1.0)
    E = K - ((1.0 - m_prime) / 3.0) * elliptic.carlson_rd(0.0, m_prime, 1.0)

    # C sin(psi) = sqrt(1+alpha^2) - beta, formed as
    # (1 + (alpha-beta)(alpha+beta)) / (sqrt(1+alpha^2) + beta)
    q = 1.0 / (u + beta) + (alpha - beta) * ((alpha + beta) / (u + beta))
    # (sign, sin, cos^2, y) of theta and psi
    amplitudes = (
        (1.0, min(1.0, A / B), (w / B) / v / B, (w / B) * (v / B)),
        (math.copysign(1.0, q), min(1.0, abs(q) / C), (w / C) / v / C, (w / A) * (v / A)),
    )
    F_sum = E_sum = 0.0
    for sign, s, c2, y in amplitudes:
        F = s * elliptic.carlson_rf(c2, y, 1.0)
        F_sum += sign * F
        E_sum += sign * (F - (m_prime / 3.0) * s * s * s * elliptic.carlson_rd(c2, y, 1.0))

    tail = (w / A) / B
    omega_4pi = _TWO_PI + 2.0 * (K - E) * F_sum - 2.0 * K * (E_sum + tail)
    return SolidAngle(omega_4pi / (2.0 * _TWO_PI), Method.ELLIPTIC, _ERR_ELLIPTIC)


def omega_total(cyl: CylinderSpec, src: SourcePoint) -> SolidAngle:
    """Whole-surface solid angle at an arbitrary source position.

    Splits the position into regions with the float case split that
    geometry.decompose also uses, and sums the canonical terms in units of
    r, each on its one route (exact limit or elliptic form), as plain
    floats: no Term and no per-term object is built, only the result. Below
    the base outside the shell, the terms -CYL0(h) + CIRC(h) are evaluated
    as one near-face term whose complete integrals cancel in closed form, so
    a 2-term or 3-term total costs 2 R_F + 2 R_J. The tag is ELLIPTIC if
    any term took an elliptic form, and SPECIAL otherwise.
    """
    region, a, b = _split(cyl.L, cyl.r, src.d, src.z)
    if region == "const":
        return SolidAngle(a, _SPECIAL, 0.0)
    a, d, t = _units(a, cyl.r, src.d)
    if region == "disc":
        value, tag, err = _disc(a, d, t)
        return SolidAngle(0.0 + value, tag, 0.0 + err)
    b /= cyl.r
    v1, m1, e1 = _shell(a, d, t)
    v2, m2, e2 = _shell(b, d, t) if region == "shells" else _face(b, d, t)
    # summed from 0.0 in term order, as a loop over the terms would
    return SolidAngle(0.0 + v1 + v2, m2 if m1 is _SPECIAL else m1, 0.0 + e1 + e2)
