"""Independent reference computations: quadrature and ray casting.

Everything in this module recomputes solid angles from first principles and
shares no arithmetic with the closed forms in solid_angle; it exists so the
closed forms can be checked against implementations that cannot fail the same
way. Production code must never call into here; consumers are the test suite
and the CLI verify/compute --method={quadrature,montecarlo} paths.

Every oracle works in units of r. One helper (_in_units_of_r) divides the
lengths by r, taking d - r before it divides, and raises DomainError, naming
the ratios, where one overflows; the quadratures then run at r = 1. So a
uniform scale of the input leaves an oracle's work the same: bit for bit by
a power of two, and to an ulp in each ratio otherwise.

Quadrature forms for the lateral surface (source in the base plane, d >= r):

  phi form:    omega = L/(2 pi) integral_0^phi_o dphi / sqrt(L^2 + rho^2),
               rho(phi) = d cos(phi) - sqrt(r^2 - d^2 sin^2 phi)
  gamma form:  omega = L/(2 pi) integral_gamma_o^{pi/2} dgamma
               [(d^2-r^2)/rho^2 - 1] / sqrt(L^2 + rho^2),
               rho^2(gamma) = (d+r)^2 - 4 d r sin^2 gamma

with phi_o = arcsin(r/d) and gamma_o = (pi/2 + phi_o)/2. Both integrands get
an endpoint-grading substitution (phi = phi_o - u^2, gamma = pi/2 - v^2) so
the adaptive rule sees a smooth integrand at the delicate end. The gamma-form
rho^2 is evaluated as (d-r)^2 + 4 d r cos^2(gamma), which is exact and free of
cancellation near gamma = pi/2.

The disc oracle integrates over the azimuth about the source's foot, the
projected-area element's integral along each azimuth taken in closed form
(quad_disc). The Monte Carlo oracle casts isotropic rays (uniform
cos(theta), uniform azimuth phi in [-pi, pi], measured as the paper
measures it, from the line that joins the source to the axis) and tests
each against the finite cylinder from its azimuth alone: the ray runs
inside the infinite shell over the horizontal distances [V1, V2] =
[max(0, d cos phi - s), d cos phi + s], s = sqrt(cos^2 phi - c sin^2
phi), c = d^2 - 1, and it hits iff V2 > 0 and the ray is above the base
and below the top at the ends of [V1, V2] that the source's height picks.
The discriminant has no d^2-sized terms to cancel, so the tangent test is
good to a few eps at any source distance, and the test has no division.

The exact test runs only on the rays whose verdict is in doubt: a squeeze
(Marsaglia, Comput. Math. Appl. 3 (1977) 321) between boxes in (cos
theta, phi), all from one rule (_box). Outside the cylinder's bounding
band in polar angle and azimuth, widened past the exact test's own
rounding and clipped to [-1, 1] x [-pi, pi] (_band), every ray misses.
The band's half phi >= 0 is cut into 32 strips in phi, graded toward the
tangent outside the wall (_cells). In a strip the wall range [V1, V2]
moves one way as |phi| grows, so each strip has a certain box in cos
theta, taken at its outer edge and narrowed past that rounding, where
every ray hits, inside a possible box, taken at its inner edge and
widened, outside which every ray misses. Only the two cells between them,
below and above the certain box, are tested. The exact test gives a ray
at -phi the verdict at phi, bit for bit, so only phi >= 0 is drawn and
each cell counts for itself and its mirror. Isotropic rays are uniform on
the (cos theta, phi) rectangle, so a call's n rays fall into the cells by
a multinomial law over their areas, uniformly within each. A call draws
from one Philox stream, its key the seed: first every cell's count at
once, in one multinomial draw, and it adds the certain boxes' count to
the hits. It numbers the tested rays in cell order and cuts them into
2^12-ray slices; each slice, in turn, draws its rays uniformly on their
cells from the same stream and is tested once. So the hit count has the
distribution it has when all n rays are drawn and tested, and the call's
cost follows its tested rays, not n. A source inside the cylinder has a
band of the whole sphere, all but about 1e-9 of it certain; a source on
the wall, where V2 = 2 cos phi vanishes at |phi| = pi/2, the half |phi|
<= pi/2 of it, and it tests under 1 % of its rays. Every call runs in its
caller's thread, and the exact test and the boxes take [V1, V2] from one
function (_wall); the integer hit counts of the slices are summed, so the
estimate is bit-identical from run to run.

The three quadratures share one integrator, _run_quad: adaptive
Gauss-Kronrod 7/15 after QUADPACK's QAG, with the qk15 nodes and weights
written out here, so this module (and the CLI) needs NumPy alone, and only
for the ray caster.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
import threading

import numpy as np

from .errors import DomainError, OracleFailure
from .geometry import CanonicalConfig, CylinderSpec, SourcePoint, _value_type

__all__ = [
    "McEstimate",
    "quad_cyl0_phi",
    "quad_cyl0_gamma",
    "quad_disc",
    "mc_total",
    "agm_complete_first_kind",
]

_TWO_PI = 2.0 * math.pi
_SUBDIV = 10_000  # adaptive subdivision budget before declaring failure
# QUADPACK's qk15, (node x > 0, Kronrod weight, Gauss weight), the 7-point
# Gauss rule using every other node; then the two weights of the centre x = 0
_GK15 = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204, 0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238, 0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014, 0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_GK15_CENTRE = (0.209482141084727828012999174891714, 0.417959183673469387755102040816327)
_SLICE = 1 << 12  # tested rays per exact-test call
_EPS = sys.float_info.epsilon
_SLACK = 1e-9  # absolute widening of the band and the possible boxes, and narrowing of the certain boxes
_STRIPS = 32  # strips in phi, each a certain-hit box in cos(theta) between two tested cells
_STEPS = np.arange(_STRIPS + 1) / _STRIPS
_TURN = np.array(((1.0,), (-1.0,)))  # margins out at a strip's inner edge, in at its outer edge


def _in_units_of_r(
    L: float, r: float, d: float, z: float = 0.0, tol: float | None = None
) -> tuple[float, float, float, float]:
    """(L, d, z, d - r) divided by r, with d - r taken before dividing.

    Raises DomainError, naming the ratios, where one overflows. A quadrature
    passes its tol, and then also needs tol >= 1e-13 and L > 0 in units of r.
    """
    ratios = L / r, d / r, z / r
    if math.isinf(max(map(abs, ratios))):
        raise DomainError("lengths overflow in units of r: L/r = {!r}, d/r = {!r}, z/r = {!r}".format(*ratios))
    if tol is not None:
        if not tol >= 1e-13:
            raise DomainError(f"tol must be >= 1e-13; got {tol!r}")
        if ratios[0] <= 0.0:
            raise DomainError(f"quadrature oracle requires L > 0 in units of r; got L/r={ratios[0]!r}")
    return (*ratios, (d - r) / r)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """(15-point Kronrod value, error estimate) of f on [a, b].

    The estimate is the larger of |Kronrod - 7-point Gauss| and QUADPACK
    qk15's, resasc min(1, (200 |K - G| / resasc)^1.5) floored at 50 eps
    resabs, where resabs and resasc are the Kronrod integrals of |f| and
    |f - mean|: the raw difference alone reads low where neither rule
    resolves a feature of the panel.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    k, g = _GK15_CENTRE[0] * fc, _GK15_CENTRE[1] * fc
    nodes = [(_GK15_CENTRE[0], fc)]
    for x, wk, wg in _GK15:
        f1, f2 = f(c - h * x), f(c + h * x)
        k, g = k + wk * (f1 + f2), g + wg * (f1 + f2)
        nodes += (wk, f1), (wk, f2)
    raw = abs((k - g) * h)
    resabs, resasc = (abs(h) * sum(w * abs(v - shift) for w, v in nodes) for shift in (0.0, 0.5 * k))
    # min(1, x^1.5) taken before the power, which overflows for a tiny resasc
    est = resasc if 200.0 * raw >= resasc else resasc * (200.0 * raw / resasc) ** 1.5
    return k * h, max(raw, est, 50.0 * _EPS * resabs)


def _run_quad(f, a: float, b: float, epsabs: float, epsrel: float, what: str) -> float:
    """Integral of f over [a, b] by adaptive Gauss-Kronrod 7/15 quadrature.

    QUADPACK's QAG policy (Piessens et al., QUADPACK, 1983): a heap holds
    the panels, and the one with the largest _gk15 error estimate is
    bisected, until the summed estimate is at most
    max(epsabs, epsrel * |value|). After _SUBDIV bisections without that, it
    raises OracleFailure naming what. Every oracle here decides convergence
    through this one test.
    """
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val)]
    while err > max(epsabs, epsrel * abs(val)):
        if len(heap) > _SUBDIV:
            raise OracleFailure(f"{what} did not converge within {_SUBDIV} subdivisions: error estimate {err!r}")
        neg_err, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = _gk15(f, lo, mid), _gk15(f, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        val += v1 + v2 - v
        err += e1 + e2 + neg_err
    return val


def quad_cyl0_phi(cfg: CanonicalConfig, tol: float = 1e-12) -> float:
    """Lateral-surface solid angle by adaptive quadrature of the phi form.

    Requires d >= r and L > 0. The substitution phi = phi_o - u^2 grades the
    mesh toward phi_o, where rho has square-root endpoint behavior.
    """
    if cfg.d < cfg.r:
        raise DomainError(f"phi-form oracle requires d >= r; got d={cfg.d!r} < r={cfg.r!r}")
    L, d, _, _ = _in_units_of_r(cfg.L, cfg.r, cfg.d, tol=tol)
    phi_o = math.asin(min(1.0, 1.0 / d))

    def f(u: float) -> float:
        phi = phi_o - u * u
        rho = d * math.cos(phi) - math.sqrt(max(0.0, 1.0 - (d * math.sin(phi)) ** 2))
        return 2.0 * u / math.hypot(L, rho)

    # the integral is omega * 2 pi / L: scale the absolute tolerance to it,
    # but the relative one carries over unchanged
    val = _run_quad(f, 0.0, math.sqrt(phi_o), tol * _TWO_PI / L, tol, "phi-form quadrature")
    return L / _TWO_PI * val


def quad_cyl0_gamma(cfg: CanonicalConfig, tol: float = 1e-12) -> float:
    """Same quantity as quad_cyl0_phi via the gamma parametrization.

    d = r is excluded: gamma_o collapses onto pi/2 there and the bracket
    loses its meaning (the closed form owns that limit).
    """
    if cfg.d <= cfg.r:
        raise DomainError(f"gamma-form oracle requires d > r; got d={cfg.d!r}, r={cfg.r!r}")
    L, d, _, t = _in_units_of_r(cfg.L, cfg.r, cfg.d, tol=tol)
    gamma_o = (math.pi / 2 + math.asin(min(1.0, 1.0 / d))) / 2.0

    def f(v: float) -> float:
        cos_g = math.sin(v * v)  # cos(pi/2 - v^2)
        rho_sq = t * t + 4.0 * d * cos_g * cos_g
        bracket = 2.0 * (t - 2.0 * d * cos_g * cos_g) / rho_sq
        return 2.0 * v * bracket / math.sqrt(L * L + rho_sq)

    val = _run_quad(f, 0.0, math.sqrt(math.pi / 2 - gamma_o), tol * _TWO_PI / L, tol, "gamma-form quadrature")
    return L / _TWO_PI * val


def quad_disc(cfg: CanonicalConfig, tol: float = 1e-10) -> float:
    """End disc by quadrature over the azimuth psi about the source's foot.

    Units of r, c = d^2 - 1, psi measured from the line to the disc's
    centre. Along psi the disc spans the distances [lo, hi] = [max(0,
    d cos psi - q), d cos psi + q] from the foot, q = sqrt(cos^2 psi -
    c sin^2 psi), and rho = L tan t turns the projected-area element
    L rho drho dpsi / (L^2 + rho^2)^(3/2) into sin t dt dpsi, so

      omega = (2 pi)^-1 int dpsi (cos t1 - cos t2),  t1, t2 = atan2(lo, L), atan2(hi, L),

    over psi in [0, pi] inside the rim (d <= r) and [0, asin(1/d)] outside
    it, the integrand taken as 2 sin((t1 + t2)/2) sin((t2 - t1)/2), which
    does not cancel. Where d cos psi -+ q would cancel, lo outside the rim
    and hi behind the foot inside it, each is formed as +-c over the other.

    The integrand, at most 1, has its features next to an edge e: the
    tangent e = asin(1/d) outside the rim, where q has a square-root end,
    and e = pi/2 inside it, where they narrow to |d - r|/r, L/r and
    |d - r|/L as d nears r. So psi = e -+ e exp(-v), which widens each to
    a width of order 1 in v, and one quadrature over v in [0, 40] takes
    both sides of pi/2 at once, dropping at most 2 e exp(-40) of the
    integral: the far side alone can be too small a share for the error
    estimate of a quadrature of its own to hold. Requires L > 0 (the L = 0
    disc is a discontinuous limit that quadrature cannot see); raises
    OracleFailure where _run_quad does not meet tol.
    """
    L, d, _, t = _in_units_of_r(cfg.L, cfg.r, cfg.d, tol=tol)
    c = t * (d + 1.0)

    def over_psi(psi: float) -> float:
        cos_p, sin_p = math.cos(psi), math.sin(psi)
        near, q = d * cos_p, math.sqrt(max(0.0, cos_p * cos_p - c * (sin_p * sin_p)))
        lo = c / (near + q) if c > 0.0 else 0.0
        hi = near + q if near >= 0.0 else -c / (q - near)
        t1, t2 = math.atan2(lo, L), math.atan2(hi, L)
        return 2.0 * math.sin(0.5 * (t1 + t2)) * math.sin(0.5 * (t2 - t1))

    edge, sides = (math.asin(min(1.0, 1.0 / d)), (-1.0,)) if c > 0.0 else (math.pi / 2, (-1.0, 1.0))

    def f(v: float) -> float:
        x = edge * math.exp(-v)
        return x * sum(over_psi(edge + side * x) for side in sides)

    return _run_quad(f, 0.0, 40.0, tol * _TWO_PI, tol, "disc quadrature") / _TWO_PI


@_value_type
class McEstimate:
    """Ray-casting estimate of the whole-surface solid angle."""

    hit_fraction: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.hit_fraction <= 1.0:
            raise DomainError(f"hit_fraction must lie in [0, 1]; got {self.hit_fraction!r}")
        if not 0.0 <= self.std_error < math.inf or self.samples < 1:
            raise DomainError(
                f"std_error must be finite and >= 0 and samples >= 1; got {self.std_error!r}, {self.samples!r}"
            )
        if not 0 <= self.seed < 1 << 128:
            raise DomainError(f"seed must lie in [0, 2^128), the Philox key range; got {self.seed!r}")


_local = threading.local()


def _stream(key: int) -> np.random.Generator:
    """This thread's generator, set to the stream Philox(key=key) starts.

    Each thread keeps one Philox, as a new one costs several times as much,
    most of it seeding the key it is then given. Every call resets its key,
    its counter and its buffer, so the draws that follow do not depend on
    the calls before it.
    """
    if not hasattr(_local, "bits"):
        _local.bits = np.random.Philox(key=0)
        _local.gen, _local.state = np.random.Generator(_local.bits), _local.bits.state
    # the saved state keeps a fresh Philox's counter 0 and empty buffer
    _local.state["state"]["key"][:] = key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64
    _local.bits.state = _local.state
    return _local.gen


def _wall(phi, d: float):
    """(V1, V2): the horizontal distances from the source over which a ray at azimuth phi runs inside the shell.

    Units of r, c = d^2 - 1, phi a NumPy array measured from the line that
    joins the source to the axis, as the paper measures it: [V1, V2] =
    [max(0, d cos phi - s), d cos phi + s], s = sqrt(cos^2 phi - c sin^2
    phi), NaN where the azimuth misses the infinite shell. The discriminant
    has no d^2-sized terms to cancel. The exact test and the strips' boxes
    both take the range from here, so they round it alike.
    """
    c = d * d - 1.0  # radial quadratic constant term (py = 0 by symmetry)
    with np.errstate(invalid="ignore"):
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        s = np.sqrt(cos_phi * cos_phi - c * (sin_phi * sin_phi))
        near = d * cos_phi
        return np.maximum(near - s, 0.0), near + s


def _hit_mask(cos_t: np.ndarray, phi: np.ndarray, L: float, d: float, z: float) -> np.ndarray:
    """Which rays hit, as a new bool array.

    Units of r, c = d^2 - 1. A ray runs inside the infinite shell over the
    horizontal distances [V1, V2] of _wall. It hits iff V2 > 0, it is at or
    above the base at the far end of [V1, V2] for z < 0 and the near end
    for z > 0 (z sin + V cos >= 0), and at or below the top at the near
    end for z < L and the far end for z > L ((L - z) sin - V cos >= 0).
    In the base plane the first test reads cos(theta) >= 0, in the top
    plane the second cos(theta) <= 0: a hit needs a point past the source.
    A vertical ray on the wall line (c = 0) runs along the wall, so its V2
    is infinite whatever its azimuth.
    """
    v1, v2 = _wall(phi, d)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    if d * d - 1.0 == 0.0:
        v2 = np.where(sin_t == 0.0, np.inf, v2)
    # V cos(theta) for the V each height test takes: the far end below the
    # base and the near end above it; the near end below the top and the
    # far end above it
    low = (v2 if z < 0.0 else v1) * cos_t
    high = (v1 if z < L else v2) * cos_t
    # z sin + V cos >= 0 exactly when V cos >= -z sin, both sides rounded alike
    above = cos_t >= 0.0 if z == 0.0 else low >= -z * sin_t
    # L - z overflows only for z < 0 < L, where the largest double decides alike
    below = cos_t <= 0.0 if z == L else min(L - z, sys.float_info.max) * sin_t >= high
    return (v2 > 0.0) & above & below


def _slice_hits(cos_t: np.ndarray, phi: np.ndarray, L: float, d: float, z: float) -> int:
    return int(np.count_nonzero(_hit_mask(cos_t, phi, L, d, z)))


def _share(lo: float, hi: float, phi_lo: float, phi_hi: float) -> float:
    # a (cos theta, phi) box's share of the area of [-1, 1] x [-pi, pi]
    return (hi - lo) / 2.0 * ((phi_hi - phi_lo) / _TWO_PI)


def _box(L: float, z: float, a, b, slack):
    """(cos lo, cos hi): the rays whose height tests hold at a or b, each bound moved out by slack.

    Units of r, a and b the near and far horizontal distances from the
    source, floats or NumPy arrays taken element by element. A ray is at
    the height z + u cot(theta) at the horizontal distance u, so it is at
    or above the base there iff cos(theta) >= cos atan2(u, -z), and at or
    below the top iff cos(theta) <= cos atan2(u, L - z). The range holds
    the rays above the base at a for z > 0 and at b otherwise, and below
    the top at a for z < L and at b otherwise: the ends of [a, b] at which
    each set of cos(theta) is widest. Each bound is then moved out by
    slack, or in by -slack for slack < 0.
    """
    lo = np.cos(np.arctan2(a if z > 0.0 else b, -z)) - slack
    hi = np.cos(np.arctan2(a if z < L else b, L - z)) + slack
    return lo, hi


def _band(L: float, d: float, z: float) -> tuple[float, float, float, float]:
    """(cos lo, cos hi, phi lo, phi hi): the box outside which _slice_hits finds no hit.

    Units of r. A hit point lies at a horizontal distance u in
    [max(0, d - 1), d + 1] from the source and at a height z + u cot(theta)
    in [0, L]; for d >= 1 its azimuth also lies within atan2(1, sqrt(d^2 -
    1)) of phi = 0, asin(1/d) outside the wall and pi/2 on it. Above the
    base at some such u means above it at the range's near end for z > 0
    and its far end otherwise, and likewise below the top, so _box with
    that range bounds every hit's cos(theta).
    The band is widened past the rounding of _slice_hits, so that a ray
    outside it is a miss there as well:

    - u by 16 eps (1 + d). The wall distances V1, V2 = d cos phi -+ s place
      a hit to within a few eps (1 + d) in u: cos phi and sin phi are each
      good to about an ulp, so d cos phi is good to a few eps d, and head
      on s (at most sqrt(2)) is good to a few eps. Near the tangent s is
      only good to sqrt(eps) relative, but there u is sqrt(d^2 - 1), which
      lies inside [d - 1, d + 1] by far more than that.
    - cos(theta) by 1e-9. The height tests compare two products each good
      to an eps relative, and sqrt(1 - cos^2) moves the ray's cos(theta) by
      at most eps.
    - phi by 1e-9. There, s^2 >= 0 reads tan^2 phi <= 1/(d^2 - 1) with
      both sides good to a few eps relative, which is a few eps of asin(1/d)
      in angle.

    The band is then clipped to [-1, 1] x [-pi, pi]; it is symmetric about
    phi = 0 bit for bit. A source inside the cylinder has the half-width
    pi, so it gets that whole rectangle, whose _share is 1 exactly. A
    source on the wall (c = 0) has pi/2: there d cos phi and s = |cos phi|
    are exact, so V2 is 0 for |phi| >= pi/2. Vertical rays along the wall
    line are the one exception to "outside the band every ray misses":
    _hit_mask lets them hit at any azimuth, and they form a set of zero
    area, which no draw reaches.
    """
    c = d * d - 1.0
    du = 16.0 * _EPS * (1.0 + d)
    half = math.atan2(1.0, math.sqrt(c)) if c >= 0.0 else math.pi
    lo, hi = _box(L, z, max(0.0, d - 1.0 - du), d + 1.0 + du, _SLACK)
    phi = min(half + _SLACK, math.pi)
    return max(float(lo), -1.0), min(float(hi), 1.0), -phi, phi


def _cells(L: float, d: float, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(shares, boxes): the area shares of a call's count draw but the miss's, and the tested cells' boxes.

    Units of r, c = d^2 - 1, s^2 = cos^2 phi - c sin^2 phi. _hit_mask gives
    a ray at -phi the verdict at phi bit for bit, and the band is symmetric
    in phi, so only phi >= 0 is drawn: a cell's share is that of its box
    and the box's mirror, twice _share. The band's half phi >= 0 is cut
    into K = _STRIPS strips [phi_j, phi_j+1] of the half-width h, atan2(1,
    sqrt(c)) for d >= 1 and pi otherwise: graded toward the tangent for
    d >= 1, phi_j = h (1 - (1 - j/K)^2), and uniform otherwise; the last
    strip ends at the band's edge.

    In a strip the wall range [V1, V2] of _wall moves one way. For
    d >= 1, inside the tangent, V1 = d cos phi - s rises and V2 = d cos phi
    + s falls as phi grows: their slopes are d sin phi (d cos phi / s -+
    1), and d cos phi >= s there, since (d cos phi)^2 - s^2 = d^2 - 1. For
    d < 1, s >= |d cos phi|, so V1 = 0 and V2 falls on [0, pi], with slope
    -d sin phi (1 + d cos phi / s). So every ray of the strip has a [V1,
    V2] that lies inside [V1, V2] at phi_j and contains [a, b] = [V1, V2]
    at phi_j+1. The latter makes each ray hit whose cos(theta) is in
    _box(L, z, a, b, 0), where b > 0: V2 >= b > 0, and each height test
    holds at its V if it holds at a or b. The base test z sin + V cos >= 0
    takes V2 >= b for z < 0, where it needs cos(theta) > 0 and grows with
    V, and V1 <= a for z > 0, where it holds for cos(theta) >= 0 and
    otherwise falls with V; the top test likewise takes V1 <= a below the
    top and V2 >= b from the top plane up. Those are the ends _box takes.
    In the base plane its lower bound reads cos(theta) >= cos(pi/2) > 0,
    and in the top plane its upper bound cos(theta) <= cos(pi/2), which
    the margin below takes under 0. In the same way _box on [V1, V2] at
    phi_j holds every hit of the strip, as _band's box holds every hit.

    So each strip is cut in cos(theta) into a certain box, where every ray
    hits, between two tested cells, below and above it, that fill the
    possible box; outside the possible box every ray misses. Each is _box
    with _band's margins, turned in for the certain box and out for the
    possible one:

    - V1 and V2 by du = 16 eps (1 + d), and for d >= 1 by du / sqrt(1 - f^2),
      f = phi/h at the strip's outer edge moved out by 1e-9. d cos phi is
      good to a few eps d, and s^2 to a few eps cos^2 phi: inside the
      tangent both of its terms are at most cos^2 phi. For d < 1, s^2 is a
      sum and s, at most 1, is good to a few eps. For d >= 1, s = cos phi
      sqrt(1 - c tan^2 phi), and c tan^2 phi <= (tan phi / tan h)^2 <= f^2
      since tan is convex, so s, at least cos phi sqrt(1 - f^2), is good to
      a few eps cos phi / sqrt(1 - f^2). Each ray of the strip, and each
      edge, has an f no larger, so its V1 and V2 are good to a few eps (1 +
      d) / sqrt(1 - f^2), in _slice_hits and here alike: both take them
      from _wall.
    - the certain box's outer edge by 1e-9 in phi, which takes in the
      rounding of the rays mapped onto the strip (at most pi, where V2 is
      flat); a ray mapped onto a strip is never below its inner edge, since
      lo + (hi - lo) u rounds to at least lo. cos(theta) by 1e-9, as in
      _band.

    The certain box is cut to the possible box, and the possible box to the
    band's cos(theta) range. A strip has no certain box where b is not
    positive or its box is empty, and its possible box is the band's range
    where the margin is not finite: the strip next to the tangent, whose
    edge moved out lies past it, and from d = 1.3e154 on, where c is inf,
    every strip. From d of about 1e9 on, h is below 1e-9 and no strip has
    a certain box.

    shares[0] is the certain boxes' summed share and shares[1:] each tested
    cell's. boxes holds the tested cells as columns of (cos lo, cos hi, phi
    lo, phi hi), the K cells below the certain boxes and then the K above,
    in strip order; strip j's certain box lies between columns j and K + j.
    """
    c_lo, c_hi, _, edge = _band(L, d, z)
    c = d * d - 1.0
    half = math.atan2(1.0, math.sqrt(c)) if c >= 0.0 else math.pi
    phi = half * (1.0 - np.square(1.0 - _STEPS)) if c >= 0.0 else half * _STEPS
    phi[-1] = edge
    outer = np.minimum(phi[1:] + _SLACK, math.pi)
    # row 0 at the inner edges, margins turned out; row 1 at the outer
    # edges, margins turned in
    v1, v2 = _wall(np.array((phi[:-1], outer)), d)
    with np.errstate(invalid="ignore", divide="ignore"):
        du = 16.0 * _EPS * (1.0 + d)
        if c >= 0.0:
            du = du / np.sqrt(1.0 - np.square(outer / half))
        a, b = np.maximum(v1 - _TURN * du, 0.0), v2 + _TURN * du
        (p_lo, k_lo), (p_hi, k_hi) = _box(L, z, a, b, _TURN * _SLACK)
    p_lo, p_hi = np.fmax(p_lo, c_lo), np.fmin(p_hi, c_hi)
    k_lo, k_hi = np.maximum(k_lo, p_lo), np.minimum(k_hi, p_hi)
    certain = (b[1] > 0.0) & (k_lo < k_hi)
    k_lo, k_hi = np.where(certain, k_lo, p_hi), np.where(certain, k_hi, p_hi)
    boxes = np.concatenate((p_lo, k_hi, k_lo, p_hi, phi[:-1], phi[:-1], phi[1:], phi[1:])).reshape(4, 2 * _STRIPS)
    shares = 2.0 * np.concatenate(((_share(k_lo, k_hi, phi[:-1], phi[1:]).sum(),), _share(*boxes)))
    return shares, boxes


def _run_hits(gen: np.random.Generator, counts: np.ndarray, boxes: np.ndarray, L: float, d: float, z: float) -> int:
    """Hits among the tested rays of a call drawn from `gen`, counts[i] of them in the box boxes[:, i].

    The tested rays are numbered in cell order and cut into _SLICE-ray
    slices: a slice holds the next rays, up to _SLICE of them. Each slice
    in turn draws its m cos(theta) uniforms, then its m phi uniforms, from
    gen, maps them onto their cells, each cell's bounds repeated over its
    rays in the slice, as lo + (hi - lo) u, which is what Generator.uniform
    computes, and hands the slice to the exact test once. A ray's verdict
    depends only on its own draws, so the count is the sum of the slices'
    counts.
    """
    ends = np.concatenate(((0,), np.cumsum(counts)))
    total = int(ends[-1])
    # rows: cos lo, phi lo, cos width, phi width
    cells = np.concatenate((boxes[::2], boxes[1::2] - boxes[::2]))
    hits = 0
    for first in range(0, total, _SLICE):
        m = min(_SLICE, total - first)
        cut = np.minimum(np.maximum(ends, first), first + m)
        rays = np.repeat(cells, cut[1:] - cut[:-1], axis=1)
        u = gen.random(2 * m).reshape(2, m) * rays[2:] + rays[:2]
        hits += _slice_hits(u[0], u[1], L, d, z)
    return hits


def mc_total(cyl: CylinderSpec, src: SourcePoint, samples: int, seed: int = 0) -> McEstimate:
    """Isotropic ray caster for the whole closed surface.

    Directions are uniform on the sphere (uniform cos(theta), uniform
    azimuth phi in [-pi, pi], 0 toward the axis). A ray hits iff a point of
    it past the source lies on or inside the closed cylinder, which
    _hit_mask decides from the ray's azimuth and polar angle, with no ray
    parameter and no division. The seed is the Philox key, which takes any
    integer in [0, 2^128); a call draws from the one stream that key
    starts (_stream), first its counts and then its tested slices in turn,
    so a fixed seed gives a bit-identical estimate, whatever calls came
    before it in the thread, and distinct seeds give distinct streams.
    samples lies in [1, 2^63), the range the multinomial count draw takes.
    Like every oracle here it works in units of r (_in_units_of_r), so a
    uniform scale by a power of two leaves the estimate bit-identical.

    Only the rays whose verdict is in doubt are drawn and tested. _cells
    cuts the half phi >= 0 of the band, which bounds the hits, into
    _STRIPS strips in phi, and each strip in cos(theta) into a certain box,
    where every ray hits, and two tested cells around it; the exact test
    gives a ray at -phi the verdict at phi, so each cell stands for itself
    and its mirror. Isotropic directions are uniform on [-1, 1] x [-pi,
    pi], so the call's rays fall into the certain boxes, the tested cells
    and the rest of the sphere by a multinomial law over their areas,
    uniformly in each, and the rays of the rest miss the exact test. The
    call draws all these counts in one multinomial draw, the miss share
    being max(0, 1 - the others' sum), counts the certain boxes' rays as
    hits, and draws and tests only the tested cells' rays, _SLICE to a
    slice (_run_hits), from the values of the stream that follow the count
    draw. The multinomial draw reads a stopping-time number of the
    stream's values, so the values after it are uniform and independent of
    the counts. So the hit count has the law it has when every ray is
    drawn and tested, and a call's cost follows the rays it tests: 10^12
    rays from 1000 r beside the shell test about 160.

    Every call runs in its caller's thread: over the benchmark's
    configurations the certain boxes hold a median 94-97 % of the band,
    and a median 10^7-ray call tests 155-515 rays, less than one slice,
    which does not pay for handing work to other threads. Each slice's
    draws and the exact test's arrays are fresh NumPy temporaries, about
    400 kB at their peak for a full slice, freed once it is counted.

    Any finite source distance is drawn and tested like any other: from
    d = 1.3e154 r on c = d^2 - 1 is inf, so s^2 = cos^2 phi - c sin^2 phi
    is -inf, or NaN at sin phi = 0, and every ray misses without a warning.
    """
    try:
        samples, seed = operator.index(samples), operator.index(seed)
    except TypeError:
        raise DomainError(f"samples and seed must be integers; got {samples!r}, {seed!r}") from None
    if not 1 <= samples < 1 << 63:
        raise DomainError(f"samples must lie in [1, 2^63), the multinomial count range; got {samples!r}")
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed must lie in [0, 2^128), the Philox key range; got {seed!r}")
    L, d, z, _ = _in_units_of_r(cyl.L, cyl.r, src.d, src.z)

    shares, boxes = _cells(L, d, z)
    gen = _stream(seed)
    counts = gen.multinomial(samples, np.append(shares, max(0.0, 1.0 - shares.sum())))
    hits = int(counts[0]) + _run_hits(gen, counts[1:-1], boxes, L, d, z)

    p = hits / samples
    return McEstimate(
        hit_fraction=p,
        std_error=math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
        seed=seed,
    )


def agm_complete_first_kind(m: float) -> float:
    """K(m) by arithmetic-geometric mean iteration; verification use only.

    Quadratically convergent: K(m) = pi / (2 agm(1, sqrt(1-m))), m in [0, 1).
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"AGM form requires 0 <= m < 1; got {m!r}")
    a = 1.0
    b = math.sqrt(1.0 - m)
    for _ in range(64):
        if abs(a - b) <= 4.0 * sys.float_info.epsilon * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    else:
        raise OracleFailure(f"AGM failed to converge for m={m!r}")
    return math.pi / (2.0 * a)
