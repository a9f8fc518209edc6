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
(Marsaglia, Comput. Math. Appl. 3 (1977) 321) between two boxes in
(cos theta, phi), both symmetric about phi = 0 and both from one rule
(_box). Outside the cylinder's bounding band in polar angle and azimuth,
widened past the exact test's own rounding and clipped to [-1, 1] x
[-pi, pi] (_band), every ray misses; inside the core, narrowed past that
rounding (_core), every ray hits.
Only the frame between them, cut into four rectangles, is tested.
Isotropic rays are uniform on the (cos theta, phi) rectangle, so a
call's n rays fall into the cells by a multinomial law over their areas,
uniformly within each. A call draws every cell's count at once, one
multinomial draw from the stream of its key at counter 0, and adds the
core's count to the hits. It numbers the tested rays in cell order and
cuts them into 2^15-ray slices; each slice is a Philox stream of its own,
draws its rays uniformly on their cells and is tested once. So the hit
count has the distribution it has when all n rays are drawn and tested,
and the call's cost follows its tested rays, not n. A source inside the
cylinder or on its wall has a band of the whole sphere. Away from the
wall its core is all but about 1e-9 of the sphere; on the wall, where
V2 = 2 cos phi vanishes at |phi| = pi/2, a quarter of it. The integer hit
counts of the slices are summed, so the estimate is bit-identical however
the slices are run: in one contiguous run per worker, on a pool of one
thread per usable CPU for a call with two or more full slices (and two
CPUs to share them), in the caller's thread otherwise. The exact test
works in its thread's scratch arrays, not fresh temporaries (_workspace).

The three quadratures share one integrator, _run_quad: adaptive
Gauss-Kronrod 7/15 after QUADPACK's QAG, with the qk15 nodes and weights
written out here, so this module (and the CLI) needs NumPy alone, and only
for the ray caster.
"""

from __future__ import annotations

import heapq
import math
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import accumulate

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
_SLICE = 1 << 15  # tested rays per Philox stream and exact-test call, a multiple of 16
_EPS = sys.float_info.epsilon
_SLACK = 1e-9  # absolute widening of the band, and narrowing of the core, in cos(theta) and phi
# the core's half-width in azimuth as shares of the band's; the whole of it only for d < r
_CORE_FRACTIONS = (0.25, 0.5, 0.7, 0.85, 0.95, 1.0)


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
    """(15-point Kronrod value, |Kronrod - 7-point Gauss value|) of f on [a, b]."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    k, g = _GK15_CENTRE[0] * fc, _GK15_CENTRE[1] * fc
    for x, wk, wg in _GK15:
        pair = f(c - h * x) + f(c + h * x)
        k, g = k + wk * pair, g + wg * pair
    return k * h, abs((k - g) * h)


def _run_quad(f, a: float, b: float, epsabs: float, epsrel: float, what: str) -> float:
    """Integral of f over [a, b] by adaptive Gauss-Kronrod 7/15 quadrature.

    QUADPACK's QAG policy (Piessens et al., QUADPACK, 1983): a heap holds
    the panels, and the one with the largest error estimate, |Kronrod -
    Gauss| on it, is bisected, until the summed estimate is at most
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


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker_pool() -> ThreadPoolExecutor:
    """The process's ray-casting workers, one thread per usable CPU, started on first use.

    mc_total uses it only for a call with two or more full slices of tested
    rays, giving each worker one contiguous run of slices; a smaller call
    runs in the caller's thread. Each pool thread keeps its workspace
    (about 1.6 MB) for its life.
    The threads outlive a call: threads started per call can begin before
    the last call's threads have handed back their malloc arenas, get fresh
    arenas, and leave another worker's draw buffer and scratch resident,
    which raises the process's peak RSS.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_usable_cpus())
        return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


_local = threading.local()


def _workspace(n: int) -> tuple[np.ndarray, ...]:
    """This thread's work arrays: a float draw buffer, then four float and two bool scratch arrays cut to length n.

    _run_hits draws a slice's rays, cos(theta) and then phi, into the
    draw buffer, 2 * _SLICE long (512 kB), and _hit_mask works in the
    scratch arrays, _SLICE long (about 1.1 MB together). All are allocated
    on a thread's first use, replaced only when a longer n needs longer
    scratch, and kept for the thread's life, so that neither the draws nor
    the exact test allocate arrays per slice.
    """
    arrays = getattr(_local, "arrays", None)
    if arrays is None or len(arrays[1]) < n:
        size = max(n, _SLICE)
        floats, bools = (np.empty(size) for _ in range(4)), (np.empty(size, bool) for _ in range(2))
        arrays = _local.arrays = (np.empty(2 * _SLICE), *floats, *bools)
    return (arrays[0], *(buf[:n] for buf in arrays[1:]))


def _stream(key: int, counter: int) -> np.random.Generator:
    """This thread's generator, set to the stream of Philox(key) started at counter * 2^128.

    That is the stream Philox(key).jumped(counter) gives. Each thread keeps
    one Philox and sets its key and counter: a new Philox costs several
    times as much, most of it seeding the key it is then given.
    """
    if not hasattr(_local, "bits"):
        _local.bits = np.random.Philox(key=0)
        _local.gen, _local.state = np.random.Generator(_local.bits), _local.bits.state
    _local.state["state"]["key"][:] = key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64
    _local.state["state"]["counter"][:] = 0, 0, counter, 0
    _local.bits.state = _local.state
    return _local.gen


def _hit_mask(cos_t: np.ndarray, phi: np.ndarray, L: float, d: float, z: float) -> np.ndarray:
    """Which rays hit: a bool view of this thread's scratch, valid until its next call.

    Units of r, c = d^2 - 1, phi the ray's azimuth from the line that joins
    the source to the axis, as the paper measures it. A ray runs inside the
    infinite shell over the horizontal distances [V1, V2] = [max(0, d cos
    phi - s), d cos phi + s], s = sqrt(cos^2 phi - c sin^2 phi), which is
    NaN where the azimuth misses the shell. It hits iff V2 > 0, it is at or
    above the base at the far end of [V1, V2] for z < 0 and the near end
    for z > 0 (z sin + V cos >= 0), and at or below the top at the near
    end for z < L and the far end for z > L ((L - z) sin - V cos >= 0).
    In the base plane the first test reads cos(theta) >= 0, in the top
    plane the second cos(theta) <= 0: a hit needs a point past the source.
    A vertical ray on the wall line (c = 0) runs along the wall, so its V2
    is infinite whatever its azimuth.
    """
    f0, f1, f2, f3, hit, ok = _workspace(len(cos_t))[1:]
    c = d * d - 1.0  # radial quadratic constant term (py = 0 by symmetry)
    with np.errstate(invalid="ignore"):
        cos_phi = np.cos(phi, out=f1)
        sin2 = np.square(np.sin(phi, out=f0), out=f0)
        s = np.sqrt(np.subtract(np.square(cos_phi, out=f2), np.multiply(c, sin2, out=f0), out=f0), out=f0)
        near = np.multiply(d, cos_phi, out=f1)
        v2 = np.add(near, s, out=f2)
        v1 = np.maximum(np.subtract(near, s, out=f1), 0.0, out=f1)
        sin_t = np.sqrt(np.subtract(1.0, np.square(cos_t, out=f0), out=f0), out=f0)
    if c == 0.0:
        np.copyto(v2, np.inf, where=np.equal(sin_t, 0.0, out=ok))
    np.greater(v2, 0.0, out=hit)

    # V cos(theta), in place, for the V each height test takes: the far end
    # below the base and the near end above it; the near end below the top
    # and the far end above it
    low = v2 if z < 0.0 else v1
    high = v1 if z < L else v2
    np.multiply(low, cos_t, out=low)
    if high is not low:
        np.multiply(high, cos_t, out=high)
    # z sin + V cos >= 0 exactly when V cos >= -z sin, both sides rounded alike
    if z == 0.0:
        np.greater_equal(cos_t, 0.0, out=ok)
    else:
        np.greater_equal(low, np.multiply(-z, sin_t, out=f3), out=ok)
    np.logical_and(hit, ok, out=hit)
    if z == L:
        np.less_equal(cos_t, 0.0, out=ok)
    else:
        # L - z overflows only for z < 0 < L, where the largest double decides alike
        np.greater_equal(np.multiply(min(L - z, sys.float_info.max), sin_t, out=f3), high, out=ok)
    return np.logical_and(hit, ok, out=hit)


def _slice_hits(cos_t: np.ndarray, phi: np.ndarray, L: float, d: float, z: float) -> int:
    return int(np.count_nonzero(_hit_mask(cos_t, phi, L, d, z)))


def _share(lo: float, hi: float, phi_lo: float, phi_hi: float) -> float:
    # a (cos theta, phi) box's share of the area of [-1, 1] x [-pi, pi]
    return (hi - lo) / 2.0 * ((phi_hi - phi_lo) / _TWO_PI)


def _box(L: float, z: float, a: float, b: float, half: float, slack: float) -> tuple[float, float, float, float]:
    """(cos lo, cos hi, phi lo, phi hi): the rays with |phi| <= half whose height tests hold at a or b, moved out by slack.

    Units of r, a <= b horizontal distances from the source. A ray is at
    the height z + u cot(theta) at the horizontal distance u, so it is at
    or above the base there iff cos(theta) >= cos atan2(u, -z), and at or
    below the top iff cos(theta) <= cos atan2(u, L - z). The box holds the
    rays above the base at a for z > 0 and at b otherwise, and below the
    top at a for z < L and at b otherwise: the ends of [a, b] at which each
    set of cos(theta) is widest. Each of the four bounds is then moved out
    by slack, or in by -slack for slack < 0; the box is symmetric about
    phi = 0 bit for bit.
    """
    lo = math.cos(math.atan2(a if z > 0.0 else b, -z)) - slack
    hi = math.cos(math.atan2(a if z < L else b, L - z)) + slack
    return lo, hi, -(half + slack), half + slack


def _band(L: float, d: float, z: float) -> tuple[float, float, float, float]:
    """(cos lo, cos hi, phi lo, phi hi): the box outside which _slice_hits finds no hit.

    Units of r. A hit point lies at a horizontal distance u in
    [max(0, d - 1), d + 1] from the source and at a height z + u cot(theta)
    in [0, L]; for d > 1 its azimuth also lies within atan(1/sqrt(d^2 - 1))
    = asin(1/d) of phi = 0. Above the base at some such u means above it at
    the range's near end for z > 0 and its far end otherwise, and likewise
    below the top, so _box with that range and half-width bounds every hit.
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

    The band is then clipped to [-1, 1] x [-pi, pi]. A source inside the
    cylinder or on its wall has the half-width pi, so it gets that whole
    rectangle, whose _share is 1 exactly.
    """
    c = d * d - 1.0
    du = 16.0 * _EPS * (1.0 + d)
    half = math.atan2(1.0, math.sqrt(c)) if c > 0.0 else math.pi
    lo, hi, phi_lo, phi_hi = _box(L, z, max(0.0, d - 1.0 - du), d + 1.0 + du, half, _SLACK)
    return max(lo, -1.0), min(hi, 1.0), max(phi_lo, -math.pi), min(phi_hi, math.pi)


def _core(L: float, d: float, z: float, band: tuple[float, ...]) -> tuple[float, float, float, float] | None:
    """(cos lo, cos hi, phi lo, phi hi): a box inside _band's where _slice_hits finds only hits; or None.

    band is _band(L, d, z), which the caller has at hand. Units of r,
    s^2 = 1 - d^2 sin^2 phi. For d > 1, inside the tangent, V1 = d cos phi
    - s rises and V2 = d cos phi + s falls as |phi| grows: their slopes are
    d sin|phi| (d cos phi / s -+ 1), and d cos phi >= s there, since
    (d cos phi)^2 - s^2 = d^2 - 1. For d <= 1, s >= |d cos phi|, so V1 = 0
    and V2 falls on [0, pi], with slope -d sin|phi| (1 + d cos phi / s). So
    on |phi| <= phi_in every ray's [V1, V2] contains [a, b] = [V1(phi_in),
    V2(phi_in)]. Then b > 0 makes V2 > 0, and each height test of _hit_mask
    holds at its V if it holds at a or b: the base test z sin + V cos >= 0
    takes V2 >= b for z < 0, where it needs cos(theta) > 0 and grows with
    V, and V1 <= a for z > 0, where it holds for cos(theta) >= 0 and
    otherwise falls with V; the top test likewise takes V1 <= a below the
    top and V2 >= b from the top plane up. Those are the ends _box takes,
    so every ray of _box(L, z, a, b, phi_in, 0) hits. In the base plane its
    lower bound reads cos(theta) >= cos(pi/2) > 0, and in the top plane its
    upper bound cos(theta) <= cos(pi/2), which the margin below takes under
    0. The box is narrowed inside the rounding of _slice_hits by _band's
    margins, turned inward:

    - a up and b down by 16 eps (1 + d). The V1, V2 that _slice_hits
      computes for a ray of the box, and the a, b computed here, are each
      within a few eps (1 + d) of their exact values, as _band argues, and
      here also next to the tangent: phi_in is at most 0.95 asin(1/d), so
      c tan^2 phi <= 0.95^2 (tan is convex) and s^2 >= (1 - 0.95^2) cos^2
      phi, which keeps s good to a few eps.
    - cos(theta) and phi by 1e-9, as in _band.

    phi_in is each of _CORE_FRACTIONS times the band's half-width, asin(1/d)
    for d > 1 and pi otherwise, and the box of largest area is kept. The
    last fraction, the whole half-width, is tried only for d < 1, where
    c < 0 and s^2 = cos^2 phi - c sin^2 phi is a sum, good to a few eps
    everywhere. A fraction gives no box where s^2 or b is not positive
    (for d from 1.3e154 on, c = d^2 - 1 is inf and s^2 is -inf), or where
    the box is empty or not strictly inside _band's: from d of about 1e9
    on, phi_in is below 1e-9 and every fraction's box is empty.
    """
    c_lo, c_hi, phi_lo, phi_hi = band
    c = d * d - 1.0
    du = 16.0 * _EPS * (1.0 + d)
    half = math.atan2(1.0, math.sqrt(c)) if c > 0.0 else math.pi
    best, area = None, 0.0
    for f in _CORE_FRACTIONS if c < 0.0 else _CORE_FRACTIONS[:-1]:
        phi = f * half
        cos_phi, sin_phi = math.cos(phi), math.sin(phi)
        s2 = cos_phi * cos_phi - c * (sin_phi * sin_phi)
        if not s2 > 0.0:
            continue
        s = math.sqrt(s2)
        a, b = max(0.0, d * cos_phi - s) + du, d * cos_phi + s - du
        box = k_lo, k_hi, q_lo, q_hi = _box(L, z, a, b, phi, -_SLACK)
        w = _share(*box)
        if b > 0.0 and c_lo < k_lo < k_hi < c_hi and phi_lo < q_lo < q_hi < phi_hi and w > area:
            best, area = box, w
    return best


def _cells(L: float, d: float, z: float) -> tuple[list[float], list[tuple[float, float, float, float]]]:
    """(shares, boxes): the area shares of a call's count draw but the miss's, and the tested cells' boxes.

    shares starts with _core's box's, 0.0 where there is no core, and then
    gives each tested cell's, all from _share. The tested cells, as
    (cos lo, cos hi, phi lo, phi hi) boxes, are the frame between _core's
    box and _band's as four rectangles: the strips below and above the
    core across the band's width, then the strips either side of it in
    phi; without a core, the band's box alone.
    """
    band = _band(L, d, z)
    core = _core(L, d, z, band)
    if core is None:
        return [0.0, _share(*band)], [band]
    c_lo, c_hi, phi_lo, phi_hi = band
    k_lo, k_hi, q_lo, q_hi = core
    boxes = [(c_lo, k_lo, phi_lo, phi_hi), (k_hi, c_hi, phi_lo, phi_hi), (k_lo, k_hi, phi_lo, q_lo), (k_lo, k_hi, q_hi, phi_hi)]
    return [_share(*box) for box in (core, *boxes)], boxes


def _run_hits(
    key: int, slices: range, boxes: list[tuple[float, float, float, float]], ends: list[int],
    L: float, d: float, z: float,
) -> int:
    """Hits among the tested rays of the given slices of a call with Philox key `key`.

    The tested rays are numbered in cell order: boxes[i] holds the rays
    from ends[i - 1] (0 for i = 0) up to ends[i]. Slice j holds the rays
    from j * _SLICE up to the smaller of (j + 1) * _SLICE and ends[-1]. Its
    stream is Philox(key) started at counter (j + 1) * 2^128, the stream
    Philox(key).jumped(j + 1) gives (_stream). It draws its m cos(theta)
    uniforms, then its m phi uniforms, into this thread's draw buffer
    (_workspace), maps each cell's part of them onto the cell's box in
    place as lo + (hi - lo) u, which is what Generator.uniform computes, and
    hands the slice to the exact test once. A ray's verdict depends only on
    its slice's draws, so the count is the sum of the slices' counts
    however they are grouped into runs.
    """
    draws = _workspace(0)[0]
    starts = [0, *ends[:-1]]
    hits = 0
    for j in slices:
        first = j * _SLICE
        m = min(_SLICE, ends[-1] - first)
        _stream(key, j + 1).random(out=draws[:2 * m])
        cos_t, phi = draws[:m], draws[m:2 * m]
        for (lo, hi, phi_lo, phi_hi), a, b in zip(boxes, starts, ends):
            a, b = max(a - first, 0), min(b - first, m)
            if a < b:
                for u, x0, x1 in ((cos_t[a:b], lo, hi), (phi[a:b], phi_lo, phi_hi)):
                    np.add(x0, np.multiply(u, x1 - x0, out=u), out=u)
        hits += _slice_hits(cos_t, phi, L, d, z)
    return hits


def mc_total(cyl: CylinderSpec, src: SourcePoint, samples: int, seed: int = 0) -> McEstimate:
    """Isotropic ray caster for the whole closed surface.

    Directions are uniform on the sphere (uniform cos(theta), uniform
    azimuth phi in [-pi, pi], 0 toward the axis). A ray hits iff a point of it past the source lies on or inside
    the closed cylinder, which _hit_mask decides from the ray's azimuth and
    polar angle, with no ray parameter and no division. The seed is the
    Philox key, which takes any integer in [0, 2^128); the call's count
    draw is the key's stream at counter 0 and its tested slice j the stream
    at counter (j + 1) * 2^128 (the key's stream jumped j + 1 times), so a
    fixed seed gives a bit-identical estimate regardless of how the slices
    are scheduled, and distinct seeds give distinct streams. samples lies
    in [1, 2^63), the range the multinomial count draw takes.
    Like every oracle here it works in units of r (_in_units_of_r), so a
    uniform scale by a power of two leaves the estimate bit-identical.

    Only the rays whose verdict is in doubt are drawn and tested. _band
    bounds the hits to a rectangle in (cos theta, phi), widened past the
    exact test's rounding and clipped to [-1, 1] x [-pi, pi]; _core gives
    a box inside it, narrowed past that rounding, on which every ray hits;
    the frame between the two is cut into four rectangles, and _cells
    gives each box's area share (_share). Isotropic directions are uniform
    on [-1, 1] x [-pi, pi], so the call's rays fall into the core, the
    rectangles and the rest of the sphere by a multinomial law over their
    areas, uniformly in each, and the rays outside the band miss the exact
    test. The call draws all these counts in one multinomial draw, the miss
    share being max(0, 1 - the others' sum), counts the core's rays as hits
    and draws and tests only the rectangles' rays, 2^15 to a slice
    (_run_hits). So the hit count has the law it has when every ray is
    drawn and tested, and a call's cost follows the rays it tests: over
    the benchmark's configurations, the core holds a median 80-88 % of the
    band, and a median call at 10^7 rays tests 4k-9k rays, one slice.

    The call counts one worker per full slice of its tested rays, at most
    one per usable CPU, and cuts its slices into one contiguous run per
    worker. With fewer than two workers, the one run goes through map in
    the caller's thread; with two or more, the runs go to one process-wide
    pool of one thread per CPU (_worker_pool), whose threads share the CPUs
    while NumPy's draws and ufuncs release the GIL. A few thousand rays do
    not pay for the pool: the exact test makes about 25 small NumPy calls,
    and two workers pass the GIL back and forth around them. The integer
    hit counts are summed, so the result depends on neither the dispatch
    nor the worker count. Each thread keeps its workspace (_workspace: the
    draw buffer, 512 kB, and the exact test's scratch, about 1.1 MB) for
    its life: about 1.6 MB for each thread that has run slices, on top of
    the interpreter and NumPy.

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
    counts = _stream(seed, 0).multinomial(samples, [*shares, max(0.0, 1.0 - sum(shares))]).tolist()
    ends = list(accumulate(counts[1:-1]))
    slices, workers = -(-ends[-1] // _SLICE), min(ends[-1] // _SLICE, _usable_cpus())
    # one contiguous run of slices per worker
    parts = max(workers, 1)
    cuts = [slices * i // parts for i in range(parts + 1)]
    run = partial(_run_hits, seed, boxes=boxes, ends=ends, L=L, d=d, z=z)
    hits = counts[0] + sum((_worker_pool().map if workers > 1 else map)(run, map(range, cuts, cuts[1:])))

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
