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

The disc oracle integrates the projected-area element L dA / rho^3 over polar
disc coordinates directly. The Monte Carlo oracle casts isotropic rays
(uniform cos(theta), uniform azimuth) and tests each against the finite
cylinder from its azimuth alone: with phi = az - pi, the ray runs inside
the infinite shell over the horizontal distances [V1, V2] = [max(0, d cos
phi - s), d cos phi + s], s = sqrt(cos^2 phi - c sin^2 phi), c = d^2 - 1,
and it hits iff V2 > 0 and the ray is above the base and below the top at
the ends of [V1, V2] that the source's height picks. The discriminant has
no d^2-sized terms to cancel, so the tangent test is good to a few eps at
any source distance, and the test has no division. Its 10^6-ray Philox
blocks are independent, each a stream of its own, and their integer hit
counts are summed, so the estimate is bit-identical however the blocks are
run: in one contiguous run per worker, on a pool of one thread per usable
CPU for a call with two or more slices of expected in-band rays (and two
blocks and two CPUs to share them), in the caller's thread otherwise. A
run draws its blocks' rays into its thread's buffers and tests them a full
slice at a time, so the blocks of a run share slices; the exact test works
in that thread's scratch arrays, not fresh temporaries (_workspace).

A block draws only the rays inside the cylinder's bounding band in polar
angle and azimuth, widened past the exact test's own rounding and clipped
to [-1, 1] x [0, 2 pi] (_band). Isotropic rays are uniform on that
(cos theta, azimuth) rectangle, so the number of a block's n rays that
land in the band is Binomial(n, w), w being the band's share of its area,
and those rays are uniform on the band. A block draws k ~ Binomial(n, w),
then k rays on the band, and tests them in cache-sized slices. A ray
outside the band is a miss of the exact test too, so the hit count has the
distribution it has when all n rays are drawn and tested. A source whose
band is the whole sphere (inside the cylinder or on its wall) has w = 1 and
draws all n rays.

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
_BLOCK = 1_000_000  # Monte Carlo rays per independent Philox stream
_SLICE = 1 << 15  # rays per intersection-test slice, a multiple of 16; expected rays per worker
_EPS = sys.float_info.epsilon
_SLACK = 1e-9  # absolute widening of the band in cos(theta) and azimuth
_PI_LO = 1.2246467991473532e-16  # pi - math.pi, rounded


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
    """End disc by brute-force double quadrature over polar disc coordinates.

    omega = (4 pi)^-1 * 2 * int_0^pi dphi int_0^1 ds  L s / R^3
    in units of r, with R^2 = L^2 + d^2 + s^2 - 2 d s cos(phi). Requires
    L > 0 (the L = 0 disc is a discontinuous limit that quadrature cannot
    see). _run_quad integrates over s at 0.1 tol inside its own integral
    over phi, and either level raises OracleFailure if it does not meet its
    tolerance.
    """
    L, d, _, _ = _in_units_of_r(cfg.L, cfg.r, cfg.d, tol=tol)
    base = L * L + d * d

    def over_s(phi: float) -> float:
        c = 2.0 * d * math.cos(phi)

        def f(s: float) -> float:
            R_sq = base + s * (s - c)
            return L * s / (R_sq * math.sqrt(R_sq))

        return _run_quad(f, 0.0, 1.0, 0.1 * tol * _TWO_PI, 0.1 * tol, "disc quadrature")

    return _run_quad(over_s, 0.0, math.pi, tol * _TWO_PI, tol, "disc quadrature") / _TWO_PI


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


def _block_pool() -> ThreadPoolExecutor:
    """The process's block workers, one thread per usable CPU, started on first use.

    mc_total uses it only for a call with two or more workers' worth of
    expected in-band rays; a smaller call runs in the caller's thread. Each
    pool thread keeps its workspace (about 2 MB) for its life.
    The threads outlive a call: threads started per call can begin before
    the last call's threads have handed back their malloc arenas, get fresh
    arenas, and leave another worker's draws resident (peak RSS 73 -> 91 MB
    in some 45-s mc_oracle benchmark runs on 2 vCPUs, when a worker held a
    whole block's draws).
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
    """This thread's work arrays: two float draw buffers, then four float and two bool scratch arrays cut to length n.

    _run_hits draws a run's cos(theta) and azimuth uniforms into the draw
    buffers, each 2 * _SLICE long (512 kB), and _hit_mask works in the
    scratch arrays, _SLICE long (about 1.1 MB together). All are allocated
    on a thread's first use, replaced only when a longer n needs longer
    scratch, and kept for the thread's life, so that neither the draws nor
    the exact test allocate arrays per slice.
    """
    arrays = getattr(_local, "arrays", None)
    if arrays is None or len(arrays[2]) < n:
        size = max(n, _SLICE)
        draws = (np.empty(2 * _SLICE) for _ in range(2))
        floats, bools = (np.empty(size) for _ in range(4)), (np.empty(size, bool) for _ in range(2))
        arrays = _local.arrays = (*draws, *floats, *bools)
    return (*arrays[:2], *(buf[:n] for buf in arrays[2:]))


def _hit_mask(cos_t: np.ndarray, az: np.ndarray, L: float, d: float, z: float) -> np.ndarray:
    """Which rays hit: a bool view of this thread's scratch, valid until its next call.

    Units of r, c = d^2 - 1. With phi = az - pi, a ray runs inside the
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
    f0, f1, f2, f3, hit, ok = _workspace(len(cos_t))[2:]
    c = d * d - 1.0  # radial quadratic constant term (py = 0 by symmetry)
    with np.errstate(invalid="ignore"):
        # phi = az - pi = head - _PI_LO, head = az - math.pi exact for az >= 1.15;
        # then cos and sin of phi to first order in _PI_LO, which keeps both
        # to an ulp next to their zeros as well
        head = np.subtract(az, math.pi, out=f0)
        cos_phi, sin_phi = np.cos(head, out=f1), np.sin(head, out=f0)
        np.multiply(_PI_LO, cos_phi, out=f2)
        np.add(cos_phi, np.multiply(_PI_LO, sin_phi, out=f3), out=cos_phi)
        sin2 = np.square(np.subtract(sin_phi, f2, out=f0), out=f0)
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


def _slice_hits(cos_t: np.ndarray, az: np.ndarray, L: float, d: float, z: float) -> int:
    return int(np.count_nonzero(_hit_mask(cos_t, az, L, d, z)))


def _band(L: float, d: float, z: float) -> tuple[float, float, float, float, float]:
    """(cos lo, cos hi, az lo, az hi, w): the box outside which _slice_hits finds no hit, and w its area share.

    Units of r. A hit point lies at a horizontal distance u in
    [max(0, d - 1), d + 1] from the source and at a height z + u cot(theta)
    in [0, L], which bounds cos(theta); for d > 1 its azimuth also lies
    within atan(1/sqrt(d^2 - 1)) = asin(1/d) of pi. The band is widened
    past the rounding of _slice_hits, so that a ray outside it is a miss
    there as well:

    - u by 16 eps (1 + d). The wall distances V1, V2 = d cos phi -+ s place
      a hit to within a few eps (1 + d) in u: cos phi and sin phi are each
      good to about an ulp, so d cos phi is good to a few eps d, and head
      on s (at most sqrt(2)) is good to a few eps. Near the tangent s is
      only good to sqrt(eps) relative, but there u is sqrt(d^2 - 1), which
      lies inside [d - 1, d + 1] by far more than that.
    - cos(theta) by 1e-9. The height tests compare two products each good
      to an eps relative, and sqrt(1 - cos^2) moves the ray's cos(theta) by
      at most eps.
    - the azimuth by 1e-9. There, s^2 >= 0 reads tan^2 phi <= 1/(d^2 - 1)
      with both sides good to a few eps relative, which is a few eps of
      asin(1/d) in angle.

    The band is then clipped to [-1, 1] x [0, 2 pi], and w is its share of
    that rectangle's area. A source inside the cylinder or on its wall gets
    the whole rectangle with w = 1 exactly: its half-width in azimuth is pi,
    and pi -+ pi is exactly 0 and 2 pi.
    """
    c = d * d - 1.0
    du = 16.0 * _EPS * (1.0 + d)
    u_min, u_max = max(0.0, d - 1.0 - du), d + 1.0 + du
    # cos(theta) of the steepest ray down to the base and up to the top
    cos_lo = math.cos(math.atan2(u_min if z > 0.0 else u_max, -z)) - _SLACK
    cos_hi = math.cos(math.atan2(u_min if z < L else u_max, L - z)) + _SLACK
    half = math.atan2(1.0, math.sqrt(c)) + _SLACK if c > 0.0 else math.pi
    c_lo, c_hi = max(cos_lo, -1.0), min(cos_hi, 1.0)
    a_lo, a_hi = max(math.pi - half, 0.0), min(math.pi + half, _TWO_PI)
    return c_lo, c_hi, a_lo, a_hi, (c_hi - c_lo) / 2.0 * ((a_hi - a_lo) / _TWO_PI)


def _run_hits(key: int, first: int, sizes: list[int], L: float, d: float, z: float) -> int:
    """Hits among the isotropic rays of Philox blocks first, first + 1, ..., of sizes[i] rays each.

    Block b's stream is Philox(key) started at counter b * 2^128, the
    stream Philox(key).jumped(b) gives. Each block draws k ~ Binomial(n, w)
    for the rays that land in _band's box, then those k rays uniformly on
    it in chunks of up to _SLICE: cos(theta) of a chunk, then its azimuth.
    The draws go, as uniforms on [0, 1), into this thread's draw buffers
    (_workspace) one block after another; each full slice is scaled to the
    box as lo + (hi - lo) u, which is what Generator.uniform computes, and
    tested, and so is the part slice left at the end. A chunk that crosses
    the end of a slice spills into the buffers' second half, which moves
    to the front once the slice is tested. A ray's verdict depends only on
    its own draws, so the count is the sum of the blocks' counts however
    they are grouped into runs.
    """
    c_lo, c_hi, a_lo, a_hi, w = _band(L, d, z)
    cos_u, az_u = _workspace(0)[:2]

    def test(m: int) -> int:
        cos_t = np.add(c_lo, np.multiply(cos_u[:m], c_hi - c_lo, out=cos_u[:m]), out=cos_u[:m])
        az = np.add(a_lo, np.multiply(az_u[:m], a_hi - a_lo, out=az_u[:m]), out=az_u[:m])
        return _slice_hits(cos_t, az, L, d, z)

    # one generator for the run, reset to each block's stream: a new Philox
    # costs four times as much, most of it seeding the key it is then given
    bits = np.random.Philox(key=key)
    g, fresh = np.random.Generator(bits), bits.state
    hits = filled = 0
    for block, n in enumerate(sizes, first):
        fresh["state"]["counter"][2] = block
        bits.state = fresh
        k = int(g.binomial(n, w))
        for i in range(0, k, _SLICE):
            m = min(_SLICE, k - i)
            g.random(out=cos_u[filled:filled + m])
            g.random(out=az_u[filled:filled + m])
            filled += m
            if filled >= _SLICE:
                hits += test(_SLICE)
                filled -= _SLICE
                cos_u[:filled] = cos_u[_SLICE:_SLICE + filled]
                az_u[:filled] = az_u[_SLICE:_SLICE + filled]
    return hits + (test(filled) if filled else 0)


def mc_total(cyl: CylinderSpec, src: SourcePoint, samples: int, seed: int = 0) -> McEstimate:
    """Isotropic ray caster for the whole closed surface.

    Directions are uniform on the sphere (uniform cos(theta), uniform
    azimuth). A ray hits iff a point of it past the source lies on or inside
    the closed cylinder, which _hit_mask decides from the ray's azimuth and
    polar angle, with no ray parameter and no division. Streams are Philox
    blocks of 10^6 rays: the seed is the Philox key, which takes any
    integer in [0, 2^128), and block i starts at counter i * 2^128 (the
    key's stream jumped i times), so a fixed seed gives a bit-identical
    estimate regardless of how blocks are scheduled, and distinct seeds
    give distinct streams.
    Like every oracle here it works in units of r (_in_units_of_r), so a
    uniform scale by a power of two leaves the estimate bit-identical.

    Only rays that can hit are drawn. _band bounds the hits to a rectangle
    in (cos theta, azimuth), widened past the exact test's rounding and
    clipped to [-1, 1] x [0, 2 pi], and gives its area share w.
    Isotropic directions are uniform on [-1, 1] x [0, 2 pi], so of a block's
    n rays a Binomial(n, w) number land in the rectangle, uniformly, and the
    rest miss the exact test. Each block draws, from its own stream,
    k ~ Binomial(n, w), then the k rays on the rectangle in chunks of 2^15
    (cos theta of a chunk, then its azimuth). So the hit count has the law
    it has when every ray is drawn and tested; a source whose band is the
    whole sphere has w = 1 and draws every ray.

    The call counts its workers by its expected in-band rays, samples * w:
    one per full slice, at most one per usable CPU and one per block, and
    cuts its blocks into one contiguous run per worker (_run_hits). A run
    draws its blocks' rays one block after another into its thread's
    buffers and hands the exact test one full 2^15-ray slice at a time, so
    the blocks of a run share slices: a median benchmark call, about 36k
    in-band rays over ten blocks, makes two exact-test calls, not ten. With
    fewer than two workers, the one run goes through map in the caller's
    thread; with two or more, the runs go to one process-wide pool of one
    thread per CPU (_block_pool), whose threads share the CPUs while
    NumPy's draws and ufuncs release the GIL. A few thousand rays do not
    pay for the pool: the exact test makes about 30 small NumPy calls, and
    two workers pass the GIL back and forth around them. The integer hit
    counts are summed, so the result depends on neither the dispatch nor
    the worker count. Each thread keeps its workspace (_workspace: the
    draw buffers, 1 MB, and the exact test's scratch, about 1.1 MB) for its
    life: about 2 MB for each thread that has run blocks, on top of the
    interpreter and NumPy.

    Any finite source distance is drawn and tested like any other: from
    d = 1.3e154 r on c = d^2 - 1 is inf, so s^2 = cos^2 phi - c sin^2 phi
    is -inf, or NaN at sin phi = 0, and every ray misses without a warning.
    """
    try:
        samples, seed = operator.index(samples), operator.index(seed)
    except TypeError:
        raise DomainError(f"samples and seed must be integers; got {samples!r}, {seed!r}") from None
    if samples < 1:
        raise DomainError(f"samples must be >= 1; got {samples!r}")
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed must lie in [0, 2^128), the Philox key range; got {seed!r}")
    L, d, z, _ = _in_units_of_r(cyl.L, cyl.r, src.d, src.z)

    run = partial(_run_hits, seed, L=L, d=d, z=z)
    sizes = [min(_BLOCK, samples - start) for start in range(0, samples, _BLOCK)]
    workers = min(int(samples * _band(L, d, z)[4]) // _SLICE, _usable_cpus(), len(sizes))
    # one contiguous run of blocks per worker
    parts = max(workers, 1)
    cuts = [len(sizes) * i // parts for i in range(parts + 1)]
    runs = [sizes[a:b] for a, b in zip(cuts, cuts[1:])]
    hits = sum((_block_pool().map if workers > 1 else map)(run, cuts[:-1], runs))

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
