"""Independent reference computations: quadrature and ray casting.

Everything in this module recomputes solid angles from first principles and
shares no arithmetic with the closed forms in solid_angle; it exists so the
closed forms can be checked against implementations that cannot fail the same
way. Production code must never call into here; consumers are the test suite
and the CLI verify/compute --method={quadrature,montecarlo} paths.

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
(uniform cos(theta), uniform azimuth) and intersects each against the finite
cylinder: quadratic interval on the infinite shell intersected with the axial
slab, hit iff the interval reaches positive ray parameter. The radial
discriminant is taken as vx^2 - c vy^2, which equals b^2 - a c but has no
d^2-sized terms to cancel, so the tangent test is good to a few eps at any
source distance. Its 10^6-ray Philox blocks are independent: the blocks run
on a pool of one thread per usable CPU, and their integer hit counts are
summed, so the estimate is bit-identical for any worker count.

A block draws only the rays inside the cylinder's bounding band in polar
angle and azimuth (_band), widened past the exact test's own rounding and
clipped to [-1, 1] x [0, 2 pi] (_draw_box). Isotropic rays are uniform on
that (cos theta, azimuth) rectangle, so the number of a block's n rays that
land in the band is Binomial(n, w), w being the band's share of its area,
and those rays are uniform on the band. A block draws k ~ Binomial(n, w),
then k rays on the band, and tests them in cache-sized slices. A ray
outside the band is a miss of the exact test too, so the hit count has the
distribution it has when all n rays are drawn and tested. A source whose
band is the whole sphere (inside the cylinder or on its wall) has w = 1 and
draws all n rays.

SciPy is imported only inside the quadrature oracles, so importing this
module (and the CLI) loads NumPy alone.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, OracleFailure
from .geometry import CanonicalConfig, CylinderSpec, SourcePoint

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
_BLOCK = 1_000_000  # Monte Carlo rays per independent Philox stream
_SLICE = 1 << 15  # rays per intersection-test slice, a multiple of 16
_EPS = sys.float_info.epsilon
_SLACK = 1e-9  # absolute widening of the band in cos(theta) and azimuth


def _rho_minus(phi: float, r: float, d: float) -> float:
    return d * math.cos(phi) - math.sqrt(max(0.0, r * r - (d * math.sin(phi)) ** 2))


def _check_quad_pre(cfg: CanonicalConfig, tol: float) -> None:
    if cfg.L <= 0.0:
        raise DomainError(f"quadrature oracle requires L > 0; got L={cfg.L!r}")
    if not tol >= 1e-13:
        raise DomainError(f"tol must be >= 1e-13; got {tol!r}")


def _run_quad(f, a: float, b: float, epsabs: float, epsrel: float, what: str) -> float:
    from scipy import integrate

    out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=_SUBDIV, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3:
        raise OracleFailure(f"{what} did not converge within {_SUBDIV} subdivisions: {out[3]}")
    if abserr > 100.0 * max(epsabs, epsrel * abs(val)):
        raise OracleFailure(
            f"{what} error estimate {abserr!r} exceeds requested epsabs {epsabs!r} / epsrel {epsrel!r}"
        )
    return val


def quad_cyl0_phi(cfg: CanonicalConfig, tol: float = 1e-12) -> float:
    """Lateral-surface solid angle by adaptive quadrature of the phi form.

    Requires d >= r and L > 0. The substitution phi = phi_o - u^2 grades the
    mesh toward phi_o, where rho has square-root endpoint behavior.
    """
    L, r, d = cfg.L, cfg.r, cfg.d
    if d < r:
        raise DomainError(f"phi-form oracle requires d >= r; got d={d!r} < r={r!r}")
    _check_quad_pre(cfg, tol)
    phi_o = math.asin(min(1.0, r / d))
    if phi_o == 0.0:
        return 0.0

    def f(u: float) -> float:
        rho = _rho_minus(phi_o - u * u, r, d)
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
    L, r, d = cfg.L, cfg.r, cfg.d
    if d <= r:
        raise DomainError(f"gamma-form oracle requires d > r; got d={d!r}, r={r!r}")
    _check_quad_pre(cfg, tol)
    gamma_o = (math.pi / 2 + math.asin(min(1.0, r / d))) / 2.0
    t = d - r

    def f(v: float) -> float:
        cos_g = math.sin(v * v)  # cos(pi/2 - v^2)
        rho_sq = t * t + 4.0 * d * r * cos_g * cos_g
        bracket = 2.0 * r * (t - 2.0 * d * cos_g * cos_g) / rho_sq
        return 2.0 * v * bracket / math.sqrt(L * L + rho_sq)

    val = _run_quad(f, 0.0, math.sqrt(math.pi / 2 - gamma_o), tol * _TWO_PI / L, tol, "gamma-form quadrature")
    return L / _TWO_PI * val


def quad_disc(cfg: CanonicalConfig, tol: float = 1e-10) -> float:
    """End disc by brute-force double quadrature over polar disc coordinates.

    omega = (4 pi)^-1 * 2 * int_0^pi dphi int_0^r ds  L s / R^3
    with R^2 = L^2 + d^2 + s^2 - 2 d s cos(phi). Requires L > 0 (the L = 0
    disc is a discontinuous limit that quadrature cannot see).
    """
    from scipy import integrate

    L, r, d = cfg.L, cfg.r, cfg.d
    _check_quad_pre(cfg, tol)
    base = L * L + d * d

    def f(s: float, phi: float) -> float:
        R_sq = base + s * (s - 2.0 * d * math.cos(phi))
        return L * s / (R_sq * math.sqrt(R_sq))

    val, abserr = integrate.dblquad(f, 0.0, math.pi, 0.0, r, epsabs=tol * _TWO_PI, epsrel=tol)
    omega = val / _TWO_PI
    if abserr / _TWO_PI > 100.0 * max(tol, tol * abs(omega)):
        raise OracleFailure(f"disc quadrature error estimate {abserr / _TWO_PI!r} exceeds tol {tol!r}")
    return omega


@dataclass(frozen=True)
class McEstimate:
    """Ray-casting estimate of the whole-surface solid angle."""

    hit_fraction: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.hit_fraction <= 1.0:
            raise DomainError(f"hit_fraction must lie in [0, 1]; got {self.hit_fraction!r}")
        if self.std_error < 0.0 or self.samples < 1:
            raise DomainError("std_error must be >= 0 and samples >= 1")


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _block_pool() -> ThreadPoolExecutor:
    """The process's block workers, one thread per usable CPU, started on first use.

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


def _slice_hits(cos_t: np.ndarray, az: np.ndarray, L: float, px: float, pz: float, c: float) -> int:
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    vx = sin_t * np.cos(az)
    vy = sin_t * np.sin(az)
    vz = cos_t

    a = vx * vx + vy * vy
    b = px * vx
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        disc = vx * vx - c * (vy * vy)  # b^2 - a c, with no d^2-sized terms to cancel
        sq = np.sqrt(np.maximum(0.0, disc))
        rad_lo = (-b - sq) / a
        rad_hi = (-b + sq) / a
        ax_a = (0.0 - pz) / vz
        ax_b = (L - pz) / vz

    vertical = a == 0.0
    empty_rad = ~vertical & (disc < 0.0)
    rad_lo = np.where(vertical, -np.inf if c <= 0.0 else np.inf, rad_lo)
    rad_hi = np.where(vertical, np.inf if c <= 0.0 else -np.inf, rad_hi)
    rad_lo = np.where(empty_rad, np.inf, rad_lo)
    rad_hi = np.where(empty_rad, -np.inf, rad_hi)

    horizontal = vz == 0.0
    in_slab = 0.0 <= pz <= L
    ax_lo = np.where(horizontal, -np.inf if in_slab else np.inf, np.minimum(ax_a, ax_b))
    ax_hi = np.where(horizontal, np.inf if in_slab else -np.inf, np.maximum(ax_a, ax_b))

    lo = np.maximum(rad_lo, ax_lo)
    hi = np.minimum(rad_hi, ax_hi)
    return int(np.count_nonzero((lo <= hi) & (hi > 0.0)))


def _band(L: float, d: float, z: float, c: float) -> tuple[float, float, float, float] | None:
    """(cos lo, cos hi, az lo, az hi) outside which _slice_hits finds no hit, or None for all rays.

    Units of r, c = d^2 - 1 as _slice_hits gets it. A hit point lies at a
    horizontal distance u in [max(0, d - 1), d + 1] from the source and at a
    height z + u cot(theta) in [0, L], which bounds cos(theta); for d > 1 its
    azimuth also lies within atan(1/sqrt(c)) = asin(1/d) of pi. The band is
    widened past the rounding of _slice_hits, so that a ray outside it is a
    miss there as well:

    - u by 16 eps (1 + d). The wall roots (-b -+ sq)/a place a hit to within
      a few eps (1 + d) in u: head on, b and sq are each good to a few eps
      relative, and near the wall -b - sq cancels to within eps d. Near the
      tangent sq is only good to sqrt(eps) relative, but there u is
      sqrt(c), which lies inside [d - 1, d + 1] by far more than that.
    - cos(theta) by 1e-9. The slab roots are good to a few eps relative, and
      sqrt(1 - cos^2) moves the ray's cos(theta) by at most eps.
    - the azimuth by 1e-9. There, disc >= 0 reads tan^2(az - pi) <= 1/c
      with both sides good to a few eps relative, which is a few eps of
      asin(1/d) in angle, and math.pi is within 1.3e-16 of pi.
    """
    du = 16.0 * _EPS * (1.0 + d)
    u_min, u_max = max(0.0, d - 1.0 - du), d + 1.0 + du
    # cos(theta) of the steepest ray down to the base and up to the top
    cos_lo = math.cos(math.atan2(u_min if z > 0.0 else u_max, -z)) - _SLACK
    cos_hi = math.cos(math.atan2(u_min if z < L else u_max, L - z)) + _SLACK
    half = math.atan2(1.0, math.sqrt(c)) + _SLACK if c > 0.0 else math.pi
    if cos_lo <= -1.0 and cos_hi >= 1.0 and half >= math.pi:
        return None
    return cos_lo, cos_hi, math.pi - half, math.pi + half


def _draw_box(band: tuple[float, float, float, float] | None) -> tuple[float, float, float, float, float]:
    """`band` clipped to [-1, 1] x [0, 2 pi] in (cos theta, azimuth), and w, its share of that area.

    None is the whole rectangle, with w = 1 exactly.
    """
    c_lo, c_hi, a_lo, a_hi = band or (-1.0, 1.0, 0.0, _TWO_PI)
    c_lo, c_hi = max(c_lo, -1.0), min(c_hi, 1.0)
    a_lo, a_hi = max(a_lo, 0.0), min(a_hi, _TWO_PI)
    return c_lo, c_hi, a_lo, a_hi, (c_hi - c_lo) / 2.0 * ((a_hi - a_lo) / _TWO_PI)


def _block_hits(
    base: np.random.Philox, block: int, n: int, L: float, px: float, pz: float, c: float,
    box: tuple[float, float, float, float, float],
) -> int:
    """Hits among the n isotropic rays of Philox block `block`; depends on nothing else.

    Draws k ~ Binomial(n, w) for the rays that land in `box` (_draw_box),
    then those k rays uniformly on it, one slice at a time: cos(theta),
    then azimuth.
    """
    c_lo, c_hi, a_lo, a_hi, w = box
    g = np.random.Generator(base.jumped(block))
    k = int(g.binomial(n, w))
    hits = 0
    for i in range(0, k, _SLICE):
        m = min(_SLICE, k - i)
        cos_t = g.uniform(c_lo, c_hi, m)
        az = g.uniform(a_lo, a_hi, m)
        hits += _slice_hits(cos_t, az, L, px, pz, c)
    return hits


def mc_total(cyl: CylinderSpec, src: SourcePoint, samples: int, seed: int = 0) -> McEstimate:
    """Isotropic ray caster for the whole closed surface.

    Directions are uniform on the sphere (uniform cos(theta), uniform
    azimuth). A ray hits iff the interval where it is radially inside the
    infinite shell intersects the interval where it is inside the axial slab,
    at some positive ray parameter. Streams are Philox blocks of 10^6 rays,
    block i drawn from the seed generator jumped i times, so a fixed seed
    gives a bit-identical estimate regardless of how blocks are scheduled.
    Lengths are taken in units of r, so a uniform scale by a power of two
    leaves the estimate bit-identical.

    Only rays that can hit are drawn. _band bounds the hits to a rectangle
    in (cos theta, azimuth), widened past the exact test's rounding, and
    _draw_box clips it to [-1, 1] x [0, 2 pi] and gives its area share w.
    Isotropic directions are uniform on [-1, 1] x [0, 2 pi], so of a block's
    n rays a Binomial(n, w) number land in the rectangle, uniformly, and the
    rest miss the exact test. Each block draws, from its own generator,
    k ~ Binomial(n, w), then the k rays on the rectangle in slices of 2^15
    (cos theta of a slice, then its azimuth), and gives each slice to the
    exact test. So the hit count has the law it has when every ray is
    drawn and tested; a source whose band is the whole sphere has w = 1 and
    draws every ray.

    Blocks run on one process-wide pool of one thread per usable CPU
    (_block_pool), so k blocks occupy min(k, CPUs) threads; NumPy releases
    the GIL in its draws and ufuncs. The integer hit counts are summed, so
    the result does not depend on the worker count. Each worker holds one
    slice at a time: its two draw arrays (256 kB each) and the exact test's
    temporaries, about 4.5 MB at most, so peak memory grows as workers x
    ~4.5 MB on top of the interpreter and NumPy.

    Any finite source distance is drawn and tested like any other: from
    d = 1.3e154 r on c = d^2 - 1 is inf, so the exact test's discriminant is
    -inf, or NaN at vy = 0, and every ray misses without a warning.
    """
    try:
        samples, seed = operator.index(samples), operator.index(seed)
    except TypeError:
        raise DomainError(f"samples and seed must be integers; got {samples!r}, {seed!r}") from None
    if samples < 1:
        raise DomainError(f"samples must be >= 1; got {samples!r}")
    L, d, z = cyl.L / cyl.r, src.d / cyl.r, src.z / cyl.r
    if math.isinf(max(L, d, abs(z))):
        raise DomainError(f"lengths overflow in units of r: L/r = {L!r}, d/r = {d!r}, z/r = {z!r}")

    c = d * d - 1.0  # radial quadratic constant term (py = 0 by symmetry)
    base = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF)
    run = partial(_block_hits, base, L=L, px=d, pz=z, c=c, box=_draw_box(_band(L, d, z, c)))
    sizes = [min(_BLOCK, samples - start) for start in range(0, samples, _BLOCK)]
    hits = sum(_block_pool().map(run, range(len(sizes)), sizes))

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
