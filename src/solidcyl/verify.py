"""Randomized self-verification suites.

Each suite draws configurations from a seeded generator, evaluates a
cross-check (formula vs formula, formula vs oracle, or an invariant) and
yields one (deviation, where) pair per check. run_suite alone counts the
checks and reports the worst deviation together with the configuration
that produced it against the suite's one bound. The CLI's verify command
runs all suites and fails on any violation; the test suite reuses them
with fault injection to prove they can actually catch a broken build.

Each suite is declared in one place: the @_suite(tolerance, share)
decorator on its generator registers the check in SUITES, its bound in
DEFAULT_TOLERANCES and its share of the point budget, and the order of
definition below is the order run_all reports in. cyl0_quad checks
omega_cyl0 against the gamma-form quadrature, which differ by 8.1e-16 at
worst, so its bound is 1e-13; cyl0_pair compares the phi form with the
gamma form, which agree to 3.3e-14 at worst, near the wall, so its bound
is 5e-12.

Suites deliberately call through the module objects (solid_angle.omega_circ
and friends) instead of binding the functions at import time, so a
monkeypatched implementation is what gets verified.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

from . import elliptic, oracle, solid_angle
from .errors import DomainError
from .geometry import CanonicalConfig, CylinderSpec, SourcePoint, _value_type

__all__ = ["SuiteResult", "DEFAULT_TOLERANCES", "run_suite", "run_all", "SUITES"]

# filled by _suite in definition order, the report order
SUITES = {}
DEFAULT_TOLERANCES = {}
_POINT_SCALE = {}


def _suite(tolerance: float, share: float = 1.0):
    """Register suite_<name> under <name> with its tolerance and point share.

    Each tolerance is about 100 times the worst deviation the suite showed over
    302 seeds (0-299, 701562, 12345) at 200 and 2000 points, rounded up to 1,
    2 or 5 times a power of ten, and never above the value it had before that
    measurement: tolerances only tighten. The worst deviation follows each
    registration. share < 1 gives a quadrature-heavy suite a reduced share of
    the point budget.
    """

    def register(fn):
        name = fn.__name__.removeprefix("suite_")
        SUITES[name], DEFAULT_TOLERANCES[name], _POINT_SCALE[name] = fn, tolerance, share
        return fn

    return register


@_value_type
class SuiteResult:
    name: str
    checks: int
    max_dev: float
    tolerance: float
    worst: str
    passed: bool

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.name}: {self.checks} checks, "
            f"max deviation {self.max_dev:.3e} (tol {self.tolerance:.3e}) at {self.worst}"
        )


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _disc_ratio(rng: random.Random) -> float:
    # d/r in [0.01, 100] staying clear of the equal-distance band
    while True:
        x = _log_uniform(rng, 0.01, 100.0)
        if not 0.999 <= x <= 1.001:
            return x


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale != 0.0 else 0.0


def _rel_floored(a: float, b: float) -> float:
    # relative deviation with an absolute floor of tol * 1e-4: the disc forms
    # are offsets from 1/4, so as omega -> 0 their agreement is absolute
    # (~1e-15), not relative, and a pure ratio would fail on roundoff alone
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


@_suite(1e-10)  # three disc paths pairwise relative (abs floor 1e-14), 1.1e-11;
# then omega_circ vs the third-kind form outside the rim, plain relative, 6.2e-14
def suite_disc_cross(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    # the first loop checks omega_circ_macklin only through _rel_floored's
    # floor: where the disc is below 1e-4 it is held to tol * 1e-4
    # absolute, not relative, and outside the rim, where its 1/4-scale
    # terms cancel, it can be far off relative to the value there
    for _ in range(points):
        cfg = CanonicalConfig(_log_uniform(rng, 0.01, 100.0), 1.0, _disc_ratio(rng))
        a = solid_angle.omega_circ(cfg).value
        b = solid_angle.omega_circ_third_kind(cfg).value
        c = solid_angle.omega_circ_macklin(cfg).value
        dev = max(_rel_floored(a, b), _rel_floored(a, c), _rel_floored(b, c))
        yield dev, f"(L={cfg.L!r}, r=1.0, d={cfg.d!r})"
    # the second loop is the plain relative check, with no floor: outside
    # the rim omega_circ is the near face plus the shell, and the
    # third-kind form carries sqrt(1-m/n) outside its bracket: neither
    # cancels a disc seen edge-on, so these agree relative to the value
    for _ in range(points):
        cfg = CanonicalConfig(_log_uniform(rng, 1e-12, 10.0), 1.0, _log_uniform(rng, 1.01, 10.0))
        dev = _rel(solid_angle.omega_circ(cfg).value, solid_angle.omega_circ_third_kind(cfg).value)
        yield dev, f"(L={cfg.L!r}, r=1.0, d={cfg.d!r})"


def _shell_config(rng: random.Random) -> CanonicalConfig:
    return CanonicalConfig(_log_uniform(rng, 1e-3, 100.0), 1.0, 1.0 + _log_uniform(rng, 1e-6, 99.0))


@_suite(1e-13, share=0.5)  # absolute, elliptic vs gamma-form quadrature; 8.1e-16
def suite_cyl0_quad(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    for _ in range(points):
        cfg = _shell_config(rng)
        a = solid_angle.omega_cyl0(cfg).value
        q = oracle.quad_cyl0_gamma(cfg, tol=1e-12)
        yield abs(a - q), f"(L={cfg.L!r}, r=1.0, d={cfg.d!r})"


@_suite(5e-12, share=0.2)  # absolute, phi-form vs gamma-form quadrature; 3.3e-14
def suite_cyl0_pair(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    for _ in range(points):
        cfg = _shell_config(rng)
        p = oracle.quad_cyl0_phi(cfg, tol=1e-12)
        g = oracle.quad_cyl0_gamma(cfg, tol=1e-12)
        yield abs(p - g), f"(L={cfg.L!r}, r=1.0, d={cfg.d!r})"


@_suite(2e-11)  # relative, omega_cyl0 vs the paper's two-pair form; 1.7e-13
def suite_paper_form(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    # omega_cyl0 (addition-theorem form) against the paper's two-pair form on
    # the Legendre wrappers, at r = 1:
    #   2 pi omega = sqrt(1-m/n) {sqrt(1-n) [Pi(n; m) - Pi(n; gamma_o|m)]
    #                             - [K(m) - F(gamma_o|m)]}
    # n and gamma_o reach the wrappers as rounded floats, so each pair
    # cancels as d -> r; d - r stays above r/10, where the form holds to
    # about 1e-13 relative
    for _ in range(points):
        L, d = _log_uniform(rng, 1e-3, 100.0), 1.0 + _log_uniform(rng, 0.1, 99.0)
        s = d + 1.0
        den = L * L + s * s
        m, n = 4.0 * d / den, 4.0 * d / (s * s)
        gamma_o = (math.pi / 2.0 + math.asin(1.0 / d)) / 2.0
        pi_pair = elliptic.complete_Pi(n, m) - elliptic.incomplete_Pi(n, gamma_o, m)
        k_pair = elliptic.complete_K(m) - elliptic.incomplete_F(gamma_o, m)
        paper = L / math.sqrt(den) * ((d - 1.0) / s * pi_pair - k_pair) / (2.0 * math.pi)
        a = solid_angle.omega_cyl0(CanonicalConfig(L, 1.0, d)).value
        yield _rel(a, paper), f"(L={L!r}, r=1.0, d={d!r})"


@_suite(5e-13)  # relative residual of the Legendre relation; 4.5e-15
def suite_legendre(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    # E(m) K(1-m) + E(1-m) K(m) - K(m) K(1-m) = pi/2
    for _ in range(points):
        m = rng.uniform(1e-6, 1.0 - 1e-6)
        lhs = (
            elliptic.complete_E(m) * elliptic.complete_K(1.0 - m)
            + elliptic.complete_E(1.0 - m) * elliptic.complete_K(m)
            - elliptic.complete_K(m) * elliptic.complete_K(1.0 - m)
        )
        yield abs(lhs - math.pi / 2) / (math.pi / 2), f"m={m!r}"


@_suite(1e-13)  # relative, complete_K vs AGM iteration; 1.0e-15
def suite_agm(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    for _ in range(points):
        m = 1.0 - _log_uniform(rng, 1e-10, 1.0)
        yield _rel(elliptic.complete_K(m), oracle.agm_complete_first_kind(m)), f"m={m!r}"


@_suite(1e-14)  # 8.9e-16
def suite_trivial_identities(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    for _ in range(max(points, 8)):
        phi = rng.uniform(0.0, math.pi / 2)
        m = rng.uniform(0.0, 0.999999)
        yield abs(elliptic.incomplete_F(phi, 0.0) - phi), f"F(phi|0), phi={phi!r}"
        yield (
            _rel(elliptic.incomplete_Pi(0.0, phi, m), elliptic.incomplete_F(phi, m)),
            f"Pi(0;phi|m), phi={phi!r}, m={m!r}",
        )
    yield abs(elliptic.complete_E(1.0) - 1.0), "E(1)"
    yield abs(elliptic.complete_K(0.0) - math.pi / 2), "K(0)"
    yield abs(elliptic.complete_E(0.0) - math.pi / 2), "E(0)"


def _random_setup(rng: random.Random) -> tuple[CylinderSpec, SourcePoint]:
    # draws L, then d, then z: the suites' checks depend on this order
    L = _log_uniform(rng, 0.01, 100.0)
    return CylinderSpec(L, 1.0), SourcePoint(_log_uniform(rng, 0.01, 100.0), rng.uniform(-2.0 * L, 3.0 * L))


@_suite(5e-13, share=0.5)  # absolute, omega is dimensionless; 4.4e-15
def suite_scale_invariance(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    for _ in range(points):
        cyl, src = _random_setup(rng)
        k = _log_uniform(rng, 1e-300, 1e300)
        a = solid_angle.omega_total(cyl, src).value
        b = solid_angle.omega_total(
            CylinderSpec(k * cyl.L, k * cyl.r), SourcePoint(k * src.d, k * src.z)
        ).value
        # absolute: omega is already a dimensionless fraction of 4 pi
        yield abs(a - b), f"(L={cyl.L!r}, r=1.0, d={src.d!r}, z={src.z!r}, k={k!r})"


@_suite(1e-13, share=0.5)  # absolute; 7.8e-16
def suite_end_swap(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    # reflecting the source through the cylinder midplane preserves omega
    for _ in range(points):
        cyl, src = _random_setup(rng)
        a = solid_angle.omega_total(cyl, src).value
        b = solid_angle.omega_total(cyl, SourcePoint(src.d, cyl.L - src.z)).value
        yield abs(a - b), f"(L={cyl.L!r}, r=1.0, d={src.d!r}, z={src.z!r})"


def _escape(cyl: CylinderSpec, src: SourcePoint) -> tuple[float, str]:
    v = solid_angle.omega_total(cyl, src).value
    return max(0.0 - v, v - 1.0, 0.0), f"(L={cyl.L!r}, r=1.0, d={src.d!r}, z={src.z!r})"


@_suite(0.0)  # any escape from [0, 1] is a failure
def suite_omega_range(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    for _ in range(points):
        yield _escape(*_random_setup(rng))
    for src in (SourcePoint(0.5, 0.0), SourcePoint(1.0, 0.0), SourcePoint(1.0, 0.5)):
        yield _escape(CylinderSpec(1.0, 1.0), src)


@_suite(2e-4)  # omega_cyl0(L -> 0, d > r) must collapse; 1.6e-6
def suite_discontinuity(points: int, rng: random.Random) -> Iterator[tuple[float, str]]:
    # the two iterated limits at the (d=r, L=0) corner disagree: L -> 0 first
    # collapses the lateral view to 0, d -> r first pins it at 1/4
    del points, rng
    on_edge = solid_angle.omega_cyl0(CanonicalConfig(1e-9, 1.0, 1.0)).value
    off_edge = solid_angle.omega_cyl0(CanonicalConfig(1e-9, 1.0, 1.0 + 1e-4)).value
    where = f"omega(d=r)={on_edge!r}, omega(d=r+1e-4)={off_edge!r} at L=1e-9"
    yield abs(on_edge - 0.25), where
    yield off_edge, where


def run_suite(name: str, points: int, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise DomainError(f"unknown verification suite {name!r}; known: {sorted(SUITES)}")
    if not points >= 1:
        raise DomainError(f"points must be at least 1; got {points!r}")
    tol = DEFAULT_TOLERANCES[name]
    n = max(1, int(points * _POINT_SCALE[name]))
    # string seeds hash through sha512, so child streams are stable across runs
    rng = random.Random(f"{seed}:{name}")
    max_dev, worst, checks = 0.0, "n/a", 0
    for dev, where in SUITES[name](n, rng):
        checks += 1
        # the first maximum wins, and NaN outranks every number, so a NaN
        # deviation fails the suite
        if dev > max_dev or (math.isnan(dev) and not math.isnan(max_dev)):
            max_dev, worst = dev, where
    return SuiteResult(name, checks, max_dev, tol, worst, max_dev <= tol)


def run_all(points: int = 200, seed: int = 0) -> list[SuiteResult]:
    return [run_suite(name, points, seed) for name in SUITES]
