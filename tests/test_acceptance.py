"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Every test times itself, prints a single summary line (visible with -s, or
in the captured output of a failure), and then asserts. Tolerances are the
release contract, not working margins; the library typically beats them by
several orders of magnitude.

Relative agreement between disc formulas uses |a-b| / max(|a|, |b|, 1e-4):
for values above 1e-4 this is plain relative deviation, below it the
comparison degrades to an absolute floor of 1e-14 at the 1e-10 tolerance,
which keeps near-zero solid angles from demanding impossible digits.
"""

import math
import random
import time

from solidcyl import oracle
from solidcyl.elliptic import (
    complete_E,
    complete_K,
    incomplete_F,
    incomplete_Pi,
)
from solidcyl.geometry import CanonicalConfig, CylinderSpec, SourcePoint
from solidcyl.solid_angle import (
    omega_circ,
    omega_circ_macklin,
    omega_circ_third_kind,
    omega_cyl0,
    omega_cyl0_series,
    omega_total,
)

TWO_PI = 2.0 * math.pi


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _linspace(a: float, b: float, n: int):
    if n == 1:
        return [a]
    return [a + i * (b - a) / (n - 1) for i in range(n)]


def _report(ok: bool, label: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_triple_disc_agreement():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    worst_cfg = None
    n = 0
    while n < 1000:
        d = _log_uniform(rng, 0.01, 100.0)
        if 0.999 <= d <= 1.001:
            continue
        L = _log_uniform(rng, 0.01, 100.0)
        cfg = CanonicalConfig(L, 1.0, d)
        a = omega_circ(cfg).value
        b = omega_circ_third_kind(cfg).value
        c = omega_circ_macklin(cfg).value
        dev = max(_rel(a, b), _rel(a, c), _rel(b, c))
        if dev > worst:
            worst, worst_cfg = dev, cfg
        n += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        ok,
        "criterion 1 (triple disc agreement)",
        f"1000 configs, max pairwise dev {worst:.3e} (tol 1e-10) at {worst_cfg}, {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_2_lateral_vs_quadrature():
    start = time.perf_counter()
    worst_abs = 0.0
    worst_cfg = None
    for d in (math.exp(x) for x in _linspace(math.log(1.001), math.log(100.0), 20)):
        for L in (math.exp(x) for x in _linspace(math.log(0.01), math.log(100.0), 25)):
            cfg = CanonicalConfig(L, 1.0, d)
            closed = omega_cyl0(cfg).value
            quad = oracle.quad_cyl0_phi(cfg, tol=1e-12)
            dev = abs(closed - quad)
            if dev > worst_abs:
                worst_abs, worst_cfg = dev, cfg
    worst_pair = 0.0
    for d in (math.exp(x) for x in _linspace(math.log(1.01), math.log(100.0), 10)):
        for L in (math.exp(x) for x in _linspace(math.log(0.01), math.log(100.0), 10)):
            cfg = CanonicalConfig(L, 1.0, d)
            pair = abs(oracle.quad_cyl0_phi(cfg, tol=1e-12) - oracle.quad_cyl0_gamma(cfg, tol=1e-12))
            worst_pair = max(worst_pair, pair)
    elapsed = time.perf_counter() - start
    ok = worst_abs <= 1e-9 and worst_pair <= 1e-10 and elapsed < 30.0
    _report(
        ok,
        "criterion 2 (lateral surface vs quadrature)",
        f"500-point grid max abs dev {worst_abs:.3e} (tol 1e-9) at {worst_cfg}; "
        f"phi/gamma max {worst_pair:.3e} (tol 1e-10) on 100 configs; {elapsed:.2f}s (budget 30s)",
    )


def test_criterion_3_limit_values():
    # tangent limit of the shell: quarter sphere. The approach is slow: with
    # delta = d/r - 1, 1/4 - omega ~ arccos(r/d)/(2 pi) ~ sqrt(2 delta)/(2 pi),
    # so the limit holds to 1e-6 only for delta <~ 2e-11 (at 1e-8 the true
    # deviation is 2.25e-5). Probe the limit at 1e-14 (true deviation 2.25e-8)
    # and check the 1e-8 point against quadrature instead of widening the
    # tolerance.
    limit_offset, near_offset = 1e-14, 1e-8
    tangent = omega_cyl0(CanonicalConfig(1.0, 1.0, 1.0 + limit_offset)).value
    dev_tangent = abs(tangent - 0.25)
    near_cfg = CanonicalConfig(1.0, 1.0, 1.0 + near_offset)
    dev_near = abs(omega_cyl0(near_cfg).value - oracle.quad_cyl0_phi(near_cfg, tol=1e-12))

    # flat-disc limits at the three radial regimes
    flat_devs = [
        abs(omega_circ(CanonicalConfig(1e-10, 1.0, d)).value - target)
        for d, target in ((2.0, 0.0), (1.0, 0.25), (0.5, 0.5))
    ]

    # equal-distance disc against its single-K closed form and the quadrature oracle
    got = omega_circ(CanonicalConfig(2.0, 1.0, 1.0)).value
    m1 = 0.5
    reference = 0.25 - math.sqrt(1.0 - m1) * complete_K(m1) / TWO_PI
    dev_formula = abs(got - reference)
    dev_quad = abs(got - oracle.quad_disc(CanonicalConfig(2.0, 1.0, 1.0), tol=1e-10))

    ok = (
        dev_tangent <= 1e-6
        and dev_near <= 1e-9
        and max(flat_devs) <= 1e-6
        and dev_formula <= 1e-12
        and dev_quad <= 1e-9
    )
    _report(
        ok,
        "criterion 3 (limit values)",
        f"tangent-shell dev {dev_tangent:.3e} vs 1/4 at d/r - 1 = {limit_offset:.0e} (tol 1e-6), "
        f"{dev_near:.3e} vs quadrature at d/r - 1 = {near_offset:.0e} (tol 1e-9); flat-disc devs "
        f"{flat_devs[0]:.1e}/{flat_devs[1]:.1e}/{flat_devs[2]:.1e} (tol 1e-6); "
        f"equal-distance dev {dev_formula:.3e} vs formula (tol 1e-12), "
        f"{dev_quad:.3e} vs quadrature (tol 1e-9)",
    )


def test_criterion_4_series_agreement():
    start = time.perf_counter()
    worst = 0.0
    worst_cfg = None
    for L in (math.exp(x) for x in _linspace(math.log(0.1), math.log(100.0), 10)):
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95):
            w = frac * L / 10.0  # sqrt(d^2 - r^2), kept inside the validity region
            cfg = CanonicalConfig(L, 1.0, math.sqrt(1.0 + w * w))
            series = omega_cyl0_series(cfg, terms=3).value
            exact = omega_cyl0(cfg).value
            dev = abs(series - exact) / abs(exact)
            if dev > worst:
                worst, worst_cfg = dev, cfg
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 1.0
    _report(
        ok,
        "criterion 4 (series validity)",
        f"50-point grid max rel dev {worst:.3e} (tol 1e-4, four digits) at {worst_cfg}, "
        f"{elapsed:.2f}s (budget 1s)",
    )


def _mc_configs():
    """Twenty configurations, five in each decomposition regime."""
    rng = random.Random(20268)
    out = []
    for _ in range(5):
        L = 10.0 ** rng.uniform(-0.5, 1.0)
        r = 10.0 ** rng.uniform(-0.5, 0.5)
        # outside the shell radius, below the base plane
        d = r * 10.0 ** rng.uniform(0.05, 0.7)
        out.append((CylinderSpec(L, r), SourcePoint(d, -rng.uniform(0.1, 2.0) * L), False))
        # outside the shell radius, beside the shell
        d = r * 10.0 ** rng.uniform(0.05, 0.7)
        out.append((CylinderSpec(L, r), SourcePoint(d, rng.uniform(0.1, 0.9) * L), False))
        # inside the shell radius, below the base plane
        d = r * rng.uniform(0.05, 0.9)
        out.append((CylinderSpec(L, r), SourcePoint(d, -rng.uniform(0.1, 2.0) * L), False))
        # enclosed
        d = r * rng.uniform(0.0, 0.9)
        out.append((CylinderSpec(L, r), SourcePoint(d, rng.uniform(0.1, 0.9) * L), True))
    return out


def test_criterion_5_monte_carlo_end_to_end():
    start = time.perf_counter()
    worst_z = 0.0
    worst_cfg = None
    enclosed_exact = True
    for i, (cyl, src, enclosed) in enumerate(_mc_configs()):
        est = oracle.mc_total(cyl, src, 10_000_000, seed=i)
        ref = omega_total(cyl, src).value
        if enclosed:
            enclosed_exact = enclosed_exact and est.hit_fraction == 1.0 and ref == 1.0
            continue
        z = abs(est.hit_fraction - ref) / est.std_error
        if z > worst_z:
            worst_z, worst_cfg = z, (cyl, src)
    elapsed = time.perf_counter() - start
    ok = worst_z <= 3.0 and enclosed_exact and elapsed < 120.0
    _report(
        ok,
        "criterion 5 (Monte Carlo end to end)",
        f"20 configs at 1e7 rays, worst |closed - mc| = {worst_z:.2f} std errors (limit 3) "
        f"at {worst_cfg}; enclosed exact: {enclosed_exact}; {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_6_elliptic_kernel_suite():
    start = time.perf_counter()
    half_pi = math.pi / 2.0

    worst_legendre = 0.0
    worst_agm = 0.0
    for i in range(100):
        m = (i + 0.5) / 100.0
        mc = 1.0 - m
        lhs = complete_E(m) * complete_K(mc) + complete_E(mc) * complete_K(m) - complete_K(m) * complete_K(mc)
        worst_legendre = max(worst_legendre, abs(lhs - half_pi) / half_pi)
        worst_agm = max(
            worst_agm,
            abs(oracle.agm_complete_first_kind(m) - complete_K(m)) / complete_K(m),
        )

    worst_trivial = abs(complete_E(1.0) - 1.0)
    for i in range(1, 10):
        phi = half_pi * i / 10.0
        worst_trivial = max(worst_trivial, abs(incomplete_F(phi, 0.0) - phi))
        for m in (0.1, 0.5, 0.9):
            worst_trivial = max(worst_trivial, abs(incomplete_Pi(0.0, phi, m) - incomplete_F(phi, m)))

    elapsed = time.perf_counter() - start
    ok = worst_legendre <= 1e-12 and worst_agm <= 1e-13 and worst_trivial <= 1e-14 and elapsed < 1.0
    _report(
        ok,
        "criterion 6 (elliptic kernel suite)",
        f"Legendre residual {worst_legendre:.3e} (tol 1e-12, 100 m); AGM dev {worst_agm:.3e} "
        f"(tol 1e-13); trivial identities {worst_trivial:.3e} (tol 1e-14); {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_7_global_invariants():
    rng = random.Random(707)
    start = time.perf_counter()

    worst_scale = 0.0
    worst_swap = 0.0
    in_range = True
    for _ in range(100):
        L = _log_uniform(rng, 0.05, 20.0)
        r = _log_uniform(rng, 0.05, 20.0)
        d = _log_uniform(rng, 0.01, 50.0)
        if 0.999 * r <= d <= 1.001 * r:
            continue  # rim constants switch discontinuously; covered elsewhere
        z = rng.uniform(-1.5, 2.5) * L
        base = omega_total(CylinderSpec(L, r), SourcePoint(d, z)).value
        in_range = in_range and 0.0 <= base <= 1.0
        for k in (1e-3, 1.0, 1e3):
            scaled = omega_total(CylinderSpec(k * L, k * r), SourcePoint(k * d, k * z)).value
            worst_scale = max(worst_scale, abs(scaled - base))
        swapped = omega_total(CylinderSpec(L, r), SourcePoint(d, L - z)).value
        worst_swap = max(worst_swap, abs(swapped - base))

    # the corner (d -> r+, L -> 0) keeps its two one-sided limits apart
    wall = omega_cyl0(CanonicalConfig(1e-9, 1.0, 1.0)).value
    gone = omega_cyl0(CanonicalConfig(1e-9, 1.0, 1.0001)).value
    witness = wall == 0.25 and gone < 1e-3

    elapsed = time.perf_counter() - start
    ok = worst_scale <= 1e-12 and worst_swap <= 1e-12 and in_range and witness and elapsed < 5.0
    _report(
        ok,
        "criterion 7 (global invariants)",
        f"scale dev {worst_scale:.3e}, end-swap dev {worst_swap:.3e} (tol 1e-12); "
        f"range ok: {in_range}; discontinuity witness {wall:.3f} vs {gone:.2e}; "
        f"{elapsed:.2f}s (budget 5s)",
    )
