"""Reference-computation checks: quadrature self-consistency and ray casting.

The oracles are validated three ways: against each other (two independent
parametrizations of the same integral), against closed-form limits that need
no elliptic machinery, and against frozen values from earlier runs.
"""

import math
import os
import random
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import accumulate

import mpmath
import numpy as np
import pytest

import solidcyl
from solidcyl import oracle
from solidcyl.elliptic import complete_K
from solidcyl.errors import DomainError, OracleFailure
from solidcyl.geometry import CanonicalConfig, CylinderSpec, SourcePoint
from solidcyl.solid_angle import omega_circ, omega_total

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------- lateral surface


def test_phi_form_frozen_value():
    got = oracle.quad_cyl0_phi(CanonicalConfig(2.0, 1.0, 2.0), tol=1e-13)
    assert got == pytest.approx(0.072462447677148198, rel=1e-12)


def test_short_shell_frozen_value_meets_relative_tol():
    # 40-digit mpmath quadrature of the phi form. At L << r the integral is
    # omega * 2 pi / L, so a tolerance scaled by 2 pi / L is absolute only;
    # applied as the relative one too it let the phi form miss by 1e-10
    cfg = CanonicalConfig(0.01113431086461422, 1.0, 1.0000197362243135)
    expected = 0.24894930628538344937
    assert oracle.quad_cyl0_phi(cfg, tol=1e-12) == pytest.approx(expected, rel=1e-12)
    assert oracle.quad_cyl0_gamma(cfg, tol=1e-12) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "cfg",
    [
        CanonicalConfig(2.0, 1.0, 2.0),
        CanonicalConfig(0.1, 1.0, 1.5),
        CanonicalConfig(30.0, 1.0, 5.0),
        CanonicalConfig(1.0, 1.0, 1.001),
        CanonicalConfig(5.0, 2.0, 80.0),
    ],
    ids=lambda c: f"L{c.L}r{c.r}d{c.d}",
)
def test_phi_and_gamma_forms_agree(cfg):
    tol = 1e-12
    a = oracle.quad_cyl0_phi(cfg, tol=tol)
    b = oracle.quad_cyl0_gamma(cfg, tol=tol)
    assert abs(a - b) <= 2.0 * tol


@pytest.mark.parametrize(
    "L, d, expected",
    [
        (0.0035399406953653253, 1.0000015139923253, 0.2497122725660776215828915912889562231961),
        (0.02024307615135095, 1.0000317334498712, 0.2487000835824408619838485876299021836757),
    ],
)
def test_phi_form_near_the_wall_at_small_L(L, d, expected):
    # References: mpmath.quad at 50 digits of the phi form (r = 1) rewritten
    # with sin(phi) = sin(phi_o) sin(u), so that sqrt(1 - d^2 sin^2 phi) =
    # cos(u) and rho = (d^2 - 1)/(d cos(phi) + cos(u)): no cancellation and
    # no square-root endpoint. 60 digits agree to 1e-49
    assert abs(oracle.quad_cyl0_phi(CanonicalConfig(L, 1.0, d)) - expected) <= 1e-14


def test_phi_form_tangent_limit():
    # at d barely above r the quarter-sphere limit still holds to 1e-6
    got = oracle.quad_cyl0_phi(CanonicalConfig(5.0, 1.0, 1.0 + 1e-14))
    assert got == pytest.approx(0.249999977501089, abs=1e-6)
    assert got == pytest.approx(0.25, abs=1e-6)


def test_phi_form_touching_source():
    got = oracle.quad_cyl0_phi(CanonicalConfig(1.0, 1.0, 1.0))
    assert got == pytest.approx(0.25, rel=1e-12)


def test_phi_form_long_cylinder_is_aperture_fraction():
    # L >> d: the shell fills the whole wedge of azimuths that see the disc
    got = oracle.quad_cyl0_phi(CanonicalConfig(1e4, 1.0, 2.0))
    assert got == pytest.approx(math.asin(0.5) / TWO_PI, abs=3e-9)


def test_quad_preconditions():
    with pytest.raises(DomainError):
        oracle.quad_cyl0_phi(CanonicalConfig(1.0, 1.0, 0.5))
    with pytest.raises(DomainError):
        oracle.quad_cyl0_gamma(CanonicalConfig(1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        oracle.quad_cyl0_gamma(CanonicalConfig(1.0, 1.0, 0.5))
    with pytest.raises(DomainError):
        oracle.quad_cyl0_phi(CanonicalConfig(0.0, 1.0, 2.0))
    with pytest.raises(DomainError):
        oracle.quad_cyl0_phi(CanonicalConfig(1.0, 1.0, 2.0), tol=1e-14)


# ------------------------------------------------------------------- end discs


def test_disc_on_axis():
    got = oracle.quad_disc(CanonicalConfig(1.0, 1.0, 0.0))
    assert got == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(2.0)), abs=1e-9)


def test_disc_equal_distance():
    got = oracle.quad_disc(CanonicalConfig(2.0, 1.0, 1.0))
    assert got == pytest.approx(0.041343289581481701, abs=1e-9)


def test_disc_near_flat_inside():
    got = oracle.quad_disc(CanonicalConfig(0.05, 1.0, 0.5))
    assert got == pytest.approx(omega_circ(CanonicalConfig(0.05, 1.0, 0.5)).value, abs=1e-9)
    assert got > 0.46  # approaching the half-space limit 0.5


def test_disc_reports_failure_not_garbage():
    # a sharp integrand at L << r: the rule meets tol here, and what it returns is right
    cfg = CanonicalConfig(1e-3, 1.0, 0.5)
    assert abs(oracle.quad_disc(cfg, tol=1e-10) - omega_circ(cfg).value) <= 1e-10


def test_disc_at_a_tenth_of_that_height_meets_tol():
    # the projected-area element peaks at 1/L^2 = 1e8 next to the source's
    # foot; a disc quadrature that forms its distance from the foot with
    # terms of size d^2 loses that peak to rounding
    cfg = CanonicalConfig(1e-4, 1.0, 0.5)
    assert abs(oracle.quad_disc(cfg, tol=1e-10) - omega_circ(cfg).value) <= 1e-10


def test_disc_quadrature_per_side_of_pi_over_2_meets_tol():
    # quad_disc's integrand next to the rim, taken as one quadrature per side
    # of psi = pi/2, each graded toward pi/2: the far side's |Kronrod - Gauss|
    # read 1.4e-10 where its error was 6.4e-10, and the sum missed by
    # 1.03e-10; QUADPACK's qk15 estimate does not read low there
    L, d = 0.37617635396819993, 0.9999959238026642
    c = (d - 1.0) * (d + 1.0)

    def side(sign, v):
        x = math.pi / 2 * math.exp(-v)
        cos_p, sin_p = math.cos(math.pi / 2 + sign * x), math.sin(math.pi / 2 + sign * x)
        near, q = d * cos_p, math.sqrt(max(0.0, cos_p * cos_p - c * (sin_p * sin_p)))
        # inside the rim the near distance is 0, so the integrand is 1 - cos t2
        s = math.sin(0.5 * math.atan2(near + q if near >= 0.0 else -c / (q - near), L))
        return x * 2.0 * s * s

    tol = 1e-10
    total = sum(oracle._run_quad(partial(side, sign), 0.0, 40.0, tol * TWO_PI, tol, "disc side") for sign in (-1.0, 1.0))
    assert abs(total / TWO_PI - omega_circ(CanonicalConfig(L, 1.0, d)).value) <= tol


@pytest.mark.parametrize("d", [0.0, 1e-9, 0.5, 0.99, 0.999999, 2.0])
@pytest.mark.parametrize("L", [10.0**-k for k in range(2, 17)])
def test_disc_meets_tol_on_thin_discs(L, d):
    # a disc from 1e-2 r down to 1e-16 r above the source, seen from the
    # axis, inside and just inside the rim and outside it: inside the rim
    # the answer nears 1/2, and a rule that misses the thin disc returns 0
    cfg = CanonicalConfig(L, 1.0, d)
    assert abs(oracle.quad_disc(cfg, tol=1e-10) - omega_circ(cfg).value) <= 1e-10


@pytest.mark.parametrize(
    "L, d",
    [
        (1.0, 0.999999),
        (1e-8, 1.0),
        (1e-8, 1.0 - 2.0**-53),
        (1e-12, 1.0 - 2.0**-53),
        (1e-10, 1.0 - 1e-12),
        (2.3764839326473235e-08, 0.999999999999999),
        (3.405606432686025e-07, 0.999999999999991),
        (3.990335737979116e-05, 0.9999999999958128),
        (0.37617635396819993, 0.9999959238026642),
        (1e-7, 1.0 + 2.0**-52),
    ],
)
@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_disc_meets_tol_next_to_the_rim(L, d, tol):
    # the integrand's features narrow to |d - r|, L and |d - r|/L next to
    # psi = pi/2: a kink at (L, d) = (r, 0.999999 r), and bumps whose area
    # a rule on psi, or on psi graded by a power, misses by 10 to 1000 tol.
    # Behind the foot the disc's far edge d cos psi + q is as small as
    # |d - r|, and formed as that sum it cancels to rounding
    cfg = CanonicalConfig(L, 1.0, d)
    assert abs(oracle.quad_disc(cfg, tol=tol) - omega_circ(cfg).value) <= tol


@pytest.mark.parametrize(
    "quad, what, cfg",
    [
        (oracle.quad_cyl0_phi, "phi-form quadrature", CanonicalConfig(0.01, 1.0, 1.001)),
        (oracle.quad_cyl0_gamma, "gamma-form quadrature", CanonicalConfig(0.01, 1.0, 1.001)),
        (oracle.quad_disc, "disc quadrature", CanonicalConfig(0.05, 1.0, 0.5)),
    ],
    ids=["quad_cyl0_phi", "quad_cyl0_gamma", "quad_disc"],
)
def test_quadratures_refuse_past_the_subdivision_budget(monkeypatch, quad, what, cfg):
    # refuse, don't lie: cases that need more than two bisections
    monkeypatch.setattr(oracle, "_SUBDIV", 2)
    with pytest.raises(OracleFailure, match=f"^{what} did not converge within 2 subdivisions"):
        quad(cfg)


def test_disc_requires_positive_L():
    with pytest.raises(DomainError):
        oracle.quad_disc(CanonicalConfig(0.0, 1.0, 2.0))


# ---------------------------------------------------------------- units of r

_QUADRATURES = [oracle.quad_cyl0_phi, oracle.quad_cyl0_gamma, oracle.quad_disc]


@pytest.mark.parametrize("quad", _QUADRATURES, ids=lambda q: q.__name__)
@pytest.mark.parametrize("d", [3.0, 0.5])
@pytest.mark.parametrize("k", [1e160, 1e-160, 1e200, 1e-200, 2.0**900, 2.0**-900])
def test_quadratures_are_scale_invariant(quad, d, k):
    # (L, r, d) = (2, 1, d) scaled by k gives the k = 1 outcome: the same
    # bits by a power of two, within 1e-13 relative otherwise, and for a
    # shell seen from inside the rim a DomainError at every scale. Raw
    # lengths squared over- or underflow at these scales
    unit, scaled = CanonicalConfig(2.0, 1.0, d), CanonicalConfig(2.0 * k, k, d * k)
    if quad is not oracle.quad_disc and d < 1.0:
        for cfg in (unit, scaled):
            with pytest.raises(DomainError):
                quad(cfg)
        return
    want, got = quad(unit), quad(scaled)
    if math.frexp(k)[0] == 0.5:
        assert got == want
    else:
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("quad", _QUADRATURES, ids=lambda q: q.__name__)
@pytest.mark.parametrize("L, r, d", [(2.0, 1e-300, 3e10), (1e10, 1e-300, 3e-300)])
def test_quadratures_reject_ratios_that_overflow(quad, L, r, d):
    with pytest.raises(DomainError, match="overflow in units of r"):
        quad(CanonicalConfig(L, r, d))


# ----------------------------------------------------------------- Monte Carlo


def test_mc_enclosed_hits_everything():
    est = oracle.mc_total(CylinderSpec(3.0, 2.0), SourcePoint(1.0, 1.5), 10_000, seed=7)
    assert est.hit_fraction == 1.0
    assert est.std_error == 0.0


def test_mc_same_seed_is_bit_identical():
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0)
    a = oracle.mc_total(cyl, src, 50_000, seed=42)
    b = oracle.mc_total(cyl, src, 50_000, seed=42)
    assert a == b


def test_mc_multi_block_run():
    # 2e7 samples test about 16k rays in four slices; must agree with the closed form
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.5)
    est = oracle.mc_total(cyl, src, 20_000_000, seed=0)
    ref = omega_total(cyl, src).value
    assert abs(est.hit_fraction - ref) <= 3.0 * est.std_error


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_three_sigma_agreement(seed):
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0)
    est = oracle.mc_total(cyl, src, 200_000, seed=seed)
    ref = omega_total(cyl, src).value
    assert abs(est.hit_fraction - ref) <= 3.0 * est.std_error


def test_mc_std_error_formula():
    est = oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), 30_000, seed=9)
    p = est.hit_fraction
    assert est.std_error == math.sqrt(p * (1.0 - p) / est.samples)


def test_mc_error_scales_like_inverse_sqrt_samples():
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.5)
    errs = {n: oracle.mc_total(cyl, src, n, seed=11).std_error for n in (10**5, 10**6, 10**7)}
    for n in (10**5, 10**6):
        ratio = errs[n] / errs[n * 10]
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.2)


def test_mc_axis_far_source_sees_near_face_cap():
    # from far below on the axis the silhouette is exactly the near disc
    est = oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(0.0, -10.0), 400_000, seed=3)
    cap = 0.5 * (1.0 - 10.0 / math.hypot(10.0, 1.0))
    assert abs(est.hit_fraction - cap) <= 3.0 * est.std_error


def test_mc_rejects_nonpositive_samples():
    with pytest.raises(DomainError):
        oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), 0)
    with pytest.raises(DomainError):
        oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), -5)


@pytest.mark.parametrize("samples, seed", [(2.5, 0), (1e6, 0), (1000, 1.5)])
def test_mc_rejects_non_integer_samples_and_seed(samples, seed):
    with pytest.raises(DomainError):
        oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), samples, seed=seed)


def test_mc_accepts_numpy_integer_samples_and_seed():
    est = oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), np.int64(1000), seed=np.uint32(1))
    assert est == oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), 1000, seed=1)
    assert type(est.samples) is int and type(est.seed) is int


@pytest.mark.parametrize(
    "fields",
    [
        (0.5, math.nan, 10, 0), (0.5, math.inf, 10, 0), (0.5, -0.1, 10, 0), (0.5, 0.1, 0, 0),
        (math.nan, 0.1, 10, 0), (0.5, 0.1, 10, -3), (0.5, 0.1, 10, 2**128),
    ],
)
def test_mc_estimate_rejects_fields_no_call_can_return(fields):
    with pytest.raises(DomainError):
        oracle.McEstimate(*fields)


def test_mc_estimate_accepts_the_extreme_fields_a_call_can_return():
    assert oracle.McEstimate(1.0, 0.0, 1, 2**128 - 1).seed == 2**128 - 1
    assert oracle.McEstimate(0.0, 0.0, 1, 0).hit_fraction == 0.0


# hits of the cell draw (one multinomial count draw for the certain boxes,
# the tested cells and the misses, then the tested rays slice by slice);
# any change to the Philox draws, their order, the strips, their boxes or
# the slicing shows up here. Each count is also a plausible draw: within 3
# binomial sigma of the closed form, and every ray for the enclosed source
@pytest.mark.parametrize(
    "L, r, d, z, samples, seed, hits",
    [
        (3.0, 1.0, 2.0, -1.0, 2_500_001, 42, 126635),
        (3.0, 1.0, 2.0, 1.5, 1_000_000, 0, 132876),
        (1.0, 1.0, 0.0, -10.0, 400_000, 3, 1049),
        (0.05, 1.0, 40.0, 0.01, 1_234_567, 5, 8),
        # on the rim: about 207k tested rays in 51 slices
        (2.0, 1.0, 1.0, 0.0, 777_777, 8, 194672),
        (3.0, 2.0, 1.0, 1.5, 10_000, 7, 10000),
        (1.0, 1.0, 0.5, -0.25, 65_537, 11, 23053),
        # about 6.9k tested rays in two slices
        (1.0, 1.0, 1.2, 0.5, 3_000_001, 41, 827239),
    ],
)
def test_mc_frozen_hit_counts(L, r, d, z, samples, seed, hits):
    cyl, src = CylinderSpec(L, r), SourcePoint(d, z)
    est = oracle.mc_total(cyl, src, samples, seed=seed)
    assert est.hit_fraction == hits / samples
    assert est.samples == samples and est.seed == seed
    ref = omega_total(cyl, src).value
    if ref == 1.0:
        assert hits == samples
    else:
        assert abs(hits - samples * ref) <= 3.0 * math.sqrt(samples * ref * (1.0 - ref))


def _isotropic_draws(samples, seed):
    # isotropic rays from one Philox stream, drawn without the band
    g = np.random.Generator(np.random.Philox(key=seed))
    return g.uniform(-1.0, 1.0, samples), g.uniform(-math.pi, math.pi, samples)


def _count_draw(L, d, z, samples, seed):
    # a call's cell counts (the certain boxes', each tested cell's, the
    # misses'), one multinomial draw from the key's stream at counter 0,
    # and the tested cells' boxes
    shares, boxes = oracle._cells(L, d, z)
    g = np.random.Generator(np.random.Philox(key=seed))
    return g.multinomial(samples, [*shares, max(0.0, 1.0 - sum(shares))]).tolist(), boxes


def _band_draw_hits(L, d, z, samples, seed):
    # mc_total's count by its documented layout, written apart from it: the
    # certain boxes' rays are hits untested; the tested rays, numbered in
    # cell order, go oracle._SLICE to a slice, and slice j draws from the
    # key's stream jumped j + 1 times cos(theta) of its rays, then their
    # azimuth phi, each ray's mapped onto its cell's box
    counts, boxes = _count_draw(L, d, z, samples, seed)
    cell = np.repeat(np.arange(boxes.shape[1]), counts[1:-1])
    lo, hi, phi_lo, phi_hi = boxes
    hits = counts[0]
    for j, first in enumerate(range(0, len(cell), oracle._SLICE)):
        c = cell[first:first + oracle._SLICE]
        g = np.random.Generator(np.random.Philox(key=seed).jumped(j + 1))
        u, v = g.random(len(c)), g.random(len(c))
        hits += oracle._slice_hits(lo[c] + u * (hi[c] - lo[c]), phi_lo[c] + v * (phi_hi[c] - phi_lo[c]), L, d, z)
    return hits


_EDGE = 2.0**-52
_CULL_CASES = [
    # (L, d, z) in units of r: far and near sources, both sides of the wall,
    # on the wall, rim, faces and axis, and one ulp either side of d = r
    (1.0, 1e-3, -0.5),
    (1e-6, 1e-3, 2.0),
    (1e3, 0.0, -1.0),
    (1.0, 0.0, 1.0),
    (1.0, 0.0, 0.0),
    (1e-6, 0.5, 1e-6),
    (1.0, 0.5, -1e-12),
    (1.0, 1.0 - _EDGE, 1.5),
    (1.0, 1.0, 0.5),
    (1.0, 1.0, 0.0),
    (1.0, 1.0, 1.0),
    (1e-6, 1.0, -1e-6),
    (1.0, 1.0 + _EDGE, 0.5),
    (1.0, 1.0 + _EDGE, 1.0),
    (1e3, 1.0 + _EDGE, -1.0),
    (1.0, 1.0 + 1e-12, 1.0 - 1e-12),
    (0.0, 1.0 + _EDGE, -1e-12),
    (1.0, 1.0 + _EDGE, 1e-12),
    (1.0, 1.0 + 4 * _EDGE, 1.0 - _EDGE),
    (1e3, 1.0 + 1e-14, 1e3 - 1e-12),
    (1.0, 1.0 + 1e-8, 0.0),
    (3.0, 2.0, -1.0),
    (3.0, 2.0, 3.0),
    (1e-6, 2.0, 0.0),
    (1e3, 10.0, 500.0),
    (0.05, 40.0, 0.01),
    (1.0, 1e3, -1e3),
    (1e-6, 1e3, 0.0),
    (1e3, 1e6, 0.0),
    (1.0, 1e6, 1.0),
    (1.0, 1e8, 0.5),
    (1.0, 1e10, 0.5),
    (1e3, 1e12, 0.0),
]


# (L, d, z, samples, seed): every cull case at 200,003 rays, and a narrow
# band (about 5e-6 of the sphere) and a wide one (about 5 %) at 2,500,001
_CULL_DRAWS = [pytest.param(*case, 200_003, 17, id="-".join(map(str, case))) for case in _CULL_CASES] + [
    (0.05, 40.0, 0.01, 2_500_001, 31), (3.0, 2.0, -1.0, 2_500_001, 31),
]


@pytest.mark.parametrize("L, d, z, samples, seed", _CULL_DRAWS)
def test_mc_cull_keeps_the_exact_test_count(L, d, z, samples, seed):
    # the cell draw culls every ray outside the band by never drawing it:
    # mc_total's count equals the exact test run, outside mc_total, on the
    # rays of the multinomial cell counts drawn on the tested cells' boxes,
    # each slice drawn and tested one by one from its own stream
    est = oracle.mc_total(CylinderSpec(L, 1.0), SourcePoint(d, z), samples, seed=seed)
    assert est.hit_fraction == _band_draw_hits(L, d, z, samples, seed) / samples


_WHOLE_SPHERE = (-1.0, 1.0, -math.pi, math.pi)
# sources 1e-9 r outside the wall, where the strips next to the tangent
# hold the silhouette of a nearly flat wall
_NEAR_WALL_CASES = [(1.0, 1.0 + 1e-9, 0.5), (1.0, 1.0 + 1e-9, -0.5), (1.0, 1.0 + 1e-9, 1.5), (1e-3, 1.0 + 1e-9, 0.0)]


def _strips(L, d, z):
    # each strip's (possible lo, certain lo, certain hi, possible hi, phi lo,
    # phi hi), read off its two tested cells: the one below its certain box
    # and the one above it
    boxes = oracle._cells(L, d, z)[1]
    below, above = np.split(boxes, 2, axis=1)
    return list(zip(below[0], below[1], above[0], above[1], below[2], below[3]))


def _across(rng, phi_lo, phi_hi, n):
    # azimuths across a strip: uniform inside, on both edges, and their mirrors
    phi = np.concatenate([rng.uniform(phi_lo, phi_hi, n), [phi_lo, phi_hi] * (n // 8)])
    return np.concatenate([phi, -phi])


@pytest.mark.parametrize("L, d, z", _CULL_CASES + _NEAR_WALL_CASES)
def test_mc_rays_just_outside_the_band_miss(L, d, z):
    # rays up to `width` outside an edge of the widened, clipped band, and
    # outside each strip's possible box in cos(theta) across the strip's
    # azimuths, the strip next to the tangent and the last one before it
    # included: the exact test must call every one of them a miss, or the
    # cull would drop a hit (an edge clipped to the sphere has no rays
    # outside it)
    c_lo, c_hi, phi_lo, phi_hi = oracle._band(L, d, z)
    rng = np.random.default_rng(3)
    n = 4000
    cos_in = rng.uniform(c_lo, c_hi, n)
    phi_in = rng.uniform(phi_lo, phi_hi, n)
    for width in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
        step = rng.uniform(0.0, width, n)
        rays = [
            (np.minimum(c_hi + step, 1.0), phi_in),
            (np.maximum(c_lo - step, -1.0), phi_in),
            (cos_in, np.minimum(phi_hi + step, math.pi)),
            (cos_in, np.maximum(phi_lo - step, -math.pi)),
        ]
        for cos_t, phi in rays:
            out = (cos_t < c_lo) | (cos_t > c_hi) | (phi < phi_lo) | (phi > phi_hi)
            assert oracle._slice_hits(cos_t[out], phi[out], L, d, z) == 0, width
    for j, (p_lo, _, _, p_hi, q_lo, q_hi) in enumerate(_strips(L, d, z)):
        assert c_lo <= p_lo <= p_hi <= c_hi and 0.0 <= q_lo <= q_hi <= phi_hi, j
        phi = _across(rng, q_lo, q_hi, 400)
        for width in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
            step = rng.uniform(0.0, width, len(phi))
            for cos_t in (np.minimum(p_hi + step, 1.0), np.maximum(p_lo - step, -1.0)):
                out = (cos_t < p_lo) | (cos_t > p_hi)
                assert oracle._slice_hits(cos_t[out], phi[out], L, d, z) == 0, (j, width)


def _benchmark_like_sources(seed, n):
    # (L, d, z) at r = 1 drawn as the mc_oracle benchmark draws them: L and d
    # log-uniform on [0.01, 100], z uniform on [-2 L, 3 L], enclosed sources
    # redrawn
    rng, out = random.Random(seed), []
    while len(out) < n:
        L, d = (math.exp(rng.uniform(math.log(0.01), math.log(100.0))) for _ in range(2))
        z = rng.uniform(-2.0 * L, 3.0 * L)
        if not (d < 1.0 and 0.0 <= z <= L):
            out.append((L, d, z))
    return out


_CORE_CASES = (
    _CULL_CASES
    + [(1.0, 1.0 - _EDGE / 2, 0.5), (1.0, 1.0 - _EDGE / 2, -0.5), (1.0, 1.0 + _EDGE, -0.5), (1.0, 1.0 - _EDGE / 2, 2.0)]
    + [(1.0, 1e150, 0.5)]
    + _benchmark_like_sources(27, 64)
)


@pytest.mark.parametrize("L, d, z", _CORE_CASES + _NEAR_WALL_CASES)
def test_mc_rays_inside_the_core_hit(L, d, z):
    # the mirror of the test above: the exact test must call every ray in
    # every strip's certain box a hit, its edges and corners and its mirror
    # at -phi included, or counting the certain boxes' rays untested would
    # add a miss as a hit. The ray farthest out in phi decides the box, so a
    # box taken at its strip's inner edge fails here
    c_lo, c_hi, _, phi_hi = oracle._band(L, d, z)
    strips = _strips(L, d, z)
    certain = [strip for strip in strips if strip[1] < strip[2]]
    if not certain:
        # only where the band is narrower than its and the boxes' margins
        assert min(c_hi - c_lo, phi_hi) < 4.0 * oracle._SLACK
        return
    # the strip next to the tangent of an outside source has none
    assert d <= 1.0 or strips[-1][1] == strips[-1][2]
    rng = np.random.default_rng((_CORE_CASES + _NEAR_WALL_CASES).index((L, d, z)))
    n = 400
    for j, (p_lo, k_lo, k_hi, p_hi, q_lo, q_hi) in enumerate(certain):
        assert p_lo <= k_lo < k_hi <= p_hi, j
        phi = _across(rng, q_lo, q_hi, n)
        cos_in = rng.uniform(k_lo, k_hi, len(phi))
        cos_edge = np.where(rng.random(len(phi)) < 0.5, k_lo, k_hi)
        corners = np.array([k_lo, k_lo, k_hi, k_hi] * 2), np.array([q_lo, q_hi, q_lo, q_hi, -q_lo, -q_hi, -q_lo, -q_hi])
        for cos_t, phi_t in [(cos_in, phi), (cos_edge, phi), corners]:
            assert oracle._slice_hits(cos_t, phi_t, L, d, z) == len(cos_t), j


@pytest.mark.parametrize("L, d, z", _CULL_CASES + [(1.0, 0.3, 1.0), (3.0, 0.5, 1.5), (1.0, 5.0, 0.5)])
def test_mc_cells_and_their_mirrors_tile_the_possible_boxes(L, d, z):
    # the strips run from phi = 0 to the band's edge without gap or overlap;
    # in each the two tested cells and the certain box between them fill
    # the possible box; each share is a cell's area and its mirror's at
    # -phi, (hi - lo)(phi hi - phi lo) / (2 pi) of the sphere's, so that a
    # source inside the cylinder, whose strips cover the sphere, has shares
    # summing to 1
    shares, boxes = oracle._cells(L, d, z)
    K = oracle._STRIPS
    assert shares.shape == (2 * K + 1,) and boxes.shape == (4, 2 * K)
    strips = _strips(L, d, z)
    phi = [strip[4] for strip in strips] + [strips[-1][5]]
    assert phi[0] == 0.0 and phi[-1] == oracle._band(L, d, z)[3] and all(np.diff(phi) >= 0.0)
    area = (boxes[1] - boxes[0]) * (boxes[3] - boxes[2]) / TWO_PI
    assert np.allclose(shares[1:], area, rtol=1e-15, atol=0.0)
    certain = sum((k_hi - k_lo) * (q_hi - q_lo) for _, k_lo, k_hi, _, q_lo, q_hi in strips) / TWO_PI
    possible = sum((p_hi - p_lo) * (q_hi - q_lo) for p_lo, _, _, p_hi, q_lo, q_hi in strips) / TWO_PI
    assert shares[0] == pytest.approx(certain, rel=1e-14, abs=1e-300)
    assert sum(shares) == pytest.approx(possible, rel=1e-14)
    assert possible <= oracle._share(*oracle._band(L, d, z)) * (1.0 + 1e-15)
    if d < 1.0 and 0.0 < z < L:
        assert sum(shares) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("L, d, z", [(3.0, 0.5, 1.5), (1.0, 0.0, 0.5), (1.0, 1.0, 0.5), (1.0, 1.0 - _EDGE, 0.5), (1e-6, 0.99, 5e-7)])
def test_mc_band_of_an_enclosed_or_wall_source_is_the_whole_sphere(L, d, z):
    # the band culls nothing here; only the strips' certain boxes spare these sources exact tests
    assert oracle._band(L, d, z) == _WHOLE_SPHERE


def test_mc_band_of_a_face_source_is_the_half_sphere_below():
    band = c_lo, c_hi, phi_lo, phi_hi = oracle._band(1.0, 0.3, 1.0)
    assert c_lo == -1.0 and 0.0 < c_hi <= 2e-9 and (phi_lo, phi_hi) == (-math.pi, math.pi)
    assert oracle._share(*band) == (c_hi + 1.0) / 2.0


def test_mc_far_band_keeps_few_rays():
    # the mc_oracle-like far source: about 0.5 % of directions reach the cylinder
    cos_t, phi = _isotropic_draws(100_000, 5)
    c_lo, c_hi, phi_lo, phi_hi = oracle._band(0.05, 40.0, 0.01)
    kept = np.count_nonzero((cos_t >= c_lo) & (cos_t <= c_hi) & (phi >= phi_lo) & (phi <= phi_hi))
    assert kept < 100


@pytest.mark.parametrize("L, d, z", _CULL_CASES + [(1.0, 0.3, 1.0), (3.0, 0.5, 1.5), (1.0, 5.0, 0.5)])
def test_mc_draw_box_is_the_clipped_band_and_its_area_share(L, d, z):
    band = c_lo, c_hi, phi_lo, phi_hi = oracle._band(L, d, z)
    w = oracle._share(*band)
    assert -1.0 <= c_lo < c_hi <= 1.0 and -math.pi <= phi_lo < phi_hi <= math.pi and 0.0 < w <= 1.0
    assert w == pytest.approx((c_hi - c_lo) * (phi_hi - phi_lo) / (4.0 * math.pi), rel=1e-15)
    # the whole rectangle, with w = 1 exactly, for a source inside or on the wall only
    enclosed = d <= 1.0 and 0.0 < z < L
    assert (band == _WHOLE_SPHERE) == enclosed == (w == 1.0)


@pytest.mark.parametrize("L, d, z", _CORE_CASES)
def test_mc_boxes_and_exact_test_are_symmetric_in_phi(L, d, z):
    # the band is symmetric about phi = 0 bit for bit, and a ray at -phi
    # gets the exact test's verdict at phi: on the band, and within 64 ulps
    # of each strip's edges in phi, so that a strip's rays at phi >= 0 can
    # stand for its mirror's
    band = oracle._band(L, d, z)
    assert band[2] == -band[3]
    rng = np.random.default_rng(_CORE_CASES.index((L, d, z)))
    n = 4000
    edges = np.array([strip[5] for strip in _strips(L, d, z)])[rng.integers(0, oracle._STRIPS, n)]
    cos_t = rng.uniform(band[0], band[1], 2 * n)
    phi = np.concatenate([rng.uniform(0.0, band[3], n), edges + rng.integers(-64, 65, n) * np.spacing(edges)])
    hits = oracle._hit_mask(cos_t, phi, L, d, z)
    assert np.array_equal(oracle._hit_mask(cos_t, -phi, L, d, z), hits)


@pytest.mark.parametrize("L, d, z, n", [(1.0, 5.0, 0.5, 100_000), (1.0, 0.3, 1.0, 10_000)])
def test_mc_in_band_count_is_binomial(monkeypatch, L, d, z, n):
    # over 1,000 seeds, the counts one call draws for the certain boxes, the
    # two tested cells of each strip and the misses, 2 K + 2 categories,
    # follow the multinomial law over their area shares: each count, and the
    # tested rays' sum, k ~ Binomial(n, w) with w its share, has mean n w
    # and variance n w (1 - w), each within 4 standard errors (a narrow
    # band, and a face source whose band is clipped), a cell of share 0
    # draws no ray; and the certain boxes' count has covariance -n w w'
    # with each other cell's
    calls = []

    def recording(key, counts, boxes, L, d, z):
        calls.append(counts.tolist())
        return 0

    # with the tested rays' hits at 0, a call's hits are the certain boxes' count
    monkeypatch.setattr(oracle, "_run_hits", recording)
    shares = oracle._cells(L, d, z)[0].tolist()
    assert shares[0] > 0.0 and len(shares) == 2 * oracle._STRIPS + 1
    shares.append(1.0 - sum(shares))
    N = 1000
    rows = []
    for seed in range(N):
        calls.clear()
        est = oracle.mc_total(CylinderSpec(L, 1.0), SourcePoint(d, z), n, seed=seed)
        (tested,) = calls
        hits = round(est.hit_fraction * n)
        rows.append([hits, *tested, n - hits - sum(tested)])
    counts = np.array(rows, dtype=float)
    assert counts.shape[1] == 2 * oracle._STRIPS + 2
    cells = [(counts[:, i], w) for i, w in enumerate(shares)] + [(counts[:, 1:-1].sum(axis=1), sum(shares[1:-1]))]
    for ks, w in cells:
        if w == 0.0:
            assert not ks.any()
            continue
        var = n * w * (1.0 - w)
        kurt = (1.0 - 6.0 * w * (1.0 - w)) / var  # excess kurtosis of Binomial(n, w)
        assert abs(ks.mean() - n * w) <= 4.0 * math.sqrt(var / N)
        assert abs(ks.var(ddof=1) - var) <= 4.0 * var * math.sqrt(2.0 / (N - 1) + kurt / N)
    # the certain boxes' count against each other cell's: the sample
    # covariance of two counts has standard error about sqrt(var var' / N)
    # and more
    for i in range(1, len(shares)):
        cov = np.cov(counts[:, 0], counts[:, i])[0, 1]
        var0, var1 = (n * w * (1.0 - w) for w in (shares[0], shares[i]))
        assert abs(cov + n * shares[0] * shares[i]) <= 4.0 * math.sqrt(2.0 * var0 * var1 / N)


def test_mc_many_seeds_agree_with_the_closed_form():
    # 200 seeds x 10^5 rays on five sources (below the base outside the
    # wall, a narrow band beside the shell, a face source and one inside the
    # rim below the base, both clipped, and one above the top outside the
    # wall): the z-scores against the closed form, in binomial sigma at the
    # closed-form value, pool to mean 0 and variance 1
    zs = []
    n = 100_000
    for L, d, z in [(3.0, 2.0, -1.0), (1.0, 5.0, 0.5), (1.0, 0.3, 1.0), (1.0, 0.5, -0.25), (1.0, 2.0, 2.5)]:
        cyl, src = CylinderSpec(L, 1.0), SourcePoint(d, z)
        ref = omega_total(cyl, src).value
        sigma = math.sqrt(ref * (1.0 - ref) / n)
        zs += [(oracle.mc_total(cyl, src, n, seed=seed).hit_fraction - ref) / sigma for seed in range(200)]
    zs = np.array(zs)
    assert abs(zs.mean()) <= 0.15
    assert 0.8 <= zs.var(ddof=1) <= 1.2
    assert np.abs(zs).max() <= 5.0


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
def test_mc_count_is_bit_identical_at_power_of_two_scales(scale):
    unit = oracle.mc_total(CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0), 300_000, seed=21)
    scaled = oracle.mc_total(CylinderSpec(3.0 * scale, scale), SourcePoint(2.0 * scale, -scale), 300_000, seed=21)
    assert scaled == unit


def test_mc_enclosed_source_at_tiny_scale_hits_everything():
    # raw lengths squared underflow here; in units of r the source is inside
    est = oracle.mc_total(CylinderSpec(1e-200, 1e-200), SourcePoint(5e-201, 2e-201), 100_000, seed=2)
    assert est.hit_fraction == 1.0


def test_mc_outside_source_at_tiny_scale_matches_closed_form():
    cyl, src = CylinderSpec(1e-200, 1e-200), SourcePoint(2e-200, 1e-201)
    est = oracle.mc_total(cyl, src, 400_000, seed=6)
    ref = omega_total(cyl, src).value
    assert ref == pytest.approx(0.0595, abs=5e-4)
    assert abs(est.hit_fraction - ref) <= 3.0 * est.std_error


def test_mc_very_far_source_is_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(1e200, 0.5), 2_000_000, seed=1)
    assert est.hit_fraction == 0.0 and est.std_error == 0.0 and est.samples == 2_000_000


@pytest.mark.parametrize("d", [1e6, 1e7, 1e8, 1e10, 1e14])
def test_slice_hits_keeps_the_tangent_of_a_far_source(d):
    # nearly horizontal rays from z = r/2 at L = r reach the wall inside the
    # slab, so the azimuth alone decides: a hit within asin(r/d) of phi = 0
    L, z = 1.0, 0.5
    tangent = math.asin(1.0 / d)
    rng = np.random.default_rng(8)
    n = 400_000
    cos_t = rng.uniform(-0.4 / d, 0.4 / d, n)
    phi = rng.choice((-1.0, 1.0), n) * rng.uniform(0.0, 3.0 * tangent, n)
    off = np.abs(phi) / tangent
    outside, inside = (off >= 1.05) & (off <= 3.0), off <= 0.95
    assert np.count_nonzero(outside) > n // 2 and np.count_nonzero(inside) > n // 5
    assert oracle._slice_hits(cos_t[outside], phi[outside], L, d, z) == 0
    assert oracle._slice_hits(cos_t[inside], phi[inside], L, d, z) == np.count_nonzero(inside)


def test_mc_enclosed_source_in_a_huge_cylinder_hits_everything_without_warnings():
    # (L - z)/vz overflows for nearly horizontal rays; that is a hit, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = oracle.mc_total(CylinderSpec(1.7e308, 1.0), SourcePoint(0.5, 0.5), 10**5)
    assert est.hit_fraction == 1.0


@pytest.mark.parametrize(
    "L, r, d, z", [(1e308, 0.5, 1.0, 0.0), (1.0, 1e-10, 1e300, 0.0), (1.0, 0.5, 0.0, -1e308)]
)
def test_mc_rejects_ratios_that_overflow(L, r, d, z):
    with pytest.raises(DomainError, match="overflow in units of r"):
        oracle.mc_total(CylinderSpec(L, r), SourcePoint(d, z), 1000)


# (L, d, z, cos(theta), az, hit) at r = 1, az = phi + pi the azimuth from the
# direction away from the axis, in which the rays were first tabulated and
# which their test ids spell: the tests hand the exact test phi = az - pi,
# which is exact for az = pi. Surfaces are closed and a hit needs t > 0: a
# ray that runs along a face or the wall hits, a ray that only touches the
# surface at its own source point does not.
_DEGENERATE_RAYS = [
    # on the axis below the base
    (1.0, 0.0, -1.0, 1.0, 0.0, True),
    (1.0, 0.0, -1.0, -1.0, 0.0, False),
    (1.0, 0.0, -1.0, 0.0, 1.0, False),
    (1.0, 0.0, -1.0, 0.7072, 2.0, True),  # reaches the base inside the rim
    (1.0, 0.0, -1.0, 0.7070, 2.0, False),  # passes the base outside the rim
    # on the axis inside, and on the base plane inside the rim
    (1.0, 0.0, 0.5, 0.0, 0.0, True),
    (1.0, 0.0, 0.5, -1.0, 0.0, True),
    (1.0, 0.5, 0.0, 0.0, 0.0, True),  # along the base
    (1.0, 0.5, 0.0, 1.0, 0.0, True),
    (1.0, 0.5, 0.0, -1.0, 0.0, False),
    (1.0, 0.5, 0.0, -1e-3, 1.0, False),
    # on the rim corner
    (1.0, 1.0, 0.0, 1.0, 0.0, True),  # up along the wall
    (1.0, 1.0, 0.0, -1.0, 0.0, False),
    (1.0, 1.0, 0.0, 0.0, math.pi, True),  # across the base
    (1.0, 1.0, 0.0, 0.0, 0.0, False),
    (1.0, 1.0, 0.0, 0.5, math.pi, True),
    (1.0, 1.0, 0.0, -0.5, math.pi, False),
    (1.0, 1.0, 0.0, 0.5, 0.0, False),
    # on the wall
    (1.0, 1.0, 0.5, 1.0, 0.0, True),
    (1.0, 1.0, 0.5, -1.0, 0.0, True),
    (1.0, 1.0, 0.5, 0.0, math.pi, True),
    (1.0, 1.0, 0.5, 0.0, 0.0, False),
    # on the top plane outside the rim
    (1.0, 2.0, 1.0, 0.0, math.pi, True),  # along the top face
    (1.0, 2.0, 1.0, 0.0, 0.0, False),
    (1.0, 2.0, 1.0, 1e-3, math.pi, False),
    (1.0, 2.0, 1.0, -1e-3, math.pi, True),
    (1.0, 2.0, 1.0, 1.0, 0.0, False),
    (1.0, 2.0, 1.0, -1.0, 0.0, False),
    # straight above the rim: down the wall line
    (1.0, 1.0, 2.0, -1.0, 0.0, True),
    (1.0, 1.0, 2.0, 1.0, 0.0, False),
    # outside the wall: horizontal rays just inside and outside the tangent
    (1.0, 2.0, 0.5, 0.0, math.pi - math.pi / 6 + 1e-9, True),
    (1.0, 2.0, 0.5, 0.0, math.pi - math.pi / 6 - 1e-9, False),
    (1.0, 2.0, 0.5, 0.0, math.pi + math.pi / 6 - 1e-9, True),
    (1.0, 2.0, 0.5, 0.0, math.pi + math.pi / 6 + 1e-9, False),
    (1.0, 2.0, 0.5, 1.0, 0.0, False),
    (1.0, 2.0, 0.5, -1.0, 0.0, False),
    # the same tangent rays, tilted down onto the base
    (1.0, 2.0, 1.5, -0.5, math.pi - math.pi / 6 + 1e-9, True),
    (1.0, 2.0, 1.5, -0.5, math.pi - math.pi / 6 - 1e-9, False),
    # a flat disc (L = 0) seen edge on from its own plane
    (0.0, 2.0, 0.0, 0.0, math.pi, True),
    (0.0, 2.0, 0.0, 1e-3, math.pi, False),
]


@pytest.mark.parametrize("L, d, z, cos_t, az, hit", _DEGENERATE_RAYS)
def test_slice_hits_degenerate_rays(L, d, z, cos_t, az, hit):
    got = oracle._slice_hits(np.array([cos_t]), np.array([az - math.pi]), L, d, z)
    assert got == int(hit)


def test_slice_hits_counts_each_ray_once():
    cos_t = np.array([r[3] for r in _DEGENERATE_RAYS[:5]])
    phi = np.array([r[4] for r in _DEGENERATE_RAYS[:5]]) - math.pi
    assert oracle._slice_hits(cos_t, phi, 1.0, 0.0, -1.0) == 2


def _t_interval_hits(cos_t, phi, L, px, pz):
    # reference model: the ray-parameter form of the exact test, the source
    # at (px, 0, pz) and the axis along x = y = 0, so that phi = 0 points
    # along -x. The ray is inside the infinite shell for t between the roots
    # of a t^2 + 2 b t + c, c = px^2 - 1, with b^2 - a c taken as
    # vx^2 - c vy^2, and inside the slab between -pz / vz and (L - pz) / vz;
    # it hits where the two intervals meet at t > 0
    c = px * px - 1.0
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    vx, vy = -sin_t * np.cos(phi), sin_t * np.sin(phi)
    a, b = vx * vx + vy * vy, px * vx
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        disc = vx * vx - c * (vy * vy)
        sq = np.sqrt(np.maximum(0.0, disc))
        rad_lo, rad_hi = (-b - sq) / a, (-b + sq) / a
        ax_a, ax_b = (0.0 - pz) / cos_t, (L - pz) / cos_t
    rad_lo, rad_hi = np.where(disc < 0.0, np.inf, rad_lo), np.where(disc < 0.0, -np.inf, rad_hi)
    # a vertical ray keeps its own interval whatever disc is
    vertical = a == 0.0
    rad_lo = np.where(vertical, -np.inf if c <= 0.0 else np.inf, rad_lo)
    rad_hi = np.where(vertical, np.inf if c <= 0.0 else -np.inf, rad_hi)
    in_slab, horizontal = 0.0 <= pz <= L, cos_t == 0.0
    ax_lo = np.where(horizontal, -np.inf if in_slab else np.inf, np.minimum(ax_a, ax_b))
    ax_hi = np.where(horizontal, np.inf if in_slab else -np.inf, np.maximum(ax_a, ax_b))
    lo, hi = np.maximum(rad_lo, ax_lo), np.minimum(rad_hi, ax_hi)
    return (lo <= hi) & (hi > 0.0)


def _edge_margins(L, d, z, cos_t, phi):
    # the exact test's three conditions for one ray at 40 digits, each as its
    # distance from the edge relative to the size of its terms: the shell
    # (cos^2 phi - c sin^2 phi), the base and the top
    with mpmath.workdps(40):
        L, d, z, ct, phi = (mpmath.mpf(float(v)) for v in (L, d, z, cos_t, phi))
        cp, sp, st = mpmath.cos(phi), mpmath.sin(phi), mpmath.sqrt(1 - ct * ct)
        c = d * d - 1
        s2 = cp * cp - c * sp * sp
        shell = abs(s2) / max(cp * cp, abs(c) * sp * sp)
        if s2 < 0:
            return [shell]
        v1, v2 = max(0, d * cp - mpmath.sqrt(s2)), d * cp + mpmath.sqrt(s2)
        low, high = (v2 if z < 0 else v1), (v1 if z < L else v2)
        base = abs(z * st + low * ct) / (abs(z) * st + low * abs(ct) + mpmath.mpf(2) ** -1074)
        top = abs((L - z) * st - high * ct) / (abs(L - z) * st + high * abs(ct) + mpmath.mpf(2) ** -1074)
        return [float(m) for m in (shell, base, top)]


_TOUCH = 2.0**-53
_MODEL_SOURCES = [
    # (L, d, z) in units of r: the axis, both planes inside, on and outside
    # the rim, the wall, one ulp either side of it, far sources and L = 0
    (1.0, 0.0, -1.0), (1.0, 0.0, 0.5), (1.0, 0.0, 2.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0),
    (1.0, 0.5, 0.0), (1.0, 0.5, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (1.0, 2.0, 0.0), (1.0, 2.0, 1.0),
    (1.0, 1.0, 0.5), (1.0, 1.0, -0.5), (1.0, 1.0, 2.0),
    (1.0, 1.0 - _TOUCH, 0.5), (1.0, 1.0 + _EDGE, 0.5), (1.0, 1.0 + _EDGE, -1e-12), (1.0, 1.0 - _TOUCH, 1.5),
    (1.0, 1.0 + _EDGE, 0.0), (1.0, 1.0 - _TOUCH, 0.0), (1.0, 1.0 + _EDGE, 1.0), (1.0, 1.0 - _TOUCH, -2.0),
    (1.0, 1e3, 0.5), (1.0, 1e6, 0.5), (1.0, 1e8, -1.0), (1.0, 1e10, 0.5), (1e3, 1e12, 0.0), (1.0, 1e14, 0.5),
    (0.0, 2.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.5, -1.0), (0.0, 2.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0 + _EDGE, -1.0),
    (3.0, 2.0, -1.0), (0.05, 40.0, 0.01), (1e-6, 0.5, 1e-6), (1e3, 0.0, -1.0), (1.0, 0.3, 1.0),
]


@pytest.mark.parametrize("L, d, z", _MODEL_SOURCES)
def test_exact_test_matches_the_t_interval_model_ray_by_ray(L, d, z):
    # seeded rays over the whole sphere, on the clipped band, and across the
    # silhouette (1.5 times asin(r/d) either side of phi = 0)
    n = 20_000
    rng = np.random.default_rng(_MODEL_SOURCES.index((L, d, z)))
    c_lo, c_hi, phi_lo, phi_hi = oracle._band(L, d, z)
    half = math.asin(1.0 / d) if d > 1.0 else math.pi
    for cos_t, phi in [
        (rng.uniform(-1.0, 1.0, n), rng.uniform(-math.pi, math.pi, n)),
        (rng.uniform(c_lo, c_hi, n), rng.uniform(phi_lo, phi_hi, n)),
        (rng.uniform(c_lo, c_hi, n), rng.uniform(-1.5, 1.5, n) * half),
    ]:
        got = oracle._hit_mask(cos_t, phi, L, d, z)
        split = np.flatnonzero(got != _t_interval_hits(cos_t, phi, L, d, z))
        assert split.size == 0, [(cos_t[j], phi[j], got[j], _edge_margins(L, d, z, cos_t[j], phi[j])) for j in split[:5]]
        assert oracle._slice_hits(cos_t, phi, L, d, z) == np.count_nonzero(got)


@pytest.mark.parametrize(
    "L, d, z",
    [(1.0, 1.0 + _EDGE, 0.5), (1.0, 1.0 - _TOUCH, 1.5), (0.0, 0.5, -1.0), (0.05, 40.0, 0.01), (3.0, 2.0, -1.0), (1.0, 1e8, -1.0)],
)
def test_exact_test_and_t_interval_model_split_only_within_an_ulp_of_an_edge(L, d, z):
    # rays within 64 ulps of the silhouette (or of -+ pi/2) in phi and of a
    # slab edge seen at the near, far and tangent distances in cos(theta):
    # where the two tests disagree, the ray lies within 2 eps of an edge at 40
    # digits, so either verdict is a rounding of it
    c, n = d * d - 1.0, 20_000
    rng = np.random.default_rng(5)
    half = math.asin(1.0 / d) if d > 1.0 else math.pi / 2
    edge = np.where(rng.random(n) < 0.5, -half, half)
    phi = edge + rng.integers(-64, 65, n) * np.spacing(edge)
    u = np.array([max(0.0, d - 1.0), d + 1.0, math.sqrt(abs(c)), d])[rng.integers(0, 4, n)]
    steep = np.cos(np.arctan2(u, np.where(rng.random(n) < 0.5, -z, L - z)))
    cos_t = np.clip(steep + rng.integers(-64, 65, n) * np.spacing(np.abs(steep)), -1.0, 1.0)
    got = oracle._hit_mask(cos_t, phi, L, d, z)
    split = np.flatnonzero(got != _t_interval_hits(cos_t, phi, L, d, z))
    assert split.size <= n // 100
    for j in split:
        assert min(_edge_margins(L, d, z, cos_t[j], phi[j])) <= 2.0 * _EDGE, (cos_t[j], phi[j])


def test_exact_test_of_a_vertical_ray_when_l_minus_z_overflows():
    # L - z is inf: the largest double in its place keeps the hit
    L, d, z = 1e308, 0.5, -1e308
    cos_t, phi = np.array([1.0, 1.0, -1.0, 0.5]), np.array([math.pi, 0.0, math.pi, 1.0 - math.pi])
    want = _t_interval_hits(cos_t, phi, L, d, z)
    assert want.tolist() == [True, True, False, False]
    assert oracle._hit_mask(cos_t, phi, L, d, z).tolist() == want.tolist()


@pytest.mark.parametrize("key", [0, 5, 2**64 - 1, 2**64 + 5, 2**127 + 3])
def test_mc_block_stream_starts_at_its_counter(key):
    # a call draws the key's Philox stream in blocks of 2^128 counter
    # values: the count draw takes block 0 and slice j block j + 1. Block b,
    # Philox(key) started at counter b * 2^128, is the key's stream jumped b
    # times, and no slice's block starts as the count draw's
    count_draw = np.random.Generator(np.random.Philox(key=key)).random(4)
    for j in range(64):
        jumped = np.random.Generator(np.random.Philox(key=key).jumped(j + 1)).random(4)
        started = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, j + 1, 0])).random(4)
        assert np.array_equal(jumped, started) and not np.array_equal(started, count_draw), j


def test_mc_seeds_past_64_bits_are_distinct_keys():
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0)
    low = oracle.mc_total(cyl, src, 100_000, seed=5)
    high = oracle.mc_total(cyl, src, 100_000, seed=5 + 2**64)
    assert high.seed == 5 + 2**64 and high.hit_fraction != low.hit_fraction
    top = oracle.mc_total(cyl, src, 100_000, seed=2**128 - 1)
    assert top.hit_fraction != low.hit_fraction


@pytest.mark.parametrize("seed", [-1, -(2**64), 2**128, 2**200])
def test_mc_rejects_seeds_outside_the_philox_key_range(seed):
    with pytest.raises(DomainError, match="seed"):
        oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), 1000, seed=seed)


# tested rays: about 350 and 1.5k, so that all the cells with rays share
# one part slice; about 6.9k, so that a slice end cuts a cell; and about
# 69k, 17 slices, so that a cell spans more than two slices. The slices
# that cells share must still count as the sum of their blocks, each slice
# drawn from its own stream
_SHARED_SLICE_CASES = [
    (1.0, 4.0, 0.5, 4_000_003), (3.0, 2.0, -1.0, 3_000_001), (1.0, 1.2, 0.5, 3_000_001), (1.0, 1.2, 0.5, 30_000_001),
]


@pytest.mark.parametrize("L, d, z, samples", _SHARED_SLICE_CASES)
def test_mc_shared_slices_count_is_the_sum_of_its_blocks(monkeypatch, L, d, z, samples):
    seed = 41
    counts, boxes = _count_draw(L, d, z, samples, seed)
    ends = list(accumulate(counts[1:-1]))
    slices = -(-ends[-1] // oracle._SLICE)
    # the (slice, cell) pairs that share rays
    pieces = {
        (j, i)
        for i, (a, b) in enumerate(zip([0, *ends[:-1]], ends))
        if a < b
        for j in range(a // oracle._SLICE, -(-b // oracle._SLICE))
    }
    cells = sum(1 for k in counts[1:-1] if k)
    assert len(pieces) > slices and (slices == 1 or len(pieces) > cells)
    lengths, exact = [], oracle._slice_hits

    def recording(cos_t, phi, *args):
        lengths.append(len(cos_t))
        return exact(cos_t, phi, *args)

    # one run of all the slices, in the caller's thread: full slices, then the rest
    monkeypatch.setattr(oracle, "_slice_hits", recording)
    one_run = counts[0] + oracle._run_hits(seed, np.array(counts[1:-1]), boxes, L, d, z)
    monkeypatch.setattr(oracle, "_slice_hits", exact)
    q, rest = divmod(ends[-1], oracle._SLICE)
    assert lengths == [oracle._SLICE] * q + [rest] * (rest > 0)

    blockwise = _band_draw_hits(L, d, z, samples, seed)
    assert one_run == blockwise
    est = oracle.mc_total(CylinderSpec(L, 1.0), SourcePoint(d, z), samples, seed=seed)
    assert est.hit_fraction == blockwise / samples


def test_mc_cost_follows_the_tested_rays_not_the_samples(monkeypatch):
    # 10^12 rays from a far source beside the shell: about 1.6e5 in the band
    # and 160 tested, so two Philox streams (the count draw's and one
    # slice's) and one exact-test call
    L, d, z, samples = 1.0, 1000.0, 0.5, 10**12
    calls, streams, exact, stream = [], [], oracle._slice_hits, oracle._stream

    def counting(cos_t, phi, *args):
        calls.append(len(cos_t))
        return exact(cos_t, phi, *args)

    def counted_stream(key, counter):
        streams.append(counter)
        return stream(key, counter)

    monkeypatch.setattr(oracle, "_slice_hits", counting)
    monkeypatch.setattr(oracle, "_stream", counted_stream)
    cyl, src = CylinderSpec(L, 1.0), SourcePoint(d, z)
    est = oracle.mc_total(cyl, src, samples, seed=2)
    assert streams == [0, 1] and len(calls) == 1 and 0 < calls[0] < oracle._SLICE
    assert abs(est.hit_fraction - omega_total(cyl, src).value) <= 6.0 * est.std_error


@pytest.mark.parametrize("samples", [2**63, np.uint64(2**63), 2**64, 10**30])
def test_mc_rejects_samples_past_the_multinomial_range(samples):
    with pytest.raises(DomainError, match="samples"):
        oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(1e200, 0.5), samples)


@pytest.mark.parametrize("samples", [2**63 - 1, np.int64(2**63 - 1)])
def test_mc_accepts_the_largest_multinomial_count(samples):
    # a band of about 3e-19 of the sphere: a few tested rays, all misses
    est = oracle.mc_total(CylinderSpec(1.0, 1.0), SourcePoint(1e200, 0.5), samples)
    assert est.samples == 2**63 - 1 and est.hit_fraction == 0.0


def test_mc_concurrent_callers_get_their_sequential_results():
    # a narrow band (about 5e-6 of the sphere, a few tested rays) and a wide
    # one (about 5 %, about 10k tested rays in three slices), two callers each
    cases = [(0.05, 40.0, 0.01, 7), (3.0, 2.0, -1.0, 8), (0.05, 40.0, 0.01, 9), (3.0, 2.0, -1.0, 10)]

    def one(case):
        L, d, z, seed = case
        return oracle.mc_total(CylinderSpec(L, 1.0), SourcePoint(d, z), 20_000_001, seed=seed)

    sequential = [one(case) for case in cases]
    start = threading.Barrier(len(cases))

    def together(case):
        start.wait(timeout=60)
        return one(case)

    # short GIL slices, so that the callers interleave within each slice
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(cases)) as callers:
            assert list(callers.map(together, cases, timeout=300)) == sequential
    finally:
        sys.setswitchinterval(interval)


def test_slice_hits_do_not_depend_on_order_or_thread():
    # a wide band's box, filled: slices of a full slice, one ray and a
    # longer-than-slice input, each tested in a fresh thread and then in
    # one thread in both orders
    L, d, z = 3.0, 2.0, -1.0
    c_lo, c_hi, phi_lo, phi_hi = oracle._band(L, d, z)
    rng = np.random.default_rng(12)
    slices = []
    for n in (oracle._SLICE, 1, oracle._SLICE + 5, 1, oracle._SLICE):
        slices.append((rng.uniform(c_lo, c_hi, n), rng.uniform(phi_lo, phi_hi, n)))
    # a one-ray slice that hits, after full slices whose last rays miss and the other way round
    slices[1] = (np.array([0.5]), np.array([0.0]))
    slices[3] = (np.array([0.9]), np.array([math.pi]))

    def counts(order):
        return [oracle._slice_hits(*slices[i], L, d, z) for i in order]

    def fresh(i):
        with ThreadPoolExecutor(max_workers=1) as worker:
            return worker.submit(counts, [i]).result()[0]

    alone = [fresh(i) for i in range(len(slices))]
    assert alone[1] == 1 and alone[3] == 0 and min(alone[0], alone[2], alone[4]) > 0
    assert counts(range(len(slices))) == alone
    assert counts(reversed(range(len(slices)))) == alone[::-1]


def test_hit_mask_result_outlives_its_next_call():
    # a full slice's verdicts, then a second call on other rays of the same
    # length, whose verdicts differ: the first result is left as it was
    L, d, z = 3.0, 2.0, -1.0
    c_lo, c_hi, phi_lo, phi_hi = oracle._band(L, d, z)
    rng = np.random.default_rng(13)
    first_rays, second_rays = (
        (rng.uniform(c_lo, c_hi, oracle._SLICE), rng.uniform(phi_lo, phi_hi, oracle._SLICE)) for _ in range(2)
    )
    first = oracle._hit_mask(*first_rays, L, d, z)
    want = first.tolist()
    second = oracle._hit_mask(*second_rays, L, d, z)
    assert second.tolist() != want
    assert first.tolist() == want == _t_interval_hits(*first_rays, L, d, z).tolist()


def test_cli_and_mc_do_not_import_scipy():
    # a None entry makes every import of scipy raise ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from solidcyl import cli, verify\n"
        "from solidcyl.geometry import CanonicalConfig, CylinderSpec, SourcePoint\n"
        "from solidcyl.oracle import mc_total, quad_disc\n"
        "mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), 10_000)\n"
        "assert all(result.passed for result in verify.run_all(20, 0))\n"
        "quad_disc(CanonicalConfig(2.0, 1.0, 1.0))\n"
        "argv = ['compute', '--L', '3', '--r', '1', '--d', '2', '--z', '-1', '--method', 'quadrature']\n"
        "assert cli.main(argv) == 0\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(solidcyl.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------------------------------- AGM


@pytest.mark.parametrize("m", [0.0, 1e-8, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-12])
def test_agm_matches_carlson_K(m):
    assert oracle.agm_complete_first_kind(m) == pytest.approx(complete_K(m), rel=1e-13)


def test_agm_domain():
    with pytest.raises(DomainError):
        oracle.agm_complete_first_kind(1.0)
    with pytest.raises(DomainError):
        oracle.agm_complete_first_kind(-0.1)
