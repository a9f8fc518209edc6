"""Closed-form evaluators: frozen values, limits, cross-formula agreement.

Frozen reference numbers were computed by the quadrature oracles (tol 1e-12
or tighter) and match the closed forms to well under the asserted tolerance;
they are hard-coded so these tests do not depend on scipy at runtime.
"""

import math
from collections import Counter

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from solidcyl import elliptic, geometry, solid_angle
from solidcyl.errors import DivergentError, DomainError, OnAxisError, SolidCylError
from solidcyl.geometry import CanonicalConfig, CylinderSpec, SourcePoint, TermKind, _split, decompose
from solidcyl.solid_angle import (
    _disc,
    _face,
    _shell,
    _units,
    EllipticParams,
    Method,
    SolidAngle,
    omega_circ,
    omega_circ_macklin,
    omega_circ_third_kind,
    omega_cyl0,
    omega_cyl0_series,
    omega_total,
    params_from_geometry,
)

TWO_PI = 2.0 * math.pi

lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


# ------------------------------------------------------------------ parameters


def test_params_worked_examples():
    # L = 0 with d = r: both parameters degenerate to 1
    p = params_from_geometry(CanonicalConfig(0.0, 1.0, 1.0))
    assert p.m == 1.0 and p.n == 1.0 and p.m_prime == 0.0
    assert p.sin_epsilon is None

    p = params_from_geometry(CanonicalConfig(2.0, 1.0, 1.0))
    assert p.n == 1.0
    assert p.m == pytest.approx(0.5, rel=1e-15)

    p = params_from_geometry(CanonicalConfig(1.0, 1.0, 3.0))
    assert p.m == pytest.approx(12.0 / 17.0, rel=1e-15)
    assert p.n == pytest.approx(0.75, rel=1e-15)


@given(L=lengths, r=lengths, d=lengths)
def test_params_ordering_invariant(L, r, d):
    p = params_from_geometry(CanonicalConfig(L, r, d))
    assert 0.0 <= p.m <= p.n <= 1.0
    assert 0.0 <= p.m_prime <= 1.0
    assert 0.0 <= p.sqrt_one_minus_n <= 1.0
    assert 0.0 <= p.sqrt_one_minus_m_over_n <= 1.0


@given(L=lengths, r=lengths, d=lengths)
def test_params_parts_are_consistent(L, r, d):
    p = params_from_geometry(CanonicalConfig(L, r, d))
    assert p.one_minus_n == pytest.approx(p.sqrt_one_minus_n**2, rel=4e-16, abs=0.0)
    if d >= r:
        assert p.sin_gamma_o**2 + p.cos2_gamma_o == pytest.approx(1.0, rel=4e-16)
        assert p.y_gamma_o == pytest.approx(1.0 - p.m * p.sin_gamma_o**2, rel=1e-12, abs=1e-15)
        # 1 - n sin^2(gamma_o) has no field of its own: it is sqrt(1-n)
        assert p.sqrt_one_minus_n == pytest.approx(1.0 - p.n * p.sin_gamma_o**2, rel=1e-12, abs=1e-15)
    else:
        assert p.sin_gamma_o is None and p.cos2_gamma_o is None
    # epsilon exists away from m = 1, with exact-product sin/cos parts
    assert p.sin_epsilon is not None
    assert p.sin_epsilon**2 + p.cos2_epsilon == pytest.approx(1.0, rel=4e-16)


def test_params_epsilon_vanishes_only_at_m_one():
    assert params_from_geometry(CanonicalConfig(0.0, 1.0, 1.0)).sin_epsilon is None
    # float m rounds to 1.0 here, but m' stays resolved and epsilon exists
    p = params_from_geometry(CanonicalConfig(1e-12, 1.0, 1.0 + 1e-12))
    assert p.m == 1.0 and p.m_prime > 0.0
    assert p.sin_epsilon is not None


def test_params_on_axis_rejected():
    with pytest.raises(OnAxisError):
        params_from_geometry(CanonicalConfig(1.0, 1.0, 0.0))


def test_params_m_equals_n_iff_flat():
    flat = params_from_geometry(CanonicalConfig(0.0, 1.0, 2.0))
    assert flat.m == flat.n
    tall = params_from_geometry(CanonicalConfig(2.0, 1.0, 2.0))
    assert tall.m < tall.n


# -------------------------------------------------------------- default routes


def test_method_policy_routes():
    # exact limits are SPECIAL; everywhere else the elliptic form is the route
    assert omega_cyl0(CanonicalConfig(0.0, 1.0, 2.0)).method is Method.SPECIAL
    assert omega_cyl0(CanonicalConfig(1.0, 1.0, 1.0)).method is Method.SPECIAL
    assert omega_circ(CanonicalConfig(1.0, 1.0, 0.0)).method is Method.SPECIAL
    # sqrt(d^2 - r^2) < L/10, once sent to the series, stays elliptic
    assert omega_cyl0(CanonicalConfig(10.0, 1.0, 1.1)).method is Method.ELLIPTIC
    assert omega_cyl0(CanonicalConfig(1.0, 1.0, 2.0)).method is Method.ELLIPTIC
    assert omega_circ(CanonicalConfig(1.0, 1.0, 0.5)).method is Method.ELLIPTIC


# ------------------------------------------------------------------ omega_cyl0


@pytest.mark.parametrize(
    "L, d, expected",
    [
        # quad_cyl0_phi(L=2, r=1, d=2, tol=1e-13)
        (2.0, 2.0, 0.072462447677148198),
        # 40-digit mpmath quadrature of the phi form; near-tangent points
        # (sqrt(d^2 - r^2) < L/10) where the large-L series misses by ~1e-10
        (30.0, 2.0, 0.083272850198708943622),
        (50.0, 3.0, 0.054035948648945231722),
    ],
    ids=["L2-d2", "L30-d2", "L50-d3"],
)
def test_cyl0_reference_value(L, d, expected):
    got = omega_cyl0(CanonicalConfig(L, 1.0, d))
    assert got.method is Method.ELLIPTIC
    assert got.value == pytest.approx(expected, rel=1e-13)


def _paper_cyl0(L, d):
    """omega_cyl0 at r = 1 from the paper's two-pair form, on mpmath's Carlson kernels at 40 digits.

    sqrt(1-m/n) {sqrt(1-n) [Pi(n; m) - Pi(n; gamma_o|m)] - [K(m) - F(gamma_o|m)]}
    over 2 pi, every parameter formed from the exact float d.
    """
    with mpmath.workdps(40):
        L, d = mpmath.mpf(L), mpmath.mpf(d)
        t, s = d - 1, d + 1
        den = L * L + s * s
        m_prime, y = (L * L + t * t) / den, (L * L + t * s) / den
        sin2, cos2 = s / (2 * d), t / (2 * d)
        n, s_n = 4 * d / (s * s), t / s
        first = mpmath.elliprf(0, m_prime, 1) - mpmath.sqrt(sin2) * mpmath.elliprf(cos2, y, 1)
        third = mpmath.elliprj(0, m_prime, 1, s_n * s_n) - sin2 * mpmath.sqrt(sin2) * mpmath.elliprj(
            cos2, y, 1, s_n
        )
        pi_pair = first + (n / 3) * third
        return L / mpmath.sqrt(den) * (s_n * pi_pair - first) / (2 * mpmath.pi)


@pytest.mark.parametrize(
    "d",
    [1.0 + 1e-14, 1.0 + 1e-12, 1.0 + 1e-10, 1.0 + 1e-8, 1.0 + 1e-6, 1.0 + 1e-3]
    + [1.5, 10.0, 1e3, 1e5, 1e7, 1e9, 1e12],
)
def test_cyl0_matches_the_paper_form(d):
    # the addition theorem's R_C term enters as an arctangent of the exact
    # geometry; forming it as carlson_rc(gamma - delta, gamma) instead fails
    # at the small-L near-wall points, and the far points pin the end where
    # sqrt(1-m/n) and n are both tiny
    for L in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4):
        got = omega_cyl0(CanonicalConfig(L, 1.0, d)).value
        exact = _paper_cyl0(L, d)
        assert abs(got - exact) <= 2e-15 * exact, (L, d, got)


def test_cyl0_special_values():
    flat = omega_cyl0(CanonicalConfig(0.0, 1.0, 2.0))
    assert flat.value == 0.0 and flat.method is Method.SPECIAL
    touching = omega_cyl0(CanonicalConfig(5.0, 1.0, 1.0))
    assert touching.value == 0.25 and touching.method is Method.SPECIAL


def test_cyl0_requires_outside_source():
    with pytest.raises(DomainError):
        omega_cyl0(CanonicalConfig(1.0, 1.0, 0.5))


def test_cyl0_tangent_limit():
    # d -> r+ at fixed L approaches the quarter sphere like sqrt(d/r - 1)
    got = omega_cyl0(CanonicalConfig(1.0, 1.0, 1.0 + 1e-12))
    assert got.value == pytest.approx(0.25, abs=1e-6)


def test_cyl0_discontinuity_witness():
    # the corner (d -> r+, L -> 0) has no single limit: order matters
    wall = omega_cyl0(CanonicalConfig(1.0, 1.0, 1.0 + 1e-12)).value
    gone = omega_cyl0(CanonicalConfig(1e-9, 1.0, 1.0 + 1e-4)).value
    assert wall == pytest.approx(0.25, abs=1e-6)
    assert gone < 1e-3
    assert omega_cyl0(CanonicalConfig(1e-9, 1.0, 1.0)).value == 0.25


def test_cyl0_corner_stays_finite_when_m_rounds_to_one():
    got = omega_cyl0(CanonicalConfig(1e-12, 1.0, 1.0 + 1e-12))
    assert math.isfinite(got.value)
    assert 0.0 <= got.value <= 0.25


@given(L=lengths, d=lengths, r=lengths)
@settings(max_examples=300)
def test_cyl0_range(L, d, r):
    if d < r:
        d, r = r, d  # keep the source outside
    got = omega_cyl0(CanonicalConfig(L, r, d))
    assert 0.0 <= got.value <= 0.25


def test_cyl0_monotone_in_L_and_d():
    base = omega_cyl0(CanonicalConfig(1.0, 1.0, 2.0)).value
    taller = omega_cyl0(CanonicalConfig(2.0, 1.0, 2.0)).value
    farther = omega_cyl0(CanonicalConfig(1.0, 1.0, 3.0)).value
    assert taller > base > farther


# ---------------------------------------------------------------------- series


def test_series_matches_elliptic_in_region():
    cfg = CanonicalConfig(10.0, 1.0, 1.05)
    s = omega_cyl0_series(cfg)
    e = omega_cyl0(cfg)
    assert s.method is Method.SERIES
    assert e.method is Method.ELLIPTIC
    assert s.value == pytest.approx(e.value, rel=5e-5)


def test_series_truncation_error_estimate():
    cfg = CanonicalConfig(10.0, 1.0, 1.05)
    two = omega_cyl0_series(cfg, terms=2)
    three = omega_cyl0_series(cfg, terms=3)
    # dropping the last term must be covered by the reported estimate,
    # up to rounding of the two ~0.2-sized values being subtracted
    assert abs(two.value - three.value) <= two.err_estimate + 1e-15
    assert three.err_estimate > 0.0


def test_series_leading_term_is_aperture():
    cfg = CanonicalConfig(1e6, 1.0, 2.0)
    got = omega_cyl0_series(cfg, terms=1)
    assert got.value == pytest.approx(math.asin(0.5) / TWO_PI, rel=1e-12)


def test_series_residual_angle_keeps_the_wall_offset():
    # d - r = 6e-13 r: a rounded r/d gave pi/2 - phi_o ~ 1e-8 off, which the
    # 1/L^2 terms blew up to a clamped 1.0 (err_estimate 1.6)
    cfg = CanonicalConfig(0.00041540695732741206, 0.37283520203015524, 0.3728352020307544)
    assert omega_cyl0_series(cfg).value == pytest.approx(omega_cyl0(cfg).value, abs=1e-12)


def test_series_domain_errors():
    with pytest.raises(DivergentError):
        omega_cyl0_series(CanonicalConfig(0.0, 1.0, 2.0))
    with pytest.raises(DomainError):
        omega_cyl0_series(CanonicalConfig(1.0, 1.0, 0.5))
    with pytest.raises(DomainError):
        omega_cyl0_series(CanonicalConfig(1.0, 1.0, 2.0), terms=4)
    with pytest.raises(DomainError):
        omega_cyl0_series(CanonicalConfig(1.0, 1.0, 2.0), terms=0)


@pytest.mark.parametrize("L, d", [(1e-5, 2.0), (1.0, 2.0), (1.0, math.sqrt(2.0)), (0.5, 1.2)])
def test_series_raises_outside_its_radius(L, d):
    # sqrt(d^2 - r^2) >= L: the 1/L^2 expansion diverges, however small its terms look
    with pytest.raises(DivergentError, match=f"L/r = {L!r}"):
        omega_cyl0_series(CanonicalConfig(L, 1.0, d))


@pytest.mark.parametrize("L", [1e-80, 1e-155, 1e-200, 1e-300])
@pytest.mark.parametrize("d", [1.0, 2.0])
def test_series_at_tiny_L_returns_a_bound_or_diverges(L, d):
    # 1/L^2 overflows here; a kept term or the error term that is not finite
    # must surface as DivergentError, never as a raw error or a NaN estimate
    try:
        got = omega_cyl0_series(CanonicalConfig(L, 1.0, d))
    except DivergentError as exc:
        assert f"L/r = {L!r}" in str(exc)
        return
    assert math.isfinite(got.err_estimate)
    if d == 1.0:
        assert got.value == 0.25


# ------------------------------------------------------------------ omega_circ


def test_circ_equal_distance_reference():
    # quad_disc(L=2, r=1, d=1, tol=1e-12) = 0.041343289581481701
    got = omega_circ(CanonicalConfig(2.0, 1.0, 1.0))
    assert got.method is Method.SPECIAL
    assert got.value == pytest.approx(0.041343289581481701, rel=1e-12)


def test_circ_on_axis_closed_form():
    got = omega_circ(CanonicalConfig(1.0, 1.0, 0.0))
    assert got.value == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(2.0)), rel=1e-15)
    assert got.value == pytest.approx(0.14644660940672627, rel=1e-15)
    # d/r underflows to 0: on the axis in units of r
    assert omega_circ(CanonicalConfig(1e300, 1e300, 1e-300)) == got


@pytest.mark.parametrize("z", [-1e3, -1e4, -1e6])
def test_circ_on_axis_far_field_is_relative_exact(z):
    # 1 - L/hypot(L, r) cancels for L >> r; the closed form below does not
    got = omega_total(CylinderSpec(1.0, 1.0), SourcePoint(0.0, z)).value
    with mpmath.workdps(40):
        h = mpmath.mpf(-z)
        hyp = mpmath.sqrt(h * h + 1)
        exact = 1 / (2 * hyp * (hyp + h))
    assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [5e-324, 1e-320, 1e-310, 1e-300, 1e-150, 1e-100, 1e-12])
@pytest.mark.parametrize("L", [1e-8, 1e-4, 0.7, 1.0, 1e3])
def test_circ_near_the_axis_is_the_on_axis_value(L, d):
    # off the axis by d the disc moves by O(d^2), so a miss here is the
    # form's: E(eps|m') = F - (m'/3) sin^3 R_D would cancel two terms of size
    # log(1/d), and a subnormal d would round m and n to a few units
    with mpmath.workdps(40):
        hyp = mpmath.sqrt(mpmath.mpf(L) ** 2 + 1)
        exact = float(1 / (2 * hyp * (hyp + L)))
    assert abs(omega_circ(CanonicalConfig(L, 1.0, d)).value - exact) <= 1e-15
    assert abs(omega_total(CylinderSpec(1.0, 1.0), SourcePoint(d, -L)).value - exact) <= 1e-15


def test_circ_flat_limit_table():
    assert omega_circ(CanonicalConfig(0.0, 1.0, 2.0)).value == 0.0
    assert omega_circ(CanonicalConfig(0.0, 1.0, 1.0)).value == 0.25
    assert omega_circ(CanonicalConfig(0.0, 1.0, 0.5)).value == 0.5


def test_circ_continuous_at_axis():
    on = omega_circ(CanonicalConfig(1.0, 1.0, 0.0)).value
    near = omega_circ(CanonicalConfig(1.0, 1.0, 1e-9)).value
    assert near == pytest.approx(on, abs=1e-9)


def test_circ_equal_distance_survives_flat_limit():
    # m1 rounds to 1.0 here; the complement form must keep K finite
    got = omega_circ(CanonicalConfig(1e-10, 1.0, 1.0))
    assert got.value == pytest.approx(0.25, abs=1e-6)
    assert 0.0 < 0.25 - got.value < 1e-9
    assert omega_circ(CanonicalConfig(5e-324, 1.0, 1.0)).value == 0.25


def test_circ_continuous_at_equal_distance():
    mid = omega_circ(CanonicalConfig(2.0, 1.0, 1.0)).value
    for delta in (1e-8, -1e-8):
        side = omega_circ(CanonicalConfig(2.0, 1.0, 1.0 + delta)).value
        assert side == pytest.approx(mid, abs=1e-6)


@given(L=lengths, d=lengths)
@settings(max_examples=300)
def test_circ_range(L, d):
    got = omega_circ(CanonicalConfig(L, 1.0, d))
    assert 0.0 <= got.value <= 0.5


def test_circ_monotone_decreasing_in_L_and_d():
    base = omega_circ(CanonicalConfig(1.0, 1.0, 0.5)).value
    assert omega_circ(CanonicalConfig(2.0, 1.0, 0.5)).value < base
    assert omega_circ(CanonicalConfig(1.0, 1.0, 0.8)).value < base


def _paper_circ(L, d):
    """omega_circ at r = 1 from the paper's two first/second-kind forms, on mpmath's Carlson kernels at 40 digits.

        d > r: 1/4 - n/(1+sqrt(1-n)) sqrt(1-m/n) K(m)/(2 pi) - X/(2 pi)
        d < r: 1/4 - (1+sqrt(1-n)) sqrt(1-m/n) K(m)/(2 pi) + X/(2 pi)

    with X = [E(m)-K(m)] F(eps|m') + K(m) E(eps|m'), eps in [0, pi/2] and
    every parameter formed from the exact float d.
    """
    with mpmath.workdps(40):
        L, d = mpmath.mpf(L), mpmath.mpf(d)
        t, s = d - 1, d + 1
        den, den_t = L * L + s * s, L * L + t * t
        m_prime, m, n = den_t / den, 4 * d / den, 4 * d / (s * s)
        s_n, s_mn = abs(t) / s, L / mpmath.sqrt(den)
        sin_e = mpmath.sqrt(t * t * den / (s * s * den_t))
        cos2, y = 4 * d * L * L / (s * s * den_t), 1 - m_prime * sin_e**2
        K = mpmath.elliprf(0, m_prime, 1)
        E = K - (m / 3) * mpmath.elliprd(0, m_prime, 1)
        F_eps = sin_e * mpmath.elliprf(cos2, y, 1)
        E_eps = F_eps - (m_prime / 3) * sin_e**3 * mpmath.elliprd(cos2, y, 1)
        cross = (E - K) * F_eps + K * E_eps
        if t > 0:
            value = mpmath.mpf(1) / 4 - (n / (1 + s_n) * s_mn * K + cross) / (2 * mpmath.pi)
        else:
            value = mpmath.mpf(1) / 4 - ((1 + s_n) * s_mn * K - cross) / (2 * mpmath.pi)
        return float(value)


@pytest.mark.parametrize("d", [1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-3, 2.0, 1e3])
def test_circ_matches_the_paper_form_on_both_sides_of_the_rim(d):
    # one expression with a signed sin(eps) stands for both of the paper's
    # forms; K and K - E come from the AGM loop, the reference's from
    # mpmath's Carlson kernels
    for L in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e3):
        got = omega_circ(CanonicalConfig(L, 1.0, d)).value
        assert abs(got - _paper_circ(L, d)) <= 1e-15, (L, d, got)


@pytest.mark.parametrize("L, d", [(1e-5, 1.002), (2e-5, 0.99995), (1e-4, 1.0005), (1e-5, 0.998)])
def test_circ_near_the_rim_at_small_L_matches_the_paper_form(L, d):
    # 1 - m is at most about 1e-6 here and K - E scales with m: m taken as the
    # quotient 4d/(L^2+(d+1)^2) instead of 1 - m' missed these by up to 1.4e-15
    got = omega_circ(CanonicalConfig(L, 1.0, d)).value
    assert abs(got - _paper_circ(L, d)) <= 1e-15


def _disc_quadrature(L, r, d):
    """omega_circ for d > r by 50-digit quadrature of a disc integrand whose parts are all positive.

    At r = 1 the disc is (2 pi)^-1 int_0^psi0 h (R2^2 - R1^2) / (A1 A2 (A1 + A2)) dpsi,
    R1,2 = d cos psi -+ sqrt(1 - d^2 sin^2 psi), A_i = sqrt(h^2 + R_i^2),
    sin psi0 = 1/d. With sin psi = sin(psi0) cos v, c = d^2 - 1 and
    R2 = sqrt(c + sin^2 v) + sin v, R1 = c/R2, it is

        (h / 2 pi) int_0^{pi/2} 4 sin^2 v / (A1 A2 (A1 + A2)) dv.

    The integrand changes shape at v ~ sqrt(c), so Gauss-Legendre panels
    break at each decade of v from 0.1 down past sqrt(c); h stays outside
    the integral so that the rule's absolute stop test sees an integrand of
    order one.
    """
    with mpmath.workdps(50):
        L, r, d = mpmath.mpf(L), mpmath.mpf(r), mpmath.mpf(d)
        h, c = L / r, (d - r) / r * (d / r + 1)

        def integrand(v):
            s = mpmath.sin(v)
            R2 = mpmath.sqrt(c + s * s) + s
            A1, A2 = mpmath.hypot(h, c / R2), mpmath.hypot(h, R2)
            return 4 * s * s / (A1 * A2 * (A1 + A2))

        cuts = [mpmath.mpf(10) ** -k for k in range(int(-mpmath.log10(c) / 2) + 2, 0, -1)]
        return float(h * mpmath.quad(integrand, [0, *cuts, mpmath.pi / 2], method="gauss-legendre") / (2 * mpmath.pi))


_RIM_OFFSETS = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 9.0, 29.0, 99.0)


@pytest.mark.parametrize("L", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0])
def test_circ_outside_the_rim_is_relative_exact(L):
    # the near face plus the shell; the first/second-kind form, 1/4 minus
    # terms of order 1, missed (L, d) = (1e-12, 2) by 7.7e-4 and (1e-9, 100)
    # by 0.55 relative
    for t in _RIM_OFFSETS:
        got = omega_circ(CanonicalConfig(L, 1.0, 1.0 + t)).value
        assert got == pytest.approx(_disc_quadrature(L, 1.0, 1.0 + t), rel=1e-13, abs=0.0), (L, t)


# relative errors of the first/second-kind form that omega_circ took at
# d > r before, against _disc_quadrature at the offsets _RIM_OFFSETS,
# rounded down to two digits. Past L = 10 r every closed form loses digits
# to cancellation (ROADMAP item 5); the near face plus the shell may not
# lose more than ten times as many
_FIRST_SECOND_KIND_FAR_ERRORS = {
    30.0: (1.1e-13, 6.7e-14, 1.7e-13, 2.6e-14, 6.8e-14, 1.3e-14, 7.2e-14, 2.0e-13, 8.0e-12),
    100.0: (4.1e-13, 7.1e-13, 1.6e-12, 3.0e-13, 1.9e-12, 1.1e-12, 3.2e-12, 1.0e-12, 1.5e-11),
    1e3: (4.4e-11, 4.4e-11, 1.5e-10, 6.2e-11, 7.2e-11, 1.6e-10, 3.3e-11, 3.3e-10, 6.0e-11),
    1e4: (1.6e-8, 1.6e-8, 5.3e-9, 5.3e-9, 1.9e-8, 2.8e-8, 2.6e-9, 1.2e-8, 2.6e-9),
}


@pytest.mark.parametrize("L", sorted(_FIRST_SECOND_KIND_FAR_ERRORS))
def test_circ_outside_the_rim_far_off_the_plane_keeps_its_digits(L):
    for t, before in zip(_RIM_OFFSETS, _FIRST_SECOND_KIND_FAR_ERRORS[L]):
        ref = _disc_quadrature(L, 1.0, 1.0 + t)
        got = omega_circ(CanonicalConfig(L, 1.0, 1.0 + t)).value
        assert abs(got - ref) <= 10.0 * before * ref, (L, t)


def test_circ_one_ulp_outside_the_rim_at_a_huge_scale():
    # L/r = 8e-49 and d one ulp past r: the disc is 6.09e-34, and the
    # first/second-kind form returned 7.6e-15
    cfg = CanonicalConfig(1.6578419131090095e95, 2.084705223392084e143, 2.0847052233920845e143)
    ref = _disc_quadrature(cfg.L, cfg.r, cfg.d)
    assert omega_circ(cfg).value == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert ref == pytest.approx(6.0904e-34, rel=1e-4)


@pytest.mark.parametrize("h", [1e151, 1e152, 1e153, 1.3e154])
@pytest.mark.parametrize("d", [0.14, 0.9, 2.0, 470.0])
def test_disc_far_field_is_a_tiny_fraction(h, d):
    # the true value is about r^2 / (4 h^2); the epsilon parts are products of
    # ratios at most 1, where 4 d L^2 formed first overflowed near L/r = 1e154
    if d < 1.0:
        got = omega_total(CylinderSpec(1.0, 1.0), SourcePoint(d, -h))
    else:
        got = omega_circ(CanonicalConfig(h, 1.0, d))
    assert 0.0 <= got.value <= 1e-15


# --------------------------------------------------- disc cross-formula paths


DISC_GRID = [
    CanonicalConfig(L, 1.0, d)
    for L in (0.05, 0.5, 2.0, 30.0)
    for d in (0.02, 0.3, 0.9, 1.1, 3.0, 50.0)
]


@pytest.mark.parametrize("cfg", DISC_GRID, ids=lambda c: f"L{c.L}d{c.d}")
def test_disc_triple_agreement(cfg):
    a = omega_circ(cfg).value
    b = omega_circ_third_kind(cfg).value
    c = omega_circ_macklin(cfg).value
    scale = max(abs(a), 1e-4)
    assert abs(a - b) / scale < 1e-10
    assert abs(a - c) / scale < 1e-10
    assert abs(b - c) / scale < 1e-10


def test_third_kind_rejects_limits():
    with pytest.raises(DomainError):
        omega_circ_third_kind(CanonicalConfig(0.0, 1.0, 2.0))
    with pytest.raises(OnAxisError):
        omega_circ_third_kind(CanonicalConfig(1.0, 1.0, 0.0))
    with pytest.raises(DivergentError):
        omega_circ_third_kind(CanonicalConfig(1.0, 1.0, 1.0))


def test_macklin_rejects_equal_distance_and_flat():
    with pytest.raises(DivergentError):
        omega_circ_macklin(CanonicalConfig(1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        omega_circ_macklin(CanonicalConfig(0.0, 1.0, 2.0))


def test_macklin_handles_axis():
    got = omega_circ_macklin(CanonicalConfig(1.0, 1.0, 0.0))
    assert got.value == pytest.approx(0.14644660940672627, rel=1e-12)


def test_macklin_far_field_thin_gap():
    # L/r ~ 0.002 and d/r ~ 780 put both amplitudes within 1e-9 of pi/2,
    # where an angle built by asin lost the digits that order them
    cfg = CanonicalConfig(0.001887444049215204, 1.0, 778.818586432147)
    a = omega_circ(cfg).value
    c = omega_circ_macklin(cfg).value
    # the disc_cross metric: relative, with an absolute floor of 1e-4
    assert abs(a - c) / max(abs(a), abs(c), 1e-4) <= 1e-10


@pytest.mark.parametrize("L", [1e-300, 1e-200])
@pytest.mark.parametrize("d", [0.5, 2.0])
def test_macklin_survives_the_flat_limit(L, d):
    # alpha, beta ~ r/L: squares of A, B, C overflow, ratios of them do not
    cfg = CanonicalConfig(L, 1.0, d)
    assert abs(omega_circ_macklin(cfg).value - omega_circ(cfg).value) <= 1e-13


# ------------------------------------------------------ Carlson calls per form


def omega_total_below_base(cfg):
    """omega_total of a cylinder (L, r) from a source at d, half a radius below its base."""
    return omega_total(CylinderSpec(cfg.L, cfg.r), SourcePoint(cfg.d, -0.5 * cfg.r))


def omega_total_beside_shell(cfg):
    """omega_total of a cylinder (L, r) from a source at d, a quarter of L above its base."""
    return omega_total(CylinderSpec(cfg.L, cfg.r), SourcePoint(cfg.d, 0.25 * cfg.L))


def _carlson_calls(monkeypatch, fn, cfg):
    """(kernel, args) of every R_F, R_D and R_J call fn makes on cfg."""
    calls = []
    for name in ("carlson_rf", "carlson_rd", "carlson_rj"):
        kernel = getattr(elliptic, name)

        def wrapped(*args, _name=name, _kernel=kernel):
            calls.append((_name, args))
            return _kernel(*args)

        monkeypatch.setattr(elliptic, name, wrapped)
    fn(cfg)
    return calls


@pytest.mark.parametrize(
    "fn, L, d, counts",
    [
        (omega_cyl0, 1.0, 2.0, {"carlson_rf": 1, "carlson_rj": 1}),
        (omega_cyl0, 1e-3, 1.0 + 1e-9, {"carlson_rf": 1, "carlson_rj": 1}),
        # outside the rim: the near face plus the shell
        (omega_circ, 1.0, 2.0, {"carlson_rf": 2, "carlson_rj": 2}),
        # K and K - E come from the AGM loop, not from the kernels
        (omega_circ, 1.0, 0.5, {"carlson_rf": 1, "carlson_rd": 1}),
        (omega_circ_third_kind, 1.0, 2.0, {"carlson_rf": 1, "carlson_rj": 1}),
        (omega_circ_third_kind, 1.0, 0.5, {"carlson_rf": 1, "carlson_rj": 1}),
        (omega_circ_macklin, 1.0, 2.0, {"carlson_rf": 3, "carlson_rd": 3}),
        (omega_circ_macklin, 1.0, 0.5, {"carlson_rf": 3, "carlson_rd": 3}),
        # beta > sqrt(1 + alpha^2): psi < 0
        (omega_circ_macklin, 0.5, 0.25, {"carlson_rf": 3, "carlson_rd": 3}),
        # +CYL0(L+h) and the fused near face CIRC(h) - CYL0(h)
        (omega_total_below_base, 3.0, 2.0, {"carlson_rf": 2, "carlson_rj": 2}),
        # +CYL0(z) + CYL0(L - z); at z = L/2 both would be one tuple, called twice
        (omega_total_beside_shell, 3.0, 2.0, {"carlson_rf": 2, "carlson_rj": 2}),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_closed_forms_call_each_carlson_tuple_once(monkeypatch, fn, L, d, counts):
    calls = _carlson_calls(monkeypatch, fn, CanonicalConfig(L, 1.0, d))
    assert len(set(calls)) == len(calls), f"repeated tuple in {calls}"
    assert Counter(name for name, _ in calls) == counts


# ----------------------------------------------------------------- omega_total


def test_total_worked_example():
    got = omega_total(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.5))
    assert got.value == pytest.approx(0.13301674013959272, rel=1e-13)
    # mid-height source: exactly twice the half-height shell term
    half = omega_cyl0(CanonicalConfig(1.5, 1.0, 2.0)).value
    assert got.value == pytest.approx(2.0 * half, rel=1e-15)


def test_total_enclosed_is_exactly_one():
    got = omega_total(CylinderSpec(3.0, 2.0), SourcePoint(1.0, 1.0))
    assert got.value == 1.0
    assert got.method is Method.SPECIAL
    assert got.err_estimate == 0.0


def test_total_boundary_constants():
    assert omega_total(CylinderSpec(3.0, 1.0), SourcePoint(0.5, 0.0)).value == 0.5
    assert omega_total(CylinderSpec(3.0, 1.0), SourcePoint(1.0, 3.0)).value == 0.25


def test_total_below_base_sums_signed_terms():
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0)
    got = omega_total(cyl, src)
    manual = (
        omega_cyl0(CanonicalConfig(4.0, 1.0, 2.0)).value
        - omega_cyl0(CanonicalConfig(1.0, 1.0, 2.0)).value
        + omega_circ(CanonicalConfig(1.0, 1.0, 2.0)).value
    )
    assert got.value == pytest.approx(manual, rel=1e-15)


def test_total_method_tag_precedence():
    assert omega_total(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.5)).method is Method.ELLIPTIC
    # slender shells take the elliptic form too; the series is a separate function
    assert omega_total(CylinderSpec(20.0, 1.0), SourcePoint(1.01, 10.0)).method is Method.ELLIPTIC
    assert omega_total(CylinderSpec(3.0, 1.0), SourcePoint(0.5, 1.0)).method is Method.SPECIAL


def test_total_err_estimate_accumulates():
    three_terms = omega_total(CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0))
    assert three_terms.err_estimate > 0.0


@given(
    L=lengths,
    d=lengths,
    zf=st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=300)
def test_total_range_and_end_swap(L, d, zf):
    cyl = CylinderSpec(L, 1.0)
    z = zf * L
    # skip sub-ulp offsets from the faces: L - z rounds back onto the face
    # and the swapped source lands on a different boundary constant
    assume(z == 0.0 or min(abs(z), abs(L - z)) > 1e-9 * max(1.0, L))
    a = omega_total(cyl, SourcePoint(d, z))
    b = omega_total(cyl, SourcePoint(d, L - z))
    assert 0.0 <= a.value <= 1.0
    assert abs(a.value - b.value) <= 1e-12


def _below_base_reference(L, d, h):
    """40-digit quadrature of the whole body seen from (d > 1, z = -h), r = 1.

    Each azimuth crosses the body between the near and far wall distances
    rho1, rho2; the highest point seen is the top rim on the near wall,
    (L + h, rho1), and the lowest the base rim on the far wall, (h, rho2).
    """
    with mpmath.workdps(40):
        d, a, b = mpmath.mpf(d), mpmath.mpf(h), mpmath.mpf(L) + mpmath.mpf(h)

        def integrand(phi):
            c = d * mpmath.cos(phi)
            w = mpmath.sqrt(max(1 - (d * mpmath.sin(phi)) ** 2, 0))
            rho1, rho2 = (d * d - 1) / (c + w), c + w
            return b / mpmath.sqrt(b * b + rho1 * rho1) - a / mpmath.sqrt(a * a + rho2 * rho2)

        return float(mpmath.quad(integrand, [0, mpmath.asin(1 / d)]) / (2 * mpmath.pi))


@pytest.mark.parametrize("d", [1e3, 1e4, 1e6])
def test_total_far_field_is_relative_exact(d):
    # the separate -CYL0(h) + CIRC(h) cancelled down to 1.6e-9 .. 7.9e-7 relative here
    got = omega_total(CylinderSpec(1.0, 1.0), SourcePoint(d, -0.5)).value
    assert got == pytest.approx(_below_base_reference(1.0, d, 0.5), rel=1e-14, abs=0.0)


def test_total_far_field_asymptote():
    # the body's side, 2 r L, seen from d = 1e150: 2/(4 pi d^2) up to O(1/d)
    got = omega_total(CylinderSpec(1.0, 1.0), SourcePoint(1e150, -0.5)).value
    assert got == pytest.approx(1.0 / (TWO_PI * 1e300), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("r", [3.0, 0.37, 7.0, 3e-200])
def test_total_near_the_wall_at_any_radius(r, k):
    # a source k ulp off the wall: d - r is formed before the division by r
    d = r
    for _ in range(k):
        d = math.nextafter(d, math.inf)
    L, z = 2.0 * r, 0.75 * r
    got = omega_total(CylinderSpec(L, r), SourcePoint(d, z)).value
    with mpmath.workdps(40):
        R, D = mpmath.mpf(r), mpmath.mpf(d)
        exact = sum(_paper_cyl0(mpmath.mpf(h) / R, D / R) for h in (z, L - z))
    assert abs(got - float(exact)) <= 1e-15, (r, k, got)


@pytest.mark.parametrize(
    "h, d",
    [(0.5, 2.0), (1e-3, 1.0 + 1e-10), (1.0, 1.0 + 1e-10), (30.0, 1.0 + 1e-6), (1e-2, 50.0), (3.0, 1e4), (1e2, 1.5)],
)
def test_near_face_matches_quadrature(h, d):
    # CIRC(h) - CYL0(h) keeps only the disc's far-rim integral:
    # -(2 pi)^-1 integral_0^phi_o h / sqrt(h^2 + rho2^2) dphi
    with mpmath.workdps(40):
        D, H = mpmath.mpf(d), mpmath.mpf(h)

        def far_rim(phi):
            rho2 = D * mpmath.cos(phi) + mpmath.sqrt(max(1 - (D * mpmath.sin(phi)) ** 2, 0))
            return H / mpmath.sqrt(H * H + rho2 * rho2)

        exact = -float(mpmath.quad(far_rim, [0, mpmath.asin(1 / D)]) / (2 * mpmath.pi))
    assert _face(h, d, d - 1.0)[0] == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_near_face_limits():
    # d = r: omega_circ's equal-distance form minus the quarter-sphere shell
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(1.0, -2.0)
    assert omega_total(cyl, src).value == omega_circ(CanonicalConfig(2.0, 1.0, 1.0)).value
    # h = 0: both terms vanish, the far shell is all that is left
    assert omega_total(cyl, SourcePoint(2.0, 0.0)) == omega_cyl0(CanonicalConfig(3.0, 1.0, 2.0))


ULP_UP = math.nextafter(1.0, 2.0)  # 1 + 1 ulp
ULP_DOWN = math.nextafter(1.0, 0.0)  # 1 - 1 ulp


@given(
    L=lengths,
    d=lengths,
    r=lengths,
    zf=st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
)
@settings(max_examples=300)
@example(L=3.0, d=1.0, r=1.0, zf=0.5)  # d = r, z = L/2
@example(L=3.0, d=ULP_UP, r=1.0, zf=0.5)  # d = r + 1 ulp
@example(L=3.0, d=2.0, r=1.0, zf=0.5 - 2.0**-54)  # z = L/2 - 1 ulp
@example(L=6e-200, d=2e-200, r=2e-200, zf=0.5)
@example(L=6e-200, d=2e-200 * ULP_UP, r=2e-200, zf=0.5 - 2.0**-54)
@example(L=6e200, d=4e200, r=2e200, zf=0.5)
def test_total_two_shells_are_the_shell_evaluator(L, d, r, zf):
    # between the end planes, outside the shell: one implementation for both paths
    assume(d >= r)
    z = zf * L
    assume(0.0 < z and z <= L / 2.0)
    near = omega_cyl0(CanonicalConfig(z, r, d))
    far = omega_cyl0(CanonicalConfig(L - z, r, d))
    got = omega_total(CylinderSpec(L, r), SourcePoint(d, z))
    assert got.value == near.value + far.value
    assert got.err_estimate == near.err_estimate + far.err_estimate


@given(L=lengths, d=lengths, r=lengths, h=lengths)
@settings(max_examples=300)
@example(L=3.0, d=0.5, r=1.0, h=0.0)  # z = -0.0: on the end face
@example(L=0.0, d=0.5, r=1.0, h=2.0)
@example(L=0.0, d=0.5, r=1.0, h=0.0)
@example(L=3.0, d=0.0, r=1.0, h=2.0)  # on the axis
@example(L=3.0, d=ULP_DOWN, r=1.0, h=2.0)  # d = r - 1 ulp
@example(L=3e-200, d=2e-200 * ULP_DOWN, r=2e-200, h=5e-201)
@example(L=3e200, d=0.0, r=2e200, h=1e200)
def test_total_inner_disc_is_the_disc_evaluator(L, d, r, h):
    # below the base inside the rim only the near disc is seen
    assume(d < r)
    assert omega_total(CylinderSpec(L, r), SourcePoint(d, -h)) == omega_circ(CanonicalConfig(h, r, d))


def _outcome(fn, *args):
    """fn's SolidAngle as (value, method, err_estimate), or its error's type and message."""
    try:
        res = fn(*args)
    except SolidCylError as exc:
        return type(exc), str(exc)
    return res.value, res.method, res.err_estimate


def _total_from_terms(cyl, src):
    """omega_total rebuilt from decompose's Terms with the same per-term functions."""
    terms = decompose(cyl, src).terms
    head = terms[0]
    if head.kind is TermKind.CONSTANT:
        return SolidAngle(head.constant_value, Method.SPECIAL, 0.0)

    def units(L):
        return _units(L, cyl.r, src.d)

    if head.kind is TermKind.CIRC:
        parts = [_disc(*units(head.L_eff))]
    elif len(terms) == 2:
        parts = [_shell(*units(term.L_eff)) for term in terms]
    else:
        # -CYL0(h) + CIRC(h) at one h is the fused near face
        assert (terms[1].kind, terms[2].kind) == (TermKind.CYL0, TermKind.CIRC)
        assert terms[1].L_eff == terms[2].L_eff
        parts = [_shell(*units(head.L_eff)), _face(*units(terms[2].L_eff))]
    elliptic_route = any(method is Method.ELLIPTIC for _, method, _ in parts)
    return SolidAngle(
        sum((p[0] for p in parts), 0.0),
        Method.ELLIPTIC if elliptic_route else Method.SPECIAL,
        sum((p[2] for p in parts), 0.0),
    )


def _assert_one_split(L, r, d, z):
    cyl, src = CylinderSpec(L, r), SourcePoint(d, z)
    calls = []

    def spy(*args):
        result = _split(*args)
        calls.append((args, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_split", spy)
        mp.setattr(solid_angle, "_split", spy)
        total = _outcome(omega_total, cyl, src)
        decompose(cyl, src)
    # one split each, on the same arguments
    assert len(calls) == 2 and calls[0] == calls[1], (L, r, d, z, calls)
    # and omega_total sums exactly the terms decompose emits from it
    assert total == _outcome(_total_from_terms, cyl, src), (L, r, d, z)


def _boundary_grid():
    """(L, r, d, z) on the split's edges: z at -0.0, 0, L/2 +- 1 ulp and L; d at 0 and r +- 1 ulp; L = 0."""
    for r in (1e-200, 0.37, 1.0, 3.0, 1e200):
        for L in (0.0, 0.3 * r, 2.0 * r, 7.5 * r):
            half = L / 2.0
            zs = (-0.0, 0.0, half, math.nextafter(half, math.inf), math.nextafter(half, -math.inf), L)
            zs += (-math.e * r, math.pi * L + r / 3.0)
            ds = (0.0, r, math.nextafter(r, math.inf), math.nextafter(r, 0.0), 0.5 * r, 2.0 * r)
            for z in zs:
                for d in ds:
                    yield L, r, d, z


@given(
    L=lengths,
    r=st.sampled_from([1e-200, 0.37, 1.0, 3.0, 1e200]),
    d_over_r=st.one_of(st.just(0.0), st.just(1.0), lengths),
    z_over_L=st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=400)
def test_total_and_decompose_share_one_split(L, r, d_over_r, z_over_L):
    # omega_total sums exactly the terms decompose emits: same region, same L_eff bits
    _assert_one_split(L * r, r, d_over_r * r, z_over_L * L * r)


def test_total_and_decompose_share_one_split_on_the_boundaries():
    for L, r, d, z in _boundary_grid():
        _assert_one_split(L, r, d, z)


@pytest.mark.parametrize("k", [1e-300, 1e-160, 1e-150, 1e150, 1e160, 1e300])
@pytest.mark.parametrize(
    "L, d, z",
    [(3.0, 2.0, -0.5), (3.0, 2.0, 1.5), (3.0, 0.5, -1.0), (3.0, 0.0, -1.0), (3.0, 1.0, -1.0), (20.0, 1.01, -1.0)],
)
def test_total_survives_uniform_rescale(L, d, z, k):
    # every length is divided by r before any squaring, so no scale under- or overflows
    unit = omega_total(CylinderSpec(L, 1.0), SourcePoint(d, z)).value
    scaled = omega_total(CylinderSpec(L * k, k), SourcePoint(d * k, z * k)).value
    assert scaled == pytest.approx(unit, abs=1e-15)


@pytest.mark.parametrize(
    "fn, L, d, k",
    [
        pytest.param(fn, 3.0, 2.0, k, id=f"{fn.__name__}-{k!r}")
        for fn in (omega_cyl0, omega_cyl0_series, omega_circ, omega_circ_third_kind, omega_circ_macklin)
        for k in (1e-300, 1e-160, 1e-150, 1e150, 1e160, 1e300)
    ]
    # the equal-distance disc near both ends of the double range
    + [pytest.param(omega_circ, 0.5, 1.0, k, id=f"equal-distance-{k!r}") for k in (2.0**1023, 1.7e308)]
    + [pytest.param(omega_circ, 2.0, 1.0, k, id=f"equal-distance-{k!r}") for k in (5e-324, 2.0**-1060, 1e-310)],
)
def test_canonical_evaluators_survive_uniform_rescale(fn, L, d, k):
    # each evaluator works in units of r, so direct calls at any scale agree
    unit = fn(CanonicalConfig(L, 1.0, d)).value
    scaled = fn(CanonicalConfig(L * k, k, d * k)).value
    assert scaled == pytest.approx(unit, abs=1e-15)


@pytest.mark.parametrize(
    "cyl, src, ratio",
    [
        (CylinderSpec(1.0, 1.0), SourcePoint(1e155, -0.5), "d/r"),
        (CylinderSpec(1e155, 1.0), SourcePoint(2.0, -0.5), "L/r"),
    ],
    ids=["far-d", "tall-L"],
)
def test_far_field_overflow_names_its_ratio(cyl, src, ratio):
    # L^2 + (d+r)^2 overflows in units of r; the error says so, not the kernel
    with pytest.raises(DomainError, match=f"overflows in units of r: {ratio} = 1e\\+155"):
        omega_total(cyl, src)


finite_lengths = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@given(L=finite_lengths, r=finite_lengths, d=finite_lengths, z=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=500)
def test_total_is_a_fraction_or_a_library_error(L, r, d, z):
    # the contract for every finite input: a value in [0, 1] or a SolidCylError
    try:
        got = omega_total(CylinderSpec(L, r), SourcePoint(d, z))
    except SolidCylError:
        return
    assert 0.0 <= got.value <= 1.0


# ------------------------------------------------------------------ SolidAngle


def test_solid_angle_clamps_roundoff():
    assert SolidAngle(-1e-13, Method.ELLIPTIC, 1e-14).value == 0.0
    assert SolidAngle(1.0 + 1e-13, Method.ELLIPTIC, 1e-14).value == 1.0


def test_solid_angle_rejects_out_of_band():
    with pytest.raises(DomainError):
        SolidAngle(-0.01, Method.ELLIPTIC, 1e-14)
    with pytest.raises(DomainError):
        SolidAngle(1.5, Method.SPECIAL, 0.0)


def test_solid_angle_out_of_range_values_take_the_band_check():
    # a value in (0, 1) is stored as given; every other one is checked
    # against the band and clamped, so -0.0 becomes +0.0 and int 1 a float
    for value in (-0.0, 0.0, 1.0, 1):
        got = SolidAngle(value, Method.SPECIAL, 0.0).value
        assert got == value and type(got) is float and math.copysign(1.0, got) == 1.0
    assert SolidAngle(math.nextafter(1.0, 2.0), Method.ELLIPTIC, 0.0).value == 1.0
    with pytest.raises(DomainError, match=r"^solid angle nan outside \[0, 1\] past the error band 1e-12$"):
        SolidAngle(math.nan, Method.ELLIPTIC, 1e-14)


def test_solid_angle_non_finite_error_estimates():
    # an infinite estimate widens the band to everything but NaN; a NaN or
    # negative one leaves the 1e-12 floor
    assert SolidAngle(2.0, Method.ELLIPTIC, math.inf).value == 1.0
    assert SolidAngle(-3.0, Method.ELLIPTIC, math.inf).value == 0.0
    with pytest.raises(DomainError, match=r"past the error band inf$"):
        SolidAngle(math.nan, Method.ELLIPTIC, math.inf)
    assert SolidAngle(1.0 + 1e-13, Method.ELLIPTIC, math.nan).value == 1.0
    with pytest.raises(DomainError, match=r"past the error band 1e-12$"):
        SolidAngle(1.5, Method.ELLIPTIC, math.nan)
    with pytest.raises(DomainError, match=r"past the error band 1e-12$"):
        SolidAngle(1.5, Method.ELLIPTIC, -math.inf)
    kept = SolidAngle(0.5, Method.ELLIPTIC, math.nan)
    assert kept.value == 0.5 and math.isnan(kept.err_estimate)


def test_steradians_property():
    assert SolidAngle(0.25, Method.SPECIAL, 0.0).steradians == pytest.approx(math.pi, rel=1e-15)
