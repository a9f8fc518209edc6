"""Elliptic kernel tests: frozen references, identities, domain guards.

The frozen numbers were generated once with mpmath at 40 significant digits
and rounded to the nearest float. Everything else is structural: exact
identities, symmetry and scaling laws of the Carlson forms, and the
divergence contracts.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solidcyl.elliptic import (
    _complete_pair,
    carlson_rc,
    carlson_rd,
    carlson_rf,
    carlson_rj,
    complete_E,
    complete_E_from_complement,
    complete_K,
    complete_K_from_complement,
    complete_Pi,
    incomplete_E,
    incomplete_E_from_parts,
    incomplete_F,
    incomplete_F_from_parts,
    incomplete_Pi,
    incomplete_Pi_from_parts,
)
from solidcyl.errors import DivergentError, DomainError

HALF_PI = math.pi / 2.0

# a few ulp of slack on top of the reference's own final rounding
REL = 2e-15

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
unit_open = st.floats(min_value=1e-12, max_value=0.999999, allow_nan=False)
amplitude = st.floats(min_value=1e-9, max_value=HALF_PI - 1e-9, allow_nan=False)


@pytest.mark.parametrize(
    "fn,args,expected",
    [
        (carlson_rf, (1.0, 2.0, 4.0), 0.6850858166334359),
        (carlson_rd, (0.0, 2.0, 1.0), 1.7972103521033884),
        (carlson_rj, (0.0, 1.0, 2.0, 3.0), 0.7768862377858233),
        (carlson_rc, (2.0, 3.0), 0.6154797086703874),
        (complete_K, (0.5,), 1.8540746773013719),
        (complete_K, (0.25,), 1.685750354812596),
        (complete_E, (0.5,), 1.3506438810476755),
        (incomplete_F, (math.pi / 4, 0.5), 0.8260178762492452),
        (incomplete_E, (math.pi / 4, 0.5), 0.7481865041776614),
        (complete_Pi, (0.5, 0.0), 2.221441469079183),
        (complete_Pi, (0.9, 0.3), 5.679474971453456),
        (incomplete_Pi, (0.7, 1.0, 0.4), 1.3869668851528185),
    ],
)
def test_frozen_reference_values(fn, args, expected):
    assert fn(*args) == pytest.approx(expected, rel=REL)


def test_special_values():
    assert complete_K(0.0) == pytest.approx(HALF_PI, rel=1e-15)
    assert complete_E(0.0) == pytest.approx(HALF_PI, rel=1e-15)
    assert complete_E(1.0) == 1.0
    assert incomplete_F(0.0, 0.7) == 0.0
    assert incomplete_E(0.0, 0.7) == 0.0
    assert incomplete_Pi(0.3, 0.0, 0.7) == 0.0
    # complete wrappers and the pi/2 incomplete case must agree exactly
    assert incomplete_F(HALF_PI, 0.5) == complete_K(0.5)
    assert incomplete_E(HALF_PI, 0.5) == complete_E(0.5)


# ---------------------------------------------------------------- Carlson laws


@given(x=positive, y=positive, z=positive)
def test_rf_symmetric_under_permutation(x, y, z):
    # symmetric analytically; the duplication arithmetic reorders sums, so
    # bit-for-bit equality is not promised, a ulp is
    base = carlson_rf(x, y, z)
    assert carlson_rf(y, z, x) == pytest.approx(base, rel=5e-16)
    assert carlson_rf(z, x, y) == pytest.approx(base, rel=5e-16)
    assert carlson_rf(y, x, z) == pytest.approx(base, rel=5e-16)


@given(x=positive, y=positive, z=positive, k=st.floats(min_value=1e-3, max_value=1e3))
def test_rf_homogeneity(x, y, z, k):
    # R_F(kx, ky, kz) = R_F(x, y, z) / sqrt(k)
    assert carlson_rf(k * x, k * y, k * z) == pytest.approx(
        carlson_rf(x, y, z) / math.sqrt(k), rel=1e-14
    )


@given(x=positive)
def test_rf_equal_args(x):
    assert carlson_rf(x, x, x) == pytest.approx(1.0 / math.sqrt(x), rel=1e-14)


@given(x=positive, y=positive, z=positive)
def test_rd_cyclic_sum(x, y, z):
    # R_D(x,y,z) + R_D(y,z,x) + R_D(z,x,y) = 3 / sqrt(x y z)
    lhs = carlson_rd(x, y, z) + carlson_rd(y, z, x) + carlson_rd(z, x, y)
    assert lhs == pytest.approx(3.0 / math.sqrt(x * y * z), rel=1e-13)


@given(x=positive, y=positive)
def test_rc_embeds_in_rf(x, y):
    # the closed-form shortcut against the duplication path, extreme ratios
    # included (the atanh spelling used to lose 11 digits at x/y ~ 1e6)
    assert carlson_rc(x, y) == pytest.approx(carlson_rf(x, y, y), rel=1e-14)


@given(x=positive, y=positive, z=positive)
def test_rj_reduces_to_rd(x, y, z):
    # R_J(x, y, z, z) = R_D(x, y, z); both run the same duplication loop
    assert carlson_rj(x, y, z, z) == carlson_rd(x, y, z)


def test_carlson_domain_guards():
    with pytest.raises(DomainError):
        carlson_rf(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        carlson_rf(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        carlson_rd(1.0, 1.0, 0.0)
    with pytest.raises(DomainError, match="both x and y are zero"):
        carlson_rd(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        carlson_rj(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        carlson_rc(1.0, 0.0)


@pytest.mark.parametrize(
    "kernel, arity, slot",
    [
        pytest.param(kernel, arity, slot, id=f"{kernel.__name__}-{slot}")
        for kernel, arity in ((carlson_rf, 3), (carlson_rc, 2), (carlson_rd, 3), (carlson_rj, 4))
        for slot in range(arity)
    ],
)
def test_carlson_kernels_reject_nan(kernel, arity, slot):
    # NaN compares false against every bound; the guard must still fire at once
    args = [0.5] * arity
    args[slot] = math.nan
    with pytest.raises(DomainError, match="requires|nonnegative"):
        kernel(*args)


def _guard_cases():
    """(kernel, args, message) for every argument slot of R_F, R_D and R_J.

    NaN and -1 fail the sign checks. -0.0 and 0.0 are zeros: R_F and R_J
    take one zero among x, y, z and R_D one of x, y, so each case puts a
    0.0 in another slot first; R_D's z and R_J's p must be positive alone.
    """
    for bad in (math.nan, -1.0, -0.0, 0.0):
        sign_fails = math.isnan(bad) or bad < 0.0
        for kernel, base in ((carlson_rf, [0.5, 1.0, 2.0]), (carlson_rj, [0.5, 1.0, 2.0, 0.25])):
            for slot in range(3):
                args = list(base)
                args[(slot + 1) % 3] = 0.0
                args[slot] = bad
                if sign_fails:
                    msg = f"carlson arguments must be nonnegative; got ({args[0]!r}, {args[1]!r}, {args[2]!r})"
                else:
                    msg = "at most one of x, y, z may be zero (integral diverges)"
                yield kernel, args, msg
        yield carlson_rj, [0.5, 1.0, 2.0, bad], f"carlson_rj requires p > 0 (circular case); got p={bad!r}"
        for slot in range(2):
            args = [0.5, 1.0, 2.0]
            args[1 - slot] = 0.0
            args[slot] = bad
            if sign_fails:
                msg = f"carlson_rd requires x, y >= 0 and z > 0; got ({args[0]!r}, {args[1]!r}, {args[2]!r})"
            else:
                msg = "carlson_rd diverges when both x and y are zero"
            yield carlson_rd, args, msg
        yield carlson_rd, [0.5, 1.0, bad], f"carlson_rd requires x, y >= 0 and z > 0; got (0.5, 1.0, {bad!r})"


@pytest.mark.parametrize(
    "kernel, args, message",
    [pytest.param(*case, id=f"{case[0].__name__}{tuple(case[1])}") for case in _guard_cases()],
)
def test_carlson_guards_keep_their_messages(kernel, args, message):
    # the kernels skip the argument check when every argument is positive;
    # anything else must still reach it and raise the same error
    with pytest.raises(DomainError) as err:
        kernel(*args)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "kernel, args, message",
    [
        (carlson_rf, (math.inf, 1.0, 2.0), "carlson_rf duplication failed to converge"),
        (carlson_rf, (0.0, 1.0, math.inf), "carlson_rf duplication failed to converge"),
        (carlson_rd, (math.inf, 1.0, 2.0), "carlson_rj duplication failed to converge"),
        (carlson_rd, (1.0, 2.0, math.inf), "carlson_rj duplication failed to converge"),
        (carlson_rd, (0.0, math.inf, 1.0), "carlson_rj duplication failed to converge"),
        (carlson_rj, (math.inf, 1.0, 2.0, 3.0), "R_J(inf, 1.0, 2.0, 3.0): argument spread too wide for the duplication loop"),
        (carlson_rj, (1.0, 2.0, 3.0, math.inf), "R_J(1.0, 2.0, 3.0, inf): argument spread too wide for the duplication loop"),
        (carlson_rj, (0.0, 1.0, math.inf, 2.0), "R_J(0.0, 1.0, inf, 2.0): argument spread too wide for the duplication loop"),
        (carlson_rj, (math.inf,) * 4, "carlson_rj duplication failed to converge"),
    ],
)
def test_carlson_infinite_arguments_raise(kernel, args, message):
    # an infinite argument passes the sign checks; its NaN stop bound never
    # ends the loop, or its first R_C step is undefined
    with pytest.raises(DomainError) as err:
        kernel(*args)
    assert str(err.value) == message


def test_carlson_rc_rejects_infinite_x():
    with pytest.raises(DomainError, match="finite x"):
        carlson_rc(math.inf, 1.0)


# ------------------------------------------------------------- exact identities


@given(phi=amplitude)
def test_first_kind_at_zero_parameter_is_identity(phi):
    assert incomplete_F(phi, 0.0) == pytest.approx(phi, rel=1e-15)


@given(phi=amplitude, m=unit_open)
def test_third_kind_at_zero_characteristic_reduces_to_first(phi, m):
    # the n = 0 shortcut must be bit-identical, not merely close
    assert incomplete_Pi(0.0, phi, m) == incomplete_F(phi, m)


@given(m=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=200)
def test_legendre_relation(m):
    lhs = (
        complete_E(m) * complete_K(1.0 - m)
        + complete_E(1.0 - m) * complete_K(m)
        - complete_K(m) * complete_K(1.0 - m)
    )
    assert lhs == pytest.approx(HALF_PI, rel=1e-13)


@given(m1=unit_open, m2=unit_open)
def test_complete_monotonicity(m1, m2):
    lo, hi = sorted((m1, m2))
    assert complete_K(lo) <= complete_K(hi)
    assert complete_E(lo) >= complete_E(hi)


def test_complete_E_monotone_near_one():
    # the pair hypothesis once found inverted when E was K - (m/3) R_D
    assert complete_E(0.9999989999999999) >= complete_E(0.999999)


def test_complete_E_bounded_and_monotone_down_to_subnormal_complement():
    # m' from 1 down to the smallest subnormal; E must rise towards pi/2 as m'
    # grows and never leave [1, pi/2]
    grid = sorted([5e-324, 1e-310, 1e-300] + [10.0 ** (-k / 4) for k in range(1201)])
    values = [complete_E_from_complement(mp) for mp in grid]
    assert all(1.0 <= e <= HALF_PI for e in values)
    assert all(a <= b for a, b in zip(values, values[1:]))


@given(phi=amplitude, m=unit_open)
def test_second_kind_bounded_by_first(phi, m):
    e = incomplete_E(phi, m)
    f = incomplete_F(phi, m)
    assert math.sin(phi) <= e + 1e-15
    assert e <= f * (1.0 + 1e-15)


@given(n=unit_open, phi=amplitude, m=unit_open)
def test_third_kind_dominates_first(n, phi, m):
    # positive characteristic only increases the integrand
    assert incomplete_Pi(n, phi, m) >= incomplete_F(phi, m)


# -------------------------------------------------- from-parts entry points


@given(phi=amplitude, m=unit_open)
@example(phi=0.8684021419404652, m=0.875)
def test_parts_spelling_matches_wrapper_F_E(phi, m):
    # c2 spelled as the wrapper spells it, c * c: cos(phi) ** 2 can be an
    # ulp off it (at phi = 0.8684021419404652)
    s, c = math.sin(phi), math.cos(phi)
    c2 = c * c
    y = (1.0 - m) + m * c2
    assert incomplete_F_from_parts(s, c2, y) == incomplete_F(phi, m)
    assert incomplete_E_from_parts(s, c2, y, m) == incomplete_E(phi, m)


@given(n=unit_open, phi=amplitude, m=unit_open)
@example(n=0.859375, phi=0.8684021419404652, m=0.875)
def test_parts_spelling_matches_wrapper_Pi(n, phi, m):
    s, c = math.sin(phi), math.cos(phi)
    c2 = c * c
    y = (1.0 - m) + m * c2
    p = (1.0 - n) + n * c2
    assert incomplete_Pi_from_parts(s, c2, y, p, n) == incomplete_Pi(n, phi, m)


@given(m=unit_open)
def test_complement_spelling_matches_wrapper(m):
    assert complete_K_from_complement(1.0 - m) == complete_K(m)
    assert complete_E_from_complement(1.0 - m) == complete_E(m)


def test_complement_edge_values():
    assert complete_E_from_complement(0.0) == 1.0
    assert complete_E_from_complement(1.0) == pytest.approx(HALF_PI, rel=1e-15)
    assert complete_K_from_complement(1.0) == pytest.approx(HALF_PI, rel=1e-15)
    # far below any representable 1 - m: the whole point of the entry
    tiny = 1e-300
    k = complete_K_from_complement(tiny)
    assert math.isfinite(k) and k > 300.0


def test_complement_guards():
    with pytest.raises(DivergentError):
        complete_K_from_complement(0.0)
    with pytest.raises(DomainError):
        complete_K_from_complement(-1e-3)
    with pytest.raises(DomainError):
        complete_E_from_complement(1.5)
    with pytest.raises(DomainError):
        incomplete_F_from_parts(1.2, 0.0, 0.5)
    with pytest.raises(DomainError):
        incomplete_Pi_from_parts(0.5, -0.1, 0.5, 0.5, 0.5)
    with pytest.raises(DomainError, match="1 - n sin"):
        incomplete_Pi_from_parts(0.5, 0.75, 0.875, -0.1, 0.5)  # valid parts, p < 0
    with pytest.raises(DomainError):
        incomplete_E_from_parts(0.9, 0.1, 0.0, 0.8)  # y = 0 off the corner


# ------------------------------------------------------------------ divergence


def test_divergent_corners_raise():
    with pytest.raises(DivergentError):
        complete_K(1.0)
    with pytest.raises(DivergentError):
        incomplete_F(HALF_PI, 1.0)
    with pytest.raises(DivergentError):
        incomplete_Pi(1.0, HALF_PI, 0.5)
    with pytest.raises(DivergentError):
        complete_Pi(1.0, 0.5)
    with pytest.raises(DivergentError):
        incomplete_Pi_from_parts(1.0, 0.0, 0.5, 0.0, 1.0)
    with pytest.raises(DivergentError, match="m = 1"):
        incomplete_Pi_from_parts(1.0, 0.0, 0.0, 0.5, 0.5)  # y = 0 with p > 0
    with pytest.raises(DivergentError):
        incomplete_F_from_parts(1.0, 0.0, 0.0)
    # but the incomplete first kind is finite at m = 1 short of pi/2
    assert incomplete_F(1.0, 1.0) == pytest.approx(
        math.log(math.tan(1.0) + 1.0 / math.cos(1.0)), rel=1e-13
    )


def test_incomplete_E_at_full_corner():
    assert incomplete_E(HALF_PI, 1.0) == 1.0
    assert incomplete_E_from_parts(1.0, 0.0, 0.0, 1.0) == 1.0


# --------------------------------------------------------------- domain types


def test_parameter_guard_band():
    # m within 4 eps of [0, 1] is snapped onto the boundary, anything past it raises
    assert complete_K(-1e-17) == complete_K(0.0)
    assert complete_E(1.0 + 2e-16) == complete_E(1.0) == 1.0
    with pytest.raises(DomainError, match="parameter m"):
        complete_K(1.001)
    with pytest.raises(DomainError, match="parameter m"):
        complete_K(-1e-3)
    with pytest.raises(DomainError, match="parameter m"):
        complete_K(float("nan"))


def test_characteristic_and_amplitude_guards():
    assert incomplete_Pi(1.0, 1.0, 0.5) == incomplete_Pi(1.0 + 2e-16, 1.0, 0.5)
    with pytest.raises(DomainError, match="characteristic n"):
        incomplete_Pi(2.0, 1.0, 0.5)
    assert incomplete_F(HALF_PI + 1e-16, 0.5) == incomplete_F(HALF_PI, 0.5)
    assert incomplete_F(math.nextafter(HALF_PI, 2.0), 0.5) == incomplete_F(HALF_PI, 0.5)
    assert incomplete_F(-1e-17, 0.5) == 0.0
    with pytest.raises(DomainError, match="amplitude phi"):
        incomplete_F(2.0, 0.5)
    with pytest.raises(DomainError, match="amplitude phi"):
        incomplete_F(-0.5, 0.5)


# ------------------------------------------------- cross-check against mpmath


mpmath = pytest.importorskip("mpmath")


@pytest.mark.parametrize(
    "m", [1e-12, 0.001, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 1e-13]
)
def test_complete_K_against_mpmath(m):
    with mpmath.workdps(30):
        ref = float(mpmath.ellipk(m))
    assert complete_K(m) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("m", [0.001, 0.37, 0.93, 1.0 - 1e-10])
def test_complete_E_against_mpmath(m):
    with mpmath.workdps(30):
        ref = float(mpmath.ellipe(m))
    assert complete_E(m) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize(
    "n,phi,m",
    [
        (0.5, 1.2, 0.5),
        (0.99, HALF_PI, 0.5),
        (0.6, 0.3, 0.94),
        (0.2, 1.5, 0.8),  # m > n: the ordering the geometry never issues
    ],
)
def test_incomplete_Pi_against_mpmath(n, phi, m):
    with mpmath.workdps(30):
        ref = float(mpmath.ellippi(n, phi, m))
    assert incomplete_Pi(n, phi, m) == pytest.approx(ref, rel=1e-12)


# The kernels on a grid spanning 16 decades in x and y and 14 in p, where R_J
# used to form 1 + e_n by cancellation and R_C(x, y) lost digits as y -> x.
_GRID_X = [0.0] + [10.0 ** (-k / 2) for k in range(17)]
_GRID_Y = [10.0 ** (-k / 2) for k in range(17)]
_GRID_XY = [(x, y) for x in _GRID_X for y in _GRID_Y]


def _worst_rel(kernel, reference, tuples):
    worst = 0.0
    with mpmath.workdps(40):
        for args in tuples:
            exact = reference(*args)
            worst = max(worst, float(abs((kernel(*args) - exact) / exact)))
    return worst


def test_rf_rd_against_mpmath_on_grid():
    tuples = [(x, y, 1.0) for x, y in _GRID_XY]
    assert _worst_rel(carlson_rf, mpmath.elliprf, tuples) <= 1e-15
    assert _worst_rel(carlson_rd, mpmath.elliprd, tuples) <= 1e-15


@pytest.mark.parametrize("p", [1.0, 1e-4, 1e-8, 1e-12, 1e-14])
def test_rj_against_mpmath_on_grid(p):
    tuples = [(x, y, 1.0, p) for x, y in _GRID_XY]
    assert _worst_rel(carlson_rj, mpmath.elliprj, tuples) <= 1e-15


def test_rc_against_mpmath_near_equal_and_small_arguments():
    ys = [2.0] + [1.0 + 10.0**-k for k in range(1, 17)] + [1.0 - 10.0**-k for k in range(1, 17)]
    ys += [10.0**-k for k in range(17)]
    assert _worst_rel(carlson_rc, mpmath.elliprc, [(1.0, y) for y in ys]) <= 1e-15


def test_complete_pair_against_mpmath():
    # m is the exact complement of m', so the reference K is finite down to
    # subnormal m'; the float m passed in is its nearest double
    worst = 0.0
    with mpmath.workdps(40):
        for m_prime in [5e-324, 1e-300, 1e-30] + [10.0 ** (-k / 2) for k in range(33)]:
            m = mpmath.fsub(1, m_prime, exact=True)
            K, K_minus_E = _complete_pair(float(m), m_prime)
            ref_K = mpmath.ellipk(m)
            ref_gap = (m / 3) * mpmath.elliprd(0, m_prime, 1)
            worst = max(worst, float(abs(K - ref_K) / ref_K))
            if ref_gap == 0:
                assert K_minus_E == 0.0
            else:
                worst = max(worst, float(abs(K_minus_E - ref_gap) / ref_gap))
    assert worst <= 1e-15


def test_complete_pair_diverges_at_zero_complement():
    with pytest.raises(DivergentError):
        _complete_pair(1.0, 0.0)


@pytest.mark.parametrize("s", [1e100, 1e-100, 1e150, 1e-150, 1e200, 1e-200])
@pytest.mark.parametrize(
    "x, y, z, p", [(0.3, 2.0, 1.0, 1e-3), (0.0, 0.5, 1.0, 4.0), (1.0, 1e-4, 3.0, 1e-8)]
)
def test_rj_homogeneous_at_extreme_scales(s, x, y, z, p):
    # R_J(s x, s y, s z, s p) = s^(-3/2) R_J(x, y, z, p)
    unit = carlson_rj(x, y, z, p)
    scaled = carlson_rj(s * x, s * y, s * z, s * p) * s**1.5
    assert scaled == pytest.approx(unit, rel=1e-15)


_DOUBLE_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("s", [1e205, 1e-205, 1e250, 1e-250, 1e300, 1e-300])
@pytest.mark.parametrize(
    "kernel, reference, args",
    [
        (carlson_rd, mpmath.elliprd, (1.0, 2.0, 3.0)),
        (carlson_rd, mpmath.elliprd, (0.0, 0.5, 1.0)),
        (carlson_rj, mpmath.elliprj, (1.0, 2.0, 3.0, 4.0)),
        (carlson_rj, mpmath.elliprj, (0.3, 2.0, 1.0, 1e-3)),
    ],
)
def test_rd_rj_across_the_double_range(s, kernel, reference, args):
    # the value wherever it is a double, subnormal or 0.0 included, and a
    # DomainError naming the overflow where it is not; at these scales the
    # loop's products of three square roots under- or overflow unscaled
    scaled = tuple(s * a for a in args)
    with mpmath.workdps(40):
        exact = reference(*(mpmath.mpf(a) for a in scaled))
    if exact > _DOUBLE_MAX:
        with pytest.raises(DomainError, match="overflows the double range"):
            kernel(*scaled)
    else:
        # a few ulp relative, or half a subnormal ulp where the value underflows
        assert abs(kernel(*scaled) - exact) <= 1e-15 * exact + 2.5e-324


@pytest.mark.parametrize(
    "args",
    [(1e300, 1e-300, 1e-300, 1e-300), (1e300, 1e300, 1e-300, 1e-300), (1e300, 0.0, 1e-300, 1e-300)],
)
def test_rd_rj_with_arguments_spread_past_the_band(args):
    # moving the largest argument into the loop's band would push the
    # smallest below the normal range, so these run unmoved
    with mpmath.workdps(40):
        exact_rj = mpmath.elliprj(*(mpmath.mpf(a) for a in args))
        exact_rd = mpmath.elliprd(*(mpmath.mpf(a) for a in args[:3]))
    assert carlson_rj(*args) == pytest.approx(float(exact_rj), rel=1e-15)
    assert carlson_rd(*args[:3]) == pytest.approx(float(exact_rd), rel=1e-15)


@pytest.mark.parametrize(
    "kernel, args",
    [(carlson_rj, (2.0**-590, 5e-324, 5e-324, 5e-324)), (carlson_rd, (2.0**-590, 5e-324, 5e-324))],
)
def test_rd_rj_whose_first_term_overflows(kernel, args):
    # the mean is inside the loop's band, but d_0 underflows to 0; the value,
    # about 1.9e412, overflows the double range
    with mpmath.workdps(40):
        assert mpmath.elliprj(mpmath.mpf(2) ** -590, *[mpmath.mpf(5e-324)] * 3) > _DOUBLE_MAX
    with pytest.raises(DomainError, match=r"R_J\(.*overflows the double range"):
        kernel(*args)


def test_rj_with_arguments_spread_too_wide_for_the_loop():
    # 1e300 cannot move down without the 1e-300s leaving the normal range,
    # and unmoved the loop's d_n overflows
    with pytest.raises(DomainError, match=r"R_J\(.*argument spread"):
        carlson_rj(1e-300, 1e-300, 1e-300, 1e300)


def test_rc_at_zero_x_is_a_quarter_period():
    for y in (1e-300, 0.25, 1.0, 3.0, 1e300):
        assert carlson_rc(0.0, y) == pytest.approx(HALF_PI / math.sqrt(y), rel=1e-15)


@given(phi=amplitude)
def test_second_kind_at_zero_parameter_is_identity(phi):
    assert incomplete_E(phi, 0.0) == pytest.approx(phi, rel=1e-15)
