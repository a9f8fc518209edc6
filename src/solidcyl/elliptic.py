"""Legendre elliptic integrals on Carlson symmetric forms.

Everything here uses the PARAMETER convention: the second argument of K, E,
F, Pi is

    m = k**2 = sin(alpha)**2

where k is the modulus and alpha the modular angle. Conversions:

    K(m)       = F(pi/2 | m)
    F(phi | m) = integral_0^phi dt / sqrt(1 - m sin^2 t)
    E(phi | m) = integral_0^phi sqrt(1 - m sin^2 t) dt
    Pi(n; phi | m) = integral_0^phi dt / ((1 - n sin^2 t) sqrt(1 - m sin^2 t))

A caller holding a modulus k must pass m = k*k; a caller holding a modular
angle alpha must pass m = sin(alpha)**2. Mixing conventions is the classic
silent bug with these functions, hence the reminder.

The accuracy-bearing backend is Carlson's duplication theorem applied to the
symmetric forms R_F, R_C, R_D, R_J (scalar double precision, fixed machine
epsilon termination, not configurable). The Legendre-style wrappers reduce to

    F(phi|m)       = sin(phi) R_F(cos^2 phi, 1 - m sin^2 phi, 1)
    E(phi|m)       = F(phi|m) - (m/3) sin^3(phi) R_D(cos^2 phi, 1 - m sin^2 phi, 1)
    Pi(n; phi|m)   = F(phi|m) + (n/3) sin^3(phi)
                       R_J(cos^2 phi, 1 - m sin^2 phi, 1, 1 - n sin^2 phi)

with 1 - m sin^2 phi evaluated as (1 - m) + m cos^2 phi so the dangerous
corner m -> 1, phi -> pi/2 keeps full precision.

R_D is evaluated as R_J(x, y, z, z), so the two share one duplication loop
and one degree-7 tail. Each R_J duplication step absorbs R_C(1, 1 + e_n),
evaluated inline with carlson_rc's own expressions (atan above 1, log1p
below), so the step makes no function call and the bits match carlson_rc.
Against 40-digit mpmath, R_F, R_D and R_J are each
within 1e-15 relative (a few ulp) on x in {0} and 10^(-k/2), y in 10^(-k/2)
(k = 0..16), z = 1 and p from 1 down to 1e-14, and so is R_C(1, y) for
y = 1 +- 10^-k and y = 10^-k; the test suite checks this. R_D and R_J
return their value wherever it is a double: arguments whose mean lies
outside 2^-600..2^600 are moved into that band by a power of 4 and the
result back by the matching power of 8 (R_J is homogeneous of degree
-3/2), so a result below the normal range rounds once, down to 0.0, and
one beyond the double range raises DomainError. The move is made only
where it is exact, with no nonzero argument pushed below the normal
range; arguments spread wider than that run unmoved, as at unit scale.

The closed form of the end disc needs the complete pair K(m) and K(m) - E(m)
on its own. _complete_pair takes both from one arithmetic-geometric mean
loop (DLMF 19.8.5-19.8.6), which converges quadratically where duplication
on (0, m', 1) converges slowest; both stay within 1e-15 relative of 40-digit
mpmath for m' from subnormal to 1. complete_K, complete_E and the two disc
cross-check forms stay on the Carlson kernels, so the cross-checks test the
pair against separate code, and the oracle's AGM stays a second opinion on
Carlson's K. Independent cross-checks (the oracle's AGM, quadrature of the
defining integrals, mpmath) live in the oracle module and the test suite,
never on this path.
"""

from __future__ import annotations

import math
import sys

from .errors import DivergentError, DomainError

__all__ = [
    "carlson_rf",
    "carlson_rc",
    "carlson_rd",
    "carlson_rj",
    "complete_K",
    "complete_E",
    "complete_Pi",
    "incomplete_F",
    "incomplete_E",
    "incomplete_Pi",
    "complete_K_from_complement",
    "complete_E_from_complement",
    "incomplete_F_from_parts",
    "incomplete_E_from_parts",
    "incomplete_Pi_from_parts",
]

_EPS = sys.float_info.epsilon
# values this far outside the closed domain are treated as roundoff and clamped
_GUARD = 4.0 * _EPS
_HALF_PI = math.pi / 2.0
_MAX_ITER = 200
# duplication stop factors (Carlson 1995): the loop ends once
# 4^-n * max|A0 - arg| times the factor drops below |A|
_RF_STOP = (3.0 * _EPS) ** (-0.125)
_RJ_STOP = (0.2 * _EPS) ** (-0.125)
# the R_J loop forms products up to 8 A0^(3/2), which overflow past
# A0 = 2^680, and 1/A0^(3/2), which overflows below 2^-680: it runs on
# arguments whose mean A0 lies in this band, and _rj_shift moves others
_RJ_LOW, _RJ_HIGH = 2.0**-600, 2.0**600
# complement m' = 1 - m at or below which E(m) rounds to 1
_E_IS_ONE = 2.0**-57


def _clamp(value: float, name: str, top: float = 1.0) -> float:
    """Snap roundoff-level excursions outside [0, top] back to the boundary."""
    v = float(value)
    if math.isnan(v) or v < -_GUARD or v > top + _GUARD:
        raise DomainError(f"{name} must lie in [0, {top:g}] (guard band 4*eps); got {value!r}")
    return min(top, max(0.0, v))


def _check_rf_args(x: float, y: float, z: float) -> None:
    # written as `not >=` so that NaN fails the check too
    if not x >= 0.0 or not y >= 0.0 or not z >= 0.0:
        raise DomainError(f"carlson arguments must be nonnegative; got ({x!r}, {y!r}, {z!r})")
    if (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise DomainError("at most one of x, y, z may be zero (integral diverges)")


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson R_F(x,y,z) = (1/2) integral_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    Duplication: the argument triple is repeatedly replaced by
    (x+lam)/4 with lam = sqrt(x)sqrt(y) + sqrt(x)sqrt(z) + sqrt(y)sqrt(z),
    which leaves R_F invariant up to the factor 1/sqrt(4); once the iterates
    agree to the termination criterion a degree-7 Taylor tail is summed.
    Nonnegative arguments, at most one zero.
    """
    x, y, z = float(x), float(y), float(z)
    if not (x > 0.0 and y > 0.0 and z > 0.0):
        _check_rf_args(x, y, z)
    sqrt = math.sqrt
    A0 = (x + y + z) / 3.0
    # max() of the three gaps, NaN kept where max() keeps it
    q = abs(A0 - x)
    if (u := abs(A0 - y)) > q:
        q = u
    if (u := abs(A0 - z)) > q:
        q = u
    q = _RF_STOP * q
    A, xn, yn, zn = A0, x, y, z
    pow4 = 1.0
    # A > 0 throughout: the arguments are nonnegative with at most one zero
    for _ in range(_MAX_ITER):
        if pow4 * q < A:
            break
        sx, sy, sz = sqrt(xn), sqrt(yn), sqrt(zn)
        lam = sx * (sy + sz) + sy * sz
        A = (A + lam) * 0.25
        xn = (xn + lam) * 0.25
        yn = (yn + lam) * 0.25
        zn = (zn + lam) * 0.25
        pow4 *= 0.25
    else:  # pragma: no cover - termination is geometric
        raise DomainError("carlson_rf duplication failed to converge")
    X = (A0 - x) * pow4 / A
    Y = (A0 - y) * pow4 / A
    Z = -X - Y
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    series = 1.0 + E3 * (1.0 / 14.0 + 3.0 * E3 / 104.0) + E2 * (
        -0.1 + E2 / 24.0 - 3.0 * E3 / 44.0 - 5.0 * E2 * E2 / 208.0 + E2 * E3 / 16.0
    )
    return series / math.sqrt(A)


def carlson_rc(x: float, y: float) -> float:
    """Degenerate form R_C(x,y) = R_F(x,y,y), by closed formulas. Finite x >= 0, y > 0."""
    x, y = float(x), float(y)
    if not 0.0 <= x < math.inf or not y > 0.0:
        raise DomainError(f"carlson_rc requires finite x >= 0 and y > 0; got ({x!r}, {y!r})")
    if x == y:
        return 1.0 / math.sqrt(x)
    if y > x:
        d = y - x
        if x == 0.0:
            return _HALF_PI / math.sqrt(d)
        return math.atan(math.sqrt(d / x)) / math.sqrt(d)
    # atanh(w) with w = sqrt(1 - y/x) is ill-conditioned as w -> 1; expand it
    # through 1 - w^2 = y/x instead: atanh(w) = log1p(w) + log(x/y)/2, with
    # log(x/y) spelled log1p(d/y) to keep the exact d = x - y as x -> y
    d = x - y
    w = math.sqrt(d / x)
    return (math.log1p(w) + 0.5 * math.log1p(d / y)) / math.sqrt(d)


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson R_D(x,y,z) = (3/2) integral_0^inf dt / (sqrt((t+x)(t+y)) (t+z)^{3/2}).

    x, y >= 0 with at most one zero; z > 0. Evaluated as R_J(x, y, z, z) on
    R_J's duplication loop, which needs no R_C when p equals z.
    """
    x, y, z = float(x), float(y), float(z)
    if not x >= 0.0 or not y >= 0.0 or not z > 0.0:
        raise DomainError(f"carlson_rd requires x, y >= 0 and z > 0; got ({x!r}, {y!r}, {z!r})")
    if x == 0.0 and y == 0.0:
        raise DomainError("carlson_rd diverges when both x and y are zero")
    return _rj(x, y, z, z)


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson R_J(x,y,z,p), the third-kind carrier. Circular case only: p > 0.

    x, y, z nonnegative with at most one zero. Each duplication step absorbs a
    piece of the integral through R_C(1, 1 + e_n), with 1 + e_n formed as the
    product 2 sqrt(p_n) (p_n + lam_n) / d_n, d_n = prod(sqrt(p_n) + sqrt(x_n)):
    both factors are positive, so nothing cancels however small p is.
    """
    x, y, z, p = float(x), float(y), float(z), float(p)
    if not (x > 0.0 and y > 0.0 and z > 0.0):
        _check_rf_args(x, y, z)
    if not p > 0.0:
        raise DomainError(f"carlson_rj requires p > 0 (circular case); got p={p!r}")
    return _rj(x, y, z, p)


def _rj(x: float, y: float, z: float, p: float) -> float:
    """R_J duplication and degree-7 tail on checked floats; R_D is _rj(x, y, z, z)."""
    sqrt = math.sqrt
    A0 = (x + y + z + 2.0 * p) / 5.0
    if not _RJ_LOW < A0 < _RJ_HIGH and (k := _rj_shift(x, y, z, p)):
        # R_J is homogeneous of degree -3/2: R_J(4^-k a) = 8^k R_J(a); only
        # the last ldexp can overflow
        try:
            return math.ldexp(_rj(*(math.ldexp(v, -2 * k) for v in (x, y, z, p))), -3 * k)
        except OverflowError:
            raise DomainError(f"R_J({x!r}, {y!r}, {z!r}, {p!r}) overflows the double range") from None
    # max() of the four gaps, NaN kept where max() keeps it
    q = abs(A0 - x)
    if (u := abs(A0 - y)) > q:
        q = u
    if (u := abs(A0 - z)) > q:
        q = u
    if (u := abs(A0 - p)) > q:
        q = u
    q = _RJ_STOP * q
    # p equal to an argument keeps p_n equal to it, so every 1 + e_n is exactly 1
    need_rc = not (p == x or p == y or p == z)
    A, xn, yn, zn, pn = A0, x, y, z, p
    pow4 = 1.0
    acc = 0.0
    # A > 0 throughout: the callers check x, y, z >= 0 (one zero at most), p > 0
    try:
        for _ in range(_MAX_ITER):
            if pow4 * q < A:
                break
            sx, sy, sz, sp = sqrt(xn), sqrt(yn), sqrt(zn), sqrt(pn)
            lam = sx * (sy + sz) + sy * sz
            dn = (sp + sx) * (sp + sy) * (sp + sz)
            term = pow4 / dn
            if need_rc:
                # R_C(1, e) with carlson_rc's own expressions at x = 1, so the
                # bits match; R_C(1, 1) = 1
                e = 2.0 * sp * (pn + lam) / dn
                if e > 1.0:
                    g = e - 1.0
                    w = sqrt(g)
                    term *= math.atan(w) / w
                elif 0.0 < e < 1.0:
                    g = 1.0 - e
                    w = sqrt(g)
                    term *= (math.log1p(w) + 0.5 * math.log1p(g / e)) / w
                elif e != 1.0:
                    # e is 0 or NaN: d_n overflowed, or the product above
                    # underflowed, which takes arguments spread across most
                    # of the double range
                    raise DomainError(
                        f"R_J({x!r}, {y!r}, {z!r}, {p!r}): argument spread too wide for the duplication loop"
                    )
            acc += term
            A = (A + lam) * 0.25
            xn = (xn + lam) * 0.25
            yn = (yn + lam) * 0.25
            zn = (zn + lam) * 0.25
            pn = (pn + lam) * 0.25
            pow4 *= 0.25
        else:  # pragma: no cover
            raise DomainError("carlson_rj duplication failed to converge")
    except ZeroDivisionError:
        # d_n underflowed to 0: in the loop's band that takes a first term
        # pow4 / d_n, and so R_J, past the double range
        raise DomainError(f"R_J({x!r}, {y!r}, {z!r}, {p!r}) overflows the double range") from None
    X = (A0 - x) * pow4 / A
    Y = (A0 - y) * pow4 / A
    Z = (A0 - z) * pow4 / A
    P = -(X + Y + Z) / 2.0
    E2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    E3 = X * Y * Z + 2.0 * E2 * P + 4.0 * P * P * P
    E4 = (2.0 * X * Y * Z + E2 * P + 3.0 * P * P * P) * P
    E5 = X * Y * Z * P * P
    tail = (
        1.0
        - 3.0 * E2 / 14.0
        + E3 / 6.0
        + 9.0 * E2 * E2 / 88.0
        - 3.0 * E4 / 22.0
        - 9.0 * E2 * E3 / 52.0
        + 3.0 * E5 / 26.0
        - E2 * E2 * E2 / 16.0
        + 3.0 * E3 * E3 / 40.0
        + 3.0 * E2 * E4 / 20.0
        + 45.0 * E2 * E2 * E3 / 272.0
        - 9.0 * (E3 * E4 + E2 * E5) / 68.0
    )
    return pow4 * tail / (A * math.sqrt(A)) + 6.0 * acc


def _rj_shift(x: float, y: float, z: float, p: float) -> int:
    """k that moves the largest argument of R_J to about 2^598, or 0.

    4^-k scales every argument exactly unless one is infinite (it has no
    scale to move; the loop rejects it) or a nonzero one would leave the
    normal range; 0 leaves those arguments to the loop unmoved.
    """
    top = max(x, y, z, p)
    k = (math.frexp(top)[1] - 598) // 2
    low = min(v for v in (x, y, z, p) if v > 0.0)
    return k if top < math.inf and math.ldexp(low, -2 * k) >= sys.float_info.min else 0


# The *_from_parts evaluators take the Carlson arguments directly instead of
# (phi, m, n).  Callers that know exact product expressions for sin(phi),
# cos^2(phi), y = 1 - m sin^2(phi) and p = 1 - n sin^2(phi) must use these
# or the Carlson kernels themselves, as the closed forms in solid_angle do:
# rebuilding y or p from a rounded angle or from 1 - n loses up to half the
# significand when the true value is near zero, and that error is NOT damped
# by the integral (dPi/dn blows up as p -> 0).  The (phi, m) wrappers below
# delegate here, so both spellings agree exactly.


def _check_parts(s: float, c2: float, y: float) -> None:
    if not (0.0 <= s <= 1.0) or c2 < 0.0 or y < 0.0:
        raise DomainError(
            f"invalid integrand parts: sin={s!r}, cos^2={c2!r}, y={y!r}"
        )


def _check_complement(m_prime: float) -> None:
    if m_prime < 0.0 or m_prime > 1.0:
        raise DomainError(f"complement must lie in [0, 1]; got {m_prime!r}")


def complete_K_from_complement(m_prime: float) -> float:
    """K(m) evaluated from m' = 1 - m, exact when the caller knows m' directly."""
    _check_complement(m_prime)
    if m_prime == 0.0:
        raise DivergentError("complete_K requires m < 1: K(m) diverges as m -> 1")
    return carlson_rf(0.0, m_prime, 1.0)


def complete_E_from_complement(m_prime: float) -> float:
    """E(m) evaluated from m' = 1 - m.

    Uses the positive sum E = (m'/3) [R_D(0, m', 1) + R_D(0, 1, m')] (DLMF
    19.25.1) rather than K - (m/3) R_D(0, m', 1), whose two terms nearly
    cancel as m -> 1.
    """
    _check_complement(m_prime)
    # E - 1 < 7.2e-17 here, so E rounds to 1; the sum would overflow for
    # subnormal m'
    if m_prime <= _E_IS_ONE:
        return 1.0
    e = (m_prime / 3.0) * (carlson_rd(0.0, m_prime, 1.0) + carlson_rd(0.0, 1.0, m_prime))
    return max(1.0, e)


def _complete_pair(m: float, m_prime: float) -> tuple[float, float]:
    """(K(m), K(m) - E(m)) from one AGM loop (DLMF 19.8.5-19.8.6).

    The caller passes m' and m = 1 - m' each as accurately as it knows them:
    K depends on m' alone, and m enters only as c_0^2, so K - E carries the
    relative error of m. The loop runs a_0 = 1, b_0 = sqrt(m') with c_0^2 = m, and
    c_{n+1}^2 = (c_n^2 / (4 a_{n+1}))^2 keeps every c_n without the
    cancelling a_n - b_n. Then K = (pi/2)/a_N and
    K - E = K sum_n 2^(n-1) c_n^2, a sum of positive terms, so K - E keeps
    its relative accuracy as m -> 0 and as m -> 1. The loop stops once
    c_n^2 <= eps a_n^2: a_{n+1} then agrees with b_{n+1} to eps, and the
    next c^2 adds less than eps^2 to the sum.
    """
    if m_prime == 0.0:
        raise DivergentError("complete_K requires m < 1: K(m) diverges as m -> 1")
    a, b, c2 = 1.0, math.sqrt(m_prime), m
    total, weight = 0.5 * c2, 0.5
    while c2 > _EPS * a * a:
        a_next = 0.5 * (a + b)
        b = math.sqrt(a * b)
        c = c2 / (4.0 * a_next)
        c2 = c * c
        a = a_next
        weight += weight
        total += weight * c2
    K = _HALF_PI / a
    return K, K * total


def incomplete_F_from_parts(s: float, c2: float, y: float) -> float:
    """F(phi | m) from s = sin(phi), c2 = cos^2(phi), y = 1 - m sin^2(phi)."""
    _check_parts(s, c2, y)
    if y == 0.0:
        raise DivergentError("incomplete_F diverges at m = 1, phi = pi/2")
    return s * carlson_rf(c2, y, 1.0)


def incomplete_E_from_parts(s: float, c2: float, y: float, m: float) -> float:
    """E(phi | m) from parts; m only scales the R_D term so its rounding is benign."""
    _check_parts(s, c2, y)
    if c2 == 0.0:
        # phi = pi/2 and y = 1 - m: the complete case, evaluated identically
        return complete_E_from_complement(y)
    if y == 0.0:
        raise DomainError("y = 0 with cos^2 > 0 implies m > 1")
    f = s * carlson_rf(c2, y, 1.0)
    if m == 0.0:
        return f
    return f - (m / 3.0) * s * s * s * carlson_rd(c2, y, 1.0)


def incomplete_Pi_from_parts(s: float, c2: float, y: float, p: float, n: float) -> float:
    """Pi(n; phi | m) from parts, with p = 1 - n sin^2(phi) supplied exactly.

    p is the argument that controls the divergence as n -> 1; passing it as a
    ratio of exact products instead of 1 - n is the whole point of this entry.
    """
    _check_parts(s, c2, y)
    if p < 0.0:
        raise DomainError(f"1 - n sin^2(phi) must be >= 0; got {p!r}")
    if p == 0.0:
        raise DivergentError("incomplete_Pi diverges at n = 1, phi = pi/2")
    if y == 0.0:
        raise DivergentError("incomplete_Pi diverges at m = 1, phi = pi/2")
    f = s * carlson_rf(c2, y, 1.0)
    if n == 0.0:
        return f
    return f + (n / 3.0) * s * s * s * carlson_rj(c2, y, 1.0, p)


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = F(pi/2 | m)."""
    return complete_K_from_complement(1.0 - _clamp(m, "parameter m"))


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m) = E(pi/2 | m)."""
    return complete_E_from_complement(1.0 - _clamp(m, "parameter m"))


def _amplitude_parts(phi: float, m: float) -> tuple[float, float, float]:
    """(sin(phi), cos^2(phi), y = 1 - m sin^2(phi)) for a clamped phi and m."""
    phi = _clamp(phi, "amplitude phi", _HALF_PI)
    m = _clamp(m, "parameter m")
    # phi == pi/2 reduces exactly to the complete case; cos(float(pi/2)) is
    # otherwise a 6e-17 residue that would blur the complete/incomplete split
    s, c = (1.0, 0.0) if phi == _HALF_PI else (math.sin(phi), math.cos(phi))
    c2 = c * c
    return s, c2, (1.0 - m) + m * c2


def incomplete_F(phi: float, m: float) -> float:
    """Incomplete first-kind integral F(phi | m); m = 1 allowed for phi < pi/2."""
    return incomplete_F_from_parts(*_amplitude_parts(phi, m))


def incomplete_E(phi: float, m: float) -> float:
    """Incomplete second-kind integral E(phi | m)."""
    s, c2, y = _amplitude_parts(phi, m)
    return incomplete_E_from_parts(s, c2, y, _clamp(m, "parameter m"))


def incomplete_Pi(n: float, phi: float, m: float) -> float:
    """Incomplete third-kind integral Pi(n; phi | m) for n, m in [0, 1].

    Diverges (and raises) when n = 1 or m = 1 together with phi = pi/2.
    Any ordering of n and m is accepted; 1 - n sin^2 > 0 keeps R_J in its
    circular case either way.
    """
    n = _clamp(n, "characteristic n")
    s, c2, y = _amplitude_parts(phi, m)
    p = (1.0 - n) + n * c2
    return incomplete_Pi_from_parts(s, c2, y, p, n)


def complete_Pi(n: float, m: float) -> float:
    """Complete third-kind integral Pi(n; m) = Pi(n; pi/2 | m), n < 1, m < 1.

    Same reduction as incomplete_Pi with (sin, cos) = (1, 0), so the two agree
    exactly at phi = pi/2.
    """
    return incomplete_Pi(n, _HALF_PI, m)
