"""Independent 30-digit reference for the whole-cylinder solid angle.

Shares no code with solidcyl: it has its own case split and never calls
decompose, the closed forms or the oracle module. Values are normalized
(fraction of 4 pi), for a cylinder of height L and radius r occupying
z in [0, L] and a source at radial distance d and height z.

Source outside the infinite cylinder (d > r, and d = r off the slab): in
the horizontal plane the azimuths phi in [-phi_o, phi_o], phi_o = asin(r/d),
cross the circle between the near and far wall distances

    rho1 = (d^2 - r^2) / (d cos phi + w),  rho2 = d cos phi + w,
    w = sqrt(r^2 - d^2 sin^2 phi),

so at azimuth phi the body's cross-section is the rectangle
[rho1, rho2] x [a, b] with a = -z, b = L - z. A vertical segment at distance
rho spans sin(elevation) = h / sqrt(h^2 + rho^2), and the solid angle is

    omega = (2 pi)^-1 integral_0^phi_o [S_max(phi) - S_min(phi)] dphi,

S_max and S_min being the extreme sin(elevation) over the rectangle's
corners. This is the shell's phi-form integral with the end discs' azimuthal
terms folded in; which corner is extreme depends only on the signs of a and
b, so the integrand is smooth inside the interval.

Source inside the infinite cylinder (d < r) and outside the slab: only the
near disc is visible, at axial distance h, with rim distance
R(psi) = d cos psi + sqrt(r^2 - d^2 sin^2 psi) along azimuth psi:

    omega = (2 pi)^-1 integral_0^pi [1 - h / sqrt(h^2 + R^2)] dpsi.

Boundary conventions match the library's documented ones: enclosed 1, on
an end face inside the rim 1/2, on a rim 1/4, on the lateral surface
between the end planes 1/2.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp

DIGITS = 30


def _sin_elev(h, rho):
    if rho == 0:
        return mpmath.sign(h)
    return h / mpmath.sqrt(h * h + rho * rho)


def _outside(L, r, d, z):
    a = -z
    b = L - z

    def integrand(phi):
        c = d * mpmath.cos(phi)
        w = mpmath.sqrt(max(r * r - (d * mpmath.sin(phi)) ** 2, 0))
        rho2 = c + w
        rho1 = (d - r) * (d + r) / rho2
        top = _sin_elev(b, rho1 if b > 0 else rho2)
        bottom = _sin_elev(a, rho1 if a < 0 else rho2)
        return top - bottom

    phi_o = mpmath.asin(r / d)
    value, err = mpmath.quad(integrand, [0, phi_o], error=True)
    return value / (2 * mp.pi), err / (2 * mp.pi)


def _near_disc(r, d, h):
    def integrand(psi):
        rim = d * mpmath.cos(psi) + mpmath.sqrt(r * r - (d * mpmath.sin(psi)) ** 2)
        hyp = mpmath.sqrt(h * h + rim * rim)
        return rim * rim / (hyp * (hyp + h))  # 1 - h/hyp without cancellation

    value, err = mpmath.quad(integrand, [0, mp.pi], error=True)
    return value / (2 * mp.pi), err / (2 * mp.pi)


def omega_reference(L: float, r: float, d: float, z: float) -> tuple[float, float]:
    """Return (omega rounded to double, absolute quadrature error bound)."""
    with mp.workdps(DIGITS):
        Lm, rm, dm, zm = (mpmath.mpf(v) for v in (L, r, d, z))
        inside_slab = 0 < zm < Lm
        on_end = zm == 0 or zm == Lm
        if dm < rm:
            if inside_slab:
                return 1.0, 0.0
            if on_end:
                return 0.5, 0.0
            value, err = _near_disc(rm, dm, -zm if zm < 0 else zm - Lm)
        elif dm == rm and inside_slab:
            return 0.5, 0.0
        elif dm == rm and on_end:
            return 0.25, 0.0
        else:
            value, err = _outside(Lm, rm, dm, zm)
        return float(value), float(err)


def allowed_error(err_estimate: float, ref: float, ref_err: float) -> float:
    """How far a library value may sit from the reference and still pass.

    The library's own err_estimate, plus the reference's rounding to double
    (half an ulp) and its quadrature error bound.
    """
    return err_estimate + 0.5 * math.ulp(ref) + ref_err
