"""Cylinder/source geometry and decomposition into canonical sub-problems.

Conventions: the cylinder is a finite right circular solid of height L and
radius r. The source position is given by its radial distance d from the
cylinder axis and its axial coordinate z, with z = 0 at the near end-circle
plane and z = L at the far one. Everything downstream is evaluated on
canonical configurations (L_eff, r, d) where the source sits in the plane of
one end circle, so an arbitrary position reduces to a short signed sum of

    CYL0  -- lateral surface of height L_eff seen from its own base plane,
    CIRC  -- end disc at axial distance L_eff,
    CONSTANT -- an exact fraction of the sphere, for enclosed/boundary cases.

The case split (after reflecting z -> L - z so only the near half remains):

    d >= r, z <= 0     [+CYL0(L+|z|), -CYL0(|z|), +CIRC(|z|)]
    d >= r, 0 < z < L  [+CYL0(z), +CYL0(L-z)]
    d <  r, z < 0      [+CIRC(|z|)]          (only the near disc is visible)
    d <  r, 0 < z < L  [CONSTANT 1]          (source enclosed)

Exact boundary ties are measure-zero and resolved by documented conventions:
a source on an end face inside the rim (d < r, z in {0, L}) gets the outside
limit 1/2, not the inside limit 1; a source exactly on a rim (d = r,
z in {0, L}) sees the tangent quarter space, 1/4. Both are emitted as
CONSTANT terms because the CYL0/CIRC limits that meet there disagree. A
source on the lateral surface strictly between the end planes needs no
special casing: the CYL0 branch already yields 1/4 + 1/4 = 1/2.

The split is one private function of plain floats, _split, which returns
the region and its raw L_eff values. decompose builds Term objects from it
for callers that inspect the terms (the CLI's `compute` output and its
verification routes); solid_angle.omega_total evaluates the same floats and
builds no Term, so there is a single case split.
"""

from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError, dataclass

from .errors import DomainError

__all__ = [
    "CylinderSpec",
    "SourcePoint",
    "CanonicalConfig",
    "TermKind",
    "Term",
    "SignedTermList",
    "decompose",
    "scale",
]


def _require_finite(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite; got {value!r}")
    return v


def _require_length(value: float, name: str, positive: bool = False) -> float:
    """value as a finite float that is >= 0, or > 0 when positive."""
    v = _require_finite(value, name)
    if v < 0.0 or positive and v == 0.0:
        raise DomainError(f"{name} must be {'>' if positive else '>='} 0; got {v!r}")
    return v


def _value_type(cls):
    """Declare cls a frozen, slotted dataclass: the one decorator of every value type.

    Instances have no __dict__, and any assignment or deletion raises
    FrozenInstanceError. dataclass(slots=True) returns a new class, but the
    __setattr__ and __delattr__ that frozen=True generated still test against
    the class it replaced, so a name that is not a field raised TypeError
    (Python 3.10 to 3.13) where the unslotted class raised
    FrozenInstanceError. The two set here raise it for any name;
    __post_init__ and unpickling still set fields through object.__setattr__.
    """
    cls = dataclass(frozen=True, slots=True)(cls)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


@_value_type
class CylinderSpec:
    """Finite right circular cylinder: height L >= 0, radius r > 0."""

    L: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "L", _require_length(self.L, "height L"))
        object.__setattr__(self, "r", _require_length(self.r, "radius r", positive=True))


@_value_type
class SourcePoint:
    """Point source at radial distance d >= 0 from the axis, axial coordinate z."""

    d: float
    z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "d", _require_length(self.d, "radial distance d"))
        object.__setattr__(self, "z", _require_finite(self.z, "axial coordinate z"))


@_value_type
class CanonicalConfig:
    """Source-in-end-plane configuration (L, r, d).

    L is the axial extent: lateral-surface height for CYL0 terms, source-to-
    disc-plane distance for CIRC terms. d >= r is additionally required by the
    CYL0 evaluators, not here, since CIRC terms are valid for any d >= 0.
    """

    L: float
    r: float
    d: float

    def __post_init__(self):
        object.__setattr__(self, "L", _require_length(self.L, "axial extent L"))
        object.__setattr__(self, "r", _require_length(self.r, "radius r", positive=True))
        object.__setattr__(self, "d", _require_length(self.d, "radial distance d"))


class TermKind(enum.Enum):
    CYL0 = "cyl0"
    CIRC = "circ"
    CONSTANT = "constant"


@_value_type
class Term:
    """One signed canonical contribution: coefficient * kind(L_eff)."""

    coefficient: int  # +1 or -1
    kind: TermKind
    L_eff: float = 0.0
    constant_value: float = 0.0  # meaningful for kind CONSTANT only

    def __post_init__(self):
        if self.coefficient not in (-1, 1):
            raise DomainError(f"term coefficient must be +1 or -1; got {self.coefficient!r}")
        if self.L_eff < 0.0:
            raise DomainError(f"term L_eff must be >= 0; got {self.L_eff!r}")
        if self.kind is TermKind.CONSTANT and not 0.0 <= self.constant_value <= 1.0:
            raise DomainError(f"constant_value must lie in [0, 1]; got {self.constant_value!r}")

    def describe(self) -> str:
        sign = "+" if self.coefficient > 0 else "-"
        if self.kind is TermKind.CONSTANT:
            return f"{sign}constant({self.constant_value:g})"
        return f"{sign}{self.kind.value}(L_eff={self.L_eff:g})"


@_value_type
class SignedTermList:
    """Decomposition result: at most three signed canonical terms."""

    cylinder: CylinderSpec
    source: SourcePoint
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not 1 <= len(self.terms) <= 3:
            raise DomainError(f"decomposition must have 1..3 terms; got {len(self.terms)}")

    def __iter__(self):
        return iter(self.terms)

    def describe(self) -> str:
        return " ".join(t.describe() for t in self.terms)


def _split(L: float, r: float, d: float, z: float) -> tuple[str, float, float]:
    """The case split on plain floats: (region, a, b).

    z is reflected to the near half first (z -> L - z for z > L/2); a and b
    are the raw L_eff values, not yet in units of r:

        region    terms                        a       b
        "const"   CONSTANT a                   value   0
        "disc"    +CIRC(a)                     -z      0
        "shells"  +CYL0(a) +CYL0(b)            z       L - z
        "below"   +CYL0(a) -CYL0(b) +CIRC(b)   L - z   0 - z

    decompose builds its Terms from this split and solid_angle.omega_total
    sums its floats directly, so both see the same regions and lengths.
    """
    if z > L / 2.0:
        z = L - z

    if d < r:
        if z < 0.0:
            return "disc", -z, 0.0
        # z = 0 is on an end face: outside limit 1/2 (inside limit would
        # be 1); z > 0 is enclosed
        return "const", (0.5 if z == 0.0 else 1.0), 0.0

    if d == r and z == 0.0:
        # on a rim: tangent quarter space
        return "const", 0.25, 0.0

    if z <= 0.0:
        # 0.0 - z, not -z: a source on the base plane gets L_eff = +0.0
        return "below", L - z, 0.0 - z
    return "shells", z, L - z


def decompose(cyl: CylinderSpec, src: SourcePoint) -> SignedTermList:
    """Split an arbitrary source position into canonical signed terms.

    The mirror half z > L/2 is reflected (z -> L - z) first so one code path
    serves both ends; total solid angle is invariant under the end swap. The
    split itself is _split, which omega_total shares.
    """
    region, a, b = _split(cyl.L, cyl.r, src.d, src.z)
    if region == "const":
        terms = (Term(1, TermKind.CONSTANT, 0.0, a),)
    elif region == "disc":
        terms = (Term(1, TermKind.CIRC, a),)
    elif region == "below":
        terms = (Term(1, TermKind.CYL0, a), Term(-1, TermKind.CYL0, b), Term(1, TermKind.CIRC, b))
    else:
        terms = (Term(1, TermKind.CYL0, a), Term(1, TermKind.CYL0, b))
    return SignedTermList(cyl, src, terms)


def scale(cfg: CanonicalConfig, k: float) -> CanonicalConfig:
    """Uniformly rescale all lengths by k > 0; the solid angle is invariant."""
    k = _require_length(k, "scale factor k", positive=True)
    return CanonicalConfig(cfg.L * k, cfg.r * k, cfg.d * k)
