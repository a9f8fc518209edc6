"""Solid angle of a finite right circular cylinder at a point isotropic source.

Closed-form elliptic-integral evaluation of the normalized solid angle
(fraction of 4*pi) subtended by the lateral surface, the end discs, or the
whole closed surface, for a source at any position. Independent quadrature
and ray-casting checks live in solidcyl.oracle; solidcyl.verify bundles them
into randomized pass/fail suites.

>>> from solidcyl import CylinderSpec, SourcePoint, omega_total
>>> omega_total(CylinderSpec(L=3.0, r=1.0), SourcePoint(d=2.0, z=1.5)).value
0.13301674013959267
"""

from .errors import (
    DivergentError,
    DomainError,
    OnAxisError,
    OracleFailure,
    SolidCylError,
)
from .geometry import (
    CanonicalConfig,
    CylinderSpec,
    SignedTermList,
    SourcePoint,
    Term,
    TermKind,
    decompose,
    scale,
)
from .solid_angle import (
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

__version__ = "0.1.0"

__all__ = [
    "SolidCylError",
    "DomainError",
    "DivergentError",
    "OnAxisError",
    "OracleFailure",
    "CylinderSpec",
    "SourcePoint",
    "CanonicalConfig",
    "TermKind",
    "Term",
    "SignedTermList",
    "decompose",
    "scale",
    "Method",
    "SolidAngle",
    "EllipticParams",
    "params_from_geometry",
    "omega_cyl0",
    "omega_cyl0_series",
    "omega_circ",
    "omega_circ_third_kind",
    "omega_circ_macklin",
    "omega_total",
    "__version__",
]
