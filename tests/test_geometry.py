"""Geometry types and the source-position decomposition."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from solidcyl.errors import DomainError
from solidcyl.geometry import (
    CanonicalConfig,
    CylinderSpec,
    SignedTermList,
    SourcePoint,
    Term,
    TermKind,
    decompose,
    scale,
)

lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def kinds(dec):
    return [(t.coefficient, t.kind, t.L_eff) for t in dec]


# ----------------------------------------------------------------- validation


def test_cylinder_spec_validation():
    CylinderSpec(0.0, 1.0)  # flat cylinder is legal
    with pytest.raises(DomainError):
        CylinderSpec(-1.0, 1.0)
    with pytest.raises(DomainError):
        CylinderSpec(1.0, 0.0)
    with pytest.raises(DomainError):
        CylinderSpec(float("inf"), 1.0)


def test_source_point_validation():
    SourcePoint(0.0, -5.0)
    with pytest.raises(DomainError):
        SourcePoint(-0.1, 0.0)
    with pytest.raises(DomainError):
        SourcePoint(float("nan"), 0.0)


def test_canonical_config_validation():
    CanonicalConfig(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        CanonicalConfig(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        CanonicalConfig(1.0, 1.0, -1e-9)


def test_term_validation():
    with pytest.raises(DomainError):
        Term(2, TermKind.CYL0, 1.0)
    with pytest.raises(DomainError):
        Term(1, TermKind.CYL0, -1.0)
    with pytest.raises(DomainError):
        Term(1, TermKind.CONSTANT, 0.0, 1.5)


def test_signed_term_list_size_bounds():
    cyl, src = CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5)
    with pytest.raises(DomainError):
        SignedTermList(cyl, src, ())
    with pytest.raises(DomainError):
        SignedTermList(cyl, src, tuple(Term(1, TermKind.CYL0, 1.0) for _ in range(4)))


# --------------------------------------------------------------- decomposition


def test_source_below_base_outside():
    # d >= r, z < 0: difference of two shells plus the near disc
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0))
    assert kinds(dec) == [
        (1, TermKind.CYL0, 4.0),
        (-1, TermKind.CYL0, 1.0),
        (1, TermKind.CIRC, 1.0),
    ]
    assert dec.describe() == "+cyl0(L_eff=4) -cyl0(L_eff=1) +circ(L_eff=1)"


def test_source_level_with_shell():
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.0))
    assert kinds(dec) == [(1, TermKind.CYL0, 1.0), (1, TermKind.CYL0, 2.0)]


def test_upper_half_reflects():
    a = decompose(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 2.5))
    b = decompose(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 0.5))
    assert kinds(a) == kinds(b)


def test_source_above_top_reflects_to_below():
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 5.0))
    assert kinds(dec) == [
        (1, TermKind.CYL0, 5.0),
        (-1, TermKind.CYL0, 2.0),
        (1, TermKind.CIRC, 2.0),
    ]


def test_source_below_inside_radius():
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(0.25, -2.0))
    assert kinds(dec) == [(1, TermKind.CIRC, 2.0)]


def test_enclosed_source():
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(0.5, 1.0))
    assert [t.kind for t in dec] == [TermKind.CONSTANT]
    assert dec.terms[0].constant_value == 1.0
    assert dec.describe() == "+constant(1)"


def test_on_face_inside_radius():
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(0.5, 0.0))
    assert dec.terms[0].constant_value == 0.5
    top = decompose(CylinderSpec(3.0, 1.0), SourcePoint(0.5, 3.0))
    assert top.terms[0].constant_value == 0.5


def test_on_rim():
    for z in (0.0, 3.0):
        dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(1.0, z))
        assert dec.terms[0].kind is TermKind.CONSTANT
        assert dec.terms[0].constant_value == 0.25


def test_on_shell_interior_is_not_constant():
    # d = r with 0 < z < L stays in the two-term CYL0 branch; the quarter
    # sphere per side emerges from omega_cyl0's d = r special value
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(1.0, 1.5))
    assert kinds(dec) == [(1, TermKind.CYL0, 1.5), (1, TermKind.CYL0, 1.5)]


def test_base_plane_outside_has_degenerate_terms():
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 0.0))
    assert kinds(dec) == [
        (1, TermKind.CYL0, 3.0),
        (-1, TermKind.CYL0, 0.0),
        (1, TermKind.CIRC, 0.0),
    ]


def test_midplane_is_fixed_point_of_reflection():
    dec = decompose(CylinderSpec(4.0, 1.0), SourcePoint(3.0, 2.0))
    assert kinds(dec) == [(1, TermKind.CYL0, 2.0), (1, TermKind.CYL0, 2.0)]


@given(d=lengths, z=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), L=lengths)
def test_decompose_term_structure(d, z, L):
    dec = decompose(CylinderSpec(L, 1.0), SourcePoint(d, z))
    assert 1 <= len(dec.terms) <= 3
    for t in dec:
        assert t.coefficient in (-1, 1)
        assert t.L_eff >= 0.0
        if t.kind is TermKind.CONSTANT:
            assert 0.0 <= t.constant_value <= 1.0
    # CYL0 effective heights never exceed the full span from source to far end
    span = max(abs(z), abs(L - z)) + L
    assert all(t.L_eff <= span + 1e-9 for t in dec)


@given(d=lengths, z=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), L=lengths)
def test_decompose_end_swap_symmetry(d, z, L):
    # offsets below one ulp of L round onto the exact-boundary ties under
    # the reflection z -> L - z, where the constants legitimately differ
    assume(z == 0.0 or min(abs(z), abs(L - z)) > 1e-9 * max(1.0, L))
    a = decompose(CylinderSpec(L, 1.0), SourcePoint(d, z))
    b = decompose(CylinderSpec(L, 1.0), SourcePoint(d, L - z))
    assert [(t.coefficient, t.kind) for t in a] == [(t.coefficient, t.kind) for t in b]
    # L - (L - z) is a ulp away from z, so effective heights match only closely
    for ta, tb in zip(a, b):
        assert ta.L_eff == pytest.approx(tb.L_eff, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------- scale


def test_scale_multiplies_all_lengths():
    cfg = scale(CanonicalConfig(2.0, 1.0, 3.0), 10.0)
    assert (cfg.L, cfg.r, cfg.d) == (20.0, 10.0, 30.0)


def test_scale_rejects_nonpositive():
    with pytest.raises(DomainError):
        scale(CanonicalConfig(2.0, 1.0, 3.0), 0.0)
    with pytest.raises(DomainError):
        scale(CanonicalConfig(2.0, 1.0, 3.0), -2.0)
    with pytest.raises(DomainError):
        scale(CanonicalConfig(2.0, 1.0, 3.0), math.inf)


@pytest.mark.parametrize("z", [0.0, -0.0, 3.0])
def test_base_plane_terms_have_positive_zero_length(z):
    # on either base plane beside the shell the near length is +0.0, so the
    # term list prints no "-0"
    dec = decompose(CylinderSpec(3.0, 1.0), SourcePoint(2.0, z))
    assert dec.describe() == "+cyl0(L_eff=3) -cyl0(L_eff=0) +circ(L_eff=0)"
    assert all(math.copysign(1.0, t.L_eff) == 1.0 for t in dec)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CylinderSpec(-1.0, 1.0), "height L must be >= 0"),
        (lambda: CylinderSpec(1.0, 0.0), "radius r must be > 0"),
        (lambda: CylinderSpec(1.0, -0.0), "radius r must be > 0"),
        (lambda: SourcePoint(-1.0, 0.0), "radial distance d must be >= 0"),
        (lambda: SourcePoint(1.0, math.inf), "axial coordinate z must be finite"),
        (lambda: CanonicalConfig(-1.0, 1.0, 1.0), "axial extent L must be >= 0"),
        (lambda: CanonicalConfig(1.0, math.nan, 1.0), "radius r must be finite"),
        (lambda: CanonicalConfig(1.0, 1.0, -1.0), "radial distance d must be >= 0"),
        (lambda: scale(CanonicalConfig(1.0, 1.0, 1.0), 0.0), "scale factor k must be > 0"),
    ],
)
def test_length_checks_name_the_length(build, message):
    with pytest.raises(DomainError, match=message):
        build()
