"""Reference-computation checks: quadrature self-consistency and ray casting.

The oracles are validated three ways: against each other (two independent
parametrizations of the same integral), against closed-form limits that need
no elliptic machinery, and against frozen values from earlier runs.
"""

import math
import os
import subprocess
import sys

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
    # integrand too singular for the requested accuracy: refuse, don't lie
    with pytest.raises(OracleFailure):
        oracle.quad_disc(CanonicalConfig(1e-3, 1.0, 0.5), tol=1e-10)


def test_disc_requires_positive_L():
    with pytest.raises(DomainError):
        oracle.quad_disc(CanonicalConfig(0.0, 1.0, 2.0))


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
    # 1.5e6 samples spans two Philox blocks; must agree with the closed form
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.5)
    est = oracle.mc_total(cyl, src, 1_500_000, seed=0)
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


# hits measured with the serial, unsliced caster; any change to the Philox
# draws, to the slicing or to the scheduling of blocks shows up here
@pytest.mark.parametrize(
    "L, r, d, z, samples, seed, hits",
    [
        (3.0, 1.0, 2.0, -1.0, 2_500_001, 42, 126694),
        (3.0, 1.0, 2.0, 1.5, 1_000_000, 0, 132899),
        (1.0, 1.0, 0.0, -10.0, 400_000, 3, 932),
        (0.05, 1.0, 40.0, 0.01, 1_234_567, 5, 6),
        (2.0, 1.0, 1.0, 0.0, 777_777, 8, 194469),
        (3.0, 2.0, 1.0, 1.5, 10_000, 7, 10000),
        (1.0, 1.0, 0.5, -0.25, 65_537, 11, 23265),
    ],
)
def test_mc_frozen_hit_counts(L, r, d, z, samples, seed, hits):
    est = oracle.mc_total(CylinderSpec(L, r), SourcePoint(d, z), samples, seed=seed)
    assert est.hit_fraction == hits / samples
    assert est.samples == samples and est.seed == seed


def test_mc_estimate_independent_of_worker_count(monkeypatch):
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0)
    default = oracle.mc_total(cyl, src, 3_000_001, seed=13)
    monkeypatch.setattr(oracle, "_worker_count", lambda blocks: 1)
    assert oracle.mc_total(cyl, src, 3_000_001, seed=13) == default


def test_mc_runs_where_sched_getaffinity_is_missing(monkeypatch):
    cyl, src = CylinderSpec(3.0, 1.0), SourcePoint(2.0, -1.0)
    default = oracle.mc_total(cyl, src, 2_000_001, seed=4)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert 1 <= oracle._worker_count(3) <= 3
    assert oracle.mc_total(cyl, src, 2_000_001, seed=4) == default


def test_cli_and_mc_do_not_import_scipy():
    code = (
        "import sys, solidcyl.cli\n"
        "from solidcyl.geometry import CylinderSpec, SourcePoint\n"
        "from solidcyl.oracle import mc_total\n"
        "mc_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, 0.5), 10_000)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(solidcyl.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------------- AGM


@pytest.mark.parametrize("m", [0.0, 1e-8, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-12])
def test_agm_matches_carlson_K(m):
    assert oracle.agm_complete_first_kind(m) == pytest.approx(complete_K(m), rel=1e-13)


def test_agm_domain():
    with pytest.raises(DomainError):
        oracle.agm_complete_first_kind(1.0)
    with pytest.raises(DomainError):
        oracle.agm_complete_first_kind(-0.1)
