"""CLI contract tests: output format, exit codes, determinism.

Most tests drive cli.main(argv) in-process and capture stdout/stderr; one
subprocess smoke test confirms the module entry point wires up end to end.
"""

import json
import math
import subprocess
import sys

import pytest

from solidcyl import cli, elliptic, oracle
from solidcyl import verify as verify_mod
from solidcyl.errors import DomainError
from solidcyl.geometry import CanonicalConfig, CylinderSpec, SourcePoint
from solidcyl.solid_angle import omega_circ, omega_cyl0_series, omega_total


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SOLIDCYL_SEED", raising=False)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _omega_line(out: str) -> float:
    for line in out.splitlines():
        if line.startswith("omega = "):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"no omega line in {out!r}")


# --------------------------------------------------------------------- compute


def test_compute_round_trips_library_value(capsys):
    code, out, err = _run(capsys, ["compute", "--L", "3", "--r", "1", "--d", "2", "--z", "1.5"])
    assert code == 0 and err == ""
    ref = omega_total(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.5)).value
    # 17 significant digits: the printed text parses back to the exact double
    assert _omega_line(out) == ref == 0.13301674013959267
    assert "method = elliptic" in out
    assert "terms = +cyl0(L_eff=1.5) +cyl0(L_eff=1.5)" in out


def test_compute_enclosed_source(capsys):
    code, out, _ = _run(capsys, ["compute", "--L", "3", "--r", "2", "--d", "1", "--z", "1"])
    assert code == 0
    assert _omega_line(out) == 1.0
    assert "method = special" in out


def test_compute_steradians(capsys):
    code, out, _ = _run(
        capsys, ["compute", "--L", "1", "--r", "1", "--d", "0", "--z", "-1", "--steradians"]
    )
    assert code == 0
    assert _omega_line(out) == pytest.approx(1.8403023690212206, rel=1e-15)
    assert "units = steradians" in out


def test_compute_quadrature_route_agrees(capsys):
    argv = ["compute", "--L", "3", "--r", "1", "--d", "2", "--z", "-1"]
    _, out_auto, _ = _run(capsys, argv)
    code, out_quad, _ = _run(capsys, argv + ["--method", "quadrature"])
    assert code == 0
    assert "method = quadrature" in out_quad
    assert _omega_line(out_quad) == pytest.approx(_omega_line(out_auto), abs=1e-9)


def test_compute_series_route_is_tagged_series(capsys):
    # z < 0 adds a default-route disc term; the tag still names the route
    code, out, _ = _run(capsys, ["compute", "--L", "20", "--r", "1", "--d", "1.01", "--z", "-1", "--method", "series"])
    assert code == 0
    assert "method = series" in out
    assert "omega = 0.088505521667603504" in out
    code, out, _ = _run(capsys, ["compute", "--L", "20", "--r", "1", "--d", "1.01", "--z", "10", "--method", "series"])
    assert code == 0 and "method = series" in out


@pytest.mark.parametrize("r", [3.0, 0.37, 7.0])
def test_compute_series_route_takes_d_minus_r_unscaled(capsys, r):
    # d one ulp off the wall: a d/r rounded before the series sees it would
    # lose that offset, so the route must pass the unscaled lengths
    d = math.nextafter(r, math.inf)
    argv = ["compute", "--L", repr(20 * r), "--r", repr(r), "--d", repr(d), "--z", repr(5 * r)]
    code, out, _ = _run(capsys, argv + ["--method", "series"])
    assert code == 0
    shells = [omega_cyl0_series(CanonicalConfig(h, r, d)).value for h in (5 * r, 15 * r)]
    assert _omega_line(out) == shells[0] + shells[1]


def test_compute_quadrature_route_of_a_thin_disc_inside_the_rim(capsys):
    # the disc 1e-13 r above a source inside the rim covers about half the
    # sphere; the quadrature route must find that within its err_estimate
    argv = ["compute", "--L", "1", "--r", "1", "--d", "0.5", "--z", "-1e-13"]
    _, out_auto, _ = _run(capsys, argv)
    code, out_quad, _ = _run(capsys, argv + ["--method", "quadrature"])
    assert code == 0 and "method = quadrature" in out_quad and "terms = +circ(L_eff=1e-13)" in out_quad
    assert _omega_line(out_auto) == 0.49999999999993783
    assert abs(_omega_line(out_quad) - _omega_line(out_auto)) <= 1e-10


def test_compute_quadrature_route_of_an_enclosed_source(capsys):
    code, out, _ = _run(capsys, ["compute", "--L", "3", "--r", "2", "--d", "1", "--z", "1", "--method", "quadrature"])
    assert code == 0
    assert _omega_line(out) == 1.0
    assert "method = quadrature" in out


def test_compute_quadrature_route_skips_zero_length_terms(capsys):
    # a base-plane source beside the shell: -cyl0(0) and +circ(0) add nothing
    argv = ["compute", "--L", "3", "--r", "1", "--d", "2", "--z", "0"]
    _, out_auto, _ = _run(capsys, argv)
    code, out_quad, _ = _run(capsys, argv + ["--method", "quadrature"])
    assert code == 0
    assert "terms = +cyl0(L_eff=3) -cyl0(L_eff=0) +circ(L_eff=0)" in out_quad
    assert _omega_line(out_quad) == pytest.approx(_omega_line(out_auto), abs=1e-9)


@pytest.mark.parametrize(
    "L, r, d, z, terms",
    [
        # below the base beside the shell: the near disc minus the near shell is one term
        ("1", "1", "2", "-0.5", "+cyl0(L_eff=1.5) +face(L_eff=0.5)"),
        ("3", "1", "2", "1", "+cyl0(L_eff=1) +cyl0(L_eff=2)"),
        ("1", "1", "0.5", "-2", "+circ(L_eff=2)"),
        ("3", "2", "1", "1", "+constant(1)"),
    ],
    ids=["below", "shells", "disc", "const"],
)
def test_compute_prints_the_terms_it_evaluates(capsys, L, r, d, z, terms):
    argv = ["compute", "--L", L, "--r", r, "--d", d, f"--z={z}"]
    for method in ("auto", "elliptic"):
        code, out, _ = _run(capsys, argv + ["--method", method])
        assert code == 0
        assert f"\nterms = {terms}\n" in out


def test_compute_elliptic_route_is_the_default(capsys):
    argv = ["compute", "--L", "20", "--r", "1", "--d", "1.01", "--z", "-1"]
    _, out_auto, _ = _run(capsys, argv)
    code, out_elliptic, _ = _run(capsys, argv + ["--method", "elliptic"])
    assert code == 0
    assert out_elliptic == out_auto
    assert "method = elliptic" in out_auto


def test_compute_tiny_uniform_scale_matches_unit_scale(capsys):
    code, out, err = _run(capsys, ["compute", "--L", "1e-160", "--r", "1e-160", "--d", "2e-160", "--z", "-5e-161"])
    assert code == 0 and err == ""
    unit = omega_total(CylinderSpec(1.0, 1.0), SourcePoint(2.0, -0.5)).value
    assert _omega_line(out) == pytest.approx(unit, abs=1e-12)


def test_compute_montecarlo_seed_determinism(capsys):
    argv = [
        "compute", "--L", "3", "--r", "1", "--d", "2", "--z", "1.5",
        "--method", "montecarlo", "--samples", "20000", "--seed", "4",
    ]
    code, first, _ = _run(capsys, argv)
    assert code == 0 and "method = montecarlo" in first
    _, second, _ = _run(capsys, argv)
    assert first == second
    ref = omega_total(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.5)).value
    assert _omega_line(first) == pytest.approx(ref, abs=0.02)


def test_env_seed_matches_flag(capsys, monkeypatch):
    argv = [
        "compute", "--L", "3", "--r", "1", "--d", "2", "--z", "1.5",
        "--method", "montecarlo", "--samples", "20000",
    ]
    monkeypatch.setenv("SOLIDCYL_SEED", "4")
    _, via_env, _ = _run(capsys, argv)
    monkeypatch.delenv("SOLIDCYL_SEED")
    _, via_flag, _ = _run(capsys, argv + ["--seed", "4"])
    assert via_env == via_flag


def test_flag_beats_env_seed(capsys, monkeypatch):
    argv = [
        "compute", "--L", "3", "--r", "1", "--d", "2", "--z", "1.5",
        "--method", "montecarlo", "--samples", "20000",
    ]
    monkeypatch.setenv("SOLIDCYL_SEED", "999")
    _, with_env, _ = _run(capsys, argv + ["--seed", "4"])
    monkeypatch.delenv("SOLIDCYL_SEED")
    _, with_flag, _ = _run(capsys, argv + ["--seed", "4"])
    assert with_env == with_flag


def test_seed_defaults_to_zero_without_flag_or_env(capsys):
    assert cli._resolve_seed(None) == 0
    argv = ["compute", "--L", "3", "--r", "1", "--d", "2", "--z", "1.5", "--method", "montecarlo", "--samples", "20000"]
    _, default, _ = _run(capsys, argv)
    _, zero, _ = _run(capsys, argv + ["--seed", "0"])
    assert default == zero


def test_bad_env_seed_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("SOLIDCYL_SEED", "not-a-number")
    code, _, err = _run(
        capsys,
        ["compute", "--L", "1", "--r", "1", "--d", "2", "--method", "montecarlo", "--samples", "10"],
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_montecarlo_seed_outside_the_philox_key_range_is_an_error(capsys, seed):
    code, out, err = _run(
        capsys,
        ["compute", "--L", "1", "--r", "1", "--d", "2", "--method", "montecarlo", "--samples", "10", "--seed", seed],
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "2^128" in err


def test_domain_error_exits_one(capsys):
    code, _, err = _run(capsys, ["compute", "--L", "3", "--r", "1", "--d", "-2"])
    assert code == 1
    assert err.startswith("error:")


def test_series_divergence_exits_one_without_traceback(capsys):
    code, _, err = _run(capsys, ["compute", "--L", "1e-200", "--r", "1", "--d", "2", "--method", "series"])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_missing_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--L", "3"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------- table


def test_table_csv_header_and_determinism(capsys):
    argv = ["table", "--L", "1,2", "--d", "2,3", "--z", "0,1"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    lines = first.splitlines()
    assert lines[0] == "L,r,d,z,omega,method,err_estimate"
    assert len(lines) == 1 + 8
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_table_single_cell_matches_compute(capsys):
    _, table_out, _ = _run(capsys, ["table", "--L", "3", "--d", "2", "--z", "1.5"])
    row = table_out.splitlines()[1].split(",")
    assert float(row[4]) == omega_total(CylinderSpec(3.0, 1.0), SourcePoint(2.0, 1.5)).value


def test_table_rows_sorted_lexicographically(capsys):
    # axes given shuffled; rows must come back sorted by (L, d, z)
    _, out, _ = _run(capsys, ["table", "--L", "2,1", "--d", "3,2", "--z", "1,0"])
    keys = [tuple(map(float, line.split(",")[:4])) for line in out.splitlines()[1:]]
    assert keys == sorted(keys)


def test_table_json_round_trips(capsys):
    code, out, _ = _run(
        capsys, ["table", "--L", "1", "--d", "2,4", "--format", "json"]
    )
    assert code == 0
    records = json.loads(out)
    assert [set(rec) for rec in records] == [
        {"L", "r", "d", "z", "omega", "method", "err_estimate"}
    ] * 2
    assert records[0]["omega"] > records[1]["omega"]


def test_table_log_grid_monotone(capsys):
    code, out, _ = _run(capsys, ["table", "--L", "1", "--d", "1.1:10:5:log", "--z", "0"])
    assert code == 0
    omegas = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
    assert len(omegas) == 5
    assert omegas == sorted(omegas, reverse=True)
    assert all(0.0 < w < 1.0 for w in omegas)


def test_table_bad_axis_spec_exits_two(capsys):
    for bad in ("1:2:5", "1:2:5:cubic", "0:2:5:log", "", ",", "1,,2", "1:2:0:linear", "1:2:-1:log"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--L", bad, "--d", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("axis", ["0.5:7:1:linear", "0.5:7:1:log"])
def test_table_one_point_range_is_its_start(capsys, axis):
    code, out, _ = _run(capsys, ["table", "--L", axis, "--d", "2"])
    assert code == 0
    _, single, _ = _run(capsys, ["table", "--L", "0.5", "--d", "2"])
    assert out == single and len(out.splitlines()) == 2


def test_table_axis_takes_leading_minus_as_separate_token(capsys):
    for axis in ("-2:3:3:linear", "-2,3"):
        code, glued, _ = _run(capsys, ["table", "--L", "1", "--d", "2", f"--z={axis}"])
        assert code == 0
        code, split, _ = _run(capsys, ["table", "--L", "1", "--d", "2", "--z", axis])
        assert code == 0
        assert split == glued


def test_table_out_to_a_missing_directory_is_an_io_error(tmp_path, capsys):
    code, out, err = _run(capsys, ["table", "--L", "1", "--d", "2", "--out", str(tmp_path / "no" / "grid.csv")])
    assert code == 1 and out == ""
    assert err.startswith("i/o error:") and "Traceback" not in err


def test_table_out_file(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, out, _ = _run(capsys, ["table", "--L", "1", "--d", "2", "--out", str(path)])
    assert code == 0 and out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("L,r,d,z,omega,method,err_estimate\n")
    assert len(text.splitlines()) == 2


def test_table_quantity_cyl0_inside_source_fails_cleanly(capsys):
    code, _, err = _run(capsys, ["table", "--L", "1", "--d", "0.5", "--quantity", "cyl0"])
    assert code == 1
    assert err.startswith("error:")


def test_table_quantity_circ_rows_are_omega_circ(capsys):
    code, out, _ = _run(capsys, ["table", "--L", "0.5,2", "--d", "0,0.5,1,2", "--quantity", "circ"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 8
    for row in rows:
        L, r, d = map(float, row[:3])
        res = omega_circ(CanonicalConfig(L, r, d))
        assert float(row[4]) == res.value and row[5] == res.method.value


def test_table_quantity_circ_keeps_an_edge_on_disc_relative_exact(capsys):
    # a disc 1e-9 r off the source plane, seen from 100 r: the first/second-kind
    # form, 1/4 minus terms of order 1, printed 3.9e-16, 55 % off
    code, out, _ = _run(capsys, ["table", "--quantity", "circ", "--L", "1e-9", "--d", "100"])
    assert code == 0
    got = float(out.splitlines()[1].split(",")[4])
    # 50-digit quadrature of the positive d > r disc integrand
    assert got == pytest.approx(2.50028127929986618121857747593e-16, rel=1e-13, abs=0.0)


def test_table_steradians_scales_rows(capsys):
    _, plain, _ = _run(capsys, ["table", "--L", "1", "--d", "2"])
    _, scaled, _ = _run(capsys, ["table", "--L", "1", "--d", "2", "--steradians"])
    a = float(plain.splitlines()[1].split(",")[4])
    b = float(scaled.splitlines()[1].split(",")[4])
    assert b == pytest.approx(a * 4.0 * math.pi, rel=1e-15)


# ---------------------------------------------------------------------- verify


def test_verify_small_run_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "--points", "5", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS ")) == len(verify_mod.SUITES)
    assert lines[-1] == f"all {len(verify_mod.SUITES)} suites passed"


def test_verify_suites_and_defaults_keep_the_report_order():
    # every suite registers its check and its bound together, in this order
    names = [
        "disc_cross", "cyl0_quad", "cyl0_pair", "paper_form", "legendre", "agm",
        "trivial_identities", "scale_invariance", "end_swap", "omega_range", "discontinuity",
    ]
    assert list(verify_mod.SUITES) == names
    assert list(verify_mod.DEFAULT_TOLERANCES) == names


def test_verify_is_deterministic(capsys):
    argv = ["verify", "--points", "3", "--seed", "7"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_verify_detects_injected_fault(capsys, monkeypatch):
    from solidcyl import solid_angle as sa

    true_fn = sa.omega_circ_third_kind

    def skewed(cfg):
        res = true_fn(cfg)
        return type(res)(res.value + 1e-6, res.method, res.err_estimate)

    monkeypatch.setattr(sa, "omega_circ_third_kind", skewed)
    code, out, _ = _run(capsys, ["verify", "--points", "5", "--seed", "1"])
    assert code == 1
    assert any(line.startswith("FAIL disc_cross") for line in out.splitlines())
    assert "FAILED" in out


@pytest.mark.parametrize(
    "suite, module, name, fake",
    [
        ("cyl0_quad", oracle, "quad_cyl0_gamma", lambda cfg, tol: math.nan),
        ("cyl0_pair", oracle, "quad_cyl0_gamma", lambda cfg, tol: math.nan),
        ("agm", elliptic, "complete_K", lambda m: math.nan),
        ("legendre", elliptic, "complete_K", lambda m: math.nan),
    ],
    ids=["cyl0_quad", "cyl0_pair", "agm", "legendre"],
)
def test_verify_nan_deviation_fails_the_suite(monkeypatch, suite, module, name, fake):
    # a NaN deviation compares false against every bound; it must still fail
    monkeypatch.setattr(module, name, fake)
    res = verify_mod.run_suite(suite, 20, 0)
    assert math.isnan(res.max_dev)
    assert res.worst != "n/a"
    assert not res.passed
    assert res.line().startswith(f"FAIL {suite}")


def _faulty(fn, change, when=lambda *args: True):
    # fn with change applied to its SolidAngle's value wherever when(*args) holds
    def fake(*args):
        res = fn(*args)
        value = change(res.value) if when(*args) else res.value
        return type(res)(value, res.method, res.err_estimate)

    return fake


def _fault_cases():
    # each fault is ten times its suite's default tolerance
    tol = verify_mod.DEFAULT_TOLERANCES
    sa = verify_mod.solid_angle
    E, K, F = elliptic.complete_E, elliptic.complete_K, elliptic.incomplete_F
    gamma_form, pair_shift = oracle.quad_cyl0_gamma, 10 * tol["cyl0_pair"]
    cases = {
        "disc_cross": (
            sa,
            "omega_circ_third_kind",
            _faulty(sa.omega_circ_third_kind, lambda v: v * (1.0 + 10 * tol["disc_cross"])),
        ),
        "cyl0_quad": (sa, "omega_cyl0", _faulty(sa.omega_cyl0, lambda v: v + 10 * tol["cyl0_quad"])),
        "cyl0_pair": (oracle, "quad_cyl0_gamma", lambda cfg, tol: gamma_form(cfg, tol=tol) + pair_shift),
        "paper_form": (sa, "omega_cyl0", _faulty(sa.omega_cyl0, lambda v: v * (1.0 + 10 * tol["paper_form"]))),
        "legendre": (elliptic, "complete_E", lambda m: E(m) * (1.0 + 10 * tol["legendre"])),
        "agm": (elliptic, "complete_K", lambda m: K(m) * (1.0 + 10 * tol["agm"])),
        "trivial_identities": (elliptic, "incomplete_F", lambda phi, m: F(phi, m) + 10 * tol["trivial_identities"]),
        # a rescaled configuration (r != 1) comes out a little low
        "scale_invariance": (
            sa,
            "omega_total",
            _faulty(sa.omega_total, lambda v: v * (1.0 - 10 * tol["scale_invariance"]), lambda cyl, src: cyl.r != 1.0),
        ),
        # a source in the far half, which the split reflects, comes out a little low
        "end_swap": (
            sa,
            "omega_total",
            _faulty(sa.omega_total, lambda v: v * (1.0 - 10 * tol["end_swap"]), lambda cyl, src: src.z > cyl.L / 2.0),
        ),
        "discontinuity": (sa, "omega_cyl0", _faulty(sa.omega_cyl0, lambda v: v + 10 * tol["discontinuity"])),
    }
    return [pytest.param(suite, *case, id=suite) for suite, case in cases.items()]


@pytest.mark.parametrize("suite, module, name, fake", _fault_cases())
def test_verify_fails_a_fault_ten_times_its_tolerance(monkeypatch, suite, module, name, fake):
    assert verify_mod.run_suite(suite, 200, 0).passed
    monkeypatch.setattr(module, name, fake)
    res = verify_mod.run_suite(suite, 200, 0)
    assert not res.passed, res.line()


def test_cyl0_quad_fails_a_shell_off_by_1e10(monkeypatch):
    # the gamma-form quadrature misses by under 1e-15, so the suite
    # resolves a shift this small
    sa = verify_mod.solid_angle
    monkeypatch.setattr(sa, "omega_cyl0", _faulty(sa.omega_cyl0, lambda v: v + 1e-10))
    res = verify_mod.run_suite("cyl0_quad", 200, 0)
    assert not res.passed, res.line()


def test_paper_form_fails_a_shell_with_its_rj_term_off_by_1e9(monkeypatch):
    # only _shell's R_J: solid_angle reads the kernels as elliptic.carlson_*,
    # while the Legendre wrappers that evaluate the paper's form keep theirs
    sa = verify_mod.solid_angle

    class ScaledRJ:
        def __getattr__(self, name):
            return getattr(elliptic, name)

        @staticmethod
        def carlson_rj(*args):
            return elliptic.carlson_rj(*args) * (1.0 + 1e-9)

    assert verify_mod.run_suite("paper_form", 200, 0).passed
    monkeypatch.setattr(sa, "elliptic", ScaledRJ())
    res = verify_mod.run_suite("paper_form", 200, 0)
    assert not res.passed, res.line()


def test_disc_cross_fails_a_face_with_its_rj_term_off_by_1e9(monkeypatch):
    # omega_circ outside the rim is the near face plus the shell, so the disc
    # suite also checks the fused term omega_total takes below the base;
    # _face is the one R_J caller with z = 1 and x > 0 (the third-kind
    # form's R_J has x = 0)
    sa = verify_mod.solid_angle

    class ScaledFaceRJ:
        def __getattr__(self, name):
            return getattr(elliptic, name)

        @staticmethod
        def carlson_rj(x, y, z, p):
            return elliptic.carlson_rj(x, y, z, p) * (1.0 + 1e-9 if z == 1.0 and x > 0.0 else 1.0)

    assert verify_mod.run_suite("disc_cross", 200, 0).passed
    monkeypatch.setattr(sa, "elliptic", ScaledFaceRJ())
    res = verify_mod.run_suite("disc_cross", 200, 0)
    assert not res.passed, res.line()


def test_verify_tolerance_override_can_fail_a_suite(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--points", "5", "--seed", "1", "--tolerance", "disc_cross=1e-20"]
    )
    assert code == 1
    assert any(line.startswith("FAIL disc_cross") for line in out.splitlines())


@pytest.mark.parametrize("points", ["0", "-1"])
def test_verify_rejects_fewer_than_one_point(capsys, points):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--points", points])
    assert exc.value.code == 2
    assert "points must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "samples, message",
    [("0", "samples must be at least 1"), ("-5", "samples must be at least 1"), ("1e6", "bad samples count '1e6'")],
)
def test_compute_rejects_fewer_than_one_sample_as_a_usage_error(capsys, samples, message):
    argv = ["compute", "--L", "1", "--r", "1", "--d", "2", "--method", "montecarlo", "--samples", samples]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_compute_samples_help_names_the_default(capsys):
    with pytest.raises(SystemExit):
        cli.main(["compute", "--help"])
    assert "(default 1000000)" in capsys.readouterr().out


@pytest.mark.parametrize("points", [0, -1])
def test_verify_runners_reject_fewer_than_one_point(points):
    with pytest.raises(DomainError):
        verify_mod.run_suite("agm", points, 0)
    with pytest.raises(DomainError):
        verify_mod.run_all(points=points)


def test_verify_runners_reject_unknown_suites():
    with pytest.raises(DomainError, match="unknown verification suite 'nope'"):
        verify_mod.run_suite("nope", 5, 0)
    with pytest.raises(DomainError, match="unknown tolerance override 'nope'"):
        verify_mod.run_all(points=5, overrides={"nope": 1.0})


def test_verify_bad_tolerance_spec_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--tolerance", "disc_cross"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("no_such_suite=1e-9", "unknown suite 'no_such_suite'"),
        ("disc_cross=nan", "must be a number >= 0"),
        ("disc_cross=-1e-9", "must be a number >= 0"),
        ("disc_cross=tight", "bad tolerance value"),
    ],
)
def test_verify_bad_tolerance_value_is_a_usage_error(capsys, spec, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--points", "5", "--tolerance", spec])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# ------------------------------------------------------------------ subprocess


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "solidcyl.cli", "compute", "--L", "3", "--r", "1", "--d", "2", "--z", "1.5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "omega = 0.13301674013959267" in proc.stdout
