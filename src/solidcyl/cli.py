"""Command-line front end.

Three subcommands:

  compute   one configuration -> value, method, error estimate, term list
  table     grid sweep over (L/r, d/r, z/r) -> CSV or JSON rows
  verify    randomized self-check suites -> per-suite PASS/FAIL report

Values print with 17 significant digits so a printed number parses back to
the exact double the library produced. Normalized solid angle (fraction of
4*pi) is the default; --steradians rescales. Exit codes: 0 success, 1 domain
or runtime failure, 2 usage.

What a command prints depends on its arguments alone: no environment
variable is read, each --seed defaults to 0, and verify runs every suite at
the bound its @_suite declaration gives. compute --method auto (the default)
is omega_total; series, quadrature and montecarlo are verification routes.

Table grids are dimensionless (r = 1); each axis takes either a comma list
("0.5,1,2") or a range spec "start:stop:count:linear" / "start:stop:count:log".
Rows are emitted in lexicographic (L, d, z) order and a given request always
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import partial

from . import verify as verify_mod
from .errors import SolidCylError
from .geometry import CanonicalConfig, CylinderSpec, SourcePoint, TermKind, _split, decompose
from .oracle import mc_total, quad_cyl0_phi, quad_disc
from .solid_angle import Method, SolidAngle, omega_circ, omega_cyl0, omega_cyl0_series, omega_total

__all__ = ["main"]

_QUAD_TOL_CYL0 = 1e-12
_QUAD_TOL_DISC = 1e-10
_AXIS_OPTIONS = frozenset(("--L", "--d", "--z"))
_NEGATIVE_LEAD = re.compile(r"-[\d.]")
# one name per table value, in row order: the CSV header and the JSON keys
_TABLE_COLUMNS = ("L", "r", "d", "z", "omega", "method", "err_estimate")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_axis(text: str) -> tuple[float, ...]:
    """Axis spec: comma-separated floats, or start:stop:count:linear|log from start to stop as typed."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 4:
                raise ValueError("range spec needs start:stop:count:linear|log")
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            kind = parts[3]
            if count < 1:
                raise ValueError("count must be >= 1")
            if kind not in ("linear", "log"):
                raise ValueError(f"unknown range kind {kind!r}")
            if kind == "log" and (start <= 0.0 or stop <= 0.0):
                raise ValueError("log range needs positive endpoints")
            if count == 1:
                return (start,)
            if kind == "linear":
                step = (stop - start) / (count - 1)
                inner = (start + i * step for i in range(1, count - 1))
            else:
                la, lb = math.log(start), math.log(stop)
                inner = (math.exp(la + i * (lb - la) / (count - 1)) for i in range(1, count - 1))
            # the range ends on the values typed, not on their roundings through the step
            return (start, *inner, stop)
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad axis spec {text!r}: {exc}") from exc


def _route_total(cyl: CylinderSpec, src: SourcePoint, method: str) -> SolidAngle:
    """Sum the decomposition on a verification route.

    "quadrature" takes quad_cyl0_phi and quad_disc for every term; "series"
    takes omega_cyl0_series for the shells and omega_circ for the discs.
    Terms of zero height (a strip, or a disc seen edge-on from d > r) add
    nothing and are skipped.
    """
    total = 0.0
    err = 0.0
    for term in decompose(cyl, src):
        if term.kind is TermKind.CONSTANT:
            total += term.coefficient * term.constant_value
            continue
        if term.L_eff == 0.0:
            continue
        shell, cfg = term.kind is TermKind.CYL0, CanonicalConfig(term.L_eff, cyl.r, src.d)
        if method == "series":
            part = (omega_cyl0_series if shell else omega_circ)(cfg)
            value, term_err = part.value, part.err_estimate
        else:
            quad, term_err = (quad_cyl0_phi, _QUAD_TOL_CYL0) if shell else (quad_disc, _QUAD_TOL_DISC)
            value = quad(cfg, tol=term_err)
        total += term.coefficient * value
        err += term_err
    return SolidAngle(total, Method(method), err)


def _evaluated_terms(cyl: CylinderSpec, src: SourcePoint) -> str:
    """The terms omega_total evaluates, from the same case split.

    Below the base outside the shell, -cyl0(h) +circ(h) is the one fused
    near-face term, printed as face(h).
    """
    region, a, b = _split(cyl.L, cyl.r, src.d, src.z)
    if region == "const":
        return f"+constant({a:g})"
    if region == "disc":
        return f"+circ(L_eff={a:g})"
    return f"+cyl0(L_eff={a:g}) +{'cyl0' if region == 'shells' else 'face'}(L_eff={b:g})"


def _evaluate(args) -> tuple[SolidAngle, str]:
    cyl = CylinderSpec(args.L, args.r)
    src = SourcePoint(args.d, args.z)
    if args.method == "auto":
        return omega_total(cyl, src), _evaluated_terms(cyl, src)
    terms = decompose(cyl, src).describe()
    if args.method == "montecarlo":
        est = mc_total(cyl, src, args.samples, args.seed)
        return SolidAngle(est.hit_fraction, Method.MONTECARLO, est.std_error), terms
    return _route_total(cyl, src, args.method), terms


def _cmd_compute(args) -> int:
    result, terms = _evaluate(args)
    scale = 4.0 * math.pi if args.steradians else 1.0
    print(f"omega = {_fmt(result.value * scale)}")
    print(f"units = {'steradians' if args.steradians else 'fraction-of-4pi'}")
    print(f"method = {result.method.value}")
    print(f"err_estimate = {_fmt(result.err_estimate * scale)}")
    print(f"terms = {terms}")
    return 0


def _table_rows(args):
    for L in sorted(args.L):
        for d in sorted(args.d):
            for z in sorted(args.z):
                if args.quantity == "total":
                    res = omega_total(CylinderSpec(L, 1.0), SourcePoint(d, z))
                elif args.quantity == "cyl0":
                    res = omega_cyl0(CanonicalConfig(L, 1.0, d))
                else:
                    res = omega_circ(CanonicalConfig(L, 1.0, d))
                yield L, 1.0, d, z, res


def _cmd_table(args) -> int:
    scale = 4.0 * math.pi if args.steradians else 1.0
    rows = [
        (L, r, d, z, res.value * scale, res.method.value, res.err_estimate * scale)
        for L, r, d, z, res in _table_rows(args)
    ]
    if args.format == "csv":
        lines = [_TABLE_COLUMNS] + [tuple(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
        text = "".join(",".join(line) + "\n" for line in lines)
    else:
        text = json.dumps([dict(zip(_TABLE_COLUMNS, row)) for row in rows], indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def _parse_count(name: str, text: str) -> int:
    try:
        count = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {name} count {text!r}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError(f"{name} must be at least 1; got {count}")
    return count


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(points=args.points, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    if failed:
        print(f"{len(failed)} suite(s) FAILED")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solidcyl",
        description="Normalized solid angle of a finite right circular cylinder at a point source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one configuration")
    comp.add_argument("--L", type=float, required=True, help="cylinder height")
    comp.add_argument("--r", type=float, required=True, help="cylinder radius")
    comp.add_argument("--d", type=float, required=True, help="source distance from the axis")
    comp.add_argument("--z", type=float, default=0.0, help="source height above the lower base plane (default 0)")
    comp.add_argument(
        "--method",
        choices=["auto", "series", "quadrature", "montecarlo"],
        default="auto",
        help="auto: omega_total, the default; series, quadrature, montecarlo: verification routes",
    )
    comp.add_argument("--steradians", action="store_true", help="print 4*pi times the normalized value")
    comp.add_argument(
        "--samples", type=partial(_parse_count, "samples"), default=1_000_000, help="Monte Carlo rays (default 1000000)"
    )
    comp.add_argument("--seed", type=int, default=0, help="Monte Carlo seed, in [0, 2^128) (default 0)")
    comp.set_defaults(func=_cmd_compute)

    tab = sub.add_parser("table", help="sweep a grid and emit CSV or JSON")
    tab.add_argument("--L", type=_parse_axis, required=True, help="L/r axis: comma list or start:stop:count:linear|log")
    tab.add_argument("--d", type=_parse_axis, required=True, help="d/r axis: same syntax")
    tab.add_argument("--z", type=_parse_axis, default=(0.0,), help="z/r axis (default 0)")
    tab.add_argument("--quantity", choices=["total", "cyl0", "circ"], default="total")
    tab.add_argument("--format", choices=["csv", "json"], default="csv")
    tab.add_argument("--steradians", action="store_true")
    tab.add_argument("--out", default=None, help="output path (default stdout)")
    tab.set_defaults(func=_cmd_table)

    ver = sub.add_parser("verify", help="run the randomized verification suites")
    ver.add_argument(
        "--points", type=partial(_parse_count, "points"), default=200, help="configurations per suite (default 200)"
    )
    ver.add_argument("--seed", type=int, default=0, help="seed of the suites' configuration draws (default 0)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Join "--z -2:3:3:linear" into "--z=-2:3:3:linear".

    argparse takes any token that starts with '-' and is not a plain negative
    number for an option, so a negative range start, list entry or exponent
    form would otherwise leave its axis option without a value.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _AXIS_OPTIONS and _NEGATIVE_LEAD.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except SolidCylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
