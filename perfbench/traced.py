"""The traced run: per-layer metrics for one workload.

Runs separately from the timed run, because the wrappers cost time. It
has six parts:

1. the fixed 3-term input L=3, r=1, d=2, z=-0.5 under the tracer, for
   exact kernel call counts, then a seeded scalar_mix sample, to record the
   Carlson argument tuples the kernels really see;
2. layer functions timed in isolation, untraced (each input's fastest of a
   few repeats, median over inputs);
3. the tracing overhead: the same scalar inputs untraced and traced, in
   alternating passes;
4. the workload itself once under the tracer: self time per layer, calls
   per evaluation, region, route and repeat shares;
5. R_J against mpmath's elliprj over the recorded tuples and a fixed grid
   of its arguments;
6. the workload's outputs (or, where it has none, the sample's) checked
   against the 30-digit reference.

Spans are kept in memory and written to .perfbench_work/ at the end.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
from pathlib import Path

from tracing import Tracer, cli_targets, library_targets
from workloads import (
    THREE_TERM,
    WORK,
    Checker,
    Result,
    clock,
    mc_configs,
    parse_table,
    replica,
    run_child,
    scalar_inputs,
    spot_check,
    table_argv,
    verify_checks,
)

KERNELS = ("rf", "rd", "rj", "rc")
REGIONS = {3: "3term", 2: "2term"}

# fixed log-uniform grid of R_J arguments (x, y, 1, p), the form the library
# calls it in; small p is where R_C(1, 1 + e) inside R_J loses digits
_HALF_DECADES = tuple(10.0 ** (-k / 2.0) for k in range(17))
RJ_GRID = tuple(
    (x, y, 1.0, 10.0**-k) for x in (0.0, *_HALF_DECADES) for y in _HALF_DECADES for k in range(9)
)


class Recorder:
    """Observations the tracer hands back: kernel arguments, decompositions, routes."""

    def __init__(self, mods, keep_args=0):
        self.TermKind = mods["geometry"].TermKind
        self.SERIES = mods["solid_angle"].Method.SERIES
        self.keep_args = keep_args
        self.args = {k: [] for k in KERNELS}
        self.regions = {"3term": 0, "2term": 0, "circ": 0, "const": 0}
        self.terms = 0
        self.repeats = 0
        self._seen = set()
        self.cyl0 = 0
        self.series = 0

    def observers(self):
        out = {"geometry.decompose": self.on_decompose, "solid_angle.omega_cyl0": self.on_cyl0}
        if self.keep_args:
            for k in KERNELS:
                out[f"elliptic.carlson_{k}"] = self._arg_keeper(k)
        return out

    def _arg_keeper(self, kernel):
        store = self.args[kernel]

        def keep(args, _result):
            if len(store) < self.keep_args:
                store.append(tuple(float(a) for a in args))

        return keep

    def on_decompose(self, _args, dec):
        terms = dec.terms
        if terms[0].kind is self.TermKind.CONSTANT:
            self.regions["const"] += 1
        elif len(terms) == 1:
            self.regions["circ"] += 1
        else:
            self.regions[REGIONS[len(terms)]] += 1
        for t in terms:
            if t.kind is not self.TermKind.CONSTANT:
                key = (t.kind, t.L_eff, dec.cylinder.r, dec.source.d)
                self.terms += 1
                self.repeats += key in self._seen
                self._seen.add(key)

    def on_cyl0(self, _args, result):
        self.cyl0 += 1
        self.series += result.method is self.SERIES


def _share(part, whole):
    return part / whole if whole else 0.0


def _iso_us(fn, arglist, repeats):
    """Median over inputs of each input's fastest call, in microseconds."""
    best = []
    for args in arglist:
        t = math.inf
        for _ in range(repeats):
            t0 = clock()
            fn(*args)
            t = min(t, clock() - t0)
        best.append(t)
    return statistics.median(best) * 1e6


def _evaluate(mods, inputs):
    geo, sa = mods["geometry"], mods["solid_angle"]
    return [sa.omega_total(geo.CylinderSpec(L, 1.0), geo.SourcePoint(d, z)) for L, d, z in inputs]


def probe(mods, rng, size, m: dict) -> tuple[list, Recorder]:
    """Part 1: exact counts on the 3-term input, then kernel arguments from a sample."""
    with Tracer(library_targets(mods)) as tr:
        _evaluate(mods, [THREE_TERM])
    counts = tr.counts()
    for k in KERNELS:
        m[f"elliptic.{k}_calls_3term"] = counts.get(f"elliptic.carlson_{k}", 0)
    m["solid_angle.params_calls_3term"] = counts.get("solid_angle.params_from_geometry", 0)
    sample = scalar_inputs(random.Random(f"probe:{rng.random()}"), size["probe_inputs"])
    rec = Recorder(mods, keep_args=size["iso_items"])
    with Tracer(library_targets(mods), rec.observers()):
        _evaluate(mods, sample)
    return sample, rec


def isolation(mods, rng, size, sample, rec, m: dict) -> None:
    """Part 2: layer functions timed alone, untraced."""
    el, geo, sa, orc = mods["elliptic"], mods["geometry"], mods["solid_angle"], mods["oracle"]
    reps = size["iso_repeats"]
    for k in ("rf", "rd", "rj"):
        m[f"elliptic.{k}_us"] = _iso_us(getattr(el, f"carlson_{k}"), rec.args[k], reps)
    cases = [(geo.CylinderSpec(L, 1.0), geo.SourcePoint(d, z)) for L, d, z in sample]
    decs = [geo.decompose(c, s) for c, s in cases]
    m["geometry.decompose_us"] = _iso_us(geo.decompose, cases, reps)
    cyl0, circ = [], []
    for dec in decs:
        for t in dec.terms:
            if t.kind is geo.TermKind.CYL0:
                cyl0.append((geo.CanonicalConfig(t.L_eff, 1.0, dec.source.d),))
            elif t.kind is geo.TermKind.CIRC:
                circ.append((geo.CanonicalConfig(t.L_eff, 1.0, dec.source.d),))
    params = [c for c in cyl0 + circ if c[0].d > 0.0]
    m["solid_angle.params_us"] = _iso_us(sa.params_from_geometry, params, reps)
    m["solid_angle.cyl0_us"] = _iso_us(sa.omega_cyl0, cyl0, reps)
    m["solid_angle.circ_us"] = _iso_us(sa.omega_circ, circ, reps)
    for n, region in REGIONS.items():
        picked = [c for c, dec in zip(cases, decs) if len(dec.terms) == n]
        m[f"solid_angle.total_{region}_us"] = _iso_us(sa.omega_total, picked, reps)
    agm_rng = random.Random(f"agm:{rng.random()}")
    ms = [(1.0 - math.exp(agm_rng.uniform(math.log(1e-10), 0.0)),) for _ in range(size["iso_items"])]
    m["oracle.agm_us"] = _iso_us(orc.agm_complete_first_kind, ms, reps)
    regular = [c for c in cyl0 if c[0].L > 0.0 and c[0].d > 1.0][:5]
    m["oracle.quad_ms"] = _iso_us(orc.quad_cyl0_phi, regular, reps) / 1e3


def mc_probe(mods, seed_rng, size, m: dict):
    """One untraced mc_total on the seed's first config: block time and exact hits."""
    geo, orc = mods["geometry"], mods["oracle"]
    L, d, z, ray_seed = mc_configs(seed_rng, 1)[0]
    rays = size["rays"]
    t0 = clock()
    est = orc.mc_total(geo.CylinderSpec(L, 1.0), geo.SourcePoint(d, z), rays, ray_seed)
    m["oracle.mc_block_ms"] = (clock() - t0) * 1e3 / math.ceil(rays / 1_000_000)
    m["oracle.mc_hits"] = round(est.hit_fraction * rays)
    return (L, d, z), est


def overhead(mods, rng, size, m: dict) -> None:
    """Part 3: 1 - traced / untraced evaluations per second, in alternating passes."""
    inputs = scalar_inputs(random.Random(f"overhead:{rng.random()}"), size["overhead_inputs"])
    geo, sa = mods["geometry"], mods["solid_angle"]
    plain = [math.inf] * len(inputs)
    traced = [math.inf] * len(inputs)
    tracer = Tracer(library_targets(mods))
    deadline = clock() + size["overhead_seconds"]
    k = 0
    while k < 4 or clock() < deadline:
        cases = [(geo.CylinderSpec(L, 1.0), geo.SourcePoint(d, z)) for L, d, z in (replica(b, k) for b in inputs)]
        best = plain if k % 2 == 0 else traced
        with tracer if k % 2 else contextlib.nullcontext():
            for i, (cyl, src) in enumerate(cases):
                t0 = clock()
                sa.omega_total(cyl, src)
                best[i] = min(best[i], clock() - t0)
        tracer.clear()
        k += 1
    m["trace.overhead_frac"] = 1.0 - sum(plain) / sum(traced)
    m["solid_angle.total_p99_us"] = statistics.quantiles(plain, n=100)[98] * 1e6


def verify_suite_times(mods, points, seed, m: dict) -> int:
    ver = mods["verify"]
    checks = 0
    for name in ver.SUITES:
        t0 = clock()
        res = ver.run_suite(name, points, seed)
        m[f"verify.{name}_s"] = clock() - t0
        checks += res.checks
    return checks


def layer_shares(tracer: Tracer, rec: Recorder, m: dict) -> None:
    """Part 4 summaries: self-time shares, calls per evaluation, region and route shares."""
    layer_self, root_total = tracer.self_times()
    for layer in ("elliptic", "geometry", "solid_angle", "oracle"):
        m[f"{layer}.self_share"] = _share(layer_self.get(layer, 0.0), root_total)
    counts = tracer.counts()
    evals = counts.get("solid_angle.omega_total", 0)
    for k in KERNELS:
        m[f"elliptic.{k}_calls_per_eval"] = _share(counts.get(f"elliptic.carlson_{k}", 0), evals)
    m["solid_angle.params_calls_per_eval"] = _share(counts.get("solid_angle.params_from_geometry", 0), evals)
    decs = sum(rec.regions.values())
    for region, n in rec.regions.items():
        m[f"geometry.share_{region}"] = _share(n, decs)
    m["solid_angle.series_share"] = _share(rec.series, rec.cyl0)
    m["solid_angle.repeat_term_share"] = _share(rec.repeats, rec.terms)
    m["oracle.quad_calls"] = sum(counts.get(f"oracle.{q}", 0) for q in ("quad_cyl0_phi", "quad_cyl0_gamma", "quad_disc"))


def rj_accuracy(mods, rec: Recorder) -> float:
    """Part 5: worst relative error of carlson_rj against mpmath at 30 digits."""
    from mpmath import mp

    rj = mods["elliptic"].carlson_rj
    worst = 0.0
    with mp.workdps(30):
        for args in rec.args["rj"] + list(RJ_GRID):
            exact = mp.elliprj(*(mp.mpf(a) for a in args))
            worst = max(worst, float(abs((rj(*args) - exact) / exact)))
    return worst


def cli_main(mods, argv, tracer):
    """Run cli.main in-process as a root span; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.span("cli.main", mods["cli"].main, argv)
    return code, buf.getvalue()


def cli_table(mods, argv, tracer, checker, rng, size, m) -> bool:
    """Run a table in-process: cli's own share of its wall, output size, spot check.

    The share comes from a light trace of the names cli calls per row; with a
    tracer given, the table runs once more under it. Returns whether all passed.
    """
    path = Path(argv[argv.index("--out") + 1])
    try:
        light = Tracer(cli_targets(mods))
        with light:
            codes = [cli_main(mods, argv, light)[0]]
        main_s = sum(light.durations("cli.main"))
        inner = sum(light.durations("solid_angle.omega_total"))
        m["cli.format_share"] = (main_s - inner) / (main_s + m["cli.import_s"])
        if tracer is not None:
            with tracer:
                codes.append(cli_main(mods, argv, tracer)[0])
        data = path.read_bytes()
    finally:
        path.unlink(missing_ok=True)
    m["cli.output_bytes"] = len(data)
    return not any(codes) and spot_check(checker, parse_table(data), rng, size["spot_rows"]) == 0


def traced_run(mods, workload, seed, seconds, size) -> Result:
    del seconds  # the traced run does a fixed amount of work so its counts repeat exactly
    out = Result()
    m = out.metrics
    rng = random.Random(f"{workload}:{seed}")
    probe_rng = random.Random(f"trace-probe:{seed}")
    sample, probe_rec = probe(mods, probe_rng, size, m)
    isolation(mods, probe_rng, size, sample, probe_rec, m)
    mc_cfg, mc_est = mc_probe(mods, random.Random(f"mc_oracle:{seed}"), size, m)
    overhead(mods, probe_rng, size, m)
    m["cli.import_s"] = statistics.median(run_child(["-c", "import solidcyl.cli"])[0] for _ in range(3))
    verify_seed = rng.randrange(10**6) if workload == "verify_suites" else seed
    verify_points = size["verify_points"] if workload == "verify_suites" else size["probe_verify_points"]
    m["verify.checks"] = verify_suite_times(mods, verify_points, verify_seed, m)

    WORK.mkdir(exist_ok=True)
    table_path = WORK / f"trace_table_{workload}_{seed}.csv"
    if workload != "table_grid":
        # a small table, so that every workload reports the cli layer
        argv = table_argv(random.Random(f"table-probe:{seed}"), size["probe_grid"], table_path)
        out.attempted += 1
        out.failed += not cli_table(mods, argv, None, Checker(), probe_rng, size, m)

    rec = Recorder(mods)
    tracer = Tracer(library_targets(mods), rec.observers())
    checker = Checker()
    if workload == "scalar_mix":
        inputs = scalar_inputs(rng, size["scalar_inputs"])
        with tracer:
            results = _evaluate(mods, inputs)
        out.attempted += len(results)
        for i in rng.sample(range(len(inputs)), min(size["ref_sample"], len(inputs))):
            out.failed += not checker.check(*inputs[i], results[i].value, results[i].err_estimate)
    elif workload == "table_grid":
        out.attempted += 1
        out.failed += not cli_table(mods, table_argv(rng, size["grid"], table_path), tracer, checker, rng, size, m)
    elif workload == "verify_suites":
        argv = ["verify", "--points", str(size["verify_points"]), "--seed", str(verify_seed)]
        with tracer:
            code, text = cli_main(mods, argv, tracer)
        out.attempted += 1
        out.failed += code != 0 or verify_checks(text.encode()) <= 0
    else:
        geo, orc = mods["geometry"], mods["oracle"]
        L, d, z = mc_cfg
        with tracer:
            est = orc.mc_total(geo.CylinderSpec(L, 1.0), geo.SourcePoint(d, z), size["rays"], mc_est.seed)
        out.attempted += 2
        out.failed += (est != mc_est) + (not checker.check_mc(L, d, z, mc_est.hit_fraction, size["rays"]))
    layer_shares(tracer, rec, m)
    tracer.write_spans(WORK / f"spans_{workload}_{seed}.csv.gz")

    if workload in ("verify_suites", "mc_oracle"):
        # no omega values to compare: use the probe sample's
        results = _evaluate(mods, sample)
        for (L, d, z), res in list(zip(sample, results))[: size["probe_ref"]]:
            out.attempted += 1
            out.failed += not checker.check(L, d, z, res.value, res.err_estimate)
    m["elliptic.rj_max_rel_err"] = rj_accuracy(mods, probe_rec)
    m["reference.max_abs_err"] = checker.max_abs
    m["reference.max_rel_err"] = checker.max_rel
    out.details = checker.failures[:5]
    out.note("spans", len(tracer), "count")
    return out
