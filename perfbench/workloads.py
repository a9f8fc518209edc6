"""Workload generators, measurement helpers and the four untraced workloads.

Each workload makes its inputs from a seeded random.Random, measures for
the given seconds in one closed loop with a single caller, and checks the
library's outputs. See NOTES.md for why the estimators are what they are.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Sizes of one operation and of the checked samples. "smoke" runs every
# workload at minimal size to check that the benchmark itself works.
SIZES = {
    "full": {
        "scalar_inputs": 2000,  # distinct inputs per pass of scalar_mix
        "min_passes": 3,
        "ref_sample": 150,  # scalar_mix results checked against the reference
        "grid": (10, 50, 20),  # table_grid L x d x z
        "spot_rows": 40,
        "verify_points": 2000,
        "rays": 10_000_000,
        "min_ops": 3,  # CLI and Monte Carlo operations per run, at least
        "setup_seconds": 3.0,
        "probe_inputs": 300,
        "overhead_inputs": 1000,
        "overhead_seconds": 6.0,
        "iso_items": 200,
        "iso_repeats": 5,
        "probe_verify_points": 200,  # verify's own default
        "probe_grid": (4, 10, 5),
        "probe_ref": 40,
    },
    "smoke": {
        "scalar_inputs": 100,
        "min_passes": 2,
        "ref_sample": 5,
        "grid": (2, 4, 3),
        "spot_rows": 5,
        "verify_points": 10,
        "rays": 100_000,
        "min_ops": 1,
        "setup_seconds": 0.0,
        "probe_inputs": 30,
        "overhead_inputs": 50,
        "overhead_seconds": 0.2,
        "iso_items": 10,
        "iso_repeats": 2,
        "probe_verify_points": 5,
        "probe_grid": (2, 2, 2),
        "probe_ref": 5,
    },
}

# the 3-term input whose kernel calls the traced run counts exactly
THREE_TERM = (3.0, 2.0, -0.5)  # (L, d, z), r = 1

clock = time.perf_counter


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SOLIDCYL_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def load_library(names=("elliptic", "geometry", "solid_angle", "oracle", "verify", "cli")):
    """Import the named solidcyl modules from src/ of this checkout, never from elsewhere.

    Workloads import only what they use, so that peak_rss_mb does not count
    NumPy and SciPy for a workload that never touches them.
    """
    if not (SRC / "solidcyl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no solidcyl sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import solidcyl

    if Path(solidcyl.__file__).resolve().parent != SRC / "solidcyl":
        raise SystemExit(f"perfbench: solidcyl imported from {solidcyl.__file__}, not {SRC}")
    return {name: importlib.import_module(f"solidcyl.{name}") for name in names}


# ------------------------------------------------------------------ inputs


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def scalar_inputs(rng: random.Random, n: int) -> list[tuple[float, float, float]]:
    """(L, d, z) with r = 1, as verify draws random sources.

    L/r and d/r are log-uniform in [0.01, 100] and z is uniform in
    [-2L, 3L]. Every 20th input is an exact boundary position instead,
    cycling through d = 0, d = r, z = 0 and z = L.
    """
    out = []
    for i in range(n):
        L = log_uniform(rng, 0.01, 100.0)
        d = log_uniform(rng, 0.01, 100.0)
        z = rng.uniform(-2.0 * L, 3.0 * L)
        if i % 20 == 19:
            kind = (i // 20) % 4
            if kind == 0:
                d = 0.0
            elif kind == 1:
                d = 1.0
            elif kind == 2:
                z = 0.0
            else:
                z = L
        out.append((L, d, z))
    return out


def replica(base: tuple[float, float, float], k: int) -> tuple[float, float, float]:
    """The k-th replica of an input: lengths scaled by 1 + k 2^-40.

    Replicas take the same region and route as the base input but are
    distinct doubles, so no replica repeats an earlier input or canonical
    term. Exact boundary relations (d = 0, d = r, z = 0, z = L) are kept.
    """
    L, d, z = base
    f = 1.0 + k * 2.0**-40
    Lk = L * f
    dk = d if d in (0.0, 1.0) else d * f
    zk = Lk if z == L else z * f
    return Lk, dk, zk


def table_argv(rng: random.Random, grid: tuple[int, int, int], out: Path) -> list[str]:
    nL, nd, nz = grid
    L = f"{rng.uniform(0.2, 1.0)!r}:{rng.uniform(5.0, 20.0)!r}:{nL}:log"
    d = f"{rng.uniform(0.02, 0.2)!r}:{rng.uniform(10.0, 40.0)!r}:{nd}:log"
    # a negative range start must be glued on with "=": argparse reads
    # "--z -2:3:20:linear" as an unknown option and exits with code 2
    z = f"{rng.uniform(-3.0, -1.0)!r}:{rng.uniform(2.0, 5.0)!r}:{nz}:linear"
    return ["table", f"--L={L}", f"--d={d}", f"--z={z}", "--out", str(out)]


def mc_configs(rng: random.Random, n: int) -> list[tuple[float, float, float, int]]:
    """(L, d, z, ray seed) with r = 1, drawn like scalar_mix's regular inputs.

    Enclosed sources are redrawn: their answer is exactly 1 and every ray hits.
    """
    out = []
    while len(out) < n:
        L = log_uniform(rng, 0.01, 100.0)
        d = log_uniform(rng, 0.01, 100.0)
        z = rng.uniform(-2.0 * L, 3.0 * L)
        if d < 1.0 and 0.0 <= z <= L:
            continue
        out.append((L, d, z, rng.randrange(2**32)))
    return out


# ------------------------------------------------------------- measurement


def run_child(argv: list[str]) -> tuple[float, int, bytes]:
    """Run python3 argv in a fresh interpreter; (wall seconds, exit code, stdout)."""
    t0 = clock()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
    )
    return clock() - t0, proc.returncode, proc.stdout


def setup_time(code: str, min_seconds: float = 3.0) -> float:
    """Median wall time of fresh interpreters that import and do one operation.

    Repeats at least three times and for at least min_seconds.
    """
    walls = []
    deadline = clock() + min_seconds
    while len(walls) < 3 or clock() < deadline:
        wall, exit_code, _ = run_child(["-c", code])
        if exit_code != 0:
            raise RuntimeError(f"set-up probe exited with {exit_code}: {code}")
        walls.append(wall)
    return statistics.median(walls)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Checker:
    """Compares library values with the 30-digit reference, cached by exact input."""

    def __init__(self):
        from reference import allowed_error, omega_reference

        self._ref = omega_reference
        self._allowed = allowed_error
        self._cache = {}
        self.checked = 0
        self.failures: list[str] = []
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.worst = "n/a"

    def reference(self, L, d, z):
        key = (L, d, z)
        if key not in self._cache:
            self._cache[key] = self._ref(L, 1.0, d, z)
        return self._cache[key]

    def check(self, L, d, z, value, err_estimate) -> bool:
        ref, ref_err = self.reference(L, d, z)
        dev = abs(value - ref)
        self.checked += 1
        if dev > self.max_abs:
            self.max_abs = dev
            self.worst = f"L={L!r} r=1 d={d!r} z={z!r}"
        if ref != 0.0:
            self.max_rel = max(self.max_rel, dev / abs(ref))
        ok = 0.0 <= value <= 1.0 and dev <= self._allowed(err_estimate, ref, ref_err)
        if not ok:
            self.failures.append(f"L={L!r} d={d!r} z={z!r}: {value!r} vs reference {ref!r}")
        return ok

    def check_mc(self, L, d, z, hit_fraction, samples) -> bool:
        ref, _ = self.reference(L, d, z)
        sigma = math.sqrt(ref * (1.0 - ref) / samples)
        ok = abs(hit_fraction - ref) <= 6.0 * sigma + 1.0 / samples
        if not ok:
            self.failures.append(f"mc L={L!r} d={d!r} z={z!r}: {hit_fraction!r} vs reference {ref!r}")
        return ok


def parse_table(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode().splitlines()[1:]]


def spot_check(checker: Checker, rows: list[list[str]], rng: random.Random, count: int) -> int:
    """Check sampled table rows (L, r, d, z, omega, method, err) against the reference."""
    bad = 0
    for row in rng.sample(rows, min(count, len(rows))):
        L, r, d, z, omega, _, err = row
        if float(r) != 1.0 or not checker.check(float(L), float(d), float(z), float(omega), float(err)):
            bad += 1
    return bad


# -------------------------------------------------------------- workloads


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.notes: list[tuple[str, float, str]] = []  # (name, value, unit) for people
        self.details: list[str] = []  # failures and argv, printed as notes

    def note(self, name, value, unit):
        self.notes.append((name, value, unit))


def timed_scalar_passes(mods, inputs, seconds, min_passes):
    """Evaluate replica passes of inputs until seconds pass.

    Returns each input's fastest time, the first pass's results, the
    evaluations attempted and failed, and failure descriptions.

    Taking each input's fastest replica removes the slow-downs other
    processes cause on a shared machine; distinct replicas keep every
    evaluation a cache miss.
    """
    sa, geo = mods["solid_angle"], mods["geometry"]
    n = len(inputs)
    best = [math.inf] * n
    first = [None] * n
    attempted = bad = 0
    errors = []
    deadline = clock() + seconds
    k = 0
    while k < min_passes or clock() < deadline:
        cases = [(geo.CylinderSpec(L, 1.0), geo.SourcePoint(d, z)) for L, d, z in (replica(b, k) for b in inputs)]
        for i, (cyl, src) in enumerate(cases):
            attempted += 1
            t0 = clock()
            try:
                res = sa.omega_total(cyl, src)
            except Exception as exc:  # a raise on a valid input is a counted failure
                bad += 1
                errors.append(f"{cyl} {src}: {exc!r}")
                continue
            dt = clock() - t0
            if not 0.0 <= res.value <= 1.0:
                bad += 1
                errors.append(f"{cyl} {src}: value {res.value!r} outside [0, 1]")
            if dt < best[i]:
                best[i] = dt
            if k == 0:
                first[i] = res
        k += 1
    return best, first, attempted, bad, errors


def workload_scalar_mix(mods, rng, seconds, size, out: Result):
    inputs = scalar_inputs(rng, size["scalar_inputs"])
    best, first, attempted, bad, errors = timed_scalar_passes(mods, inputs, seconds, size["min_passes"])
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    times = [t for t in best if t < math.inf]
    out.attempted, out.failed, out.details = attempted, bad, errors[:5]
    L, d, z = inputs[0]
    out.metrics["setup_s"] = setup_time(
        "from solidcyl import CylinderSpec, SourcePoint, omega_total; "
        f"omega_total(CylinderSpec({L!r}, 1.0), SourcePoint({d!r}, {z!r}))",
        size["setup_seconds"],
    )
    checker = Checker()
    for i in rng.sample(range(len(inputs)), min(size["ref_sample"], len(inputs))):
        if first[i] is not None and not checker.check(*inputs[i], first[i].value, first[i].err_estimate):
            out.failed += 1
    out.details += checker.failures[:5]
    out.metrics["work_per_s"] = len(times) / sum(times)
    out.metrics["peak_rss_mb"] = rss
    out.note("evals_per_s", out.metrics["work_per_s"], "1/s")
    out.note("eval_p50_us", statistics.median(times) * 1e6, "us")
    out.note("eval_p99_us", statistics.quantiles(times, n=100)[98] * 1e6, "us")
    out.note("inputs", len(inputs), "count")
    out.note("max_abs_err", checker.max_abs, "fraction")
    out.note("max_rel_err", checker.max_rel, "rel")
    out.note("reference_checked", checker.checked, "count")
    out.details.append(f"worst reference deviation at {checker.worst}")


def cli_loop(argv, seconds, min_ops, check_output):
    """Run the CLI in fresh interpreters until seconds pass; per-op wall times."""
    walls = []
    bad = 0
    deadline = clock() + seconds
    while len(walls) < min_ops or clock() < deadline:
        wall, code, stdout = run_child(["-m", "solidcyl.cli", *argv])
        walls.append(wall)
        bad += code != 0 or not check_output(stdout)
    return walls, bad


def workload_table_grid(mods, rng, seconds, size, out: Result):
    WORK.mkdir(exist_ok=True)
    path = WORK / f"table_{os.getpid()}.csv"
    argv = table_argv(rng, size["grid"], path)
    digests = []

    def same_bytes(_stdout):
        if not path.is_file():
            return False
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        return digests[-1] == digests[0]

    try:
        walls, bad = cli_loop(argv, seconds, size["min_ops"], same_bytes)
        data = path.read_bytes() if path.is_file() else b""
    finally:
        path.unlink(missing_ok=True)
    rows = parse_table(data)
    nrows = math.prod(size["grid"])
    checker = Checker()
    if len(rows) != nrows or spot_check(checker, rows, rng, size["spot_rows"]):
        bad = len(walls)
    out.attempted, out.failed = len(walls), bad
    out.details = checker.failures[:5]
    wall = statistics.median(walls)
    out.metrics["work_per_s"] = nrows / wall
    out.metrics["setup_s"] = wall  # every invocation is a fresh interpreter
    out.metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    out.note("rows_per_s", nrows / wall, "1/s")
    out.note("table_wall_s", wall, "s")
    out.note("rows", nrows, "count")
    out.note("invocations", len(walls), "count")
    out.note("max_abs_err", checker.max_abs, "fraction")
    out.note("max_rel_err", checker.max_rel, "rel")
    out.note("output_bytes", len(data), "B")
    out.details.append(f"argv: {' '.join(argv)}")


def verify_checks(stdout: bytes) -> int:
    """Total checks from verify's report, or -1 if any suite failed."""
    total = 0
    for line in stdout.decode().splitlines():
        if line.startswith("FAIL"):
            return -1
        if line.startswith("PASS"):
            total += int(line.split(": ", 1)[1].split(" checks", 1)[0])
    return total


def workload_verify_suites(mods, rng, seconds, size, out: Result):
    argv = ["verify", "--points", str(size["verify_points"]), "--seed", str(rng.randrange(10**6))]
    checks = []

    def passed(stdout):
        checks.append(verify_checks(stdout))
        return checks[-1] > 0

    walls, bad = cli_loop(argv, seconds, size["min_ops"], passed)
    out.attempted, out.failed = len(walls), bad
    wall = statistics.median(walls)
    out.metrics["work_per_s"] = max(checks) / wall  # -1 where a suite failed
    out.metrics["setup_s"] = wall  # every invocation is a fresh interpreter
    out.metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    out.note("verify_wall_s", wall, "s")
    out.note("checks_per_invocation", max(checks), "count")
    out.note("invocations", len(walls), "count")
    out.details.append(f"argv: {' '.join(argv)}")


def workload_mc_oracle(mods, rng, seconds, size, out: Result):
    geo, orc = mods["geometry"], mods["oracle"]
    rays = size["rays"]
    configs = mc_configs(rng, 64)
    walls, results = [], []
    deadline = clock() + seconds
    while len(walls) < size["min_ops"] or clock() < deadline:
        L, d, z, seed = configs[len(walls) % len(configs)]
        cyl, src = geo.CylinderSpec(L, 1.0), geo.SourcePoint(d, z)
        t0 = clock()
        est = orc.mc_total(cyl, src, rays, seed)
        walls.append(clock() - t0)
        results.append(est.hit_fraction)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    L, d, z, seed = configs[0]
    out.metrics["setup_s"] = setup_time(
        "from solidcyl.geometry import CylinderSpec, SourcePoint; from solidcyl.oracle import mc_total; "
        f"mc_total(CylinderSpec({L!r}, 1.0), SourcePoint({d!r}, {z!r}), {rays}, {seed})",
        size["setup_seconds"],
    )
    checker = Checker()
    bad = sum(
        not checker.check_mc(*configs[i % len(configs)][:3], p, rays) for i, p in enumerate(results)
    )
    out.attempted, out.failed, out.details = len(walls), bad, checker.failures[:5]
    wall = statistics.median(walls)
    out.metrics["work_per_s"] = rays / wall
    out.metrics["peak_rss_mb"] = rss
    out.note("rays_per_s", rays / wall, "1/s")
    out.note("mc_call_s", wall, "s")
    out.note("rays_per_op", rays, "count")
    out.note("ops", len(walls), "count")


# the solidcyl modules each untraced workload imports in-process
WORKLOAD_MODULES = {
    "scalar_mix": ("geometry", "solid_angle"),
    "table_grid": (),
    "verify_suites": (),
    "mc_oracle": ("geometry", "oracle"),
}

WORKLOAD_FUNCS = {
    "scalar_mix": workload_scalar_mix,
    "table_grid": workload_table_grid,
    "verify_suites": workload_verify_suites,
    "mc_oracle": workload_mc_oracle,
}


def run_workload(mods, workload, seed, seconds, size) -> Result:
    out = Result()
    WORKLOAD_FUNCS[workload](mods, random.Random(f"{workload}:{seed}"), seconds, size, out)
    out.note("fail_frac", out.failed / out.attempted, "frac")
    return out
