"""Frozen bits of the closed-form path: values, tags, error estimates, kernel tuples.

frozen_bits.json holds, as float.hex() strings, the outcome of:

- omega_total on 64 seeded inputs (16 in each region of geometry._split)
  and on the boundary positions listed in _boundary_totals;
- direct omega_cyl0 and omega_circ calls, seeded and on their boundaries;
- the first 200 R_F, R_D and R_J argument tuples that omega_total passes to
  the kernels over a seeded stream of inputs, with each kernel's value.

An outcome is (value, method, err_estimate) or the exception's type and
message. Any change to the evaluation order, to a parameter formula or to a
kernel shows up here as a changed bit, so speed-ups of the scalar path must
keep every entry. The inputs are drawn with random.Random and exact float
operations only (no libm), so they are the same on every platform.

Regenerate (only for a change that is meant to move bits, and say so):
    PYTHONPATH=src python tests/test_frozen_bits.py
"""

import json
import math
import random
from pathlib import Path

import pytest

from solidcyl import elliptic
from solidcyl.errors import SolidCylError
from solidcyl.geometry import CanonicalConfig, CylinderSpec, SourcePoint, _split
from solidcyl.solid_angle import omega_circ, omega_cyl0, omega_total

DATA = Path(__file__).resolve().parent / "frozen_bits.json"
KERNELS = ("carlson_rf", "carlson_rd", "carlson_rj")
TUPLES_PER_KERNEL = 200
REGIONS = ("below", "shells", "disc", "const")
PER_REGION = 16
EVALUATORS = {
    "omega_total": lambda L, r, d, z: omega_total(CylinderSpec(L, r), SourcePoint(d, z)),
    "omega_cyl0": lambda L, r, d: omega_cyl0(CanonicalConfig(L, r, d)),
    "omega_circ": lambda L, r, d: omega_circ(CanonicalConfig(L, r, d)),
}


def _scaled(rng: random.Random, lo: int, hi: int) -> float:
    """A positive float in [2^lo, 2^hi) from one draw, by exact ldexp."""
    return math.ldexp(0.5 + 0.5 * rng.random(), rng.randint(lo + 1, hi))


def _random_total(rng: random.Random) -> tuple[float, float, float, float]:
    """(L, r, d, z) with L, d in r * [2^-7, 2^7) and z in [-2L, 3L]."""
    r = _scaled(rng, -3, 3)
    L = r * _scaled(rng, -7, 7)
    d = r * _scaled(rng, -7, 7)
    z = L * (5.0 * rng.random() - 2.0)
    return L, r, d, z


def _seeded_totals() -> list[tuple[float, float, float, float]]:
    """PER_REGION seeded inputs in each region, in draw order."""
    rng = random.Random(1979)
    found = {region: [] for region in REGIONS}
    while any(len(v) < PER_REGION for v in found.values()):
        L, r, d, z = _random_total(rng)
        if rng.random() < 0.3:
            # d near the rim, where 1 - n and the gamma_o parts are small
            d = r * (1.0 + math.ldexp(rng.random() - 0.5, -rng.randint(1, 40)))
        if rng.random() < 0.2:
            z = rng.choice((0.0, L, 0.5 * L))
        region = _split(L, r, d, z)[0]
        if len(found[region]) < PER_REGION:
            found[region].append((L, r, d, z))
    return [cfg for region in REGIONS for cfg in found[region]]


def _boundary_totals() -> list[tuple[float, float, float, float]]:
    up, down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    out = []
    for L, z in ((1.0, -0.5), (3.0, 1.0), (1.0, 0.0), (1.0, 1.0), (2.0, -1e-300)):
        for d in (0.0, 1.0, up, down, 2.0**-501, 0.5, 2.0):
            out.append((L, 1.0, d, z))
    for k in (3e200, 3e-200):
        out += [(k, k, 2.0 * k, -0.5 * k), (k, k, 0.5 * k, -k), (k, k, 2.0 * k, 0.25 * k), (k, k, k, -k)]
    out += [
        (1.0, 1.0, 1e150, -1.0),
        (1e-3, 1.0, 1e150, -1e-3),
        (1.0, 1.0, 1e150, -1e150),
        (1.0, 1.0, 1e160, -1.0),  # L^2 + (d+r)^2 overflows: DomainError
        (1e160, 1.0, 2.0, -1.0),
        (1.0, 1.0, 0.5, -1e6),
        (1.0, 1.0, 2.0, -1e6),
        (5e-324, 1.0, 2.0, -5e-324),
    ]
    return out


def _seeded_canonical(rng: random.Random, outside: bool) -> list[tuple[float, float, float]]:
    out = []
    for _ in range(24):
        r = _scaled(rng, -3, 3)
        L = r * _scaled(rng, -7, 7)
        if outside:
            d = r * (1.0 + _scaled(rng, -40, 7))
        else:
            d = r * _scaled(rng, -7, 7)
        out.append((L, r, d))
    return out


def _inputs() -> dict[str, list[tuple[float, ...]]]:
    """The frozen inputs of each evaluator, (L, r, d, z) or (L, r, d)."""
    rng = random.Random(1969)
    up, down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    cyl0 = _seeded_canonical(rng, outside=True) + [
        (0.0, 1.0, 2.0),
        (1.0, 1.0, 1.0),
        (1.0, 1.0, up),
        (1e-300, 1.0, up),
        (1e-3, 1.0, 1.0 + 1e-9),
        (2.0, 3e200, 6e200),
        (2e-200, 1e-200, 3e-200),
        (1.0, 1.0, down),  # d < r: DomainError
        (1.0, 1.0, 1e160),  # overflow: DomainError
    ]
    circ = _seeded_canonical(rng, outside=False) + [
        (0.0, 1.0, 0.5),
        (0.0, 1.0, 1.0),
        (0.0, 1.0, 2.0),
        (1.0, 1.0, 0.0),
        (1.0, 1.0, 2.0**-501),
        (1.0, 1.0, 1.0),
        (1.0, 1.0, up),
        (1.0, 1.0, down),
        (1e8, 1.0, 0.5),
        (1e-8, 1.0, 1e-300),
        # the near-rim point where cos^2(eps) underflows
        (5e-324, 1e-200, math.nextafter(1e-200, 0.0)),
        (1.0, 1.0, 1e160),  # overflow: DomainError
    ]
    return {"omega_total": _seeded_totals() + _boundary_totals(), "omega_cyl0": cyl0, "omega_circ": circ}


def _kernel_stream():
    """Seeded omega_total inputs (r = 1) that reach every kernel often."""
    rng = random.Random(1995)
    while True:
        L = _scaled(rng, -7, 7)
        d = _scaled(rng, -7, 7)
        z = L * (5.0 * rng.random() - 2.0)
        yield L, 1.0, d, z


def _hex(v: float) -> str:
    return float(v).hex()


def _outcome(fn, *args) -> list[str]:
    try:
        got = fn(*args)
    except SolidCylError as exc:
        return ["raise", type(exc).__name__, str(exc)]
    if isinstance(got, float):
        return [_hex(got)]
    return [_hex(got.value), got.method.value, _hex(got.err_estimate)]


def _record_kernel_tuples() -> dict[str, list[tuple[float, ...]]]:
    """The first TUPLES_PER_KERNEL argument tuples per kernel over _kernel_stream."""
    calls = {name: [] for name in KERNELS}

    def recorder(name, kernel):
        def wrapped(*args):
            calls[name].append(args)
            return kernel(*args)

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in KERNELS:
            mp.setattr(elliptic, name, recorder(name, getattr(elliptic, name)))
        stream = _kernel_stream()
        while any(len(v) < TUPLES_PER_KERNEL for v in calls.values()):
            EVALUATORS["omega_total"](*next(stream))
    return {name: v[:TUPLES_PER_KERNEL] for name, v in calls.items()}


def _generate() -> dict:
    data = {}
    for name, inputs in _inputs().items():
        data[name] = [[[_hex(v) for v in cfg], _outcome(EVALUATORS[name], *cfg)] for cfg in inputs]
    for name, tuples in _record_kernel_tuples().items():
        kernel = getattr(elliptic, name)
        data[name] = [[[_hex(v) for v in args], _outcome(kernel, *args)] for args in tuples]
    return data


def _load() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def _floats(hexes: list[str]) -> tuple[float, ...]:
    return tuple(float.fromhex(h) for h in hexes)


def test_frozen_inputs_are_the_generated_ones():
    data = _load()
    for name, inputs in _inputs().items():
        assert [_floats(cfg) for cfg, _ in data[name]] == inputs
    seeded = _seeded_totals()
    assert [_split(*cfg)[0] for cfg in seeded] == [region for region in REGIONS for _ in range(PER_REGION)]


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_evaluators_keep_their_bits(name):
    for cfg, want in _load()[name]:
        assert _outcome(EVALUATORS[name], *_floats(cfg)) == want, f"{name}{tuple(cfg)}"


def test_hot_path_passes_the_frozen_kernel_tuples():
    data = _load()
    recorded = _record_kernel_tuples()
    for name in KERNELS:
        assert len(data[name]) == TUPLES_PER_KERNEL
        want = [_floats(args) for args, _ in data[name]]
        for i, (have, w) in enumerate(zip(recorded[name], want)):
            assert have == w, f"{name} call {i}: {have} != {w}"


@pytest.mark.parametrize("name", KERNELS)
def test_kernels_keep_their_bits_on_hot_path_tuples(name):
    kernel = getattr(elliptic, name)
    for args, want in _load()[name]:
        assert _outcome(kernel, *_floats(args)) == want, f"{name}{tuple(args)}"


if __name__ == "__main__":
    text = "{\n" + ",\n".join(
        f'  "{key}": [\n' + ",\n".join("    " + json.dumps(row) for row in rows) + "\n  ]"
        for key, rows in _generate().items()
    ) + "\n}\n"
    DATA.write_text(text, encoding="utf-8")
    print(f"wrote {DATA}")
