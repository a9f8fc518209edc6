"""In-memory span recorder that swaps wrappers into solidcyl's module dicts.

Every wrapped call records one span: name, start, end, parent span and the
id of the root span it belongs to (one id per top-level call, so the spans
of one evaluation share it). Wrappers are installed into the module dicts
because that is where callers look the names up: inside elliptic and
solid_angle through module globals, from verify through module attributes,
and from cli through the names it bound when it was imported. A function
reachable under several names gets one span name, that of its home module,
so no call is counted twice.
"""

from __future__ import annotations

import csv
import gzip
import time
from array import array
from collections import defaultdict

# (module, attribute, span name). Span names are "<layer>.<function>".
_ELLIPTIC = [
    "carlson_rf", "carlson_rc", "carlson_rd", "carlson_rj",
    "complete_K_from_complement", "complete_E_from_complement",
    "incomplete_F_from_parts", "incomplete_E_from_parts", "incomplete_Pi_from_parts",
    "complete_K", "complete_E", "complete_Pi", "incomplete_F", "incomplete_E", "incomplete_Pi",
]
_SOLID_ANGLE = [
    "params_from_geometry", "omega_cyl0", "omega_cyl0_series", "omega_circ",
    "omega_circ_third_kind", "omega_circ_macklin", "omega_total",
]
_ORACLE = ["quad_cyl0_phi", "quad_cyl0_gamma", "quad_disc", "mc_total", "agm_complete_first_kind"]


def library_targets(mods):
    """All wrap points for a traced run; mods maps short names to modules."""
    el, geo, sa, orc, ver, cli = (mods[k] for k in ("elliptic", "geometry", "solid_angle", "oracle", "verify", "cli"))
    targets = [(el, name, f"elliptic.{name}") for name in _ELLIPTIC]
    targets += [(sa, name, f"solid_angle.{name}") for name in _SOLID_ANGLE]
    targets += [(orc, name, f"oracle.{name}") for name in _ORACLE]
    targets += [(geo, "decompose", "geometry.decompose"), (sa, "decompose", "geometry.decompose")]
    targets += [(cli, name, f"solid_angle.{name}") for name in ("omega_total", "omega_cyl0", "omega_circ")]
    targets += [(cli, "decompose", "geometry.decompose")]
    targets += [(cli, name, f"oracle.{name}") for name in ("mc_total", "quad_cyl0_phi", "quad_disc")]
    targets += [(ver, "run_all", "verify.run_all")]
    targets += [(ver.SUITES, name, f"verify.{name}") for name in list(ver.SUITES)]
    return targets


def cli_targets(mods):
    """Only the names cli calls per table row: a light trace for cli's own share."""
    cli = mods["cli"]
    return [(cli, name, f"solid_angle.{name}") for name in ("omega_total", "omega_cyl0", "omega_circ")]


def _get(holder, name):
    return holder[name] if isinstance(holder, dict) else getattr(holder, name)


def _set(holder, name, value):
    if isinstance(holder, dict):
        holder[name] = value
    else:
        setattr(holder, name, value)


class Tracer:
    """Records spans for the wrapped functions while installed (a context manager).

    observe maps a span name to a callback(args, result) run after each call;
    it is how the benchmark records kernel arguments and decompositions.
    """

    def __init__(self, targets, observe=None):
        self._targets = targets
        self._observe = observe or {}
        self._saved = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.clear()

    def clear(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self._stack = [-1]

    def __len__(self):
        return len(self.name)

    def _name_id(self, span_name):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._name_ids[span_name]

    def _wrap(self, fn, span_name):
        nid = self._name_id(span_name)
        observe = self._observe.get(span_name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            i = len(tracer.name)
            parent = stack[-1]
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.root.append(i if parent < 0 else tracer.root[parent])
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, span_name, fn, *args, **kwargs):
        """Call fn as a span of its own (for entry points the benchmark calls)."""
        return self._wrap(fn, span_name)(*args, **kwargs)

    def __enter__(self):
        for holder, attr, span_name in self._targets:
            original = _get(holder, attr)
            self._saved.append((holder, attr, original))
            _set(holder, attr, self._wrap(original, span_name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            holder, attr, original = self._saved.pop()
            _set(holder, attr, original)
        return False

    # ---------------------------------------------------------------- summaries

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for nid in self.name:
            out[self.names[nid]] += 1
        return out

    def durations(self, span_name) -> list[float]:
        nid = self._name_ids.get(span_name, -1)
        return [self.end[i] - self.start[i] for i, n in enumerate(self.name) if n == nid]

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer (span time minus child span time) and root time."""
        child = [0.0] * len(self.name)
        root_total = 0.0
        for i, parent in enumerate(self.parent):
            dur = self.end[i] - self.start[i]
            if parent < 0:
                root_total += dur
            else:
                child[parent] += dur
        layer: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            layer[self.names[nid].split(".", 1)[0]] += self.end[i] - self.start[i] - child[i]
        return layer, root_total

    def write_spans(self, path):
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="", encoding="utf-8", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start", "end", "parent", "root"])
            for i, nid in enumerate(self.name):
                out.writerow([i, self.names[nid], repr(self.start[i]), repr(self.end[i]), self.parent[i], self.root[i]])
