"""Span tracing of hellycert's public functions, installed from outside.

`install` rebinds each traced name, in the module that defines it and in
every loaded `hellycert` module that imported it, to a wrapper that records
one span per call. `uninstall` puts the original functions back. Nothing in
`src/` is edited, and an untraced run installs nothing.

A span is `(name, start_ns, end_ns, parent, op)`: `parent` is the index of
the enclosing span (-1 for a root) and `op` is the index of the root span
that the call belongs to, so every span of one operation shares it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# Public functions timed in a traced run, as "module.function" under
# `hellycert`. Calls into anything else land in the self time of the nearest
# traced caller.
TRACED = (
    "geometry.volume",
    "geometry.facets_from_vertices",
    "geometry.vertex_enumeration",
    "geometry.chebyshev_center",
    "geometry.ensure_bounded",
    "lp.lp_solve",
    "john.normalize_position",
    "john.inscribed_ellipsoid",
    "john.contact_points",
    "john.john_weights",
    "nnls.nnls",
    "dr.dr_select",
    "pipeline.build_S1",
    "pipeline.ray_hit_boundary",
    "pipeline.caratheodory_reduce",
    "pipeline.contract_E1",
    "pipeline.assemble_subfamily",
    "pipeline.select",
    "checker.check_certificate",
    "documents.certificate_to_doc",
    "documents.canonical_dumps",
    "documents.canonical_loads",
    "documents.certificate_from_doc",
    "oracle.oracle_min_subfamily",
    "experiment.run_trial",
)

# Work counters read off a traced call's result: name -> (counter, measure).
COUNTERS = {
    "geometry.vertex_enumeration": ("vertices", lambda result: result.vertices.shape[0]),
}


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)  # work counters, summed over ops
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            op = self._stack[0] if self._stack else idx
            self.spans.append((name, 0, 0, parent, op))  # filled in on return
            self._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, op)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += int(counter[1](result))
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


def _hellycert_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "hellycert" or key.startswith("hellycert."))
    ]


def install(tracer: Tracer, names=TRACED) -> list[tuple[object, str, object]]:
    """Rebind every traced name to a span-recording wrapper.

    Returns the `(module, attribute, original)` triples that `uninstall`
    restores. Every binding of one function shares a single wrapper.
    """
    modules = _hellycert_modules()
    rebound = []
    for qual in names:
        mod_name, fn_name = qual.rsplit(".", 1)
        original = getattr(importlib.import_module(f"hellycert.{mod_name}"), fn_name)
        wrapper = tracer.wrap(qual, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    rebound.append((mod, attr, original))
    return rebound


def uninstall(rebound) -> None:
    for mod, attr, original in reversed(rebound):
        setattr(mod, attr, original)


def self_times(spans) -> list[int]:
    """Per-span self time in ns: its duration minus its direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer):
    """Per-op means of each traced name's self time, calls and counters.

    Returns (ops, per_name) where ops maps each root span index to its wall
    time in ns and per_name maps "name.self_ms" / "name.calls" / counter
    names to their totals divided by the number of ops.
    """
    spans = tracer.spans
    own = self_times(spans)
    ops = {i: s[2] - s[1] for i, s in enumerate(spans) if s[3] < 0}
    n = max(len(ops), 1)
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), self_ns in zip(spans, own):
        totals[f"{name}.self_ms"] += self_ns / 1e6
        totals[f"{name}.calls"] += 1
        totals[f"{name}.incl_ms"] += (end - start) / 1e6
    for counter, value in tracer.counts.items():
        totals[counter] += value
    return ops, {key: value / n for key, value in totals.items()}
