"""Workloads, the timed closed loop and the output correctness gate.

Every workload runs in one process as a closed loop with one client: the
next operation starts only when the previous one has finished. The program
only ever receives the `HPolytope`s (or, for `batch-oracle`, the trial
specs) generated here from the benchmark seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing
import os
import resource
import signal
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hellycert as hc
import tracing
from hellycert import documents, experiment

OP_BUDGET_S = 20.0  # wall budget of one op (one trial per worker for batches)
SETUP_REPEATS = 3   # setup_s is the median of this many set-ups
DIGEST_OPS = 6      # certificate documents covered by the digest


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    d: int
    ms: tuple[int, ...]
    generators: tuple[str, ...]
    per_m: int  # certify: instances per entry of ms; batch: trials per m per call
    batch: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-d4",
            "d=4, m=16 select and check, where polytope volume and facet recovery "
            "do about 86% of the work; the workload for geometry-kernel changes",
            d=4,
            # One facet count keeps op cost unimodal. Mixing m = 10, 16 and 32
            # put p50 between cost groups and spread it 20-25% across seeds.
            ms=(16,),
            generators=("tangent", "warped"),
            # Check cost swings 4x between instances of one size, so each
            # run gets fresh inputs (about 90 ops fit in 50 s).
            per_m=100,
        ),
        Workload(
            "certify-d2-wide",
            "d=2 with 32 and 64 half-spaces, where the LP and the John solver "
            "dominate; a geometry-only change should leave it flat",
            d=2,
            ms=(32, 64),
            generators=("warped",),
            per_m=40,
        ),
        Workload(
            "batch-oracle",
            "hellycert experiment --oracle over a process pool: thousands of "
            "tiny LP and volume calls per trial instead of a few large ones",
            d=2,
            ms=(8, 12),
            generators=("warped",),
            per_m=4,
            batch=True,
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("select_ms_p50", "ms"),
    ("select_ms_p90", "ms"),
    ("check_ms_p50", "ms"),
    ("check_ms_p90", "ms"),
    ("certs_per_s", "1/s"),
)
# batch-oracle runs select and check inside the pool workers, so it has no
# per-phase latency of its own.
BATCH_END_TO_END = tuple(m for m in END_TO_END if not m[0].endswith(("_p50", "_p90")))

SELF_MS = (
    "geometry.volume",
    "geometry.facets_from_vertices",
    "geometry.vertex_enumeration",
    "lp.lp_solve",
    "john.normalize_position",
    "john.inscribed_ellipsoid",
    "nnls.nnls",
    "dr.dr_select",
    "pipeline.build_S1",
    "pipeline.ray_hit_boundary",
    "pipeline.caratheodory_reduce",
    "pipeline.contract_E1",
    "pipeline.assemble_subfamily",
    "pipeline.select",
    "checker.check_certificate",
)
CALLS = (
    "geometry.volume",
    "geometry.facets_from_vertices",
    "geometry.vertex_enumeration",
    "geometry.chebyshev_center",
    "geometry.ensure_bounded",
    "lp.lp_solve",
    "john.inscribed_ellipsoid",
    "john.contact_points",
    "john.john_weights",
)
PER_LAYER = (
    tuple((f"{name}.self_ms", "ms") for name in SELF_MS)
    + tuple((f"{name}.calls", "count") for name in CALLS)
    + (
        ("geometry.vertex_enumeration.vertices", "count"),
        ("documents.encode_ms", "ms"),
        ("documents.decode_ms", "ms"),
        ("documents.cert_bytes", "bytes"),
        ("experiment.pool_efficiency", "ratio"),
        ("trace.op_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("process.peak_rss_mb", "MB"),
    )
)
# Layers only batch-oracle calls; zero on every certify workload.
BATCH_PER_LAYER = PER_LAYER + (
    ("oracle.oracle_min_subfamily.self_ms", "ms"),
    ("experiment.run_trial.self_ms", "ms"),
)


# ------------------------------------------------------------------ budget


class OpTimeout(Exception):
    """An op ran past its wall budget."""


def _on_alarm(signum, frame):
    # A pool op's workers keep the pool's shutdown waiting; end them first.
    for child in multiprocessing.active_children():
        child.kill()
    raise OpTimeout


def guarded(budget_s: float, fn, *args):
    """Run one op under a wall budget; return (value, None) or (None, reason).

    The op boundary: a blow-up becomes a failed op named `oom` or `timeout`
    instead of taking the process down.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        return fn(*args), None
    except OpTimeout:
        return None, "timeout"
    except MemoryError:
        return None, "oom"
    except Exception as exc:  # the op boundary records every other failure
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return None, f"error:{type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------------ inputs


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def build_pool(wl: Workload, seed: int):
    """Seeded inputs in loop order.

    certify: (label, HPolytope) with m cycling through wl.ms and the
    generator switching every round. batch: one spec list per pool call.
    """
    if wl.batch:
        return [
            (
                f"chunk{c}",
                hc.grid_specs(
                    [wl.d], wl.ms, trials=wl.per_m, base_seed=s,
                    generator=wl.generators[0], oracle=True,
                ),
            )
            for c, s in enumerate(_seeds(seed, 8))
        ]
    pool = []
    for k, s in enumerate(_seeds(seed, wl.per_m * len(wl.ms))):
        m = wl.ms[k % len(wl.ms)]
        gen = wl.generators[(k // len(wl.ms)) % len(wl.generators)]
        poly = hc.gen_tangent_random(wl.d, m, seed=s)
        if gen == "warped":
            poly, _, _ = hc.gen_affine_warp(poly, seed=s + 1)
        pool.append((f"m={m} {gen} seed={s}", poly))
    return pool


# -------------------------------------------------------------------- gates


def certificate_gate(cert, report) -> str | None:
    """Why a re-read certificate fails the gate, or None when it passes."""
    d = cert.dim
    if not report.passed:
        return "gate:check-failed:" + ",".join(report.failures())
    skipped = [item.name for item in report.items if not item.applicable]
    if skipped:
        return "gate:not-applicable:" + ",".join(skipped)
    if cert.subfamily_size > 2 * d:
        return f"gate:subfamily_size {cert.subfamily_size} > 2d = {2 * d}"
    if not cert.ratio <= hc.explicit_bound(d):
        return f"gate:ratio {cert.ratio:.6g} > explicit_bound {hc.explicit_bound(d):.6g}"
    return None


def row_gate(row) -> str | None:
    """Why an experiment row fails the gate, or None when it passes."""
    if row.status != "ok":
        return f"gate:status {row.status}"
    if row.g_size > 2 * row.d:
        return f"gate:g_size {row.g_size} > 2d = {2 * row.d}"
    if not row.ratio <= hc.explicit_bound(row.d):
        return f"gate:ratio {row.ratio:.6g} > explicit_bound"
    if not row.oracle_ratio <= row.ratio * (1.0 + 1e-9):
        return f"gate:oracle_ratio {row.oracle_ratio:.6g} > ratio {row.ratio:.6g}"
    return None


# ---------------------------------------------------------------------- ops


def certify_op(poly):
    """Instance -> certificate document text -> verdict, timed per phase."""
    t0 = perf_counter()
    cert = hc.select(poly)
    text = documents.canonical_dumps(hc.certificate_to_doc(cert))
    t1 = perf_counter()
    back = hc.certificate_from_doc(documents.canonical_loads(text))
    report = hc.check_certificate(back)
    t2 = perf_counter()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3, text, certificate_gate(back, report)


def jobs_for(wl: Workload) -> int:
    if not wl.batch:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


@dataclass
class Tally:
    """What one pass of the loop saw."""

    steps: int = 0  # pool entries run
    attempted: int = 0
    passed: int = 0
    ok_trials: int = 0
    wall_s: float = 0.0
    select_ms: list = field(default_factory=list)
    check_ms: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    cert_bytes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    digest_items: int = 0

    @property
    def busy_ms(self) -> float:
        return sum(self.op_ms)

    def fail(self, op: int, label: str, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failures.extend([(op, label, reason)] * count)


def _step(wl: Workload, tally: Tally, i: int, pool, jobs: int, op_fn=None) -> None:
    label, item = pool[i % len(pool)]
    if wl.batch:
        _batch_step(tally, i, label, item, jobs, op_fn or hc.run_experiment)
    else:
        _certify_step(tally, i, label, item, len(pool), op_fn or certify_op)


def _certify_step(tally: Tally, i, label, poly, pool_size, op_fn) -> None:
    t0 = perf_counter()
    value, reason = guarded(OP_BUDGET_S, op_fn, poly)
    op_ms = (perf_counter() - t0) * 1e3
    if value is None:
        tally.fail(i, label, reason)
        return
    select_ms, check_ms, text, reason = value
    tally.attempted += 1
    if reason is not None:
        tally.failures.append((i, label, reason))
        return
    tally.passed += 1
    tally.select_ms.append(select_ms)
    tally.check_ms.append(check_ms)
    tally.op_ms.append(op_ms)
    tally.cert_bytes.append(len(text.encode()))
    if i < min(DIGEST_OPS, pool_size):
        tally.digest.update(text.encode())
        tally.digest_items += 1


def _batch_step(tally: Tally, i, label, specs, jobs, op_fn) -> None:
    budget = OP_BUDGET_S * math.ceil(len(specs) / jobs)
    rows, reason = guarded(budget, op_fn, specs, jobs)
    if rows is None:
        tally.fail(i, label, reason, count=len(specs))
        return
    for row in rows:
        tally.attempted += 1
        tally.ok_trials += row.status == "ok"
        tally.op_ms.append(row.wall_ms)
        bad = row_gate(row)
        if bad is None:
            tally.passed += 1
        else:
            tally.failures.append((i, f"{label} d={row.d} m={row.m} seed={row.seed}", bad))
    if i == 0:
        frozen = [dataclasses.replace(row, wall_ms=0.0) for row in rows]
        tally.digest.update(hc.rows_to_csv(frozen).encode())
        tally.digest_items += len(rows)


def run_pass(wl: Workload, pool, seconds: float, jobs: int) -> Tally:
    """Closed loop over the pool until `seconds` have passed (at least one op)."""
    tally = Tally()
    start = perf_counter()
    while tally.steps == 0 or perf_counter() - start < seconds:
        _step(wl, tally, tally.steps, pool, jobs)
        tally.steps += 1
    tally.wall_s = perf_counter() - start
    return tally


def paired_pass(wl: Workload, pool, seconds: float, tracer: tracing.Tracer) -> tuple[Tally, Tally]:
    """Run each pool entry serially, untraced and then traced, back to back.

    Pairing each traced op with an untraced run of the same input makes the
    difference of the two passes the tracing overhead, not drift between
    two stretches of the run. Batch entries run in-process, where each
    `experiment.run_trial` call is one traced op.
    """
    untraced, traced = Tally(), Tally()
    traced_op = None if wl.batch else tracer.wrap("bench.op", certify_op)
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        t0 = perf_counter()
        _step(wl, untraced, i, pool, 1)
        untraced.wall_s += perf_counter() - t0
        rebound = tracing.install(tracer)
        try:
            _step(wl, traced, i, pool, 1, traced_op)
        finally:
            tracing.uninstall(rebound)
        i += 1
    untraced.steps = traced.steps = i
    return untraced, traced


# ------------------------------------------------------------------- set-up


def warm_up(wl: Workload) -> None:
    if wl.batch:
        experiment.run_trial(hc.TrialSpec(d=wl.d, m=2 * wl.d, seed=0, generator="cube", oracle=True))
    else:
        certify_op(hc.gen_cube(wl.d))


def set_up(wl: Workload, seed: int):
    """Build the inputs and warm up SETUP_REPEATS times; return the last
    pool and the median set-up time in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pool = build_pool(wl, seed)
        warm_up(wl)
        times.append(perf_counter() - t0)
    return pool, statistics.median(times)


# ------------------------------------------------------------------ metrics


def _peak_rss_mb(workers: int) -> float:
    """Own peak plus `workers` times the largest finished worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(wl: Workload, tally: Tally, setup_s: float) -> dict:
    values = {
        "setup_s": setup_s,
        "certs_per_s": (tally.ok_trials if wl.batch else tally.passed) / tally.wall_s,
    }
    if not wl.batch:
        for name, samples in (("select_ms", tally.select_ms), ("check_ms", tally.check_ms)):
            values[f"{name}_p50"] = float(np.percentile(samples, 50)) if samples else math.nan
            values[f"{name}_p90"] = float(np.percentile(samples, 90)) if samples else math.nan
    units = dict(BATCH_END_TO_END if wl.batch else END_TO_END)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def per_layer(wl: Workload, untraced: Tally, traced: Tally, tracer: tracing.Tracer,
              pool_efficiency: float) -> dict:
    ops, per = tracing.summarize(tracer)
    values = {name: per.get(name, 0.0) for name, _ in BATCH_PER_LAYER}
    values["documents.encode_ms"] = per.get("documents.certificate_to_doc.incl_ms", 0.0) + per.get(
        "documents.canonical_dumps.incl_ms", 0.0
    )
    values["documents.decode_ms"] = per.get("documents.canonical_loads.incl_ms", 0.0) + per.get(
        "documents.certificate_from_doc.incl_ms", 0.0
    )
    values["documents.cert_bytes"] = float(np.mean(traced.cert_bytes)) if traced.cert_bytes else 0.0
    values["experiment.pool_efficiency"] = pool_efficiency
    values["trace.op_ms"] = sum(ops.values()) / 1e6 / max(len(ops), 1)
    values["trace.overhead_ms"] = values["trace.op_ms"] - untraced.busy_ms / max(len(untraced.op_ms), 1)
    values["process.peak_rss_mb"] = _peak_rss_mb(jobs_for(wl) if wl.batch else 0)
    units = BATCH_PER_LAYER if wl.batch else PER_LAYER
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def self_time_shares(tracer: tracing.Tracer) -> list[tuple[str, float]]:
    """Share of traced op wall time spent in each name's own code."""
    ops, per = tracing.summarize(tracer)
    op_ms = sum(ops.values()) / 1e6 / max(len(ops), 1)
    names = {key[: -len(".self_ms")] for key in per if key.endswith(".self_ms")}
    shares = [(name, per[f"{name}.self_ms"] / op_ms) for name in names]
    return sorted(shares, key=lambda item: -item[1])


# --------------------------------------------------------------------- runs


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        spans_path: Path | None = None, import_s: float = 0.0):
    """One benchmark run; returns (result, report) where result holds the
    contract keys and report the human-readable extras. `import_s` is the
    caller's import time, which counts toward setup_s."""
    pool, setup_s = set_up(wl, seed)
    jobs = jobs_for(wl)
    report: dict = {"jobs": jobs}
    if not trace:
        first = run_pass(wl, pool, seconds, jobs)
        metrics = end_to_end(wl, first, import_s + setup_s)
        passes = [first]
    else:
        tracer = tracing.Tracer()
        passes = []
        if wl.batch:
            # Pool efficiency comes from an untraced pass over the pool;
            # the traced ops then run serially, in-process.
            first = run_pass(wl, pool, seconds / 3.0, jobs)
            efficiency = first.busy_ms / (jobs * first.wall_s * 1e3)
            passes.append(first)
            untraced, traced = paired_pass(wl, pool, seconds * 2.0 / 3.0, tracer)
        else:
            untraced, traced = paired_pass(wl, pool, seconds, tracer)
            first = untraced
            efficiency = untraced.busy_ms / (untraced.wall_s * 1e3)
        passes += [untraced, traced]
        metrics = per_layer(wl, untraced, traced, tracer, efficiency)
        report["shares"] = self_time_shares(tracer)
        report["spans"] = len(tracer.spans)
        if spans_path is not None:
            tracer.write(spans_path)
            report["spans_file"] = str(spans_path)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    report.update(
        samples=len(first.select_ms) or len(first.op_ms),
        fail_ratio=len(failures) / max(attempted, 1),
        failures=failures,
        digest=first.digest.hexdigest(),
        digest_items=first.digest_items,
    )
    result = {
        "correct": attempted >= 1 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, report
