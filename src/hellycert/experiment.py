"""Batch experiment runner producing desk-scale evidence tables.

Each trial is pure given (d, m, seed, generator): it builds an instance,
runs the selection pipeline, re-verifies the certificate, and condenses the
outcome into one row. Trials fan out over a process pool when asked, but
rows always come back sorted by (d, m, seed) so the same grid yields the
same table regardless of scheduling, wall-clock column aside.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass, fields

from .bodies import simplex_volume
from .checker import check_certificate
from .errors import HellyError
from .generators import gen_affine_warp, gen_cube, gen_tangent_random
from .geometry import volume
from .oracle import oracle_min_subfamily
from .pipeline import select

__all__ = ["ExperimentRow", "TrialSpec", "grid_specs", "rows_to_csv", "run_experiment", "run_trial"]

GENERATORS = ("tangent", "warped", "cube")


@dataclass(frozen=True)
class TrialSpec:
    d: int
    m: int
    seed: int
    generator: str = "tangent"
    selector: str = "dr"
    oracle: bool = False


@dataclass(frozen=True)
class ExperimentRow:
    """One trial outcome; numeric fields are NaN when the trial failed."""

    d: int
    m: int
    seed: int
    generator: str
    status: str
    g_size: int
    vol_f: float
    vol_g: float
    ratio: float
    bound: float
    lam: float
    vol_s1: float
    min_window_slack: float
    wall_ms: float
    oracle_ratio: float = math.nan

    def key(self):
        return (self.d, self.m, self.seed)


def build_instance(spec: TrialSpec):
    """The instance a trial of this spec runs on."""
    if spec.generator == "cube":
        return gen_cube(spec.d)
    base = gen_tangent_random(spec.d, spec.m, seed=spec.seed)
    if spec.generator == "tangent":
        return base
    if spec.generator == "warped":
        warped, _, _ = gen_affine_warp(base, seed=spec.seed + 10_007)
        return warped
    raise ValueError(f"unknown generator {spec.generator!r}")


def run_trial(spec: TrialSpec) -> ExperimentRow:
    """Generate, select, verify, and condense one instance."""
    start = time.perf_counter()
    nan = math.nan
    try:
        poly = build_instance(spec)
        cert = select(poly, selector=spec.selector, seed=spec.seed)
        report = check_certificate(cert)
        status = "ok" if report.passed else "check-failed"
        # measured volumes, both in the input frame; cert.ratio bounds their ratio
        vol_f = volume(poly)
        vol_g = volume(cert.subfamily())
    except HellyError as exc:
        wall = (time.perf_counter() - start) * 1e3
        return ExperimentRow(
            d=spec.d,
            m=spec.m,
            seed=spec.seed,
            generator=spec.generator,
            status=f"error:{exc.__class__.__name__}",
            g_size=0,
            vol_f=nan,
            vol_g=nan,
            ratio=nan,
            bound=nan,
            lam=nan,
            vol_s1=nan,
            min_window_slack=nan,
            wall_ms=wall,
        )
    oracle_ratio = nan
    if spec.oracle:
        _, best_vol = oracle_min_subfamily(poly, k=2 * spec.d)
        if math.isfinite(best_vol):
            oracle_ratio = best_vol / vol_f
    wall = (time.perf_counter() - start) * 1e3
    return ExperimentRow(
        d=spec.d,
        m=spec.m,
        seed=spec.seed,
        generator=spec.generator,
        status=status,
        g_size=cert.subfamily_size,
        vol_f=vol_f,
        vol_g=vol_g,
        ratio=cert.ratio,
        bound=cert.bound,
        lam=cert.lam,
        vol_s1=float(simplex_volume(cert.selected_points)),
        min_window_slack=report["selection_window"].slack,
        wall_ms=wall,
        oracle_ratio=oracle_ratio,
    )


def grid_specs(
    dims,
    facet_counts,
    trials: int,
    base_seed: int = 0,
    generator: str = "tangent",
    selector: str = "dr",
    oracle: bool = False,
) -> list[TrialSpec]:
    """Cartesian (d, m) grid with `trials` consecutive seeds per cell.

    The cube has 2d rows whatever m is asked for, so it gets one cell per d
    with m = 2d.
    """
    specs = []
    for d in dims:
        for m in [2 * d] if generator == "cube" else facet_counts:
            for t in range(trials):
                specs.append(
                    TrialSpec(
                        d=d,
                        m=m,
                        seed=base_seed + t,
                        generator=generator,
                        selector=selector,
                        oracle=oracle,
                    )
                )
    return specs


def run_experiment(specs, jobs: int = 1) -> list[ExperimentRow]:
    """Run every trial and return rows sorted by (d, m, seed), over at most
    `jobs` worker processes, and never more than one per trial or per CPU
    (the pool starts all its workers at once)."""
    specs = list(specs)
    workers = min(jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # select and check never need it

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(run_trial, specs, chunksize=1))
        except OSError:
            rows = [run_trial(s) for s in specs]  # no subprocesses here
    else:
        rows = [run_trial(s) for s in specs]
    return sorted(rows, key=ExperimentRow.key)


def rows_to_csv(rows) -> str:
    """RFC-4180 text table, header first, NaN cells left empty."""
    buf = io.StringIO()
    names = [f.name for f in fields(ExperimentRow)]
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(names)
    for row in rows:
        record = []
        for name in names:
            value = getattr(row, name)
            if isinstance(value, float) and math.isnan(value):
                record.append("")
            elif isinstance(value, float):
                record.append(repr(value))
            else:
                record.append(value)
        writer.writerow(record)
    return buf.getvalue()
