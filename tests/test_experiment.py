"""Experiment runner: row contents, determinism, ordering, CSV shape."""

import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hellycert
from hellycert.bounds import explicit_bound
from hellycert.experiment import (
    ExperimentRow,
    TrialSpec,
    build_instance,
    grid_specs,
    rows_to_csv,
    run_experiment,
    run_trial,
)
from hellycert.geometry import volume
from hellycert.oracle import oracle_min_subfamily
from hellycert.pipeline import select


def strip_wall(row: ExperimentRow) -> tuple:
    """Comparison key: wall time zeroed, NaN made equal to itself."""
    values = dataclasses.asdict(row) | {"wall_ms": 0.0}
    return tuple(
        None if isinstance(v, float) and math.isnan(v) else v for v in values.values()
    )


class TestSingleTrial:
    def test_ok_row_fields(self):
        row = run_trial(TrialSpec(d=2, m=6, seed=3))
        assert row.status == "ok"
        assert 3 <= row.g_size <= 4
        # the subfamily contains the body, and the certified ratio bounds it
        assert row.vol_f * (1.0 - 1e-9) <= row.vol_g <= row.ratio * row.vol_f
        assert row.ratio <= explicit_bound(2)
        assert row.bound == explicit_bound(2)
        assert row.lam >= 1.0 / 3.0 - 1e-9
        assert row.vol_s1 > 0.0
        assert row.min_window_slack >= -1e-9
        assert row.wall_ms > 0.0

    def test_cube_trial(self):
        row = run_trial(TrialSpec(d=3, m=6, seed=0, generator="cube"))
        assert row.status == "ok"
        assert row.vol_f == pytest.approx(8.0, rel=1e-9)

    def test_warped_trial(self):
        row = run_trial(TrialSpec(d=2, m=7, seed=5, generator="warped"))
        assert row.status == "ok"
        assert row.ratio <= explicit_bound(2)

    def test_oracle_column(self):
        row = run_trial(TrialSpec(d=2, m=8, seed=1, oracle=True))
        assert row.status == "ok"
        assert math.isfinite(row.oracle_ratio)
        assert row.oracle_ratio <= row.ratio * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_ratio_in_input_frame(self, seed):
        spec = TrialSpec(d=2, m=8, seed=seed, generator="warped", oracle=True)
        row = run_trial(spec)
        assert row.status == "ok"
        poly = build_instance(spec)
        _, best_vol = oracle_min_subfamily(poly, k=4)
        cert = select(poly, seed=seed)
        vol_poly = volume(poly)
        assert row.oracle_ratio == pytest.approx(best_vol / vol_poly, rel=1e-9)
        assert row.oracle_ratio <= volume(cert.subfamily()) / vol_poly * (1.0 + 1e-9)

    def test_oracle_skipped_by_default(self):
        row = run_trial(TrialSpec(d=2, m=8, seed=1))
        assert math.isnan(row.oracle_ratio)

    def test_sampled_selector(self):
        row = run_trial(TrialSpec(d=2, m=6, seed=9, selector="pivovarov"))
        assert row.status == "ok"

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            run_trial(TrialSpec(d=2, m=6, seed=0, generator="mystery"))


class TestGrid:
    def test_spec_count_and_order(self):
        specs = grid_specs([2, 3], [6, 8], trials=3, base_seed=10)
        assert len(specs) == 12
        assert specs[0] == TrialSpec(d=2, m=6, seed=10)
        assert specs[-1] == TrialSpec(d=3, m=8, seed=12)

    def test_rows_sorted_by_key(self):
        specs = grid_specs([3, 2], [8, 6], trials=2, base_seed=0)
        rows = run_experiment(specs)
        assert [r.key() for r in rows] == sorted(r.key() for r in rows)

    def test_determinism_modulo_wall_time(self):
        specs = grid_specs([2], [7], trials=4, base_seed=5)
        first = [strip_wall(r) for r in run_experiment(specs)]
        second = [strip_wall(r) for r in run_experiment(specs)]
        assert first == second

    def test_parallel_matches_serial(self):
        specs = grid_specs([2], [6, 9], trials=3, base_seed=2)
        serial = [strip_wall(r) for r in run_experiment(specs, jobs=1)]
        parallel = [strip_wall(r) for r in run_experiment(specs, jobs=4)]
        assert serial == parallel

    @pytest.mark.parametrize("cpus, want", [(64, 3), (2, 2)])
    def test_pool_is_no_wider_than_the_trials_and_cpus(self, monkeypatch, cpus, want):
        # a pool that records its width and maps serially: no process starts
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("hellycert.experiment.ProcessPoolExecutor", SerialPool, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rows = run_experiment(grid_specs([2], [6], trials=3), jobs=16)
        assert widths == [want]
        assert [r.status for r in rows] == ["ok"] * 3

    def test_import_leaves_the_process_pool_unloaded(self):
        # select and check never start a pool, so importing the package
        # does not pay for the pool's module
        code = "import sys, hellycert; print('concurrent.futures.process' in sys.modules)"
        env = os.environ | {"PYTHONPATH": str(Path(hellycert.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "False"

    def test_all_ok_rows_obey_bound(self):
        rows = run_experiment(grid_specs([2, 3], [7], trials=5, base_seed=1))
        assert all(r.status == "ok" for r in rows)
        assert all(r.ratio <= explicit_bound(r.d) * (1.0 + 1e-9) for r in rows)


class TestCsv:
    def test_header_and_rfc4180_lines(self):
        rows = run_experiment(grid_specs([2], [6], trials=2, base_seed=0))
        text = rows_to_csv(rows)
        assert text.count("\r\n") == 3  # header + 2 rows, trailing newline
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0][:5] == ["d", "m", "seed", "generator", "status"]
        assert len(parsed) == 3
        assert all(len(line) == len(parsed[0]) for line in parsed)

    def test_floats_round_trip_through_text(self):
        rows = run_experiment(grid_specs([2], [6], trials=1, base_seed=3))
        parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
        ratio_col = parsed[0].index("ratio")
        assert float(parsed[1][ratio_col]) == rows[0].ratio

    def test_nan_cells_are_empty(self):
        rows = run_experiment(grid_specs([2], [6], trials=1, base_seed=0))
        parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
        oracle_col = parsed[0].index("oracle_ratio")
        assert parsed[1][oracle_col] == ""
