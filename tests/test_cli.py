"""CLI surface: round trips, exit codes, caps, and output formats."""

import csv
import io
import json

import numpy as np
import pytest

from hellycert.cli import main
from hellycert.documents import (
    SCHEMA_VERSION,
    certificate_to_doc,
    instance_to_doc,
    load_document,
    save_document,
)
from hellycert.generators import gen_cube, gen_tangent_random
from hellycert.pipeline import select


@pytest.fixture()
def cube3(tmp_path):
    path = tmp_path / "cube3.json"
    save_document(instance_to_doc(gen_cube(3)), path)
    return path


class TestSelectVerify:
    def test_round_trip_exits_zero(self, cube3, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["select", "--in", str(cube3), "--out", str(cert_path)]) == 0
        assert main(["verify", "--in", str(cert_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert out.count("pass") >= 12

    def test_select_writes_certificate_document(self, cube3, tmp_path):
        cert_path = tmp_path / "cert.json"
        main(["select", "--in", str(cube3), "--out", str(cert_path)])
        doc = load_document(cert_path)
        assert doc["kind"] == "helly-certificate"
        assert doc["dim"] == 3

    def test_select_stdout_when_no_out(self, cube3, capsys):
        assert main(["select", "--in", str(cube3)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "helly-certificate"

    def test_verify_report_document(self, cube3, tmp_path):
        cert_path = tmp_path / "cert.json"
        report_path = tmp_path / "report.json"
        main(["select", "--in", str(cube3), "--out", str(cert_path)])
        assert main(["verify", "--in", str(cert_path), "--out", str(report_path)]) == 0
        doc = load_document(report_path)
        assert doc["kind"] == "helly-check-report"
        assert doc["passed"] is True

    def test_corrupted_certificate_exits_one_and_names_check(self, tmp_path, capsys):
        cert = select(gen_tangent_random(2, 6, seed=1))
        doc = certificate_to_doc(cert)
        # shorten w until the derived contraction ratio is 1/(d+2)
        nu, nw = np.linalg.norm(cert.u), np.linalg.norm(cert.w)
        doc["w"] = (cert.w * (nu / (cert.dim + 1) / nw)).tolist()
        path = tmp_path / "bad.json"
        save_document(doc, path)
        assert main(["verify", "--in", str(path)]) == 1
        out = capsys.readouterr().out
        assert "contraction" in out and "FAIL" in out

    def test_sampled_selector_flag(self, cube3, tmp_path):
        cert_path = tmp_path / "cert.json"
        code = main(
            ["select", "--in", str(cube3), "--out", str(cert_path), "--selector", "pivovarov", "--seed", "5"]
        )
        assert code == 0
        assert load_document(cert_path)["selector"] == "pivovarov"

    def test_verify_tol_scale(self, cube3, tmp_path):
        cert_path = tmp_path / "cert.json"
        main(["select", "--in", str(cube3), "--out", str(cert_path)])
        assert main(["verify", "--in", str(cert_path), "--tol-scale", "100"]) == 0


class TestExitCodes:
    def test_missing_file_is_malformed_input(self, tmp_path):
        assert main(["select", "--in", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_is_malformed_input(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["select", "--in", str(path)]) == 2

    def test_wrong_kind_is_malformed_input(self, cube3, tmp_path):
        assert main(["verify", "--in", str(cube3)]) == 2

    def test_unbounded_instance_is_numeric_failure(self, tmp_path):
        doc = {
            "kind": "helly-instance",
            "version": SCHEMA_VERSION,
            "dim": 2,
            "halfspaces": [
                {"a": [1.0, 0.0], "b": 1.0},
                {"a": [0.0, 1.0], "b": 1.0},
                {"a": [-1.0, 0.0], "b": 1.0},
            ],
        }
        path = tmp_path / "open.json"
        save_document(doc, path)
        assert main(["select", "--in", str(path)]) == 3

    def test_out_of_memory_is_numeric_failure(self, cube3, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("hellycert.cli.select", exhausted)
        assert main(["select", "--in", str(cube3)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_select_at_the_caps(self, tmp_path, capsys):
        # no vertex walk over the input's rows: d=8, m=64 is certified
        inst, cert = tmp_path / "d8m64.json", tmp_path / "cert.json"
        save_document(instance_to_doc(gen_tangent_random(8, 64, seed=0)), inst)
        assert main(["select", "--in", str(inst), "--out", str(cert)]) == 0
        assert "certified ratio" in capsys.readouterr().err
        assert main(["verify", "--in", str(cert)]) == 0

    def test_version_one_certificate_is_malformed_input(self, tmp_path, capsys):
        # and version 2, which also stored the derived values
        cert = select(gen_cube(3))
        for old in ({"version": "1", "vol_f": 8.0, "vol_g": 8.0}, {"version": "2", "lambda": cert.lam}):
            path = tmp_path / "old.json"
            save_document(certificate_to_doc(cert) | old, path)
            assert main(["verify", "--in", str(path)]) == 2
            assert "schema version" in capsys.readouterr().err

    def test_version_one_instance_still_selects(self, tmp_path):
        # and version 2: versions 2 and 3 changed the certificate, not the
        # instance format
        for version in ("1", "2"):
            inst, cert = tmp_path / "old.json", tmp_path / "cert.json"
            poly = gen_tangent_random(2, 6, seed=1)
            save_document(instance_to_doc(poly) | {"version": version}, inst)
            assert main(["select", "--in", str(inst), "--out", str(cert)]) == 0
            assert load_document(cert)["version"] == SCHEMA_VERSION
            assert main(["verify", "--in", str(cert)]) == 0

    def test_cap_exceeded_is_malformed_input(self, tmp_path):
        assert main(["gen", "--generator", "cube", "--d", "9", "--out", str(tmp_path / "x.json")]) == 2


class TestGen:
    def test_cube(self, tmp_path):
        path = tmp_path / "cube.json"
        assert main(["gen", "--generator", "cube", "--d", "2", "--out", str(path)]) == 0
        doc = load_document(path)
        assert doc["dim"] == 2
        assert len(doc["halfspaces"]) == 4
        assert doc["meta"]["generator"] == "cube"

    def test_tangent_requires_m(self, tmp_path):
        assert main(["gen", "--d", "2", "--out", str(tmp_path / "x.json")]) == 2

    def test_tangent_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--d", "3", "--m", "8", "--seed", "4", "--out", str(a)]) == 0
        assert main(["gen", "--d", "3", "--m", "8", "--seed", "4", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_warped(self, tmp_path):
        path = tmp_path / "warp.json"
        assert main(["gen", "--generator", "warped", "--d", "2", "--m", "6", "--out", str(path)]) == 0
        assert load_document(path)["meta"]["generator"] == "warped"

    def test_gen_feeds_select(self, tmp_path):
        inst, cert = tmp_path / "i.json", tmp_path / "c.json"
        main(["gen", "--d", "2", "--m", "7", "--seed", "3", "--out", str(inst)])
        assert main(["select", "--in", str(inst), "--out", str(cert)]) == 0
        assert main(["verify", "--in", str(cert)]) == 0


class TestExperiment:
    def test_csv_grid(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            ["experiment", "--d", "2", "--m", "6", "--trials", "3", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        parsed = list(csv.reader(io.StringIO(out.read_text())))
        assert len(parsed) == 4
        assert parsed[0][0] == "d"
        assert all(row[4] == "ok" for row in parsed[1:])

    def test_multi_dim_grid_to_stdout(self, capsys):
        assert main(["experiment", "--d", "2", "3", "--m", "7", "--trials", "2"]) == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(parsed) == 5

    def test_oracle_column(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            ["experiment", "--d", "2", "--m", "8", "--trials", "2", "--oracle", "--out", str(out)]
        )
        assert code == 0
        parsed = list(csv.reader(io.StringIO(out.read_text())))
        col = parsed[0].index("oracle_ratio")
        assert all(float(row[col]) > 0 for row in parsed[1:])

    def test_oracle_caps_checked_upfront(self):
        assert main(["experiment", "--d", "2", "--m", "20", "--trials", "1", "--oracle"]) == 2
        assert main(["experiment", "--d", "4", "--m", "8", "--trials", "1", "--oracle"]) == 2

    def test_dimension_cap(self):
        assert main(["experiment", "--d", "9", "--m", "6", "--trials", "1"]) == 2

    def test_vertex_walk_budget_checked_upfront(self, monkeypatch, capsys):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial started")

        monkeypatch.setattr("hellycert.cli.run_experiment", no_trials)
        assert main(["experiment", "--d", "8", "--m", "64", "--trials", "2"]) == 2
        assert "C(64, 8)" in capsys.readouterr().err

    def test_cube_rows_report_the_real_row_count(self, capsys):
        # one cell per d with m = 2d, however many --m values are given
        code = main(["experiment", "--generator", "cube", "--d", "2", "3", "--m", "64", "6", "--trials", "1"])
        assert code == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [(row[0], row[1]) for row in parsed[1:]] == [("2", "4"), ("3", "6")]

    def test_cube_budget_counts_its_own_rows(self, capsys):
        # the cube ignores --m: its 2d = 16 rows meet the budget at d=8
        assert main(["experiment", "--generator", "cube", "--d", "8", "--m", "64", "--trials", "1"]) == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[4] for row in parsed[1:]] == ["ok"]

    def test_caps_apply_to_the_cells_that_run(self, capsys):
        # the cube ignores --m, so an --m above the facet cap runs its 4 rows
        assert main(["experiment", "--generator", "cube", "--d", "2", "--m", "100", "--trials", "1"]) == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [(row[1], row[4]) for row in parsed[1:]] == [("4", "ok")]
        assert main(["experiment", "--generator", "tangent", "--d", "2", "--m", "100", "--trials", "1"]) == 2
        assert "facet count 100" in capsys.readouterr().err
        # a grid with no trials has no cells, and is refused rather than let
        # an --m above the cap through unchecked
        assert main(["experiment", "--d", "2", "--m", "100", "--trials", "0"]) == 2


class TestPivovarov:
    def test_moment_report(self, cube3, capsys):
        assert main(["pivovarov", "--in", str(cube3), "--trials", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "mean_vol" in out and "rms" in out and "floor" in out

    def test_report_to_file(self, cube3, tmp_path):
        out = tmp_path / "moments.txt"
        assert main(["pivovarov", "--in", str(cube3), "--trials", "500", "--out", str(out)]) == 0
        assert "floor" in out.read_text()
