"""Document round trips, schema validation, and malformed-input rejection."""

import dataclasses
import json
import math

import numpy as np
import pytest

from hellycert.checker import check_certificate
from hellycert.documents import (
    KIND_CERTIFICATE,
    KIND_INSTANCE,
    KIND_REPORT,
    SCHEMA_VERSION,
    canonical_dumps,
    canonical_loads,
    certificate_from_doc,
    certificate_to_doc,
    document_kind,
    instance_from_doc,
    instance_to_doc,
    load_document,
    report_from_doc,
    report_to_doc,
    save_document,
)
from hellycert.errors import MalformedCertificate, MalformedDocument
from hellycert.generators import gen_cube, gen_tangent_random
from hellycert.pipeline import select


@pytest.fixture(scope="module")
def cert():
    return select(gen_tangent_random(3, 8, seed=2))


class TestInstanceDocuments:
    def test_round_trip_is_bit_identical(self):
        poly = gen_tangent_random(3, 10, seed=4)
        doc = instance_to_doc(poly, meta={"generator": "tangent", "seed": 4})
        back, meta = instance_from_doc(canonical_loads(canonical_dumps(doc)))
        assert np.array_equal(back.normals, poly.normals)
        assert np.array_equal(back.offsets, poly.offsets)
        assert meta == {"generator": "tangent", "seed": 4}

    def test_doc_shape(self):
        doc = instance_to_doc(gen_cube(2))
        assert doc["kind"] == KIND_INSTANCE
        assert doc["version"] == SCHEMA_VERSION == "2"
        assert doc["dim"] == 2
        assert len(doc["halfspaces"]) == 4
        assert set(doc["halfspaces"][0]) == {"a", "b"}

    def test_unnormalized_input_is_accepted(self):
        doc = {
            "kind": KIND_INSTANCE,
            "version": SCHEMA_VERSION,
            "dim": 2,
            "halfspaces": [
                {"a": [2.0, 0.0], "b": 2.0},
                {"a": [-3.0, 0.0], "b": 3.0},
                {"a": [0.0, 5.0], "b": 5.0},
                {"a": [0.0, -1.0], "b": 1.0},
            ],
        }
        poly, meta = instance_from_doc(doc)
        assert meta == {}
        assert np.allclose(np.linalg.norm(poly.normals, axis=1), 1.0)
        assert np.allclose(poly.offsets, 1.0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("dim"),
            lambda d: d.pop("halfspaces"),
            lambda d: d.update(halfspaces=[]),
            lambda d: d.update(dim=2.5),
            lambda d: d["halfspaces"].append({"a": [1.0], "b": 0.0}),
            lambda d: d["halfspaces"][0].pop("b"),
            lambda d: d.update(meta="not an object"),
            lambda d: d.update(kind="helly-certificate"),
        ],
    )
    def test_rejects_malformed(self, mutate):
        doc = instance_to_doc(gen_cube(2))
        mutate(doc)
        with pytest.raises(MalformedDocument):
            instance_from_doc(doc)

    def test_rejects_non_finite_entries(self):
        doc = instance_to_doc(gen_cube(2))
        doc["halfspaces"][0]["b"] = float("inf")
        with pytest.raises(MalformedDocument):
            instance_from_doc(doc)


class TestCertificateDocuments:
    def test_round_trip_preserves_every_field(self, cert):
        back = certificate_from_doc(canonical_loads(canonical_dumps(certificate_to_doc(cert))))
        for field in dataclasses.fields(type(cert)):
            a, b = getattr(cert, field.name), getattr(back, field.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name

    def test_round_tripped_certificate_still_checks(self, cert):
        back = certificate_from_doc(canonical_loads(canonical_dumps(certificate_to_doc(cert))))
        assert check_certificate(back).passed

    def test_doc_spells_lambda(self, cert):
        doc = certificate_to_doc(cert)
        assert doc["kind"] == KIND_CERTIFICATE
        assert doc["lambda"] == cert.lam
        assert "lam" not in doc
        assert doc["library"].split()[0] == "hellycert"
        assert {"u", "w", "basis", "tolerances"} <= set(doc)

    def test_version_one_certificate_is_rejected(self, cert):
        # version 1 stored two measured volumes in place of the certified ratio
        doc = certificate_to_doc(cert) | {"version": "1", "vol_f": 1.0, "vol_g": 2.0}
        with pytest.raises(MalformedDocument, match="schema version"):
            certificate_from_doc(doc)

    def test_extra_keys_are_ignored(self, cert):
        doc = certificate_to_doc(cert)
        doc["annotation"] = "made by hand"
        assert certificate_from_doc(doc).dim == cert.dim

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("lambda"),
            lambda d: d.pop("basis"),
            lambda d: d.update(u="not an array"),
            lambda d: d.update(g_indices=[0.5, 1.5]),
            lambda d: d.update(selector="unknown"),
            lambda d: d.update(ratio=float("nan")),
            lambda d: d.update(tolerances=[1, 2, 3]),
        ],
    )
    def test_rejects_malformed(self, cert, mutate):
        doc = certificate_to_doc(cert)
        mutate(doc)
        with pytest.raises(MalformedCertificate):
            certificate_from_doc(doc)

    def test_empty_hull_combination_fails_hull_chain(self, cert, tmp_path):
        # Certificate accepts empty arrays; the checker must report, not crash
        path = tmp_path / "cert.json"
        save_document(certificate_to_doc(cert), path)
        doc = load_document(path)
        doc["cara_rows"], doc["cara_coeffs"] = [], []
        save_document(doc, path)
        report = check_certificate(certificate_from_doc(load_document(path)))
        assert "hull_chain" in report.failures()

    def test_corrupted_shape_is_rejected(self, cert):
        doc = certificate_to_doc(cert)
        doc["w"] = doc["w"] + [0.0]  # wrong length for the dimension
        with pytest.raises(MalformedCertificate):
            certificate_from_doc(doc)


class TestReportDocuments:
    def test_round_trip(self, cert):
        report = check_certificate(cert)
        back = report_from_doc(canonical_loads(canonical_dumps(report_to_doc(report))))
        assert back == report
        assert back.passed == report.passed

    def test_infinite_slack_round_trips(self, cert):
        report = check_certificate(cert)
        hacked = dataclasses.replace(
            report,
            items=(dataclasses.replace(report.items[0], slack=math.inf),) + report.items[1:],
        )
        doc = report_to_doc(hacked)
        assert doc["items"][0]["slack"] == "inf"
        back = report_from_doc(doc)
        assert math.isinf(back.items[0].slack)

    def test_doc_carries_verdict(self, cert):
        doc = report_to_doc(check_certificate(cert))
        assert doc["kind"] == KIND_REPORT
        assert doc["passed"] is True
        assert len(doc["items"]) == 11

    def test_rejects_bad_slack_spelling(self, cert):
        doc = report_to_doc(check_certificate(cert))
        doc["items"][0]["slack"] = "huge"
        with pytest.raises(MalformedDocument):
            report_from_doc(doc)


class TestFileLayer:
    def test_save_and_load(self, cert, tmp_path):
        path = tmp_path / "cert.json"
        save_document(certificate_to_doc(cert), path)
        doc = load_document(path)
        assert document_kind(doc) == KIND_CERTIFICATE
        assert certificate_from_doc(doc).ratio == cert.ratio

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(MalformedDocument):
            load_document(tmp_path / "missing.json")

    def test_load_rejects_non_document_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(MalformedDocument):
            load_document(path)

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "mystery", "version": "1"}))
        with pytest.raises(MalformedDocument):
            load_document(path)

    def test_canonical_text_is_stable(self, cert):
        doc = certificate_to_doc(cert)
        assert canonical_dumps(doc) == canonical_dumps(certificate_to_doc(cert))

    def test_canonical_text_has_one_top_level_key_per_line(self, cert):
        doc = certificate_to_doc(cert)
        lines = canonical_dumps(doc).splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        assert [json.loads("{" + line.rstrip(",") + "}") for line in lines[1:-1]] == [
            {key: value} for key, value in doc.items()
        ]

    def test_rejects_nan_literal(self):
        with pytest.raises(MalformedDocument):
            canonical_loads('{"kind": "helly-instance", "version": "1", "x": NaN}')
