"""Document round trips, schema validation, and malformed-input rejection."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellycert.bodies import HPolytope, hpolytope_from_arrays
from hellycert.certificate import ARRAY_FIELDS, INT_FIELDS
from hellycert.checker import CheckReport, check_certificate
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
from hellycert.errors import HellyError, MalformedCertificate, MalformedDocument
from hellycert.generators import gen_cube, gen_tangent_random
from hellycert.pipeline import select


# the certificate values derived from its stored fields
DERIVED = [
    "norm_normals",
    "norm_offsets",
    "contact_points",
    "x_rows",
    "x_points",
    "g_indices",
    "u",
    "e1_shape",
    "lam",
    "e2_shape",
    "ratio",
    "bound",
]


# the certificate's float array fields, with their ranks
FLOAT_ARRAYS = {n: k for n, k in ARRAY_FIELDS.items() if n not in INT_FIELDS}


@pytest.fixture(scope="module")
def cert():
    return select(gen_tangent_random(3, 8, seed=2))


def test_certificate_copies_the_arrays_it_is_given(cert):
    # the caller's arrays stay writable; the certificate freezes its own copies
    given = {name: np.array(getattr(cert, name)) for name in ARRAY_FIELDS}
    again = dataclasses.replace(cert, **given)
    for name, arr in given.items():
        assert arr.flags.writeable, name
        assert getattr(again, name) is not arr, name
        assert not getattr(again, name).flags.writeable, name
        assert np.array_equal(getattr(again, name), arr), name


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
        assert doc["version"] == SCHEMA_VERSION == "5"
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

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(dim=-1),
            lambda d: d.update(dim=0),
            lambda d: d["halfspaces"][0]["a"].__setitem__(0, True),
            lambda d: d["halfspaces"][0]["a"].__setitem__(1, "0.5"),
            lambda d: d["halfspaces"][0]["a"].__setitem__(1, 10**400),
            lambda d: d["halfspaces"][0].update(b=10**400),
        ],
    )
    def test_rejects_values_numpy_would_take(self, mutate):
        # numpy reads True as 1.0 and "0.5" as 0.5, and refuses dim -1 with
        # its own ValueError; the reader refuses each, typed
        doc = instance_to_doc(gen_cube(2))
        mutate(doc)
        with pytest.raises(MalformedDocument):
            instance_from_doc(doc)

    def test_zero_normal_is_malformed_and_names_its_row(self):
        doc = instance_to_doc(gen_cube(2))
        doc["halfspaces"][3]["a"] = [0.0, 0.0]
        with pytest.raises(MalformedDocument, match="half-space 3 has a normal of length 0"):
            instance_from_doc(doc)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(d=st.integers(1, 8), extra=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_is_bit_identical_on_random_bodies(self, d, extra, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d + extra, d)) * 10.0 ** rng.uniform(-3, 3, size=(d + extra, 1))
        poly = hpolytope_from_arrays(a, rng.uniform(-2.0, 2.0, size=d + extra))
        back, _ = instance_from_doc(canonical_loads(canonical_dumps(instance_to_doc(poly))))
        assert np.array_equal(back.normals, poly.normals)
        assert np.array_equal(back.offsets, poly.offsets)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        where=st.sampled_from(["dim", "entry", "offset", "normal", "row", "rows"]),
        value=st.one_of(
            st.integers(-(10**400), 10**400),
            st.integers(-3, 12),
            st.floats(allow_nan=False, allow_infinity=False),
            st.booleans(),
            st.none(),
            st.text(max_size=3),
            st.lists(st.floats(-2.0, 2.0), max_size=9),
            st.dictionaries(st.sampled_from(["a", "b"]), st.integers(-2, 2)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mutated_instance_yields_a_polytope_or_a_typed_error(self, where, value, seed):
        # a mutated document is read to an HPolytope or refused as a
        # HellyError, never as TypeError, ValueError or MemoryError
        rng = np.random.default_rng(seed)
        doc = instance_to_doc(gen_tangent_random(3, 6, seed=int(rng.integers(100))))
        rows = doc["halfspaces"]
        i = int(rng.integers(len(rows)))
        if where == "dim":
            doc["dim"] = value
        elif where == "entry":
            rows[i]["a"][int(rng.integers(3))] = value
        elif where == "offset":
            rows[i]["b"] = value
        elif where == "normal":
            rows[i]["a"] = value
        elif where == "row":
            rows[i] = value
        else:
            doc["halfspaces"] = value
        try:
            poly, _ = instance_from_doc(canonical_loads(canonical_dumps(doc)))
        except HellyError:
            return
        assert isinstance(poly, HPolytope)


class TestCertificateDocuments:
    def test_round_trip_preserves_every_field(self, cert):
        back = certificate_from_doc(canonical_loads(canonical_dumps(certificate_to_doc(cert))))
        for name in [f.name for f in dataclasses.fields(type(cert))] + DERIVED:
            a, b = getattr(cert, name), getattr(back, name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), name
            else:
                assert a == b, name

    def test_round_tripped_certificate_still_checks(self, cert):
        back = certificate_from_doc(canonical_loads(canonical_dumps(certificate_to_doc(cert))))
        assert check_certificate(back).passed

    def test_doc_stores_each_fact_once(self, cert):
        # the 14 stored fields, and none of the values derived from them
        doc = certificate_to_doc(cert)
        assert doc["kind"] == KIND_CERTIFICATE
        assert doc["library"].split()[0] == "hellycert"
        assert set(doc) == {f.name for f in dataclasses.fields(cert)} | {"kind", "version"}
        assert len(doc) == 14 + 2
        assert not set(DERIVED + ["lambda", "basis", "window_slack"]) & set(doc)

    def test_version_one_certificate_is_rejected(self, cert):
        # version 1 stored two measured volumes in place of the certified
        # ratio, version 2 also the ten derived values, version 3 the
        # tolerance record and the bound, version 4 the certified ratio, the
        # basis and the window slack
        for old in (
            {"version": "1", "vol_f": 1.0, "vol_g": 2.0},
            {"version": "2", "lambda": cert.lam},
            {"version": "3", "tolerances": {"contact": 1e-7, "newton_cap": 500}, "bound": cert.bound},
            {"version": "4", "ratio": cert.ratio, "basis": np.eye(3).tolist(), "window_slack": 1e-9},
        ):
            with pytest.raises(MalformedCertificate, match="schema version"):
                certificate_from_doc(certificate_to_doc(cert) | old)

    def test_extra_keys_are_ignored(self, cert):
        doc = certificate_to_doc(cert)
        doc["annotation"] = "made by hand"
        assert certificate_from_doc(doc).dim == cert.dim

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("w"),
            lambda d: d.pop("selected_rows"),
            lambda d: d.update(w="not an array"),
            lambda d: d.update(cara_rows=[0.5, 1.5]),
            lambda d: d.update(selector="unknown"),
            lambda d: d.update(contact_tol=float("nan")),
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


def _mutate_index(rows: list, kind: str, rng, limit: int) -> list:
    if kind == "empty" or not rows:
        return []
    i = int(rng.integers(len(rows)))
    if kind == "out_of_range":
        return rows[:i] + [int(rng.choice([-1, limit, limit + 7]))] + rows[i + 1 :]
    if kind == "repeated":
        return rows[:i] + [rows[int(rng.integers(len(rows)))]] + rows[i + 1 :]
    if kind == "dropped":
        return rows[:i] + rows[i + 1 :]
    return rows + [int(rng.integers(limit))]  # "extended"


class TestCertificateTotality:
    # every document that certificate_from_doc accepts is checked to a
    # report; anything else is refused as MalformedCertificate, never raised
    # as IndexError, LinAlgError or ValueError from deep inside
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        field=st.sampled_from(["contact_indices", "selected_rows", "cara_rows", "none"]),
        kind=st.sampled_from(["out_of_range", "repeated", "empty", "dropped", "extended"]),
        extra=st.sampled_from(["none", "zero_w", "rank_one_map", "zero_map", "zero_column"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accepted_document_yields_a_report(self, cert, field, kind, extra, seed):
        rng = np.random.default_rng(seed)
        doc = certificate_to_doc(cert)
        if field != "none":
            limit = len(doc["normals"] if field == "contact_indices" else doc["contact_indices"])
            doc[field] = _mutate_index(doc[field], kind, rng, limit)
            paired = {"contact_indices": "contact_weights", "cara_rows": "cara_coeffs"}
            if field in paired:  # keep the lengths consistent, so the check runs
                n = len(doc[field])
                doc[paired[field]] = (doc[paired[field]] + [0.5] * n)[:n]
        d = cert.dim
        if extra == "zero_w":
            doc["w"] = [0.0] * d
        elif extra == "rank_one_map":
            v = rng.normal(size=d)
            doc["map_matrix"] = np.outer(v, v).tolist()
        elif extra == "zero_map":
            doc["map_matrix"] = np.zeros((d, d)).tolist()
        elif extra == "zero_column":
            doc["map_matrix"] = (cert.map_matrix * (np.arange(d) > 0)).tolist()
        try:
            back = certificate_from_doc(canonical_loads(canonical_dumps(doc)))
        except MalformedCertificate:
            return
        assert isinstance(check_certificate(back), CheckReport)

    @pytest.mark.parametrize("field", FLOAT_ARRAYS)
    @pytest.mark.parametrize("leaf", [True, False, "0.5", "1"])
    def test_non_number_entries_are_refused(self, cert, field, leaf):
        # numpy would read True as 1.0 and "0.5" as 0.5
        doc = canonical_loads(canonical_dumps(certificate_to_doc(cert)))
        row = doc[field][0] if FLOAT_ARRAYS[field] == 2 else doc[field]
        row[-1] = leaf
        with pytest.raises(MalformedCertificate, match=field):
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

    def test_infinite_ratio_round_trips(self, cert):
        # a certificate with no hull combination certifies no ratio; its
        # failing report must still be writable
        empty = dataclasses.replace(cert, cara_rows=np.array([], dtype=int), cara_coeffs=np.array([]))
        report = check_certificate(empty)
        assert math.isinf(report.ratio) and not report.passed
        doc = report_to_doc(report)
        assert doc["ratio"] == "inf"
        assert report_from_doc(canonical_loads(canonical_dumps(doc))) == report

    def test_version_three_report_still_reads(self, cert):
        # and version 4: schemas 4 and 5 changed the certificate fields, and
        # a report's items are read whatever their names
        report = check_certificate(cert)
        for version in ("3", "4"):
            assert report_from_doc(report_to_doc(report) | {"version": version}) == report

    def test_doc_carries_verdict(self, cert):
        doc = report_to_doc(check_certificate(cert))
        assert doc["kind"] == KIND_REPORT
        assert doc["passed"] is True
        assert len(doc["items"]) == 10

    @pytest.mark.parametrize(
        "field, value",
        [
            ("selector", None),
            ("selector", 5),
            ("selector", ["dr"]),
            ("selector", "greedy"),
            ("scale", -1.0),
            ("scale", 0.0),
        ],
        ids=["null-selector", "int-selector", "list-selector", "unknown-selector", "negative-scale", "zero-scale"],
    )
    def test_rejects_malformed_scalars(self, cert, field, value):
        doc = report_to_doc(check_certificate(cert)) | {field: value}
        with pytest.raises(MalformedDocument, match=field):
            report_from_doc(doc)

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
