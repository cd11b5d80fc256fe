"""Canonical JSON documents for instances, certificates, and check reports.

One text schema serves all three kinds so that a certificate can be diffed,
archived, and re-verified by an independent reader. Numbers are emitted with
shortest round-trip decimal encoding (Python's repr), which makes the
serialize/parse cycle bit-identical on every numeric field. Non-finite
values are rejected everywhere except check-report slacks, where an infinite
margin is meaningful and is spelled "inf" / "-inf".
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .bodies import HPolytope, hpolytope_from_arrays
from .certificate import ARRAY_FIELDS, INT_FIELDS, SELECTORS, Certificate
from .checker import CheckItem, CheckReport
from .errors import MalformedCertificate, MalformedDocument, ZeroNormal

__all__ = [
    "KIND_CERTIFICATE",
    "KIND_INSTANCE",
    "KIND_REPORT",
    "canonical_dumps",
    "canonical_loads",
    "certificate_from_doc",
    "certificate_to_doc",
    "document_kind",
    "instance_from_doc",
    "instance_to_doc",
    "load_document",
    "report_from_doc",
    "report_to_doc",
    "save_document",
]

KIND_INSTANCE = "helly-instance"
KIND_CERTIFICATE = "helly-certificate"
KIND_REPORT = "helly-check-report"
SCHEMA_VERSION = "5"
# versions each kind is read at: versions 2 to 5 changed the certificate
# fields (3 stores each fact once, 4 drops the tolerance record and the
# bound, 5 the certified ratio, the basis and the window slack) and 2 the
# check items, not the instances
_READ_VERSIONS = {
    KIND_INSTANCE: ("1", "2", "3", "4", SCHEMA_VERSION),
    KIND_CERTIFICATE: (SCHEMA_VERSION,),
    KIND_REPORT: ("3", "4", SCHEMA_VERSION),
}

# certificate JSON scalar keys, in writing order; the derived values (the
# certified ratio and the bound among them) are not written
_CERT_SCALARS = (
    ("dim", int),
    ("selector", str),
    ("contact_tol", float),
)


def _fail(message: str) -> MalformedDocument:
    return MalformedDocument(message)


def canonical_dumps(doc: dict) -> str:
    """Serialize a document dict to canonical JSON text, one top-level key
    per line. Each value is encoded on one line, which keeps CPython on its
    C encoder (setting `indent` falls back to the pure-Python one)."""
    try:
        lines = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, allow_nan=False)}"
            for key, value in doc.items()
        )
        return "{\n" + lines + "\n}\n"
    except (TypeError, ValueError) as exc:
        raise _fail(f"document is not serializable: {exc}") from exc


def canonical_loads(text: str) -> dict:
    """Parse JSON text into a document dict, rejecting NaN and Infinity."""

    def reject(token):
        raise _fail(f"non-finite literal {token!r} in document")

    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise _fail(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _fail("top-level JSON value must be an object")
    return doc


def document_kind(doc: dict) -> str:
    kind = doc.get("kind")
    if kind not in (KIND_INSTANCE, KIND_CERTIFICATE, KIND_REPORT):
        raise _fail(f"unknown document kind {kind!r}")
    if str(doc.get("version")) not in _READ_VERSIONS[kind]:
        raise _fail(f"unsupported schema version {doc.get('version')!r}")
    return kind


def save_document(doc: dict, path) -> None:
    Path(path).write_text(canonical_dumps(doc))


def load_document(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}") from exc
    doc = canonical_loads(text)
    document_kind(doc)
    return doc


# ------------------------------------------------------------------ numerics


def _float_scalar(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{name} must be a number")
    try:
        out = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise _fail(f"{name} is not finite") from None
    if not math.isfinite(out):
        raise _fail(f"{name} is not finite")
    return out


def _int_scalar(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{name} must be an integer")
    return value


def _float_array(value, name: str, ndim: int) -> np.ndarray:
    """A JSON array of numbers nested `ndim` (1 or 2) deep, as a float array.
    A boolean or a string, which numpy would read as a number, is refused;
    shape and finiteness are checked by `Certificate`."""
    try:
        leaves = itertools.chain.from_iterable(value) if ndim == 2 else value
        if not {int, float}.issuperset(map(type, leaves)):  # type(True) is bool
            raise TypeError("an entry is not a number")
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _fail(f"{name} is not a numeric array: {exc}") from exc


def _int_array(value, name: str) -> np.ndarray:
    if not isinstance(value, list) or not {int}.issuperset(map(type, value)):  # type(True) is bool
        raise _fail(f"{name} must be a list of integers")
    return np.array(value, dtype=int)


def _require(doc: dict, key: str):
    if key not in doc:
        raise _fail(f"missing field {key!r}")
    return doc[key]


# ----------------------------------------------------------------- instances


def instance_to_doc(poly: HPolytope, meta: dict | None = None) -> dict:
    halfspaces = [
        {"a": a, "b": b} for a, b in zip(poly.normals.tolist(), poly.offsets.tolist())
    ]
    return {
        "kind": KIND_INSTANCE,
        "version": SCHEMA_VERSION,
        "dim": poly.dim,
        "halfspaces": halfspaces,
        "meta": dict(meta or {}),
    }


def instance_from_doc(doc: dict) -> tuple[HPolytope, dict]:
    if document_kind(doc) != KIND_INSTANCE:
        raise _fail("expected a helly-instance document")
    d = _int_scalar(_require(doc, "dim"), "dim")
    if d < 1:
        raise _fail(f"dim must be positive, got {d}")
    rows = _require(doc, "halfspaces")
    if not isinstance(rows, list) or not rows:
        raise _fail("halfspaces must be a non-empty list")
    a, b = [], []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise _fail(f"halfspace {i} must be an object")
        vec = _require(row, "a")
        if not isinstance(vec, list) or len(vec) != d:
            raise _fail(f"halfspace {i} normal must be a list of {d} numbers")
        a.append([_float_scalar(x, f"halfspace {i} normal") for x in vec])
        b.append(_float_scalar(_require(row, "b"), f"halfspace {i} offset"))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise _fail("meta must be an object")
    a, b = np.array(a), np.array(b)
    try:
        try:
            return HPolytope(a, b), meta
        except ZeroNormal:  # rows not already of unit length
            return hpolytope_from_arrays(a, b), meta
    except ZeroNormal as exc:
        raise _fail(str(exc)) from exc


# -------------------------------------------------------------- certificates


def certificate_to_doc(cert: Certificate) -> dict:
    doc: dict = {"kind": KIND_CERTIFICATE, "version": SCHEMA_VERSION}
    for key, kind in _CERT_SCALARS:
        value = getattr(cert, key)
        doc[key] = value if kind is not float else float(value)
    for name in ARRAY_FIELDS:
        doc[name] = getattr(cert, name).tolist()
    doc["library"] = cert.library
    return doc


def certificate_from_doc(doc: dict) -> Certificate:
    kwargs: dict = {}
    try:
        if document_kind(doc) != KIND_CERTIFICATE:
            raise _fail("expected a helly-certificate document")
        for key, kind in _CERT_SCALARS:
            value = _require(doc, key)
            if kind is int:
                kwargs[key] = _int_scalar(value, key)
            elif kind is float:
                kwargs[key] = _float_scalar(value, key)
            elif not isinstance(value, str):
                raise _fail(f"{key} must be a string")
            else:
                kwargs[key] = value
        for name, ndim in ARRAY_FIELDS.items():
            value = _require(doc, name)
            if name in INT_FIELDS:
                kwargs[name] = _int_array(value, name)
            else:
                kwargs[name] = _float_array(value, name, ndim)
        library = _require(doc, "library")
        if not isinstance(library, str):
            raise _fail("library must be a string")
        kwargs["library"] = library
    except MalformedDocument as exc:
        raise MalformedCertificate(str(exc)) from exc
    return Certificate(**kwargs)


# ------------------------------------------------------------- check reports


def _real_to_doc(value: float):
    """A float, or its name when JSON has no literal for it."""
    if math.isfinite(value):
        return float(value)
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _real_from_doc(value, name: str) -> float:
    if isinstance(value, str):
        if value not in ("inf", "-inf", "nan"):
            raise _fail(f"{name} has invalid spelling {value!r}")
        return float(value)
    return _float_scalar(value, name)


def report_to_doc(report: CheckReport) -> dict:
    return {
        "kind": KIND_REPORT,
        "version": SCHEMA_VERSION,
        "dim": report.dim,
        "selector": report.selector,
        "scale": float(report.scale),
        "ratio": _real_to_doc(report.ratio),
        "bound": float(report.bound),
        "passed": report.passed,
        "items": [
            {
                "name": item.name,
                "passed": item.passed,
                "applicable": item.applicable,
                "slack": _real_to_doc(item.slack),
                "detail": item.detail,
            }
            for item in report.items
        ],
    }


def report_from_doc(doc: dict) -> CheckReport:
    if document_kind(doc) != KIND_REPORT:
        raise _fail("expected a helly-check-report document")
    selector = _require(doc, "selector")
    if selector not in SELECTORS:
        raise _fail(f"unknown selector {selector!r}")
    scale = _float_scalar(_require(doc, "scale"), "scale")
    if scale <= 0.0:
        raise _fail(f"scale must be positive, got {scale!r}")
    rows = _require(doc, "items")
    if not isinstance(rows, list):
        raise _fail("items must be a list")
    items = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise _fail(f"item {i} must be an object")
        name = _require(row, "name")
        detail = _require(row, "detail")
        if not isinstance(name, str) or not isinstance(detail, str):
            raise _fail(f"item {i} name and detail must be strings")
        passed = _require(row, "passed")
        applicable = _require(row, "applicable")
        if not isinstance(passed, bool) or not isinstance(applicable, bool):
            raise _fail(f"item {i} flags must be booleans")
        items.append(
            CheckItem(
                name=name,
                passed=passed,
                applicable=applicable,
                slack=_real_from_doc(_require(row, "slack"), f"item {i} slack"),
                detail=detail,
            )
        )
    return CheckReport(
        dim=_int_scalar(_require(doc, "dim"), "dim"),
        selector=selector,
        items=tuple(items),
        ratio=_real_from_doc(_require(doc, "ratio"), "ratio"),
        bound=_float_scalar(_require(doc, "bound"), "bound"),
        scale=scale,
    )
