"""The benchmark's traced names: every "module.function" in
`perfbench/tracing.py`'s TRACED must name a function of `hellycert.<module>`,
or a traced benchmark run cannot install its spans."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.skipif(not TRACING.is_file(), reason="no perfbench/tracing.py in this tree")
def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.TRACED:
        module, fn = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"hellycert.{module}"), fn, None)):
            missing.append(name)
    assert not missing, f"traced names missing from hellycert: {missing}"
