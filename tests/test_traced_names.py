"""Every name the benchmark's span tracer wraps still exists in qsdr.

``perfbench/spans.py`` patches module attributes by name; a name removed
from ``src`` would only surface when a traced benchmark run fails to
install.  The lists are read from that file, so this test follows it.
"""

import importlib
import importlib.util
from pathlib import Path

from qsdr.dolinar import ControlLaw

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in (*spans.PATCHES, *spans.COUNTED)]


def test_every_traced_name_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr in _traced_names()
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    assert callable(ControlLaw.u0)
