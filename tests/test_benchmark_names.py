"""The library names the benchmark's tracer rebinds must exist.

``perfbench/spans.py`` times a traced run by replacing module attributes with
wrappers; a name it cannot find stops the traced run before its first sweep.
The file is read and executed here without being imported, so nothing is
written next to it.
"""

import importlib
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_every_name_the_tracer_rebinds_exists():
    with open(SPANS, encoding="utf-8") as fh:
        spans = {"__name__": "spans"}
        exec(compile(fh.read(), SPANS, "exec"), spans)
    wraps = spans["LAB_WRAPS"] + spans["INNER_WRAPS"]
    missing = [f"{module}.{attr}" for module, attr, _ in wraps
               if not hasattr(importlib.import_module(module), attr)]
    assert wraps and missing == []
