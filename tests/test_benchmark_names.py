"""The library names the benchmark's tracer rebinds must exist, and its spans must cover the work.

``perfbench/spans.py`` times a traced run by replacing module attributes with
wrappers; a name it cannot find stops the traced run before its first sweep.
The file is read and executed here without being imported, so nothing is
written next to it.
"""

import importlib
import os

from latticedirac import Sweep, exp_resolvent_potential

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans() -> dict:
    """The globals of ``perfbench/spans.py``, executed from its source."""
    with open(SPANS, encoding="utf-8") as fh:
        spans = {"__name__": "spans"}
        exec(compile(fh.read(), SPANS, "exec"), spans)
    return spans


def test_every_name_the_tracer_rebinds_exists():
    spans = _spans()
    wraps = spans["LAB_WRAPS"] + spans["INNER_WRAPS"]
    missing = [f"{module}.{attr}" for module, attr, _ in wraps
               if not hasattr(importlib.import_module(module), attr)]
    assert wraps and missing == []


def test_every_transform_of_the_potential_reference_runs_under_its_span():
    # one traced sweep whose finest start passes (refine 8, fine N = 192): the reference is one
    # `lab.reference` span, and every transform before the levels, the finest start test's
    # included, is attributed to it
    tracer = _spans()["Tracer"]()
    tracer.install()
    try:
        tracer.begin_sweep(0)
        exp_resolvent_potential(Sweep(hs=(0.4,), box=9.6, function="gaussian-spinor", z=3j, refine=8,
                                      potential="nonhermitian-gaussian"))
        tracer.end_sweep()
    finally:
        tracer.uninstall()
    spans = tracer.records()
    by_id = {span["id"]: span for span in spans}

    def ancestors(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            yield span["name"]

    [reference] = [span for span in spans if span["name"] == "lab.reference"]
    levels_start = min(span["start"] for span in spans if span["name"] == "lab.levels")
    before = [span for span in spans if span["name"] == "fourier.fft" and span["start"] < levels_start]
    assert reference["end"] <= levels_start
    assert before and all("lab.reference" in ancestors(span) for span in before)
