"""Run one CLI command in-process and check its CSV error columns against the references.

A command fails on a nonzero exit, a gate ``FAIL``, or error columns that
deviate from the recorded reference by more than the relative tolerance of
its experiment: 1e-12 for the closed-form paths (``project``, ``ft``), 1e-8
for ``resolve-potential`` (its solver tolerance is 1e-10).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import traceback

import benchenv

REFS_PATH = os.path.join(benchenv.HERE, "refs.json")

RTOL = {"project": 1e-12, "ft": 1e-12, "resolve-potential": 1e-8}

KEY_COLUMNS = ("experiment", "h", "N")


def run_cli(cli, argv: list[str], out_path: str) -> tuple[int, str]:
    """``cli.main(argv --out out_path)`` with the thread caps re-pinned first.

    ``cli.run`` writes ``LATTICE_DIRAC_THREADS`` when ``--threads`` is given,
    so the caps are written again before every command.  Returns the exit
    code (-1 for an exception the CLI lets through) and the captured summary.
    """
    benchenv.pin_threads()
    if os.path.exists(out_path):
        os.remove(out_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv) + ["--out", out_path])
        except Exception:  # an error the CLI does not handle fails this command, not the run
            traceback.print_exc()
            code = -1
    return code, buf.getvalue()


def read_rows(out_path: str) -> list[dict]:
    if not os.path.exists(out_path):
        return []
    with open(out_path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def error_columns(rows: list[dict]) -> list[list[str]]:
    """The columns a reference pins: experiment, h, N and the 17-digit error."""
    return [[row[c] for c in KEY_COLUMNS] + [row["error"]] for row in rows]


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["references"]


def compare(argv: list[str], code: int, summary: str, rows: list[dict], refs: dict):
    """Return ``(ok, max relative deviation or None, reason)`` for one command."""
    if code != 0:
        return False, None, f"exit code {code}"
    if "FAIL" in summary or "PASS" not in summary:
        return False, None, f"gate: {summary.strip()}"
    ref = refs.get(" ".join(argv))
    if ref is None:
        return False, None, "no recorded reference"
    got = error_columns(rows)
    if len(got) != len(ref) or any(g[:3] != r[:3] for g, r in zip(got, ref)):
        return False, None, "rows differ from the reference in experiment, h or N"
    rtol = RTOL[argv[0]]
    worst = 0.0
    for g, r in zip(got, ref):
        want = float(r[3])
        worst = max(worst, abs(float(g[3]) - want) / abs(want))
    if worst > rtol:
        return False, worst, f"error deviates by {worst:.3g} relative (limit {rtol:g})"
    return True, worst, ""
