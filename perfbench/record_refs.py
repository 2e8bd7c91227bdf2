"""Record the reference error columns of every configuration the workloads can run.

    python3 perfbench/record_refs.py

Writes ``perfbench/refs.json``.  Run it only when a workload's configuration
set changes: the references pin the results of the commit they were
recorded at, and every benchmark run is checked against them.  The full set
takes about 20 minutes on 2 CPUs.
"""

from __future__ import annotations

import json
import os
import sys
import time

import benchenv
import check
import workloads


def main() -> int:
    if not benchenv.program_present():
        print("error: no src/latticedirac in this checkout", file=sys.stderr)
        return 2
    cli = benchenv.import_program()
    refs = {}
    os.makedirs(benchenv.WORK, exist_ok=True)
    out_path = os.path.join(benchenv.WORK, "record.csv")
    for smoke in (True, False):
        for argv in workloads.all_configurations(smoke):
            start = time.perf_counter()
            code, summary = check.run_cli(cli, argv, out_path)
            if code != 0 or "PASS" not in summary:
                print(f"error: {workloads.key(argv)}: exit {code}: {summary.strip()}", file=sys.stderr)
                return 1
            refs[workloads.key(argv)] = check.error_columns(check.read_rows(out_path))
            print(f"{time.perf_counter() - start:8.2f} s  {workloads.key(argv)}", flush=True)
    payload = {"machine": benchenv.machine(), "references": dict(sorted(refs.items()))}
    with open(check.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
