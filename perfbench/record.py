"""Record the value every benchmark case must reproduce.

    python3 perfbench/record.py

Runs each case any seed can generate (see workloads.universe) whose key
perfbench/recorded.json lacks, with the kforms sources next to this
directory, and adds the values to that file; keys no seed can generate
any more are dropped.  Values already recorded are never recomputed, so
later code cannot move them; delete the file to record everything afresh.
Run it only when the workload menus change, and only on code whose
``measured`` values are trusted: the benchmark treats these values as
ground truth.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

from run import git_commit, import_kforms, ROOT
import workloads


def main() -> int:
    kf = import_kforms()
    path = workloads.RECORDED_PATH
    recorded = json.loads(path.read_text()) if path.exists() else {
        "kforms_commit": git_commit(ROOT), "values": {}}
    keys = {case.key for name in workloads.WORKLOADS for case in workloads.universe(name)}
    values = recorded["values"] = {k: v for k, v in recorded["values"].items() if k in keys}
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        out_path = f"{tmp}/report.csv"
        for name in workloads.WORKLOADS:
            t0 = time.perf_counter()
            added = 0
            for case in workloads.universe(name):
                if case.key not in values:
                    values[case.key] = case.recorded_value(case.run(kf, out_path))
                    added += 1
            print(f"{name}: {added} values added in {time.perf_counter() - t0:.1f} s", flush=True)
    path.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
