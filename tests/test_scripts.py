import os
import subprocess
import sys
from pathlib import Path

import kforms

ROOT = Path(__file__).resolve().parents[1]


def test_locked_constants_match_their_derivation():
    # derive_constants.py --check recomputes the locked envelope and writes
    # nothing; it exits 1 when any key of the fixture differs from the code
    src = str(Path(kforms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "derive_constants.py"), "--check"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "0 key(s) differ" in run.stdout


def test_source_line_rows_add_up_to_the_total():
    # one `lines code name` row per module of src/kforms, then the total
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    *modules, total = rows
    assert total[2] == "total"
    assert {row[2] for row in modules} == {p.name for p in (ROOT / "src" / "kforms").glob("*.py")}
    for column in (0, 1):
        assert sum(int(row[column]) for row in modules) == int(total[column])
    assert all(0 < int(row[1]) <= int(row[0]) for row in modules)
