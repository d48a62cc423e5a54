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
