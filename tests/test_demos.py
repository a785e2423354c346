"""Each demo script exits 0 and prints the bytes in tests/golden/demos/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_matches_golden_bytes(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()
