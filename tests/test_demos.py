"""Every narrative demo in ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=300, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
