"""Guards for the benchmark harness in ``bench/``.

The harness reports per-layer metrics for functions it finds by module and
name; a function moved or renamed in ``dstk`` would make its metric read 0
instead of failing, so the names are checked here.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_traced_functions_defined_in_their_layer():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.FUNCTIONS.items():
        mod = importlib.import_module(f"dstk.{layer}")
        for name in names:
            obj = getattr(mod, name, None)
            assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, f"dstk.{layer}.{name}"
