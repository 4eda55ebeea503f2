"""Reference figures for the README: per-pipeline medians and call counts.

    python3 bench/reference.py            # about five minutes, ~1.5 GB peak

Times each public pipeline at n in {8, 16, 32, 64, 96} (continuous, m = p =
2, median of three calls; an order is skipped once the previous one took
over three seconds), then re-measures the baselines the roadmap quotes:
``glyap`` at n = 96, ``l2_model_match`` at n = 40 (p = 4, m = 2), and the
``minreal``/``klf`` call counts of ``l2_model_match`` at n = 20 and of
``dstk info`` at n = 30.  Inputs come from the benchmark's generator;
answers are not checked here.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import dstk  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ORDERS = (8, 16, 32, 64, 96)
LHP = dstk.stability_region("continuous")


def planted(n, m=2, p=2, **kw):
    return gen.planted_system(n, m, p, "continuous", np.random.default_rng(n), **kw)


PIPELINES = {
    "minreal": lambda n: (dstk.minreal, (workloads.system(planted(n)),)),
    "poles": lambda n: (dstk.poles, (workloads.system(planted(n)),)),
    "zeros": lambda n: (dstk.zeros, (workloads.system(planted(n)),)),
    "additive_decompose": lambda n: (dstk.additive_decompose, (workloads.system(planted(n, unstable=n // 2)), LHP)),
    "rcf": lambda n: (dstk.rcf, (workloads.system(planted(n, unstable=n // 2)), LHP)),
    "inner_outer": lambda n: (dstk.inner_outer, (workloads.system(planted(n)),)),
    "h2_norm": lambda n: (dstk.h2_norm, (workloads.system(planted(n, strictly_proper=True)),)),
    "right_nullspace": lambda n: (dstk.right_nullspace, (workloads.system(planted(n, m=3)),)),
    "solve_right": lambda n: (dstk.solve_right, (workloads.system(planted(n)), workloads.system(planted(n // 2)))),
    "l2_model_match": lambda n: (dstk.l2_model_match, (workloads.system(planted(n)),
                                                        workloads.system(planted(n // 2, m=1, strictly_proper=True)))),
}


def timed(fn, args, repeats=3):
    times, outcome = [], "ok"
    for _ in range(repeats):
        t = time.perf_counter()
        try:
            fn(*args)
        except dstk.DstkError as exc:
            outcome = type(exc).__name__
        times.append(time.perf_counter() - t)
    return statistics.median(times), outcome


def counts(tracer, op_id, fn):
    tracer.run_op(op_id, "reference", fn)
    names = [tracer.names[tracer.name[i]] for i in range(len(tracer.start)) if tracer.op[i] == op_id]
    return {name: names.count(name) for name in ("analysis.minreal", "pencil.klf")}


def main():
    env = run.environment()
    print("environment:", ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{'pipeline':20s}" + "".join(f"{'n=' + str(n):>12s}" for n in ORDERS) + "   (ms, median of 3)")
    for name, make in PIPELINES.items():
        cells, last = [], 0.0
        for n in ORDERS:
            if last > 3.0:
                cells.append("-")
                continue
            last, outcome = timed(*make(n))
            cells.append(f"{1e3 * last:.1f}" if outcome == "ok" else outcome[:11])
        print(f"{name:20s}" + "".join(f"{c:>12s}" for c in cells), flush=True)

    P = planted(96, strictly_proper=True)
    A = np.linalg.solve(P.E, P.A)
    t, _ = timed(dstk.glyap, (A, np.eye(96), P.B @ P.B.T, "continuous"), repeats=1)
    print(f"glyap n=96: {t:.2f} s")
    G, F = planted(40, p=4), planted(20, m=1, p=4, strictly_proper=True)
    t, outcome = timed(dstk.l2_model_match, (workloads.system(G), workloads.system(F)), repeats=1)
    print(f"l2_model_match n=40 (p=4, m=2): {t:.2f} s ({outcome})")

    tracer = spans.Tracer()
    tracer.install()
    G, F = planted(20, p=4), planted(10, m=1, p=4, strictly_proper=True)
    g, f = workloads.system(G), workloads.system(F)
    print("l2_model_match n=20 (p=4, m=2) calls:", counts(tracer, 0, lambda: dstk.l2_model_match(g, f)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.dss")
        workloads.write_dss(path, planted(30))
        print("dstk info n=30 calls:", counts(tracer, 1, lambda: workloads.cli_call(["info", path, "--out", "json"])))


if __name__ == "__main__":
    main()
