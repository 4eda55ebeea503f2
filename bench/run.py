"""Benchmark entry point: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload structure --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dstk is imported from ``src/``.
The parent process starts workers with BLAS pinned to one thread.  Each
worker imports dstk, builds the workload's inputs from the seed and warms
up, then reports ready; the time from start to ready is one set-up sample.
With ``--trace 0`` two workers stop there and a third runs the closed loop
(one caller; each call starts when the previous one returns) in whole
rounds over every case until ``--seconds`` have passed.  With ``--trace 1``
one worker runs half the time untraced and half traced and reports the
per-layer metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 2
MIN_ROUNDS = 3
DEADLINE_S = 170.0
SMALL_ORDER = 16
LARGE_ORDER = 48
# median time of one calibration pass on the reference machine (see README)
CALIBRATION_REF_S = 0.040


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("structure", "reduce", "synthesis"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# worker


def blas_info():
    """OpenBLAS configuration and thread count of numpy's bundled library."""
    import ctypes
    import glob

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for suffix in ("64_", ""):
            try:
                get_config = getattr(handle, f"scipy_openblas_get_config{suffix}")
                get_threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            return get_config().decode(), int(get_threads())
    return "unknown", None


def environment():
    import numpy as np
    import scipy

    config, threads = blas_info()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": config,
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
    }


class Calibration:
    """A fixed computation that does not touch dstk, timed once per round.

    The host's speed drifts by 20 to 40 percent between runs minutes apart,
    alike for every case of a run.  One dense LU solve of a fixed matrix too
    big for the private caches tracks that drift better than small-array or
    cache-resident work does, so the end-to-end times are scaled by
    ``CALIBRATION_REF_S / median(pass)``.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.solve = np.linalg.solve
        self.M = rng.normal(size=(1200, 1200))
        self.b = rng.normal(size=(1200, 1))

    def run(self):
        t = time.perf_counter()
        self.solve(self.M, self.b)
        return time.perf_counter() - t


def run_rounds(cases, seconds, tracer=None):
    """Closed loop over whole rounds of every case; returns per-case
    latencies of all attempts and of correct ones, failures, reasons, the
    round count and the calibration times."""
    every = [[] for _ in cases]
    good = [[] for _ in cases]
    fails = [0] * len(cases)
    reasons = {}
    rounds = 0
    op_id = 0
    calibration = Calibration()
    cal = []
    t0 = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        cal.append(calibration.run())
        for i, case in enumerate(cases):
            t = time.perf_counter()
            try:
                res = case.op() if tracer is None else tracer.run_op(op_id, case.name, case.op)
                why = None
            except Exception as exc:  # a failed operation is counted, not fatal
                res, why = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            op_id += 1
            if why is None:
                try:
                    why = case.check(res)
                except Exception as exc:
                    why = f"check raised {type(exc).__name__}: {exc}"
            every[i].append(dt)
            if why:
                fails[i] += 1
                reasons.setdefault(case.name, why)
            else:
                good[i].append(dt)
        rounds += 1
    return every, good, fails, reasons, rounds, cal


def worker(args):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import dstk

    if not Path(dstk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: dstk imported from {dstk.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import random
    import resource
    import shutil

    import spans
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cases = workloads.build(args.workload, args.seed, str(workdir))
        random.Random(0).shuffle(cases)  # interleave families and orders
        first = {}
        for case in cases:
            fam = case.name.split("/")[0]
            if not case.fault and (fam not in first or case.order < first[fam].order):
                first[fam] = case
        for case in first.values():
            case.check(case.op())
        print("READY", flush=True)
        calibration = Calibration()
        passes = [calibration.run() for _ in range(6)]
        print(statistics.median(passes[1:]), flush=True)  # the first pass runs cold
        if args.worker == "setup":
            return 0

        result = {"env": environment()}
        if args.trace:
            half = args.seconds / 2.0
            every_u, *_ = run_rounds(cases, half)
            tracer = spans.Tracer()
            tracer.install()
            every, good, fails, reasons, rounds, _ = run_rounds(cases, half, tracer)
            n_ops = rounds * len(cases)
            metrics = tracer.per_op(n_ops)
            metrics["trace.overhead_ratio"] = (
                sum(statistics.median(x) for x in every) / sum(statistics.median(x) for x in every_u),
                "ratio",
            )
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        else:
            every, good, fails, reasons, rounds, cal = run_rounds(cases, args.seconds)
            n_ops = rounds * len(cases)
            round_s = sum(statistics.median(x) for x in every)
            correct_per_round = (n_ops - sum(fails)) / rounds

            def p50_ms(keep):
                meds = [statistics.median(g) for c, g in zip(cases, good) if g and keep(c.order)]
                return 1e3 * statistics.median(meds)

            raw = {
                "throughput_ops_s": correct_per_round / round_s,
                "small_p50_ms": p50_ms(lambda n: n <= SMALL_ORDER),
                "large_p50_ms": p50_ms(lambda n: n >= LARGE_ORDER),
            }
            speed = CALIBRATION_REF_S / statistics.median(cal)
            result.update(raw=raw, calibration_ms=1e3 * statistics.median(cal))
            metrics = {
                "throughput_ops_s": (raw["throughput_ops_s"] / speed, "ops/s"),
                "small_p50_ms": (raw["small_p50_ms"] * speed, "ms"),
                "large_p50_ms": (raw["large_p50_ms"] * speed, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        unexpected = [c.name for c, f in zip(cases, fails) if f and not c.fault]
        result.update(
            correct=not unexpected,
            attempted=n_ops,
            failed=sum(fails),
            rounds=rounds,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            unexpected_failures={k: reasons[k] for k in unexpected},
            kept_faults={c.name: [c.fault, reasons.get(c.name)] for c in cases if c.fault},
            case_median_ms={c.name: 1e3 * statistics.median(x) for c, x in zip(cases, every)},
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# parent


def spawn(args, role, deadline):
    """Start a worker; return (seconds to READY, its calibration time in
    seconds, remaining stdout)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--worker", role]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - t0
                break
        cal = float(proc.stdout.readline() or "nan")
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"{role} worker exited with code {code}")
    return ready, cal, rest


def main(argv=None):
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not (ROOT / "src" / "dstk" / "__init__.py").is_file():
        print(f"error: no dstk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        setups = [spawn(args, "setup", deadline)[:2] for _ in range(0 if args.trace else SETUP_PROBES)]
        ready, cal, rest = spawn(args, "measure", deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(rest.strip().splitlines()[-1])
    if not args.trace:
        setups.append((ready, cal))
        scaled = [t * CALIBRATION_REF_S / c for t, c in setups]
        result["metrics"] = {"setup_s": {"value": statistics.median(scaled), "unit": "s"}, **result["metrics"]}
        result["setup_samples_s"] = [t for t, _ in setups]
        result["setup_calibration_ms"] = [1e3 * c for _, c in setups]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for key, why in result["unexpected_failures"].items():
        print(f"FAILED {key}: {why}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
