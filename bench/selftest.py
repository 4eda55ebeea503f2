"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

For one case of every operation family in the three workloads it runs the
operation, confirms that the check accepts the answer, then feeds the check
one corrupted answer (a moved pole, a dropped state, a perturbed factor)
and confirms that the check flags it.  Model matching gets a second
corruption that keeps the reported error consistent, so that only the
optimality test can catch it.  Exits 1 if any check misses.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import dstk  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def drop_state(s):
    s = oracle.plain(s)
    if s.n == 0:
        return nudge(s)
    return oracle.Sys(s.A[:-1, :-1], s.E[:-1, :-1], s.B[:-1], s.C[:, :-1], s.D, s.domain)


def nudge(s, size=1e-3):
    s = oracle.plain(s)
    return oracle.Sys(s.A, s.E, s.B, s.C, s.D + size, s.domain)


def scale_output(s, factor=1.05):
    s = oracle.plain(s)
    return oracle.Sys(s.A, s.E, s.B, factor * s.C, s.D, s.domain)


def move_first(values, by=0.1):
    values = list(values)
    values[0] = complex(values[0]) + by
    return values


def move_json_pole(out, key):
    code, text = out
    doc = json.loads(text)
    res = doc["results"]
    items = res[key]["finite"] if key == "poles" else res[key]
    items[0]["re"] += 0.1
    return code, json.dumps(doc)


def drop_state_from_file(out):
    """For CLI minreal the answer is the file it wrote: drop a state there."""
    path = json.loads(out[1])["results"]["written"]
    workloads.write_dss(path, drop_state(workloads.read_dss(path)))
    return out


CORRUPT = {
    "poles": lambda r: dataclasses.replace(r, finite=move_first(r.finite)),
    "zeros": lambda r: dataclasses.replace(r, finite=move_first(r.finite)),
    "mcmillan_degree": lambda r: r + 1,
    "is_stable": lambda r: not r,
    "is_minimum_phase": lambda r: not r,
    "normal_rank": lambda r: r - 1,
    "minimality_report": lambda r: dataclasses.replace(r, order=r.order - 1),
    "klf": lambda r: dataclasses.replace(r, finite_eigenvalues=move_first(r.finite_eigenvalues)),
    "cli_info": lambda r: move_json_pole(r, "poles"),
    "cli_klf": lambda r: move_json_pole(r, "finite_eigenvalues"),
    "cli_minreal": drop_state_from_file,
    "additive_decompose": lambda r: dataclasses.replace(r, first=nudge(r.first)),
    "h2_norm": lambda r: r * (1.0 + 1e-4),
    "rcf": lambda r: dataclasses.replace(r, first=nudge(r.first)),
    "lcf": lambda r: dataclasses.replace(r, first=nudge(r.first)),
    "inner_outer": lambda r: dataclasses.replace(r, first=nudge(r.first)),
    "co_outer_co_inner": lambda r: dataclasses.replace(r, second=nudge(r.second)),
    "l2_model_match": lambda r: (scale_output(r[0]), r[1]),
    "solve_right": nudge,
    "right_nullspace": nudge,
    "left_nullspace": nudge,
}
# every reduce family returns a minimal realization: drop one of its states
REDUCED = ("parallel_neg", "concat_col_self", "series", "parallel", "diag_stack", "transpose_dual", "conjugate",
           "realize_rational")


def optimality_probe():
    """A suboptimal X whose reported error is its true error: only the
    stable-perturbation test can flag it."""
    rng = np.random.default_rng(7)
    PG = gen.planted_system(6, 2, 2, "continuous", rng)
    PF = gen.planted_system(3, 1, 2, "continuous", rng, strictly_proper=True)
    delta = gen.planted_system(2, 1, 2, "continuous", rng, strictly_proper=True)
    X, parts = dstk.l2_model_match(workloads.system(PG), workloads.system(PF))
    if oracle.check_model_match(X, parts.error_norm, PG, PF, delta):
        return "rejects the optimal answer"
    Xbad = oracle.plain_sum(oracle.plain(X), oracle.Sys(delta.A, delta.E, delta.B, 0.05 * delta.C, delta.D, "continuous"))
    why = oracle.check_model_match(Xbad, oracle.match_error(PG, PF, Xbad), PG, PF, delta)
    return None if why else "missed a suboptimal X"


def main():
    missed = []
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.WORKLOADS:
            seen = set()
            for case in workloads.build(workload, 0, workdir):
                family = case.name.split("/")[0]
                if case.fault or family in seen:
                    continue
                seen.add(family)
                corrupt = drop_state if family in REDUCED else CORRUPT[family]
                answer = case.op()
                why = case.check(answer)
                if why:
                    missed.append(f"{case.name}: rejects the library's answer ({why})")
                    continue
                flagged = case.check(corrupt(copy.copy(answer)))
                print(f"{workload:9s} {case.name:32s} {'flagged: ' + flagged if flagged else 'MISSED'}")
                if not flagged:
                    missed.append(f"{case.name}: accepted a corrupted answer")
    why = optimality_probe()
    print(f"{'synthesis':9s} {'l2_model_match optimality':32s} {'MISSED: ' + why if why else 'flagged'}")
    if why:
        missed.append("l2_model_match optimality: " + why)
    for line in missed:
        print("MISSED", line, file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
