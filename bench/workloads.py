"""The three workloads: their cases, each a timed call into dstk plus a check.

A case is built at set-up from the workload seed.  The kept-fault cases
(``fault`` set) are built from fixed seeds instead, so they fail on every
run whatever ``--seed`` is; every other case passes on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dstk
import dstk.cli

import gen
import oracle

DOMAINS = ("continuous", "discrete")
# fixed seed of the kept-fault inputs (independent of --seed)
FAULT_SEED = 1902


@dataclass
class Case:
    name: str
    order: int
    op: Callable[[], object]
    check: Callable[[object], str | None]
    fault: str | None = None


def system(P):
    return dstk.make_system(P.A, P.E, P.B, P.C, P.D, P.domain)


def negated(P):
    return gen.Planted(P.A, P.E, P.B, -P.C, -P.D, P.domain, P.finite_poles, P.chains)


def tag(domain):
    return domain[0]


# ---------------------------------------------------------------------------
# structure: queries on minimal realizations, Kronecker structure, CLI


def _fmt_rows(M):
    return [" ".join(format(float(v), ".17g") for v in row) for row in M] if M.shape[1] else []


def write_dss(path, P):
    """System file in the ``dstk-dss v1`` format, written with own code."""
    lines = ["dstk-dss v1", f"domain {P.domain}", f"n {P.n}", f"m {P.m}", f"p {P.p}"]
    for name in "AEBCD":
        lines.append(name)
        lines.extend(_fmt_rows(np.atleast_2d(getattr(P, name))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dss(path):
    """Own reader for ``dstk-dss v1`` files (E optional)."""
    with open(path) as fh:
        toks = [ln.split() for ln in fh.read().splitlines() if ln.strip() and not ln.startswith("#")]
    hdr = {t[0]: t[1] for t in toks[1:5]}
    n, m, p = int(hdr["n"]), int(hdr["m"]), int(hdr["p"])
    shapes = {"A": (n, n), "E": (n, n), "B": (n, m), "C": (p, n), "D": (p, m)}
    blocks = {"E": np.eye(n)}
    i = 5
    while i < len(toks):
        name = toks[i][0]
        rows, cols = shapes[name]
        take = rows if cols else 0
        blocks[name] = np.array(toks[i + 1 : i + 1 + take], dtype=float).reshape(rows, cols)
        i += 1 + take
    return oracle.Sys(blocks["A"], blocks["E"], blocks["B"], blocks["C"], blocks["D"], hdr["domain"])


def write_matrix(path, M):
    with open(path, "w") as fh:
        fh.write("\n".join(" ".join(format(float(v), ".17g") for v in row) for row in M) + "\n")


def cli_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dstk.cli.run(argv)
    return code, buf.getvalue()


def cli_json(out):
    code, text = out
    if code != 0:
        raise RuntimeError(f"dstk exited with code {code}")
    return json.loads(text)["results"]


def _complexes(items):
    return [complex(z["re"], z["im"]) for z in items]


def check_info(out, P, nrank):
    try:
        res = cli_json(out)
    except (RuntimeError, ValueError, KeyError) as exc:
        return f"info: {exc}"
    why = (
        oracle.check_equal(res["order"], P.n, "order")
        or oracle.check_equal(res["mcmillan_degree"], P.degree, "mcmillan_degree")
        or oracle.check_equal(res["normal_rank"], nrank, "normal_rank")
        or oracle.check_equal(res["poles"]["infinite"], sum(k - 1 for k in P.chains), "infinite poles")
        or oracle.check_equal(res["minimality"]["minimal"], True, "minimal")
        or oracle.check_equal(res["stable"], oracle.expected_stable(P), "stable")
    )
    if why:
        return "info: " + why
    why = oracle.set_mismatch(_complexes(res["poles"]["finite"]), P.finite_poles)
    if why:
        return "info poles: " + why
    if not P.chains and P.p == P.m:
        why = oracle.set_mismatch(_complexes(res["zeros"]["finite"]), oracle.square_zeros(P), rtol=1e-5)
        if why:
            return "info zeros: " + why
    return None


def check_cli_klf(out, pp):
    try:
        res = cli_json(out)
    except (RuntimeError, ValueError, KeyError) as exc:
        return f"klf: {exc}"
    ks = dstk.KroneckerStructure(
        res["right_indices"], res["left_indices"], _complexes(res["finite_eigenvalues"]), res["infinite_divisor_degrees"]
    )
    return oracle.check_klf(ks, pp)


def check_cli_minreal(out, path, P):
    code, _ = out
    if code != 0:
        return f"minreal exited with code {code}"
    return oracle.check_reduced(read_dss(path), P.n, lambda lam: oracle.tfm(P, lam))


def structure_cases(rng, workdir):
    cases = []
    for d in DOMAINS:
        for i, n in enumerate((4, 8, 16, 32, 64, 96)):
            P = gen.planted_system(n, 2, 2, d, rng, standard=i % 2 == 0)
            g = system(P)
            t = f"{tag(d)}{n}"
            cases += [
                Case(f"poles/{t}", n, lambda g=g: dstk.poles(g), lambda r, P=P: oracle.check_poles(r, P)),
                Case(f"zeros/{t}", n, lambda g=g: dstk.zeros(g), lambda r, P=P: oracle.check_zeros(r, P)),
                Case(f"mcmillan_degree/{t}", n, lambda g=g: dstk.mcmillan_degree(g),
                     lambda r, P=P: oracle.check_equal(r, P.degree, "degree")),
                Case(f"is_stable/{t}", n, lambda g=g: dstk.is_stable(g),
                     lambda r, P=P: oracle.check_equal(r, oracle.expected_stable(P), "is_stable")),
                Case(f"is_minimum_phase/{t}", n, lambda g=g: dstk.is_minimum_phase(g),
                     lambda r, P=P: oracle.check_minimum_phase(r, P)),
                Case(f"normal_rank/{t}", n, lambda g=g: dstk.normal_rank(g),
                     lambda r: oracle.check_equal(r, 2, "normal rank")),
                Case(f"minimality_report/{t}", n, lambda g=g: dstk.minimality_report(g),
                     lambda r, P=P: oracle.check_minimality(r, P)),
            ]
        for n, chains in ((8, (2, 3)), (24, (2, 3)), (64, (3, 3))):
            P = gen.planted_system(n, 2, 2, d, rng, chains=chains)
            g = system(P)
            t = f"{tag(d)}{n}i"
            cases += [
                Case(f"poles/{t}", n, lambda g=g: dstk.poles(g), lambda r, P=P: oracle.check_poles(r, P)),
                Case(f"mcmillan_degree/{t}", n, lambda g=g: dstk.mcmillan_degree(g),
                     lambda r, P=P: oracle.check_equal(r, P.degree, "degree")),
                Case(f"is_stable/{t}", n, lambda g=g: dstk.is_stable(g),
                     lambda r: oracle.check_equal(r, False, "is_stable")),
                Case(f"minimality_report/{t}", n, lambda g=g: dstk.minimality_report(g),
                     lambda r, P=P: oracle.check_minimality(r, P)),
            ]
    for right, left, nf, inf in (([0, 1], [1], 3, [2]), ([0, 1, 2], [1, 2], 12, [1, 2, 3]), ([1, 2, 3], [0, 2, 4], 40, [2, 3])):
        pp = gen.planted_pencil(right, left, nf, inf, rng)
        order = max(pp.M.shape)
        cases.append(Case(f"klf/{order}", order, lambda pp=pp: dstk.klf(pp.M, pp.N)[4],
                          lambda r, pp=pp: oracle.check_klf(r, pp)))

    # command line, in-process, on files written here
    def path(name):
        return os.path.join(workdir, name)

    for d, n in (("continuous", 16), ("discrete", 64)):
        P = gen.planted_system(n, 2, 2, d, rng)
        write_dss(path(f"info-{d}.dss"), P)
        cases.append(Case(f"cli_info/{tag(d)}{n}", n, lambda f=path(f"info-{d}.dss"): cli_call(["info", f, "--out", "json"]),
                          lambda r, P=P: check_info(r, P, 2)))
    pp = gen.planted_pencil([0, 2], [1], 10, [2, 3], rng)
    write_matrix(path("klf-m.txt"), pp.M)
    write_matrix(path("klf-n.txt"), pp.N)
    cases.append(Case(f"cli_klf/{max(pp.M.shape)}", max(pp.M.shape),
                      lambda: cli_call(["klf", path("klf-m.txt"), path("klf-n.txt"), "--out", "json"]),
                      lambda r, pp=pp: check_cli_klf(r, pp)))
    for d, n, chains in (("discrete", 32, ()), ("continuous", 8, (2, 3))):
        P = gen.planted_system(n, 2, 2, d, rng, chains=chains)
        src, dst = path(f"minreal-{d}.dss"), path(f"minreal-{d}-out.dss")
        write_dss(src, P)
        cases.append(Case(f"cli_minreal/{tag(d)}{n}", n,
                          lambda src=src, dst=dst: cli_call(["minreal", src, "-o", dst, "--out", "json"]),
                          lambda r, dst=dst, P=P: check_cli_minreal(r, dst, P)))

    # kept faults: normal rank of an improper system (probe points all rejected)
    P = gen.planted_system(16, 2, 2, "continuous", np.random.default_rng(FAULT_SEED), chains=(2, 3))
    g = system(P)
    write_dss(path("info-improper.dss"), P)
    cases.append(Case("normal_rank/c16i", 16, lambda: dstk.normal_rank(g),
                      lambda r: oracle.check_equal(r, 2, "normal rank"), fault="improper-probe"))
    cases.append(Case("cli_info/c16i", 16, lambda: cli_call(["info", path("info-improper.dss"), "--out", "json"]),
                      lambda r, P=P: check_info(r, P, 2), fault="improper-probe"))
    return cases


# ---------------------------------------------------------------------------
# reduce: realizations built through ops, with known minimal order


def reduce_cases(rng):
    cases = []

    def add(name, order, build, want_order, want_fn, fault=None):
        cases.append(Case(name, order, lambda: dstk.minreal(build()),
                          lambda r: oracle.check_reduced(r, want_order, want_fn), fault))

    for d in DOMAINS:
        T = tag(d)
        for n, chains in ((4, ()), (8, (2,))):
            P = gen.planted_system(n, 2, 2, d, rng, chains=chains)
            g, gneg = system(P), system(negated(P))
            add(f"parallel_neg/{T}{2 * n}", 2 * n, lambda g=g, h=gneg: dstk.parallel(g, h), 0, lambda lam: np.zeros((2, 2)))
            add(f"concat_col_self/{T}{2 * n}", 2 * n, lambda g=g: dstk.concat_col(g, g), P.n,
                lambda lam, P=P: np.vstack([oracle.tfm(P, lam)] * 2))
        for n in (8, 16, 48, 96):
            P1 = gen.planted_system(n // 2, 2, 3, d, rng)
            P2 = gen.planted_system(n - n // 2, 3, 2, d, rng)
            P3 = gen.planted_system(n - n // 2, 2, 3, d, rng)
            g1, g2, g3 = system(P1), system(P2), system(P3)
            add(f"series/{T}{n}", n, lambda a=g1, b=g2: dstk.series(a, b), n,
                lambda lam, a=P1, b=P2: oracle.tfm(a, lam) @ oracle.tfm(b, lam))
            add(f"parallel/{T}{n}", n, lambda a=g1, b=g3: dstk.parallel(a, b), n,
                lambda lam, a=P1, b=P3: oracle.tfm(a, lam) + oracle.tfm(b, lam))
            add(f"diag_stack/{T}{n}", n, lambda a=g1, b=g2: dstk.diag_stack(a, b), n,
                lambda lam, a=P1, b=P2: gen.block_diag(oracle.tfm(a, lam), oracle.tfm(b, lam)))
            P = gen.planted_system(n, 2, 3, d, rng)
            g = system(P)
            add(f"transpose_dual/{T}{n}", n, lambda g=g: dstk.transpose_dual(g), n,
                lambda lam, P=P: oracle.tfm(P, lam).T)
            add(f"conjugate/{T}{n}", n, lambda g=g: dstk.conjugate(g), n,
                lambda lam, P=P: oracle.tfm(P, -lam if P.domain == "continuous" else 1.0 / lam).T)
        for p, m, deg in ((2, 2, 2), (2, 3, 3), (3, 4, 4)):
            entries = gen.rational_entries(p, m, [[deg] * m] * p, d, rng)
            data = dstk.RationalMatrixData(p, m, entries)
            order = p * m * deg
            add(f"realize_rational/{T}{order}", order, lambda data=data, d=d: dstk.realize_rational(data, d), order,
                lambda lam, e=entries: _rational_value(e, lam))

    # kept faults: the doubled realizations at order 2 x 48 keep all 96 states
    frng = np.random.default_rng(FAULT_SEED)
    for d in DOMAINS:
        P = gen.planted_system(48, 2, 2, d, frng)
        g, gneg = system(P), system(negated(P))
        add(f"parallel_neg/{tag(d)}96", 96, lambda g=g, h=gneg: dstk.parallel(g, h), 0,
            lambda lam: np.zeros((2, 2)), fault="doubled-minreal")
        add(f"concat_col_self/{tag(d)}96", 96, lambda g=g: dstk.concat_col(g, g), 48,
            lambda lam, P=P: np.vstack([oracle.tfm(P, lam)] * 2), fault="doubled-minreal")
    return cases


def _rational_value(entries, lam):
    pv = np.polynomial.polynomial.polyval
    return np.array([[pv(lam, num) / pv(lam, den) for num, den in row] for row in entries])


# ---------------------------------------------------------------------------
# synthesis: decompositions, factorizations, equations, model matching


def synthesis_cases(rng):
    cases = []
    for d in DOMAINS:
        T = tag(d)
        region = dstk.stability_region(d)
        for n in (8, 24, 48, 64):
            P = gen.planted_system(n, 2, 2, d, rng, unstable=n // 2)
            g = system(P)
            cases.append(Case(f"additive_decompose/{T}{n}", n, lambda g=g, r=region: dstk.additive_decompose(g, r),
                              lambda res, P=P: oracle.check_additive(res, P)))
        for n in (8, 16, 32, 48):
            P = gen.planted_system(n, 2, 2, d, rng, strictly_proper=True)
            g = system(P)
            cases.append(Case(f"h2_norm/{T}{n}", n, lambda g=g: dstk.h2_norm(g), lambda res, P=P: oracle.check_h2(res, P)))
        # continuous coprime factors stay out: they raise PlacementFailure or
        # lose accuracy on a few seeds in a hundred even at orders 8 to 16
        coprime = ((dstk.rcf, 8, True), (dstk.rcf, 16, True), (dstk.lcf, 12, False)) if d == "discrete" else ()
        for fn, n, right in coprime:
            P = gen.planted_system(n, 2, 2, d, rng, unstable=n // 2)
            g = system(P)
            cases.append(Case(f"{fn.__name__}/{T}{n}", n, lambda g=g, r=region, fn=fn: fn(g, r),
                              lambda res, P=P, right=right: oracle.check_coprime(res, P, right)))
        for fn, n, co in ((dstk.inner_outer, 8, False), (dstk.inner_outer, 24, False), (dstk.inner_outer, 48, False),
                          (dstk.co_outer_co_inner, 16, True), (dstk.co_outer_co_inner, 48, True)):
            P = gen.planted_system(n, 2, 2, d, rng)
            g = system(P)
            cases.append(Case(f"{fn.__name__}/{T}{n}", n, lambda g=g, fn=fn: fn(g),
                              lambda res, P=P, co=co: oracle.check_inner_outer(res, P, co)))
        for n, p in ((8, 2), (24, 2), (8, 4), (16, 4)):
            PG = gen.planted_system(n, 2, p, d, rng)
            PF = gen.planted_system(n // 2, 1, p, d, rng, strictly_proper=d == "continuous")
            delta = gen.planted_system(2, 1, 2, d, rng, strictly_proper=d == "continuous")
            G, F = system(PG), system(PF)
            cases.append(Case(f"l2_model_match/{T}{n}p{p}", n, lambda G=G, F=F: dstk.l2_model_match(G, F),
                              lambda res, PG=PG, PF=PF, dl=delta: oracle.check_model_match(
                                  res[0], res[1].error_norm, PG, PF, dl)))
        for n in (8, 24):
            PG = gen.planted_system(n, 2, 2, d, rng)
            PF = gen.planted_system(n // 2, 2, 2, d, rng)
            G, F = system(PG), system(PF)
            cases.append(Case(f"solve_right/{T}{n}", n, lambda G=G, F=F: dstk.solve_right(G, F).particular,
                              lambda res, PG=PG, PF=PF: oracle.check_solve(res, PG, PF)))
        nulls = ((8, False), (16, False), (8, True)) if d == "discrete" else ((4, False), (4, True))
        for n, left in nulls:
            P = gen.planted_system(n, 2, 3, d, rng) if left else gen.planted_system(n, 3, 2, d, rng)
            g = system(P)
            fn = dstk.left_nullspace if left else dstk.right_nullspace
            cases.append(Case(f"{fn.__name__}/{T}{n}", n, lambda g=g, fn=fn: fn(g),
                              lambda res, P=P, left=left: oracle.check_nullspace(res, P, left)))

    # kept faults: continuous right nullspace at order 20 and rcf at order 48
    frng = np.random.default_rng(FAULT_SEED)
    P = gen.planted_system(20, 3, 2, "continuous", frng)
    g = system(P)
    cases.append(Case("right_nullspace/c20", 20, lambda: dstk.right_nullspace(g),
                      lambda res: oracle.check_nullspace(res, P), fault="poly-nullspace"))
    P = gen.planted_system(48, 2, 2, "continuous", frng, unstable=24)
    g = system(P)
    region = dstk.stability_region("continuous")
    cases.append(Case("rcf/c48", 48, lambda: dstk.rcf(g, region),
                      lambda res: oracle.check_coprime(res, P), fault="placement"))
    return cases


def build(workload, seed, workdir):
    rng = np.random.default_rng(seed)
    if workload == "structure":
        return structure_cases(rng, workdir)
    if workload == "reduce":
        return reduce_cases(rng)
    if workload == "synthesis":
        return synthesis_cases(rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("structure", "reduce", "synthesis")
