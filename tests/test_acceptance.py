"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every tolerance is pinned here; the random families use a fixed seed so runs
are reproducible.
"""

import json
import subprocess
import sys

import numpy as np

from conftest import oracle_points

from test_pencil import assemble, finite_block, infinite_block, right_block

from dstk.analysis import (
    h2_norm,
    is_minimum_phase,
    minimality_report,
    minreal,
    normal_rank,
    poles,
    stability_region,
    zeros,
)
from dstk.cli import format_system, parse_system, run, write_system
from dstk.exceptions import EvalAtPole, Incompatible, NotInvertibleTFM
from dstk.factor import inner_outer, lcf, rcf
from dstk.kernels import rank_tol
from dstk.ops import (
    RationalMatrixData,
    concat_col,
    concat_row,
    conjugate,
    diag_stack,
    inverse,
    parallel,
    realize_rational,
    series,
    transpose_dual,
)
from dstk.pencil import klf, pencil_normal_rank
from dstk.solve import l2_model_match, left_nullspace, right_nullspace, solve_right
from dstk.system import apply_similarity, eval_tfm, make_system, random_system

SEED = 31415


def _report(num, ok, text):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def _rand_sys(rng, nmax=8, mixed_domain=True, allow_improper=True):
    n = int(rng.integers(0, nmax + 1))
    proper = n < 2 or not allow_improper or rng.uniform() < 0.6
    dom = "continuous" if (not mixed_domain or rng.uniform() < 0.5) else "discrete"
    m = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    return random_system(n, m, p, dom, proper=proper, rng=rng)


def _tfm_close(got, want, rtol=1e-8):
    return np.linalg.norm(got - want) <= rtol * (1.0 + np.linalg.norm(want))


def test_criterion_1_tfm_equivalence_master_suite(rng):
    """Every realization operation and minreal agrees with the oracle."""
    rng = np.random.default_rng(SEED)
    checked = 0
    for case in range(200):
        g = _rand_sys(rng)
        pts = oracle_points(rng, 5)

        def probe(sys_out, expect_fn):
            nonlocal checked
            for lam in pts:
                try:
                    want = expect_fn(lam)
                    got = eval_tfm(sys_out, lam)
                except EvalAtPole:
                    continue
                assert _tfm_close(got, want), f"case {case}"
                checked += 1

        gv = lambda lam: eval_tfm(g, lam)
        probe(transpose_dual(g), lambda lam: gv(lam).T)
        if g.domain.value == "continuous":
            probe(conjugate(g), lambda lam: gv(-lam).T)
        else:
            probe(conjugate(g), lambda lam: gv(1.0 / lam).T)
        h = random_system(int(rng.integers(0, 5)), int(rng.integers(1, 4)), g.m, g.domain, rng=rng)
        probe(series(g, h), lambda lam: gv(lam) @ eval_tfm(h, lam))
        h2 = random_system(int(rng.integers(0, 5)), g.m, g.p, g.domain, rng=rng)
        probe(parallel(g, h2), lambda lam: gv(lam) + eval_tfm(h2, lam))
        h3 = random_system(int(rng.integers(0, 5)), g.m, int(rng.integers(1, 4)), g.domain, rng=rng)
        probe(concat_col(g, h3), lambda lam: np.vstack([gv(lam), eval_tfm(h3, lam)]))
        h4 = random_system(int(rng.integers(0, 5)), int(rng.integers(1, 4)), g.p, g.domain, rng=rng)
        probe(concat_row(g, h4), lambda lam: np.hstack([gv(lam), eval_tfm(h4, lam)]))

        def diag_expect(lam):
            a, b = gv(lam), eval_tfm(h, lam)
            out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
            out[: a.shape[0], : a.shape[1]] = a
            out[a.shape[0] :, a.shape[1] :] = b
            return out

        probe(diag_stack(g, h), diag_expect)
        if g.p == g.m:
            try:
                probe(inverse(g), lambda lam: np.linalg.inv(gv(lam)))
            except NotInvertibleTFM:
                pass
        probe(minreal(g), gv)
        if case % 20 == 0:
            entries = [
                [
                    (list(rng.normal(size=int(rng.integers(1, 3)))), list(np.r_[rng.normal(size=1), 1.0]))
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            data = RationalMatrixData(2, 2, entries)
            rsys = realize_rational(data, g.domain)
            pv = np.polynomial.polynomial.polyval
            probe(
                rsys,
                lambda lam: np.array(
                    [[pv(lam, entries[i][j][0]) / pv(lam, entries[i][j][1]) for j in range(2)] for i in range(2)]
                ),
            )
    _report(1, checked > 5000, f"TFM equivalence on 200 random systems ({checked} probe checks, rtol 1e-8)")


def test_criterion_2_minimality_compliance():
    """minreal output passes all five minimality conditions; the pre-padding
    order is recovered in at least 95 percent of the generic cases."""
    rng = np.random.default_rng(SEED + 1)
    exact = 0
    for case in range(100):
        base = _rand_sys(rng, nmax=5)
        gmin = minreal(base)
        n0 = gmin.n
        A, E, B, C, D = (np.array(gmin.A), np.array(gmin.E), np.array(gmin.B), np.array(gmin.C), np.array(gmin.D))
        kind = case % 3
        k = int(rng.integers(1, 3))
        if kind == 0:  # unreachable block
            A2 = rng.normal(size=(k, k)) - 2 * np.eye(k)
            A = np.block([[A, rng.normal(size=(n0, k))], [np.zeros((k, n0)), A2]])
            E = np.block([[E, np.zeros((n0, k))], [np.zeros((k, n0)), np.eye(k)]])
            B = np.vstack([B, np.zeros((k, B.shape[1]))])
            C = np.hstack([C, rng.normal(size=(C.shape[0], k))])
        elif kind == 1:  # unobservable block
            A2 = rng.normal(size=(k, k)) - 2 * np.eye(k)
            A = np.block([[A, np.zeros((n0, k))], [rng.normal(size=(k, n0)), A2]])
            E = np.block([[E, np.zeros((n0, k))], [np.zeros((k, n0)), np.eye(k)]])
            B = np.vstack([B, rng.normal(size=(k, B.shape[1]))])
            C = np.hstack([C, np.zeros((C.shape[0], k))])
        else:  # non-dynamic modes, feedthrough compensated
            B2 = rng.normal(size=(k, B.shape[1]))
            C2 = rng.normal(size=(C.shape[0], k))
            A = np.block([[A, np.zeros((n0, k))], [np.zeros((k, n0)), np.eye(k)]])
            E = np.block([[E, np.zeros((n0, k))], [np.zeros((k, n0)), np.zeros((k, k))]])
            B = np.vstack([B, B2])
            C = np.hstack([C, C2])
            D = D - C2 @ B2
        padded = make_system(A, E, B, C, D, gmin.domain)
        n_pad = padded.n
        Q, _ = np.linalg.qr(rng.normal(size=(n_pad, n_pad)))
        Z, _ = np.linalg.qr(rng.normal(size=(n_pad, n_pad)))
        padded = apply_similarity(padded, Q, Z)
        red = minreal(padded)
        rep = minimality_report(red)
        assert rep.minimal, f"case {case}: {rep}"
        for lam in oracle_points(rng, 3):
            try:
                want = eval_tfm(gmin, lam)
                got = eval_tfm(red, lam)
            except EvalAtPole:
                continue
            assert _tfm_close(got, want), f"case {case}: TFM drift"
        if red.n == n0:
            exact += 1
    _report(2, exact >= 95, f"five minimality conditions hold on 100 padded systems; exact order recovery {exact}/100")


def test_criterion_3_pole_zero_identity():
    """n_p = n_z + n_l + n_r exactly, including the hand-built cases."""
    rng = np.random.default_rng(SEED + 2)
    gs = make_system(np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
    zz = zeros(gs)
    assert poles(gs).total == 1 and zz.total == 1 and zz.kronecker_ranks == (0, 0)
    row = realize_rational(
        RationalMatrixData(1, 2, [[([1.0], [1.0]), ([0.0, 1.0], [1.0])]]), "continuous"
    )
    zz = zeros(row)
    assert poles(row).total == 1 and zz.total == 0 and zz.kronecker_ranks == (1, 0)
    for case in range(100):
        g = _rand_sys(rng, nmax=6)
        if rng.uniform() < 0.3:  # force rank deficiency
            h = random_system(int(rng.integers(0, 3)), g.p, g.p, g.domain, rng=rng)
            g = series(concat_col(h, h), g) if rng.uniform() < 0.5 else concat_col(g, g)
        zp = poles(g)
        zz = zeros(g)
        assert zp.total == zz.total + zz.kronecker_ranks[0] + zz.kronecker_ranks[1], f"case {case}"
    _report(3, True, "pole/zero count identity exact on 100 random systems plus hand cases")


def test_criterion_4_pencil_suite():
    """Staircase orthogonality, rank agreement, and the bidiagonal block."""
    rng = np.random.default_rng(SEED + 3)
    _, _, _, _, ks = klf([[0.0, 1.0]], [[1.0, 0.0]])
    assert ks.right_indices == [1]
    worst = 0.0
    for case in range(100):
        style = case % 3
        if style == 0:
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            M, N = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        elif style == 1:
            m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            r = int(rng.integers(1, min(m, n)))
            M = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            N = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        else:
            blocks = [right_block(int(rng.integers(0, 3)))]
            if rng.uniform() < 0.8:
                blocks.append(finite_block([float(rng.normal())]))
            blocks.append(infinite_block(int(rng.integers(1, 4))))
            if rng.uniform() < 0.5:
                blocks.append(tuple(x.T for x in right_block(int(rng.integers(0, 3)))))
            M, N = assemble(blocks, rng)
        Mk, Nk, U, V, ks = klf(M, N)
        dim = max(M.shape)
        worst = max(
            worst,
            np.linalg.norm(U.T @ U - np.eye(M.shape[0])) / dim,
            np.linalg.norm(V.T @ V - np.eye(M.shape[1])) / dim,
        )
        assert pencil_normal_rank(M, N) == ks.normal_rank, f"case {case}"
    _report(4, worst <= 1e-12, f"klf orthogonality {worst:.2e} <= 1e-12*dim and rank agreement on 100 pencils")


def test_criterion_5_factorization_suite():
    """Coprime factor pole containment plus inner-outer certificates."""
    rng = np.random.default_rng(SEED + 4)
    oracle_fail = 0
    for case in range(50):
        n = int(rng.integers(1, 6))
        dom = "continuous" if case % 2 == 0 else "discrete"
        proper = n < 2 or rng.uniform() < 0.7
        g = random_system(n, 2, 2, dom, proper=proper, rng=rng)
        region = stability_region(dom)
        pair = rcf(g, region) if case % 2 == 0 else lcf(g, region)
        for fac in (pair.first, pair.second):
            info = poles(fac)
            assert info.infinite_count == 0, f"case {case}"
            assert all(region.contains(z) and region.boundary_distance(z) > 1e-8 for z in info.finite), f"case {case}"
        for lam in oracle_points(rng, 3):
            try:
                nv = eval_tfm(pair.first, lam)
                mv = eval_tfm(pair.second, lam)
                gvv = eval_tfm(g, lam)
            except EvalAtPole:
                continue
            recon = nv @ np.linalg.inv(mv) if pair.kind == "rcf" else np.linalg.inv(mv) @ nv
            if not _tfm_close(recon, gvv):
                oracle_fail += 1
    assert oracle_fail == 0

    grid_worst = 0.0
    for case in range(30):
        dom = "continuous" if case % 2 == 0 else "discrete"
        region = stability_region(dom)
        m = int(rng.integers(1, 3))
        p = m + int(rng.integers(0, 3))
        while True:
            g = random_system(int(rng.integers(1, 5)), m, p, dom, proper=True, stable=True, rng=rng)
            if normal_rank(g) < m:
                continue
            if dom == "continuous" and rank_tol(g.D.T @ g.D) < m:
                continue
            if any(region.boundary_distance(z) < 1e-6 for z in zeros(g).finite):
                continue
            break
        pair = inner_outer(g)
        assert is_minimum_phase(pair.second), f"case {case}"
        for lam in region.boundary_points(20):
            Qv = eval_tfm(pair.first, lam)
            grid_worst = max(grid_worst, np.abs(Qv.conj().T @ Qv - np.eye(p)).max())
    _report(
        5,
        grid_worst <= 1e-8,
        f"rcf/lcf on 50 systems (poles in region, oracle 1e-8); inner grid error {grid_worst:.2e} on 30 systems",
    )


def test_criterion_6_scalar_golden_values():
    """Hand-derived scalar values at their stated tolerances."""
    lag = make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
    ok1 = abs(h2_norm(lag) - 0.7071068) <= 1e-6

    ginner = make_system([[-1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], "continuous")  # (s-1)/(s+1)
    X, parts = l2_model_match(ginner, lag)
    ok2 = abs(parts.error_norm - 0.7071) <= 1e-3 and X.n == 0 and not X.D.any()
    w = np.logspace(-4, 4, 2001)
    err = [
        np.linalg.norm(eval_tfm(lag, 1j * wi) - eval_tfm(ginner, 1j * wi) @ eval_tfm(X, 1j * wi), "fro") ** 2
        for wi in w
    ]
    quad = np.sqrt(2.0 * np.trapezoid(err, w) / (2.0 * np.pi))
    ok2 = ok2 and abs(parts.error_norm - quad) <= 1e-3

    g2 = make_system([[-2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]], "continuous")  # (s-1)/(s+2)
    io = inner_outer(g2)
    rng = np.random.default_rng(SEED + 5)
    ok3 = all(
        abs(eval_tfm(io.second, lam)[0, 0] - (lam + 1.0) / (lam + 2.0)) <= 1e-8
        for lam in oracle_points(rng, 5)
    )
    _report(
        6,
        ok1 and ok2 and ok3,
        f"golden values: h2={h2_norm(lag):.7f}, ldp error={parts.error_norm:.4f} (quadrature {quad:.4f}), outer factor matches",
    )


def test_criterion_7_solver_suite():
    """Linear-equation residuals, incompatibility detection, dimension law."""
    rng = np.random.default_rng(SEED + 6)
    for case in range(50):
        dom = "continuous" if rng.uniform() < 0.5 else "discrete"
        G = random_system(int(rng.integers(0, 4)), 2, int(rng.integers(2, 4)), dom, rng=rng)
        Xt = random_system(int(rng.integers(0, 4)), int(rng.integers(1, 3)), 2, dom, rng=rng)
        F = series(G, Xt)
        res = solve_right(G, F)
        for lam in oracle_points(rng, 3):
            try:
                gvv = eval_tfm(G, lam)
                xv = eval_tfm(res.particular, lam)
                fv = eval_tfm(F, lam)
            except EvalAtPole:
                continue
            assert _tfm_close(gvv @ xv, fv), f"case {case}"

    raised = 0
    for case in range(20):
        r = 1 + case % 2
        left = random_system(int(rng.integers(0, 3)), r, 3, "continuous", rng=rng)
        right = random_system(int(rng.integers(0, 3)), 2 + case % 2, r, "continuous", rng=rng)
        G = series(left, right)  # 3 x m, normal rank r < 3
        F = random_system(int(rng.integers(0, 3)), 1, 3, "continuous", rng=rng)
        try:
            solve_right(G, F)
        except Incompatible:
            raised += 1
    assert raised == 20, f"Incompatible raised {raised}/20"

    for case in range(50):
        p = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        r = int(rng.integers(1, min(p, m)))
        dom = "continuous" if rng.uniform() < 0.5 else "discrete"
        left = random_system(int(rng.integers(0, 4)), r, p, dom, rng=rng)
        right = random_system(int(rng.integers(0, 4)), m, r, dom, rng=rng)
        G = series(left, right)
        rr = normal_rank(G)
        assert left_nullspace(G).p == p - rr, f"case {case}"
        assert right_nullspace(G).m == m - rr, f"case {case}"
    _report(7, True, "solver residuals 1e-8 on 50 pairs, 20/20 incompatible raised, dimension law exact on 50")


GOLDEN_FILES = {
    "lag.dss": make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous"),
    "allpass_like.dss": make_system([[-2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]], "continuous"),
    "delay.dss": make_system([[0.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "discrete"),
}


def test_criterion_8_cli(tmp_path, capsys):
    """File round trips, seeded determinism, info against the library."""
    rng = np.random.default_rng(SEED + 7)
    for case in range(100):
        n = int(rng.integers(0, 7))
        g = random_system(
            n,
            int(rng.integers(1, 4)),
            int(rng.integers(1, 4)),
            "continuous" if rng.uniform() < 0.5 else "discrete",
            proper=n < 2 or rng.uniform() < 0.5,
            rng=rng,
        )
        g2 = parse_system(format_system(g))
        for k in "AEBCD":
            assert np.array_equal(getattr(g, k), getattr(g2, k)), f"case {case} block {k}"

    gpath = str(tmp_path / "lag.dss")
    write_system(gpath, GOLDEN_FILES["lag.dss"])
    cmd = [
        sys.executable,
        "-c",
        "import sys; from dstk.cli import run; sys.exit(run(sys.argv[1:]))",
        "info",
        gpath,
        "--seed",
        "7",
        "--out",
        "json",
    ]
    out1 = subprocess.run(cmd, capture_output=True, check=True).stdout
    out2 = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert out1 == out2 and out1, "seeded runs must be byte-identical"

    for name, g in GOLDEN_FILES.items():
        path = str(tmp_path / name)
        write_system(path, g)
        assert run(["info", path, "--out", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)["results"]
        info_p = poles(g)
        info_z = zeros(g)
        assert rep["mcmillan_degree"] == info_p.total, name
        assert rep["normal_rank"] == normal_rank(g), name
        assert [complex(z["re"], z["im"]) for z in rep["poles"]["finite"]] == info_p.finite, name
        assert [complex(z["re"], z["im"]) for z in rep["zeros"]["finite"]] == info_z.finite, name
        assert rep["poles"]["infinite"] == info_p.infinite_count, name
    _report(8, True, "CLI: 100 bit-exact round trips, byte-identical seeded runs, golden info reports")
