import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import assert_same_tfm, oracle_points, safe_eval

from dstk.analysis import (
    StabilityRegion,
    is_minimum_phase,
    is_stable,
    mcmillan_degree,
    minreal,
    normal_rank,
    poles,
    stability_region,
    zeros,
)
from dstk.exceptions import (
    BoundaryZeros,
    DstkError,
    ImproperInput,
    IterationFailure,
    PoleOnBoundary,
    RankDeficiencyUnsupported,
    RegionInvalid,
    UnstableInput,
)
from dstk.factor import additive_decompose, co_outer_co_inner, inner_outer, lcf, rcf
from dstk.factor import _bernoulli, _inner_outer_thin, _riccati_gain, _riccati_schur, _standard_stable_data
from dstk.kernels import _schur_ordered
from dstk.ops import parallel, transpose_dual
from dstk.system import TimeDomain, eval_tfm, make_system, random_system

LHP = StabilityRegion.left_half_plane()
DISK = StabilityRegion.unit_disk()


def lag(a=1.0, domain="continuous"):
    return make_system([[-a]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], domain)


def unstable_lag(a=1.0):
    """1/(s-a)."""
    return make_system([[a]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")


def stable_clean_system(rng, domain, n, m, p):
    """Random stable system suitable for the restricted inner-outer scope."""
    region = stability_region(domain)
    while True:
        g = random_system(n, m, p, domain, proper=True, stable=True, rng=rng)
        if normal_rank(g) < m:
            continue
        if domain == "continuous" and np.linalg.matrix_rank(g.D.T @ g.D) < m:
            continue
        zz = zeros(g)
        if any(region.boundary_distance(z) <= 1e-6 * (1.0 + abs(z)) for z in zz.finite):
            continue
        return g


class TestAdditive:
    def test_all_stable(self, rng):
        pair = additive_decompose(lag(), LHP)
        assert pair.second.n == 0 and not pair.second.D.any()
        assert_same_tfm(pair.first, lag(), rng)

    def test_partial_fractions(self, rng):
        # 2s/(s^2-1) = 1/(s+1) + 1/(s-1)
        G = parallel(lag(), unstable_lag())
        pair = additive_decompose(G, LHP)
        assert np.allclose(poles(pair.first).finite, [-1.0], atol=1e-8)
        assert np.allclose(poles(pair.second).finite, [1.0], atol=1e-8)
        assert_same_tfm(pair.first, lag(), rng)
        assert_same_tfm(pair.second, unstable_lag(), rng)

    def test_sum_identity_and_degree(self, rng):
        for _ in range(5):
            g = random_system(int(rng.integers(1, 6)), 2, 2, "continuous", rng=rng)
            try:
                pair = additive_decompose(g, LHP)
            except PoleOnBoundary:
                continue
            for lam in oracle_points(rng, 5):
                lam, a = safe_eval(g, lam, rng)
                s = eval_tfm(pair.first, lam) + eval_tfm(pair.second, lam)
                assert np.linalg.norm(s - a) <= 1e-8 * (1 + np.linalg.norm(a))
            assert mcmillan_degree(pair.first) + mcmillan_degree(pair.second) == mcmillan_degree(g)
            region_poles = poles(pair.first).finite
            assert all(LHP.contains(z) for z in region_poles)
            assert all(not LHP.contains(z) for z in poles(pair.second).finite)

    def test_stable_unstable_split_strictly_proper_unstable_part(self, rng):
        # continuous-time: the unstable projection is strictly proper (the
        # feedthrough goes with the stable part)
        G = parallel(make_system([[-2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]], "continuous"), unstable_lag(0.5))
        pair = additive_decompose(G, LHP)
        assert not pair.second.D.any()
        assert np.allclose(pair.first.D, G.D)
        assert_same_tfm(
            pair.first,
            minreal(parallel(G, make_system([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], "continuous"))),
            rng,
        )  # G - 1/(s-0.5)

    def test_pole_on_boundary(self):
        integ = make_system([[0.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
        with pytest.raises(PoleOnBoundary):
            additive_decompose(integ, LHP)

    def test_improper_policy(self, rng):
        gs = make_system(np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
        with pytest.raises(PoleOnBoundary):
            additive_decompose(gs, LHP)
        pair = additive_decompose(gs, LHP, improper_to_bad=True)
        assert poles(pair.second).infinite_count == 1
        for lam in oracle_points(rng, 4):
            s = eval_tfm(pair.first, lam) + eval_tfm(pair.second, lam)
            assert abs(s[0, 0] - lam) <= 1e-8 * (1 + abs(lam))

    @pytest.mark.parametrize("seed", [168, 60, 264])
    def test_improper_split_sums_to_input(self, seed):
        # a degree-3 infinite divisor leaves one zero and two ~1e-8 QZ betas
        # in minreal's output; read as large finite poles, they used to put
        # a wrong block into Gg (seeds 168, 60) or stop the decoupling (264)
        r = np.random.default_rng(50000 + seed)
        n, m, p = r.integers(2, 40), r.integers(1, 4), r.integers(1, 4)
        g = random_system(n, m, p, "continuous", proper=False, rng=r)
        pair = additive_decompose(g, LHP, improper_to_bad=True)
        total = parallel(pair.first, pair.second)
        for t in (0.4, 1.3, 2.2, -0.9, -2.7):
            lam = 1.3 * np.exp(1j * t)
            X = np.linalg.solve(g.A - lam * g.E, g.B)
            scale = np.linalg.norm(g.D) + np.linalg.norm(g.C) * np.linalg.norm(X)
            assert np.linalg.norm(eval_tfm(total, lam) - (g.C @ X + g.D)) <= 1e-8 * scale
        good, ninf = poles(pair.first), poles(g).infinite_count
        assert good.infinite_count == 0 and all(LHP.contains(z) for z in good.finite)
        assert ninf > 0 and poles(pair.second).infinite_count == ninf

    def test_improper_discrete_to_bad_automatically(self, rng):
        g = random_system(4, 1, 1, "discrete", proper=False, rng=rng)
        pair = additive_decompose(g, DISK)
        assert poles(pair.second).infinite_count >= 1
        assert poles(pair.first).infinite_count == 0


class TestCoprime:
    def test_stable_proper_keeps_m_identity(self, rng):
        g = random_system(3, 2, 2, "continuous", proper=True, stable=True, rng=rng)
        pair = rcf(g, LHP)
        # no dislocation needed: M(inf) = I and M == I as a TFM
        for lam in oracle_points(rng, 3):
            assert np.allclose(eval_tfm(pair.second, lam), np.eye(2), atol=1e-9)

    def test_scalar_dislocation_with_pole_set(self, rng):
        g = unstable_lag()
        pair = rcf(g, LHP, pole_set=[-1.0])
        assert np.allclose(poles(pair.first).finite, [-1.0], atol=1e-8)
        assert np.allclose(poles(pair.second).finite, [-1.0], atol=1e-8)
        for lam in oracle_points(rng, 5):
            lam, nv = safe_eval(pair.first, lam, rng)
            mv = eval_tfm(pair.second, lam)
            gv = eval_tfm(g, lam)
            assert np.linalg.norm(nv @ np.linalg.inv(mv) - gv) <= 1e-8 * (1 + np.linalg.norm(gv))

    def test_discrete_disk(self, rng):
        g = make_system([[2.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "discrete")  # 1/(z-2)
        pair = rcf(g, DISK)
        assert all(abs(z) < 1 - 1e-8 for z in poles(pair.first).finite)
        assert all(abs(z) < 1 - 1e-8 for z in poles(pair.second).finite)
        for lam in oracle_points(rng, 4, radius=3.0):
            lam, nv = safe_eval(pair.first, lam, rng)
            assert abs(nv[0, 0] / eval_tfm(pair.second, lam)[0, 0] - eval_tfm(g, lam)[0, 0]) < 1e-8

    def test_improper_input(self, rng):
        gs = make_system(np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
        pair = rcf(gs, LHP)
        info_n = poles(pair.first)
        info_m = poles(pair.second)
        assert info_n.infinite_count == 0 and info_m.infinite_count == 0
        assert all(LHP.contains(z) for z in info_n.finite + info_m.finite)
        lam = 1.7j
        assert abs(eval_tfm(pair.first, lam)[0, 0] / eval_tfm(pair.second, lam)[0, 0] - lam) < 1e-8

    def test_lcf_duality(self, rng):
        g = random_system(3, 2, 2, "continuous", rng=rng)
        pair = lcf(g, LHP)
        ref = rcf(transpose_dual(g), LHP)
        assert_same_tfm(pair.first, transpose_dual(ref.first), rng)
        for lam in oracle_points(rng, 4):
            lam, nv = safe_eval(pair.first, lam, rng)
            mv = eval_tfm(pair.second, lam)
            gv = eval_tfm(g, lam)
            assert np.linalg.norm(np.linalg.inv(mv) @ nv - gv) <= 1e-8 * (1 + np.linalg.norm(gv))

    def test_random_batch(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 5))
            g = random_system(n, 2, 2, "continuous" if rng.uniform() < 0.5 else "discrete", rng=rng)
            region = stability_region(g.domain)
            pair = rcf(g, region)
            for fac in (pair.first, pair.second):
                info = poles(fac)
                assert info.infinite_count == 0
                assert all(region.boundary_distance(z) > 1e-8 and region.contains(z) for z in info.finite)
            for lam in oracle_points(rng, 3):
                lam, nv = safe_eval(pair.first, lam, rng)
                mv = eval_tfm(pair.second, lam)
                gv = eval_tfm(g, lam)
                assert np.linalg.norm(nv @ np.linalg.inv(mv) - gv) <= 1e-8 * (1 + np.linalg.norm(gv))

    def test_bad_pole_set(self):
        with pytest.raises(RegionInvalid):
            rcf(unstable_lag(), LHP, pole_set=[2.0])

    @pytest.mark.parametrize("fn", [rcf, lcf], ids=["rcf", "lcf"])
    @pytest.mark.parametrize(
        "n, domain, proper, seed",
        [(40, "continuous", True, s) for s in range(10)]
        + [(24, d, False, s) for d in ("continuous", "discrete") for s in range(3)]
        + [(24, "discrete", True, s) for s in range(3)],
        ids=[str(s) for s in range(10)]
        + [f"improper-{d}-24-{s}" for d in ("continuous", "discrete") for s in range(3)]
        + [f"discrete-24-{s}" for s in range(3)],
    )
    def test_continuous_order_40(self, fn, n, domain, proper, seed):
        # continuous proper inputs at order 40, and improper inputs in both
        # domains and discrete proper ones at order 24
        g = random_system(n, 2, 2, domain, proper=proper, rng=np.random.default_rng(1000 * seed + n))
        region = stability_region(domain)
        pair = fn(g, region)
        for fac in (pair.first, pair.second):
            info = poles(fac)
            assert info.infinite_count == 0 and all(region.contains(z) for z in info.finite)
        # probes in the right half-plane and outside |z| = 1.6, away from
        # every factor pole and every discrete pole of G: the mirrored
        # closed loops reach state-matrix norms near 5e6, and eval_tfm's
        # conditioning guard refuses some left half-plane points
        for lam in (1.5 + 1.0j, 0.5 + 2.0j):
            nv, mv, gv = eval_tfm(pair.first, lam), eval_tfm(pair.second, lam), eval_tfm(g, lam)
            q = nv @ np.linalg.inv(mv) if fn is rcf else np.linalg.solve(mv, nv)
            assert np.linalg.norm(q - gv) <= 1e-8 * np.linalg.norm(gv)

    @pytest.mark.parametrize(
        "region, domain, good, bad",
        [
            (LHP, "continuous", [-1.0], [2.0, 0.5 + 1.0j, 0.5 - 1.0j]),
            (StabilityRegion.half_plane(-2.0), "continuous", [-3.0], [-1.0, 1.0 + 2.0j, 1.0 - 2.0j]),
            (DISK, "discrete", [0.5], [2.0, -3.0, 1.0 + 1.0j, 1.0 - 1.0j]),
            (StabilityRegion.disk(0.5), "discrete", [0.2], [0.8, -1.0, 0.3 + 0.6j, 0.3 - 0.6j]),
        ],
        ids=["lhp", "half-plane", "unit-disk", "disk"],
    )
    def test_default_targets_are_reflections(self, rng, region, domain, good, bad):
        blocks = []
        for z in good + [z for z in bad if z.imag >= 0]:
            z = complex(z)
            blocks.append([[z.real]] if z.imag == 0 else [[z.real, z.imag], [-z.imag, z.real]])
        A = sla.block_diag(*blocks)
        n = A.shape[0]
        g = make_system(A, None, rng.normal(size=(n, 2)), rng.normal(size=(2, n)), np.zeros((2, 2)), domain)
        got = list(poles(rcf(g, region).second).finite)
        assert len(got) == len(bad)
        for z in bad:
            want = region.reflect(z)
            i = int(np.argmin([abs(w - want) for w in got]))
            assert abs(got.pop(i) - want) <= 1e-8

    def test_conjugate_pole_set(self):
        g = make_system([[1.0, 2.0], [0.0, 3.0]], None, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
        pair = rcf(g, LHP, pole_set=[-1.0 + 1.0j, -1.0 - 1.0j])
        got = sorted(poles(pair.second).finite, key=lambda z: z.imag)
        assert np.allclose(got, [-1.0 - 1.0j, -1.0 + 1.0j], rtol=0.0, atol=1e-8)

    def test_unplaceable_pole_sets(self):
        g = make_system([[1.0, 2.0], [0.0, 3.0]], None, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
        with pytest.raises(RegionInvalid):
            rcf(g, LHP, pole_set=[-1.0 + 1.0j, -2.0])  # unpaired complex target
        with pytest.raises(RegionInvalid):
            rcf(g, LHP, pole_set=[-1.0, -1.0])  # repeated more than rank(B) = 1 times


def test_import_leaves_scipy_signal_unloaded():
    # rcf imports scipy.signal only for an explicit pole_set
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = "import sys, dstk; assert 'scipy.signal' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]


def inner_grid_error(Q, region, count=20):
    err = 0.0
    for lam in region.boundary_points(count):
        Qv = eval_tfm(Q, lam)
        err = max(err, np.abs(Qv.conj().T @ Qv - np.eye(Qv.shape[1])).max())
    return err


def assert_riccati_matches_scipy(A, B, Qc, Sc, Rc, domain, tol=1e-10):
    """``_riccati_schur``'s ``X`` and ``F`` agree with scipy's to ``tol`` relative."""
    X, F, _ = _riccati_schur(A, B, Qc, Sc, Rc, domain)
    if domain is TimeDomain.CONTINUOUS:
        Xs = sla.solve_continuous_are(A, B, Qc, Rc, s=Sc)
        Fs = -np.linalg.solve(Rc, B.T @ Xs + Sc.T)
    else:
        Xs = sla.solve_discrete_are(A, B, Qc, Rc, s=Sc)
        Fs = -np.linalg.solve(Rc + B.T @ Xs @ B, B.T @ Xs @ A + Sc.T)
    assert np.linalg.norm(X - Xs) <= tol * (1 + np.linalg.norm(Xs))
    assert np.linalg.norm(F - Fs) <= tol * (1 + np.linalg.norm(Fs))


class TestInnerOuter:
    def test_already_inner(self, rng):
        # (s-1)/(s+1): conjugate times itself is the identity
        g = make_system([[-1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], "continuous")
        pair = inner_outer(g)
        assert pair.inner_columns == 1
        for lam in oracle_points(rng, 4):
            assert abs(eval_tfm(pair.second, lam)[0, 0] - 1.0) < 1e-9
        assert inner_grid_error(pair.first, LHP) < 1e-8

    def test_golden_outer_factor(self, rng):
        # (s-1)/(s+2) = [(s-1)/(s+1)] * [(s+1)/(s+2)]
        g = make_system([[-2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]], "continuous")
        pair = inner_outer(g)
        for lam in oracle_points(rng, 5):
            want = (lam + 1.0) / (lam + 2.0)
            assert abs(eval_tfm(pair.second, lam)[0, 0] - want) < 1e-8
        assert is_minimum_phase(pair.second) and is_stable(pair.second)
        assert inner_grid_error(pair.first, LHP) < 1e-8

    def test_static_orthonormal(self):
        D = np.array([[0.6], [0.8]])
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 1)), np.zeros((2, 0)), D, "continuous")
        pair = inner_outer(g)
        Q = pair.first.D
        assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-12)
        assert np.allclose(Q[:, :1] @ pair.second.D, D, atol=1e-12)

    def test_co_outer_co_inner_static(self):
        D = np.array([[0.6, 0.8, 0.0]])
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 3)), np.zeros((1, 0)), D, "continuous")
        pair = co_outer_co_inner(g)
        assert pair.kind == "co-outer-co-inner"
        Q = pair.second.D
        assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)
        assert np.allclose(pair.first.D @ Q[: pair.inner_columns, :], D, atol=1e-12)

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_random_batch(self, rng, domain):
        region = stability_region(domain)
        for _ in range(4):
            m = int(rng.integers(1, 3))
            p = m + int(rng.integers(0, 3))
            g = stable_clean_system(rng, domain, int(rng.integers(1, 5)), m, p)
            pair = inner_outer(g)
            Q, R = pair.first, pair.second
            assert Q.p == Q.m == p
            assert inner_grid_error(Q, region) < 1e-8
            assert is_minimum_phase(R) and is_stable(R)
            assert normal_rank(R) == m
            for lam in oracle_points(rng, 3):
                lam, qv = safe_eval(Q, lam, rng)
                gv = eval_tfm(g, lam)
                rv = eval_tfm(R, lam)
                assert np.linalg.norm(qv[:, :m] @ rv - gv) <= 1e-8 * (1 + np.linalg.norm(gv))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_square_inner_order_16(self, seed):
        # the completion Q2 inverts an observability Gramian of condition up
        # to ~1e20 here; it keeps |Q*Q - I| at 1e-7 to 2e-5 only with an
        # exact Kronecker solve for that Gramian
        g = random_system(16, 2, 3, "continuous", stable=True, rng=np.random.default_rng(1000 * seed + 16))
        Q = inner_outer(g).first
        assert Q.p == Q.m == 3
        assert Q.n <= 16  # [Q1 Q2] on the thin factor's own states
        for z in LHP.boundary_points(5):
            q = eval_tfm(Q, z)
            assert np.abs(q.conj().T @ q - np.eye(3)).max() <= 1e-4

    def test_co_variant_random(self, rng):
        g = transpose_dual(stable_clean_system(rng, "continuous", 3, 1, 2))
        pair = co_outer_co_inner(g)
        r = pair.inner_columns
        assert pair.second.n <= g.n
        for lam in oracle_points(rng, 3):
            lam, qv = safe_eval(pair.second, lam, rng)
            rv = eval_tfm(pair.first, lam)
            gv = eval_tfm(g, lam)
            assert np.linalg.norm(rv @ qv[:r, :] - gv) <= 1e-8 * (1 + np.linalg.norm(gv))

    def test_riccati_against_scipy(self, rng):
        for domain in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE):
            n, m = 4, 2
            A = rng.normal(size=(n, n))
            if domain is TimeDomain.CONTINUOUS:
                A -= (np.linalg.eigvals(A).real.max() + 1.0) * np.eye(n)
            else:
                A *= 0.5 / np.abs(np.linalg.eigvals(A)).max()
            B = rng.normal(size=(n, m))
            C = rng.normal(size=(3, n))
            D = rng.normal(size=(3, m))
            Qc, Sc, Rc = C.T @ C, C.T @ D, D.T @ D + np.eye(m)
            X, F, _ = _riccati_schur(A, B, Qc, Sc, Rc, domain)
            if domain is TimeDomain.CONTINUOUS:
                Xs = sla.solve_continuous_are(A, B, Qc, Rc, s=Sc)
                Fs = -np.linalg.solve(Rc, B.T @ Xs + Sc.T)
            else:
                Xs = sla.solve_discrete_are(A, B, Qc, Rc, s=Sc)
                Fs = -np.linalg.solve(Rc + B.T @ Xs @ B, B.T @ Xs @ A + Sc.T)
            assert np.linalg.norm(X - Xs) <= 1e-7 * (1 + np.linalg.norm(Xs))
            assert np.linalg.norm(F - Fs) <= 1e-7 * (1 + np.linalg.norm(Fs))

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE], ids=["continuous", "discrete"])
    def test_riccati_order_40(self, domain):
        # the stable set of each domain's pencil (the reversed one in
        # discrete time) is the one selected at a real order
        rng = np.random.default_rng(40)
        n, m = 40, 2
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        if domain is TimeDomain.CONTINUOUS:
            A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
        else:
            A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
        B, C, D = rng.normal(size=(n, m)), rng.normal(size=(3, n)), rng.normal(size=(3, m))
        assert_riccati_matches_scipy(A, B, C.T @ C, C.T @ D, D.T @ D + np.eye(m), domain)

    @pytest.mark.parametrize("weighted", [False, True], ids=["zero_weight", "output_weight"])
    def test_riccati_discrete_nilpotent_order_48(self, weighted):
        # every pole of A is at z = 0; with zero state weight the closed loop
        # keeps them, so every stable eigenvalue mu = 1/z of the reversed
        # pencil is infinite and must still be selected
        rng = np.random.default_rng(48)
        n, m = 48, 2
        A = np.triu(rng.normal(size=(n, n)), 1) / np.sqrt(n)
        B, C, D = rng.normal(size=(n, m)), rng.normal(size=(3, n)), rng.normal(size=(3, m))
        if weighted:
            Qc, Sc, Rc = C.T @ C, C.T @ D, D.T @ D + np.eye(m)
        else:
            Qc, Sc, Rc = np.zeros((n, n)), np.zeros((n, m)), np.eye(m)
        assert_riccati_matches_scipy(A, B, Qc, Sc, Rc, TimeDomain.DISCRETE)

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE], ids=["continuous", "discrete"])
    def test_riccati_singular_pencil_is_refused(self, domain):
        # an all-zero problem has a singular extended pencil: without a
        # regularity probe the split count (continuous) or the singular gain
        # weight (discrete, where the pencil still yields n stable directions)
        # refuses it with a typed error
        n, m = 2, 1
        with pytest.raises(IterationFailure):
            _riccati_schur(np.zeros((n, n)), np.zeros((n, m)), np.zeros((n, n)), np.zeros((n, m)), np.zeros((m, m)), domain)

    @pytest.mark.parametrize("fn", [inner_outer, co_outer_co_inner])
    @pytest.mark.parametrize("a, domain", [(-1e-10, "continuous"), (1.0 - 1e-10, "discrete")])
    def test_near_boundary_pole_is_unstable(self, fn, a, domain):
        # a pole within BOUNDARY_TOL of the boundary is unstable here as it
        # is for is_stable
        g = make_system([[a]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], domain)
        assert not is_stable(g)
        with pytest.raises(UnstableInput):
            fn(g)

    def test_errors(self, rng):
        gs = make_system(np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
        with pytest.raises(ImproperInput):
            inner_outer(gs)
        with pytest.raises(UnstableInput):
            inner_outer(unstable_lag())
        # s/(s+1) has a zero on the imaginary axis
        gz = make_system([[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], "continuous")
        with pytest.raises(BoundaryZeros):
            inner_outer(gz)
        # 1 + c / (z - 0.5) has its zero at z = 0.5 + c: 1 and -1 here
        for c in (0.5, -1.5):
            gz = make_system([[0.5]], [[1.0]], [[1.0]], [[c]], [[1.0]], "discrete")
            for fn in (inner_outer, co_outer_co_inner):
                with pytest.raises(BoundaryZeros):
                    fn(gz)
        # rank-deficient TFM: two identical columns
        g = stable_clean_system(rng, "continuous", 2, 1, 2)
        from dstk.ops import concat_row

        gg = concat_row(g, g)
        with pytest.raises(RankDeficiencyUnsupported):
            inner_outer(gg)

    @pytest.mark.parametrize("cond", [1.0, 10.0])
    @pytest.mark.parametrize("n", [8, 24, 48])
    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_zero_dynamics_riccati_matches_pencil(self, domain, n, cond):
        # for a square G with invertible D the Riccati solution from one Schur
        # form of A + B D^-1 C agrees with the extended pencil's
        g = random_system(n, 2, 2, domain, stable=True, rng=np.random.default_rng(2000 + n))
        U = np.linalg.qr(np.random.default_rng(2).normal(size=(2, 2)))[0]
        g = minreal(make_system(g.A, g.E, g.B, g.C, U @ np.diag([1.0, 1.0 / cond]) @ U.T, domain))
        A, B, C, D = g.A, g.B, g.C, g.D
        Bd = B @ np.linalg.inv(D)
        zd = (*_schur_ordered(A + Bd @ C, stability_region(domain).contains), Bd)
        assert zd[3] < g.n  # some zero is antistable: the Lyapunov equation is not empty
        weights = (A, B, C.T @ C, -C.T @ D, D.T @ D)
        X, F, _ = _riccati_gain(*weights, _bernoulli(zd, g.domain), g.domain)
        Xp, Fp, _ = _riccati_schur(*weights, g.domain)
        assert np.linalg.norm(X - Xp) <= 1e-8 * np.linalg.norm(Xp)
        assert np.linalg.norm(F - Fp) <= 1e-8 * np.linalg.norm(Fp)
        if n < 48:
            return
        q1, R = _inner_outer_thin(g, None, zd, _standard_stable_data(g, None)[3])
        region = stability_region(domain)
        for lam in region.boundary_points(8):
            q = eval_tfm(q1, lam)
            assert np.linalg.norm(q.conj().T @ q - np.eye(2)) <= 1e-8
        for lam in oracle_points(np.random.default_rng(n), 4):
            resolvent = np.linalg.solve(A - lam * np.eye(g.n), B)
            gv = C @ resolvent + D
            scale = np.linalg.norm(D) + np.linalg.norm(C) * np.linalg.norm(resolvent)
            assert np.linalg.norm(eval_tfm(q1, lam) @ eval_tfm(R, lam) - gv) <= 1e-8 * scale

    @pytest.mark.parametrize(
        "c",
        [
            1.0,
            1e-3,
            pytest.param(
                1e-6,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=RankDeficiencyUnsupported,
                    reason="ROADMAP item 22: the feedthrough cuts are floored at max(sigma_max(D), 1) and "
                    "max(w_max, 1), so a small scale of G alone is refused",
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_feedthrough_scale(self, domain, c):
        # c G has the inner factor of G and the outer factor c R: the scale of
        # the input alone should not decide the feedthrough's rank
        g = random_system(8, 2, 2, domain, stable=True, rng=np.random.default_rng(5))
        h = make_system(g.A, g.E, c * g.B, g.C, c * g.D, domain)
        pair = inner_outer(h)
        for lam in oracle_points(np.random.default_rng(8), 3):
            hv = h.C @ np.linalg.solve(h.A - lam * h.E, h.B) + h.D
            qr = eval_tfm(pair.first, lam)[:, :2] @ eval_tfm(pair.second, lam)
            assert np.linalg.norm(qr - hv) <= 1e-12 * np.linalg.norm(hv)
        for lam in stability_region(domain).boundary_points(6):
            q = eval_tfm(pair.first, lam)
            assert np.linalg.norm(q.conj().T @ q - np.eye(2)) <= 1e-12

    def test_tiny_square_feedthrough_is_inner_or_refused(self):
        # a square D below the column-rank cut takes the pencil path, not the
        # zero-dynamics one on B D^-1 of norm ~1e12, whose Q read max |Q*Q - I|
        # of 4.1e-9, 2.4e-6, 5.1e-5 and 1.8e-2 on the unit circle
        g = random_system(8, 2, 2, "discrete", stable=True, rng=np.random.default_rng(101))
        for e in (1e-6, 1e-8, 1e-10, 1e-12):
            h = make_system(g.A, g.E, g.B, g.C, e * np.random.default_rng(8).normal(size=(2, 2)), "discrete")
            try:
                Q = inner_outer(h).first
            except DstkError:
                continue
            for lam in np.exp(2j * np.pi * np.arange(64) / 64):
                q = Q.C @ np.linalg.solve(Q.A - lam * Q.E, Q.B) + Q.D
                assert np.abs(q.conj().T @ q - np.eye(2)).max() <= 1e-8, e

    @pytest.mark.parametrize("n, s, e", [(8, 2, 1e-8), (16, 4, 1e-12)])
    def test_square_feedthrough_below_the_rank_cut_is_inner(self, n, s, e):
        # only a full-rank square D takes the zero-dynamics path: through it,
        # (8, 2, 1e-8) gave a Q of order 8 at max |Q*Q - I| = 4.9e-7, and
        # (16, 4, 1e-12) a Riccati residual too large to accept
        g = random_system(n, 2, 2, "discrete", stable=True, rng=np.random.default_rng(100 * s + n))
        h = make_system(g.A, g.E, g.B, g.C, e * np.random.default_rng(8 + s).normal(size=(2, 2)), "discrete")
        pair = inner_outer(h)
        for lam in oracle_points(np.random.default_rng(8), 3):
            hv = h.C @ np.linalg.solve(h.A - lam * h.E, h.B) + h.D
            qr = eval_tfm(pair.first, lam)[:, :2] @ eval_tfm(pair.second, lam)
            assert np.linalg.norm(qr - hv) <= 1e-8 * np.linalg.norm(hv)
        Q = pair.first
        for lam in np.exp(2j * np.pi * np.arange(64) / 64):
            q = Q.C @ np.linalg.solve(Q.A - lam * Q.E, Q.B) + Q.D
            assert np.abs(q.conj().T @ q - np.eye(2)).max() <= 1e-12
