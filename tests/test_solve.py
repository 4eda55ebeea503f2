import numpy as np
import pytest
import scipy.linalg

from conftest import oracle_points, safe_eval

from dstk import solve
from dstk.analysis import h2_norm, is_stable, normal_rank, poles, stability_region
from dstk.exceptions import ImproperInput, Incompatible, IterationFailure, NonstrictlyProperF, UnstableInput, UnsupportedShape
from dstk.ops import RationalMatrixData, concat_col, concat_row, conjugate, realize_rational, series, transpose_dual
from dstk.solve import l2_model_match, left_nullspace, right_nullspace, solve_left, solve_right
from dstk.system import eval_tfm, make_system, random_system


def lag(a=1.0, domain="continuous"):
    return make_system([[-a]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], domain)


def static(D, domain="continuous"):
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p, m = D.shape
    return make_system(np.zeros((0, 0)), None, np.zeros((0, m)), np.zeros((p, 0)), D, domain)


def rational(entries, p, m, domain="continuous"):
    return realize_rational(RationalMatrixData(p, m, entries), domain)


def match_error(G, F, X):
    """``||F - G X||_2`` of stable proper systems, from a standard realization
    assembled here and a scipy Lyapunov solve."""

    def standard(s):
        return np.linalg.solve(s.E, s.A), np.linalg.solve(s.E, s.B), s.C, s.D

    (Af, Bf, Cf, Df), (Ag, Bg, Cg, Dg), (Ax, Bx, Cx, Dx) = standard(F), standard(G), standard(X)
    nf, ng, nx = Af.shape[0], Ag.shape[0], Ax.shape[0]
    # states (xF, xG, xX); with the convention C (A - lam E)^-1 B + D the
    # series coupling enters A with a minus sign
    A = np.zeros((nf + ng + nx, nf + ng + nx))
    A[:nf, :nf] = Af
    A[nf : nf + ng, nf : nf + ng] = Ag
    A[nf : nf + ng, nf + ng :] = -Bg @ Cx
    A[nf + ng :, nf + ng :] = Ax
    B = np.vstack([Bf, Bg @ Dx, Bx])
    C = np.hstack([Cf, -Cg, -Dg @ Cx])
    D = Df - Dg @ Dx
    if F.domain.value == "continuous":
        assert np.linalg.norm(D) <= 1e-9 * (1.0 + np.linalg.norm(F.D))
        P = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
        return float(np.sqrt(np.trace(C @ P @ C.T)))
    P = scipy.linalg.solve_discrete_lyapunov(A, B @ B.T)
    return float(np.sqrt(np.trace(C @ P @ C.T) + np.sum(D * D)))


def rank_deficient_system(rng, p, m, r, domain="continuous"):
    """Random p x m system of normal rank r, built as an outer product."""
    left = random_system(int(rng.integers(0, 4)), r, p, domain, rng=rng)
    right = random_system(int(rng.integers(0, 4)), m, r, domain, rng=rng)
    return series(left, right)


class TestNullspaces:
    def test_full_rank_empty(self, rng):
        assert left_nullspace(lag()).p == 0
        assert right_nullspace(lag()).m == 0

    def test_symmetric_stack(self, rng):
        g = rational([[([1.0], [1.0, 1.0])], [([1.0], [1.0, 1.0])]], 2, 1)
        nl = left_nullspace(g)
        assert nl.p == 1 and nl.m == 2
        v = eval_tfm(nl, 1.3 + 0.4j).ravel()
        assert abs(v[0] + v[1]) <= 1e-10 * (1 + abs(v[0]))

    def test_one_and_s_column(self, rng):
        g = rational([[([1.0], [1.0])], [([0.0, 1.0], [1.0])]], 2, 1)
        nl = left_nullspace(g)
        assert nl.p == 1
        info = poles(nl)
        assert info.infinite_count == 0  # proper
        assert all(stability_region("continuous").contains(z) for z in info.finite)
        for lam in oracle_points(rng, 5):
            lam, nv = safe_eval(nl, lam, rng)
            gv = eval_tfm(g, lam)
            assert np.abs(nv @ gv).max() <= 1e-8 * (1 + np.abs(nv).max()) * (1 + np.abs(gv).max())

    def test_one_and_s_row(self, rng):
        g = rational([[([1.0], [1.0]), ([0.0, 1.0], [1.0])]], 1, 2)
        nr = right_nullspace(g)
        assert nr.p == 2 and nr.m == 1
        for lam in oracle_points(rng, 5):
            lam, w = safe_eval(nr, lam, rng)
            gv = eval_tfm(g, lam)
            assert np.abs(gv @ w).max() <= 1e-8 * (1 + np.abs(w).max()) * (1 + np.abs(gv).max())

    def test_dimension_law_and_independence(self, rng):
        for _ in range(6):
            p = int(rng.integers(2, 4))
            m = int(rng.integers(2, 4))
            r = int(rng.integers(1, min(p, m)))
            dom = "continuous" if rng.uniform() < 0.5 else "discrete"
            g = rank_deficient_system(rng, p, m, r, dom)
            rr = normal_rank(g)
            nl = left_nullspace(g)
            nr = right_nullspace(g)
            assert nl.p == p - rr
            assert nr.m == m - rr
            assert normal_rank(nl) == nl.p
            assert normal_rank(nr) == nr.m
            for lam in oracle_points(rng, 3):
                lam, gv = safe_eval(g, lam, rng)
                lv = eval_tfm(nl, lam)
                rv = eval_tfm(nr, lam)
                scale = (1 + np.abs(gv).max())
                assert np.abs(lv @ gv).max() <= 1e-8 * scale * (1 + np.abs(lv).max())
                assert np.abs(gv @ rv).max() <= 1e-8 * scale * (1 + np.abs(rv).max())


    @staticmethod
    def assert_basis(N, G, n, rng, left=False, stable=True):
        """Order at most n, annihilates G at oracle probes, full rank there,
        proper and, when ``stable``, stable."""
        assert N.n <= n
        for lam in oracle_points(rng, 4):
            lam, nv = safe_eval(N, lam, rng)
            gv = eval_tfm(G, lam)
            res = nv @ gv if left else gv @ nv
            scale = (1 + np.linalg.norm(gv)) * (1 + np.linalg.norm(nv))
            assert np.linalg.norm(res) <= 1e-8 * scale
            sv = np.linalg.svd(nv, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]
        assert poles(N).infinite_count == 0
        assert not stable or is_stable(N)

    @pytest.mark.parametrize(
        "domain,n",
        [("continuous", 20), ("continuous", 30), ("continuous", 40), ("discrete", 40), ("discrete", 60)],
    )
    def test_high_order_right(self, rng, domain, n):
        g = random_system(n, 4, 2, domain, rng=np.random.default_rng(n))
        nr = right_nullspace(g)
        assert (nr.p, nr.m) == (4, 2)
        self.assert_basis(nr, g, n, rng)

    def test_high_order_left(self, rng):
        g = random_system(30, 2, 4, "continuous", rng=np.random.default_rng(30))
        nl = left_nullspace(g)
        assert (nl.p, nl.m) == (2, 4)
        self.assert_basis(nl, g, 30, rng, left=True)

    @pytest.mark.parametrize("s", [0, 4])
    def test_rank_deficient_product_basis_or_refusal(self, rng, s):
        # G = G1 G2 is 3 x 3 of normal rank 2; where the staircase misses its
        # right Kronecker block, an empty basis would be silently wrong
        r = np.random.default_rng(1000 * s + 16)
        G = series(random_system(8, 2, 3, "continuous", rng=r), random_system(8, 3, 2, "continuous", rng=r))
        try:
            nr = right_nullspace(G)
        except IterationFailure:
            return
        assert (nr.p, nr.m) == (3, 1)
        self.assert_basis(nr, G, G.n, rng)

    def test_solve_right_high_order_basis(self, rng):
        G = series(random_system(10, 2, 3, "continuous", rng=rng), random_system(10, 4, 2, "continuous", rng=rng))
        F = series(G, random_system(2, 1, 4, "continuous", rng=rng))
        basis = solve_right(G, F).null_basis
        assert (basis.p, basis.m) == (4, 2)
        # solve_right's basis is proper but not stabilized; right_nullspace stabilizes it
        self.assert_basis(basis, G, G.n, rng, stable=False)
        self.assert_basis(right_nullspace(G), G, G.n, rng)


class TestSolve:
    def test_identity(self, rng):
        F = random_system(3, 2, 2, "continuous", rng=rng)
        res = solve_right(static(np.eye(2)), F)
        for lam in oracle_points(rng, 4):
            lam, x = safe_eval(res.particular, lam, rng)
            assert np.allclose(x, eval_tfm(F, lam), atol=1e-9 * (1 + np.abs(x).max()))

    def test_scalar_golden(self, rng):
        G = lag(1.0)
        F = series(lag(1.0), lag(2.0))
        res = solve_right(G, F)
        # X0 == 1/(s+2) as a TFM
        for lam in oracle_points(rng, 4):
            lam, x = safe_eval(res.particular, lam, rng)
            assert abs(x[0, 0] - 1.0 / (lam + 2.0)) < 1e-9

    def test_incompatible_static(self):
        G = static([[1.0], [0.0]])
        F = static([[0.0], [1.0]])
        with pytest.raises(Incompatible):
            solve_right(G, F)

    def test_incompatible_dynamic(self, rng):
        g = rank_deficient_system(rng, 3, 2, 1)
        F = random_system(2, 1, 3, "continuous", rng=rng)  # generically not in range
        with pytest.raises(Incompatible):
            solve_right(g, F)

    def test_random_compatible(self, rng):
        for _ in range(5):
            dom = "continuous" if rng.uniform() < 0.5 else "discrete"
            G = random_system(int(rng.integers(0, 4)), 2, int(rng.integers(2, 4)), dom, rng=rng)
            Xt = random_system(int(rng.integers(0, 4)), int(rng.integers(1, 3)), 2, dom, rng=rng)
            F = series(G, Xt)
            res = solve_right(G, F)
            for lam in oracle_points(rng, 5):
                lam, gv = safe_eval(G, lam, rng)
                xv = eval_tfm(res.particular, lam)
                fv = eval_tfm(F, lam)
                assert np.linalg.norm(gv @ xv - fv) <= 1e-8 * (1 + np.linalg.norm(fv))
            assert res.null_basis.m == G.m - normal_rank(G)

    @pytest.mark.parametrize("dom", ["continuous", "discrete"])
    def test_annihilated_ones_direction(self, rng, dom):
        # G = [g -g] and its dual annihilate the all-ones vector; the pivoted
        # QR picks rows and columns, so no core mixes g with -g
        g = random_system(3, 1, 3, dom, rng=rng)
        neg = make_system(g.A, g.E, g.B, -g.C, -g.D, dom)
        G = concat_row(g, neg)
        F = series(G, random_system(2, 1, 2, dom, rng=rng))
        X = solve_right(G, F).particular
        Gl = transpose_dual(G)
        Fl = series(random_system(2, 2, 1, dom, rng=rng), Gl)
        Xl = solve_left(Gl, Fl).particular
        for lam in oracle_points(rng, 4):
            lam, gv = safe_eval(G, lam, rng)
            fv, flv = eval_tfm(F, lam), eval_tfm(Fl, lam)
            assert np.linalg.norm(gv @ eval_tfm(X, lam) - fv) <= 1e-8 * (1 + np.linalg.norm(fv))
            assert np.linalg.norm(eval_tfm(Xl, lam) @ gv.T - flv) <= 1e-8 * (1 + np.linalg.norm(flv))

    def test_solve_left_duality(self, rng):
        G = random_system(2, 3, 2, "continuous", rng=rng)
        Xt = random_system(2, 2, 2, "continuous", rng=rng)
        F = series(Xt, G)
        res = solve_left(G, F)
        for lam in oracle_points(rng, 4):
            lam, xv = safe_eval(res.particular, lam, rng)
            gv = eval_tfm(G, lam)
            fv = eval_tfm(F, lam)
            assert np.linalg.norm(xv @ gv - fv) <= 1e-8 * (1 + np.linalg.norm(fv))


def _dense(g, lam):
    """``C (A - lam E)^-1 B + D`` by one dense complex solve."""
    return g.C @ np.linalg.solve(g.A - lam * g.E, g.B) + g.D


_POINTS = [0.4 + 1.3j, -0.7 + 0.5j, 1.6 - 2.2j, -1.1 - 0.6j]


def _wide(n, s):
    """Continuous 2 x 3 ``G`` of order ``n`` from ``default_rng(1000 s + n)``, and ``F = G X``
    with ``X`` drawn from the same generator."""
    r = np.random.default_rng(1000 * s + n)
    G = random_system(n, 3, 2, "continuous", rng=r)
    return G, series(G, random_system(4, 1, 3, "continuous", rng=r))


def assert_solves(G, X, F, left=False):
    """``G X = F`` (``X G = F`` when ``left``) normwise to 1e-8 at four points, by dense solves."""
    for lam in _POINTS:
        gv, xv, fv = _dense(G, lam), _dense(X, lam), _dense(F, lam)
        res = (xv @ gv if left else gv @ xv) - fv
        assert np.linalg.norm(res) <= 1e-8 * (np.linalg.norm(gv) * np.linalg.norm(xv) + np.linalg.norm(fv))


class TestWideSolve:
    # the kernel block of a wide G of order n >= 40 has one input and about
    # n/2 unstable poles, which right_nullspace's Riccati refuses to move;
    # solve_right needs no stable basis, so that refusal cannot reach it

    @pytest.mark.parametrize("s", [0, 1, 2])
    @pytest.mark.parametrize("n", [40, 48])
    def test_solve_right(self, n, s):
        G, F = _wide(n, s)
        res = solve_right(G, F)
        assert_solves(G, res.particular, F)
        N = res.null_basis
        assert (N.p, N.m) == (3, 1)
        for lam in _POINTS:
            gv, nv = _dense(G, lam), _dense(N, lam)
            assert np.linalg.norm(gv @ nv) <= 1e-12 * np.linalg.norm(gv) * np.linalg.norm(nv)
            sv = np.linalg.svd(nv, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]
        assert poles(N).infinite_count == 0

    def test_solve_left(self):
        G, F = _wide(48, 0)
        Gt, Ft = transpose_dual(G), transpose_dual(F)
        assert_solves(Gt, solve_left(Gt, Ft).particular, Ft, left=True)

    @pytest.mark.parametrize("n", [40, 48])
    def test_refused_stabilization_names_its_step(self, n):
        g = random_system(n, 3, 2, "continuous", rng=np.random.default_rng(n))
        with pytest.raises(IterationFailure, match="^nullspace stabilization: Riccati"):
            right_nullspace(g)

    @pytest.mark.parametrize("s", [18, 90, 150, 230, 248])
    def test_refused_nullspace_corpus_solves(self, s):
        # systems of the nullspace corpus of ROADMAP item 18 whose basis
        # right_nullspace refuses to stabilize
        r = np.random.default_rng(10000 + s)
        n, m = int(r.integers(2, 41)), int(r.integers(2, 5))
        g = random_system(n, m, int(r.integers(1, m)), "continuous", proper=(s // 2) % 2 != 0, rng=r)
        F = series(g, random_system(3, 1, m, "continuous", rng=np.random.default_rng(s)))
        with pytest.raises(IterationFailure, match="^nullspace stabilization"):
            right_nullspace(g)
        assert_solves(g, solve_right(g, F).particular, F)


class TestModelMatch:
    def test_exact_match(self, rng):
        g = lag()
        X, parts = l2_model_match(g, g)
        assert parts.error_norm == 0.0
        for lam in oracle_points(rng, 3):
            assert abs(eval_tfm(X, lam)[0, 0] - 1.0) < 1e-9

    @pytest.mark.parametrize("c, deficient", [(1e4, False), (1e6, True), (1e9, True)])
    def test_feedthrough_rank_decided_once(self, c, deficient, monkeypatch):
        # D = U diag(1, 1/c) U^T: the zeros-at-infinity branch (the square
        # particular solution) or the inner-outer compression, never a
        # refusal of D^T D inside the compression
        rng = np.random.default_rng(3)
        G = random_system(8, 2, 2, "continuous", stable=True, rng=rng)
        U = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        G = make_system(G.A, G.E, G.B, G.C, U @ np.diag([1.0, 1.0 / c]) @ U.T, "continuous")
        F = random_system(4, 2, 2, "continuous", stable=True, rng=rng)
        F = make_system(F.A, F.E, F.B, F.C, np.zeros((2, 2)), "continuous")
        calls = []
        for name in ("_particular", "_inner_outer_thin"):
            real = getattr(solve, name)
            monkeypatch.setattr(solve, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        try:
            error = l2_model_match(G, F)[1].error_norm
            assert error == 0.0 if deficient else error <= 1e-8
        except IterationFailure:
            assert c == 1e9  # the particular solution's certificate refuses it
        assert calls == (["_particular"] if deficient else ["_inner_outer_thin"])

    def test_zero_target(self):
        g = make_system([[-1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], "continuous")
        X, parts = l2_model_match(g, static([[0.0]]))
        assert parts.error_norm <= 1e-12
        assert X.n == 0 and not X.D.any()

    def test_inner_golden(self, rng):
        # G = (s-1)/(s+1) inner, F = 1/(s+1): wholly antistable compressed
        # target, X = 0 and the error norm is ||1/(s-1)||_2 = 1/sqrt(2)
        g = make_system([[-1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], "continuous")
        f = lag()
        X, parts = l2_model_match(g, f)
        for lam in oracle_points(rng, 3):
            assert np.abs(eval_tfm(X, lam)).max() < 1e-9
        assert abs(parts.error_norm - 1.0 / np.sqrt(2.0)) < 1e-3
        # quadrature cross-check of the achieved error on a frequency grid
        w = np.logspace(-4, 4, 2001)
        err = []
        for wi in w:
            E = eval_tfm(f, 1j * wi) - eval_tfm(g, 1j * wi) @ eval_tfm(X, 1j * wi)
            err.append(np.linalg.norm(E, "fro") ** 2)
        quad = np.sqrt(2.0 * np.trapezoid(err, w) / (2.0 * np.pi))
        assert abs(parts.error_norm - quad) < 1e-3
        # stable/antistable split certificate
        assert parts.stable_part.n == 0 and not parts.stable_part.D.any()
        assert np.allclose(poles(parts.antistable_part).finite, [1.0], atol=1e-8)

    def test_optimality_certificate(self, rng):
        # Q1~ (F - G X) equals the antistable remainder at probe points
        g = make_system([[-2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]], "continuous")  # (s-1)/(s+2)
        f = series(lag(1.0), lag(3.0))
        X, parts = l2_model_match(g, f)
        assert is_stable(X)
        from dstk.factor import inner_outer

        io = inner_outer(g)
        q1 = io.first
        for lam in oracle_points(rng, 4):
            lam, xval = safe_eval(X, lam, rng)
            E = eval_tfm(f, lam) - eval_tfm(g, lam) @ xval
            lhs = eval_tfm(conjugate(q1), lam)[: io.inner_columns, :] @ E
            rhs = eval_tfm(parts.antistable_part, lam)
            assert np.linalg.norm(lhs - rhs) <= 1e-7 * (1 + np.linalg.norm(rhs))

    def test_error_norm_monotonicity(self, rng):
        g = make_system([[-2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]], "continuous")
        f = series(lag(1.0), lag(3.0))
        X, parts = l2_model_match(g, f)
        f_norm = h2_norm(f)
        assert parts.error_norm <= f_norm + 1e-12

    def test_wide_target(self, rng):
        # p > m: the part of F outside the range of G contributes to the error
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        g = make_system(A, np.eye(2), [[1.0], [0.5]], [[1.0, 0.0], [0.2, 1.0]], [[1.0], [0.4]], "continuous")
        f = concat_col(lag(1.0), lag(3.0))
        X, parts = l2_model_match(g, f)
        assert is_stable(X)
        assert abs(parts.error_norm - match_error(g, f, X)) <= 1e-8 * parts.error_norm
        assert parts.error_norm > 0

    def test_discrete_error_norm_against_quadrature(self, rng):
        # the causal projection in discrete time includes the zeroth Fourier
        # coefficient of the antistable part; both the solution and the
        # reported norm are checked against a unit-circle quadrature
        made = 0
        while made < 3:
            g = random_system(3, 1, 2, "discrete", proper=True, stable=True, rng=rng)
            if normal_rank(g) < 1:
                continue
            if any(stability_region("discrete").boundary_distance(z) < 1e-6 for z in poles(g).finite):
                continue
            f = random_system(2, 2, 2, "discrete", proper=True, stable=True, rng=rng)
            made += 1
            X, parts = l2_model_match(g, f)
            assert is_stable(X)
            th = np.linspace(0.0, 2.0 * np.pi, 2001, endpoint=False)
            tot = sum(
                np.linalg.norm(eval_tfm(f, np.exp(1j * t)) - eval_tfm(g, np.exp(1j * t)) @ eval_tfm(X, np.exp(1j * t)), "fro") ** 2
                for t in th
            )
            quad = np.sqrt(tot / len(th))
            assert abs(parts.error_norm - quad) <= 2e-3 * (1.0 + quad)

    @pytest.mark.parametrize(
        "n, m, p, domain, g_seed, f_seed",
        [
            # tall G of order 20 and a 4 x 1 target of order 10
            (20, 2, 4, "discrete", 20, 10),
            # the item-10 corpus of ROADMAP.md at n = 32, s = 3
            (32, 2, 4, "continuous", 3032, 3039),
        ],
        ids=["discrete-20", "continuous-32"],
    )
    def test_error_norm_is_the_residual_norm(self, n, m, p, domain, g_seed, f_seed):
        G = random_system(n, m, p, domain, stable=True, rng=np.random.default_rng(g_seed))
        F = random_system(n // 2, 1, p, domain, stable=True, rng=np.random.default_rng(f_seed))
        if domain == "continuous":
            F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), domain)
        X, parts = l2_model_match(G, F)
        assert is_stable(X)
        want = match_error(G, F, X)
        assert abs(parts.error_norm - want) <= 1e-8 * want

    @pytest.mark.parametrize("a, domain", [(-1e-10, "continuous"), (1.0 - 1e-10, "discrete")])
    def test_near_boundary_pole_is_unstable(self, a, domain):
        # G and F are held to the stability rule of is_stable, margin included
        near = make_system([[a]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], domain)
        g = make_system([[-0.5]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], domain)
        with pytest.raises(UnstableInput):
            l2_model_match(near, lag(0.5, domain))
        with pytest.raises(UnstableInput):
            l2_model_match(g, make_system([[a]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], domain))

    def test_errors(self, rng):
        g = make_system([[-1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], "continuous")
        with pytest.raises(UnstableInput):
            l2_model_match(make_system([[1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous"), lag())
        improper = make_system(np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
        with pytest.raises(ImproperInput):
            l2_model_match(improper, lag())
        with pytest.raises(NonstrictlyProperF):
            l2_model_match(g, g)
        wide = concat_col(g, g)  # 2x1 rank 1: fine
        tall_deficient = series(wide, transpose_dual(wide))  # 2x2 rank 1
        with pytest.raises(UnsupportedShape):
            l2_model_match(tall_deficient, concat_col(lag(), lag()))
