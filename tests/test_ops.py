import re
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_tfm, assert_tfm_match, oracle_points, ratval, safe_eval

from dstk.analysis import mcmillan_degree, minreal
from dstk.exceptions import (
    DimensionMismatch,
    DomainMismatch,
    NotInvertibleTFM,
    NotSquare,
    SingularD,
    ZeroDenominator,
)
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
from dstk.system import eval_tfm, make_system, random_system

LAG = dict(A=[[-1.0]], E=[[1.0]], B=[[1.0]], C=[[-1.0]], D=[[0.0]])


def lag(domain="continuous"):
    return make_system(LAG["A"], LAG["E"], LAG["B"], LAG["C"], LAG["D"], domain)


def static(D, domain="continuous"):
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p, m = D.shape
    return make_system(np.zeros((0, 0)), None, np.zeros((0, m)), np.zeros((p, 0)), D, domain)


def random_pair(rng, domain="continuous"):
    p1, m1 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    n1, n2 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    s1 = random_system(n1, m1, p1, domain, rng=rng)
    s2 = random_system(n2, int(rng.integers(1, 4)), m1, domain, rng=rng)
    return s1, s2


class TestDual:
    def test_static(self, rng):
        D = rng.normal(size=(2, 3))
        d = transpose_dual(static(D))
        assert np.array_equal(d.D, D.T)

    def test_scalar_identity(self, rng):
        g = lag()
        assert_same_tfm(transpose_dual(g), g, rng)

    def test_random_oracle(self, rng):
        g = random_system(3, 3, 2, "continuous", rng=rng)
        gd = transpose_dual(g)
        assert_tfm_match(gd, lambda lam: eval_tfm(g, lam).T, rng)

    def test_involution_bitwise(self, rng):
        g = random_system(3, 2, 2, "discrete", rng=rng)
        gg = transpose_dual(transpose_dual(g))
        for k in "AEBCD":
            assert np.array_equal(getattr(gg, k), getattr(g, k))


class TestCouplings:
    def test_series_identity_gain(self, rng):
        g = lag()
        assert_same_tfm(series(g, static([[1.0]])), g, rng)

    def test_series_lags(self):
        g2 = make_system([[-2.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
        s = series(lag(), g2)
        assert abs(eval_tfm(s, 0.0)[0, 0] - 0.5) < 1e-12

    def test_series_statics(self, rng):
        assert abs(eval_tfm(series(static([[2.0]]), static([[3.0]])), 1j)[0, 0] - 6.0) == 0.0

    def test_parallel_zero(self, rng):
        g = lag()
        assert_same_tfm(parallel(g, static([[0.0]])), g, rng)

    def test_parallel_partial_fractions(self):
        gp = make_system([[1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")  # 1/(s-1)
        s = parallel(gp, lag())
        assert abs(eval_tfm(s, 2.0)[0, 0] - 4.0 / 3.0) < 1e-12

    def test_parallel_statics(self, rng):
        D1 = rng.normal(size=(2, 2))
        D2 = rng.normal(size=(2, 2))
        assert np.allclose(eval_tfm(parallel(static(D1), static(D2)), 1j), D1 + D2)

    @pytest.mark.parametrize("op", [series, parallel])
    def test_coupling_oracle(self, rng, op):
        for _ in range(4):
            if op is series:
                s1, s2 = random_pair(rng)
            else:
                p, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                s1 = random_system(int(rng.integers(0, 5)), m, p, "continuous", rng=rng)
                s2 = random_system(int(rng.integers(0, 5)), m, p, "continuous", rng=rng)
            got = op(s1, s2)
            assert got.n == s1.n + s2.n
            if op is series:
                assert_tfm_match(got, lambda lam: eval_tfm(s1, lam) @ eval_tfm(s2, lam), rng)
            else:
                assert_tfm_match(got, lambda lam: eval_tfm(s1, lam) + eval_tfm(s2, lam), rng)

    def test_concat_oracles(self, rng):
        m = 2
        s1 = random_system(3, m, 2, "discrete", rng=rng)
        s2 = random_system(2, m, 1, "discrete", rng=rng)
        cc = concat_col(s1, s2)
        assert cc.n == s1.n + s2.n
        assert_tfm_match(cc, lambda lam: np.vstack([eval_tfm(s1, lam), eval_tfm(s2, lam)]), rng)
        s3 = random_system(3, 1, 2, "discrete", rng=rng)
        s4 = random_system(2, 3, 2, "discrete", rng=rng)
        cr = concat_row(s3, s4)
        assert_tfm_match(cr, lambda lam: np.hstack([eval_tfm(s3, lam), eval_tfm(s4, lam)]), rng)

    def test_concat_degenerate(self, rng):
        g = lag()
        empty_rows = make_system(np.zeros((0, 0)), None, np.zeros((0, 1)), np.zeros((0, 0)), np.zeros((0, 1)), "continuous")
        stacked = concat_col(g, empty_rows)
        assert stacked.p == 1
        assert_same_tfm(stacked, g, rng)
        empty_cols = make_system(np.zeros((0, 0)), None, np.zeros((0, 0)), np.zeros((1, 0)), np.zeros((1, 0)), "continuous")
        beside = concat_row(g, empty_cols)
        assert beside.m == 1
        assert_same_tfm(beside, g, rng)

    def test_diag_stack(self, rng):
        s1 = random_system(2, 1, 1, "continuous", rng=rng)
        s2 = random_system(3, 2, 2, "continuous", rng=rng)
        ds = diag_stack(s1, s2)

        def expect(lam):
            a = eval_tfm(s1, lam)
            b = eval_tfm(s2, lam)
            out = np.zeros((3, 3), dtype=complex)
            out[:1, :1] = a
            out[1:, 1:] = b
            return out

        assert_tfm_match(ds, expect, rng)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            series(lag("continuous"), lag("discrete"))

    def test_dimension_mismatch(self, rng):
        s1 = random_system(1, 2, 1, "continuous", rng=rng)
        s2 = random_system(1, 1, 1, "continuous", rng=rng)
        with pytest.raises(DimensionMismatch):
            series(s1, s2)
        with pytest.raises(DimensionMismatch):
            parallel(s1, s2)


class TestInverse:
    def test_static(self):
        inv = inverse(static([[2.0]]))
        assert abs(eval_tfm(inv, 1j)[0, 0] - 0.5) < 1e-14

    def test_general_mode(self, rng):
        g = lag()
        inv = inverse(g)
        assert inv.n == g.n + g.m
        assert abs(eval_tfm(inv, 1.0)[0, 0] - 2.0) < 1e-12
        assert_tfm_match(inv, lambda lam: np.linalg.inv(eval_tfm(g, lam)), rng)

    def test_d_inverse_mode(self, rng):
        # (s+2)/(s+1) has invertible D; its inverse keeps order 1
        g = make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[1.0]], "continuous")
        inv = inverse(g, mode="d-inverse")
        assert inv.n == 1
        assert_tfm_match(inv, lambda lam: np.atleast_2d((lam + 1.0) / (lam + 2.0)), rng)

    def test_product_is_identity(self, rng):
        g = random_system(3, 2, 2, "discrete", rng=rng)
        inv = inverse(g)
        for lam in oracle_points(rng, 4):
            lam, a = safe_eval(inv, lam, rng)
            prod = a @ eval_tfm(g, lam)
            assert np.linalg.norm(prod - np.eye(2)) < 1e-8

    @pytest.mark.parametrize("seed, domain", [(0, "continuous"), (2, "continuous"), (4, "discrete")])
    def test_improper_product_is_identity(self, seed, domain, rng):
        g = random_system(8, 2, 2, domain, proper=False, rng=np.random.default_rng(seed))
        assert_tfm_match(series(g, inverse(g)), lambda lam: np.eye(2), rng)

    def test_not_square(self, rng):
        with pytest.raises(NotSquare):
            inverse(random_system(2, 1, 2, "continuous", rng=rng))

    def test_rank_deficient(self, rng):
        with pytest.raises(NotInvertibleTFM):
            inverse(static(np.zeros((2, 2))))

    def test_singular_d(self):
        with pytest.raises(SingularD):
            inverse(lag(), mode="d-inverse")


class TestConjugate:
    def test_continuous_scalar(self, rng):
        cj = conjugate(lag())
        assert abs(eval_tfm(cj, 0.5)[0, 0] - 2.0) < 1e-12
        assert_tfm_match(cj, lambda lam: eval_tfm(lag(), -lam).T, rng)

    def test_static(self, rng):
        D = rng.normal(size=(2, 3))
        assert np.array_equal(conjugate(static(D)).D, D.T)

    def test_discrete_general_form(self, rng):
        # G(z) = 1/z through the order-(n+m) pencil form
        g = make_system([[0.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "discrete")
        cj = conjugate(g)
        assert abs(eval_tfm(cj, 2.0)[0, 0] - 2.0) < 1e-12

    def test_discrete_fast_path(self, rng):
        A = rng.normal(size=(3, 3))
        A *= 0.6 / np.abs(np.linalg.eigvals(A)).max()
        g = make_system(A, None, rng.normal(size=(3, 2)), rng.normal(size=(2, 3)), rng.normal(size=(2, 2)), "discrete")
        assert g.is_standard
        cj = conjugate(g)
        assert cj.n == g.n  # alternative realization keeps the order
        for lam in oracle_points(rng, 4):
            lam, a = safe_eval(cj, lam, rng)
            b = eval_tfm(g, 1.0 / lam).T
            assert np.linalg.norm(a - b) <= 1e-8 * (1 + np.linalg.norm(b))

    def test_discrete_order_n_for_invertible_A(self, rng):
        # an invertible A, however far from orthogonal, keeps the order-n
        # realization; a singular one falls back to the order-(n + m) pencil
        n, m, p = 24, 2, 3
        A = np.linalg.qr(rng.normal(size=(n, n)))[0] @ np.diag(np.logspace(-6, 0, n))
        B, C, D = rng.normal(size=(n, m)), rng.normal(size=(p, n)), rng.normal(size=(p, m))
        g = make_system(A.copy(), None, B, C, D, "discrete")
        cj = conjugate(g)
        assert cj.n == n and cj.is_standard
        for lam in oracle_points(rng, 4):
            w = 1.0 / lam
            want = (C @ np.linalg.solve(A - w * np.eye(n), B) + D).T
            assert np.linalg.norm(eval_tfm(cj, lam) - want) <= 1e-8 * (1 + np.linalg.norm(want))
        A[:, 0] = 0.0
        assert conjugate(make_system(A, None, B, C, D, "discrete")).n == n + m

    @pytest.mark.parametrize("singular", [False, True], ids=["invertible_E", "singular_E"])
    def test_discrete_descriptor_order_n_for_invertible_A(self, rng, singular):
        # with invertible A, any E gives the standard order-n realization
        # built on K = A^-T E^T; a singular E (an improper G) leaves its
        # infinite poles at z = 0 of the conjugate
        n, m, p = 12, 2, 3
        E = rng.normal(size=(n, n))
        if singular:
            E[:, :4] = E[:, 4:8] @ rng.normal(size=(4, 4))
        A, B, C, D = rng.normal(size=(n, n)), rng.normal(size=(n, m)), rng.normal(size=(p, n)), rng.normal(size=(p, m))
        cj = conjugate(make_system(A, E, B, C, D, "discrete"))
        assert cj.n == n and cj.is_standard
        for lam in oracle_points(rng, 4):
            w = 1.0 / lam
            want = (C @ np.linalg.solve(A - w * E, B) + D).T
            assert np.linalg.norm(eval_tfm(cj, lam) - want) <= 1e-10 * (1 + np.linalg.norm(want))
        A[:, 0] = 0.0
        assert conjugate(make_system(A, E, B, C, D, "discrete")).n == n + m

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_involution_oracle(self, rng, domain):
        g = random_system(3, 2, 2, domain, rng=rng)
        gcc = conjugate(conjugate(g))
        assert_same_tfm(gcc, g, rng)

    def test_discrete_oracle_random(self, rng):
        g = random_system(3, 1, 2, "discrete", rng=rng)
        cj = conjugate(g)
        for lam in oracle_points(rng, 5):
            lam, a = safe_eval(cj, lam, rng)
            b = eval_tfm(g, 1.0 / lam).T
            assert np.linalg.norm(a - b) <= 1e-8 * (1 + np.linalg.norm(b))


class TestRealizeRational:
    def test_constant_matrix(self, rng):
        D = rng.normal(size=(2, 2))
        data = RationalMatrixData(2, 2, [[(list(D[i, j : j + 1]), [1.0]) for j in range(2)] for i in range(2)])
        g = realize_rational(data, "continuous")
        assert g.n == 0
        assert np.allclose(g.D, D)

    def test_scalar_derivative(self):
        g = realize_rational(RationalMatrixData(1, 1, [[([0.0, 1.0], [1.0])]]), "continuous")
        assert g.n == 2
        assert abs(eval_tfm(g, 2.0)[0, 0] - 2.0) < 1e-12

    def test_scalar_lag(self):
        g = realize_rational(RationalMatrixData(1, 1, [[([1.0], [1.0, 1.0])]]), "continuous")
        assert g.n == 1
        assert abs(eval_tfm(g, 0.0)[0, 0] - 1.0) < 1e-12

    def test_matrix_against_direct_evaluation(self, rng):
        entries = [
            [([1.0, 2.0], [2.0, 0.0, 1.0]), ([0.0, 0.0, 3.0], [1.0])],
            [([1.0], [1.0, 1.0]), ([5.0], [1.0])],
        ]
        data = RationalMatrixData(2, 2, entries)
        g = realize_rational(data, "continuous")
        for lam in oracle_points(rng, 7):
            want = np.array([[ratval(*entries[i][j], lam) for j in range(2)] for i in range(2)])
            got = eval_tfm(g, lam)
            assert np.linalg.norm(got - want) <= 1e-8 * (1 + np.linalg.norm(want))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            realize_rational(RationalMatrixData(1, 1, [[([1.0], [0.0, 0.0])]]), "continuous")

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_mixed_improper_grid(self, rng, domain):
        # finite poles -2, -1, -3, -1/2, -4, each simple and in one entry only:
        # 5 states.  The polynomial part is P1 lam + P2 lam^2 with
        # P1 = [[-1, 0, 0], [0, -9/4, 0]] and P2 = [[1/2, 1, 0], [0, 1/2, 0]],
        # so the degree at infinity is rank [[P1, P2], [P2, 0]] = 4 (McMillan
        # degree 9) and the minimal infinite part has order
        # rank [[0, P1, P2], [P1, P2, 0], [P2, 0, 0]] = 6 (minimal order 11).
        entries = [
            [([1.0, 0.0, 0.0, 1.0], [4.0, 2.0]), ([0.0, 0.0, 1.0], [1.0]), ([1.0], [1.0, 1.0])],
            [([1.0, 3.0], [6.0, 2.0]), ([2.0, 1.0, 0.0, 0.0, 1.0], [4.0, 9.0, 2.0]), ([1.0], [2.0])],
        ]
        g = realize_rational(RationalMatrixData(2, 3, entries), domain)
        for lam in oracle_points(rng, 7):
            want = np.array([[ratval(*entries[i][j], lam) for j in range(3)] for i in range(2)])
            assert np.linalg.norm(eval_tfm(g, lam) - want) <= 1e-10 * (1 + np.linalg.norm(want))
        assert minreal(g).n == 11
        assert mcmillan_degree(g) == 9

    def test_negligible_top_coefficient_trimmed(self):
        g = realize_rational(RationalMatrixData(1, 1, [[([1.0, 1e-17], [1.0, 1.0])]]), "continuous")
        assert g.n == 1
        assert abs(eval_tfm(g, 0.0)[0, 0] - 1.0) < 1e-12


def test_library_does_no_polynomial_arithmetic():
    # rational data is realized through pencils; coefficient-level polynomial
    # division, products and root expansion have no place in the library
    banned = re.compile(r"polydiv|polymul|polyfromroots|np\.convolve|poly1d")
    src = Path(realize_rational.__code__.co_filename).parent
    hits = [
        f"{path.name}:{k}"
        for path in sorted(src.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert not hits, hits
