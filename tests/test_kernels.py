import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from dstk.exceptions import IterationFailure, SingularPencil, SpectraNotDisjoint, UnstablePair
from dstk.kernels import (
    _row_compress,
    _svd,
    glyap,
    gschur_ordered,
    gsylv_separation,
    null_basis,
    rank_tol,
)


class TestRankTol:
    def test_identity(self):
        assert rank_tol(np.eye(3)) == 3

    def test_zero(self):
        assert rank_tol(np.zeros((2, 4))) == 0

    def test_rank_one(self):
        # singular values of [[1,2],[2,4]] from the 2x2 closed form:
        # M^T M has trace 25 and det 0, so sigma = {5, 0}
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        s = np.linalg.svd(M, compute_uv=False)
        assert np.allclose(sorted(s), [0.0, 5.0], atol=1e-12)
        assert rank_tol(M) == 1

    def test_empty(self):
        assert rank_tol(np.zeros((0, 3))) == 0

    def test_permutation_invariant(self, rng):
        M = rng.normal(size=(4, 6))
        P = np.eye(4)[rng.permutation(4)]
        Q = np.eye(6)[rng.permutation(6)]
        assert rank_tol(P @ M @ Q) == rank_tol(M)

    def test_scale_covariant_with_explicit_tol(self, rng):
        M = rng.normal(size=(3, 5))
        M[2] = M[0] + M[1]  # rank 2 up to rounding
        tol = 1e-10
        for c in (3.0, 0.25):
            assert rank_tol(c * M, c * tol) == rank_tol(M, tol)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_invalid_tolerance_refused(self, tol):
        # misread before: nan gave rank 0, a negative tol counted every zero singular value
        for M in (np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((2, 2))):
            with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
                rank_tol(M, tol)
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
            null_basis(np.array([[1.0, 2.0], [3.0, 4.0]]), tol)

    def test_zero_tolerance_counts_nonzero_values(self):
        assert rank_tol(np.diag([1.0, 1e-300, 0.0]), 0.0) == 2


class TestSvd:
    @pytest.mark.parametrize("shape", [(6, 6), (9, 2), (2, 9)])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_numpy(self, rng, shape, complex_):
        M = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0.0)
        want = np.linalg.svd(M, compute_uv=False)
        s = _svd(M, vectors=False)
        U, s2, Vh = _svd(M)
        for got in (s, s2):
            assert np.max(np.abs(got - want)) <= 1e-13 * want[0]
        assert U.shape == (shape[0], shape[0]) and Vh.shape == (shape[1], shape[1])
        k = min(shape)
        assert np.allclose((U[:, :k] * s2) @ Vh[:k], M, atol=1e-13 * want[0])
        assert np.allclose(U.conj().T @ U, np.eye(shape[0]), atol=1e-13)
        assert np.allclose(Vh @ Vh.conj().T, np.eye(shape[1]), atol=1e-13)

    def test_empty(self):
        U, s, Vh = _svd(np.zeros((3, 0)))
        assert U.shape == (3, 3) and s.size == 0 and Vh.shape == (0, 0)
        assert _svd(np.zeros((0, 2)), vectors=False).size == 0

    @pytest.mark.parametrize("shape", [(6, 6), (9, 2), (2, 9)])
    def test_thin_matches_full(self, rng, shape):
        M = rng.normal(size=shape)
        U, s, Vh = _svd(M)
        Ut, st, Vht = _svd(M, full=False)
        k = min(shape)
        assert Ut.shape == (shape[0], k) and Vht.shape == (k, shape[1])
        assert np.max(np.abs(st - s)) <= 1e-13 * s[0]
        # distinct singular values fix each singular vector up to its sign
        signs = np.sign(np.sum(Ut * U[:, :k], axis=0))
        assert np.max(np.abs(Ut - U[:, :k] * signs)) <= 1e-12
        assert np.max(np.abs(Vht - Vh[:k] * signs[:, None])) <= 1e-12

    def test_thin_empty(self):
        U, s, Vh = _svd(np.zeros((3, 0)), full=False)
        assert U.shape == (3, 0) and s.size == 0 and Vh.shape == (0, 0)
        U, s, Vh = _svd(np.zeros((0, 2)), full=False)
        assert U.shape == (0, 0) and s.size == 0 and Vh.shape == (0, 2)

    def test_non_finite_raises(self):
        with pytest.raises(IterationFailure):
            _svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestRowCompress:
    def test_orthogonal_and_compressed(self, rng):
        M = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 5))  # rank 3
        U, r = _row_compress(M, 1e-10)
        assert r == 3
        assert np.linalg.norm(U.T @ U - np.eye(12)) < 1e-13
        UM = U.T @ M
        assert np.linalg.norm(UM[r:]) < 1e-13 * np.linalg.norm(M)
        assert np.linalg.matrix_rank(UM[:r]) == r


class TestNullBasis:
    def test_row_vector(self):
        nb = null_basis(np.array([[1.0, 0.0]]))
        assert nb.shape == (2, 1)
        assert abs(nb[0, 0]) < 1e-14 and abs(abs(nb[1, 0]) - 1.0) < 1e-14

    def test_invertible_empty(self):
        nb = null_basis(np.array([[2.0, 1.0], [0.0, 1.0]]))
        assert nb.shape == (2, 0)

    def test_ones_matrix(self):
        # eigen-decomposition by hand: kernel spanned by (1, -1)/sqrt(2)
        nb = null_basis(np.ones((2, 2)))
        assert nb.shape == (2, 1)
        assert abs(nb[0, 0] + nb[1, 0]) < 1e-12
        assert abs(np.linalg.norm(nb[:, 0]) - 1.0) < 1e-12

    def test_product_and_orthonormality(self, rng):
        M = rng.normal(size=(3, 6))
        nb = null_basis(M)
        assert nb.shape[1] == 6 - rank_tol(M)
        assert np.linalg.norm(M @ nb) < 1e-10
        assert np.linalg.norm(nb.T @ nb - np.eye(nb.shape[1])) < 1e-12


class TestGschur:
    def test_ordering_simple(self):
        res = gschur_ordered(np.diag([1.0, 2.0]), np.eye(2), select=lambda a, b: b > 1e-12 and (a / b).real < 1.5)
        assert res.selected_count == 1
        lead = res.eigenvalues[0]
        assert abs(lead[0] / lead[1] - 1.0) < 1e-12

    def test_finite_and_infinite(self):
        # det(A - lam B) = 1 - lam
        res = gschur_ordered(np.eye(2), np.diag([1.0, 0.0]))
        vals = sorted(res.eigenvalues, key=lambda ab: -ab[1])
        assert abs(vals[0][0] / vals[0][1] - 1.0) < 1e-12
        assert vals[1][1] == 0.0

    def test_complex_pair_in_block(self):
        # characteristic polynomial lam^2 + 1
        res = gschur_ordered(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
        vals = sorted((a / b for a, b in res.eigenvalues), key=lambda z: z.imag)
        assert np.allclose(vals, [-1j, 1j], atol=1e-12)
        assert res.S[1, 0] != 0.0  # kept as one 2x2 block

    def test_invariants(self, rng):
        n = 5
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        res = gschur_ordered(A, B, select=lambda a, b: b > 1e-12 and (a / b).real < 0)
        assert np.linalg.norm(res.Q.T @ res.Q - np.eye(n)) <= 1e-12 * n
        assert np.linalg.norm(res.Z.T @ res.Z - np.eye(n)) <= 1e-12 * n
        assert np.linalg.norm(res.Q.T @ A @ res.Z - res.S) <= 1e-10 * np.linalg.norm(A)
        assert np.linalg.norm(res.Q.T @ B @ res.Z - res.T) <= 1e-10 * np.linalg.norm(B)
        # T upper triangular, nonnegative diagonal
        assert np.allclose(np.tril(res.T, -1), 0.0, atol=1e-12 * (1 + np.linalg.norm(B)))
        assert all(res.T[i, i] >= 0 for i in range(n))
        # selected eigenvalues really lead
        for i, (a, b) in enumerate(res.eigenvalues):
            inside = b > 1e-12 and (a / b).real < 0
            if i < res.selected_count:
                pass  # 2x2 pairing may pull a partner along
            else:
                assert not inside or i < res.selected_count

    def test_complex_pairs_match_scipy(self, rng):
        n = 60
        A = rng.normal(size=(n, n))
        B = np.eye(n) + 0.1 / np.sqrt(n) * rng.normal(size=(n, n))
        res = gschur_ordered(A, B)
        got = np.array([a / b for a, b in res.eigenvalues])
        assert np.count_nonzero(got.imag > 0) >= 20
        # each 2x2 block reports its pair positive imaginary part first
        pos = 0
        while pos < n:
            if pos + 1 < n and res.S[pos + 1, pos] != 0.0:
                assert got[pos].imag > 0 and abs(got[pos + 1] - np.conj(got[pos])) <= 1e-12 * abs(got[pos])
                pos += 2
            else:
                pos += 1
        want = sla.eigvals(A, B)
        err = np.abs(got[:, None] - want[None, :]) / np.abs(want)[None, :]
        rows, cols = linear_sum_assignment(err)
        assert err[rows, cols].max() <= 1e-9

    def test_singular_pencil_rejected(self):
        with pytest.raises(SingularPencil):
            gschur_ordered(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_half_pair_selector_moves_the_pair(self, rng):
        # a selector true for one member of each conjugate pair (Im > 0)
        # moves the whole pair to the front, and the pair counts 2
        n = 40
        A = rng.normal(size=(n, n))
        B = np.eye(n) + 0.1 / np.sqrt(n) * rng.normal(size=(n, n))
        res = gschur_ordered(A, B, select=lambda a, b: a.imag > 0)
        got = np.array([a / b for a, b in res.eigenvalues])
        k = res.selected_count
        assert k == 2 * np.count_nonzero(got.imag > 0) >= 20
        assert np.all(got[:k].imag != 0) and np.all(got[k:].imag == 0)
        for i in range(0, k, 2):
            assert res.S[i + 1, i] != 0.0 and got[i].imag > 0 and got[i + 1] == np.conj(got[i])

    @pytest.mark.parametrize("infinite", [0, 3])
    def test_selected_count_is_the_selected_eigenvalues(self, rng, infinite):
        # a conjugation-symmetric selector: selected_count is the number of
        # eigenvalues that satisfy it, and exactly those lead
        n = 40
        A = rng.normal(size=(n, n))
        B = np.eye(n) + 0.1 / np.sqrt(n) * rng.normal(size=(n, n))
        B[:, :infinite] = 0.0

        def select(a, b):
            return b > 1e-8 * (abs(a) + b) and (a / b).real < 0.0

        res = gschur_ordered(A, B, select=select)
        flags = [bool(select(a, b)) for a, b in res.eigenvalues]
        want = sla.eigvals(A, B)
        want = want[np.isfinite(want)]
        assert want.size == n - infinite and np.count_nonzero(np.abs(want.imag) > 0) >= 20
        assert res.selected_count == sum(flags) == np.count_nonzero(want.real < 0)
        assert flags == sorted(flags, reverse=True)
        assert sum(b == 0.0 or abs(a) > 1e8 * b for a, b in res.eigenvalues) == infinite


class TestGsylv:
    def test_zero_coupling(self):
        A11 = np.diag([-1.0, -2.0])
        A22 = np.diag([1.0, 2.0])
        L, R = gsylv_separation(A11, np.zeros((2, 2)), A22, np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert np.linalg.norm(L) < 1e-12 and np.linalg.norm(R) < 1e-12

    def test_scalar_hand_case(self):
        # R + L = -2 and R - L = 0  =>  R = L = -1
        L, R = gsylv_separation([[1.0]], [[2.0]], [[-1.0]], [[1.0]], [[0.0]], [[1.0]])
        assert abs(L[0, 0] + 1.0) < 1e-12 and abs(R[0, 0] + 1.0) < 1e-12

    @pytest.mark.parametrize("n1, n2, nilpotent", [(2, 2, False), (12, 30, True), (40, 40, False)])
    def test_random_residual(self, rng, n1, n2, nilpotent):
        # random parts scaled by sqrt(2 / n) keep the spectra of the two
        # pencils around -3 and +3 at every size
        s1, s2 = np.sqrt(2.0 / n1), np.sqrt(2.0 / n2)
        A11 = s1 * rng.normal(size=(n1, n1)) - 3 * np.eye(n1)
        A22 = s2 * rng.normal(size=(n2, n2)) + 3 * np.eye(n2)
        if nilpotent:
            E11 = np.triu(rng.normal(size=(n1, n1)), 1)  # all eigenvalues of (A11, E11) infinite
        else:
            E11 = np.eye(n1) + 0.1 * s1 * rng.normal(size=(n1, n1))
        E22 = np.eye(n2) + 0.1 * s2 * rng.normal(size=(n2, n2))
        A12 = rng.normal(size=(n1, n2))
        E12 = rng.normal(size=(n1, n2))
        L, R = gsylv_separation(A11, A12, A22, E11, E12, E22)
        scale = max(np.linalg.norm(X) for X in (A11, A12, A22, E11, E12, E22))
        assert np.linalg.norm(A11 @ R - L @ A22 + A12) < 1e-10 * scale * (1 + np.linalg.norm(R) + np.linalg.norm(L))
        assert np.linalg.norm(E11 @ R - L @ E22 + E12) < 1e-10 * scale * (1 + np.linalg.norm(R) + np.linalg.norm(L))

    def test_memory_is_not_kronecker_sized(self, rng):
        # a Kronecker system at n1 = n2 = 40 is 3200 x 3200 doubles, 82 MB
        n = 40
        A11 = rng.normal(size=(n, n)) - 10 * np.eye(n)
        A22 = rng.normal(size=(n, n)) + 10 * np.eye(n)
        args = (A11, rng.normal(size=(n, n)), A22, np.eye(n), rng.normal(size=(n, n)), np.eye(n))
        tracemalloc.start()
        try:
            gsylv_separation(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_shared_spectra_rejected(self):
        with pytest.raises(SpectraNotDisjoint):
            gsylv_separation([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])


class TestGlyap:
    def test_continuous_scalar(self):
        X = glyap([[-1.0]], [[1.0]], [[2.0]], "continuous")
        assert abs(X[0, 0] - 1.0) < 1e-12

    def test_discrete_scalar(self):
        X = glyap([[0.5]], [[1.0]], [[0.75]], "discrete")
        assert abs(X[0, 0] - 1.0) < 1e-12

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_residual(self, rng, domain):
        A = rng.normal(size=(3, 3))
        A = A - (np.abs(np.linalg.eigvals(A).real).max() + 1.0) * np.eye(3) if domain == "continuous" else A * (
            0.5 / np.abs(np.linalg.eigvals(A)).max()
        )
        E = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        if domain == "continuous":
            # make the pencil stable: scale E towards identity already suffices
            lam = np.linalg.eigvals(np.linalg.solve(E, A))
            A = A - (max(lam.real.max(), 0.0) + 0.5) * E
        else:
            lam = np.linalg.eigvals(np.linalg.solve(E, A))
            A = A * (0.6 / max(np.abs(lam).max(), 1e-6))
        W = rng.normal(size=(3, 3))
        W = W @ W.T
        X = glyap(A, E, W, domain)
        if domain == "continuous":
            res = A @ X @ E.T + E @ X @ A.T + W
        else:
            res = A @ X @ A.T - E @ X @ E.T + W
        scale = (np.linalg.norm(A) + np.linalg.norm(E)) ** 2 * (1 + np.linalg.norm(X)) + np.linalg.norm(W)
        assert np.linalg.norm(res) < 1e-10 * scale
        assert np.allclose(X, X.T)

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    @pytest.mark.parametrize("general_E", [True, False], ids=["general-E", "identity-E"])
    def test_order_40(self, domain, general_E):
        rng = np.random.default_rng(40)
        n = 40
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        E = np.eye(n) + (0.3 * rng.normal(size=(n, n)) / np.sqrt(n) if general_E else 0.0)
        lam = np.linalg.eigvals(np.linalg.solve(E, A))
        if domain == "continuous":
            A = A - (lam.real.max() + 0.5) * E
        else:
            A = A * (0.9 / np.abs(lam).max())
        B = rng.normal(size=(n, 3))
        W = B @ B.T
        X = glyap(A, E, W, domain)
        if domain == "continuous":
            res = A @ X @ E.T + E @ X @ A.T + W
        else:
            res = A @ X @ A.T - E @ X @ E.T + W
        scale = (np.linalg.norm(A) + np.linalg.norm(E)) ** 2 * np.linalg.norm(X) + np.linalg.norm(W)
        assert np.linalg.norm(res) < 1e-12 * scale
        assert np.array_equal(X, X.T)
        if not general_E:
            if domain == "continuous":
                Xs = sla.solve_continuous_lyapunov(A, -W)
            else:
                Xs = sla.solve_discrete_lyapunov(A, W)
            assert np.linalg.norm(X - Xs) <= 1e-10 * np.linalg.norm(Xs)

    def test_memory_is_not_kronecker_sized(self):
        # a Kronecker system at n = 40 is 1600 x 1600 doubles, 20 MB
        n = 40
        A = np.random.default_rng(1).normal(size=(n, n)) - 10 * np.eye(n)
        tracemalloc.start()
        try:
            glyap(A, np.eye(n), np.eye(n), "continuous")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_unstable_rejected(self):
        with pytest.raises(UnstablePair):
            glyap([[1.0]], [[1.0]], [[1.0]], "continuous")
        with pytest.raises(UnstablePair):
            glyap([[1.0]], [[0.0]], [[1.0]], "continuous")  # infinite eigenvalue
