import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from dstk.exceptions import SingularPencil, SpectraNotDisjoint, UnstablePair
from dstk.kernels import (
    get_probe_seed,
    glyap,
    gschur_ordered,
    gsylv_separation,
    null_basis,
    rank_tol,
    set_probe_seed,
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

    def test_unstable_rejected(self):
        with pytest.raises(UnstablePair):
            glyap([[1.0]], [[1.0]], [[1.0]], "continuous")
        with pytest.raises(UnstablePair):
            glyap([[1.0]], [[0.0]], [[1.0]], "continuous")  # infinite eigenvalue


class TestProbeSeed:
    def test_thread_isolation(self):
        default = get_probe_seed()
        seen = []

        def worker():
            seen.append(get_probe_seed())
            set_probe_seed(11)
            seen.append(get_probe_seed())

        set_probe_seed(7)
        try:
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive()
            assert seen == [default, 11]
            assert get_probe_seed() == 7
        finally:
            set_probe_seed(None)
