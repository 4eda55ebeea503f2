import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from dstk.exceptions import SingularPencil, UnstablePair
from dstk.kernels import default_tol, glyap
from dstk.pencil import klf, pencil_normal_rank, weierstrass_structure


def right_block(eps):
    """L_eps: eps x (eps+1) pencil [-lam 1] bidiagonal, as (M, N)."""
    M = np.zeros((eps, eps + 1))
    N = np.zeros((eps, eps + 1))
    for i in range(eps):
        M[i, i + 1] = 1.0
        N[i, i] = 1.0
    return M, N


def finite_block(vals):
    """Real block-diagonal with the given (conjugate-closed) eigenvalues."""
    vals = list(vals)
    blocks = []
    while vals:
        z = vals.pop(0)
        if abs(z.imag) < 1e-14:
            blocks.append(np.array([[z.real]]))
        else:
            vals.remove(z.conjugate())
            a, b = z.real, abs(z.imag)
            blocks.append(np.array([[a, b], [-b, a]]))
    n = sum(b.shape[0] for b in blocks)
    M = np.zeros((n, n))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        M[pos : pos + k, pos : pos + k] = b
        pos += k
    return M, np.eye(n)


def infinite_block(deg):
    """I - lam*J with J a single nilpotent chain: one degree-`deg` divisor."""
    J = np.zeros((deg, deg))
    for i in range(deg - 1):
        J[i, i + 1] = 1.0
    return np.eye(deg), J


def assemble(blocks, rng=None):
    """Block-diagonal pencil, optionally scrambled by random orthogonal U, V."""
    rows = sum(b[0].shape[0] for b in blocks)
    cols = sum(b[0].shape[1] for b in blocks)
    M = np.zeros((rows, cols))
    N = np.zeros((rows, cols))
    r = c = 0
    for Mb, Nb in blocks:
        i, j = Mb.shape
        M[r : r + i, c : c + j] = Mb
        N[r : r + i, c : c + j] = Nb
        r += i
        c += j
    if rng is not None:
        U, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
        V, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
        M, N = U @ M @ V, U @ N @ V
    return M, N


class TestKlfExamples:
    def test_l1_pencil(self):
        # [-lam 1]: full row normal rank 1, no eigenvalues
        Mk, Nk, U, V, ks = klf([[0.0, 1.0]], [[1.0, 0.0]])
        assert ks.right_indices == [1]
        assert ks.left_indices == []
        assert ks.nreg == 0
        assert ks.normal_rank == 1

    def test_regular_mixed(self):
        # det(M - lam N) = 1 - lam
        _, _, _, _, ks = klf(np.eye(2), np.diag([1.0, 0.0]))
        assert ks.right_indices == [] and ks.left_indices == []
        assert len(ks.finite_eigenvalues) == 1
        assert abs(ks.finite_eigenvalues[0] - 1.0) < 1e-10
        assert ks.infinite_divisor_degrees == [1]

    def test_zero_pencil(self):
        _, _, _, _, ks = klf([[0.0]], [[0.0]])
        assert ks.right_indices == [0] and ks.left_indices == [0]
        assert ks.nreg == 0


class TestKlfConstructed:
    @pytest.mark.parametrize("scramble", [False, True])
    def test_known_structures(self, rng, scramble):
        cases = [
            dict(right=[1], left=[], finite=[-2.0 + 0j], inf=[2]),
            dict(right=[0, 2], left=[1], finite=[1j, -1j, 3.0 + 0j], inf=[1]),
            dict(right=[], left=[0, 1], finite=[], inf=[3]),
            dict(right=[2], left=[2], finite=[0.5 + 0.5j, 0.5 - 0.5j], inf=[1, 2]),
        ]
        for case in cases:
            blocks = [right_block(e) for e in case["right"]]
            if case["finite"]:
                blocks.append(finite_block(case["finite"]))
            blocks += [infinite_block(d) for d in case["inf"]]
            blocks += [tuple(x.T for x in right_block(e)) for e in case["left"]]
            M, N = assemble(blocks, rng if scramble else None)
            Mk, Nk, U, V, ks = klf(M, N)
            assert ks.right_indices == sorted(case["right"])
            assert ks.left_indices == sorted(case["left"])
            assert ks.infinite_divisor_degrees == sorted(case["inf"])
            got = sorted(ks.finite_eigenvalues, key=lambda z: (z.real, z.imag))
            want = sorted(case["finite"], key=lambda z: (z.real, z.imag))
            assert np.allclose(got, want, atol=1e-8)

    def test_invariants(self, rng):
        for _ in range(10):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            M = rng.normal(size=(m, n))
            N = rng.normal(size=(m, n))
            if rng.uniform() < 0.5:
                # force rank deficiency through low-rank factors
                r = int(rng.integers(0, min(m, n)))
                M = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
                N = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            Mk, Nk, U, V, ks = klf(M, N)
            dim = max(m, n)
            assert np.linalg.norm(U.T @ U - np.eye(m)) <= 1e-12 * dim
            assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-12 * dim
            lam0 = complex(rng.normal(), abs(rng.normal()) + 0.1)
            scale = np.linalg.norm(M) + np.linalg.norm(N) + 1.0
            recon = U @ (M - lam0 * N) @ V - (Mk - lam0 * Nk)
            assert np.linalg.norm(recon) <= 1e-10 * scale * (1 + abs(lam0))
            # dimension bookkeeping
            assert n == ks.nr + len(ks.right_indices) + ks.nreg + ks.nl
            assert m == ks.nr + ks.nreg + ks.nl + len(ks.left_indices)
            # cross-oracle rank agreement
            assert pencil_normal_rank(M, N) == ks.normal_rank

    def test_regular_matches_weierstrass(self, rng):
        A = rng.normal(size=(4, 4))
        E = rng.normal(size=(4, 1)) @ rng.normal(size=(1, 4)) + np.diag([1.0, 1.0, 0.0, 0.0])
        _, _, _, _, ks = klf(A, E)
        if ks.right_indices or ks.left_indices:
            pytest.skip("random pencil was singular")
        ws = weierstrass_structure(A, E)
        assert sorted(ws.infinite_divisor_degrees) == ks.infinite_divisor_degrees
        assert np.allclose(
            sorted(ws.finite_eigenvalues, key=lambda z: (z.real, z.imag)),
            sorted(ks.finite_eigenvalues, key=lambda z: (z.real, z.imag)),
        )


class TestWeierstrass:
    def test_standard_pencil(self, rng):
        A = rng.normal(size=(3, 3))
        ws = weierstrass_structure(A, np.eye(3))
        assert ws.infinite_divisor_degrees == []
        assert np.allclose(
            sorted(ws.finite_eigenvalues, key=lambda z: (z.real, z.imag)),
            sorted(np.linalg.eigvals(A), key=lambda z: (z.real, z.imag)),
            atol=1e-8,
        )

    def test_nilpotent(self):
        ws = weierstrass_structure(np.eye(2), [[0.0, 1.0], [0.0, 0.0]])
        assert ws.nf == 0
        assert ws.infinite_divisor_degrees == [2]

    def test_mixed(self):
        ws = weierstrass_structure(np.diag([3.0, 1.0]), np.diag([1.0, 0.0]))
        assert [round(z.real) for z in ws.finite_eigenvalues] == [3]
        assert ws.infinite_divisor_degrees == [1]
        assert ws.nf + ws.ninf == 2

    def test_singular_rejected(self):
        with pytest.raises(SingularPencil):
            weierstrass_structure([[0.0]], [[0.0]])

    def test_planted_order_48(self, rng):
        pairs = rng.uniform(-3.0, 3.0, 12) + 1j * rng.uniform(0.1, 3.0, 12)
        planted = np.concatenate([pairs, pairs.conj(), rng.uniform(-3.0, 3.0, 16)])
        chains = [2, 3, 3]
        M, N = assemble([finite_block(planted)] + [infinite_block(d) for d in chains], rng)
        assert M.shape == (48, 48)
        ks = klf(M, N)[4]
        ws = weierstrass_structure(M, N)
        assert ks.right_indices == [] and ks.left_indices == []
        for finite, divisors in [(ks.finite_eigenvalues, ks.infinite_divisor_degrees),
                                 (ws.finite_eigenvalues, ws.infinite_divisor_degrees)]:
            assert sorted(divisors) == chains
            got = np.array(finite)
            assert got.shape == planted.shape
            # pair by assignment: sorting mispairs near-equal real parts
            cost = np.abs(got[:, None] - planted[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() <= 1e-10 * (1.0 + np.abs(planted).max())
            assert {z.conjugate() for z in finite} == set(finite)


class TestOneCut:
    """``klf``, ``weierstrass_structure`` and ``glyap``'s beta test cut one
    pencil at one tolerance."""

    @pytest.mark.parametrize("factor, n_inf", [(0.5, 1), (2.0, 0)])
    def test_small_singular_value_of_E(self, factor, n_inf):
        # A = I and E = diag(1, ..., 1, delta) under one orthogonal similarity,
        # delta on either side of the cut; ||A||_F = sqrt(n) > ||E||_F
        n = 9
        e = np.ones(n)
        e[-1] = factor * default_tol(n, np.sqrt(n))
        Q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(n, n)))
        A, E = Q @ np.eye(n) @ Q.T, Q @ np.diag(e) @ Q.T
        ks = klf(A, E)[4]
        ws = weierstrass_structure(A, E)
        assert ks.infinite_divisor_degrees == ws.infinite_divisor_degrees == [1] * n_inf
        assert len(ks.finite_eigenvalues) == ws.nf == n - n_inf
        if n_inf:
            with pytest.raises(UnstablePair):
                glyap(-A, E, np.eye(n), "continuous")
        else:
            assert np.all(np.isfinite(glyap(-A, E, np.eye(n), "continuous")))


class TestNormalRank:
    def test_identity(self):
        assert pencil_normal_rank(np.eye(4), np.eye(4)) == 4

    def test_l1(self):
        assert pencil_normal_rank([[0.0, 1.0]], [[1.0, 0.0]]) == 1

    def test_rank_deficient_cross_check(self, rng):
        for _ in range(5):
            M = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 5))
            N = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 5))
            _, _, _, _, ks = klf(M, N)
            assert pencil_normal_rank(M, N) == ks.nr + ks.nreg + ks.nl
