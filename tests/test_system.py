import numpy as np
import pytest

from conftest import assert_same_tfm, oracle_points, safe_eval

from dstk.analysis import poles
from dstk.exceptions import DimensionMismatch, EvalAtPole, SingularPencil, SingularTransform
from dstk.kernels import SINGULAR_RCOND
from dstk.system import (
    TimeDomain,
    apply_similarity,
    eval_tfm,
    make_system,
    random_system,
)


def first_order_lag():
    # realizes 1/(s+1) under the C (A - s E)^{-1} B + D convention
    return make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")


class TestMakeSystem:
    def test_first_order_lag(self):
        g = first_order_lag()
        assert g.n == 1 and g.domain is TimeDomain.CONTINUOUS
        assert abs(eval_tfm(g, 0.0)[0, 0] - 1.0) < 1e-14

    def test_static_gain(self):
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 1)), np.zeros((1, 0)), [[2.0]], "discrete")
        assert g.n == 0
        assert abs(eval_tfm(g, 0.37 + 2j)[0, 0] - 2.0) == 0.0

    def test_singular_pencil(self):
        with pytest.raises(SingularPencil):
            make_system([[0.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]], "continuous")

    def test_badly_scaled_refusal_names_its_scale(self):
        # diag(-1e40, -1) - lambda I is regular, but no LU of it clears the
        # oracle's cut at a probe point: the refusal says why, by the cut and
        # both 1-norms, so the scale is visible to the caller
        with pytest.raises(SingularPencil) as err:
            make_system([[-1e40, 0.0], [0.0, -1.0]], None, [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]], "continuous")
        message = str(err.value)
        assert "||A||_1 = 1.000e+40" in message and "||E||_1 = 1.000e+00" in message
        assert f"<= {2 * SINGULAR_RCOND:.2e}" in message

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_system(np.eye(2), np.eye(2), np.ones((3, 1)), np.ones((1, 2)), [[0.0]], "continuous")
        with pytest.raises(DimensionMismatch):
            make_system(np.eye(2), np.eye(3), np.ones((2, 1)), np.ones((1, 2)), [[0.0]], "continuous")

    def test_default_identity_e(self):
        g = make_system([[-1.0]], None, [[1.0]], [[-1.0]], [[0.0]], "continuous")
        assert g.is_standard

    @pytest.mark.parametrize(
        "E, standard", [(None, True), (np.eye(2), True), (np.diag([1.0, 2.0]), False)], ids=["None", "identity", "diag"]
    )
    def test_is_standard_is_decided_once(self, monkeypatch, E, standard):
        # the system is immutable, so its E = I verdict is one comparison,
        # however often a pipeline asks
        g = make_system(-np.eye(2), E, np.ones((2, 1)), np.ones((1, 2)), [[0.0]], "continuous")
        compared, array_equal = [], np.array_equal

        def counted(*args, **kwargs):
            compared.append(args)
            return array_equal(*args, **kwargs)

        monkeypatch.setattr(np, "array_equal", counted)
        assert [g.is_standard for _ in range(3)] == [standard] * 3
        assert len(compared) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_system([[np.nan]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], "continuous")

    def test_caller_arrays_stay_writable(self):
        # the system freezes copies; the caller's own arrays are left alone
        A, E, B, C, D = np.eye(2), 2.0 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))
        g = make_system(A, E, B, C, D, "continuous")
        for X in (A, E, B, C, D):
            X[0, 0] = 1.0
        A[0, 0] = 3.0
        assert g.A[0, 0] == 1.0 and g.E[0, 0] == 2.0 and g.D[0, 0] == 0.0
        assert not g.A.flags.writeable


class TestEval:
    def test_derivative_realization(self):
        # (A - s E)^{-1} = [[1, s], [0, 1]] by hand, so G(s) = s
        g = make_system(np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
        assert abs(eval_tfm(g, 3.0)[0, 0] - 3.0) < 1e-14

    def test_eval_at_pole(self):
        with pytest.raises(EvalAtPole):
            eval_tfm(first_order_lag(), -1.0)

    @pytest.mark.parametrize("lam", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
    def test_nonfinite_point_rejected(self, lam):
        with pytest.raises(ValueError, match="not finite"):
            eval_tfm(first_order_lag(), lam)

    def test_bitwise_determinism(self):
        g = first_order_lag()
        a = eval_tfm(g, 0.3 + 0.7j)
        b = eval_tfm(g, 0.3 + 0.7j)
        assert np.array_equal(a, b)

    def test_call_is_eval_tfm(self):
        g = random_system(5, 2, 3, "discrete", proper=False, rng=np.random.default_rng(5))
        assert np.array_equal(g(0.3 + 0.7j), eval_tfm(g, 0.3 + 0.7j))
        with pytest.raises(EvalAtPole):
            first_order_lag()(-1.0)

    def test_zero_order_is_feedthrough(self, rng):
        D = rng.normal(size=(2, 3))
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 3)), np.zeros((2, 0)), D, "continuous")
        for lam in oracle_points(rng, 4):
            assert np.array_equal(eval_tfm(g, lam), D.astype(complex))


def _planted24(rng):
    """Order-24 pencil ``(U diag(Lambda) V, U V)`` with twelve real poles and
    six conjugate pairs placed exactly (``U``, ``V`` well conditioned), and
    those poles."""
    real = -np.arange(1.0, 13.0) / 4.0
    pairs = [complex(-0.5 * k, 0.75 * k) for k in range(1, 7)]
    L = np.diag(np.r_[real, np.zeros(12)])
    for i, z in enumerate(pairs):
        j = 12 + 2 * i
        L[j : j + 2, j : j + 2] = [[z.real, z.imag], [-z.imag, z.real]]
    U, V = (np.linalg.qr(rng.normal(size=(24, 24)))[0] @ np.diag(rng.uniform(0.5, 2.0, 24)) for _ in range(2))
    g = make_system(U @ L @ V, U @ V, rng.normal(size=(24, 2)), rng.normal(size=(3, 24)), rng.normal(size=(3, 2)), "continuous")
    return g, list(real) + pairs


class TestLuGuard:
    """``eval_tfm`` solves with one LU of ``A - lam E``, and that LU's
    reciprocal condition alone refuses a pole."""

    def test_planted_poles_refused(self, rng):
        g, planted = _planted24(rng)
        for z in planted:
            with pytest.raises(EvalAtPole):
                eval_tfm(g, z)

    def test_near_a_pole_matches_a_dense_solve(self, rng):
        g, planted = _planted24(rng)
        for z in planted:
            for lam in (z + 1e-6, z + 1e-6j, z - 1e-6 * (1 + 1j) / np.sqrt(2)):
                X = np.linalg.solve(g.A - complex(lam) * g.E, g.B.astype(complex))
                want = g.C @ X + g.D
                scale = np.linalg.norm(g.D) + np.linalg.norm(g.C) * np.linalg.norm(X)
                assert np.linalg.norm(eval_tfm(g, lam) - want) <= 1e-12 * scale


class TestSimilarity:
    def test_identity(self):
        g = first_order_lag()
        h = apply_similarity(g, np.eye(1), np.eye(1))
        assert np.array_equal(h.A, g.A) and np.array_equal(h.B, g.B)

    def test_scaling(self):
        g = first_order_lag()
        h = apply_similarity(g, [[2.0]], [[1.0]])
        assert abs(eval_tfm(h, 1.0)[0, 0] - 0.5) < 1e-12

    def test_permutation_oracle(self, rng):
        g = random_system(4, 2, 3, "continuous", rng=rng)
        P = np.eye(4)[rng.permutation(4)]
        Q = np.eye(4)[rng.permutation(4)]
        h = apply_similarity(g, P, Q)
        assert_same_tfm(h, g, rng)

    def test_random_invertible_oracle(self, rng):
        g = random_system(3, 1, 2, "discrete", rng=rng)
        U = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        V = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        h = apply_similarity(g, U, V)
        for lam in oracle_points(rng, 5):
            lam, a = safe_eval(h, lam, rng)
            b = eval_tfm(g, lam)
            assert np.linalg.norm(a - b) <= 1e-8 * (1 + np.linalg.norm(b))

    def test_singular_transform(self):
        g = first_order_lag()
        with pytest.raises(SingularTransform):
            apply_similarity(g, [[0.0]], [[1.0]])


class TestRandomSystem:
    def test_zero_order(self, rng):
        g = random_system(0, 2, 1, "continuous", rng=rng)
        assert g.n == 0

    def test_stable_continuous(self, rng):
        for _ in range(5):
            g = random_system(4, 2, 2, "continuous", stable=True, rng=rng)
            info = poles(g)
            assert info.infinite_count == 0
            assert all(z.real < 0 for z in info.finite)

    def test_stable_discrete(self, rng):
        for _ in range(5):
            g = random_system(3, 1, 2, "discrete", stable=True, rng=rng)
            info = poles(g)
            assert all(abs(z) < 1 for z in info.finite)

    def test_improper_has_infinite_pole(self, rng):
        for _ in range(5):
            g = random_system(5, 2, 2, "continuous", proper=False, rng=rng)
            assert poles(g).infinite_count >= 1
