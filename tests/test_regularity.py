"""One nonsingularity rule: a square pencil is regular exactly when the
oracle can evaluate it.

``make_system``, ``gschur_ordered`` and ``inverse`` ask whether a square
pencil is regular by the question ``eval_tfm`` asks at a point: does one LU
of ``A - lam E`` clear ``n * SINGULAR_RCOND``.  These tests hold the
validator to the oracle on badly scaled regular pencils, and check that
pencils singular by construction are refused everywhere.  On the same
pencils, ``solve_right`` certifies ``G X = G`` before any probe rank can
call it incompatible.
"""

import numpy as np
import pytest

from dstk.exceptions import EvalAtPole, NotInvertibleTFM, SingularPencil
from dstk.kernels import _ring_points, gschur_ordered
from dstk.ops import inverse
from dstk.solve import solve_right
from dstk.system import _trusted_system, eval_tfm, make_system


def _row_scaled(seed):
    """A random pencil of order 2..10 whose rows are scaled by 10^u, u
    uniform in (-12, 12): regular, but often too badly scaled to evaluate."""
    r = np.random.default_rng(seed)
    n = int(r.integers(2, 11))
    A, E = r.normal(size=(n, n)), r.normal(size=(n, n))
    scale = 10.0 ** r.uniform(-12, 12, n)
    return A * scale[:, None], E * scale[:, None]


def _evaluates(A, E):
    """Whether ``eval_tfm`` succeeds at one of the three probe points."""
    n = A.shape[0]
    g = _trusted_system(A, E, np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)), "continuous")
    for lam in _ring_points(A, E, 3):
        try:
            eval_tfm(g, lam)
            return True
        except EvalAtPole:
            pass
    return False


def test_make_system_accepts_exactly_what_the_oracle_evaluates():
    accepted = 0
    for seed in range(100):
        A, E = _row_scaled(seed)
        n = A.shape[0]
        try:
            make_system(A, E, np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)), "continuous")
            ok = True
        except SingularPencil:
            ok = False
        assert ok == _evaluates(A, E), seed
        accepted += ok
    # the corpus exercises both outcomes
    assert 0 < accepted < 100


def _common_kernel(n, k, seed):
    """``A = U X``, ``E = U Y`` with ``U`` of rank ``k < n``: every
    ``A - lam E`` has rank at most ``k``."""
    r = np.random.default_rng(seed)
    U = r.normal(size=(n, k))
    return U @ r.normal(size=(k, n)), U @ r.normal(size=(k, n))


@pytest.mark.parametrize("n, k", [(2, 1), (5, 3), (8, 7), (12, 4)])
def test_common_kernel_pencils_are_refused(n, k):
    A, E = _common_kernel(n, k, n + k)
    with pytest.raises(SingularPencil):
        make_system(A, E, np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)), "continuous")
    with pytest.raises(SingularPencil):
        gschur_ordered(A, E)


@pytest.mark.parametrize("mode", ["general", "d-inverse"])
@pytest.mark.parametrize("m, k", [(2, 1), (3, 2)])
def test_common_kernel_tfm_is_not_inverted(mode, m, k):
    # [C, D] = U [Xc, Xd] with U of rank k < m: the square system pencil
    # shares the kernel of U^T, so G = U (...) has normal rank k
    r = np.random.default_rng(10 * m + k)
    n = 6
    A = r.normal(size=(n, n)) - 4.0 * np.eye(n)
    U = r.normal(size=(m, k))
    g = make_system(A, None, r.normal(size=(n, m)), U @ r.normal(size=(k, n)), U @ r.normal(size=(k, m)), "continuous")
    with pytest.raises(NotInvertibleTFM, match="system pencil"):
        inverse(g, mode=mode)


@pytest.mark.parametrize("seed", [130, 131, 280, 410])
def test_solve_right_certifies_before_it_tests_compatibility(seed):
    # G X = G with G badly scaled: the probe ranks of [G G] and G differ by
    # rounding, but X = I is certified first, so no compatibility test runs
    A, E = _row_scaled(seed)
    n, r = A.shape[0], np.random.default_rng(seed)
    g = make_system(A, E, r.normal(size=(n, 1)), r.normal(size=(1, n)), np.ones((1, 1)), "continuous")
    X = solve_right(g, g).particular
    assert X.n == 0 and abs(X.D[0, 0] - 1.0) <= 1e-12
