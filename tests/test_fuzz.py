"""Property tests over generated systems, checked by invariants of the result.

Hypothesis runs derandomized, so every run draws the same examples and the
results depend on the inputs alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from dstk.analysis import _system_pencil, minimality_report, minreal, normal_rank, poles, zeros
from dstk.exceptions import DstkError
from dstk.ops import concat_col, inverse, series
from dstk.pencil import klf, pencil_normal_rank, weierstrass_structure
from dstk.solve import solve_right
from dstk.system import eval_tfm, make_system, random_system

systems = dict(
    n=st.integers(2, 8),
    m=st.integers(1, 3),
    domain=st.sampled_from(["continuous", "discrete"]),
    proper=st.booleans(),
    seed=st.integers(0, 2**16),
)


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(
    n=st.integers(1, 10),
    m=st.integers(1, 3),
    domain=st.sampled_from(["continuous", "discrete"]),
    proper=st.booleans(),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["g", "gg", "ginv"]),
)
def test_minreal_leaves_no_simple_infinite_eigenvalue(n, m, domain, proper, seed, kind):
    g = random_system(n, m, m, domain, proper=proper or n < 2, rng=np.random.default_rng(seed))
    x = g if kind == "g" else concat_col(g, g) if kind == "gg" else series(g, inverse(g))
    h = minreal(x)
    assert h.n <= x.n
    assert 1 not in weierstrass_structure(h.A, h.E).infinite_divisor_degrees


def _system(n, m, domain, proper, seed):
    return random_system(n, m, m, domain, proper=proper, rng=np.random.default_rng(seed))


def _diagonally_scaled(g, log_cond, seed):
    """``(D^-1 (A - lam E) D, D^-1 B, C D)`` through ``make_system``, so the
    regularity probe runs again; each diagonal entry of ``D`` is 1 or
    ``10**log_cond``."""
    d = 10.0 ** (log_cond * (np.random.default_rng(seed).random(g.n) < 0.5))
    return make_system(g.A * d / d[:, None], g.E * d / d[:, None], g.B / d[:, None], g.C * d, g.D, g.domain)


def _klf_structure(g):
    ks = klf(*_system_pencil(g))[4]
    return ks.right_indices, ks.left_indices, ks.infinite_divisor_degrees, len(ks.finite_eigenvalues)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(**systems)
def test_tiny_scale_leaves_decisions(n, m, domain, proper, seed):
    # (c A, c E, c B, C, D) has the TFM of (A, E, B, C, D): structural cuts
    # must scale with the data, not sit at an absolute floor
    c, g = 1e-13, _system(n, m, domain, proper, seed)
    h = make_system(c * g.A, c * g.E, c * g.B, g.C, g.D, domain)
    assert minreal(h).n == minreal(g).n
    assert len(klf(h.A, h.E)[4].finite_eigenvalues) == len(klf(g.A, g.E)[4].finite_eigenvalues)
    M, N = _system_pencil(g)
    assert pencil_normal_rank(c * M, c * N) == pencil_normal_rank(M, N)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(log_cond=st.sampled_from([3.0, 6.0]), **systems)
def test_diagonal_scaling_keeps_point_ranks(log_cond, n, m, domain, proper, seed):
    # point ranks (regularity, normal rank) stay relative to sigma_max
    g = _system(n, m, domain, proper, seed)
    assert normal_rank(_diagonally_scaled(g, log_cond, seed)) == normal_rank(g)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(log_cond=st.floats(0.0, 4.0), **systems)
def test_diagonal_scaling_keeps_structure(log_cond, n, m, domain, proper, seed):
    g = _system(n, m, domain, proper, seed)
    h = _diagonally_scaled(g, log_cond, seed)
    pg, ph = poles(g), poles(h)
    assert (ph.total, ph.infinite_count, len(ph.finite)) == (pg.total, pg.infinite_count, len(pg.finite))
    cost = np.abs(np.subtract.outer(pg.finite, ph.finite))
    assert cost[linear_sum_assignment(cost)].max(initial=0.0) <= 1e-6 * (1.0 + np.abs(pg.finite).max(initial=0.0))
    zg, zh = zeros(g), zeros(h)
    assert (zh.total, zh.kronecker_ranks) == (zg.total, zg.kronecker_ranks)
    assert _klf_structure(h) == _klf_structure(g)
    assert minimality_report(h) == minimality_report(g)


_POINTS = [0.37 + 1.13j, -0.61 + 0.29j, 1.7 - 0.8j]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    n=st.integers(2, 12),
    m=st.integers(1, 3),
    p=st.integers(1, 3),
    inner=st.integers(1, 3),
    domain=st.sampled_from(["continuous", "discrete"]),
    proper=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_compatible_solve_right_is_right_or_refused(n, m, p, inner, domain, proper, seed):
    # G = G1 G2 through `inner` channels (rank deficient below min(m, p)) and
    # F = G X1: a returned X solves G X = F normwise, and a failure is a
    # typed refusal, never another exception
    r = np.random.default_rng(seed)
    g1 = random_system(n // 2, inner, p, domain, proper=proper or n < 4, rng=r)
    G = series(g1, random_system(n - n // 2, m, inner, domain, rng=r))
    F = series(G, random_system(2, 1, m, domain, rng=r))
    try:
        X = solve_right(G, F).particular
    except DstkError:
        return
    for lam in _POINTS:
        g, x, f = (eval_tfm(h, lam) for h in (G, X, F))
        assert np.linalg.norm(g @ x - f) <= 1e-8 * (np.linalg.norm(g) * np.linalg.norm(x) + np.linalg.norm(f))
