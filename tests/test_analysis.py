import dataclasses

import numpy as np
import pytest

from conftest import assert_same_tfm, assert_tfm_match, oracle_points, safe_eval

from dstk import analysis
from dstk.analysis import (
    ORTH_TOL,
    StabilityRegion,
    _ctrb_reduce,
    _reduce,
    h2_norm,
    is_minimum_phase,
    is_stable,
    mcmillan_degree,
    minimality_report,
    minreal,
    normal_rank,
    poles,
    stability_region,
    zeros,
)
from dstk.exceptions import (
    IterationFailure,
    NonstrictlyProperContinuous,
    SpectraNotDisjoint,
    UnstablePair,
    UnstableSystem,
)
from dstk.kernels import default_tol, glyap, gsylv_separation
from dstk.ops import (
    RationalMatrixData,
    concat_col,
    concat_row,
    diag_stack,
    inverse,
    parallel,
    realize_rational,
    series,
    transpose_dual,
)
from dstk.pencil import klf, weierstrass_structure
from dstk.solve import right_nullspace, solve_right
from dstk.system import eval_tfm, make_system, random_system


def lag(a=1.0, domain="continuous"):
    """1/(s+a)."""
    return make_system([[-a]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], domain)


def derivative_sys():
    """Minimal order-2 realization of G(s) = s."""
    return make_system(np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")


def rational(entries, p, m, domain="continuous"):
    return realize_rational(RationalMatrixData(p, m, entries), domain)


def negated(g):
    return make_system(g.A, g.E, g.B, -g.C, -g.D, g.domain)


def doubled_variants(g):
    """``g`` and four doubled realizations of order 2n, each with its true
    (finite controllable, finite observable) when ``g`` is minimal with a
    finite pole."""
    return [
        (g, (True, True)),
        (concat_col(g, g), (False, True)),
        (concat_row(g, g), (True, False)),
        (parallel(g, g), (False, False)),
        (parallel(g, negated(g)), (False, False)),
    ]


class TestStabilityRegion:
    def test_kinds(self):
        lhp = StabilityRegion.left_half_plane()
        assert lhp.contains(-0.1) and not lhp.contains(0.0) and not lhp.contains(1j)
        disk = StabilityRegion.unit_disk()
        assert disk.contains(0.5j) and not disk.contains(1.0)
        hp = StabilityRegion.half_plane(-2.0)
        assert hp.contains(-3.0) and not hp.contains(-1.0)
        dk = StabilityRegion.disk(2.0)
        assert dk.contains(1.5) and not dk.contains(2.5)
        assert lhp.contains(lhp.real_point()) and disk.contains(disk.real_point())

    def test_boundary_and_reflect(self):
        lhp = StabilityRegion.left_half_plane()
        assert lhp.on_boundary(1e-12 + 3j)
        assert lhp.contains(lhp.reflect(2.0 + 1j))
        disk = StabilityRegion.unit_disk()
        assert disk.on_boundary(np.exp(0.3j))
        assert disk.contains(disk.reflect(3.0 - 2j))
        assert disk.contains(disk.reflect(1.0))  # boundary point pulled inside

    def test_domain_map(self):
        assert stability_region("continuous").is_half_plane
        assert not stability_region("discrete").is_half_plane


class TestNormalRank:
    def test_column_of_one_and_s(self):
        g = rational([[([1.0], [1.0])], [([0.0, 1.0], [1.0])]], 2, 1)
        assert normal_rank(g) == 1

    def test_zero_static(self):
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 4)), np.zeros((2, 0)), np.zeros((2, 4)), "continuous")
        assert normal_rank(g) == 0

    def test_diag_mixed(self):
        g = rational(
            [[([1.0], [1.0, 1.0]), ([0.0], [1.0])], [([0.0], [1.0]), ([0.0, 1.0], [1.0])]], 2, 2
        )
        assert normal_rank(g) == 2

    def test_dual_invariance(self, rng):
        for _ in range(5):
            g = random_system(int(rng.integers(0, 5)), 2, 3, "continuous", rng=rng)
            assert normal_rank(g) == normal_rank(transpose_dual(g))

    # the rounded infinite eigenvalues of an improper pencil must not size the
    # probe circle, or every probe point sits next to a "pole" and is rejected
    @pytest.mark.parametrize(
        "seed, domain, n", [(0, "continuous", 8), (0, "continuous", 16), (4, "discrete", 8), (2, "discrete", 16)]
    )
    def test_improper_random(self, seed, domain, n):
        g = random_system(n, 2, 2, domain, proper=False, rng=np.random.default_rng(seed))
        assert normal_rank(g) == 2


class TestPoles:
    def test_lag(self):
        info = poles(lag(2.0))
        assert np.allclose(info.finite, [-2.0])
        assert info.infinite_count == 0 and info.total == 1
        assert info.kronecker_ranks is None

    def test_derivative(self):
        info = poles(derivative_sys())
        assert info.finite == [] and info.infinite_count == 1 and info.total == 1

    def test_double_pole_at_zero(self):
        g = make_system([[0.0, 1.0], [0.0, 0.0]], np.eye(2), [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], "continuous")
        info = poles(g)
        assert np.allclose(info.finite, [0.0, 0.0]) and info.total == 2


def _match_values(got, want, rtol):
    """Every value of ``want`` has its own value of ``got`` within ``rtol``."""
    left = list(got)
    assert len(left) == len(want)
    for z in want:
        j = int(np.argmin([abs(z - w) for w in left]))
        assert abs(z - left.pop(j)) <= rtol * (1.0 + abs(z)), z


class TestOneDecision:
    """``poles`` reads ``minreal``'s split; it must agree with a second
    deflation of the minimal realization (``weierstrass_structure``)."""

    @staticmethod
    def corpus():
        for s in range(24):
            r = np.random.default_rng(s)
            n, m, p = r.integers(2, 40), r.integers(1, 4), r.integers(1, 4)
            domain = "continuous" if s % 2 == 0 else "discrete"
            g = random_system(n, m, p, domain, proper=s % 3 != 0, rng=r)
            yield from (g, concat_col(g, g), parallel(g, g))

    def test_poles_agree_with_weierstrass_structure(self):
        for g in self.corpus():
            info, gm = poles(g), minreal(g)
            ws = weierstrass_structure(gm.A, gm.E)
            assert info.infinite_count == sum(d - 1 for d in ws.infinite_divisor_degrees)
            _match_values(info.finite, ws.finite_eigenvalues, 1e-10)

    def test_infinite_block_iff_nonstandard(self):
        products = []
        for s in range(6):
            domain = "continuous" if s % 2 == 0 else "discrete"
            h = random_system(8, 2, 2, domain, proper=s % 3 != 0, rng=np.random.default_rng(s))
            products.append(series(h, inverse(h)))
        for g in [*self.corpus(), *products]:
            gm, nf, ninf = _reduce(g, None)
            assert (ninf == 0) == gm.is_standard == (nf == gm.n)


class TestZeros:
    def test_biproper_lag(self):
        # (s+1)/(s+2)
        g = make_system([[-2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], "continuous")
        info = zeros(g)
        assert np.allclose(info.finite, [-1.0], atol=1e-8)

    def test_derivative_zero_at_origin(self):
        info = zeros(derivative_sys())
        assert np.allclose(info.finite, [0.0], atol=1e-10)
        assert info.infinite_count == 0
        np_total = poles(derivative_sys()).total
        assert np_total == info.total + info.kronecker_ranks[0] + info.kronecker_ranks[1]

    def test_wide_no_zeros(self):
        g = rational([[([1.0], [1.0]), ([0.0, 1.0], [1.0])]], 1, 2)
        info = zeros(g)
        assert info.total == 0
        assert poles(g).total == 1
        assert info.kronecker_ranks == (1, 0)

    def test_identity_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(0, 6))
            proper = n < 2 or rng.uniform() < 0.6
            g = random_system(n, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                              "continuous" if rng.uniform() < 0.5 else "discrete",
                              proper=proper, rng=rng)
            zp = poles(g)
            zz = zeros(g)
            assert zp.total == zz.total + zz.kronecker_ranks[0] + zz.kronecker_ranks[1]

    def _product(self, seed):
        # 3x4 of normal rank 2: one left and two right Kronecker blocks
        r = np.random.default_rng(seed)
        return series(random_system(10, 2, 3, "continuous", rng=r), random_system(10, 4, 2, "continuous", rng=r))

    @pytest.mark.parametrize(
        "query",
        [zeros, right_nullspace, lambda g: solve_right(g, g)],
        ids=["zeros", "right_nullspace", "solve_right"],
    )
    def test_misjudged_staircase_refused(self, query):
        # the staircase misreads the Kronecker structure of this product; it
        # used to report 10 finite zeros with ranks (5, 0).  Every reader of
        # the system-pencil staircase goes through the same block-count check
        with pytest.raises(IterationFailure):
            query(self._product(7))

    def test_rank_deficient_product(self):
        info = zeros(self._product(0))
        assert info.kronecker_ranks == (10, 10)
        assert info.total == 0

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    @pytest.mark.parametrize("n", [8, 24, 48])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_dynamics_match_the_staircase(self, m, n, domain):
        # a square D of condition 2 passes the gate: the structure read from
        # eig(A + B D^-1 C) is the one klf finds on the system pencil
        for s in range(3):
            r = np.random.default_rng(1000 * s + n)
            g = random_system(n, m, m, domain, rng=r)
            D = np.linalg.qr(r.normal(size=(m, m)))[0] * np.linspace(1.0, 0.5, m)
            g = minreal(make_system(g.A, g.E, g.B, g.C, D, domain))
            Mk, _, _, ks, rank = analysis._structure(g, None)
            want = klf(*analysis._system_pencil(g))[4]
            assert Mk is None
            assert rank == want.normal_rank - g.n
            for field in ("right_indices", "left_indices", "infinite_divisor_degrees"):
                assert getattr(ks, field) == getattr(want, field)
            _match_values(ks.finite_eigenvalues, want.finite_eigenvalues, 1e-8)


class TestDegreeAndPredicates:
    def test_static(self):
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 1)), np.zeros((1, 0)), [[3.0]], "continuous")
        assert mcmillan_degree(g) == 0

    def test_derivative(self):
        assert mcmillan_degree(derivative_sys()) == 1

    def test_series_degree(self):
        assert mcmillan_degree(series(lag(1.0), lag(2.0))) == 2

    def test_stability(self):
        assert is_stable(lag(1.0))
        assert not is_stable(derivative_sys())
        g = make_system([[-2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]], "continuous")  # (s-1)/(s+2)
        assert is_stable(g) and not is_minimum_phase(g)

    @pytest.mark.parametrize(
        "g",
        [
            # 1/s once the pole at -1 cancels: minreal leaves A = [[-7.85e-17]]
            make_system([[0.0, 1.0], [0.0, -1.0]], np.eye(2), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]], "continuous"),
            make_system([[1.0 - 1e-9]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], "discrete"),
        ],
        ids=["continuous-integrator", "discrete-near-unit-circle"],
    )
    def test_boundary_pole_refused(self, g):
        # a pole within BOUNDARY_TOL of the boundary is not decided by the
        # sign of its rounding error
        assert not is_stable(g)
        with pytest.raises(UnstableSystem):
            h2_norm(g)
        h = minreal(g)
        with pytest.raises(UnstablePair):
            glyap(h.A, h.E, h.B @ h.B.T, g.domain)

    def test_proper_no_infinite_poles(self, rng):
        for _ in range(5):
            g = random_system(int(rng.integers(0, 5)), 2, 2, "discrete", proper=True, rng=rng)
            assert poles(g).infinite_count == 0

    def test_degree_bounded_by_order(self, rng):
        for _ in range(8):
            n = int(rng.integers(0, 6))
            g = random_system(n, 1, 2, "continuous", proper=n < 2 or rng.uniform() < 0.5, rng=rng)
            assert mcmillan_degree(g) <= g.n

    @pytest.mark.parametrize("seed", range(12))
    def test_degree_is_pole_count(self, seed):
        # read from minreal's split, with no eigenvalues; improper for seed % 3 == 0
        r = np.random.default_rng(3000 + seed)
        n, m, p = int(r.integers(2, 20)), int(r.integers(1, 4)), int(r.integers(1, 4))
        g = random_system(n, m, p, ("continuous", "discrete")[seed % 2], proper=seed % 3 != 0, rng=r)
        for x in (g, concat_col(g, g), parallel(g, negated(g)), series(g, transpose_dual(g))):
            assert mcmillan_degree(x) == poles(x).total


# seeds whose doubled realizations still hide a cancellation below the
# staircase tolerance (accumulated rounding, ROADMAP item 6)
_MISSED = {("continuous", 24, 0), ("continuous", 24, 4), ("discrete", 24, 2)}
_ITEM_6 = pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
_DOUBLED_CASES = [
    pytest.param(d, n, s, marks=_ITEM_6 if (d, n, s) in _MISSED else ())
    for d in ("continuous", "discrete")
    for n in (16, 24)
    for s in range(5)
]


class TestMinimalityReport:
    def test_minimal_lag(self):
        rep = minimality_report(lag())
        assert rep.minimal and rep.irreducible and rep.order == 1

    def test_uncontrollable_block(self, rng):
        # stable state with zero input rows stays finite-uncontrollable
        g = lag()
        A = np.array([[-1.0, 0.0], [0.0, -3.0]])
        B = np.array([[1.0], [0.0]])
        C = np.array([[-1.0, 1.0]])
        bad = make_system(A, np.eye(2), B, C, [[0.0]], "continuous")
        rep = minimality_report(bad)
        assert not rep.finite_controllable
        assert rep.finite_observable

    def test_nondynamic_mode(self):
        # N(E) = span{1}, A N(E) = span{1}, R(E) = {0}
        g = make_system([[1.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]], "continuous")
        rep = minimality_report(g)
        assert not rep.no_nondynamic_modes
        assert rep.irreducible

    def test_static_system(self):
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 2)), np.zeros((1, 0)), [[1.0, 2.0]], "discrete")
        rep = minimality_report(g)
        assert rep.minimal and rep.order == 0

    def test_rounding_level_nondynamic_mode(self):
        # E = 1e-15 sits below the staircase tolerance: the state is
        # non-dynamic, and minreal solves it out
        g = make_system([[1.0]], [[1e-15]], [[1.0]], [[1.0]], [[0.0]], "continuous")
        assert not minimality_report(g).no_nondynamic_modes
        assert minreal(g).n == 0

    @pytest.mark.parametrize("domain, n, seed", _DOUBLED_CASES)
    def test_doubled_systems(self, domain, n, seed):
        g = random_system(n, 2, 2, domain, rng=np.random.default_rng(1000 * seed + n))
        variants = doubled_variants(g)
        for x, truth in variants[:3] + variants[4:]:
            rep = minimality_report(x)
            assert (rep.finite_controllable, rep.finite_observable) == truth

    @pytest.mark.parametrize("seed", range(8))
    def test_dual_symmetry(self, seed):
        r = np.random.default_rng(seed)
        domain = ("continuous", "discrete")[seed % 2]
        n, m, p = int(r.integers(2, 13)), int(r.integers(1, 4)), int(r.integers(1, 4))
        g = random_system(n, m, p, domain, proper=seed % 4 < 2, rng=r)
        for x, _ in doubled_variants(g):
            rep = minimality_report(x)
            swapped = dataclasses.replace(
                rep,
                finite_controllable=rep.finite_observable,
                infinite_controllable=rep.infinite_observable,
                finite_observable=rep.finite_controllable,
                infinite_observable=rep.infinite_controllable,
            )
            assert minimality_report(transpose_dual(x)) == swapped


class TestMinreal:
    def test_already_minimal(self, rng):
        g = lag()
        gm = minreal(g)
        assert gm.n == g.n
        assert_same_tfm(gm, g, rng)

    def test_duplicate_states_removed(self, rng):
        g = parallel(lag(), lag())
        gm = minreal(g)
        assert gm.n == 1
        assert abs(eval_tfm(gm, 1.0)[0, 0] - 1.0) < 1e-10  # 2/(s+1) at 1

    def test_inverse_realization_reduced(self, rng):
        # inverse of 1/(s+1) is s+1: McMillan degree 1 but minimal order 2
        g = inverse(lag())
        gm = minreal(g)
        assert gm.n == 2
        assert abs(eval_tfm(gm, 3.0)[0, 0] - 4.0) < 1e-10
        assert minimality_report(gm).minimal

    def test_tfm_preserved_and_reports_minimal(self, rng):
        for _ in range(8):
            n = int(rng.integers(0, 6))
            proper = n < 2 or rng.uniform() < 0.6
            dom = "continuous" if rng.uniform() < 0.5 else "discrete"
            g = random_system(n, int(rng.integers(1, 3)), int(rng.integers(1, 3)), dom, proper=proper, rng=rng)
            gm = minreal(g)
            assert gm.n <= g.n
            assert minimality_report(gm).minimal
            for lam in oracle_points(rng, 7):
                lam, a = safe_eval(gm, lam, rng)
                b = eval_tfm(g, lam)
                assert np.linalg.norm(a - b) <= 1e-8 * (1 + np.linalg.norm(b))

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    @pytest.mark.parametrize("seed", range(5))
    def test_improper_identity_product(self, domain, seed, rng):
        g = random_system(8, 2, 2, domain, proper=False, rng=np.random.default_rng(1000 * seed + 8))
        gm = minreal(series(g, inverse(g)))
        assert gm.n == 0
        assert_tfm_match(gm, lambda lam: np.eye(2), rng)

    def test_idempotent_order(self, rng):
        g = parallel(lag(), series(lag(), lag(2.0)))
        g1 = minreal(g)
        g2 = minreal(g1)
        assert g2.n == g1.n

    def test_degree_equals_order_iff_minimal_proper(self, rng):
        g = parallel(lag(), lag())  # order 2, degree 1
        assert mcmillan_degree(g) == 1
        gm = minreal(g)
        assert gm.n == 1 == mcmillan_degree(gm)

    def test_standard_system_at_a_cut_above_one(self):
        # E = I is its own split, invertible at any tol: a cut of 2 reduces
        # the staircases instead of calling the identity singular
        h = random_system(8, 2, 2, "continuous", rng=np.random.default_rng(8))
        g = make_system(h.A, None, h.B, h.C, h.D, "continuous")
        gm = minreal(g, tol=2.0)
        assert gm.is_standard and gm.n <= g.n
        assert minimality_report(g, tol=2.0).order == g.n

    @pytest.mark.parametrize("query", [minreal, minimality_report, poles, zeros])
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("proper", [True, False])
    def test_invalid_tolerance_refused(self, query, tol, proper):
        # a negative tol used to cut nothing and nan to raise a misleading SingularPencil
        g = random_system(6, 2, 2, "continuous", proper=proper, rng=np.random.default_rng(6))
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
            query(g, tol=tol)
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
            weierstrass_structure(g.A, g.E, tol=tol)


class TestCtrbReduce:
    @pytest.mark.parametrize("n1, n2, m", [(5, 4, 1), (12, 7, 2), (20, 10, 3)])
    def test_keeps_controllable_part(self, rng, n1, n2, m):
        # diag(G1, G2) with G2 fed by no input, hidden by an orthogonal similarity
        g1 = random_system(n1, m, 2, "continuous", rng=rng)
        g1 = make_system(np.linalg.solve(g1.E, g1.A), None, np.linalg.solve(g1.E, g1.B), g1.C, g1.D, "continuous")
        g2 = make_system(rng.normal(size=(n2, n2)), None, np.zeros((n2, 1)), rng.normal(size=(2, n2)),
                         np.zeros((2, 1)), "continuous")
        Q = np.linalg.qr(rng.normal(size=(n1 + n2, n1 + n2)))[0]
        g = diag_stack(g1, g2)
        At, Bt, Ct = Q.T @ g.A @ Q, Q.T @ g.B, g.C @ Q
        tol = default_tol(n1 + n2, max(np.linalg.norm(X) for X in (At, Bt, Ct)) + 1.0)  # minreal's rule
        A, B, C = _ctrb_reduce(At, Bt, Ct, tol)
        assert A.shape == (n1, n1) and B.shape == (n1, m + 1) and C.shape == (4, n1)
        assert_same_tfm(make_system(A, None, B, C, g.D, "continuous"), g, rng)

    @pytest.mark.parametrize("n1, n2, m", [(8, 4, 2), (24, 12, 2), (40, 20, 2), (40, 20, 3)])
    def test_removes_uncontrollable_part(self, n1, n2, m):
        A, B, C, tol = _hidden_uncontrollable(n1, n2, m, np.random.default_rng(100 * n1 + m))
        Ar, Br, Cr = _ctrb_reduce(A, B, C, tol)
        assert Ar.shape == (n1, n1) and Br.shape == (n1, m) and Cr.shape == (2, n1)
        for lam in _FIXED_POINTS:
            R = np.linalg.solve(A - lam * np.eye(A.shape[0]), B)
            err = np.linalg.norm(_dense_tfm(Ar, Br, Cr, lam) - C @ R) / (np.linalg.norm(C) * np.linalg.norm(R))
            assert err <= 1e-12

    @pytest.mark.parametrize("n1, n2, m", [(8, 4, 2), (24, 12, 2), (40, 20, 2), (40, 20, 3)])
    def test_basis_orthonormal(self, n1, n2, m):
        # with C = I the third block is the basis V itself
        A, B, _, tol = _hidden_uncontrollable(n1, n2, m, np.random.default_rng(100 * n1 + m))
        V = _ctrb_reduce(A, B, np.eye(n1 + n2), tol)[2]
        k = V.shape[1]
        assert k == n1 and np.abs(V.T @ V - np.eye(k)).max() <= ORTH_TOL * k

    def test_zero_tolerance_keeps_every_state(self):
        # at tol 0 rounding-level singular values count too; the stairs stop at n
        A, B, C, _ = _hidden_uncontrollable(6, 3, 2, np.random.default_rng(9))
        Ar, Br, Cr = _ctrb_reduce(A, B, C, 0.0)
        assert Ar.shape == (9, 9) and Br.shape == (9, 2) and Cr.shape == (2, 9)

    def test_reorthonormalized_near_the_cut(self, monkeypatch):
        # item 6's discrete n = 8, s = 2 draw: minreal's first staircase keeps a
        # stair just above its cut, where two Gram-Schmidt passes leave
        # |V^T V - I| near 100 eps k
        seen = []
        monkeypatch.setattr(analysis, "_ctrb_reduce", lambda A, B, C, tol: seen.append((A, B, C, tol)) or _ctrb_reduce(A, B, C, tol))
        minreal(random_system(8, 2, 2, "discrete", rng=np.random.default_rng(2008)))
        monkeypatch.undo()
        A, B, C, tol = seen[0]
        V = _ctrb_reduce(A, B, np.eye(A.shape[0]), tol)[2]
        k = V.shape[1]
        assert np.abs(V.T @ V - np.eye(k)).max() <= ORTH_TOL * k
        Ar, Br, Cr = _ctrb_reduce(A, B, C, tol)
        for lam in _FIXED_POINTS:
            want = _dense_tfm(A, B, C, lam)
            assert np.linalg.norm(_dense_tfm(Ar, Br, Cr, lam) - want) <= 1e-10 * np.linalg.norm(want)
        monkeypatch.setattr(analysis, "ORTH_TOL", np.inf)  # Gram-Schmidt alone
        V = _ctrb_reduce(A, B, np.eye(A.shape[0]), tol)[2]
        assert np.abs(V.T @ V - np.eye(k)).max() > ORTH_TOL * k

    @pytest.mark.parametrize("seed", [298, 1316])
    def test_basis_that_lost_rank_refused(self, seed):
        # G G^-1 of these discrete draws leaves a Krylov basis whose Gram
        # matrix is not numerically positive definite, so its Cholesky QR
        # fails; an SVD-repaired basis gives a wrong system, so minreal
        # refuses instead of leaking numpy's LinAlgError
        r = np.random.default_rng(seed)
        n, m = int(r.integers(4, 24)), int(r.integers(1, 3))
        g = random_system(n, m, m, "discrete", rng=r)
        with pytest.raises(IterationFailure):
            minreal(series(g, inverse(g)))


_FIXED_POINTS = [1.5 * np.exp(1j * t) for t in np.linspace(0.3, np.pi - 0.3, 6)]


def _dense_tfm(A, B, C, lam):
    """``C (A - lam I)^-1 B`` by one dense solve, without ``eval_tfm``."""
    return C @ np.linalg.solve(A - lam * np.eye(A.shape[0]), B)


def _hidden_uncontrollable(n1, n2, m, rng):
    """``(A, B, C, tol)``: a controllable ``(A1, B1)`` of order ``n1`` beside
    an unfed ``A2`` of order ``n2``, hidden by an orthogonal similarity, and
    minreal's staircase tolerance for them."""
    g1 = random_system(n1, m, 2, "continuous", rng=rng)
    n = n1 + n2
    A, B = np.zeros((n, n)), np.zeros((n, m))
    A[:n1, :n1], B[:n1] = np.linalg.solve(g1.E, g1.A), np.linalg.solve(g1.E, g1.B)
    A[n1:, n1:] = rng.normal(size=(n2, n2))
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A, B, C = Q.T @ A @ Q, Q.T @ B, rng.normal(size=(2, n)) @ Q
    return A, B, C, default_tol(n, max(np.linalg.norm(X) for X in (A, B, C)) + 1.0)


def _well_conditioned(n, rng):
    """Random matrix with singular values in ``[e^-0.6, e^0.6]``."""
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    return Q1 @ np.diag(np.exp(rng.uniform(-0.6, 0.6, n))) @ Q2


def _planted_chains(n, chains, domain, rng):
    """Minimal system of order ``n`` and McMillan degree ``n - len(chains)``: a
    generic finite part beside one nilpotent shift chain of each degree in
    ``chains`` (in ``E``), hidden by well-conditioned ``U``, ``V``."""
    nf = n - sum(chains)
    A0, E0 = np.eye(n), np.zeros((n, n))
    A0[:nf, :nf] = rng.normal(size=(nf, nf)) / np.sqrt(nf)
    E0[:nf, :nf] = np.eye(nf)
    k = nf
    for c in chains:
        E0[np.arange(k, k + c - 1), np.arange(k + 1, k + c)] = 1.0
        k += c
    U, V = _well_conditioned(n, rng), _well_conditioned(n, rng)
    B, C, D = U @ rng.normal(size=(n, 2)), rng.normal(size=(2, n)) @ V, rng.normal(size=(2, 2))
    return make_system(U @ A0 @ V, U @ E0 @ V, B, C, D, domain)


def _dense_descriptor_tfm(g, lam):
    """``(C (A - lam E)^-1 B + D, ||(A - lam E)^-1 B||)`` by one dense solve."""
    X = np.linalg.solve(g.A - lam * g.E, g.B)
    return g.C @ X + g.D, np.linalg.norm(X, 2)


def _standardized_split(g):
    """``minreal``'s standardized blocks ``(Ah, P, Q, As)``, the largest
    divisor degree and the unstandardized coupling system of
    ``gsylv_separation``."""
    Mk, Nk, _, _, divisors, *_ = analysis._split(g, None)
    n, k = g.n, sum(divisors)
    X = np.linalg.solve(Mk[:k, :k], np.hstack([Nk[:k], Mk[:k, k:]]))
    As = np.linalg.solve(Nk[k:, k:], Mk[k:, k:])
    blocks = (Mk[:k, :k], Mk[:k, k:], Mk[k:, k:], Nk[:k, :k], Nk[:k, k:], Nk[k:, k:])
    return (X[:, :k], X[:, n:], X[:, k:n], As), max(divisors), blocks


_CHAINS = [pytest.param(n, d, c, id=f"{d[0]}{n}-chain{c}") for n in (16, 48) for d in ("continuous", "discrete") for c in range(2, 7)]


# bench seed 401's first planted system (continuous, proper, order 4, 2 x 2):
# the third stair of parallel(G, -G) has singular values 1.8e-11 and 2.7e-12
# against a cut of 2.07e-12, so minreal keeps 4 of its 8 states
_SEED_401 = dict(
    A=[[2.169078404096235, -2.6954424825624237, 0.46100460071819549, 2.0580215359183187],
       [-2.3667387293457458, -0.69158102300960966, -0.11257290811073567, 2.3202228592723357],
       [-4.9161615826493454, -0.89946201977732509, 1.0085216694679808, 0.73041420446270577],
       [-0.18066450333422576, 1.0151533888128799, 1.0553995055296568, 0.024643202558507157]],
    E=[[-0.12081047740354477, 0.96184849092775748, 0.36966502102218057, -0.39850635809843904],
       [0.95251933389601029, -0.28476945327985576, 0.29124995529379022, -0.31168035668416627],
       [2.1572379388452418, 0.40559546146208081, -1.1430900299133298, 0.090627221871315694],
       [0.34709955950749921, -0.35542758040512867, -0.47016281643582164, -0.32546954862455829]],
    B=[[1.4489917144150037, -0.078367399983022834],
       [-0.78195381640486072, 0.35824813476285244],
       [-2.8627061272312382, -1.790669077505826],
       [0.28973520411373871, 0.32392279229429766]],
    C=[[-1.0667434379408567, 0.91922927983975911, 0.182591399734854, 0.56321709263445741],
       [0.88264176360051383, -0.34553228563544042, 0.74054173520766442, -0.39197919212306948]],
    D=[[1.405475887007247, 0.84570538064665224],
       [-0.97865740796203682, 1.4284664589157847]],
)


@_ITEM_6
def test_order_8_cancellation_found():
    g = make_system(domain="continuous", **_SEED_401)
    assert minreal(g).n == 4
    assert minreal(parallel(g, negated(g))).n == 0
    assert minreal(concat_col(g, g)).n == 4


class TestNeumannDecoupling:
    @pytest.mark.parametrize("n, domain, c", _CHAINS)
    def test_planted_chains_reduce_exactly(self, n, domain, c):
        g = _planted_chains(n, (c, 2), domain, np.random.default_rng(100 * n + c))
        gm = minreal(g)
        assert gm.n == n and mcmillan_degree(g) == n - 2  # a chain of degree c is c states, c - 1 poles
        for lam in _FIXED_POINTS:
            want, size = _dense_descriptor_tfm(g, lam)
            got = _dense_descriptor_tfm(gm, lam)[0]
            scale = np.linalg.norm(g.D, 2) + np.linalg.norm(g.C, 2) * size
            assert np.linalg.norm(got - want, 2) <= 1e-12 * scale

    @pytest.mark.parametrize("n, domain, c", _CHAINS)
    def test_sum_is_gsylv_solution(self, n, domain, c):
        g = _planted_chains(n, (c, 2), domain, np.random.default_rng(100 * n + c))
        (Ah, P, Q, As), d, blocks = _standardized_split(g)
        assert d == c and not np.linalg.matrix_power(Ah, d).any()
        R = analysis._neumann_decouple(Ah, P, Q, As, d)[1]
        Rg = gsylv_separation(*blocks)[1]
        assert np.linalg.norm(R - Rg) <= 1e-10 * np.linalg.norm(Rg)
        with pytest.raises(SpectraNotDisjoint):  # the sum cut to its first term
            analysis._neumann_decouple(Ah, P, Q, As, 1)


class TestH2Norm:
    def test_lag_analytic(self):
        # (1/2pi) integral of 1/(1+w^2) dw = 1/2, so the norm is 1/sqrt(2)
        assert abs(h2_norm(lag()) - 1.0 / np.sqrt(2.0)) < 1e-6

    def test_lag_quadrature_cross_check(self):
        w = np.logspace(-4, 4, 20001)
        vals = 1.0 / (1.0 + w**2)
        integral = 2.0 * np.trapezoid(vals, w) / (2.0 * np.pi)
        assert abs(h2_norm(lag()) - np.sqrt(integral)) < 1e-4

    def test_zero_system(self):
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 2)), np.zeros((1, 0)), np.zeros((1, 2)), "continuous")
        assert h2_norm(g) == 0.0

    def test_discrete_delay(self):
        # impulse response {0, 1, 0, ...} has unit l2 norm
        g = make_system([[0.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "discrete")
        assert abs(h2_norm(g) - 1.0) < 1e-10

    def test_errors(self):
        unstable = make_system([[1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
        with pytest.raises(UnstableSystem):
            h2_norm(unstable)
        biproper = make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[1.0]], "continuous")
        with pytest.raises(NonstrictlyProperContinuous):
            h2_norm(biproper)
        # instability outranks a nonzero feedthrough; s + 1/(s + 0.5) is
        # improper with a finite pole that is stable in both domains
        unstable_biproper = make_system([[1.0]], [[1.0]], [[1.0]], [[-1.0]], [[1.0]], "continuous")
        improper = parallel(derivative_sys(), lag(0.5))
        discrete = make_system(improper.A, improper.E, improper.B, improper.C, improper.D, "discrete")
        for g in (unstable_biproper, improper, discrete):
            with pytest.raises(UnstableSystem):
                h2_norm(g)

    def test_discrete_static_gain(self):
        D = np.array([[1.0, -2.0], [0.5, 3.0]])
        g = make_system(np.zeros((0, 0)), None, np.zeros((0, 2)), np.zeros((2, 0)), D, "discrete")
        assert abs(h2_norm(g) - np.linalg.norm(D)) <= 1e-14 * np.linalg.norm(D)
