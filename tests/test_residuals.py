"""The one residual acceptance rule (``kernels._accepted``) at each of its
sites, and the tolerance literals it keeps in one place.

A Sylvester, Lyapunov or Riccati solution, and the ``G X = F`` certificate of
a particular solution, is accepted when its residual is finite and at most a
fixed fraction of the terms that cancel in it.  Each mutation test below
corrupts one solution and shows the rule refusing it with the site's typed
error; the regression tests pin inputs that the old per-site scales refused
although their results pass a dense-solve oracle.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from dstk import analysis, factor, kernels, solve
from dstk.analysis import h2_norm, stability_region
from dstk.exceptions import IterationFailure, SpectraNotDisjoint
from dstk.factor import _riccati_gain, _riccati_schur, inner_outer, lcf, rcf
from dstk.kernels import PROBE_RESIDUAL_TOL, RESIDUAL_TOL, _accepted, _sylv_quasi, glyap, gsylv_separation
from dstk.ops import series
from dstk.solve import right_nullspace, solve_right
from dstk.system import make_system, random_system

SRC = Path(__file__).resolve().parents[1] / "src" / "dstk"


def _dense_tfm(g, lam):
    return g.C @ np.linalg.solve(g.A - lam * g.E, g.B) + g.D


def _stable(g):
    alpha, beta = sla.eigvals(g.A, g.E, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * (np.abs(alpha) + np.abs(beta))
    z = alpha[finite] / beta[finite]
    return bool(np.all(z.real < 0.0)) if g.domain.value == "continuous" else bool(np.all(np.abs(z) < 1.0))


class TestRule:
    def test_accepts_at_the_bound_and_refuses_past_it(self):
        a = np.ones((2, 2))
        _accepted([a, -a], IterationFailure, "exact")
        _accepted([a, -(1.0 - RESIDUAL_TOL) * a], IterationFailure, "inside")  # ratio tol / (2 - tol)
        with pytest.raises(IterationFailure, match="^far residual too large"):
            _accepted([a, -0.9 * a], IterationFailure, "far")

    def test_refuses_non_finite(self):
        a = np.ones((2, 2))
        with pytest.raises(SpectraNotDisjoint):
            _accepted([a, np.full((2, 2), np.nan)], SpectraNotDisjoint, "nan")
        with pytest.raises(SpectraNotDisjoint), np.errstate(invalid="ignore"):
            _accepted([np.full((2, 2), np.inf), -np.full((2, 2), np.inf)], SpectraNotDisjoint, "inf")

    def test_empty_terms_are_accepted(self):
        _accepted([np.zeros((0, 3)), np.zeros((0, 3))], IterationFailure, "empty")

    def test_certificate_is_stricter(self):
        a = np.ones((2, 2))
        _accepted([a, -(1.0 + 1e-9) * a], IterationFailure, "certificate", PROBE_RESIDUAL_TOL)
        with pytest.raises(IterationFailure):
            _accepted([a, -(1.0 + 1e-6) * a], IterationFailure, "certificate", PROBE_RESIDUAL_TOL)


def _separated(rng, n1, n2):
    """Quasi-triangular blocks with spectra near -3 and +3, and a coupling."""
    T11 = np.triu(rng.normal(size=(n1, n1)), 1) - 3.0 * np.eye(n1)
    T22 = np.triu(rng.normal(size=(n2, n2)), 1) + 3.0 * np.eye(n2)
    return T11, rng.normal(size=(n1, n2)), T22


class TestMutations:
    """One corrupted solution per acceptance site, refused with its error."""

    def test_sylvester(self, rng, monkeypatch):
        T11, T12, T22 = _separated(rng, 4, 3)
        _sylv_quasi(T11, T12, T22)
        dtrsyl = kernels.sla.lapack.dtrsyl

        def corrupted(*args, **kwargs):
            R, scl, info = dtrsyl(*args, **kwargs)
            return 2.0 * R, scl, info

        monkeypatch.setattr(kernels.sla.lapack, "dtrsyl", corrupted)
        with pytest.raises(SpectraNotDisjoint):
            _sylv_quasi(T11, T12, T22)

    def test_generalized_sylvester(self, rng, monkeypatch):
        T11, T12, T22 = _separated(rng, 3, 4)
        args = (T11, T12, T22, np.eye(3), rng.normal(size=(3, 4)), np.eye(4))
        gsylv_separation(*args)
        dtgsyl = kernels.sla.lapack.dtgsyl

        def corrupted(*a, **kw):
            R, L, *rest = dtgsyl(*a, **kw)
            return (2.0 * R, L, *rest)

        monkeypatch.setattr(kernels.sla.lapack, "dtgsyl", corrupted)
        with pytest.raises(SpectraNotDisjoint):
            gsylv_separation(*args)

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_lyapunov(self, domain, monkeypatch):
        g = random_system(12, 2, 2, domain, stable=True, rng=np.random.default_rng(12))
        g = make_system(g.A, g.E, g.B, g.C, np.zeros((2, 2)), domain)  # strictly proper: a continuous H2 norm exists
        A, E, W = np.linalg.solve(g.E, g.A), np.eye(12), g.B @ g.B.T
        glyap(A, E, W, domain)
        h2_norm(g)
        quasi = kernels._lyap_quasi
        monkeypatch.setattr(kernels, "_lyap_quasi", lambda *a: 1.5 * quasi(*a))
        monkeypatch.setattr(analysis, "_lyap_quasi", lambda *a: 1.5 * quasi(*a))
        with pytest.raises(IterationFailure, match="^Lyapunov residual too large"):
            glyap(A, E, W, domain)
        with pytest.raises(IterationFailure, match="^Gramian residual too large"):
            h2_norm(g)

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_riccati(self, domain):
        g = random_system(10, 2, 2, domain, rng=np.random.default_rng(10))
        A, B = np.linalg.solve(g.E, g.A), np.linalg.solve(g.E, g.B)
        weights = (A, B, np.eye(10), np.zeros((10, 2)), np.eye(2))
        X = _riccati_schur(*weights, g.domain)[0]
        with pytest.raises(IterationFailure, match="^Riccati residual too large"):
            _riccati_gain(*weights, 1.5 * X, g.domain)

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_bernoulli_solution_is_judged_as_a_riccati(self, domain, monkeypatch):
        # the Lyapunov solve on the zero dynamics (inner_outer) or on the bad
        # block (rcf) is not checked itself: a wrong solution surfaces as a
        # wrong Riccati solution
        g = random_system(8, 2, 2, domain, stable=True, rng=np.random.default_rng(2008))
        g = make_system(g.A, g.E, g.B, g.C, np.eye(2), domain)  # square, well-conditioned D: the zero-dynamics path
        h = random_system(8, 2, 2, domain, rng=np.random.default_rng(8))
        region = stability_region(domain)
        assert not all(map(region.inside, analysis.poles(h).finite))  # rcf has poles to dislocate
        inner_outer(g)
        rcf(h, region)
        quasi = factor._lyap_quasi
        monkeypatch.setattr(factor, "_lyap_quasi", lambda *a: 1.5 * quasi(*a))
        for call in (lambda: inner_outer(g), lambda: rcf(h, region)):
            with pytest.raises(IterationFailure, match="^Riccati residual too large"):
                call()

    def test_certificate(self, monkeypatch):
        r = np.random.default_rng(5)
        G = random_system(6, 2, 2, "continuous", rng=r)
        F = series(G, random_system(3, 1, 2, "continuous", rng=r))
        solve_right(G, F)
        real_series = solve.series

        def corrupted(s1, s2):
            s = real_series(s1, s2)
            return make_system(s.A, s.E, s.B, 1.001 * s.C, s.D, s.domain)

        monkeypatch.setattr(solve, "series", corrupted)
        with pytest.raises(IterationFailure, match="^G X = F residual too large"):
            solve_right(G, F)


class TestRegressions:
    """Results the old per-site Riccati scale refused, judged by dense solves."""

    def test_nullspace_corpus_186(self):
        r = np.random.default_rng(10000 + 186)
        n, m = int(r.integers(2, 41)), int(r.integers(2, 5))
        p = int(r.integers(1, m))
        assert (n, m, p) == (38, 2, 1)
        G = random_system(n, m, p, "continuous", proper=True, rng=r)
        N = right_nullspace(G)
        assert (N.p, N.m) == (2, 1) and _stable(N)
        for theta in (0.4, 1.7, 2.9):
            lam = 1.3 * np.exp(1j * theta)
            gv, nv = _dense_tfm(G, lam), _dense_tfm(N, lam)
            assert np.linalg.norm(gv @ nv, 2) <= 1e-8 * np.linalg.norm(gv, 2) * np.linalg.norm(nv, 2)
            assert np.linalg.norm(nv) > 0.0

    # high orders, where the mirror gain reaches about 1e6 and its Riccati
    # solution is accepted only when solved accurately (the last five were
    # refused when the extended pencil solved it)
    @pytest.mark.parametrize(
        "fn, n, seed, proper",
        [(rcf, 60, 1, True), (lcf, 60, 0, True), (rcf, 48, 7, False), (lcf, 60, 1, True),
         (lcf, 60, 3, False), (rcf, 60, 4, False), (lcf, 60, 5, False)],
        ids=["rcf-1", "lcf-0", "rcf-48-7-improper", "lcf-1", "lcf-3-improper", "rcf-4-improper", "lcf-5-improper"],
    )
    def test_coprime_order_60(self, fn, n, seed, proper):
        G = random_system(n, 2, 2, "continuous", proper=proper, rng=np.random.default_rng(1000 * seed + n))
        pair = fn(G, stability_region("continuous"))
        assert _stable(pair.first) and _stable(pair.second)
        for theta in (0.4, 1.7, 2.9):
            lam = 2.0 * np.exp(1j * theta)
            gv, nv, mv = _dense_tfm(G, lam), _dense_tfm(pair.first, lam), _dense_tfm(pair.second, lam)
            q = nv @ np.linalg.inv(mv) if fn is rcf else np.linalg.solve(mv, nv)
            assert np.linalg.norm(q - gv, 2) <= 1e-6 * (1.0 + np.linalg.norm(gv, 2))


def _constant_block(lines):
    """Line numbers of the kernels constant block: the run of ``NAME = ...``
    lines that starts at ``EPS``."""
    start = next(i for i, line in enumerate(lines) if line.startswith("EPS = "))
    end = start
    while end < len(lines) and re.match(r"[A-Z_]+ = ", lines[end]):
        end += 1
    return set(range(start, end))


def test_tolerance_literals_live_in_the_kernels_constant_block():
    found = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        block = _constant_block(lines) if path.name == "kernels.py" else set()
        found += [f"{path.name}:{i + 1}" for i, line in enumerate(lines) if i not in block and re.search(r"[0-9]e-?[0-9]", line)]
    assert not found, f"tolerance literals outside kernels' constant block: {found}"


def test_deficiency_cuts_are_counted_by_svd_rank():
    # outside the kernels constant block, DEFICIENCY_RCOND and
    # FEEDTHROUGH_RCOND are read only inside the tol argument of a _svd_rank
    # call: every such cut counts its values in one place
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_svd_rank":
                tols = node.args[2:] + [k.value for k in node.keywords if k.arg == "tol"]
                inside |= {id(sub) for tol in tols for sub in ast.walk(tol)}
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in ("DEFICIENCY_RCOND", "FEEDTHROUGH_RCOND") and isinstance(node.ctx, ast.Load) and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"deficiency cut outside a _svd_rank tol: {found}"


def test_region_rule_lives_in_stability_region():
    # BOUNDARY_TOL is read by StabilityRegion alone, and no code outside it
    # asks the bare geometric contains(): every decision by eigenvalue
    # location goes through StabilityRegion.inside
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owned = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "StabilityRegion" and path.name == "kernels.py":
                owned |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            reads = isinstance(node, ast.Name) and node.id == "BOUNDARY_TOL" and isinstance(node.ctx, ast.Load)
            reads |= isinstance(node, ast.alias) and node.name == "BOUNDARY_TOL"
            reads |= isinstance(node, ast.Attribute) and node.attr in ("BOUNDARY_TOL", "contains")
            if reads and id(node) not in owned:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"region rule read outside StabilityRegion: {found}"
