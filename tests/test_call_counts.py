"""Regular-pencil queries stay off the Kronecker machinery, and pipelines
reduce once.

A square pencil needs one deflation pass to split into its infinite and
finite parts, and its finite eigenvalues need no Schur vectors.  ``minreal``
makes that split, so nothing downstream deflates its output again.  These
tests count the calls that would betray a full ``klf``, a QZ with Schur
vectors, a repeated reduction or a second deflation.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from dstk import analysis, cli, factor, kernels, pencil, solve
from dstk.cli import write_system
from dstk.exceptions import DstkError
from dstk.ops import series
from dstk.pencil import weierstrass_structure
from dstk.system import make_system, random_system


@pytest.fixture
def calls(monkeypatch):
    """Calls of the QZ, of the real Schur form, of ``klf``, of
    ``weierstrass_structure`` and of the reduction ``analysis._reduce``
    (which ``minreal`` runs), counted wherever a dstk module binds them."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    targets = [(scipy.linalg, "qz", "qz"), (scipy.linalg, "ordqz", "qz"), (scipy.linalg, "schur", "schur")]
    for attr, name in [("klf", "klf"), ("weierstrass_structure", "weierstrass"), ("_reduce", "reduce")]:
        targets += [(mod, attr, name) for mod in (pencil, analysis, factor, solve, cli) if hasattr(mod, attr)]
    for mod, attr, name in targets:
        monkeypatch.setattr(mod, attr, counted(name, getattr(mod, attr)))
    return counts


@pytest.fixture
def proper24():
    return random_system(24, 2, 2, "continuous", rng=np.random.default_rng(24))


@pytest.mark.parametrize(
    "query",
    [
        analysis.minreal,
        analysis.poles,
        analysis.mcmillan_degree,
        analysis.is_stable,
        analysis.minimality_report,
        lambda g: weierstrass_structure(g.A, g.E),
    ],
    ids=["minreal", "poles", "mcmillan_degree", "is_stable", "minimality_report", "weierstrass_structure"],
)
def test_regular_pencil_query_runs_no_klf_or_qz(calls, proper24, query):
    query(proper24)
    assert calls["klf"] == 0
    assert calls["qz"] == 0


def test_cli_info_reduces_once_per_structure(calls, proper24, tmp_path, capsys):
    path = str(tmp_path / "g.dss")
    write_system(path, proper24)
    assert cli.run(["info", path]) == 0
    capsys.readouterr()
    assert calls["reduce"] == 1
    assert calls["klf"] == 1
    assert calls["qz"] == 0


@pytest.mark.parametrize(
    "query",
    [analysis.minreal, analysis.poles, analysis.mcmillan_degree, analysis.is_stable],
    ids=["minreal", "poles", "mcmillan_degree", "is_stable"],
)
def test_improper_structure_query_runs_no_qz(calls, improper24, query):
    # the infinite and finite parts are decoupled by a finite sum on their
    # standardized blocks, which needs no Schur form of either
    query(improper24)
    assert calls["qz"] == 0


def test_solve_right_reduces_g_once(calls):
    # G, F and the particular solution once each; the nullspace basis is
    # read from the minimal G, not from a second reduction of it
    rng = np.random.default_rng(8)
    G = series(random_system(4, 2, 3, "continuous", rng=rng), random_system(4, 3, 2, "continuous", rng=rng))
    F = series(G, random_system(2, 1, 3, "continuous", rng=rng))
    assert solve.solve_right(G, F).null_basis.m == 1
    assert calls["reduce"] == 3


def test_improper_minimality_report_runs_no_qz(calls):
    # the report reads only the finite (A, B) of the split, which the
    # Sylvester decoupling from the infinite part leaves unchanged
    g = random_system(24, 2, 2, "continuous", proper=False, rng=np.random.default_rng(24))
    analysis.minimality_report(g)
    assert calls["klf"] == 0
    assert calls["qz"] == 0


@pytest.fixture
def pipeline_calls(calls, monkeypatch):
    """``calls`` plus the square inner completion."""
    fn = factor._inner_complement

    def wrapper(*args, **kwargs):
        calls["inner_complement"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(factor, "_inner_complement", wrapper)
    return calls


def test_model_match_skips_inner_completion(pipeline_calls):
    G = random_system(20, 2, 4, "continuous", stable=True, rng=np.random.default_rng(20))
    F = random_system(10, 1, 4, "continuous", stable=True, rng=np.random.default_rng(27))
    F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), "continuous")
    solve.l2_model_match(G, F)
    assert pipeline_calls["inner_complement"] == 0
    # G, F, Q1, Q1~ F, X and the residual's H2 norm once each: the causal
    # split of Q1~ F reads the reduction that produced it
    assert pipeline_calls["reduce"] == 6


def test_inner_outer_reduces_twice(calls):
    # the input once, the thin inner factor once; the zeros reuse the first
    g = random_system(12, 2, 2, "continuous", stable=True, rng=np.random.default_rng(12))
    factor.inner_outer(g)
    assert calls["reduce"] == 2


@pytest.mark.parametrize(
    "query",
    [
        analysis.poles,
        analysis.is_stable,
        analysis.mcmillan_degree,
        analysis.h2_norm,
        lambda g: factor.additive_decompose(g, analysis.stability_region(g.domain), improper_to_bad=True),
        factor.inner_outer,
    ],
    ids=["poles", "is_stable", "mcmillan_degree", "h2_norm", "additive_decompose", "inner_outer"],
)
@pytest.mark.parametrize("proper", [True, False])
def test_pole_structure_is_read_from_minreal(calls, query, proper):
    g = random_system(12, 2, 2, "discrete", proper=proper, stable=True, rng=np.random.default_rng(12))
    try:
        query(g)
    except DstkError:
        assert not proper  # h2_norm and inner_outer refuse an improper system
    assert calls["weierstrass"] == 0
    # inner_outer also reduces its thin inner factor
    assert calls["reduce"] == (2 if query is factor.inner_outer and proper else 1)


@pytest.mark.parametrize(
    "query",
    [analysis.h2_norm, lambda g: factor.additive_decompose(g, analysis.stability_region(g.domain))],
    ids=["h2_norm", "additive_decompose"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_standard_block_takes_one_schur_and_no_qz(calls, query, domain):
    # minreal's finite block has E = I: one real Schur form decides the
    # poles and solves the Lyapunov or Sylvester equation
    g = random_system(12, 2, 2, domain, stable=True, rng=np.random.default_rng(12))
    query(make_system(g.A, g.E, g.B, g.C, np.zeros_like(g.D), domain))
    assert (calls["qz"], calls["schur"]) == (0, 1)


def test_model_match_takes_one_qz(calls):
    # the Riccati solve keeps its extended pencil; the causal split of
    # Q1~ F and the residual's H2 norm take real Schur forms
    G = random_system(12, 2, 4, "continuous", stable=True, rng=np.random.default_rng(20))
    F = random_system(6, 1, 4, "continuous", stable=True, rng=np.random.default_rng(27))
    solve.l2_model_match(G, make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), "continuous"))
    assert calls["qz"] == 1


@pytest.mark.parametrize(
    "query",
    [analysis.minreal, analysis.poles, lambda g: weierstrass_structure(g.A, g.E)],
    ids=["minreal", "poles", "weierstrass_structure"],
)
def test_invertible_E_needs_no_square_singular_vectors(monkeypatch, proper24, query):
    # an invertible E is decided from its singular values alone, and the
    # staircase compresses only n x m stairs
    shapes, svd = [], kernels._svd

    def counted(M, vectors=True, full=True):
        shapes.append((M.shape, vectors))
        return svd(M, vectors, full)

    for mod in (kernels, pencil, analysis):
        monkeypatch.setattr(mod, "_svd", counted)
    query(proper24)
    n = proper24.n
    assert ((n, n), False) in shapes
    assert ((n, n), True) not in shapes


def test_staircase_takes_thin_svds_only(monkeypatch, proper24):
    # the Krylov staircase forms no square orthogonal factor
    modes, svd = [], kernels._svd

    def counted(M, vectors=True, full=True):
        modes.append(full)
        return svd(M, vectors, full)

    monkeypatch.setattr(analysis, "_svd", counted)
    g = proper24
    A, B, C = analysis._ctrb_reduce(g.A, g.B, g.C, 1e-10)
    assert A.shape == (g.n, g.n) and modes and not any(modes)


def test_mcmillan_degree_takes_no_eigenvalues(monkeypatch, proper24):
    # the degree is a count from minreal's split; its finite poles are not needed
    count, eigvals = [0], np.linalg.eigvals

    def counted(M):
        count[0] += 1
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    assert analysis.mcmillan_degree(proper24) == proper24.n
    assert count[0] == 0


@pytest.fixture
def norm2_calls(monkeypatch):
    """Number of ``numpy.linalg.norm(X, 2)`` calls: structural cuts scale by
    Frobenius norms and need no 2-norm SVD."""
    count, norm = [0], np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        count[0] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return count


@pytest.fixture
def improper24():
    return random_system(24, 2, 2, "continuous", proper=False, rng=np.random.default_rng(24))


@pytest.mark.parametrize(
    "query",
    [
        lambda g: pencil.klf(*analysis._system_pencil(g)),
        lambda g: weierstrass_structure(g.A, g.E),
        lambda g: factor.additive_decompose(g, analysis.stability_region(g.domain), improper_to_bad=True),
        lambda g: kernels.glyap(-np.eye(g.n), np.eye(g.n), np.eye(g.n), "continuous"),
    ],
    ids=["klf", "weierstrass_structure", "additive_decompose", "glyap"],
)
def test_structural_cuts_take_no_2_norm(norm2_calls, improper24, query):
    query(improper24)
    assert norm2_calls[0] == 0


@pytest.mark.filterwarnings("ignore:Convergence was not reached")
@pytest.mark.parametrize(
    "system, pole_set",
    [("proper24", False), ("improper24", False), ("proper24", True)],
    ids=["proper24", "improper24", "proper24-pole_set"],
)
def test_rcf_reads_the_split_of_minreal(calls, monkeypatch, request, system, pole_set):
    # rcf reads the rank of E from minreal's split and takes no SVD of the
    # n x n E: one real Schur form orders the standard pair, and the only QZ
    # is the Riccati pencil of the default gain
    sys_ = request.getfixturevalue(system)
    g = analysis.minreal(sys_)
    region = analysis.stability_region(g.domain)
    targets = None
    if pole_set:
        nb = sum(not region.contains(z) for z in analysis.poles(g).finite)
        targets = list(np.linspace(-1.0, -2.0, nb))
    seen, svd = [], kernels._svd

    def counted(M, *args, **kwargs):
        seen.append(np.shape(M) == g.E.shape and np.array_equal(M, g.E))
        return svd(M, *args, **kwargs)

    for mod in (kernels, pencil, analysis, factor):
        monkeypatch.setattr(mod, "_svd", counted, raising=False)
    calls.clear()
    factor.rcf(sys_, region, pole_set=targets)
    assert not any(seen)
    assert calls["schur"] == 1
    assert calls["qz"] == (0 if pole_set else 1)


@pytest.fixture
def probed(monkeypatch):
    """The pencils ``M - lam N`` whose normal rank is probed, as ``M``."""
    seen, fn = [], kernels._probe_rank

    def wrapper(M, N, tol=None):
        seen.append(M)
        return fn(M, N, tol)

    for mod in (kernels, pencil, solve):
        monkeypatch.setattr(mod, "_probe_rank", wrapper, raising=False)
    return seen


def _info(path):
    assert cli.run(["info", path]) == 0


@pytest.mark.parametrize(
    "query",
    [
        lambda G, F, X, path: analysis.zeros(G),
        lambda G, F, X, path: factor.inner_outer(G),
        lambda G, F, X, path: solve.l2_model_match(G, F),
        lambda G, F, X, path: solve.solve_right(G, series(G, X)),
        lambda G, F, X, path: _info(path),
    ],
    ids=["zeros", "inner_outer", "l2_model_match", "solve_right", "cli_info"],
)
def test_system_pencil_structure_is_decided_once(calls, probed, query, tmp_path, capsys):
    # one checked staircase and one probe rank of the minimal G's system
    # pencil serve every structural query of the pipeline
    G = random_system(12, 2, 3, "continuous", stable=True, rng=np.random.default_rng(12))
    F = random_system(6, 1, 3, "continuous", stable=True, rng=np.random.default_rng(27))
    F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), "continuous")
    X = random_system(3, 1, 2, "continuous", rng=np.random.default_rng(3))
    path = str(tmp_path / "g.dss")
    write_system(path, G)
    M = analysis._system_pencil(analysis.minreal(cli.read_system(path)))[0]
    calls.clear()
    probed.clear()
    query(G, F, X, path)
    capsys.readouterr()
    assert calls["klf"] == 1
    assert sum(P.shape == M.shape and np.array_equal(P, M) for P in probed) == 1
