"""Regular-pencil queries stay off the Kronecker machinery, and pipelines
reduce once.

A square pencil needs one deflation pass to split into its infinite and
finite parts, and its finite eigenvalues need no Schur vectors.  ``minreal``
makes that split, so nothing downstream deflates its output again.  These
tests count the calls that would betray a full ``klf``, a QZ with Schur
vectors, a repeated reduction or a second deflation.
"""

import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from dstk import analysis, cli, factor, kernels, ops, pencil, solve, system
from dstk.cli import write_system
from dstk.exceptions import DstkError, Incompatible
from dstk.ops import series, transpose_dual
from dstk.pencil import weierstrass_structure
from dstk.system import TimeDomain, make_system, random_system


@pytest.fixture
def calls(monkeypatch):
    """Calls of the QZ (``scipy.linalg.qz``/``ordqz`` and the one ``dgges``
    wrapper ``kernels._gges``), of the real Schur form, of ``klf``, of
    ``weierstrass_structure`` and of the reduction ``analysis._reduce``
    (which ``minreal`` runs), counted wherever a dstk module binds them."""
    targets = [(scipy.linalg, "qz", "qz"), (scipy.linalg, "ordqz", "qz"), (scipy.linalg, "schur", "schur")]
    for attr, name in [
        ("_gges", "qz"),
        ("klf", "klf"),
        ("weierstrass_structure", "weierstrass"),
        ("_reduce", "reduce"),
    ]:
        targets += [(mod, attr, name) for mod in (kernels, pencil, analysis, factor, solve, cli) if hasattr(mod, attr)]
    return _counted(monkeypatch, targets)


def _counted(monkeypatch, targets):
    """Calls of each ``(module, attribute, name)`` target, counted by name."""
    counts = Counter()
    for mod, attr, name in targets:

        def wrapper(*args, _fn=getattr(mod, attr), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, wrapper)
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


def _solve_cli(G, F, tmp_path):
    pg, pf = str(tmp_path / "g.dss"), str(tmp_path / "f.dss")
    write_system(pg, G)
    write_system(pf, F)
    assert cli.run(["solve", pg, pf, "-o", str(tmp_path / "x.dss")]) == 0


@pytest.mark.parametrize(
    "query, qz",
    [
        (lambda G, F, tmp_path: solve.solve_right(G, F), 0),
        (lambda G, F, tmp_path: solve.solve_left(transpose_dual(G), transpose_dual(F)), 0),
        (_solve_cli, 0),
        (lambda G, F, tmp_path: solve.right_nullspace(G), 1),
    ],
    ids=["solve_right", "solve_left", "cli_solve", "right_nullspace"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_only_right_nullspace_stabilizes(calls, tmp_path, capsys, query, qz, domain):
    # solve_right returns the kernel block as the staircase leaves it; only
    # right_nullspace moves its poles, by the Riccati's extended-pencil QZ
    r = np.random.default_rng(16)
    G = random_system(16, 3, 2, domain, rng=r)
    F = series(G, random_system(4, 1, 3, domain, rng=r))
    query(G, F, tmp_path)
    capsys.readouterr()
    assert calls["qz"] == qz


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
    [
        lambda G, F: factor.inner_outer(G),
        lambda G, F: factor.co_outer_co_inner(transpose_dual(G)),
        solve.l2_model_match,
    ],
    ids=["inner_outer", "co_outer_co_inner", "l2_model_match"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize(
    "cond, pencils", [(1.0, 0), (8.0, 0), (1e3, 1), (None, 1)], ids=["cond1", "cond8", "cond1e3", "tall"]
)
def test_square_factor_reads_zero_dynamics(calls, probed, query, domain, cond, pencils):
    # a square G whose D is within cond 10 (1 / FEEDTHROUGH_RCOND) takes its
    # zeros and its Riccati from one Schur form of A + B D^-1 C: no staircase,
    # no probe rank of the system pencil and no extended-pencil QZ; tall G and
    # an ill-conditioned D keep one of each
    G = random_system(12, 2, 2 if cond else 3, domain, stable=True, rng=np.random.default_rng(12))
    if cond:
        U = np.linalg.qr(np.random.default_rng(12).normal(size=(2, 2)))[0]
        G = make_system(G.A, G.E, G.B, G.C, U @ np.diag([1.0, 1.0 / cond]) @ U.T, domain)
    F = random_system(6, 1, G.p, domain, stable=True, rng=np.random.default_rng(27))
    F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), domain)
    # co_outer_co_inner factors the dual of its input, here G itself
    M = analysis._system_pencil(analysis.minreal(G))[0]
    calls.clear()
    probed.clear()
    query(G, F)
    assert (calls["klf"], calls["qz"]) == (pencils, pencils)
    assert sum(P.shape == M.shape and np.array_equal(P, M) for P in probed) == pencils


@pytest.mark.parametrize(
    "query",
    [
        lambda G, F, path: analysis.zeros(G),
        lambda G, F, path: analysis.is_minimum_phase(G),
        lambda G, F, path: _info(path),
        lambda G, F, path: solve.solve_right(G, F),
        lambda G, F, path: solve.right_nullspace(G),
    ],
    ids=["zeros", "is_minimum_phase", "cli_info", "solve_right", "right_nullspace"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize(
    "shape, cond, pencils",
    [("square", 1.0, 0), ("square", 8.0, 0), ("square", 1e3, 1), ("tall", None, 1), ("improper", 1.0, 1)],
    ids=["cond1", "cond8", "cond1e3", "tall", "improper"],
)
def test_square_structure_reads_zero_dynamics(calls, probed, query, domain, shape, cond, pencils, tmp_path, capsys):
    # the structural queries share the factorizations' gate: a square proper
    # G whose D is within cond 10 has its zeros in A + B D^-1 C, with no
    # staircase and no probe rank of the system pencil; an ill-conditioned
    # D, a tall G and an improper G keep one of each
    G = random_system(12, 2, 3 if shape == "tall" else 2, domain, proper=shape != "improper", rng=np.random.default_rng(12))
    if cond:
        U = np.linalg.qr(np.random.default_rng(12).normal(size=(2, 2)))[0]
        G = make_system(G.A, G.E, G.B, G.C, U @ np.diag([1.0, 1.0 / cond]) @ U.T, domain)
    # every F is in the range of a square G of full normal rank; a tall G takes G X
    F = random_system(3, 1, 2, domain, rng=np.random.default_rng(3))
    F = series(G, F) if shape == "tall" else F
    path = str(tmp_path / "g.dss")
    write_system(path, G)
    M = analysis._system_pencil(analysis.minreal(cli.read_system(path)))[0]
    calls.clear()
    probed.clear()
    query(G, F, path)
    capsys.readouterr()
    assert calls["klf"] == pencils
    assert sum(P.shape == M.shape and np.array_equal(P, M) for P in probed) == pencils


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices that ``analysis`` and ``factor`` decompose by ``_svd``."""
    shapes, svd = [], kernels._svd

    def recorded(M, *args, **kwargs):
        shapes.append(M.shape)
        return svd(M, *args, **kwargs)

    for mod in (analysis, factor):
        monkeypatch.setattr(mod, "_svd", recorded)
    return shapes


@pytest.mark.parametrize(
    "query",
    [
        lambda G, F: factor.inner_outer(G),
        lambda G, F: factor.co_outer_co_inner(transpose_dual(G)),
        solve.l2_model_match,
    ],
    ids=["inner_outer", "co_outer_co_inner", "l2_model_match"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize("cond", [1.0, 8.0, 1e3, None], ids=["cond1", "cond8", "cond1e3", "tall"])
def test_factorization_takes_one_svd_of_D(svd_shapes, query, domain, cond):
    # one SVD of D decides its column rank, the continuous weight and the
    # zero-dynamics gate, whether or not a square D passes the gate; at
    # n = 12 no other matrix decomposed has D's shape
    G = random_system(12, 2, 2 if cond else 3, domain, stable=True, rng=np.random.default_rng(12))
    if cond:
        U = np.linalg.qr(np.random.default_rng(12).normal(size=(2, 2)))[0]
        G = make_system(G.A, G.E, G.B, G.C, U @ np.diag([1.0, 1.0 / cond]) @ U.T, domain)
    F = random_system(8, 1, G.p, domain, stable=True, rng=np.random.default_rng(27))
    F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), domain)
    svd_shapes.clear()
    query(G, F)
    assert svd_shapes.count(G.D.shape) == 1


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize("m, p", [(2, 3), (3, 2)], ids=["tall", "wide"])
def test_rectangular_zeros_take_no_svd_of_D(svd_shapes, domain, m, p):
    # only a square D can pass the gate, so a rectangular one is not decomposed
    G = random_system(12, m, p, domain, rng=np.random.default_rng(12))
    svd_shapes.clear()
    analysis.zeros(G)
    assert svd_shapes.count(G.D.shape) == 0


@pytest.mark.parametrize("query", [analysis.zeros, solve.right_nullspace], ids=["zeros", "right_nullspace"])
def test_improper_square_structure_takes_no_svd_of_D(svd_shapes, query):
    # only a standard g can pass the zero-dynamics gate, so an improper
    # square one is not asked for its D; at n = 12 no other matrix
    # decomposed has D's shape
    G = random_system(12, 2, 2, "continuous", proper=False, rng=np.random.default_rng(12))
    svd_shapes.clear()
    query(G)
    assert svd_shapes.count(G.D.shape) == 0


@pytest.mark.parametrize("query", [analysis.minreal, analysis.minimality_report], ids=["minreal", "minimality_report"])
def test_standard_system_is_its_own_split(monkeypatch, query):
    # E = I needs no deflation pass, and dividing by it changes nothing
    h = random_system(24, 2, 2, "continuous", rng=np.random.default_rng(24))
    g = make_system(h.A, None, h.B, h.C, h.D, "continuous")
    counts = _counted(monkeypatch, [(analysis, "_regular_deflate", "deflate"), (np.linalg, "solve", "solve")])
    query(g)
    assert counts == Counter()


@pytest.mark.parametrize("singular", [False, True], ids=["invertible_E", "singular_E"])
def test_discrete_conjugate_is_standard_for_invertible_A(monkeypatch, singular):
    # the conjugate of a descriptor system with invertible A already has
    # E = I, so its reduction deflates no spurious infinite eigenvalues
    g = random_system(12, 2, 2, "discrete", proper=not singular, rng=np.random.default_rng(12))
    counts = _counted(monkeypatch, [(pencil, "_deflate", "deflate")])
    analysis.minreal(ops.conjugate(g))
    assert counts["deflate"] == 0


def test_invertible_E_report_takes_no_square_singular_vectors(monkeypatch, proper24):
    # the report decides the rank of an invertible E from its singular values
    # alone: infinite controllability, observability and the non-dynamic
    # modes follow from it, with no SVD of [E B], [E; C] or a square E
    shapes, svd = [], kernels._svd

    def counted(M, vectors=True, full=True):
        shapes.append((M.shape, vectors))
        return svd(M, vectors, full)

    for mod in (kernels, pencil, analysis):
        monkeypatch.setattr(mod, "_svd", counted)
    report = analysis.minimality_report(proper24)
    n = proper24.n
    assert report.minimal
    assert ((n, n), True) not in shapes
    assert not any(shape in ((n, n + proper24.m), (n + proper24.p, n)) for shape, _ in shapes)


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
    # n x n E: one real Schur form orders the standard pair, and the default
    # gain solves a Bernoulli equation on its bad block, so no QZ is run
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
    assert calls["qz"] == 0


class _Probed(list):
    """Probed pencils, as ``M``; ``callers`` names the function that asked
    for each."""

    def __init__(self):
        super().__init__()
        self.callers = []


@pytest.fixture
def probed(monkeypatch):
    """The pencils ``M - lam N`` whose normal rank is probed, as ``M``."""
    seen, fn = _Probed(), kernels._probe_rank

    def wrapper(M, N, tol=None):
        seen.append(M)
        seen.callers.append(sys._getframe(1).f_code.co_name)
        return fn(M, N, tol)

    for mod in (kernels, pencil, analysis, factor, solve, cli, system, ops):
        monkeypatch.setattr(mod, "_probe_rank", wrapper, raising=False)
    return seen


@pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE], ids=["continuous", "discrete"])
def test_riccati_takes_one_right_vectors_dgges(monkeypatch, probed, domain):
    # one sorted dgges forms the right Schur vectors alone: no left vectors,
    # no separate reordering and no regularity probe of the extended pencil
    jobvsl, dgges = [], scipy.linalg.lapack.dgges

    def counted(*args, **kwargs):
        jobvsl.append(kwargs.get("jobvsl", 1))
        return dgges(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgges", counted)
    rng = np.random.default_rng(12)
    A, B, C, D = rng.normal(size=(12, 12)), rng.normal(size=(12, 2)), rng.normal(size=(3, 12)), rng.normal(size=(3, 2))
    factor._riccati_schur(A, B, C.T @ C, C.T @ D, D.T @ D + np.eye(2), domain)
    assert jobvsl == [0]
    assert probed == []


def _info(path):
    assert cli.run(["info", path]) == 0


def test_probe_rank_serves_rectangular_normal_ranks_only(probed, tmp_path, capsys):
    # a square pencil or matrix is judged by the LU rule of eval_tfm; the
    # SVD ranks at probe points serve the normal rank of a rectangular
    # pencil and solve_right's compatibility test, and nothing else; that
    # test runs only when the certificate of G X = F fails, as it does for
    # an F outside the range of a rank-1 G
    g = random_system(8, 2, 2, "continuous", stable=True, rng=np.random.default_rng(8))
    h = random_system(4, 1, 2, "continuous", stable=True, rng=np.random.default_rng(4))
    rng = np.random.default_rng(1)
    g1 = series(random_system(3, 1, 2, "continuous", rng=rng), random_system(3, 2, 1, "continuous", rng=rng))
    f1 = random_system(2, 1, 2, "continuous", rng=rng)
    path = str(tmp_path / "g.dss")
    write_system(path, g)
    make_system(g.A, g.E, g.B, g.C, g.D, g.domain)
    system.apply_similarity(g, np.eye(8) + np.ones((8, 8)), np.eye(8))
    kernels.gschur_ordered(g.A, g.E)
    kernels.glyap(g.A, g.E, np.eye(8), g.domain)
    ops.inverse(g)
    ops.inverse(g, mode="d-inverse")
    analysis.zeros(g)
    solve.solve_right(g, h)
    with pytest.raises(Incompatible):
        solve.solve_right(g1, f1)
    _info(path)
    capsys.readouterr()
    assert set(probed.callers) == {"pencil_normal_rank", "solve_right"}


@pytest.mark.parametrize(
    "query, square",
    [
        (lambda G, F, X, path: analysis.zeros(G), False),
        (lambda G, F, X, path: factor.inner_outer(G), False),
        (lambda G, F, X, path: solve.l2_model_match(G, F), False),
        (lambda G, F, X, path: solve.l2_model_match(G, F), True),
        (lambda G, F, X, path: solve.solve_right(G, series(G, X)), False),
        (lambda G, F, X, path: _info(path), False),
    ],
    ids=["zeros", "inner_outer", "l2_model_match", "l2_model_match_exact", "solve_right", "cli_info"],
)
def test_system_pencil_structure_is_decided_once(calls, probed, query, square, tmp_path, capsys):
    # one checked staircase and one probe rank of the minimal G's system
    # pencil serve every structural query of the pipeline
    G = random_system(12, 2, 3, "continuous", stable=True, rng=np.random.default_rng(12))
    F = random_system(6, 1, 3, "continuous", stable=True, rng=np.random.default_rng(27))
    F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), "continuous")
    X = random_system(3, 1, 2, "continuous", rng=np.random.default_rng(3))
    if square:
        # D = 0 puts the zeros of a square G at infinity: model matching
        # takes its exact branch on F = G X with a stable X
        G = make_system(G.A, G.E, G.B, G.C[:2], np.zeros((2, 2)), "continuous")
        F = series(G, random_system(3, 1, 2, "continuous", stable=True, rng=np.random.default_rng(3)))
    path = str(tmp_path / "g.dss")
    write_system(path, G)
    M = analysis._system_pencil(analysis.minreal(cli.read_system(path)))[0]
    calls.clear()
    probed.clear()
    query(G, F, X, path)
    capsys.readouterr()
    assert calls["klf"] == 1
    assert sum(P.shape == M.shape and np.array_equal(P, M) for P in probed) == 1
    if square:
        # G, F, the particular solution and its stability test once each
        assert calls["reduce"] == 4


def _zero_dynamics_pair(domain):
    """A square stable ``G`` with ``D = I`` and antistable zeros, and a
    strictly proper stable ``F``."""
    G = random_system(12, 2, 2, domain, stable=True, rng=np.random.default_rng(12))
    G = make_system(G.A, G.E, G.B, G.C, np.eye(2), domain)
    F = random_system(6, 1, 2, domain, stable=True, rng=np.random.default_rng(27))
    return G, make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), domain)


@pytest.mark.parametrize(
    "query, schurs",
    [
        (lambda G, F: factor.inner_outer(G), 1),
        (lambda G, F: factor.co_outer_co_inner(transpose_dual(G)), 1),
        (solve.l2_model_match, 3),
    ],
    ids=["inner_outer", "co_outer_co_inner", "l2_model_match"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_bernoulli_solves_on_the_zero_dynamics_schur_form(calls, query, schurs, domain):
    # the Lyapunov (Stein) equation of the Bernoulli solve takes the
    # antistable block of the zero dynamics' Schur form and its eigenvalues:
    # no second Schur form; model matching adds its causal split and the
    # residual's H2 norm
    query(*_zero_dynamics_pair(domain))
    assert (calls["schur"], calls["qz"]) == (schurs, 0)


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_glyap_solves_on_its_qz_form(calls, domain):
    # the standardized pencil T^-1 S is already quasi-triangular: the QZ
    # eigenvalues decide stability and no real Schur form follows
    rng = np.random.default_rng(16)
    A0 = rng.normal(size=(16, 16))
    if domain == "continuous":
        A0 -= (np.linalg.eigvals(A0).real.max() + 1.0) * np.eye(16)
    else:
        A0 *= 0.9 / np.abs(np.linalg.eigvals(A0)).max()
    E = np.eye(16) + 0.1 * rng.normal(size=(16, 16))
    kernels.glyap(E @ A0, E, np.eye(16), domain)
    assert (calls["qz"], calls["schur"]) == (1, 0)


def test_general_pencil_kernels_take_one_dgges_each(calls, monkeypatch):
    # gschur_ordered (with or without a selector) and gsylv_separation's two
    # pencils each take one dgges; scipy's qz and ordqz are never called
    def refused(*args, **kwargs):
        raise AssertionError("scipy.linalg.qz or ordqz called")

    monkeypatch.setattr(scipy.linalg, "qz", refused)
    monkeypatch.setattr(scipy.linalg, "ordqz", refused)
    rng = np.random.default_rng(10)
    A, B = rng.normal(size=(10, 10)), rng.normal(size=(10, 10))
    kernels.gschur_ordered(A, B)
    kernels.gschur_ordered(A, B, select=lambda a, b: b > 0.0 and (a / b).real < 0.0)
    kernels.gsylv_separation(A - 8 * np.eye(10), B, A + 8 * np.eye(10), np.eye(10), B, np.eye(10))
    assert calls["qz"] == 4


@pytest.fixture
def svds(monkeypatch):
    """Number of SVDs: ``kernels._svd`` wherever a dstk module binds it, and
    numpy's and scipy's own."""
    count = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in (kernels, pencil, analysis, factor, solve, cli, system, ops):
        if hasattr(mod, "_svd"):
            monkeypatch.setattr(mod, "_svd", counted(getattr(mod, "_svd")))
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    monkeypatch.setattr(scipy.linalg, "svd", counted(scipy.linalg.svd))
    return count


@pytest.mark.parametrize(
    "query",
    [
        lambda g: system.eval_tfm(g, 0.3 + 0.7j),
        lambda g: system.probe_points(g, count=3),
        ops.conjugate,
    ],
    ids=["eval_tfm", "probe_points", "conjugate"],
)
def test_point_solves_take_no_svd(svds, query):
    # the LU that solves with A - lam E (or inverts A) also guards it, by
    # its reciprocal condition: no singular values are needed
    g = random_system(24, 2, 2, "discrete", rng=np.random.default_rng(24))
    g = make_system(np.linalg.solve(g.E, g.A), None, np.linalg.solve(g.E, g.B), g.C, g.D, "discrete")
    svds[0] = 0
    query(g)
    assert svds[0] == 0


@pytest.mark.parametrize(
    "query",
    [
        lambda g, f: make_system(g.A, g.E, g.B, g.C, g.D, g.domain),
        lambda g, f: system.apply_similarity(g, np.eye(g.n) + np.ones((g.n, g.n)), np.eye(g.n)),
        lambda g, f: kernels.gschur_ordered(g.A, g.E),
        lambda g, f: kernels.glyap(g.A, g.E, np.eye(g.n), g.domain),
        lambda g, f: ops.inverse(g),
        lambda g, f: ops.inverse(g, mode="d-inverse"),
        # the particular solution of G X = F with its final minreal taken
        # out below: the probe points, the core picked by pivoted QR, and
        # the core's own check
        lambda g, f: solve._particular(g, f, 2, None),
    ],
    ids=["make_system", "apply_similarity", "gschur_ordered", "glyap", "inverse", "d_inverse", "solve_core"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_square_nonsingularity_takes_no_svd(svds, monkeypatch, query, domain):
    # regularity, invertibility and the r x r core are decided by one LU at
    # the rule of eval_tfm, not by the singular values of a probe
    monkeypatch.setattr(solve, "minreal", lambda sys_, tol=None: sys_)
    g = random_system(12, 2, 2, domain, stable=True, rng=np.random.default_rng(12))
    f = random_system(4, 1, 2, domain, stable=True, rng=np.random.default_rng(4))
    svds[0] = 0
    query(g, f)
    assert svds[0] == 0


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_general_inverse_is_the_system_pencil(proper, domain):
    # the inverse is the system pencil read through its border, not a
    # second construction of it
    g = random_system(10, 2, 2, domain, proper=proper, rng=np.random.default_rng(10))
    M, N = analysis._system_pencil(g)
    gi = ops.inverse(g)
    assert np.array_equal(gi.A, M) and np.array_equal(gi.E, N)
    assert np.array_equal(gi.B, np.eye(12)[:, 10:]) and np.array_equal(gi.C, np.eye(12)[10:])


def test_reduce_leaves_the_infinite_E_diagonal(improper24):
    # the infinite block stays in the coordinates of its E cut: its E is its
    # kept singular values, then zeros on the kernel states
    g, nf, ninf = analysis._reduce(improper24, None)
    Ei = g.E[nf:, nf:]
    assert ninf and Ei.shape[0] > ninf
    assert np.array_equal(Ei, np.diag(np.diag(Ei)))
    assert np.all(np.diag(Ei)[:ninf] > 0.0) and not np.diag(Ei)[ninf:].any()


@pytest.mark.parametrize("side", [factor.rcf, factor.lcf], ids=["rcf", "lcf"])
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_improper_coprime_factors_take_no_svd_of_E(svds, side, domain):
    # the dislocating feedback reads the rank of E and its kernel states off
    # the reduction's diagonal infinite E: beyond the reduction's SVDs only
    # the rank check of the inputs on E's kernel remains
    g = random_system(24, 2, 2, domain, proper=False, rng=np.random.default_rng(24))
    svds[0] = 0
    analysis._reduce(g if side is factor.rcf else transpose_dual(g), None)
    reduce_svds = svds[0]
    svds[0] = 0
    side(g, analysis.stability_region(g.domain))
    assert svds[0] == reduce_svds + 1


@pytest.fixture
def factored(monkeypatch):
    """The square matrices solved with: ``kernels._lu_solve`` wherever a dstk
    module binds it, and numpy's ``solve`` and ``inv``."""
    mats = []

    def counted(fn):
        def wrapper(M, *args, **kwargs):
            mats.append(np.array(M))
            return fn(M, *args, **kwargs)

        return wrapper

    for mod in (kernels, pencil, analysis, factor, solve, cli, system, ops):
        if hasattr(mod, "_lu_solve"):
            monkeypatch.setattr(mod, "_lu_solve", counted(getattr(mod, "_lu_solve")))
    monkeypatch.setattr(np.linalg, "solve", counted(np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", counted(np.linalg.inv))
    return mats


@pytest.mark.parametrize(
    "query",
    [lambda G, F: factor.inner_outer(G), solve.l2_model_match],
    ids=["inner_outer", "l2_model_match"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_square_feedthrough_is_inverted_by_its_svd(factored, query, domain):
    # the SVD that decides the rank of a square, well-conditioned D also
    # gives B D^-1 for the zero dynamics and the Bernoulli solve: no LU of
    # D or D^T (D is not symmetric, so the outer factor's (D^T D)^1/2 is not D)
    G, F = _zero_dynamics_pair(domain)
    U = np.linalg.qr(np.random.default_rng(3).normal(size=(2, 2)))[0]
    D = U @ np.diag([1.0, 0.5]) @ np.linalg.qr(np.random.default_rng(4).normal(size=(2, 2)))[0]
    G = make_system(G.A, G.E, G.B, G.C, D, domain)
    factored.clear()
    query(G, F)
    assert factored and not any(M.shape == D.shape and (np.allclose(M, D) or np.allclose(M, D.T)) for M in factored)


@pytest.mark.parametrize("side", [factor.rcf, factor.lcf], ids=["rcf", "lcf"])
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_improper_coprime_factors_solve_no_gram(factored, monkeypatch, side, domain):
    # the index-reducing gain comes from the thin SVD of the kernel states'
    # inputs B2 that decides their controllability: no solve with B2 B2^T
    reduced, reduce = [], factor._reduce

    def recorded(*args):
        reduced.append(reduce(*args))
        return reduced[-1]

    monkeypatch.setattr(factor, "_reduce", recorded)
    g = random_system(24, 2, 2, domain, proper=False, rng=np.random.default_rng(24))
    side(g, analysis.stability_region(g.domain))
    (h, nf, ninf), = reduced
    B2 = h.B[nf + ninf :]
    assert B2.shape[0]
    gram = B2 @ B2.T
    assert not any(M.shape == gram.shape and np.allclose(M, gram) for M in factored)


@pytest.mark.parametrize("p, deflations", [(2, 1), (3, 2)], ids=["square", "tall"])
def test_square_regular_system_pencil_deflates_once(monkeypatch, p, deflations):
    # a square pencil without right indices is regular, so it has no left
    # indices either: klf skips the transposed third pass
    count, deflate = [0], pencil._deflate

    def counted(*args, **kwargs):
        count[0] += 1
        return deflate(*args, **kwargs)

    g = analysis.minreal(random_system(12, 2, p, "continuous", rng=np.random.default_rng(12)))
    monkeypatch.setattr(pencil, "_deflate", counted)
    ks = pencil.klf(*analysis._system_pencil(g))[4]
    assert count[0] == deflations
    assert (len(ks.right_indices), len(ks.left_indices)) == (0, p - 2)


def test_compatible_solve_right_takes_no_probe_rank(probed):
    # a certified particular solution needs no compatibility test
    g = random_system(8, 2, 2, "continuous", stable=True, rng=np.random.default_rng(8))
    h = random_system(4, 1, 2, "continuous", stable=True, rng=np.random.default_rng(4))
    solve.solve_right(g, h)
    assert "solve_right" not in probed.callers


def test_deficiency_cuts_count_through_svd_rank(monkeypatch):
    # a discrete tall inner_outer decides the column rank of D (in
    # analysis's feedthrough helper), the spectral-factor weight and the
    # completion basis each by _svd_rank; the minreal staircases are its
    # only other callers
    callers, svd_rank = set(), kernels._svd_rank

    def counted(*args, **kwargs):
        callers.add(sys._getframe(1).f_code.co_name)
        return svd_rank(*args, **kwargs)

    for mod in (analysis, factor):
        monkeypatch.setattr(mod, "_svd_rank", counted)
    factor.inner_outer(random_system(12, 2, 3, "discrete", stable=True, rng=np.random.default_rng(12)))
    assert callers == {"_ctrb_reduce", "_psd_sqrt", "_zero_dynamics", "_inner_complement"}
