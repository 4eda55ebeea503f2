"""Regular-pencil queries stay off the Kronecker machinery.

A square pencil needs one deflation pass to split into its infinite and
finite parts, and its finite eigenvalues need no Schur vectors.  These tests
count the calls that would betray a full ``klf`` or a QZ with Schur vectors.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from dstk import analysis, cli, factor, kernels, pencil, solve
from dstk.cli import write_system
from dstk.pencil import weierstrass_structure
from dstk.system import make_system, random_system


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod, attr, name in [
        (scipy.linalg, "qz", "qz"),
        (scipy.linalg, "ordqz", "qz"),
        (pencil, "klf", "klf"),
        (analysis, "klf", "klf"),
        (analysis, "minreal", "minreal"),
    ]:
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
    assert calls["minreal"] <= 2
    assert calls["klf"] <= 1
    assert calls["qz"] == 0


def test_improper_minimality_report_runs_no_qz(calls):
    # the report reads only the finite (A, B) of the split, which the
    # Sylvester decoupling from the infinite part leaves unchanged
    g = random_system(24, 2, 2, "continuous", proper=False, rng=np.random.default_rng(24))
    analysis.minimality_report(g)
    assert calls["klf"] == 0
    assert calls["qz"] == 0


@pytest.fixture
def pipeline_calls(calls, monkeypatch):
    """``calls`` plus ``minreal`` where ``factor`` and ``solve`` bind it, and
    the square inner completion."""
    for mod, attr, name in [
        (factor, "minreal", "minreal"),
        (solve, "minreal", "minreal"),
        (factor, "_inner_complement", "inner_complement"),
    ]:
        fn = getattr(mod, attr)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_model_match_skips_inner_completion(pipeline_calls):
    G = random_system(20, 2, 4, "continuous", stable=True, rng=np.random.default_rng(20))
    F = random_system(10, 1, 4, "continuous", stable=True, rng=np.random.default_rng(27))
    F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), "continuous")
    solve.l2_model_match(G, F)
    assert pipeline_calls["inner_complement"] == 0
    assert pipeline_calls["minreal"] <= 10


@pytest.mark.parametrize(
    "query",
    [analysis.minreal, analysis.poles, lambda g: weierstrass_structure(g.A, g.E)],
    ids=["minreal", "poles", "weierstrass_structure"],
)
def test_invertible_E_needs_no_square_singular_vectors(monkeypatch, proper24, query):
    # an invertible E is decided from its singular values alone, and the
    # staircase compresses only n x m stairs
    shapes, svd = [], kernels._svd

    def counted(M, vectors=True):
        shapes.append((M.shape, vectors))
        return svd(M, vectors)

    for mod in (kernels, pencil, analysis):
        monkeypatch.setattr(mod, "_svd", counted)
    query(proper24)
    n = proper24.n
    assert ((n, n), False) in shapes
    assert ((n, n), True) not in shapes


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


def test_rcf_takes_one_svd_of_E(monkeypatch, improper24):
    # the rank of E, its compression and the QZ beta cut share one SVD
    g = analysis.minreal(improper24)
    assert kernels.rank_tol(g.E) < g.n
    seen, svd, np_svd = Counter(), kernels._svd, np.linalg.svd

    def counted(fn, name):
        def wrapper(M, *args, **kwargs):
            seen[name] += np.shape(M) == g.E.shape and np.array_equal(M, g.E)
            return fn(M, *args, **kwargs)

        return wrapper

    for mod in (kernels, pencil, analysis, factor):
        monkeypatch.setattr(mod, "_svd", counted(svd, "_svd"), raising=False)
    monkeypatch.setattr(np.linalg, "svd", counted(np_svd, "numpy"))
    factor.rcf(improper24, analysis.stability_region(g.domain))
    assert (seen["_svd"], seen["numpy"]) == (1, 0)
