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
