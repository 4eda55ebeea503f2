"""Square solves and their refusals.

A general square matrix that a pipeline solves with takes one LU
(``kernels._lu_solve``: LAPACK ``getrf``, ``gecon`` and ``getrs``), and a
singular one raises the site's typed error, never numpy's ``LinAlgError``.
The mutation tests make the LU report a singular matrix at one site at a
time; the source scan keeps new solves on that path and names the few left
on numpy's ``solve``.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dstk import kernels
from dstk.analysis import minreal, stability_region
from dstk.exceptions import IterationFailure, PlacementFailure
from dstk.factor import inner_outer, rcf
from dstk.system import make_system, random_system

SRC = Path(__file__).resolve().parents[1] / "src" / "dstk"

# solves kept on numpy's LAPACK: scipy's LU rounds differently, and rank and
# Riccati acceptance decisions of tested and corpus inputs sit on that
# rounding (ROADMAP items 6 and 18)
_NUMPY_SOLVES = {
    ("analysis.py", "_split"),
    ("analysis.py", "_reduce"),
    ("factor.py", "_riccati_schur"),
    ("solve.py", "_right_nullspace"),
}


def _dense_solve_calls(path):
    """``(file, enclosing function, line)`` of each ``np.linalg.solve``/``inv``
    and ``scipy.linalg`` ``solve``/``inv``/``lu_factor``/``lu_solve`` call."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                target = ast.unparse(child.func)
                if target in ("np.linalg.solve", "np.linalg.inv") or (
                    target.split(".")[0] in ("sla", "scipy")
                    and target.split(".")[-1] in ("solve", "inv", "lu_factor", "lu_solve")
                ):
                    found.append((path.name, fn, child.lineno, target))
            visit(child, name)

    visit(ast.parse(path.read_text()), None)
    return found


def test_square_solves_go_through_lu_solve():
    calls = [c for path in sorted(SRC.glob("*.py")) for c in _dense_solve_calls(path)]
    assert not [c for c in calls if c[3] != "np.linalg.solve"], calls
    assert {(f, fn) for f, fn, *_ in calls} <= _NUMPY_SOLVES, calls


def _singular_at(monkeypatch, site):
    """Make ``_lu_solve`` report a singular matrix to ``kernels._solve``
    when ``site`` is the function calling it."""
    lu_solve = kernels._lu_solve

    def patched(M, B, rcond=None):
        caller = sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name
        return None if caller == ("_solve", site) else lu_solve(M, B, rcond)

    monkeypatch.setattr(kernels, "_lu_solve", patched)


def _square(domain):
    g = random_system(12, 2, 2, domain, stable=True, rng=np.random.default_rng(12))
    return make_system(g.A, g.E, g.B, g.C, np.eye(2), domain)


def _tall(domain):
    return random_system(12, 2, 3, domain, stable=True, rng=np.random.default_rng(12))


def _improper(domain):
    return random_system(24, 2, 2, domain, proper=False, rng=np.random.default_rng(24))


@pytest.mark.parametrize(
    "site, build, call, exc, message",
    [
        ("_riccati_gain", _tall, inner_outer, IterationFailure, "Riccati gain weight is singular"),
        ("_bernoulli", _square, inner_outer, IterationFailure, "Bernoulli solution is singular"),
        ("_inner_complement", _tall, inner_outer, IterationFailure, "inner completion Gramian equation is singular"),
        (
            "_dislocating_feedback",
            _improper,
            lambda g: rcf(g, stability_region(g.domain)),
            PlacementFailure,
            "kernel block is singular",
        ),
    ],
    ids=["riccati_gain", "bernoulli", "inner_complement", "dislocating_feedback"],
)
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_singular_solve_raises_the_site_error(monkeypatch, site, build, call, exc, message, domain):
    g = build(domain)
    call(g)
    _singular_at(monkeypatch, site)
    with pytest.raises(exc, match=f"^{message}$"):
        call(g)


def test_singular_quasi_inverse_is_refused(monkeypatch):
    # the discrete Bernoulli solve inverts the antistable Schur block
    g = _square("discrete")
    _singular_at(monkeypatch, "_quasi_inv")
    with pytest.raises(IterationFailure, match="^quasi-triangular block is singular$"):
        inner_outer(g)


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_riccati_graph_solve_is_refused(monkeypatch, domain):
    g = _tall(domain)
    solve = np.linalg.solve

    def patched(M, B):
        if sys._getframe(1).f_code.co_name == "_riccati_schur":
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(M, B)

    monkeypatch.setattr(np.linalg, "solve", patched)
    with pytest.raises(IterationFailure, match="^Riccati deflating subspace is not a graph$"):
        inner_outer(g)


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
def test_failed_svd_is_an_iteration_failure(monkeypatch, proper):
    # every rank decision runs through kernels._svd, which reports a gesdd
    # that did not converge as a typed failure
    g = random_system(8, 2, 2, "continuous", proper=proper, rng=np.random.default_rng(8))
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def patched(names, arrays=(), *args, **kwargs):
        funcs = get_lapack_funcs(names, arrays, *args, **kwargs)
        if names != "gesdd":
            return funcs

        def gesdd(*a, **kw):
            return (*funcs(*a, **kw)[:3], 1)

        return gesdd

    monkeypatch.setattr(kernels.sla, "get_lapack_funcs", patched)
    with pytest.raises(IterationFailure, match="^SVD did not converge"):
        minreal(g)
