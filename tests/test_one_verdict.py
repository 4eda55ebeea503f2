"""One verdict per failure.

Only the oracle's LU (``kernels._require_regular``) calls a pencil singular:
a regular pencil whose deflation staircase then finds a minimal index was
misjudged by that staircase, which is an ``IterationFailure``.  And every
weight's square root refuses a deficient weight with
``RankDeficiencyUnsupported``, the discrete inner completion's Gramian too:
nothing is clipped, so a tall discrete ``inner_outer`` is inner or refused.
"""

import ast
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from test_probe_rule import _hostile
from test_regularity import _common_kernel, _row_scaled

from dstk import analysis, factor
from dstk.analysis import minreal, poles, zeros
from dstk.cli import run, write_system
from dstk.exceptions import DstkError, IterationFailure, RankDeficiencyUnsupported, SingularPencil
from dstk.factor import inner_outer
from dstk.kernels import stability_region
from dstk.pencil import weierstrass_structure
from dstk.solve import solve_right
from dstk.system import make_system, random_system

SRC = Path(factor.__file__).parent
rng = np.random.default_rng


def _row_scaled_system(s):
    """``_row_scaled(s)`` with ``B``, ``C`` normal from ``default_rng(s)`` and
    ``D = 1``, or None when ``make_system`` refuses it."""
    A, E = _row_scaled(s)
    n, r = A.shape[0], rng(s)
    try:
        return make_system(A, E, r.normal(size=(n, 1)), r.normal(size=(1, n)), np.ones((1, 1)), "continuous")
    except SingularPencil:
        return None


def _outcome(call):
    try:
        call()
        return "ok"
    except DstkError as exc:
        return type(exc).__name__


def _max_inner_error(Q, domain):
    """max |Q*Q - I| over 16 boundary points, by dense solves."""
    worst = 0.0
    for lam in stability_region(domain).boundary_points(16):
        q = Q.C @ np.linalg.solve(Q.A - lam * Q.E, Q.B) + Q.D
        worst = max(worst, np.abs(q.conj().T @ q - np.eye(Q.m)).max())
    return worst


@pytest.mark.parametrize("s", [82, 107, 202, 383])
@pytest.mark.parametrize("call", ["minreal", "poles", "zeros", "weierstrass_structure", "solve_right"])
def test_misjudged_staircase_is_an_iteration_failure(call, s):
    # make_system accepts these pencils by the oracle's LU; the deflation
    # staircase then finds a minimal index, which only a misjudged rank can
    g = _row_scaled_system(s)
    calls = {
        "minreal": lambda: minreal(g),
        "poles": lambda: poles(g),
        "zeros": lambda: zeros(g),
        "weierstrass_structure": lambda: weierstrass_structure(g.A, g.E),
        "solve_right": lambda: solve_right(g, g),
    }
    with pytest.raises(IterationFailure):
        calls[call]()


def test_row_scaled_solve_right_tally():
    systems = [g for g in map(_row_scaled_system, range(500)) if g is not None]
    assert len(systems) == 147
    tally = Counter(_outcome(lambda: solve_right(g, g)) for g in systems)
    assert tally == {"ok": 127, "IterationFailure": 20}


def test_row_scaled_486_is_not_called_incompatible(tmp_path, capsys):
    # X = I solves G X = G; a second normal rank, probed on G's sub-pencil,
    # once read lower than the checked one and called it Incompatible
    g = _row_scaled_system(486)
    with pytest.raises(IterationFailure, match="G X = F"):
        solve_right(g, g)
    path = str(tmp_path / "g.dss")
    write_system(path, g)
    assert run(["solve", path, path, "-o", str(tmp_path / "x.dss"), "--out", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == IterationFailure.code


def test_hostile_solve_right_tally():
    tally = Counter(_outcome(lambda: solve_right(h, h)) for h in (_hostile(s)[1] for s in range(300)) if h is not None)
    assert tally == {"ok": 93, "IterationFailure": 16}


@pytest.mark.parametrize("s", [49, 232])
def test_hostile_refusals_are_iteration_failures(s, tmp_path, capsys):
    # s = 49: minreal of the particular solution misjudges its staircase;
    # s = 232: the particular solution has a pole at a probe point
    _, h = _hostile(s)
    with pytest.raises(IterationFailure):
        solve_right(h, h)
    path = str(tmp_path / "h.dss")
    write_system(path, h)
    assert run(["solve", path, path, "-o", str(tmp_path / "x.dss"), "--out", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == IterationFailure.code


@pytest.mark.parametrize("n, k", [(2, 1), (5, 3), (8, 7), (12, 4)])
def test_weierstrass_structure_refuses_common_kernel_pencils(n, k):
    A, E = _common_kernel(n, k, n + k)
    with pytest.raises(SingularPencil):
        weierstrass_structure(A, E)


# tall discrete inputs whose inner completion Gramian is deficient
DEFICIENT_GRAMIAN = [(24, 2344), (16, 336)]
# deficient ones whose Q, completed without the deficiency cut, reads max |Q*Q - I| of 5.6e-3 and 0.52
UNCUT_NOT_INNER = [(24, 3344), (32, 2352)]


@pytest.mark.parametrize("n, p, seed", [(12, 3, 3332), (12, 3, 4332), (16, 4, 5436)])
def test_tall_discrete_factor_is_inner(n, p, seed):
    # the completion is the orthogonal complement of one isometry; an X1-weighted
    # projection onto the kernel of [A^T X1, -C^T] left these at 1.1e-8 to 3.8e-8
    g = random_system(n, 2, p, "discrete", stable=True, rng=rng(seed))
    assert _max_inner_error(inner_outer(g).first, "discrete") <= 1e-10


@pytest.mark.parametrize("n, seed", DEFICIENT_GRAMIAN)
def test_deficient_completion_gramian_is_refused(n, seed):
    g = random_system(n, 2, 3, "discrete", stable=True, rng=rng(seed))
    with pytest.raises(RankDeficiencyUnsupported, match="inner completion Gramian"):
        inner_outer(g)


@pytest.mark.parametrize("n, seed", UNCUT_NOT_INNER)
def test_deficiency_cut_is_what_refuses(n, seed, monkeypatch):
    # mutation: without the deficiency cut the call returns again, and its Q
    # is not inner
    monkeypatch.setattr(factor, "DEFICIENCY_RCOND", 0.0)
    g = random_system(n, 2, 3, "discrete", stable=True, rng=rng(seed))
    assert _max_inner_error(inner_outer(g).first, "discrete") > 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 8 and 25: the continuous completion solves with the observability Gramian at "
    "rcond = 0, so a tall continuous Q is silently not inner",
)
def test_tall_continuous_factor_is_inner_or_refused():
    # Q1 R = G holds to 4e-15 here, but max |Q*Q - I| reads 0.25
    g = random_system(24, 2, 3, "continuous", stable=True, rng=rng(344))
    try:
        Q = inner_outer(g).first
    except DstkError:
        return
    assert _max_inner_error(Q, "continuous") <= 1e-8


def test_source_has_one_verdict_per_failure():
    # no Gramian floor and no clip; SingularPencil is raised only by
    # kernels._require_regular, which takes the type as an argument; every
    # _psd_sqrt call names its weight
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", getattr(node, "attr", None))
            call = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
            if name == "GRAMIAN_FLOOR" or call in ("np.clip", "SingularPencil"):
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name == "_psd_sqrt" and node.args.defaults:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"second verdicts: {found}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 25: no certificate checks the inner factor, so a small well-conditioned continuous D "
    "past the zero-dynamics gate returns a Q that is silently not inner",
)
def test_gated_continuous_factor_is_inner_or_refused():
    # max |Q*Q - I| reads 1.76e-8 here
    g = random_system(8, 2, 2, "continuous", stable=True, rng=rng(308))
    g = make_system(g.A, g.E, g.B, g.C, 1e-4 * rng(11).normal(size=(2, 2)), "continuous")
    if analysis._zero_dynamics(minreal(g))[3] is None:
        pytest.fail("the input no longer passes the zero-dynamics gate")
    try:
        Q = inner_outer(g).first
    except DstkError:
        return
    assert _max_inner_error(Q, "continuous") <= 1e-8
