"""One probe-point rule: a probe point is a point where the oracle can
evaluate the pencil.

``probe_points`` yields the ring points at which the LU of ``A - lam E``
clears the default cut of ``kernels._lu_solve``, the question ``eval_tfm``
asks, and ``solve_right`` picks its core and certifies ``G X = F`` there.
The hostile corpus puts random systems under a diagonal similarity of
condition up to 1e12: the transfer matrix is unchanged, but the pencil's
scale differs wildly from row to row.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from dstk import analysis, kernels
from dstk.cli import run, write_system
from dstk.exceptions import DstkError, EvalAtPole, IterationFailure
from dstk.kernels import _ring_points
from dstk.solve import solve_right
from dstk.system import eval_tfm, make_system, probe_points, random_system

rng = np.random.default_rng


def _hostile(s):
    """``random_system`` under ``diag(t)`` with ``t = 10^u``, ``u`` uniform
    in (-6, 6): the same transfer matrix, or None when ``make_system``
    refuses the scaled pencil."""
    d = "continuous" if s % 2 else "discrete"
    g = random_system(6, 2, 2, d, proper=s % 4 < 2, stable=s % 3 == 0, rng=rng(s))
    t = 10.0 ** rng(s + 1).uniform(-6, 6, 6)
    try:
        return g, make_system(g.A * t / t[:, None], g.E * t / t[:, None], g.B / t[:, None], g.C * t, g.D, d)
    except DstkError:
        return g, None


def _dense(g, lam):
    return g.C @ np.linalg.solve(g.A - lam * g.E, g.B) + g.D


def test_hostile_corpus_size():
    assert sum(_hostile(s)[1] is not None for s in range(300)) == 109


@pytest.mark.parametrize("s", [1, 5, 67, 98, 142, 174, 179, 181, 186, 262, 279])
def test_probe_points_are_the_points_the_oracle_evaluates(s):
    _, h = _hostile(s)
    evaluable = []
    for lam in _ring_points(h.A, h.E, 60):
        try:
            eval_tfm(h, lam)
            evaluable.append(lam)
        except EvalAtPole:
            pass
    assert probe_points(h, count=3) == evaluable[:3]


@pytest.mark.parametrize("s", [67, 98, 142, 174, 179, 186, 262, 279])
def test_hostile_solve_right_is_right(s):
    # these found no probe point under a second, absolute clearance rule
    g, h = _hostile(s)
    X = solve_right(h, h).particular
    for lam in (0.3 + 0.8j, -0.7 + 0.4j, 1.7 - 0.6j, -0.2 - 1.9j):
        gv, xv = _dense(g, lam), _dense(X, lam)
        scale = np.linalg.norm(gv) * np.linalg.norm(xv) + np.linalg.norm(gv)
        assert np.linalg.norm(gv @ xv - gv) <= 1e-7 * scale


def test_no_probe_point_is_refused(tmp_path, capsys):
    # the minimal realization of [G G] clears no probe point
    _, h = _hostile(181)
    with pytest.raises(IterationFailure, match="any probe point"):
        solve_right(h, h)
    path = str(tmp_path / "h.dss")
    write_system(path, h)
    assert run(["solve", path, path, "-o", str(tmp_path / "x.dss"), "--out", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == IterationFailure.code


def test_ring_is_scale_invariant():
    g = random_system(6, 2, 2, "continuous", proper=False, rng=rng(6))
    np.testing.assert_allclose(_ring_points(1e-14 * g.A, 1e-14 * g.E, 3), _ring_points(g.A, g.E, 3), rtol=1e-12)


def test_probe_points_read_the_singular_cut(monkeypatch):
    # mutation: a probe point clears the LU cut n * SINGULAR_RCOND, so a
    # coarser cut leaves fewer of them
    g = random_system(6, 2, 2, "continuous", rng=rng(2))
    assert len(probe_points(g)) == 5
    monkeypatch.setattr(kernels, "SINGULAR_RCOND", 1e-2)
    assert len(probe_points(g)) < 5


# the proper hostile inputs that minreal keeps at order 6 and whose D passes
# the zero-dynamics gate
GATED = [
    5, 8, 13, 16, 25, 28, 32, 44, 49, 53, 60, 68, 73, 76, 77, 96, 100, 109, 120, 124, 136, 137,
    144, 148, 157, 160, 180, 184, 185, 188, 192, 200, 201, 212, 232, 233, 237, 244, 245, 280, 289, 292,
    293, 296,
]


def _gated(g):
    """Whether ``zeros`` reads ``g``'s zeros from ``A + B D^-1 C``: the gate of
    ``analysis._structure``, which asks ``_zero_dynamics`` of a standard ``g``."""
    return g.is_standard and analysis._zero_dynamics(g)[3] is not None


def test_gated_hostile_inputs():
    gated = []
    for s in range(300):
        h = _hostile(s)[1] if s % 4 < 2 else None
        g = None if h is None else analysis.minreal(h)
        if g is not None and g.n == 6 and _gated(g):
            gated.append(s)
    assert gated == GATED


@pytest.mark.parametrize("s", GATED)
def test_balanced_zeros(s):
    # the zeros of a row-scaled system are those of its unscaled twin; the
    # staircase of the scaled system pencil misreads s = 16, 124, 148, 232
    # and 245 and refuses s = 25 and 188, so these read A + B D^-1 C
    g, h = _hostile(s)
    _assert_same_zeros(analysis.zeros(h).finite, scipy.linalg.eigvals(g.A + g.B @ np.linalg.solve(g.D, g.C), g.E))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 5 and 27: the staircase of a row-scaled system pencil that misses the gate "
    "finds 5 finite zeros where the unscaled twin has 6",
)
@pytest.mark.parametrize("s", [1, 24, 36, 129, 133, 168, 181, 208])
def test_ungated_hostile_zeros(s):
    g, h = _hostile(s)
    m = analysis.minreal(h)
    if m.n != 6 or _gated(m):
        pytest.fail("the input no longer keeps order 6 and misses the zero-dynamics gate")
    _assert_same_zeros(analysis.zeros(h).finite, analysis.zeros(g).finite)


def _assert_same_zeros(got, want):
    """``got`` matches ``want`` one to one within 1e-6 of the largest wanted zero."""
    want = list(want)
    assert len(got) == len(want)
    scale = max(abs(w) for w in want)
    for z in got:
        j = int(np.argmin([abs(z - w) for w in want]))
        assert abs(z - want.pop(j)) <= 1e-6 * scale, z
