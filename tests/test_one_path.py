"""One path per rank.

Each rank a staircase or a gate decides is decided once, where it is cut.
The staircase primitives take their matrices and one absolute tolerance and
nothing that could prescribe a split, so ``klf``'s second pass cuts its own
stairs and must agree with the first.  ``solve_right`` probes one normal
rank, that of ``[G F]``, against ``G``'s checked one.  The square
zero-dynamics path (``analysis._zero_dynamics``) is taken only by a ``D`` that
its column-rank cut calls full, and that cut of ``D`` is written once.  A
zero-weight Riccati is one Bernoulli equation (``factor._bernoulli``), and
only a weighted one takes the extended pencil (``factor._riccati_schur``).
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from dstk import factor
from dstk.exceptions import IterationFailure
from dstk.ops import concat_row
from dstk.solve import right_nullspace
from dstk.system import random_system

SRC = Path(factor.__file__).parent

# each staircase primitive and the parameters it takes: its matrices and tol_abs
PRIMITIVES = {
    "_deflate": ["M", "N", "tol_abs"],
    "_row_compress": ["M", "tol_abs"],
    "_col_compress_null_first": ["M", "tol_abs"],
}


def _functions(name):
    """``(file name, FunctionDef)`` of every definition of ``name`` in the package."""
    return [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


def test_staircase_primitives_take_only_their_matrices_and_tol_abs():
    found = []
    for name, params in PRIMITIVES.items():
        defs = _functions(name)
        assert len(defs) == 1, name
        args = defs[0][1].args
        if [a.arg for a in args.posonlyargs + args.args] != params or args.vararg or args.kwarg or args.kwonlyargs:
            found.append(name)
    assert not found, f"staircase primitives with a prescribed split: {found}"


def test_no_call_prescribes_a_staircase_split():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func).split(".")[-1]
                if name in PRIMITIVES and len(node.args) + len(node.keywords) != len(PRIMITIVES[name]):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"staircase calls with extra arguments: {found}"


def test_solve_right_probes_one_normal_rank():
    (_, fn), = _functions("solve_right")
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == "_probe_rank"]
    assert len(calls) == 1


def test_square_feedthrough_path_needs_a_full_column_rank():
    # the if that gates the zero-dynamics path on FEEDTHROUGH_RCOND, in the
    # one helper that _structure and _standard_stable_data share, has
    # ``full`` as one of its conjuncts
    (_, fn), = _functions("_zero_dynamics")
    gates = [n for n in ast.walk(fn) if isinstance(n, ast.If) and "FEEDTHROUGH_RCOND" in ast.unparse(n.test)]
    assert len(gates) == 1
    test = gates[0].test
    conjuncts = test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) else [test]
    assert any(isinstance(c, ast.Name) and c.id == "full" for c in conjuncts)


def test_feedthrough_rank_is_cut_in_one_function():
    # sqrt(DEFICIENCY_RCOND) max(sigma_max, 1) cuts the column rank of D in
    # analysis._zero_dynamics alone; factor reads that helper's verdict
    owner = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node).endswith("sqrt(DEFICIENCY_RCOND)"):
                    # ast.walk reaches a nested function after its parent: the innermost owner wins
                    owner[node] = f"{path.name}:{getattr(fn, 'name', '<module>')}"
    assert sorted(owner.values()) == ["analysis.py:_zero_dynamics"]


def _callers(name):
    """``file:function`` of the innermost definition around every call of ``name`` in the package."""
    owner = {}
    for path in sorted(SRC.glob("*.py")):
        for fn in [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.FunctionDef)]:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name:
                    owner[node] = f"{path.name}:{fn.name}"
    return sorted(owner.values())


def test_one_solver_per_riccati_weight():
    # a zero-weight Riccati is a Bernoulli equation on a Schur block; only a
    # weighted one takes the extended pencil's QZ
    assert _callers("_riccati_schur") == ["factor.py:_inner_outer_thin", "solve.py:_right_nullspace"]
    assert "factor.py:_dislocating_feedback" in _callers("_bernoulli")


def test_second_pass_that_disagrees_is_refused_by_its_own_cut():
    # [G G] of an improper G: pass 2, made to split at pass 1's sizes, built a
    # kernel block that only the Riccati residual refused (1.1e17 of its terms'
    # 1.2e17); cutting its own stairs, it disagrees with pass 1 and says so
    g = random_system(16, 2, 2, "continuous", proper=False, rng=np.random.default_rng(30015))
    with pytest.raises(IterationFailure, match="inconsistent staircase ranks"):
        right_nullspace(concat_row(g, g))
