"""Refusals of malformed input, one case each.

Every public entry point checks shapes, domains and arguments before any
work.  Each case below triggers one such check and asserts the exception
type and the ``code`` the command-line front end reports for it (``None``
for a ``ValueError``, which is not a toolkit error).
"""

import numpy as np
import pytest

from dstk.analysis import StabilityRegion, stability_region
from dstk.exceptions import (
    BoundaryZeros,
    DimensionMismatch,
    DomainMismatch,
    IterationFailure,
    RegionInvalid,
)
from dstk.factor import additive_decompose, co_outer_co_inner, inner_outer, rcf
from dstk.kernels import as_matrix, glyap, gschur_ordered, gsylv_separation
from dstk.ops import RationalMatrixData, inverse, realize_rational
from dstk.pencil import klf, pencil_normal_rank, weierstrass_structure
from dstk.solve import l2_model_match, solve_right
from dstk.system import apply_similarity, eval_tfm, make_system, random_system

I2, Z21, Z12 = np.eye(2), np.zeros((2, 1)), np.zeros((1, 2))


def _g(domain="continuous", p=2, m=2, seed=1):
    return random_system(4, m, p, domain, stable=True, rng=np.random.default_rng(seed))


def _tall_zero_d():
    # continuous, tall, D = 0: full column normal rank, zeros at infinity
    g = _g(p=3, m=2)
    return make_system(g.A, g.E, g.B, g.C, np.zeros((3, 2)), "continuous")


def _strictly_proper(p):
    f = _g(p=p, m=1, seed=2)
    return make_system(f.A, f.E, f.B, f.C, np.zeros((p, 1)), "continuous")


def _one_bad_pole():
    return make_system([[1.0]], None, [[1.0]], [[1.0]], [[0.0]], "continuous")


CASES = [
    ("make_system-A-not-square", DimensionMismatch, "A must be square",
     lambda: make_system(np.zeros((2, 3)), None, Z21, Z12, [[0.0]], "continuous")),
    ("make_system-C-columns", DimensionMismatch, "C must have 2 columns",
     lambda: make_system(I2, None, Z21, np.zeros((1, 3)), [[0.0]], "continuous")),
    ("make_system-D-shape", DimensionMismatch, "D must be 1x1",
     lambda: make_system(I2, None, Z21, Z12, np.zeros((2, 2)), "continuous")),
    ("apply_similarity-shape", DimensionMismatch, "U and V must be 4x4",
     lambda: apply_similarity(_g(), np.eye(3), np.eye(4))),
    ("random_system-negative", ValueError, "nonnegative",
     lambda: random_system(2, -1, 1, "continuous")),
    ("random_system-improper-order-1", ValueError, "needs n >= 2",
     lambda: random_system(1, 1, 1, "continuous", proper=False)),
    ("inverse-unknown-mode", ValueError, "unknown inverse mode",
     lambda: inverse(make_system(-I2, None, I2, I2, I2, "continuous"), mode="pseudo")),
    ("realize_rational-grid", DimensionMismatch, "entries grid",
     lambda: realize_rational(RationalMatrixData(1, 2, [[([1.0], [1.0, 1.0])]]), "continuous")),
    ("solve_right-domain", DomainMismatch, "time domain",
     lambda: solve_right(_g(), _g("discrete"))),
    ("solve_right-outputs", DimensionMismatch, "output counts",
     lambda: solve_right(_g(), _g(p=3))),
    ("l2_model_match-domain", DomainMismatch, "time domain",
     lambda: l2_model_match(_g(), _g("discrete"))),
    ("l2_model_match-outputs", DimensionMismatch, "output counts",
     lambda: l2_model_match(_g(), _g(p=3))),
    ("l2_model_match-tall-zeros-at-infinity", BoundaryZeros, "zeros at infinity",
     lambda: l2_model_match(_tall_zero_d(), _strictly_proper(3))),
    ("additive_decompose-region", RegionInvalid, "must be a StabilityRegion",
     lambda: additive_decompose(_g(), "lhp")),
    ("rcf-region", RegionInvalid, "must be a StabilityRegion",
     lambda: rcf(_g(), "lhp")),
    ("rcf-target-count", RegionInvalid, "need 1 target poles, got 2",
     lambda: rcf(_one_bad_pole(), stability_region("continuous"), pole_set=[-1.0, -2.0])),
    ("as_matrix-3d", DimensionMismatch, "2-dimensional",
     lambda: as_matrix(np.zeros((2, 2, 2)))),
    ("gschur_ordered-shape", DimensionMismatch, "square and equal-sized",
     lambda: gschur_ordered(I2, np.eye(3))),
    ("gsylv_separation-leading", DimensionMismatch, "leading blocks",
     lambda: gsylv_separation(I2, Z21, [[1.0]], np.eye(3), Z21, [[1.0]])),
    ("gsylv_separation-trailing", DimensionMismatch, "trailing blocks",
     lambda: gsylv_separation(I2, Z21, [[1.0]], I2, Z21, I2)),
    ("gsylv_separation-coupling", DimensionMismatch, "coupling blocks",
     lambda: gsylv_separation(I2, Z12, [[1.0]], I2, Z21, [[1.0]])),
    ("glyap-shape", DimensionMismatch, "square of equal order",
     lambda: glyap(-I2, I2, np.eye(3), "continuous")),
    ("glyap-asymmetric-W", ValueError, "symmetric",
     lambda: glyap(-I2, I2, [[1.0, 1.0], [0.0, 1.0]], "continuous")),
    ("glyap-unknown-domain", ValueError, "unknown time domain",
     lambda: glyap(-I2, I2, I2, "hybrid")),
    ("klf-shape", DimensionMismatch, "equal shapes",
     lambda: klf(I2, np.eye(3))),
    ("weierstrass_structure-not-square", DimensionMismatch, "square and equal-sized",
     lambda: weierstrass_structure(np.zeros((2, 3)), np.zeros((2, 3)))),
    ("pencil_normal_rank-shape", DimensionMismatch, "equal shapes",
     lambda: pencil_normal_rank(np.zeros((2, 3)), np.zeros((3, 2)))),
    ("StabilityRegion-kind", RegionInvalid, "unknown region kind",
     lambda: StabilityRegion("cone")),
    ("inner_outer-completion-kernel", IterationFailure, "inner completion kernel has unexpected dimension",
     lambda: inner_outer(random_system(16, 2, 3, "discrete", stable=True, rng=np.random.default_rng(4019)))),
]


@pytest.mark.parametrize("exc, match, call", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_refusal(exc, match, call):
    with pytest.raises(exc, match=match) as info:
        call()
    assert info.type is exc
    assert getattr(info.value, "code", None) == getattr(exc, "code", None)


def test_empty_blocks_are_answered_not_refused():
    assert realize_rational(RationalMatrixData(0, 2, []), "continuous").m == 2
    assert gschur_ordered(np.zeros((0, 0)), np.zeros((0, 0))).selected_count == 0
    L, R = gsylv_separation(np.zeros((0, 0)), np.zeros((0, 1)), [[1.0]], np.zeros((0, 0)), np.zeros((0, 1)), [[1.0]])
    assert L.shape == R.shape == (0, 1)
    assert StabilityRegion.disk(0.8).reflect(0.0) == 0.4


@pytest.mark.parametrize("factorize", [inner_outer, co_outer_co_inner])
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_factors_of_a_static_empty_system(domain, factorize):
    # a 0 x 0 static system: D has no singular value to gate the square path
    pair = factorize(make_system(*[np.zeros((0, 0))] * 5, domain))
    assert (pair.first.n, pair.first.p, pair.second.n, pair.second.m, pair.inner_columns) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_inner_outer_of_an_empty_input_set(domain):
    # a p x 0 system is the static I_p times a 0 x 0 outer factor, by the
    # general path; its dual is the 0 x p co-outer--co-inner pair
    g = random_system(4, 0, 3, domain, stable=True, rng=np.random.default_rng(3))
    pair = inner_outer(g)
    Q, R = pair.first, pair.second
    assert (Q.n, Q.p, Q.m, R.p, R.m, pair.inner_columns) == (0, 3, 3, 0, 0, 0)
    assert np.array_equal(eval_tfm(Q, 0.3 + 0.4j), np.eye(3))
    dual = co_outer_co_inner(random_system(4, 3, 0, domain, stable=True, rng=np.random.default_rng(3)))
    R, Q = dual.first, dual.second
    assert (Q.n, Q.p, Q.m, R.p, R.m, dual.inner_columns) == (0, 3, 3, 0, 0, 0)
    assert np.array_equal(eval_tfm(Q, 0.3 + 0.4j), np.eye(3))
