"""Property tests over generated systems, checked by invariants of the result.

Hypothesis runs derandomized, so every run draws the same examples and the
results depend on the inputs alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dstk.analysis import minreal
from dstk.ops import concat_col, inverse, series
from dstk.pencil import weierstrass_structure
from dstk.system import random_system


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(
    n=st.integers(1, 10),
    m=st.integers(1, 3),
    domain=st.sampled_from(["continuous", "discrete"]),
    proper=st.booleans(),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["g", "gg", "ginv"]),
)
def test_minreal_leaves_no_simple_infinite_eigenvalue(n, m, domain, proper, seed, kind):
    g = random_system(n, m, m, domain, proper=proper or n < 2, rng=np.random.default_rng(seed))
    x = g if kind == "g" else concat_col(g, g) if kind == "gg" else series(g, inverse(g))
    h = minreal(x)
    assert h.n <= x.n
    assert 1 not in weierstrass_structure(h.A, h.E).infinite_divisor_degrees
