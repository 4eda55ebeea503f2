"""One region rule: every decision by eigenvalue location asks
``StabilityRegion.inside``.

A point within ``BOUNDARY_TOL * (1 + |z|)`` of a region's boundary is in its
band: inside neither the region nor its complement.  The dislocation of
``rcf``/``lcf`` moves a band pole, and every ordering, acceptance and
refusal treats a band eigenvalue alike: the pole-set and closed-loop checks,
the Riccati selectors, the Lyapunov precondition, ``is_stable`` and the
additive split.  Each check below is a predicate so that the mutation test
can show that all of them depend on the band.
"""

import numpy as np
import pytest

from dstk import kernels
from dstk.analysis import StabilityRegion, is_stable, poles, stability_region
from dstk.exceptions import IterationFailure, PoleOnBoundary, RegionInvalid, UnstablePair
from dstk.factor import _riccati_schur, additive_decompose, lcf, rcf
from dstk.kernels import glyap
from dstk.system import TimeDomain, eval_tfm, make_system

# within 1e-8 of the boundary, deep (-1e-11) or near the band's edge (-3e-9)
BAND = [("continuous", -1e-11), ("continuous", -3e-9), ("discrete", 1.0 - 1e-11), ("discrete", 1.0 - 3e-9)]
BAND_IDS = ["c-deep", "c-edge", "d-deep", "d-edge"]


def _band_system(domain, z):
    """``diag(z, -2, 3)`` (continuous) or ``diag(z, 0.5, 1.5)`` (discrete),
    ``B = [1 1 1]^T``, ``C = [1 1 1]``, ``D = 0``: one band pole, one good
    and one bad."""
    rest = [-2.0, 3.0] if domain == "continuous" else [0.5, 1.5]
    return make_system(np.diag([z] + rest), None, np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1)), domain)


def _raises(exc, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except exc:
        return True
    return False


def _clear_of_boundary(sys):
    """Every pole of ``sys`` at least 1e-6 inside the stable region (a test
    margin independent of ``BOUNDARY_TOL``)."""
    region = stability_region(sys.domain)
    return all(region.contains(z) and region.boundary_distance(z) > 1e-6 for z in poles(sys).finite)


def dislocates(fn, domain, z):
    g = _band_system(domain, z)
    pair = fn(g, stability_region(domain))
    N, M = pair.first, pair.second
    lam = 0.7 + 1.3j
    gv, nv, mv = eval_tfm(g, lam), eval_tfm(N, lam), eval_tfm(M, lam)
    q = nv @ np.linalg.inv(mv) if fn is rcf else np.linalg.solve(mv, nv)
    assert np.linalg.norm(q - gv) <= 1e-8 * (1.0 + np.linalg.norm(gv))
    return _clear_of_boundary(N) and _clear_of_boundary(M) and is_stable(N) and is_stable(M)


def refuses_band_target(domain, z):
    rest = [-2.0, 3.0] if domain == "continuous" else [0.5, 1.5]
    g = make_system(np.diag(rest), None, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), domain)
    return _raises(RegionInvalid, rcf, g, stability_region(domain), pole_set=[z])


def refuses_band_riccati(domain, z):
    # zero-weight LQR of a = z: the extended pencil has z and its mirror,
    # both in the band, so it cannot split into one stable direction
    d = TimeDomain(domain)
    return _raises(IterationFailure, _riccati_schur, np.array([[z]]), np.ones((1, 1)), np.zeros((1, 1)),
                   np.zeros((1, 1)), np.eye(1), d)


def refuses_band_lyapunov(domain, z):
    return _raises(UnstablePair, glyap, np.diag([z, 0.5 * z]), np.eye(2), np.eye(2), domain)


def refuses_band_split(domain, z):
    return _raises(PoleOnBoundary, additive_decompose, _band_system(domain, z), stability_region(domain))


def calls_band_unstable(domain, z):
    lone = make_system([[z]], None, [[1.0]], [[1.0]], [[0.0]], domain)
    return not is_stable(_band_system(domain, z)) and not is_stable(lone)


CHECKS = [
    lambda d, z: dislocates(rcf, d, z),
    lambda d, z: dislocates(lcf, d, z),
    refuses_band_target,
    refuses_band_riccati,
    refuses_band_lyapunov,
    refuses_band_split,
    calls_band_unstable,
]
CHECK_IDS = ["rcf", "lcf", "pole_set", "riccati", "lyapunov", "additive", "is_stable"]


@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
@pytest.mark.parametrize("domain, z", BAND, ids=BAND_IDS)
def test_band_eigenvalue_is_not_inside(check, domain, z):
    assert check(domain, z)


@pytest.mark.parametrize("domain, z", [("continuous", -1e-12), ("discrete", 1.0 - 1e-12)], ids=["c", "d"])
def test_pole_set_target_in_the_band_is_refused(domain, z):
    # placed, such a target would leave N and M a pole that is_stable refuses
    assert refuses_band_target(domain, z)


@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
def test_band_checks_fail_without_the_band(monkeypatch, check):
    # with BOUNDARY_TOL = 0 the rule degenerates to the bare geometric test,
    # and each check above must notice
    monkeypatch.setattr(kernels, "BOUNDARY_TOL", 0.0)
    domain, z = BAND[0]
    try:
        ok = check(domain, z)
    except AssertionError:
        ok = False
    assert not ok


@pytest.mark.parametrize(
    "region, z",
    [
        (StabilityRegion.left_half_plane(), -0.5 + 2.0j),
        (StabilityRegion.half_plane(-0.3), -0.3 - 1e-3),
        (StabilityRegion.unit_disk(), 0.3 - 0.9j),
        (StabilityRegion.disk(0.8), 0.8 - 1e-3),
        (StabilityRegion.left_half_plane(), -1e-11),
        (StabilityRegion.unit_disk(), 1.0 - 1e-11),
        (StabilityRegion.unit_disk(), 1.0 + 1e-11),
        (StabilityRegion.left_half_plane(), 0.0),
        (StabilityRegion.unit_disk(), 2.0),
    ],
)
def test_inside_is_contains_off_the_band(region, z):
    # inside = contains and not on_boundary: one signed distance serves all
    assert region.inside(z) == (region.contains(z) and not region.on_boundary(z))
