"""The standard-block path (one real Schur form and ``dtrsyl``) against the
general QZ kernels at real orders.

``h2_norm`` and ``additive_decompose`` see ``minreal``'s finite block with
``E = I`` and solve its Lyapunov and Sylvester equations on one real Schur
form.  Their answers are checked here against ``glyap`` on the same
realization and against a dense resolvent solve that never calls
``eval_tfm``.
"""

import numpy as np
import pytest

from dstk import factor, kernels
from dstk.analysis import h2_norm, poles, stability_region
from dstk.exceptions import IterationFailure, SpectraNotDisjoint, UnstablePair
from dstk.factor import additive_decompose
from dstk.kernels import _lyap_quasi, _schur_ordered, _sylv_quasi, glyap
from dstk.system import make_system, random_system

ORDERS = [8, 24, 48, 64]
DOMAINS = ["continuous", "discrete"]
SEEDS = [0, 1, 2]


def _standard(n, domain, seed, stable, proper=True):
    """A random system; proper ones as a standard realization ``E = I``
    (``E^-1 A``, ``E^-1 B``), the feedthrough zeroed in continuous time."""
    g = random_system(n, 2, 3, domain, proper=proper, stable=stable, rng=np.random.default_rng(1000 * seed + n))
    if not proper:
        return g
    D = np.zeros_like(g.D) if domain == "continuous" else g.D
    return make_system(np.linalg.solve(g.E, g.A), np.eye(n), np.linalg.solve(g.E, g.B), g.C, D, domain)


def _resolvent(g, lam):
    """``G(lam)`` by a dense solve, and its normwise scale
    ``||D|| + ||C|| ||(A - lam E)^-1 B||``."""
    X = np.linalg.solve(g.A - lam * g.E, g.B)
    return g.C @ X + g.D, np.linalg.norm(g.D) + np.linalg.norm(g.C) * np.linalg.norm(X)


def _sum_error(g, pair):
    """Largest normwise error of ``Gg + Gb`` against ``G`` over four probe points."""
    err = 0.0
    for lam in kernels._ring_points(g.A, g.E, 4):
        G, scale = _resolvent(g, lam)
        err = max(err, np.linalg.norm(_resolvent(pair.first, lam)[0] + _resolvent(pair.second, lam)[0] - G) / scale)
    return err


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", ORDERS)
def test_h2_norm_matches_glyap(n, domain, seed):
    g = _standard(n, domain, seed, stable=True)
    val = np.trace(g.C @ glyap(g.A, np.eye(n), g.B @ g.B.T, domain) @ g.C.T)
    if domain == "discrete":
        val += np.trace(g.D @ g.D.T)
    want = np.sqrt(val)
    assert abs(h2_norm(g) - want) <= 1e-10 * want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
def test_additive_parts_sum_to_g(n, domain, seed, proper):
    g = _standard(n, domain, seed, stable=False, proper=proper)
    region = stability_region(domain)
    pair = additive_decompose(g, region, improper_to_bad=not proper)
    assert _sum_error(g, pair) <= 1e-10
    assert pair.first.is_standard
    assert all(region.contains(z) for z in np.linalg.eigvals(pair.first.A))
    assert not any(region.contains(z) for z in poles(pair.second).finite)


def test_sum_check_sees_a_missing_decoupling(monkeypatch):
    # with R = 0 the bad part drops the coupling, and the sum no longer holds
    g = _standard(24, "continuous", 0, stable=False)
    monkeypatch.setattr(factor, "_sylv_quasi", lambda T11, T12, T22: np.zeros(T12.shape))
    pair = additive_decompose(g, stability_region("continuous"))
    assert _sum_error(g, pair) > 1e-6


def test_schur_eigenvalues_are_read_off_the_quasi_diagonal(rng):
    A = rng.normal(size=(12, 12))
    T, Z, eigs, k = _schur_ordered(A, lambda lam: lam.real < 0)
    assert np.allclose(Z.T @ A @ Z, T) and np.allclose(np.tril(T, -2), 0.0)
    assert k == sum(lam.real < 0 for lam in eigs)
    assert all(lam.real < 0 for lam in eigs[:k]) and not any(lam.real < 0 for lam in eigs[k:])
    want = np.sort_complex(np.linalg.eigvals(A))
    assert np.allclose(np.sort_complex(np.array(eigs)), want)


def test_schur_reordering_failure_is_an_iteration_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")

    monkeypatch.setattr(kernels.sla, "schur", fail)
    with pytest.raises(IterationFailure):
        _schur_ordered(np.eye(2), lambda lam: lam.real < 0)


def test_sylv_quasi_refuses_common_eigenvalues():
    with pytest.raises(SpectraNotDisjoint):
        _sylv_quasi(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))


@pytest.mark.parametrize(
    "domain, M",
    [("continuous", [[-1.0, 2.0], [0.0, 0.0]]), ("discrete", [[0.0, 1.0], [-1.0, 0.0]])],
    ids=["continuous-origin", "discrete-unit-circle"],
)
def test_stable_lyap_refuses_the_boundary(domain, M):
    # the eigenvalue 0, and the pair +-1j on the unit circle
    T, Z, eigs, _ = _schur_ordered(np.array(M))
    with pytest.raises(UnstablePair):
        _lyap_quasi(T, eigs, np.eye(2), domain, UnstablePair)
