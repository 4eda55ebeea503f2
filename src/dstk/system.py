"""Descriptor-system data model, validation, and the frequency-response oracle.

A system is the quadruple ``(A - lambda*E, B, C, D)`` over a time domain.
Its transfer-function matrix is evaluated throughout this package as

    ``G(lambda) = C (A - lambda E)^{-1} B + D``

and that evaluation is the verification oracle for every construction in
the library.  A point evaluation takes one LU of ``A - lambda*E``, which
both solves with ``B`` and, by its reciprocal condition, refuses a pole; no
SVD guards it.  ``make_system`` accepts a pencil exactly when that LU clears
its cut at one of three fixed probe points, from the matrices alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice

import numpy as np

from .exceptions import (
    DimensionMismatch,
    EvalAtPole,
    SingularPencil,
    SingularTransform,
)
from .kernels import SPECTRAL_RADIUS_FLOOR, _clear_points, _lu_solve, _require_regular, as_matrix

__all__ = [
    "TimeDomain",
    "DescriptorSystem",
    "make_system",
    "eval_tfm",
    "apply_similarity",
    "random_system",
]


class TimeDomain(Enum):
    CONTINUOUS = "continuous"
    DISCRETE = "discrete"


def _as_domain(domain) -> TimeDomain:
    if isinstance(domain, TimeDomain):
        return domain
    return TimeDomain(str(domain))


@dataclass(frozen=True)
class DescriptorSystem:
    """Real descriptor realization ``(A - lambda*E, B, C, D)``.

    The pencil ``A - lambda*E`` is regular: :func:`eval_tfm` can evaluate it
    at one of three fixed probe points (checked by :func:`make_system`);
    ``n = 0`` is allowed and represents a static gain ``D``.  Instances are
    immutable value objects and safe to share across threads.
    """

    A: np.ndarray
    E: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    domain: TimeDomain

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @cached_property
    def is_standard(self) -> bool:
        """True when E is exactly the identity, decided once per (immutable)
        system.  A :func:`~dstk.minreal` output has ``E == I`` exactly when
        its transfer matrix is proper."""
        return bool(np.array_equal(self.E, np.eye(self.n)))

    def __call__(self, lam) -> np.ndarray:
        return eval_tfm(self, lam)

    def __repr__(self) -> str:
        return f"DescriptorSystem(n={self.n}, m={self.m}, p={self.p}, {self.domain.value})"


def _freeze(M: np.ndarray) -> np.ndarray:
    M = np.ascontiguousarray(M, dtype=float)
    M.setflags(write=False)
    return M


def _trusted_system(A, E, B, C, D, domain) -> DescriptorSystem:
    """Assemble without the regularity probe (regularity known by construction);
    the arrays are the library's own and are frozen in place."""
    return DescriptorSystem(_freeze(A), _freeze(E), _freeze(B), _freeze(C), _freeze(D), _as_domain(domain))


def make_system(A, E, B, C, D, domain) -> DescriptorSystem:
    """Validate and build a descriptor system.

    ``E=None`` means the identity (a standard state-space system).  Dimension
    consistency is enforced and the pencil ``A - lambda*E`` is checked for
    regularity by the rule of :func:`eval_tfm`: its LU must clear ``n *
    SINGULAR_RCOND`` at one of three fixed probe points.

    Raises
    ------
    DimensionMismatch
        On inconsistent matrix sizes.
    SingularPencil
        When it fails at all three; the message names the cut, ``||A||_1``
        and ``||E||_1``.
    """
    A = as_matrix(A, "A")
    E = np.eye(A.shape[0]) if E is None else as_matrix(E, "E")
    B, C, D = as_matrix(B, "B"), as_matrix(C, "C"), as_matrix(D, "D")
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if E.shape != (n, n):
        raise DimensionMismatch(f"E must be {n}x{n}, got {E.shape}")
    if B.shape[0] != n:
        raise DimensionMismatch(f"B must have {n} rows, got {B.shape}")
    if C.shape[1] != n:
        raise DimensionMismatch(f"C must have {n} columns, got {C.shape}")
    if D.shape != (p, m):
        raise DimensionMismatch(f"D must be {p}x{m}, got {D.shape}")
    _require_regular(A, E, SingularPencil)
    # the system freezes its own copies: the caller's arrays stay writable
    return _trusted_system(A.copy(), E.copy(), B.copy(), C.copy(), D.copy(), domain)


def eval_tfm(sys: DescriptorSystem, lam) -> np.ndarray:
    """Evaluate ``G(lam) = C (A - lam E)^{-1} B + D`` at a complex point.

    This is the oracle against which all realization formulas are verified.
    Raises :class:`EvalAtPole` when the LU of ``A - lam E`` that solves with
    ``B`` has reciprocal condition at most ``n * SINGULAR_RCOND``, and
    ``ValueError`` when ``lam`` is not finite.
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"evaluation point {lam} is not finite")
    X = _lu_solve(sys.A - lam * sys.E, sys.B)
    if X is None:
        raise EvalAtPole(f"A - lambda*E is numerically singular at lambda={lam}")
    return sys.C @ X + sys.D


def apply_similarity(sys: DescriptorSystem, U, V) -> DescriptorSystem:
    """Transform to ``(U(A - lambda E)V, UB, CV, D)``; the TFM is unchanged.
    ``U`` or ``V`` whose LU fails ``n * SINGULAR_RCOND`` is singular."""
    U, V, n = as_matrix(U, "U"), as_matrix(V, "V"), sys.n
    if U.shape != (n, n) or V.shape != (n, n):
        raise DimensionMismatch(f"U and V must be {n}x{n}")
    if any(_lu_solve(T, T[:, :0]) is None for T in (U, V)):
        raise SingularTransform("similarity transform is numerically singular")
    return _trusted_system(U @ sys.A @ V, U @ sys.E @ V, U @ sys.B, sys.C @ V, sys.D, sys.domain)


def probe_points(sys: DescriptorSystem, count=5):
    """The first ``count`` points of the fixed probe sequence of ``A -
    lambda*E`` at which :func:`eval_tfm` can evaluate it, off the real axis
    (fewer, possibly none, when the first 20 * ``count`` points do not yield
    them)."""
    return list(islice(_clear_points(sys.A, sys.E, 20 * count), count))


def _random_orthogonal(n, rng):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def _well_conditioned(n, rng):
    """Random invertible matrix with singular values in [1/2, 2]."""
    return _random_orthogonal(n, rng) @ np.diag(np.exp(rng.uniform(-0.6, 0.6, n))) @ _random_orthogonal(n, rng)


def random_system(n, m, p, domain, proper=True, stable=False, rng=None) -> DescriptorSystem:
    """Generate a random valid descriptor system with the requested traits.

    ``proper=False`` plants a nilpotent-E block carrying an infinite
    elementary divisor of degree >= 2, so the result has at least one
    infinite pole (and is therefore not stable as a whole system;
    ``stable=True`` then constrains the finite dynamics only).
    """
    domain = _as_domain(domain)
    rng = np.random.default_rng(rng)
    if min(n, m, p) < 0:
        raise ValueError("dimensions must be nonnegative")
    if not proper and n < 2:
        raise ValueError("an improper system needs n >= 2 for its nilpotent block")

    k = 0
    if not proper:
        k = 2 if n < 4 else int(rng.integers(2, 4))
    nf = n - k

    Af = rng.normal(size=(nf, nf))
    if nf:
        if domain is TimeDomain.CONTINUOUS:
            if stable:
                shift = max(np.real(np.linalg.eigvals(Af)).max(), 0.0) + rng.uniform(0.2, 1.0)
                Af = Af - shift * np.eye(nf)
        else:
            rho = max(np.abs(np.linalg.eigvals(Af)).max(), SPECTRAL_RADIUS_FLOOR)
            target = rng.uniform(0.2, 0.85) if stable else rng.uniform(0.5, 1.6)
            Af = Af * (target / rho)
    Ef = np.eye(nf)

    if k:
        # single nilpotent chain: pencil I - lambda*J carries one degree-k divisor
        J = np.zeros((k, k))
        for i in range(k - 1):
            J[i, i + 1] = 1.0
        A = np.block([[Af, np.zeros((nf, k))], [np.zeros((k, nf)), np.eye(k)]])
        E = np.block([[Ef, np.zeros((nf, k))], [np.zeros((k, nf)), J]])
    else:
        A, E = Af, Ef

    B = rng.normal(size=(n, m))
    C = rng.normal(size=(p, n))
    D = rng.normal(size=(p, m))
    sys = _trusted_system(A, E, B, C, D, domain)

    if n:
        if proper and rng.uniform() < 0.35:
            Q = _random_orthogonal(n, rng)
            sys = apply_similarity(sys, Q.T, Q)  # keeps E = I
        else:
            sys = apply_similarity(sys, _well_conditioned(n, rng), _well_conditioned(n, rng))
    return sys
