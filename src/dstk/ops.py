"""Realization arithmetic on descriptor systems.

Single-system operations (dual, inverse, conjugate), two-system couplings
(series, parallel, concatenations, diagonal stacking), and construction of
a realization from raw rational-matrix data, entry by entry and without
polynomial division (improper entries get a shift pencil with singular
``E``).  Every formula here is written for the evaluation convention
``G = C (A - lambda E)^{-1} B + D`` and is checked against the
frequency-response oracle in the test suite.  The general inverse is the
system pencil of :func:`~dstk.analysis._system_pencil`, bordered by the
identity; parallel coupling, both concatenations and diagonal stacking share
one block-diagonal assembler, and series adds its off-diagonal block.  The
discrete conjugate of a system with invertible ``A`` is standard at the
original order, whatever its ``E``.

None of the constructors reduce their results; callers run ``minreal`` when
a minimal realization is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _system_pencil
from .exceptions import (
    DimensionMismatch,
    DomainMismatch,
    NotInvertibleTFM,
    NotSquare,
    SingularD,
    ZeroDenominator,
)
from .kernels import COEFF_TRIM_TOL, _diag2, _lu_solve, _require_regular
from .system import DescriptorSystem, TimeDomain, _trusted_system

__all__ = [
    "RationalMatrixData",
    "transpose_dual",
    "inverse",
    "conjugate",
    "series",
    "parallel",
    "concat_col",
    "concat_row",
    "diag_stack",
    "realize_rational",
]


def _same_domain(s1, s2):
    if s1.domain is not s2.domain:
        raise DomainMismatch(f"cannot couple {s1.domain.value} with {s2.domain.value}")
    return s1.domain


def transpose_dual(sys: DescriptorSystem) -> DescriptorSystem:
    """Dual realization of the transposed TFM: ``G^T = (A^T - lam E^T, C^T, B^T, D^T)``."""
    return _trusted_system(sys.A.T, sys.E.T, sys.C.T, sys.B.T, sys.D.T, sys.domain)


def series(sys1: DescriptorSystem, sys2: DescriptorSystem) -> DescriptorSystem:
    """Series coupling: the product ``G1(lam) G2(lam)``; order is n1 + n2."""
    domain = _same_domain(sys1, sys2)
    if sys1.m != sys2.p:
        raise DimensionMismatch(f"series needs sys1.m == sys2.p, got {sys1.m} and {sys2.p}")
    n1, n2 = sys1.n, sys2.n
    A = _diag2(sys1.A, sys2.A)
    A[:n1, n1:] = -sys1.B @ sys2.C
    E = _diag2(sys1.E, sys2.E)
    B = np.vstack([sys1.B @ sys2.D, sys2.B])
    C = np.hstack([sys1.C, sys1.D @ sys2.C])
    D = sys1.D @ sys2.D
    return _trusted_system(A, E, B, C, D, domain)


def _side_by_side(sys1, sys2, border, mismatch=False, what=None):
    """Two same-domain systems coupled through the pencil ``diag(A1, A2) - lam
    diag(E1, E2)``; a ``mismatch`` of the coupling's dimensions raises ``what``
    after the domain check, and ``border()`` builds its ``B``, ``C``, ``D``."""
    domain = _same_domain(sys1, sys2)
    if mismatch:
        raise DimensionMismatch(what)
    return _trusted_system(_diag2(sys1.A, sys2.A), _diag2(sys1.E, sys2.E), *border(), domain)


def parallel(sys1: DescriptorSystem, sys2: DescriptorSystem) -> DescriptorSystem:
    """Parallel coupling: the sum ``G1(lam) + G2(lam)``."""
    return _side_by_side(
        sys1, sys2, lambda: (np.vstack([sys1.B, sys2.B]), np.hstack([sys1.C, sys2.C]), sys1.D + sys2.D),
        (sys1.p, sys1.m) != (sys2.p, sys2.m), "parallel coupling needs matching input/output dimensions",
    )


def concat_col(sys1: DescriptorSystem, sys2: DescriptorSystem) -> DescriptorSystem:
    """Column concatenation: stack ``[G1; G2]`` (shared inputs)."""
    return _side_by_side(
        sys1, sys2, lambda: (np.vstack([sys1.B, sys2.B]), _diag2(sys1.C, sys2.C), np.vstack([sys1.D, sys2.D])),
        sys1.m != sys2.m, "column concatenation needs equal input counts",
    )


def concat_row(sys1: DescriptorSystem, sys2: DescriptorSystem) -> DescriptorSystem:
    """Row concatenation: ``[G1  G2]`` (shared outputs)."""
    return _side_by_side(
        sys1, sys2, lambda: (_diag2(sys1.B, sys2.B), np.hstack([sys1.C, sys2.C]), np.hstack([sys1.D, sys2.D])),
        sys1.p != sys2.p, "row concatenation needs equal output counts",
    )


def diag_stack(sys1: DescriptorSystem, sys2: DescriptorSystem) -> DescriptorSystem:
    """Diagonal stacking: ``diag(G1, G2)``."""
    return _side_by_side(sys1, sys2, lambda: (_diag2(sys1.B, sys2.B), _diag2(sys1.C, sys2.C), _diag2(sys1.D, sys2.D)))


def inverse(sys: DescriptorSystem, mode: str = "general") -> DescriptorSystem:
    """Realization of the inverse TFM.

    ``mode="general"`` needs no matrix inversion: the inverse is the system
    pencil ``[[A, -B], [C, D]] - lam diag(E, 0)`` itself, its input entering
    the output rows and its output read from the input columns.  The result
    has order ``n + m`` and is not minimal even when the input is.
    ``mode="d-inverse"`` requires an invertible feedthrough ``D`` and keeps
    the order at ``n``.  Either mode raises :class:`NotInvertibleTFM` unless
    the square system pencil is regular by the rule of ``make_system``.
    """
    if sys.p != sys.m:
        raise NotSquare(f"inverse needs a square TFM, got {sys.p}x{sys.m}")
    m = sys.m
    M, N = _system_pencil(sys)
    _require_regular(M, N, NotInvertibleTFM, ("[[A, -B], [C, D]]", "diag(E, 0)"), "TFM not invertible: system pencil")
    if mode == "d-inverse":
        Dinv = _lu_solve(sys.D, np.eye(m))
        if Dinv is None:
            raise SingularD("d-inverse mode requires invertible D")
        A = sys.A + sys.B @ Dinv @ sys.C
        B = -sys.B @ Dinv
        C = Dinv @ sys.C
        return _trusted_system(A, sys.E, B, C, Dinv, sys.domain)
    if mode != "general":
        raise ValueError(f"unknown inverse mode {mode!r}")
    return _pencil_inverse(sys)


def _pencil_inverse(sys):
    """``inverse(sys)`` of a square ``sys`` already known to be invertible:
    the system pencil ``[[A, -B], [C, D]] - lam diag(E, 0)`` of
    :func:`~dstk.analysis._system_pencil`, read from the input border to the
    output border (Verghese, Van Dooren & Kailath, 1979), at order ``n + m``."""
    n, m = sys.n, sys.m
    M, N = _system_pencil(sys)
    return _trusted_system(M, N, np.eye(n + m, m, -n), np.eye(m, n + m, n), np.zeros((m, m)), sys.domain)


def conjugate(sys: DescriptorSystem) -> DescriptorSystem:
    """Conjugate (adjoint) system.

    Continuous time realizes ``G~(s) = G(-s)^T`` at the original order.  In
    discrete time ``G~(z) = G(1/z)^T``: with invertible ``A`` (one LU of
    ``A^T``, whose reciprocal condition exceeds ``n * SINGULAR_RCOND``, gives
    ``Ait = A^-T``) and ``K = Ait E^T`` (``Ait`` itself when ``E = I``), it is
    ``D^T + B^T Ait C^T - B^T K (K - z I)^-1 Ait C^T``, the standard order-``n``
    realization ``(K, I, -Ait C^T, B^T K, D^T + B^T Ait C^T)``, proper even
    when ``G`` is not (its infinite poles move to ``z = 0``); a singular ``A``
    takes a pencil of order ``n + m``.
    """
    n, m, p = sys.n, sys.m, sys.p
    if sys.domain is TimeDomain.CONTINUOUS:
        return _trusted_system(-sys.A.T, sys.E.T, -sys.C.T, sys.B.T, sys.D.T, sys.domain)
    Ait = _lu_solve(sys.A.T, np.eye(n))
    if Ait is not None:
        K = Ait if sys.is_standard else Ait @ sys.E.T
        return _trusted_system(K, np.eye(n), -Ait @ sys.C.T, sys.B.T @ K, sys.D.T + sys.B.T @ Ait @ sys.C.T, sys.domain)
    A = _diag2(sys.E.T, np.eye(m))
    E = np.zeros((n + m, n + m))
    E[:n, :n] = sys.A.T
    E[n:, :n] = sys.B.T
    B = np.vstack([-sys.C.T, sys.D.T])
    C = np.hstack([np.zeros((m, n)), np.eye(m)])
    return _trusted_system(A, E, B, C, np.zeros((m, p)), sys.domain)


# ---------------------------------------------------------------------------
# realization from rational data


@dataclass
class RationalMatrixData:
    """Entry-wise rational matrix: ``entries[i][j] = (num, den)`` coefficient
    lists in ascending degree."""

    p: int
    m: int
    entries: list


def _companion_realization(num, den):
    """Strictly proper scalar num/den as (A, b, c) with c (A - lam I)^{-1} b."""
    den = np.asarray(den, dtype=float)
    d = len(den) - 1
    monic = den / den[-1]
    c = np.zeros(d)
    c[: len(num)] = np.asarray(num, dtype=float) / den[-1]
    A = np.zeros((d, d))
    A[:-1, 1:] = np.eye(d - 1)
    A[-1, :] = -monic[:-1]
    b = np.zeros((d, 1))
    b[-1, 0] = 1.0
    # output sign adjusted for the (A - lam E)^{-1} evaluation convention
    return A, b, -c.reshape(1, d)


def _static(D, domain):
    D = np.asarray(D, dtype=float)
    p, m = D.shape
    return _trusted_system(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), D, domain)


def _entry_realization(num, den, domain):
    """Realization of the scalar ``num/den`` (ascending coefficients, ``den``
    free of trailing zeros), built without polynomial division."""
    num = np.asarray(num, dtype=float)
    tol = COEFF_TRIM_TOL * max(np.abs(num).max(initial=1.0), np.abs(den).max())

    def trimmed(c):
        big = np.flatnonzero(np.abs(c) > tol)
        return c[: big[-1] + 1] if big.size else c[:0]

    num = trimmed(num)
    k, d = len(num) - 1, len(den) - 1
    if k > d:
        # shift pencil: rows x_{i+1} - lam x_i = 0 and den . x = u give
        # x = (1, lam, ..., lam^k) u / den(lam), read out through C = num
        A = np.eye(k + 1, k=1)
        A[k, : d + 1] = den
        E = np.diag(np.r_[np.ones(k), 0.0])
        B = np.zeros((k + 1, 1))
        B[k, 0] = 1.0
        return _trusted_system(A, E, B, num.reshape(1, k + 1), np.zeros((1, 1)), domain)
    D = 0.0
    if k == d:
        # the top coefficient of num - D den cancels up to rounding: drop it
        D = (1.0 / den[-1]) * num[-1]
        num = trimmed(num[:-1] - D * den[:-1])
    if not num.size:
        return _static(np.array([[D]]), domain)
    A, b, c = _companion_realization(num, den)
    return _trusted_system(A, np.eye(d), b, c, np.array([[D]]), domain)


def realize_rational(data: RationalMatrixData, domain) -> DescriptorSystem:
    """Build a descriptor realization of an entry-wise rational matrix.

    Each entry ``n/d`` is realized on its own and the blocks are assembled
    with :func:`concat_row` / :func:`concat_col`; no polynomial arithmetic is
    done.  A proper entry becomes a companion block of ``d`` with ``E = I``
    and feedthrough ``n_k / d_k`` (0 when ``deg n < deg d``).  An improper
    entry of numerator degree ``k`` becomes the shift pencil of order
    ``k + 1`` whose state is ``(1, lam, ..., lam^k) u / d(lam)``, with a
    singular ``E`` (Verghese, Van Dooren & Kailath, 1979).  No minimality is
    claimed; run ``minreal`` on the result when needed.
    """
    p, m = data.p, data.m
    if len(data.entries) != p or any(len(row) != m for row in data.entries):
        raise DimensionMismatch("entries grid does not match declared p x m shape")
    if p == 0 or m == 0:
        return _static(np.zeros((p, m)), domain)

    rows = []
    for i in range(p):
        cells = []
        for j in range(m):
            num, den = data.entries[i][j]
            den = np.trim_zeros(np.asarray(den, dtype=float), "b")
            if not den.size:
                raise ZeroDenominator(f"entry ({i}, {j}) has an identically zero denominator")
            cells.append(_entry_realization(num, den, domain))
        row = cells[0]
        for cell in cells[1:]:
            row = concat_row(row, cell)
        rows.append(row)
    out = rows[0]
    for row in rows[1:]:
        out = concat_col(out, row)
    return out
