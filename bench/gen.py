"""Input generation for the benchmark, written with numpy alone.

Nothing here calls dstk, so a change to the library cannot change the
inputs it is timed on.  Every generator takes a ``numpy.random.Generator``
and returns plain arrays together with the structure it planted, which is
what the checks compare the library's answers against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Planted:
    """A descriptor realization ``(A - lam E, B, C, D)`` in the library's
    convention ``G(lam) = C (A - lam E)^-1 B + D`` with known structure."""

    A: np.ndarray
    E: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    domain: str
    finite_poles: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))
    chains: tuple = ()

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def degree(self) -> int:
        """McMillan degree of a minimal planting: ``n_f + sum(k - 1)``."""
        return len(self.finite_poles) + sum(k - 1 for k in self.chains)


def orthogonal(n, rng):
    if n == 0:
        return np.eye(0)
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def well_conditioned(n, rng, spread=0.6):
    """Random invertible matrix with singular values in ``[e^-spread, e^spread]``."""
    if n == 0:
        return np.eye(0)
    return orthogonal(n, rng) @ np.diag(np.exp(rng.uniform(-spread, spread, n))) @ orthogonal(n, rng)


def draw_spectrum(nf, domain, rng, unstable=0):
    """``nf`` eigenvalues closed under conjugation, about half of them in
    complex pairs; the last ``unstable`` lie outside the stability region."""

    def fill(count, bad):
        vals = []
        while len(vals) < count:
            pair = count - len(vals) >= 2 and rng.uniform() < 0.5
            if domain == "continuous":
                re = rng.uniform(0.3, 3.0) * (1.0 if bad else -1.0)
                z = complex(re, rng.uniform(0.4, 3.0)) if pair else complex(re)
            else:
                r = rng.uniform(1.2, 2.2) if bad else rng.uniform(0.15, 0.85)
                z = r * np.exp(1j * rng.uniform(0.3, 2.8)) if pair else complex(r * rng.choice([-1.0, 1.0]))
            vals.extend([z, z.conjugate()] if pair else [z])
        return vals

    return np.array(fill(nf - unstable, False) + fill(unstable, True), dtype=complex)


def real_block_diag(vals):
    """Real block-diagonal matrix with the given conjugation-closed spectrum."""
    n = len(vals)
    out = np.zeros((n, n))
    i = 0
    while i < n:
        z = vals[i]
        if abs(z.imag) > 0.0 and i + 1 < n:
            out[i : i + 2, i : i + 2] = [[z.real, z.imag], [-z.imag, z.real]]
            i += 2
        else:
            out[i, i] = z.real
            i += 1
    return out


def shift_chain(k):
    J = np.zeros((k, k))
    J[np.arange(k - 1), np.arange(1, k)] = 1.0
    return J


def block_diag(*blocks):
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def planted_system(n, m, p, domain, rng, chains=(), unstable=0, standard=False, strictly_proper=False):
    """Minimal realization with a planted spectrum and nilpotent chains.

    The finite part carries ``n - sum(chains)`` distinct planted poles, each
    chain of length ``k >= 2`` one infinite elementary divisor of degree
    ``k``.  Generic ``B, C`` make the planting minimal as long as there are
    no more chains than ``min(m, p)``.  A well-conditioned similarity hides
    the block structure; ``standard=True`` keeps ``E = I``.
    """
    nk = int(sum(chains))
    nf = n - nk
    vals = draw_spectrum(nf, domain, rng, unstable=unstable)
    A0 = block_diag(real_block_diag(vals), np.eye(nk))
    E0 = block_diag(np.eye(nf), *[shift_chain(k) for k in chains]) if chains else np.eye(n)
    B0 = rng.normal(size=(n, m))
    C0 = rng.normal(size=(p, n))
    D = np.zeros((p, m)) if strictly_proper else well_conditioned(max(p, m), rng)[:p, :m]
    if standard and not chains:
        S = well_conditioned(n, rng)
        Si = np.linalg.inv(S)
        A, E, B, C = S @ A0 @ Si, np.eye(n), S @ B0, C0 @ Si
    else:
        U, V = well_conditioned(n, rng), well_conditioned(n, rng)
        A, E, B, C = U @ A0 @ V, U @ E0 @ V, U @ B0, C0 @ V
    return Planted(A, E, B, C, D, domain, vals, tuple(chains))


@dataclass
class PlantedPencil:
    """A pencil ``M - lam N`` with planted Kronecker structure."""

    M: np.ndarray
    N: np.ndarray
    right: list
    left: list
    finite: np.ndarray
    infinite: list


def planted_pencil(right, left, nf, infinite, rng):
    """Pencil with right indices ``right``, left indices ``left``, ``nf``
    finite eigenvalues and infinite divisors of degrees ``infinite``, under a
    well-conditioned two-sided transformation."""
    Ms, Ns = [], []
    for e in right:  # L_e: e x (e + 1)
        Ms.append(np.hstack([np.zeros((e, 1)), np.eye(e)]))
        Ns.append(np.hstack([np.eye(e), np.zeros((e, 1))]))
    for e in left:  # L_e^T: (e + 1) x e
        Ms.append(np.vstack([np.zeros((1, e)), np.eye(e)]))
        Ns.append(np.vstack([np.eye(e), np.zeros((1, e))]))
    vals = draw_spectrum(nf, "continuous", rng, unstable=nf // 2)
    Ms.append(real_block_diag(vals))
    Ns.append(np.eye(nf))
    for k in infinite:
        Ms.append(np.eye(k))
        Ns.append(shift_chain(k))
    M0, N0 = block_diag(*Ms), block_diag(*Ns)
    U, V = well_conditioned(M0.shape[0], rng), well_conditioned(M0.shape[1], rng)
    return PlantedPencil(U @ M0 @ V, U @ N0 @ V, sorted(right), sorted(left), vals, sorted(infinite))


def rational_entries(p, m, degrees, domain, rng):
    """Entry-wise ``(num, den)`` data, ascending coefficients, every entry
    with its own real poles drawn from well-separated slots; the McMillan
    degree is therefore ``sum(degrees)``."""
    total = int(sum(sum(row) for row in degrees))
    lo, hi = (-4.0, -0.2) if domain == "continuous" else (-0.9, 0.9)
    slots = np.linspace(lo, hi, total)
    slots = rng.permutation(slots + rng.uniform(-0.2, 0.2, total) * (hi - lo) / max(total, 1))
    entries = []
    pos = 0
    for i in range(p):
        row = []
        for j in range(m):
            d = degrees[i][j]
            roots = slots[pos : pos + d]
            pos += d
            den = np.polynomial.polynomial.polyfromroots(roots)
            row.append((list(rng.normal(size=d + 1)), list(den)))
        entries.append(row)
    return entries
