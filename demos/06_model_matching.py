"""Nullspace bases, linear rational equations, and L2 model matching.

solve_right finds a particular rational solution of G X = F (the nullspace
basis parameterizes the rest); l2_model_match minimizes ||F - G X|| over
stable X by compressing with an inner-outer factorization and keeping the
stable projection of the transformed target.
"""

import numpy as np

from dstk import (
    RationalMatrixData,
    eval_tfm,
    l2_model_match,
    left_nullspace,
    make_system,
    realize_rational,
    series,
    solve_right,
)


def lag(a):
    return make_system([[-a]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")


# --- a left nullspace basis of [1; s]
G = realize_rational(RationalMatrixData(2, 1, [[([1.0], [1.0])], [([0.0, 1.0], [1.0])]]), "continuous")
nl = left_nullspace(G)
print("left nullspace of [1; s] is", nl.p, "x", nl.m, "of order", nl.n)
v = eval_tfm(nl, 1.0).ravel()
print("basis row at s=1 (proportional to [-s, 1]):", np.round(v.real, 6))
print("annihilation check:", abs(eval_tfm(nl, 0.7 + 1.2j) @ eval_tfm(G, 0.7 + 1.2j)).max())

# --- solve G X = F exactly: G = 1/(s+1), F = 1/((s+1)(s+2)) gives X = 1/(s+2)
g = lag(1.0)
F = series(lag(1.0), lag(2.0))
res = solve_right(g, F)
print("\nsolve_right particular solution at s=0:", eval_tfm(res.particular, 0.0)[0, 0].real, "(expect 0.5)")
print("nullspace basis columns:", res.null_basis.m, "(G has full column rank)")

# --- L2 model matching: with an inner plant nothing stable can help, and
# the optimum is X = 0 with error ||1/(s-1)||_2 = 1/sqrt(2)
g_inner = make_system([[-1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], "continuous")  # (s-1)/(s+1)
X, parts = l2_model_match(g_inner, lag(1.0))
print("\ninner plant: ||X|| =", abs(eval_tfm(X, 1j)).max(), " error norm =", parts.error_norm,
      " (1/sqrt(2) =", 1 / np.sqrt(2), ")")

# --- and when an exact stable match exists the error is zero:
X, parts = l2_model_match(lag(1.0), lag(1.0))
print("exact match: X =", eval_tfm(X, 2j)[0, 0].real, " error norm =", parts.error_norm)

# --- a genuinely two-sided case
gp = make_system([[-2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]], "continuous")  # (s-1)/(s+2)
f = series(lag(1.0), lag(3.0))
X, parts = l2_model_match(gp, f)
print("\nplant (s-1)/(s+2), target 1/((s+1)(s+3)):")
print("  solution order:", X.n, " achieved error:", parts.error_norm)
w = np.logspace(-4, 4, 2001)
err = [np.linalg.norm(eval_tfm(f, 1j * wi) - eval_tfm(gp, 1j * wi) @ eval_tfm(X, 1j * wi)) ** 2 for wi in w]
print("  frequency-grid cross-check:", np.sqrt(2 * np.trapezoid(err, w) / (2 * np.pi)))
