"""dstk: a descriptor-system toolkit.

Rational transfer-function matrices are represented by generalized
state-space (descriptor) realizations ``(A - lambda*E, B, C, D)`` and
manipulated exclusively through dense numerical linear algebra: realization
arithmetic, orthogonal staircase (Kronecker-like) pencil reductions,
structural analysis, coprime and inner-outer factorizations, rational
nullspace bases, linear rational equations, and L2 model matching.  Every
construction is verifiable against the frequency-response oracle
``G(lambda) = C (A - lambda E)^{-1} B + D``.
"""

from .exceptions import *  # noqa: F401,F403
from . import analysis, exceptions, factor, kernels, ops, pencil, solve, system
from .kernels import *  # noqa: F401,F403
from .system import *  # noqa: F401,F403
from .ops import *  # noqa: F401,F403
from .pencil import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .factor import *  # noqa: F401,F403
from .solve import *  # noqa: F401,F403

__version__ = "0.1.0"

_modules = (kernels, system, ops, pencil, analysis, factor, solve)
__all__ = [name for mod in _modules for name in mod.__all__] + ["exceptions"]
