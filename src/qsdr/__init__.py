"""Binary quantum-state discrimination receivers.

Closed-form bounds (Helstrom, single and multiple copies), the locally
adaptive multi-copy measurement that attains them, and the photon-counting
receiver family for binary coherent signals: Kennedy, optimized-displacement
Kennedy, the continuously controlled Dolinar receiver (ODE and Monte Carlo),
and its constant-envelope simplification.

The package re-exports the public names (``__all__``) of its four modules,
and from ``qsdr._streams``: ``McEstimate``, the answer of both seeded
samplers; ``binomial``, which forms it from a hit count; and ``null_z``,
which scores it against an analytic value.
"""

from . import dolinar, multicopy, rootfind, statemath
from ._streams import McEstimate, binomial, null_z
from .dolinar import *  # noqa: F401,F403
from .multicopy import *  # noqa: F401,F403
from .rootfind import *  # noqa: F401,F403
from .statemath import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "McEstimate", "binomial", "null_z",
    *statemath.__all__,
    *multicopy.__all__,
    *rootfind.__all__,
    *dolinar.__all__,
]
