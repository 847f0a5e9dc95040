"""Locating and identifying codes in circulant graphs.

The package builds circulant graphs C(n; d1,...,dk), verifies dominating,
locating, and identifying codes with concrete witnesses, evaluates exact
rational shares, constructs tight periodic code families for C(n;1,3),
and runs exhaustive symmetry-reduced searches for exact optima.  Locating
and identifying optima of C(n;1,3), n >= 13, are read from stored
transfer-matrix proofs (``circodes.proofs``); the solver that computes
them, ``circodes.transfer``, is not imported here.

Each module's ``__all__`` is the one list of its public names: the package
re-exports ``circulant``, ``codes``, ``constructions``, ``errors`` and
``search`` whole, and its ``__all__`` is the union of theirs.
"""

from .circulant import *
from .codes import *
from .constructions import *
from .errors import *
from .search import *

__version__ = "0.1.0"

__all__ = (circulant.__all__ + codes.__all__ + constructions.__all__ + errors.__all__
           + search.__all__)
