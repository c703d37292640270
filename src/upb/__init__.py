"""Upper bounds on the diversity of unitary constellations.

Numerically evaluates the Haar fraction of metric balls in U(n), solves the
packing equality for the critical radius, and turns it into upper bounds on
the diversity sum and product, alongside random-search baselines.
"""

from . import bounds, constellation, errors, matrices, weyl
from .bounds import *
from .constellation import *
from .errors import *
from .matrices import *
from .weyl import *

__version__ = "0.1.0"

# the submodules' __all__ lists are disjoint (tests/test_readme.py checks)
__all__ = [*bounds.__all__, *constellation.__all__, *errors.__all__, *matrices.__all__,
           *weyl.__all__, "__version__"]
