"""Matrix-free convex optimization with polynomial preconditioning.

The package exports exactly the names in each library module's ``__all__``.
"""

from .operators import *
from .preconditioners import *
from .problems import *
from .solvers import *
from .krylov import *
from .diagnostics import *
from .datasets import *
from .experiments import *

__version__ = "0.1.0"
