"""Nabla fractional calculus and delayed fractional difference solvers.

The package has three layers:

- :mod:`nabladelay.grid_calculus`: fractional Taylor monomials and the
  nabla sum / Riemann-Liouville difference operators on integer grids.
- :mod:`nabladelay.dpml`: word sums over a matrix pair and the delayed
  perturbation Mittag-Leffler matrix function, including its classical
  closed-form reductions.
- :mod:`nabladelay.solver`: stepping and closed-form solution routes for
  linear fractional difference systems with one constant delay, plus a
  cross-checking verifier.

The package namespace re-exports the public names of all three layers,
each layer's ``__all__``.

A command-line interface (``nabladelay``) exposes solving, verification,
word-sum tables and diagnostic figures; see :mod:`nabladelay.cli`.
"""

from . import dpml, grid_calculus, solver
from .dpml import *
from .grid_calculus import *
from .solver import *

__version__ = "0.1.0"

__all__ = list(dpml.__all__)
__all__ += grid_calculus.__all__
__all__ += solver.__all__
