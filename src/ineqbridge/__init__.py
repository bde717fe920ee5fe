"""Inequality index family bridging the Hoover index and the Gini coefficient.

Public surface: special functions, deterministic quadrature, the gamma /
discrete / gamma-sum distribution layer, population index values, sample
estimators, analytic estimator bias under gamma populations, and a
reproducible Monte Carlo harness.  Each name is declared once, in its
submodule's `__all__`; the package re-exports the union.
"""

from . import bias_analysis, distributions, estimators, index_core, mc_harness, quadrature, specfun
from .bias_analysis import *
from .distributions import *
from .estimators import *
from .index_core import *
from .mc_harness import *
from .quadrature import *
from .specfun import *

__version__ = "0.1.0"

__all__ = (bias_analysis.__all__ + distributions.__all__ + estimators.__all__ + index_core.__all__
           + mc_harness.__all__ + quadrature.__all__ + specfun.__all__)
