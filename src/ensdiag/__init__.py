"""Diagnostics for weighted model averages measured against the best member.

Given observations on a fixed interval and several model output series,
this package computes mean-squared skill scores, the correspondence and
cosine geometry of the residual vectors, verdicts on when the average
beats the best individual member, score-minimizing simplex weights, and
model-selection screens, with a CSV-in / JSON-out command line on top.

The public API is ``__version__`` and the union of the modules'
``__all__`` lists, each name listed once, in the module that defines it.
"""

from . import core, diagnostics, errors, evaluation, report, selection, weights
from .core import *
from .diagnostics import *
from .errors import *
from .evaluation import *
from .report import *
from .selection import *
from .weights import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += diagnostics.__all__
__all__ += errors.__all__
__all__ += evaluation.__all__
__all__ += report.__all__
__all__ += selection.__all__
__all__ += weights.__all__
