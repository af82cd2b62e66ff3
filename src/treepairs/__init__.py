"""Difficult tree pairs: rotation distance machinery and a growth sampler.

Trees are pre-order 1/0 words (see ``treepairs.words``).  The package covers
the interval calculus on such words, rotations with an exact-distance
search, reduction rules for tree pairs, Remy-style growth, exhaustive
censuses at desk scale, a sampler that draws difficult pairs of any size
>= 4, and coverage statistics.  The ``treepairs`` command line exposes all
of it; every random routine takes an explicit ``random.Random`` so runs are
reproducible by seed.  Each public name is declared once, in the
``__all__`` of the module that defines it, and re-exported here.
"""

from . import census, errors, growth, rotations, sampling, stats, words
from .census import *
from .errors import *
from .growth import *
from .rotations import *
from .sampling import *
from .stats import *
from .words import *

__version__ = "0.1.0"

_MODULES = (census, errors, growth, rotations, sampling, stats, words)
__all__ = [name for module in _MODULES for name in module.__all__]
