"""Well-quasi orders on trees over fixed-arity signatures.

Eight base orders on trees (size, homeomorphic embedding, constructor
set, repeated-constructor set, constructor bag, set-refined size,
preorder-string and Euler-string subsequence), their intersections, an
incremental "whistle" sequence checker pruned by the implication
lattice, a seeded random-tree generator and a discriminative-power
census.
"""

# each module's __all__ is its public API; the star import binds
# `treewqo.census` to the function after the submodule is loaded
from .bench import *
from .census import *
from .generate import *
from .orders import *
from .signature import *
from .whistle import *

__version__ = "0.1.0"
