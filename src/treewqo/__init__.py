"""Well-quasi orders on trees over fixed-arity signatures: eight base
orders and their intersections (`orders`), an incremental "whistle"
sequence checker (`whistle`), a seeded random-tree generator
(`generate`) and a discriminative-power census (`census`).  numpy serves
the census alone and loads on its first call, so the generator,
`compare`, `whistle`, `bench` and every checker never import it.
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
