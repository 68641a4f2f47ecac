"""Hypergraph products, exact edge counts, isomorphism testing and law audits.

Each module declares the public names it defines in its own ``__all__``;
the package republishes them all.
"""

from . import checker, core, counting, hgio, iso, products
from .checker import *
from .core import *
from .counting import *
from .hgio import *
from .iso import *
from .products import *

__all__ = sorted(
    [*checker.__all__, *core.__all__, *counting.__all__, *hgio.__all__, *iso.__all__, *products.__all__]
)
