"""Exact decision procedures for F-splitness and 2-quasi-F-splitness of
positive-characteristic hypersurface singularities.

The kernel is exact sparse polynomial arithmetic over F_p and over Z,
length-n Witt vector arithmetic with its carry polynomial, the Cartier
operator tower on differential forms, Fedder-type power criteria, and a
graded local-cohomology engine for double covers z^2 + g(x, y).
"""

__version__ = "0.1.0"

from .ring import PolyRing, Poly, PolyParseError, RingMismatchError
from .witt import WittVector, delta_carry
from .criteria import Verdict, fedder_test, quasi2_test, supersingular_oracle
from .localcoh import DoubleCover, H2Class, quasi2_doublecover

__all__ = [
    "PolyRing",
    "Poly",
    "PolyParseError",
    "RingMismatchError",
    "WittVector",
    "delta_carry",
    "Verdict",
    "fedder_test",
    "quasi2_test",
    "supersingular_oracle",
    "DoubleCover",
    "H2Class",
    "quasi2_doublecover",
    "__version__",
]
