"""zerodiag: exact arithmetic for a family of integral symmetric matrices
with zero diagonal and all eigenvalues integral, and for the elliptic K3
surface that organizes their parametrizations.

The package is pure Python and everything it computes is exact: rationals,
elements of Q(sqrt 3), polynomials, curve points, lattice data.  See the
README for the layout and the `zerodiag` command line tool.
"""

from .exactnum import (
    Fraction,
    Polynomial,
    QuadElem,
    RationalFunction,
    SQRT3,
    field_sqrt,
    poly_gcd,
    poly_sqrt,
    rat_sqrt,
    rational_roots,
)

__all__ = [
    "Fraction",
    "Polynomial",
    "QuadElem",
    "RationalFunction",
    "SQRT3",
    "field_sqrt",
    "poly_gcd",
    "poly_sqrt",
    "rat_sqrt",
    "rational_roots",
]

__version__ = "0.1.0"
