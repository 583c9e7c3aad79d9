"""Field operations over Q(sqrt 3) that the library no longer has, kept
as oracles for its integer code: the row reduction that once gave each
conic plane its canonical rows and the Jacobian ranks, with its
nullspace and rank, and Galois conjugation through the number tower.
The library row reduces conic planes over Z[sqrt 3] (conics.rref) and
takes ranks of integer matrices from their Smith form."""

from fractions import Fraction

from zerodiag.exactnum import (
    Polynomial,
    QuadElem,
    RationalFunction,
    _inv,
    rat,
)


def rref(rows):
    """Reduced row echelon form over Q(sqrt 3); returns (rows, pivot cols)."""
    m = [[x if isinstance(x, QuadElem) else rat(x) for x in row]
         for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = _inv(m[r][col])
        m[r] = [v * inv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nr:
            break
    return [tuple(row) for row in m[:r]], pivots


def reduced_nullspace(reduced, pivots, nc):
    """Basis of the solution space of forms in nc variables that rref has
    already reduced to (reduced, pivots)."""
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def matrix_rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows):
    """Basis of the solution space of the linear forms."""
    reduced, pivots = rref(rows)
    return reduced_nullspace(reduced, pivots, len(rows[0]))


def field_rows(conic):
    """The reduced equations of a conic's plane over Q(sqrt 3), read from
    its equations in integer form."""
    return tuple(rref([[QuadElem(u, v) for u, v in zip(x, y)]
                       for x, y in conic.equations])[0])


def conj(x):
    """Galois conjugation sqrt 3 -> -sqrt 3 of a scalar, a Polynomial or a
    RationalFunction."""
    if isinstance(x, QuadElem):
        return QuadElem(x.r, -x.s)
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, Polynomial):
        return Polynomial._of(x.x, [-v for v in x.y], x.d)
    if isinstance(x, RationalFunction):
        return RationalFunction(conj(x.num), conj(x.den))
    raise TypeError("cannot conjugate %r" % type(x))
