"""Plane conics on the sextic surface and exact intersection numbers.

Every degree-2 curve on the surface is a smooth conic spanning a plane
inside the hyperplane x+y+z = 0, and is cut out on that plane by the
quadric q2 = xy+yz+zx+a^2+b^2+c^2 (the restriction of q2 to the plane of
any of the conics handled here is nonzero, so it is the conic's own
equation).  Each conic keeps a basis of its plane and the double points
of the surface it passes through (its nodes), and every query runs in
those three plane coordinates.  Intersection numbers of strict
transforms on the resolved surface reduce to linear algebra:

  * two distinct conics meet X along the intersection of their planes,
    a line or a point, where the scheme is cut out by q2.  The other
    conic's equations, restricted to one conic's plane basis, form a 3x3
    matrix R of rank at most 2 (x+y+z is among them and vanishes on the
    plane).  A nonzero cross product of two rows of R is the meet point;
    if every one is zero but R is not, R has rank 1 and the planes share
    a line, on which the smooth conic q2 cuts a scheme of length 2;
  * blowing up an ordinary double point lowers a local intersection by
    one, so the corrected number is (total length) - (number of shared
    double points).  A double point lies on both conics exactly when it
    is a node of both, so the shared ones are the common nodes;
  * a conic meets the exceptional curve over a double point once iff it
    passes through the point;
  * the fiber class F satisfies F = H - [C0] for the fixed conic C0 cut
    out by x = a = 0, so F.C = 2 - C.C0 for any conic, C0 itself
    included.

All of this runs on integers.  A plane is given over Q(sqrt 3), and each
conic takes the integer form of its plane once: its three equations and
its three basis vectors, each a pair of integer lists (x, y) with entries
x + y*sqrt3 (exactnum._integer_parts), every vector scaled by its own
integer d > 0.  An element of Z[sqrt 3] is a pair (re, im), with
(a, b)(c, d) = (ac + 3bd, ad + bc), and is zero iff both parts are.  No
test here sees the scales: a form vanishing, a cross product or the
polar determinant being zero and q2 vanishing at a point are unchanged
by positive factors, and the divisibility of restricted forms by a
change of plane coordinates.  Points and forms with coefficients in Q or
Q(sqrt 3) are taken to their integer form first.  The reduced equations
over Q(sqrt 3), the conic's rows, are kept only as the plane's identity:
equality, hashing and the order of an orbit.

The orbit of a conic under the 144 symmetries is read off the stabilizer
of its plane, the g whose moved equations vanish on its basis: g and g*h
move the plane alike for h in it, so one conic is built per coset g*Stab.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .exactnum import SQRT3, _integer_parts, reduced_nullspace, rref
from .surface import (
    g_apply,
    g_compose,
    group_elements,
    normalize_projective,
    singular_points,
)

_NVARS = 6  # coordinates (x, y, z, a, b, c)


_SUM_XYZ = (1, 1, 1, 0, 0, 0)


@lru_cache(maxsize=1)
def double_points():
    """The twelve ordinary double points, projectively normalized."""
    return tuple(normalize_projective(p) for p in singular_points())


class Conic:
    """A plane conic on the surface, identified by its canonical plane.

    rows are the reduced equations of the plane over Q(sqrt 3) (x+y+z = 0
    among them), its identity; equations are the same three forms and
    basis a basis of the plane itself, both in integer form; nodes are
    the double points of the surface that lie on the conic.
    """

    __slots__ = ("rows", "equations", "basis", "nodes")

    def __init__(self, forms):
        rows, pivots = rref(list(forms) + [_SUM_XYZ])
        if len(rows) != 3:
            raise ValueError("plane of a conic must have codimension 3")
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "equations",
                           tuple(_integer_form(row) for row in rows))
        object.__setattr__(self, "basis", tuple(
            _integer_form(w) for w in reduced_nullspace(rows, pivots, _NVARS)))
        if not any(_polar_det(self.basis)):
            raise ValueError("quadric is degenerate on the plane; not a "
                             "smooth conic")
        if not _cubic_divisible(self.basis):
            raise ValueError("conic does not lie on the surface")
        object.__setattr__(self, "nodes", tuple(
            p for p in double_points() if _on_conic(self, (p, _ZEROS))))

    def __setattr__(self, *a):
        raise AttributeError("Conic is immutable")

    def contains_form(self, form) -> bool:
        """Whether a linear form vanishes on the whole conic, i.e. on the
        three basis vectors of its plane."""
        return _vanishes(_integer_form(form), self.basis)

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Conic(%s)" % (self.rows,)


# -- Z[sqrt 3] in integer form ----------------------------------------------------


def _integer_form(vector):
    """A vector over Q(sqrt 3) as integer tuples (x, y), entries
    x + y*sqrt3, scaled by a positive integer."""
    x, y, _ = _integer_parts(vector)
    return tuple(x), tuple(y)


_ZEROS = (0,) * _NVARS  # the sqrt 3 part of an integer point


def _on_conic(conic, p):
    """Whether a point in integer form lies on the conic."""
    return _vanishes(p, conic.equations) and not any(_q2(p))


def _mul(u, v):
    return u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _minor(u, v, w, z):
    """The determinant uz - vw of [[u, v], [w, z]] over Z[sqrt 3]."""
    (a, A), (b, B), (c, C), (d, D) = u, v, w, z
    return a * d + 3 * A * D - b * c - 3 * B * C, a * D + A * d - b * C - B * c


def _dot(form, p):
    """A linear form at a point, both in integer form."""
    (fx, fy), (px, py) = form, p
    return (sum(map(mul, fx, px)) + 3 * sum(map(mul, fy, py)),
            sum(map(mul, fx, py)) + sum(map(mul, fy, px)))


def _vanishes(u, vs):
    """Whether the dot product of u with each of vs is zero: a point on
    forms, or a form on points, all in integer form."""
    return all(not any(_dot(v, u)) for v in vs)


def _combine(coeffs, vectors):
    """The vector sum of coeffs[k] * vectors[k], all in integer form."""
    x, y = [0] * _NVARS, [0] * _NVARS
    for (s, t), (wx, wy) in zip(coeffs, vectors):
        x = [a + s * u + 3 * t * v for a, u, v in zip(x, wx, wy)]
        y = [b + s * v + t * u for b, u, v in zip(y, wx, wy)]
    return x, y


def _cross(u, v):
    """Cross product of two 3-vectors over Z[sqrt 3]."""
    return (_minor(u[1], u[2], v[1], v[2]), _minor(u[2], u[0], v[2], v[0]),
            _minor(u[0], u[1], v[0], v[1]))


def _q2(p):
    """q2 at a point in integer form."""
    (x, y, z, a, b, c), (X, Y, Z, A, B, C) = p
    return (x * y + y * z + z * x + a * a + b * b + c * c
            + 3 * (X * Y + Y * Z + Z * X + A * A + B * B + C * C),
            x * Y + X * y + y * Z + Y * z + z * X + Z * x
            + 2 * (a * A + b * B + c * C))


def _q3(p):
    """q3 at a point in integer form."""
    (x, y, z, a, b, c), (X, Y, Z, A, B, C) = p
    xyz = _mul(_mul((x, X), (y, Y)), (z, Z))
    abc = _mul(_mul((a, A), (b, B)), (c, C))
    return xyz[0] - 2 * abc[0], xyz[1] - 2 * abc[1]


def _polar_form(p):
    """The linear form v -> q2(p + v) - q2(p) - q2(v), in integer form."""
    return tuple((y + z, x + z, x + y, 2 * a, 2 * b, 2 * c)
                 for x, y, z, a, b, c in p)


def _polar_det(basis):
    """Determinant of the polar form of q2 on a plane basis in integer
    form; q2 cuts a smooth conic iff it is nonzero."""
    gram = [[_dot(_polar_form(u), v) for v in basis] for u in basis]
    (a, A), (b, B), (c, C) = gram[0]
    (d, D), (e, E), (f, F) = _cross(gram[1], gram[2])
    return (a * d + 3 * A * D + b * e + 3 * B * E + c * f + 3 * C * F,
            a * D + A * d + b * E + B * e + c * F + C * f)


# the principal lattice of degree three: s0 + s1 + s2 = 3, s >= 0
_CUBIC_NODES = tuple((s0, s1, 3 - s0 - s1)
                     for s0 in range(4) for s1 in range(4 - s0))


def _cubic_divisible(basis):
    """Whether the cubic q3 restricted to the plane is a multiple of the
    restricted quadric, i.e. whether the conic lies on the surface; basis
    is in integer form.

    Both restrictions are forms in the three plane coordinates.  The
    multiplier, if any, is a linear form; solving for it on the ten
    _CUBIC_NODES is conclusive because they are unisolvent for ternary
    cubic forms: the four of them on the line s0 = 0 force a vanishing
    cubic to be divisible by s0, the quotient vanishes on the three with
    s0 = 1, and so on down.  It exists iff the column of q3 values is
    not a pivot column of the 10x4 system, which a division-free
    elimination over Z[sqrt 3] decides: each step replaces every other
    row r by lead*r - r0*top, with top the first row whose leading entry
    lead is nonzero and r0 the leading entry of r, and drops top and the
    leading column.
    """
    rows = []
    for s in _CUBIC_NODES:
        p = _combine([(k, 0) for k in s], basis)
        q = _q2(p)
        rows.append([(q[0] * k, q[1] * k) for k in s] + [_q3(p)])
    for _ in range(3):  # the columns of the multiplier
        k = next((i for i, row in enumerate(rows) if any(row[0])), None)
        if k is not None:
            top = rows.pop(k)
            rows = [[_minor(top[0], t, row[0], r)
                     for t, r in zip(top, row)] for row in rows]
        rows = [row[1:] for row in rows]
    return not any(any(row[0]) for row in rows)


def conic_orbit(conic: Conic):
    """Orbit of a conic under the order-144 symmetry group.

    The stabilizer of the plane is the set of g whose moved equations
    vanish on the conic's basis; g and g*h, h in the stabilizer, move
    the plane alike, so one conic is built, and verified, per coset.
    """
    # form' = form o g^{-1}; a signed permutation is orthogonal, so
    # g^{-1} moves a form as g moves a point
    group = group_elements()
    stabilizer = [g for g in group if all(
        _vanishes((g_apply(g, x), g_apply(g, y)), conic.basis)
        for x, y in conic.equations)]
    covered, orbit = set(), []
    for g in group:
        if g not in covered:
            covered.update(g_compose(g, h) for h in stabilizer)
            orbit.append(Conic([g_apply(g, row) for row in conic.rows]))
    if len(orbit) * len(stabilizer) != len(group):
        raise ArithmeticError("the stabilizer of %r is not a subgroup"
                              % (conic,))
    return sorted(orbit, key=_sort_key)


def _sort_key(conic):
    return tuple(tuple(str(x) for x in row) for row in conic.rows)


def conic_intersection(c1: Conic, c2: Conic) -> int:
    """Intersection number of strict transforms on the resolved surface.

    The planes meet where c2's equations vanish on c1's plane, the kernel
    of their 3x3 restriction R to c1's basis.  R has rank at most 2, so a
    nonzero cross product of two of its rows spans that kernel, and the
    meet is the point it gives through the basis; otherwise the meet is
    a line.  The shared double points are the common nodes.
    """
    if c1 == c2:
        return -2  # smooth rational curve on a K3 surface
    restricted = [[_dot(row, w) for w in c1.basis] for row in c2.equations]
    shared = len(set(c1.nodes) & set(c2.nodes))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        s = _cross(restricted[i], restricted[j])
        if any(map(any, s)):
            if shared:
                return 0  # the common node is the meet point
            return 0 if any(_q2(_combine(s, c1.basis))) else 1
    if not any(any(map(any, row)) for row in restricted):
        raise ArithmeticError("distinct conics cannot share a plane here")
    return 2 - shared


def conic_point_intersection(conic: Conic, point) -> int:
    """Intersection of a conic with the exceptional curve over a double
    point, given normalized: 1 iff the point is one of the conic's nodes."""
    return 1 if point in conic.nodes else 0


# -- the named basis --------------------------------------------------------------

# linear forms as coefficient rows on (x, y, z, a, b, c)
_BASIS_CONIC_FORMS = {
    1: [(1, 0, 0, 2, 0, 0), (0, -SQRT3, SQRT3, 0, 2, 2)],
    3: [(0, 0, 0, 1, 1, 0), (0, -1, 0, 0, 0, 1)],
    5: [(1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, -1)],
    7: [(0, 0, 0, 1, 0, 1), (0, 0, -1, 0, 1, 0)],
    10: [(1, 0, 0, -1, 0, 0), (0, 0, 0, 0, 1, 1)],
    12: [(0, 0, 0, 1, -1, 0), (0, 1, 0, 0, 0, 1)],
    14: [(1, 0, 0, -2, 0, 0), (0, -SQRT3, SQRT3, 0, 2, -2)],
    15: [(0, 0, 1, 0, -2, 0), (SQRT3, -SQRT3, 0, -2, 0, 2)],
    16: [(1, 0, 0, -2, 0, 0), (0, SQRT3, -SQRT3, 0, 2, -2)],
    17: [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)],
    18: [(0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0)],
    19: [(0, 0, 0, 1, 0, -1), (0, 1, 0, 0, 1, 0)],
}

_BASIS_POINTS_RAW = {
    2: (2, -1, -1, -1, 1, -1),
    4: (-1, -1, 2, 1, -1, -1),
    6: (-1, 2, -1, 1, -1, -1),
    8: (-1, 2, -1, 1, 1, 1),
    9: (-1, 2, -1, -1, 1, -1),
    11: (-1, -1, 2, -1, -1, 1),
    13: (2, -1, -1, 1, 1, 1),
}


@lru_cache(maxsize=1)
def basis_conics():
    return {i: Conic(forms) for i, forms in _BASIS_CONIC_FORMS.items()}


@lru_cache(maxsize=1)
def basis_points():
    pts = {i: normalize_projective(p) for i, p in _BASIS_POINTS_RAW.items()}
    for p in pts.values():
        if p not in double_points():
            raise AssertionError("basis point is not a double point: %r" % (p,))
    return pts


@lru_cache(maxsize=1)
def base_conic():
    """The fixed conic x = a = 0 split off from the hyperplane class by
    the fibration; F = H - [this]."""
    return Conic([(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])


def _fiber_intersection_with_conic(conic: Conic) -> int:
    return 2 - conic_intersection(conic, base_conic())


def intersection_vector(obj):
    """Pairings of a curve with the twenty basis classes.

    obj is ('conic', Conic) or ('point', normalized double point tuple).
    """
    kind, val = obj
    cs = basis_conics()
    pts = basis_points()
    vec = []
    for i in range(1, 21):
        if i in cs:
            if kind == "conic":
                vec.append(conic_intersection(val, cs[i]))
            else:
                vec.append(conic_point_intersection(cs[i], val))
        elif i in pts:
            if kind == "conic":
                vec.append(conic_point_intersection(val, pts[i]))
            else:
                vec.append(-2 if val == pts[i] else 0)
        else:  # the fiber class
            if kind == "conic":
                vec.append(_fiber_intersection_with_conic(val))
            else:
                vec.append(0)
    return vec
