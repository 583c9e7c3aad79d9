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
    conic's second and third equations, restricted to one conic's plane
    basis, form a 2x3 matrix R: with x+y+z, which vanishes on the plane,
    they span the first equation too.  A nonzero cross product of the
    rows of R is the meet point; if it is zero but R is not, R has rank
    1 and the planes share a line, on which the smooth conic q2 cuts a
    scheme of length 2;
  * blowing up an ordinary double point lowers a local intersection by
    one, so the corrected number is (total length) - (number of shared
    double points).  A double point lies on both conics exactly when it
    is a node of both, so the shared ones are the common nodes;
  * a conic meets the exceptional curve over a double point once iff it
    passes through the point, i.e. iff the point is one of its nodes.

All of this runs on integers.  A vector over Q(sqrt 3) is kept in
integer form: a pair of integer tuples (x, y) with entries x + y*sqrt3
(exactnum._integer_parts), scaled by an integer d > 0.  An element of
Z[sqrt 3] is a pair (re, im), with (a, b)(c, d) = (ac + 3bd, ad + bc),
and is zero iff both parts are.  Points and forms with coefficients in
Q or Q(sqrt 3) are taken to their integer form first.  A plane's
defining forms are row reduced once, over Z[sqrt 3] by rref, to three
equations in canonical form, the plane's identity (equality, hashing
and, through the field rows they stand for, the order of an orbit); its
three basis vectors are read off them.  No test here sees the scales: a
form vanishing, a cross product or the polar determinant being zero and
q2 vanishing at a point are unchanged by positive factors, and the
divisibility of restricted forms by a change of plane coordinates.

The orbit of a conic under the 144 symmetries is read off the stabilizer
of its plane, the g whose moved equations vanish on its basis: g and g*h
move the plane alike for h in it, so one image is made per coset g*Stab.
Only the seed conic is verified.  Each symmetry permutes (x, y, z),
permutes (a, b, c) and changes the sign of an even number of a, b, c, so
it fixes x+y+z, q2 = xy+yz+zx+a^2+b^2+c^2 and q3 = xyz-2abc, and it
permutes the double points, the singular points of the surface they cut
out.  As a linear automorphism it therefore takes the seed's plane to a
plane in x+y+z = 0 on which q2 again cuts a smooth conic (the polar
determinant changes by a nonzero square), the restricted q3 stays a
multiple of the restricted q2, and the double points on the image are
the images of the seed's nodes.  conic_orbit checks that shape of every
group element before it relies on it.

The numbered basis of the Neron-Severi lattice, conics and double points
among it, belongs to nscat; this module knows no basis.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .exactnum import _integer_parts, _scalar
from .surface import (
    g_apply,
    g_compose,
    group_elements,
    normalize_projective,
    singular_points,
)

_NVARS = 6  # coordinates (x, y, z, a, b, c)
_ZEROS = (0,) * _NVARS  # the sqrt 3 part of an integer point
_SUM_XYZ = ((1, 1, 1, 0, 0, 0), _ZEROS)


@lru_cache(maxsize=1)
def double_points():
    """The twelve ordinary double points, projectively normalized."""
    return tuple(normalize_projective(p) for p in singular_points())


class Conic:
    """A plane conic on the surface, identified by its canonical plane.

    equations are the reduced equations of the plane (x+y+z = 0 among
    them) in canonical integer form, its identity; basis is a basis of
    the plane itself in integer form; nodes are the double points of the
    surface that lie on the conic.  Conic(forms) takes the forms that cut
    out the plane over Q or Q(sqrt 3) and verifies the conic;
    Conic._of(seed, g) is the image of a verified conic under a symmetry.
    """

    __slots__ = ("equations", "basis", "nodes")

    def __init__(self, forms):
        self._plane([_integer_form(form) for form in forms])
        if not any(_polar_det(self.basis)):
            raise ValueError("quadric is degenerate on the plane; not a "
                             "smooth conic")
        if not _cubic_divisible(self.basis):
            raise ValueError("conic does not lie on the surface")
        object.__setattr__(self, "nodes", tuple(
            p for p in double_points() if _on_conic(self, (p, _ZEROS))))

    @classmethod
    def _of(cls, seed, g):
        """The image of a verified conic under a symmetry g of the shape
        conic_orbit checks: only its plane is reduced again, and the
        nodes are the images of the seed's (see the module docstring)."""
        out = object.__new__(cls)
        # form' = form o g^{-1}; a signed permutation is orthogonal, so
        # g^{-1} moves a form as g moves a point
        out._plane([(g_apply(g, x), g_apply(g, y)) for x, y in seed.equations])
        moved = {_projective(g_apply(g, p)) for p in seed.nodes}
        object.__setattr__(out, "nodes", tuple(
            p for p in double_points() if p in moved))
        return out

    def _plane(self, equations):
        """Set the canonical equations, and the basis, of the plane that
        forms in integer form cut out inside x+y+z = 0."""
        rows, pivots = _canonical_plane(equations)
        object.__setattr__(self, "equations", rows)
        object.__setattr__(self, "basis", _nullspace(rows, pivots))

    def __setattr__(self, *a):
        raise AttributeError("Conic is immutable")

    def contains_form(self, form) -> bool:
        """Whether a linear form vanishes on the whole conic, i.e. on the
        three basis vectors of its plane."""
        return _vanishes(_integer_form(form), self.basis)

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return self.equations == other.equations

    def __hash__(self):
        return hash(self.equations)

    def __repr__(self):
        return "Conic(%s)" % (self.equations,)


def plane_equations(forms):
    """The canonical equations of the plane that forms over Q or Q(sqrt 3)
    cut out inside x+y+z = 0: the Conic.equations, and so the identity,
    of the conic in that plane, found without verifying a conic."""
    return _canonical_plane([_integer_form(form) for form in forms])[0]


def _canonical_plane(equations):
    """(rows, pivots) of the plane that equations in integer form cut out
    inside x+y+z = 0, its canonical rows as a tuple."""
    rows, pivots = rref(list(equations) + [_SUM_XYZ])
    if len(rows) != 3:
        raise ValueError("plane of a conic must have codimension 3")
    return tuple(rows), pivots


# -- Z[sqrt 3] in integer form ----------------------------------------------------


def _integer_form(vector):
    """A vector over Q(sqrt 3) as integer tuples (x, y), entries
    x + y*sqrt3, scaled by a positive integer."""
    x, y, _ = _integer_parts(vector)
    return tuple(x), tuple(y)


def rref(rows):
    """Reduced row echelon form over Z[sqrt 3]; returns (rows, pivot
    columns).  Rows are in integer form, and so are the reduced rows.

    A division-free Gauss-Jordan elimination (Bareiss 1968, without the
    exact division): the row of a pivot column is first taken through
    _canonical, so its entry there is an integer n, and every other row r
    with entry e in that column becomes n*r - e*(pivot row).  Each pivot
    entry stays an integer, and the last pass of _canonical over the
    reduced rows squares it: a reduced row comes out with content 1 and
    a positive pivot entry, so it is the field row of the reduced echelon
    form over Q(sqrt 3) times the least integer that clears its
    denominators.
    """
    m = [list(zip(x, y)) for x, y in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if any(m[i][col])), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        top = m[r] = _canonical(m[r], col)
        n = top[col][0]
        for i, row in enumerate(m):
            s, t = row[col]
            if i != r and (s or t):
                m[i] = [(n * a - s * u - 3 * t * v, n * b - s * v - t * u)
                        for (a, b), (u, v) in zip(row, top)]
        pivots.append(col)
    return ([tuple(zip(*_canonical(m[r], col)))
             for r, col in enumerate(pivots)], pivots)


def _canonical(row, col):
    """A row of Z[sqrt 3] pairs times the conjugate of its nonzero entry at
    col, which makes that entry the integer norm, then divided by the
    integer content."""
    s, t = row[col]
    row = [(s * a - 3 * t * b, s * b - t * a) for a, b in row]
    g = gcd(*(v for z in row for v in z))
    return [(a // g, b // g) for a, b in row]


def _nullspace(rows, pivots):
    """The basis of the plane that canonical rows cut out, in integer form:
    for each free column f, the solution with 1 at f, times the least
    integer that makes it integral."""
    basis = []
    for f in range(_NVARS):
        if f in pivots:
            continue
        # at pivot p, -(x[f] + y[f]*sqrt3) / x[p]
        d = lcm(*(x[p] // gcd(x[p], x[f], y[f])
                  for (x, y), p in zip(rows, pivots)))
        w = [[0] * _NVARS, [0] * _NVARS]
        w[0][f] = d
        for (x, y), p in zip(rows, pivots):
            w[0][p], w[1][p] = -x[f] * d // x[p], -y[f] * d // x[p]
        basis.append((tuple(w[0]), tuple(w[1])))
    return tuple(basis)


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
    not a pivot column of the 10x4 system.
    """
    rows = []
    for s in _CUBIC_NODES:
        p = _combine([(k, 0) for k in s], basis)
        q = _q2(p)
        entries = [(q[0] * k, q[1] * k) for k in s] + [_q3(p)]
        rows.append(tuple(zip(*entries)))
    return 3 not in rref(rows)[1]


def _is_symmetry(g):
    """Whether g = (pe, pm, sg) permutes (x, y, z) by pe and (a, b, c) by
    pm, and changes the signs of a, b, c by an even pattern sg."""
    pe, pm, sg = g
    return (sorted(pe) == sorted(pm) == [0, 1, 2] and len(sg) == 3
            and all(s in (1, -1) for s in sg) and prod(sg) == 1)


def _projective(p):
    """An integer point of content one as normalize_projective has it:
    its last nonzero entry positive."""
    return p if next(v for v in reversed(p) if v) > 0 else tuple(
        -v for v in p)


def conic_orbit(conic: Conic):
    """Orbit of a conic under the order-144 symmetry group.

    Every group element is first checked to have the shape that carries
    a verified conic to one (see the module docstring), so each image
    is made by Conic._of without a check of its own.  The stabilizer of
    the plane is the set of g whose moved equations vanish on the
    conic's basis; g and g*h, h in the stabilizer, move the plane alike,
    so one image is made per coset.  The second and third equations
    suffice: with x+y+z, which every g fixes, they span the first.
    """
    group = group_elements()
    for g in group:
        if not _is_symmetry(g):
            raise ValueError("%r is not a symmetry of the surface" % (g,))
    stabilizer = [g for g in group if all(
        _vanishes((g_apply(g, x), g_apply(g, y)), conic.basis)
        for x, y in conic.equations[1:])]
    covered, orbit = set(), []
    for g in group:
        if g not in covered:
            covered.update(g_compose(g, h) for h in stabilizer)
            orbit.append(Conic._of(conic, g))
    if len(orbit) * len(stabilizer) != len(group):
        raise ArithmeticError("the stabilizer of %r is not a subgroup"
                              % (conic,))
    return sorted(orbit, key=_sort_key)


def _sort_key(conic):
    """The entries of the reduced rows over Q(sqrt 3) as strings; a
    canonical row divided by its pivot entry, its first nonzero x."""
    return tuple(tuple(str(_scalar(u, v, next(filter(None, x))))
                       for u, v in zip(x, y)) for x, y in conic.equations)


def conic_intersection(c1: Conic, c2: Conic) -> int:
    """Intersection number of strict transforms on the resolved surface.

    The planes meet where c2's equations vanish on c1's plane, the kernel
    of their 2x3 restriction R to c1's basis.  c2's first equation is
    left out: its pivot is at x, so it lies in the span of the other two
    and of x+y+z, which vanishes on c1's plane.  A nonzero cross product
    of the rows of R spans that kernel, and the meet is the point it
    gives through the basis; otherwise the meet is a line.  The shared
    double points are the common nodes.
    """
    if c1 == c2:
        return -2  # smooth rational curve on a K3 surface
    u, v = [[_dot(row, w) for w in c1.basis] for row in c2.equations[1:]]
    shared = len(set(c1.nodes) & set(c2.nodes))
    s = _cross(u, v)
    if any(map(any, s)):
        if shared:
            return 0  # the common node is the meet point
        return 0 if any(_q2(_combine(s, c1.basis))) else 1
    if not any(map(any, u + v)):
        raise ArithmeticError("distinct conics cannot share a plane here")
    return 2 - shared
