"""Plane conics on the sextic surface and exact intersection numbers.

Every degree-2 curve on the surface is a smooth conic spanning a plane
inside the hyperplane x+y+z = 0, and is cut out on that plane by the
quadric q2 = xy+yz+zx+a^2+b^2+c^2 (the restriction of q2 to the plane of
any of the conics handled here is nonzero, so it is the conic's own
equation).  Each conic keeps a basis of its plane, and every query runs
in those three plane coordinates.  Intersection numbers of strict
transforms on the resolved surface reduce to linear algebra:

  * two distinct conics meet X along the intersection of their planes,
    a line or a point, where the scheme is cut out by q2; the other
    conic's equations, restricted to one conic's plane basis, are a 3x3
    system whose solutions are that intersection;
  * blowing up an ordinary double point lowers a local intersection by
    one, so the corrected number is (total length) - (number of shared
    double points);
  * a conic meets the exceptional curve over a double point once iff it
    passes through the point;
  * the fiber class F satisfies F = H - [C0] for the fixed conic C0 cut
    out by x = a = 0, so F.C = 2 - C.C0 for any other conic.

All coefficients live in Q or Q(sqrt 3).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactnum import QuadElem, _entry, field_sqrt, nullspace, rref
from .surface import g_apply, group_elements, normalize_projective, singular_points

_NVARS = 6  # coordinates (x, y, z, a, b, c)


def q2(p):
    x, y, z, a, b, c = p
    return x * y + y * z + z * x + a * a + b * b + c * c


def q3(p):
    x, y, z, a, b, c = p
    return x * y * z - 2 * a * b * c


_SUM_XYZ = (1, 1, 1, 0, 0, 0)


@lru_cache(maxsize=1)
def double_points():
    """The twelve ordinary double points, projectively normalized."""
    return tuple(normalize_projective(p) for p in singular_points())


def _is_double_point(p):
    if any(isinstance(x, QuadElem) and not x.is_rational for x in p):
        return False
    pt = tuple(_entry(x) for x in p)
    return normalize_projective(pt) in double_points()


class Conic:
    """A plane conic on the surface, identified by its canonical plane.

    rows are the reduced equations of the plane (x+y+z = 0 among them)
    and basis is a basis of the plane itself.
    """

    __slots__ = ("rows", "basis")

    def __init__(self, forms):
        rows, pivots = rref(list(forms) + [_SUM_XYZ])
        if len(rows) != 3:
            raise ValueError("plane of a conic must have codimension 3")
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "basis", tuple(nullspace(self.rows)))
        # q2 cuts a smooth conic iff its polar form is nondegenerate here
        (a, b, c), (d, e, f), (g, h, k) = (
            [_polar(u, v) for v in self.basis] for u in self.basis)
        det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        if det == 0:
            raise ValueError("quadric is degenerate on the plane; not a "
                             "smooth conic")
        if not _cubic_divisible(self.basis):
            raise ValueError("conic does not lie on the surface")

    def __setattr__(self, *a):
        raise AttributeError("Conic is immutable")

    def contains(self, p) -> bool:
        return (all(_dot(row, p) == 0 for row in self.rows)
                and q2(p) == 0)

    def double_points_on(self):
        return tuple(p for p in double_points() if self.contains(p))

    def contains_form(self, form) -> bool:
        """Whether a linear form vanishes on the whole conic, i.e. on the
        three basis vectors of its plane."""
        return all(_dot(form, w) == 0 for w in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Conic(%s)" % (self.rows,)


def _dot(row, p):
    return sum(r * x for r, x in zip(row, p) if r and x)


def _polar(u, v):
    """The polar form q2(u + v) - q2(u) - q2(v) of the quadric."""
    x, y, z, a, b, c = u
    X, Y, Z, A, B, C = v
    return (x * (Y + Z) + y * (X + Z) + z * (X + Y)
            + 2 * (a * A + b * B + c * C))


# the principal lattice of degree three: s0 + s1 + s2 = 3, s >= 0
_CUBIC_NODES = tuple((s0, s1, 3 - s0 - s1)
                     for s0 in range(4) for s1 in range(4 - s0))


def _cubic_divisible(basis):
    """Whether the cubic q3 restricted to the plane is a multiple of the
    restricted quadric, i.e. whether the conic lies on the surface.

    Both restrictions are forms in the three plane coordinates.  The
    multiplier, if any, is a linear form; solving for it on the ten
    _CUBIC_NODES is conclusive because they are unisolvent for ternary
    cubic forms: the four of them on the line s0 = 0 force a vanishing
    cubic to be divisible by s0, the quotient vanishes on the three with
    s0 = 1, and so on down.
    """
    rows = []
    for s0, s1, s2 in _CUBIC_NODES:
        p = tuple(s0 * u + s1 * v + s2 * w for u, v, w in zip(*basis))
        q = q2(p)
        rows.append((q * s0, q * s1, q * s2, q3(p)))
    reduced, pivots = rref(rows)
    return 3 not in pivots


@lru_cache(maxsize=None)
def _group_matrix(g):
    cols = []
    for j in range(_NVARS):
        e = [0] * _NVARS
        e[j] = 1
        cols.append(g_apply(g, tuple(e)))
    return tuple(tuple(Fraction(cols[j][i]) for j in range(_NVARS))
                 for i in range(_NVARS))


def conic_orbit(conic: Conic):
    """Orbit of a conic under the order-144 symmetry group.

    Image planes are canonicalised by rref and deduplicated first, so
    each distinct conic is built, and verified, once.
    """
    planes = set()
    for g in group_elements():
        mat = _group_matrix(g)
        # form' = form o g^{-1}; the inverse of a signed permutation is
        # its transpose
        rows = [tuple(sum(row[i] * mat[j][i] for i in range(_NVARS))
                      for j in range(_NVARS)) for row in conic.rows]
        planes.add(tuple(rref(rows)[0]))
    return sorted((Conic(p) for p in planes), key=_sort_key)


def _sort_key(conic):
    return tuple(tuple(str(x) for x in row) for row in conic.rows)


def _combine(coeffs, vectors):
    return tuple(sum(s * w[k] for s, w in zip(coeffs, vectors) if s and w[k])
                 for k in range(_NVARS))


def _line_zero_points(w0, w1):
    """Points of the line span(w0, w1) where q2 vanishes, each listed
    once, provided they are rational over Q(sqrt 3); an empty list means
    a conjugate pair in a larger field (never a double point)."""
    # 2 q2(s w0 + u w1) = a s^2 + b s u + c u^2
    a, b, c = _polar(w0, w0), 2 * _polar(w0, w1), _polar(w1, w1)
    if not a and not b and not c:
        raise ArithmeticError("quadric vanishes on a line of the plane")
    if not a:
        if not b:
            return [w0]  # c u^2
        return [w0, _combine((-c, b), (w0, w1))]  # u (b s + c u)
    disc = b * b - 4 * a * c
    if not disc:
        return [_combine((-b, 2 * a), (w0, w1))]
    root = field_sqrt(disc)
    if root is None:
        return []
    return [_combine((-b + root, 2 * a), (w0, w1)),
            _combine((-b - root, 2 * a), (w0, w1))]


def conic_intersection(c1: Conic, c2: Conic) -> int:
    """Intersection number of strict transforms on the resolved surface.

    The planes meet where c2's equations vanish on c1's plane: the
    nullspace of their 3x3 restriction to c1's basis, mapped back
    through that basis, is empty, a point or a line.
    """
    if c1 == c2:
        return -2  # smooth rational curve on a K3 surface
    restricted = [[_dot(row, w) for w in c1.basis] for row in c2.rows]
    meet = [_combine(s, c1.basis) for s in nullspace(restricted)]
    if len(meet) == 3:
        raise ArithmeticError("distinct conics cannot share a plane here")
    if not meet:
        return 0
    if len(meet) == 1:
        q = meet[0]
        if q2(q) != 0:
            return 0
        return 1 - (1 if _is_double_point(q) else 0)
    shared = sum(1 for p in _line_zero_points(*meet) if _is_double_point(p))
    return 2 - shared


def conic_point_intersection(conic: Conic, point) -> int:
    """Intersection of a conic with the exceptional curve over a double
    point: 1 iff the conic passes through the point."""
    return 1 if conic.contains(point) else 0


# -- the named basis --------------------------------------------------------------

SQ3 = QuadElem(0, 1)

# linear forms as coefficient rows on (x, y, z, a, b, c)
_BASIS_CONIC_FORMS = {
    1: [(1, 0, 0, 2, 0, 0), (0, -SQ3, SQ3, 0, 2, 2)],
    3: [(0, 0, 0, 1, 1, 0), (0, -1, 0, 0, 0, 1)],
    5: [(1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, -1)],
    7: [(0, 0, 0, 1, 0, 1), (0, 0, -1, 0, 1, 0)],
    10: [(1, 0, 0, -1, 0, 0), (0, 0, 0, 0, 1, 1)],
    12: [(0, 0, 0, 1, -1, 0), (0, 1, 0, 0, 0, 1)],
    14: [(1, 0, 0, -2, 0, 0), (0, -SQ3, SQ3, 0, 2, -2)],
    15: [(0, 0, 1, 0, -2, 0), (SQ3, -SQ3, 0, -2, 0, 2)],
    16: [(1, 0, 0, -2, 0, 0), (0, SQ3, -SQ3, 0, 2, -2)],
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
    c0 = base_conic()
    if conic == c0:
        return 4  # F.C0 = H.C0 - C0^2 = 2 + 2
    return 2 - conic_intersection(conic, c0)


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
