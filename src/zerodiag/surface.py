"""The family of symmetric integer matrices

        [0 c b]
    M = [c 0 a]
        [b a 0]

and the projective surface that parametrizes members with all eigenvalues
integral.  Eigenvalue triples (x, y, z) of M satisfy

    x + y + z = 0
    xy + yz + zx = -(a^2 + b^2 + c^2)
    xyz = 2abc

and these three equations cut out a surface X in P^5 with coordinates
(x : y : z : a : b : c).  This module owns the matrix side: searching for
all-integral-eigenvalue triples, the symmetry group of X, its twelve
singular points, and polynomial parametrizations of curves on X.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .exactnum import (
    Polynomial,
    QuadElem,
    conj,
    matrix_rank,
    poly_gcd,
    rat,
    rational_roots,
)


def char_poly_coeffs(a: int, b: int, c: int):
    """(p, q) with det(lambda I - M) = lambda^3 - p lambda - q."""
    return a * a + b * b + c * c, 2 * a * b * c


def char_poly(a: int, b: int, c: int) -> Polynomial:
    p, q = char_poly_coeffs(a, b, c)
    return Polynomial([-q, -p, 0, 1])


def matrix_of_triple(a, b, c):
    return [[0, c, b], [c, 0, a], [b, a, 0]]


def is_trivial(a, b, c) -> bool:
    """Triviality of the triple: some entry zero or two entries equal up
    to sign.  For such triples integrality of the spectrum reduces to a
    one-variable condition."""
    return a * b * c * (a * a - b * b) * (b * b - c * c) * (c * c - a * a) == 0


def integral_eigenvalues(a: int, b: int, c: int):
    """Eigenvalues of M as a decreasing integer triple, or None if they
    are not all integral.

    Integer-only fast path: the largest eigenvalue x satisfies
    2p/3 <= x^2 <= 2p (p = a^2+b^2+c^2, trace of M^2 is 2p and x is the
    largest in absolute value when 2abc > 0), and the characteristic
    polynomial is increasing there, so x comes from a binary search; the
    remaining quadratic is tested on its discriminant.  If the largest
    root is not integral no root is, because a monic integer cubic whose
    roots sum to zero has either zero or three rational roots... unless a
    single rational root pairs with an irrational conjugate pair, which
    still forces that rational root to be located by the search.
    """
    p, q = char_poly_coeffs(a, b, c)

    def f(v):
        return v * v * v - p * v - q

    if q < 0:
        # mirror: eigenvalues of (-a, b, c) are the negatives
        neg = integral_eigenvalues(-a, b, c)
        if neg is None:
            return None
        return tuple(sorted((-v for v in neg), reverse=True))
    if q == 0:
        # spectrum {0, +s, -s} with s^2 = p
        s = isqrt(p)
        return (s, 0, -s) if s * s == p else None

    lo, hi = isqrt(2 * p // 3), isqrt(2 * p) + 1
    if p < 20:
        r = next((v for v in range(hi + 1) if f(v) == 0), None)
    else:
        while lo < hi:
            mid = (lo + hi) // 2
            if f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        r = lo if f(lo) == 0 else None
    if r is None:
        return None
    # remaining factor lambda^2 + r lambda + (r^2 - p)
    disc = 4 * p - 3 * r * r
    if disc < 0:
        return None
    s = isqrt(disc)
    if s * s != disc or (s - r) % 2:
        return None
    lam2, lam3 = (-r + s) // 2, (-r - s) // 2
    return (r, lam2, lam3)


def _search_range(a_values, limit):
    found = []
    for a in a_values:
        for b in range(a + 1, limit + 1):
            for c in range(b + 1, limit + 1):
                ev = integral_eigenvalues(a, b, c)
                if ev is not None:
                    found.append(((a, b, c), ev))
    return found


def search(limit: int, workers: int = 1):
    """All nontrivial triples 0 < a < b < c <= limit whose matrix has an
    all-integral spectrum, with the spectra.  Sorted by (c, a, b).

    Triples with a repeated or zero entry are trivial and excluded; up to
    the symmetry group every remaining triple is of this strict form.
    """
    if limit < 3:
        return []
    a_values = list(range(1, limit - 1))
    if workers and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [a_values[i::workers] for i in range(workers)]
        found = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_search_chunk, [(ch, limit) for ch in chunks]):
                found.extend(part)
    else:
        found = _search_range(a_values, limit)
    return sorted(found, key=lambda item: (item[0][2], item[0][0], item[0][1]))


def _search_chunk(args):
    a_values, limit = args
    return _search_range(a_values, limit)


# -- the surface ------------------------------------------------------------


def equation_values(pt):
    """Values of the three defining forms at a 6-tuple (x, y, z, a, b, c)."""
    x, y, z, a, b, c = pt
    f1 = x + y + z
    f2 = x * y + y * z + z * x + a * a + b * b + c * c
    f3 = x * y * z - 2 * a * b * c
    return f1, f2, f3


def on_surface(pt) -> bool:
    return all(not v for v in equation_values(pt))


def jacobian(pt):
    x, y, z, a, b, c = pt
    return [
        [1, 1, 1, 0, 0, 0],
        [y + z, x + z, x + y, 2 * a, 2 * b, 2 * c],
        [y * z, x * z, x * y, -2 * b * c, -2 * a * c, -2 * a * b],
    ]


def is_singular_point(pt) -> bool:
    if not on_surface(pt):
        raise ValueError("point is not on the surface")
    return matrix_rank(jacobian(pt)) <= 2


def singular_points():
    """The twelve ordinary double points of the surface.

    Each has eigenvalue coordinates a permutation of (2, -1, -1) and
    (a, b, c) a sign pattern with abc = 1.
    """
    pts = []
    for pos in range(3):
        xyz = [-1, -1, -1]
        xyz[pos] = 2
        for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            pts.append(tuple(xyz) + signs)
    return pts


# -- symmetry group ----------------------------------------------------------

_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_V4 = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def group_elements():
    """The 144 symmetries of the surface: independent permutations of the
    eigenvalue and matrix-entry coordinates, and even sign changes of the
    matrix entries."""
    out = []
    for pe in _S3:
        for pm in _S3:
            for sg in _V4:
                out.append((pe, pm, sg))
    return out


def g_apply(g, pt):
    """Apply a symmetry to a 6-tuple (x, y, z, a, b, c)."""
    pe, pm, sg = g
    x = [pt[pe[i]] for i in range(3)]
    m = [sg[i] * pt[3 + pm[i]] for i in range(3)]
    return tuple(x) + tuple(m)


def g_compose(g, h):
    """Composition: (g*h) acts as first h, then g."""
    pe_g, pm_g, sg_g = g
    pe_h, pm_h, sg_h = h
    pe = tuple(pe_h[pe_g[i]] for i in range(3))
    pm = tuple(pm_h[pm_g[i]] for i in range(3))
    sg = tuple(sg_g[i] * sg_h[pm_g[i]] for i in range(3))
    return (pe, pm, sg)


def normalize_projective(pt):
    """Canonical integer representative of a rational projective point:
    content one, last nonzero coordinate positive."""
    fr = [rat(v) for v in pt]
    if all(v == 0 for v in fr):
        raise ValueError("zero vector is not a projective point")
    m = 1
    for v in fr:
        m = m * v.denominator // gcd(m, v.denominator)
    ints = [int(v * m) for v in fr]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    last = next(v for v in reversed(ints) if v)
    if last < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def point_orbit(pt):
    """Orbit of a projective point under the symmetry group, as a set of
    normalized tuples."""
    return {normalize_projective(g_apply(g, pt)) for g in group_elements()}


def partition_orbits(points):
    """Partition a collection of projective points into symmetry orbits."""
    remaining = {normalize_projective(p) for p in points}
    orbits = []
    while remaining:
        seed = min(remaining)
        orb = point_orbit(seed) & remaining
        orbits.append(sorted(orb))
        remaining -= orb
    return sorted(orbits, key=lambda o: o[0])


# -- polynomial parametrizations ---------------------------------------------


class Parametrization:
    """A curve on the surface given by six polynomials in t.

    Components are (x, y, z, a, b, c).  Coefficients may lie in Q or in
    Q(sqrt 3).  The tuple is taken projectively: rescaling all six by a
    common polynomial gives the same curve.
    """

    __slots__ = ("x", "y", "z", "a", "b", "c")

    def __init__(self, x, y, z, a, b, c):
        for name, val in zip(self.__slots__, (x, y, z, a, b, c)):
            object.__setattr__(self, name, Polynomial._lift(val))

    def __setattr__(self, *args):
        raise AttributeError("Parametrization is immutable")

    def components(self):
        return (self.x, self.y, self.z, self.a, self.b, self.c)

    def degree(self) -> int:
        return max(p.degree for p in self.components() if not p.is_zero)

    def verify(self) -> bool:
        """All three surface equations hold identically, the components
        share no factor, and the map is nonconstant."""
        f1, f2, f3 = equation_values(self.components())
        if f1 or f2 or f3:
            return False
        nonzero = [p for p in self.components() if not p.is_zero]
        if not nonzero or all(p.degree == 0 for p in nonzero):
            return False
        g = nonzero[0]
        for p in nonzero[1:]:
            g = poly_gcd(g, p)
        return g.degree == 0

    def evaluate(self, t0):
        return tuple(p(t0) for p in self.components())

    def evaluate_projective(self, t0):
        return normalize_projective(self.evaluate(t0))

    def triple(self, t0):
        """The (a, b, c) values at a parameter, not normalized."""
        return (self.a(t0), self.b(t0), self.c(t0))

    def conjugate(self) -> "Parametrization":
        return Parametrization(*(conj(p) for p in self.components()))

    def apply(self, g) -> "Parametrization":
        return Parametrization(*g_apply(g, self.components()))

    def normalized(self) -> "Parametrization":
        """Scale so all coefficients are integral of content one (when the
        coefficients are rational) and the leading coefficient of the c
        component (or the last nonzero component) is positive."""
        comps = list(self.components())
        if any(p.is_quadratic_field() for p in comps):
            anchor = next(p for p in reversed(comps) if not p.is_zero)
            lead = anchor.lead()
            inv = lead.inverse() if isinstance(lead, QuadElem) else 1 / lead
            return Parametrization(*(p * inv for p in comps))
        m = 1
        for p in comps:
            for coeff in p.coeffs:
                m = m * coeff.denominator // gcd(m, coeff.denominator)
        g = 0
        for p in comps:
            for coeff in p.coeffs:
                g = gcd(g, abs(int(coeff * m)))
        scale = Fraction(m, g)
        comps = [p * scale for p in comps]
        anchor = next((p for p in reversed(comps) if not p.is_zero), None)
        if anchor is not None and anchor.lead() < 0:
            comps = [-p for p in comps]
        return Parametrization(*comps)

    def __eq__(self, other):
        if not isinstance(other, Parametrization):
            return NotImplemented
        a = self.normalized().components()
        b = other.normalized().components()
        return a == b

    def __hash__(self):
        return hash(self.normalized().components())

    def __repr__(self):
        return "Parametrization(%s)" % ", ".join(str(p) for p in self.components())


def low_degree_parametrization() -> Parametrization:
    """The distinguished degree four parametrization with x = t * a.

    Its integer parameter values sweep out infinitely many inequivalent
    all-integral triples; t = 3 gives (a, b, c) = (125, 99, 57).
    """
    t = Polynomial.gen()
    a = -(4 * t - 7) * (t + 2) * (t * t - 6 * t + 4)
    b = (5 * t - 6) * (5 * t * t - 10 * t - 4)
    c = (3 * t * t - 4 * t + 4) * (t * t - 4 * t + 6)
    x = 2 * (3 * t * t - 4 * t + 4) * (4 * t - 7)
    y = (t * t - 6 * t + 4) * (5 * t * t - 10 * t - 4)
    z = -(t + 2) * (5 * t - 6) * (t * t - 4 * t + 6)
    return Parametrization(x, y, z, a, b, c)


def trivial_locus(param: Parametrization):
    """All rational t where the parametrized triple is trivial.

    Returns the full rational set; integer callers filter.  Requires a
    parametrization with rational coefficients.

    The triple is trivial where one of a, b, c, a +/- b, b +/- c, c +/- a
    vanishes, so the locus is the union of the roots of those factors.
    """
    a, b, c = param.a, param.b, param.c
    factors = (a, b, c, a - b, a + b, b - c, b + c, c - a, c + a)
    if any(f.is_zero for f in factors):
        raise ValueError("parametrization is identically trivial")
    return set().union(*(rational_roots(f) for f in factors))


def integer_trivial_locus(param: Parametrization):
    return sorted(int(r) for r in trivial_locus(param) if r.denominator == 1)
