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
    _integer_parts,
    _inv,
    conj,
    poly_gcd,
    rat,
    rational_roots,
)


def char_poly_coeffs(a: int, b: int, c: int):
    """(p, q) with det(lambda I - M) = lambda^3 - p lambda - q."""
    return a * a + b * b + c * c, 2 * a * b * c


def is_trivial(a, b, c) -> bool:
    """Triviality of the triple: some entry zero or two entries equal up
    to sign.  For such triples integrality of the spectrum reduces to a
    one-variable condition."""
    return a * b * c * (a * a - b * b) * (b * b - c * c) * (c * c - a * a) == 0


def integral_eigenvalues(a: int, b: int, c: int):
    """Eigenvalues of M as a decreasing integer triple, or None if they
    are not all integral.

    Integer-only fast path.  Write p = a^2+b^2+c^2 and q = 2abc, so the
    characteristic polynomial is f(l) = l^3 - p l - q.  For q > 0 the
    spectrum is x > 0 > y >= z (the product is positive and the sum is
    zero), so x is the largest root.  Since y + z = -x, p = x^2 - yz with
    0 < yz <= x^2/4, hence p < x^2 <= 4p/3: an integral x lies in
    isqrt(p) < x <= isqrt(4p/3).  There f' = 3l^2 - p > 0, so f is
    increasing and a binary search finds x if it is an integer.
    An all-integral spectrum needs x integral; given x, the discriminant
    of the remaining quadratic l^2 + x l + (x^2 - p) decides whether y
    and z are integers too.  q < 0 is the mirror image and q = 0 is
    solved directly.
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

    lo, hi = isqrt(p) + 1, isqrt(4 * p // 3)
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    r = lo
    if f(r):
        return None
    # remaining factor lambda^2 + r lambda + (r^2 - p); r^2 <= 4p/3
    disc = 4 * p - 3 * r * r
    s = isqrt(disc)
    if s * s != disc or (s - r) % 2:
        return None
    lam2, lam3 = (-r + s) // 2, (-r - s) // 2
    return (r, lam2, lam3)


# the largest limit search accepts: search(2000) finds 125 triples in about
# a minute and a half of CPU on one worker; its window scan does O(limit^3)
# remainders, so the time grows about eightfold per doubling of the limit
SEARCH_MAX = 2000


def _search_range(x_values, limit):
    """The triples of search(limit) whose largest eigenvalue is in
    x_values, unsorted."""
    p_max = 3 * limit * limit  # a^2 + b^2 + c^2 < 3 limit^2
    bb_cc_max = limit * limit + (limit - 1) ** 2  # b < c <= limit
    found = []
    for x in x_values:
        # spectrum (x, -m, -(x - m)); p rises and abc falls as m falls
        hi = x // 2 + 1
        for m in range(x // 2, 0, -1):
            p = x * x - x * m + m * m
            if p >= p_max:
                break
            # one of x, m, x - m is even, so abc is an integer
            abc = x * m * (x - m) // 2
            while (hi - 1) ** 3 >= abc:
                hi -= 1  # the least hi with hi^3 >= abc
            rest = p - bb_cc_max  # a^2 >= rest
            lo = max(m + 1, isqrt(rest - 1) + 1 if rest > 0 else 0)
            for a in range(lo, hi):
                if abc % a:
                    continue
                bc = abc // a
                s = p - a * a  # b^2 + c^2
                uu, vv = s + 2 * bc, s - 2 * bc  # (c + b)^2, (c - b)^2
                u, v = isqrt(uu), isqrt(vv)
                # u^2 - v^2 = 4bc, so u and v have the same parity
                if u * u != uu or v * v != vv:
                    continue
                b, c = (u - v) // 2, (u + v) // 2
                if a < b and c <= limit:
                    ev = (x, -m, -(x - m))
                    if integral_eigenvalues(a, b, c) != ev:
                        raise ArithmeticError(
                            "triple %r does not have spectrum %r"
                            % ((a, b, c), ev))
                    found.append(((a, b, c), ev))
    return found


def search(limit: int, workers: int = 1):
    """All nontrivial triples 0 < a < b < c <= limit whose matrix has an
    all-integral spectrum, with the spectra.  Sorted by (c, a, b).

    Triples with a repeated or zero entry are trivial and excluded; up to
    the symmetry group every remaining triple is of this strict form.

    The search runs from the eigenvalue side.  Such a spectrum is
    (x, -m, -(x - m)) with 1 <= m <= x/2, and it fixes
    p = a^2 + b^2 + c^2 = x^2 - xm + m^2 and abc = xm(x - m)/2; p < 3
    limit^2 bounds x by 2 limit.  The characteristic polynomial
    f(l) = l^3 - pl - 2abc = (l - x)(l + m)(l + x - m) has
    f(-a) = a(c - b)^2 > 0 as b != c, and the same with b or c in place
    of a.  So every entry lies strictly between m and x - m, and

        (c - b)^2 = (x + a)(a - m)(x - m - a)/a,
        (c + b)^2 = (x - a)(a + m)(x - m + a)/a.

    For each pair (x, m) the smallest entry a is therefore a divisor of
    abc in the window max(m + 1, sqrt(p - limit^2 - (limit - 1)^2)) <= a
    with a^3 < abc, because b^2 + c^2 <= limit^2 + (limit - 1)^2 when
    b < c <= limit.  (A bound a >= abc/limit^2 would add nothing: a
    smaller a makes bc > limit^2, so c > limit, which the final c <= limit
    test rejects.)  The
    window is scanned by remainders; the cube bound is a pointer that
    only moves down as m falls, so everything stays in integers.  Then
    bc = abc/a, and b and c follow from the two squares
    (c + b)^2 = p - a^2 + 2bc and (c - b)^2 = p - a^2 - 2bc, the second
    positive inside the window.  Each triple found is checked once by
    integral_eigenvalues.

    Raises ValueError when limit is negative or above SEARCH_MAX.
    """
    if not 0 <= limit <= SEARCH_MAX:
        raise ValueError("search limit must be between 0 and %d, got %d"
                         % (SEARCH_MAX, limit))
    if limit < 3:
        return []
    x_values = list(range(2, 2 * limit + 1))
    if workers and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the work per x grows with x, so deal the x values round-robin
        chunks = [x_values[i::workers] for i in range(workers)]
        found = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_search_range, chunks, [limit] * len(chunks)):
                found.extend(part)
    else:
        found = _search_range(x_values, limit)
    return sorted(found, key=lambda item: (item[0][2], item[0][0], item[0][1]))


# -- the surface ------------------------------------------------------------


def equation_values(pt):
    """Values of the three defining forms at a 6-tuple (x, y, z, a, b, c)."""
    x, y, z, a, b, c = pt
    f1 = x + y + z
    f2 = x * y + y * z + z * x + a * a + b * b + c * c
    f3 = x * y * z - 2 * a * b * c
    return f1, f2, f3


def jacobian(pt):
    x, y, z, a, b, c = pt
    return [
        [1, 1, 1, 0, 0, 0],
        [y + z, x + z, x + y, 2 * a, 2 * b, 2 * c],
        [y * z, x * z, x * y, -2 * b * c, -2 * a * c, -2 * a * b],
    ]


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
    ints, _, _ = _integer_parts(fr)
    g = gcd(*ints)
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

    def normalized(self) -> "Parametrization":
        """Scale so all coefficients are integral of content one (when the
        coefficients are rational) and the leading coefficient of the c
        component (or the last nonzero component) is positive."""
        comps = list(self.components())
        if any(p.is_quadratic_field() for p in comps):
            anchor = next(p for p in reversed(comps) if not p.is_zero)
            lead = anchor.lead()
            inv = _inv(lead)
            return Parametrization(*(p * inv for p in comps))
        ints, _, m = _integer_parts([c for p in comps for c in p.coeffs])
        scale = Fraction(m, gcd(*ints))
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
