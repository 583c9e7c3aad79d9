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
# 3 s of CPU (2-core host, Python 3.11.7); the kernel looks at O(limit^2)
# pairs (x, a), so the time grows about fourfold per doubling of the limit
SEARCH_MAX = 2000


def _square_parts(n):
    """Lists core and root over 0 <= k < n with k = core[k] * root[k]^2 and
    core[k] squarefree (core[0] = 0)."""
    core, root = list(range(n)), [1] * n
    q = 2
    while q * q < n:
        qq = q * q
        for k in range(qq, n, qq):
            while core[k] % qq == 0:
                core[k] //= qq
                root[k] *= q
        q += 1
    return core, root


def _entry_range(x, limit):
    """The entries a < b of a triple of search(limit) with largest
    eigenvalue x can take: 4a^2 >= 3x^2 - 4(limit^2 + (limit - 1)^2) and
    b <= min(x - 2, limit - 1)."""
    rest = 3 * x * x - 4 * (limit * limit + (limit - 1) ** 2)
    lo = isqrt((rest + 3) // 4 - 1) + 1 if rest > 0 else 1
    return range(lo, min(x - 2, limit - 1) + 1)


def search(limit: int, workers: int = 1):
    """All nontrivial triples 0 < a < b < c <= limit whose matrix has an
    all-integral spectrum, with the spectra.  Sorted by (c, a, b).

    Triples with a repeated or zero entry are trivial and excluded; up to
    the symmetry group every remaining triple is of this strict form.

    The search runs over the largest eigenvalue x and the entries.  With
    p = a^2 + b^2 + c^2 the characteristic polynomial is
    f(l) = l^3 - pl - 2abc.  Its product of roots 2abc is positive, so the
    spectrum is x > 0 > y >= z, and f(c) = -c(a^2 + b^2) - 2abc < 0 gives
    x > c (interlacing).  f(x) = 0 is the quadratic

        x c^2 + 2ab c - x(x^2 - a^2 - b^2) = 0

    in c, with discriminant 4(x^2 - a^2)(x^2 - b^2).  So that product is a
    square s^2 and c = (s - ab)/x.  Both factors are positive, and their
    product is a square exactly when they have the same squarefree part
    k0: x^2 - a^2 = k0 k1(a)^2, x^2 - b^2 = k0 k1(b)^2 and
    s = k0 k1(a) k1(b).  The squarefree part comes from tables up to
    3 limit (x + a < 3 limit): with u = x - a, v = x + a and
    g = gcd(core(u), core(v)), k0 = core(u) core(v) / g^2 and
    k1 = g root(u) root(v).

    The entries range over an interval per x.  b < c < x and b < c <= limit
    give b <= min(x - 2, limit - 1).  y + z = -x and 0 < yz <= x^2/4 give
    p = x^2 - yz >= 3x^2/4, and b^2 + c^2 <= limit^2 + (limit - 1)^2, so
    4a^2 >= 3x^2 - 4(limit^2 + (limit - 1)^2).  p < 3 limit^2 also gives
    x < 2 limit, past which the interval is empty.  For each x the
    entries are bucketed by k0, and each pair a < b in a bucket gives c;
    it is kept when x divides exactly and b < c <= limit.  Along a bucket
    k1(b) falls as b rises, so c falls, and the scan for b stops at the
    first c <= b.  The other eigenvalues are the roots (-x +/- r)/2 of
    l^2 + xl + x^2 - p, with r^2 = 4p - 3x^2; they are integers exactly
    when r is (r^2 = x^2 mod 4 gives r = x mod 2).  That test runs
    inline, so each triple found is checked once by integral_eigenvalues.
    The work is O(limit^2) pairs (x, a), all in the calling process.

    workers must be 1.  The keyword is kept only because bench/child.py
    calls search(limit, workers=1), and will be removed when the benchmark
    child stops passing it.

    Raises ValueError when limit is negative or above SEARCH_MAX, or when
    workers is not 1.
    """
    if not 0 <= limit <= SEARCH_MAX:
        raise ValueError("search limit must be between 0 and %d, got %d"
                         % (SEARCH_MAX, limit))
    if workers != 1:
        raise ValueError("search runs in one process; workers must be 1, "
                         "got %r" % (workers,))
    if limit < 3:
        return []
    core, root = _square_parts(3 * limit)  # x + a < 3 limit
    found = []
    for x in range(2, 2 * limit + 1):
        entries = _entry_range(x, limit)
        if len(entries) < 2:
            continue
        lo, hi = entries.start, entries.stop - 1
        # core and root of x - a and x + a for a = lo, ..., hi
        cu = core[x - hi:x - lo + 1]
        cu.reverse()
        cv = core[x + lo:x + hi + 1]
        gs = list(map(gcd, cu, cv))
        # x^2 - a^2 = k0 * k1^2 with k0 squarefree
        buckets = {}
        for a, k0 in zip(entries, [u * v // (g * g)
                                   for u, v, g in zip(cu, cv, gs)]):
            if k0 in buckets:
                buckets[k0].append(a)
            else:
                buckets[k0] = [a]
        x_limit = x * limit
        for k0, bucket in buckets.items():
            n = len(bucket)
            if n < 2:
                continue
            k1 = [gs[a - lo] * root[x - a] * root[x + a] for a in bucket]
            for i in range(n - 1):
                a = bucket[i]
                ka = k0 * k1[i]
                for j in range(i + 1, n):
                    b = bucket[j]
                    cx = ka * k1[j] - a * b  # c * x
                    if cx > x_limit:
                        continue
                    if cx <= x * b:
                        break  # c falls and b rises along the bucket
                    if cx % x:
                        continue
                    c = cx // x
                    # the other eigenvalues (-x +/- r)/2, r^2 = 4p - 3x^2
                    disc = 4 * (a * a + b * b + c * c) - 3 * x * x
                    r = isqrt(disc)
                    if r * r != disc:
                        continue
                    ev = (x, (r - x) // 2, -(r + x) // 2)
                    if integral_eigenvalues(a, b, c) != ev:
                        raise ArithmeticError(
                            "triple %r does not have spectrum %r"
                            % ((a, b, c), ev))
                    found.append(((a, b, c), ev))
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
