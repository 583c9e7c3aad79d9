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
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, isqrt
from operator import ne, xor

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
# 1.2 s of CPU (2-core host, Python 3.11.7); the kernel looks at O(limit^2)
# pairs (x, a), 4.2M at 2000, so the time grows about fourfold per doubling
# of the limit
SEARCH_MAX = 2000


def _parity_keys(n):
    """The lists key over 0 <= k < n and primes, the primes below n in
    order: bit i of key[k] is set exactly when primes[i] divides k to an
    odd power (key[0] = 0).  So key[k] is the key of the squarefree part
    of k, which is the product of the primes of its key, key is one to one
    on the squarefree k, and the squarefree part of u v has the key
    key[u] ^ key[v]."""
    key = [0] * n
    primes = []
    composite = bytearray(n)
    for p in range(2, n):
        if composite[p]:
            continue
        composite[p * p::p] = b"\1" * len(range(p * p, n, p))
        bit = 1 << len(primes)
        primes.append(p)
        q = p
        while q < n:
            key[q::q] = map(xor, key[q::q], repeat(bit))
            q *= p
    return key, primes


def _entry_range(x, limit):
    """The entries a < b of a triple of search(limit) with largest
    eigenvalue x can take: 4a^2 >= 3x^2 - 4(limit^2 + (limit - 1)^2) and
    b <= min(x - 2, limit - 1, (isqrt(2x^2 - 5) - 1) // 2), the last from
    2b^2 + 2b + 3 <= x^2 (see search)."""
    rest = 3 * x * x - 4 * (limit * limit + (limit - 1) ** 2)
    lo = isqrt((rest + 3) // 4 - 1) + 1 if rest > 0 else 1
    # x <= 1 leaves no entry: x - 2 < 0
    hi = min(x - 2, limit - 1, (isqrt(max(2 * x * x - 5, 0)) - 1) // 2)
    return range(lo, hi + 1)


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
    s = k0 k1(a) k1(b).  Entries are told apart by the key of k0, from a
    table up to 3 limit (x + a < 3 limit) of the bitmask key(n) of the
    primes that divide n to an odd power.  Squarefree numbers multiplied
    modulo squares map one to one onto bitmasks under XOR, so with
    u = x - a and v = x + a the key of k0 is key(u) ^ key(v), one XOR
    per entry, and equal keys mean equal k0.  That table is the only one:
    k0 is squarefree, so it is the product of the primes whose bits its
    key sets, read once per bucket, and k1 = isqrt((x^2 - a^2) / k0) per
    bucketed entry, where the division is exact.

    The entries range over an interval per x.  b < c < x and b < c <= limit
    give b <= min(x - 2, limit - 1).  y + z = -x and 0 < yz <= x^2/4 give
    p = x^2 - yz >= 3x^2/4, and b^2 + c^2 <= limit^2 + (limit - 1)^2, so
    4a^2 >= 3x^2 - 4(limit^2 + (limit - 1)^2).  yz > 0 also gives the
    upper end p = x^2 - yz < x^2, so p <= x^2 - 1, and a >= 1, c >= b + 1
    give p >= 1 + b^2 + (b + 1)^2: together 2b^2 + 2b + 3 <= x^2, that is
    (2b + 1)^2 <= 2x^2 - 5, or b <= (isqrt(2x^2 - 5) - 1) // 2.
    p < 3 limit^2 also gives x < 2 limit, past which the interval is
    empty.  For each x only the entries whose k0 repeats are bucketed:
    an entry met again later is kept with its bucket, and the last
    occurrence of each such k0 closes the bucket, which stays in
    ascending order; k1 is computed only for those entries, and x with
    no repeated k0 is passed over.  Each pair a < b in a bucket gives c;
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

    Raises TypeError when limit is not an int, and ValueError when limit
    is negative or above SEARCH_MAX, or when workers is not 1.
    """
    if not isinstance(limit, int):
        raise TypeError("search limit must be an int, got %r" % (limit,))
    if not 0 <= limit <= SEARCH_MAX:
        raise ValueError("search limit must be between 0 and %d, got %d"
                         % (SEARCH_MAX, limit))
    if workers != 1:
        raise ValueError("search runs in one process; workers must be 1, "
                         "got %r" % (workers,))
    if limit < 3:
        return []
    key, primes = _parity_keys(3 * limit)  # x + a < 3 limit
    found = []
    for x in range(2, 2 * limit + 1):
        entries = _entry_range(x, limit)
        if len(entries) < 2:
            continue
        lo, hi = entries.start, entries.stop - 1
        # x^2 - a^2 = k0 * k1^2 with k0 squarefree; keys[i] is the key of
        # k0 for a = lo + i, from x - a and x + a
        keys = list(map(xor, key[x - lo:x - hi - 1:-1],
                        key[x + lo:x + hi + 1]))
        last = dict(zip(keys, entries))
        if len(last) == len(entries):
            continue  # no k0 repeats
        # the entries met again later, each bucket closed by its last one
        buckets = {}
        for k, a in compress(zip(keys, entries),
                             map(ne, map(last.__getitem__, keys), entries)):
            if k in buckets:
                buckets[k].append(a)
            else:
                buckets[k] = [a]
        x_limit = x * limit
        for k, bucket in buckets.items():
            bucket.append(last[k])
            n = len(bucket)
            # k0 is the product of the primes of its key k
            k0, bits = 1, k
            while bits:
                low = bits & -bits
                k0 *= primes[low.bit_length() - 1]
                bits ^= low
            k1 = [isqrt((x * x - a * a) // k0) for a in bucket]
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


@lru_cache(maxsize=1)
def singular_points():
    """The twelve ordinary double points of the surface, as a tuple of
    points in normalize_projective form.

    Each is, up to sign, a permutation of (2, -1, -1) for (x, y, z) and a
    sign pattern with abc = 1 for (a, b, c); normalized, c = 1.
    """
    pts = []
    for pos in range(3):
        xyz = [-1, -1, -1]
        xyz[pos] = 2
        for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            pts.append(normalize_projective(tuple(xyz) + signs))
    return tuple(pts)


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
    common polynomial gives the same curve, so six zeros are refused.
    """

    __slots__ = ("x", "y", "z", "a", "b", "c")

    def __init__(self, x, y, z, a, b, c):
        for name, val in zip(self.__slots__, (x, y, z, a, b, c)):
            object.__setattr__(self, name, Polynomial.coerce(val))
        if all(p.is_zero for p in self.components()):
            raise ValueError("zero vector is not a projective point")

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
        if all(p.degree == 0 for p in nonzero):
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
        anchor = next(p for p in reversed(comps) if not p.is_zero)
        if anchor.lead() < 0:
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
