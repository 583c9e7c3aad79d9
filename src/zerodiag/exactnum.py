"""Exact arithmetic substrate: rationals, Q(sqrt 3), dense polynomials,
rational functions, and the certificate record every verified claim
returns.  There is no linear algebra here: conic planes are row reduced
over Z[sqrt 3] in conics, and integer matrices are inverted and brought
to Smith form in lattice, all without fractions.

Everything here is exact.  Floats are rejected on input and never produced.
Rationals are stdlib ``fractions.Fraction``; the quadratic field Q(sqrt 3)
gets its own small class.  Each element of Q(sqrt 3) has one
representation: a Fraction when its sqrt 3 part is zero, and a QuadElem
only when that part is nonzero.  ``QuadElem(r, 0)`` returns the Fraction r,
so every result whose sqrt 3 part cancels is a Fraction, and the field of
a value is read off its type.  Polynomials are dense with coefficients
listed lowest degree first.

A Polynomial stores only its integer form: int tuples x, y and the least
integer d > 0 with coefficients (x + y*sqrt3) / d.  Its products, sums,
quotients, images modulo a prime and Taylor shifts all read that form;
field scalars are built only where a caller asks for a coefficient, a
value or the leading term at a place.  A product skips the convolutions of
a zero sqrt 3 part, so a product of two rational polynomials runs one.
``_integer_parts`` clears the denominators of a scalar list once, when a
Polynomial is built from one.  Nothing divides with remainder over the
field: ``_quotient`` divides exactly, gcds come from images modulo primes,
and ``_taylor`` expands at a rational place in integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, zip_longest
from math import gcd as _int_gcd
from math import isqrt
from math import lcm as _lcm


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a pole."""


def rat(x) -> Fraction:
    """Coerce an int, string or Fraction to Fraction, returning a Fraction
    itself rather than a copy. Floats are refused."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction or int")
    return Fraction(x)


def rat_sqrt(x: Fraction):
    """Exact square root of a rational, or None if x is not a square."""
    x = rat(x)
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


_RATIONAL = (int, Fraction)


class QuadElem:
    """Element r + s*sqrt(3) of Q(sqrt 3) with s != 0, with exact Fraction
    components.  QuadElem(r, 0) is the Fraction r itself (see the module
    docstring), and a rational operand is read as r + 0*sqrt(3)."""

    __slots__ = ("r", "s")

    def __new__(cls, r=0, s=0):
        r, s = rat(r), rat(s)
        if not s:
            return r
        self = object.__new__(cls)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        return self

    def __setattr__(self, *a):
        raise AttributeError("QuadElem is immutable")

    # -- structure ---------------------------------------------------------

    def norm(self) -> Fraction:
        return self.r * self.r - 3 * self.s * self.s

    # -- arithmetic --------------------------------------------------------

    def __add__(self, o):
        if isinstance(o, QuadElem):
            return QuadElem(self.r + o.r, self.s + o.s)
        if isinstance(o, _RATIONAL):
            return QuadElem(self.r + o, self.s)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.r, -self.s)

    def __sub__(self, o):
        if isinstance(o, QuadElem):
            return QuadElem(self.r - o.r, self.s - o.s)
        if isinstance(o, _RATIONAL):
            return QuadElem(self.r - o, self.s)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _RATIONAL):
            return QuadElem(o - self.r, -self.s)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, QuadElem):
            return QuadElem(self.r * o.r + 3 * self.s * o.s,
                            self.r * o.s + self.s * o.r)
        if isinstance(o, _RATIONAL):
            return QuadElem(self.r * o, self.s * o)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        # the norm r^2 - 3 s^2 is nonzero because s != 0 and sqrt 3 is
        # irrational
        n = self.norm()
        return QuadElem(self.r / n, -self.s / n)

    def __truediv__(self, o):
        if isinstance(o, QuadElem):
            return self * o.inverse()
        if isinstance(o, _RATIONAL):
            return QuadElem(self.r / o, self.s / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _RATIONAL):
            return self.inverse() * o
        return NotImplemented

    def __eq__(self, o):
        if isinstance(o, QuadElem):
            return self.r == o.r and self.s == o.s
        if isinstance(o, _RATIONAL):
            return False  # s != 0
        return NotImplemented

    def __hash__(self):
        return hash((self.r, self.s))

    def __repr__(self):
        return "QuadElem(%r, %r)" % (str(self.r), str(self.s))

    def __str__(self):
        return "(%s)+(%s)√3" % (self.r, self.s)


SQRT3 = QuadElem(0, 1)


def _inv(x):
    return x.inverse() if isinstance(x, QuadElem) else 1 / x


def field_sqrt(x):
    """Exact square root in Q(sqrt 3) of a rational or a QuadElem, or None.

    A rational x has the root sqrt(x), or sqrt(x/3)*sqrt(3), when either
    is rational.  Otherwise (p + q sqrt3)^2 = r + s sqrt3 is solved via
    p^2 + 3 q^2 = r, 2 p q = s.
    """
    if not isinstance(x, QuadElem):
        x = rat(x)
        root = rat_sqrt(x)
        if root is not None:
            return root
        alt = rat_sqrt(x / 3)
        return None if alt is None else QuadElem(0, alt)
    r, s = x.r, x.s
    d = rat_sqrt(r * r - 3 * s * s)
    if d is None:
        return None
    for p2 in ((r + d) / 2, (r - d) / 2):
        p = rat_sqrt(p2)
        if p is not None and p != 0:
            q = s / (2 * p)
            cand = QuadElem(p, q)
            if cand * cand == x:
                return cand
    return None


# -- the integer form of a coefficient list ------------------------------------


def _integer_parts(coeffs):
    """Integer lists x, y and an integer d > 0 with coeffs[i] =
    (x[i] + y[i]*sqrt3) / d, for coefficients in Q or Q(sqrt 3).  This is
    the one place denominators are cleared; d is the least such integer."""
    parts = [(c.r, c.s) if isinstance(c, QuadElem) else (c, 0)
             for c in coeffs]
    d = 1
    for r, s in parts:
        d = _lcm(d, r.denominator, s.denominator)
    return ([r.numerator * (d // r.denominator) for r, _ in parts],
            [s.numerator * (d // s.denominator) for _, s in parts], d)


def _scalar(u: int, v: int, d: int):
    """The field element (u + v*sqrt3) / d."""
    return QuadElem(Fraction(u, d), Fraction(v, d)) if v else Fraction(u, d)


def _convolve(a, b) -> list:
    """The product of two integer coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    if any(b):
        n = len(b)
        for i, u in enumerate(a):
            if u:
                out[i:i + n] = [w + u * v for w, v in zip(out[i:i + n], b)]
    return out


class Polynomial:
    """Dense univariate polynomial over Q or Q(sqrt 3), stored as its
    canonical integer form: int tuples x, y and the least integer d > 0
    with coefficients (x[i] + y[i]*sqrt3) / d, lowest degree first, no
    trailing zero pair and gcd(d, *x, *y) = 1, so equal polynomials have
    equal forms.  The arithmetic reads the form; coeffs, indexing, lead,
    calls and printing build field scalars, each a Fraction or an
    irrational QuadElem.  The zero polynomial is x = y = (), d = 1."""

    __slots__ = ("x", "y", "d")

    def __init__(self, coeffs=()):
        self._set(*_integer_parts(
            [c if isinstance(c, QuadElem) else rat(c) for c in coeffs]))

    @classmethod
    def _of(cls, x, y, d: int) -> "Polynomial":
        """The polynomial with coefficients (x[i] + y[i]*sqrt3) / d, for
        integer lists x, y of one length and an integer d != 0."""
        out = object.__new__(cls)
        out._set(x, y, d)
        return out

    def _set(self, x, y, d: int):
        n = len(x)
        while n and not (x[n - 1] or y[n - 1]):
            n -= 1
        x, y = x[:n], y[:n]
        g = _int_gcd(d, *x, *y)
        if d < 0:
            g = -g
        if g != 1:
            x, y, d = [v // g for v in x], [v // g for v in y], d // g
        # tuple() of a list, not of a generator: a tuple grown from a
        # generator is resized, which drains one size's free list into others
        object.__setattr__(self, "x", tuple(x))
        object.__setattr__(self, "y", tuple(y))
        object.__setattr__(self, "d", d)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def gen(cls):
        """The generator t."""
        return cls([0, 1])

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple([_scalar(u, v, self.d) for u, v in zip(self.x, self.y)])

    @property
    def degree(self) -> int:
        return len(self.x) - 1

    @property
    def is_zero(self) -> bool:
        return not self.x

    def lead(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return _scalar(self.x[-1], self.y[-1], self.d)

    def __getitem__(self, i):
        if 0 <= i < len(self.x):
            return _scalar(self.x[i], self.y[i], self.d)
        return Fraction(0)

    def is_quadratic_field(self) -> bool:
        """True when some coefficient is irrational."""
        return any(self.y)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _lift(x):
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, (int, Fraction)):
            return Polynomial._of((x.numerator,), (0,), x.denominator)
        if isinstance(x, QuadElem):
            return Polynomial([x])
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d = _lcm(self.d, o.d)
        m, n = d // self.d, d // o.d
        x, y = ([u * m + v * n for u, v in zip_longest(a, b, fillvalue=0)]
                for a, b in ((self.x, o.x), (self.y, o.y)))
        return Polynomial._of(x, y, d)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of([-v for v in self.x], [-v for v in self.y],
                              self.d)

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Polynomial()
        # a zero sqrt 3 part takes no convolution: (x1 + y1*sqrt3)(x2 +
        # y2*sqrt3) = x1 x2 + 3 y1 y2 + (x1 y2 + y1 x2)*sqrt3
        x = _convolve(self.x, o.x)
        if not any(o.y):
            y = (_convolve(self.y, o.x) if any(self.y)
                 else [0] * len(x))
        elif not any(self.y):
            y = _convolve(self.x, o.y)
        else:
            x = [u + 3 * v for u, v in zip(x, _convolve(self.y, o.y))]
            y = [u + v for u, v in zip(_convolve(self.x, o.y),
                                       _convolve(self.y, o.x))]
        return Polynomial._of(x, y, self.d * o.d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial._lift(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.d == o.d and self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def __bool__(self):
        return not self.is_zero

    # -- calculus / transforms ----------------------------------------------

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        """f / lc(f): for lc(f) = (a + b*sqrt3) / d, the form of f times
        a - b*sqrt3, over the norm a^2 - 3b^2."""
        if self.is_zero:
            return self
        a, b, x, y = self.x[-1], self.y[-1], self.x, self.y
        return Polynomial._of([u * a - 3 * v * b for u, v in zip(x, y)],
                              [v * a - u * b for u, v in zip(x, y)],
                              a * a - 3 * b * b)

    def lead_at(self, root):
        """(m, c) with self = c (t - root)^m + O((t - root)^(m + 1)) and
        c != 0, for a rational root: the first nonzero pair of _taylor."""
        if self.is_zero:
            raise ValueError("valuation of the zero polynomial")
        den = self.d * root.denominator ** self.degree
        m, (u, v) = next((k, c) for k, c in
                         enumerate(_taylor(self, root, len(self.x))) if any(c))
        return m, QuadElem(Fraction(u, den), Fraction(v, den))

    def __repr__(self):
        return "Polynomial(%s)" % (list(map(str, self.coeffs)),)

    def __str__(self):
        return " + ".join(
            str(c) if i == 0 else "%s*t" % c if i == 1 else "%s*t^%d" % (c, i)
            for i, c in enumerate(self.coeffs) if c) or "0"


# -- polynomial algorithms ----------------------------------------------------


def _taylor(f: Polynomial, r, n: int):
    """The first n coefficients of f(t + r), lowest degree first, for r =
    a/q rational, as integer pairs (u, v) over the common denominator
    d*q^deg f: the coefficient is (u + v*sqrt3) / (d*q^deg f).

    With F(T) = sum x_i q^(deg - i) T^i, F(q t + a) = sum x_i q^deg (t +
    a/q)^i, so f(t + r) = F(q t + a) / (d q^deg); likewise for y.  F has
    integer coefficients, so the Taylor coefficients F_k(a) of F at a are
    integers, and F(q t + a) = sum F_k(a) q^k t^k.  Step k divides F by
    T - a synthetically and yields q^k times the remainder F_k(a), so a
    caller may stop early, and nothing leaves the integers."""
    a, q, deg = r.numerator, r.denominator, f.degree
    rows = [[v * q ** (deg - i) for i, v in enumerate(part)]
            for part in (f.x, f.y)]
    for k in range(min(n, deg + 1)):
        for c in rows:
            for i in range(deg - 1, k - 1, -1):
                c[i] += a * c[i + 1]
        yield rows[0][k] * q ** k, rows[1][k] * q ** k


# poly_gcd reduces modulo the primes p = 11 mod 12 below 2^31, largest first.
# p = 3 mod 4 and p = 2 mod 3 make 3 a square mod p (quadratic reciprocity),
# with square root pow(3, (p + 1) // 4, p); so (p, sqrt3 - w) is a prime of
# Z[sqrt 3] of degree 1 and Q(sqrt 3) reduces into GF(p).


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5 and 7, exact for
    n < 3215031751, the least strong pseudoprime to all four bases."""
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _gcd_prime(i: int) -> int:
    """The (i+1)-th largest prime p = 11 mod 12 below 2^31, found by
    _is_prime from the one before it, and only once."""
    # 2^31 - 9 is the largest integer = 11 mod 12 below 2^31
    p = _gcd_prime(i - 1) - 12 if i else 2 ** 31 - 9
    while p > 0 and not _is_prime(p):
        p -= 12
    if p < 0:
        raise ArithmeticError("no prime p = 11 mod 12 below 2^31 is left")
    return p


def _image(f: Polynomial, w: int, p: int):
    """The image in GF(p)[t] of f under sqrt3 -> w, trimmed; None when p
    divides d."""
    if f.d % p == 0:
        return None
    inv = pow(f.d, -1, p)
    out = [(u + v * w) * inv % p for u, v in zip(f.x, f.y)]
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd over GF(p) of trimmed coefficient lists (lowest degree
    first)."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        db = len(b) - 1
        a = a[:]
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c:
                k = i - db
                a[k:i] = [(x - c * y) % p for x, y in zip(a[k:i], b)]
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def _rational_reconstruction(x: int, m: int):
    """The fraction n/d = x mod m with |n|, d <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, x % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not t1 or abs(t1) > bound or _int_gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _quotient(f: Polynomial, g: Polynomial):
    """f / g for a monic g, or None when g does not divide f.

    Pseudo-division over Z[sqrt 3] by d*g, whose leading coefficient is the
    integer d: at each step the remainder, and with it the quotient so far,
    is scaled by the least integer that makes the next quotient term
    integral; s tracks the total scale of f."""
    gx, gy, d = g.x, g.y, g.d
    rx, ry, s = list(f.x), list(f.y), f.d
    dg = len(gx) - 1
    n = max(len(rx) - dg, 0)
    qx, qy = [0] * n, [0] * n
    for i in range(len(rx) - 1, dg - 1, -1):
        x, y = rx[i], ry[i]
        if not (x or y):
            continue
        k = i - dg
        e = _int_gcd(x, y, d)
        if e != d:
            m = d // e
            rx[:i] = [v * m for v in rx[:i]]
            ry[:i] = [v * m for v in ry[:i]]
            qx[k + 1:] = [v * m for v in qx[k + 1:]]
            qy[k + 1:] = [v * m for v in qy[k + 1:]]
            s *= m
        qx[k], qy[k] = a, b = x // e, y // e
        rx[k:i] = [v - a * u - 3 * b * w for v, u, w in zip(rx[k:i], gx, gy)]
        ry[k:i] = [v - a * w - b * u for v, u, w in zip(ry[k:i], gx, gy)]
    if any(rx[:dg]) or any(ry[:dg]):
        return None
    # s*f = (qx + qy*sqrt3) * d*g
    return Polynomial._of([d * v for v in qx], [d * v for v in qy], s)


def _modular_gcd(a: Polynomial, b: Polynomial):
    """(g, a/g, b/g) for non-constant a, b: the monic g from images modulo
    _gcd_prime(0), _gcd_prime(1), ... until one settles it (see
    gcd_cofactors), a/g and b/g from its division check, or a, b if g = 1;
    a dividing argument is settled by one division at the first conclusive
    prime."""
    deg = modulus = residues = failed = None
    quad = a.is_quadratic_field() or b.is_quadratic_field()
    for p in map(_gcd_prime, count()):
        w = pow(3, (p + 1) // 4, p)
        images = []
        for e in ((w, p - w) if quad else (0,)):
            ia, ib = _image(a, e, p), _image(b, e, p)
            if ia is None or ib is None:
                break  # p divides a denominator
            if len(ia) <= a.degree and len(ib) <= b.degree:
                break  # both leading coefficients vanish: no degree bound
            g = _gcd_mod(ia, ib, p)
            if len(g) == 1:
                return Polynomial._lift(1), a, b
            images.append(g)
        if len(images) < 1 + quad or len(images[0]) != len(images[-1]):
            continue  # inconclusive, or the two embeddings disagree
        d = len(images[0]) - 1
        if deg is None and d in (b.degree, a.degree):
            # the image suggests that f divides the other argument: one
            # exact division proves it (see gcd_cofactors)
            f, other = (b, a) if d == b.degree else (a, b)
            g = f.monic()
            q = _quotient(other, g)
            if q is not None:
                lead = Polynomial._of(f.x[-1:], f.y[-1:], f.d)
                return (g, q, lead) if f is b else (g, lead, q)
        if quad:
            half, half_w = pow(2, -1, p), pow(2 * w, -1, p)
            image = [v for x, y in zip(*images)
                     for v in ((x + y) * half % p, (x - y) * half_w % p)]
        else:
            image = images[0]
        if deg is not None and d > deg:
            continue  # an unlucky prime
        if deg is None or d < deg:
            deg, modulus, residues = d, p, image
        else:
            inv = pow(modulus, -1, p)
            residues = [x + modulus * ((y - x) * inv % p)
                        for x, y in zip(residues, image)]
            modulus *= p
        fracs = [_rational_reconstruction(x, modulus) for x in residues]
        if None in fracs:
            continue
        if quad:
            fracs = [QuadElem(r, s) for r, s in zip(fracs[::2], fracs[1::2])]
        cand = Polynomial(fracs)
        if cand != failed:
            qa = _quotient(a, cand)
            qb = None if qa is None else _quotient(b, cand)
            if qb is not None:
                return cand, qa, qb
            failed = cand


def gcd_cofactors(a: Polynomial, b: Polynomial):
    """(g, a/g, b/g) for the monic gcd g over Q or Q(sqrt 3), certified
    modulo primes.

    A nonzero constant argument gives g = 1 and leaves a and b as they are;
    so does a pair certified coprime.  A zero argument gives the other one
    made monic.  Otherwise both are reduced modulo a degree-1 prime
    P = (p, sqrt3 - w) of Z[sqrt 3] for the primes p = _gcd_prime(i), taken
    in turn; a prime is skipped when it divides a coefficient denominator
    or both leading coefficients.  The local ring O_P is a DVR, so Gauss's
    lemma holds in O_P[t]: with g the true gcd scaled to content 1 there,
    a = g*h and b = g*k with h, k in O_P[t], and the reductions mod P of
    g divide those of a and b.  lc(g) divides a leading coefficient that P
    keeps, so P keeps lc(g) as well, and deg gcd(a mod P, b mod P) >= deg g.
    A unit gcd mod P therefore proves gcd = 1.  Otherwise the monic images
    of least degree (both embeddings sqrt3 -> +w, -w over Q(sqrt 3), to
    separate r and s in r + s*sqrt3) are combined by the Chinese remainder
    theorem and each coefficient is rationally reconstructed.  Each
    candidate is tried by exact division as soon as it is reconstructed,
    and one that fails is not tried again.  The candidate's degree is at
    least deg g, so once it divides both a and b exactly it is g.  A prime
    whose images have a larger degree is dropped, and so is one whose two
    embeddings disagree.

    A dividing argument is settled at the first conclusive prime.  When the
    image gcd there has the degree of an argument f (b first, then a), f
    made monic is tried as a divisor of the other argument, and one exact
    division is the certificate: f.monic() divides both, and every common
    divisor divides f, so it is g, with cofactors the quotient and lc(f).
    The image only decides when the division is worth trying; when it is
    not exact, the search goes on as above.

    Some prime settles every pair.  Only finitely many primes divide a
    denominator or both leading coefficients, and only finitely many are
    unlucky: the cofactors a/g and b/g are coprime, so their resultant is a
    nonzero element of the field, and a prime that keeps a leading
    coefficient, divides no denominator of the cofactors and still gives
    an image of degree above deg g divides that resultant.  Two embeddings
    disagree only when one of them is unlucky.  Every other prime gives
    the image of the monic g, so the CRT modulus grows without bound, and
    once it exceeds twice the square of the largest numerator or
    denominator in the coefficients of the monic g, rational reconstruction
    returns g itself, and the division check passes.
    """
    if b.degree == 0 or a.degree == 0:
        return Polynomial._lift(1), a, b
    if a.is_zero:
        return b.monic(), a, Polynomial._of(b.x[-1:], b.y[-1:], b.d)
    if b.is_zero:
        return a.monic(), Polynomial._of(a.x[-1:], a.y[-1:], a.d), b
    return _modular_gcd(a, b)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q or Q(sqrt 3): the first item of gcd_cofactors."""
    return gcd_cofactors(a, b)[0]


def poly_sqrt(f: Polynomial):
    """Exact g with g^2 = f, or None.  Works over Q and Q(sqrt 3)."""
    if f.is_zero:
        return Polynomial()
    if f.degree % 2 == 1:
        return None
    lead = f.lead()
    root = field_sqrt(lead)
    if root is None:
        return None
    half = f.degree // 2
    # build g from the top coefficient down
    g = [Fraction(0)] * (half + 1)
    g[half] = root
    two_lead = root + root
    inv = _inv(two_lead)
    for k in range(half - 1, -1, -1):
        # coefficient of t^(half + k) in f must match 2*g[half]*g[k] + known
        known = sum((g[i] * g[half + k - i] for i in range(k + 1, half)),
                    Fraction(0))
        g[k] = (f[half + k] - known) * inv
    cand = Polynomial(g)
    return cand if cand * cand == f else None


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(f: Polynomial):
    """All rational roots of f, by the rational root theorem.

    Coefficients must be rational.  Returns a set of Fractions.
    """
    if f.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    if f.is_quadratic_field():
        raise ValueError("not a polynomial over Q: %s" % f)
    ints = list(f.x)
    roots = set()
    low = 0
    while not ints[low]:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        ints = ints[low:]
    if len(ints) == 1:
        return roots
    g = _int_gcd(*ints)
    ints = [v // g for v in ints]
    a0, an = ints[0], ints[-1]

    def val(r):
        acc = 0
        for c in reversed(ints):
            acc = acc * r + c
        return acc

    for p in _divisors(a0):
        for q in _divisors(an):
            if _int_gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and val(cand) == 0:
                    roots.add(cand)
    return roots


class RationalFunction:
    """Quotient of polynomials, gcd-reduced, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = Polynomial._lift(num)
        den = Polynomial._lift(1) if den is None else Polynomial._lift(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero:
            _, num, den = gcd_cofactors(num, den)
        self._set_monic(num, den)

    def _set_monic(self, num, den):
        if num.is_zero:
            den = Polynomial._lift(1)
        elif den.lead() != 1:
            num, den = num * _inv(den.lead()), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den for coprime num and den (den nonzero), with no gcd: for
        results the arithmetic knows to be reduced (Henrici)."""
        out = object.__new__(cls)
        out._set_monic(num, den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def _lift(x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction, QuadElem, Polynomial)):
            return RationalFunction._coprime(Polynomial._lift(x),
                                             Polynomial._lift(1))
        return None

    @property
    def is_zero(self):
        return self.num.is_zero

    def is_polynomial(self):
        return self.den.degree == 0

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % self)
        return self.num

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        # da, db are the denominators themselves when they are coprime
        g, da, db = gcd_cofactors(self.den, o.den)
        num, den = self.num * db + o.num * da, self.den * db
        if g.degree > 0:
            return RationalFunction(num, den)
        return RationalFunction._coprime(num, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._coprime(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        # once cross-cancelled, a product of reduced fractions is reduced
        _, n1, d2 = gcd_cofactors(self.num, o.den)
        _, n2, d1 = gcd_cofactors(o.num, self.den)
        return RationalFunction._coprime(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction._coprime(self.den, self.num)

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self * o.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction._coprime(self.num ** n, self.den ** n)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __call__(self, x):
        dv = self.den(x)
        if not dv:
            raise PoleError("evaluation at a pole")
        return self.num(x) / dv

    def degree(self) -> int:
        """deg num - deg den; the order of growth at infinity."""
        if self.is_zero:
            raise ValueError("degree of zero rational function")
        return self.num.degree - self.den.degree

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def __str__(self):
        if self.den == Polynomial._lift(1):
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


# -- certificates --------------------------------------------------------------


class Certificate:
    """Ordered (key, value) facts, the imported facts they rely on, and ok:
    the checks that no claim of cli.CLAIMS prints."""

    __slots__ = ("name", "facts", "imported", "ok")

    def __init__(self, name, facts, imported=(), ok=True):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "facts", list(facts))
        object.__setattr__(self, "imported", list(imported))
        object.__setattr__(self, "ok", bool(ok))

    def __setattr__(self, *a):
        raise AttributeError("Certificate is immutable")

    def fact(self, key):
        for k, v in self.facts:
            if k == key:
                return v
        raise KeyError(key)

    def __repr__(self):
        return "Certificate(%s, ok=%s)" % (self.name, self.ok)
