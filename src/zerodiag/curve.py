"""Elliptic fibration machinery over the rational function field.

The surface of `zerodiag.surface` is fibered by the parameter t = x/a.
After a coordinate change each fiber becomes a Weierstrass cubic

    v^2 = u (u - 8t(t^2-1)) (u - (t^2-1)(t+2)^2)

and curves on the surface that meet each fiber once correspond to points
of this curve over Q(t) (or Q(sqrt 3)(t)).  This module implements
Weierstrass models and their invariants, the group law, Kodaira fiber
classification, and the explicit maps in both directions between section
parametrizations and Weierstrass points.

Local questions are answered from the global model, with no local model
rebuilt.  _leading_term reads the order and the leading coefficient of a
function f of weight w (u is 2, v is 3, a_i is i) in the local coordinate
of a place: t - r at a rational place r, and s = 1/t at infinity, where f
is twisted to s^(w k) f(1/s) with k = twist_weight(model).  Fiber types
come from the orders of c4, c6, Delta (Tate), shapes from Kodaira's table.

A model's coefficients are polynomials in t, and every CurvePoint is
checked on the model itself: (u, v) = (n/d, m/e), reduced with monic
denominators, lies on it exactly when e^2 = d^3 and m^2 = N, for N the
cubic in n and d made homogeneous (see WeierstrassModel.contains).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactnum import (
    Polynomial,
    RationalFunction,
    SQRT3,
    gcd_cofactors,
    rational_roots,
)
from .surface import Parametrization

INFINITE_PLACE = "inf"

_BIG = 10 ** 9  # valuation of the zero function, for comparisons only


def _rf(x) -> RationalFunction:
    out = RationalFunction._lift(x)
    if out is None:
        raise TypeError("expected a function-field element, got %r" % (x,))
    return out


class WeierstrassModel:
    """v^2 = u^3 + a2 u^2 + a4 u + a6 with polynomial coefficients in t,
    held as RationalFunctions.  A coefficient with a denominator is
    refused: u -> lam^2 u, v -> lam^3 v, a_i -> lam^i a_i clears it."""

    __slots__ = ("a2", "a4", "a6", "_disc")

    def __init__(self, a2, a4, a6):
        for name, a in (("a2", a2), ("a4", a4), ("a6", a6)):
            a = _rf(a)
            if not a.is_polynomial():
                raise ValueError(
                    "%s = %s has a denominator; a model takes polynomial "
                    "coefficients (clear it by u -> lam^2 u, v -> lam^3 v)"
                    % (name, a))
            object.__setattr__(self, name, a)
        b2, b4, b6, b8 = self.b_invariants()
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        object.__setattr__(self, "_disc", disc)
        if disc.is_zero:
            raise ValueError("discriminant vanishes identically; "
                             "the generic fiber is singular")

    def __setattr__(self, *a):
        raise AttributeError("WeierstrassModel is immutable")

    # b- and c-invariants for a1 = a3 = 0
    def b_invariants(self):
        a2, a4, a6 = self.a2, self.a4, self.a6
        return 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4

    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
        return c4, c6

    def discriminant(self) -> RationalFunction:
        return self._disc

    def j_invariant(self) -> RationalFunction:
        c4, _ = self.c_invariants()
        return c4 ** 3 / self.discriminant()

    def contains(self, u, v) -> bool:
        """Whether v^2 = u^3 + a2 u^2 + a4 u + a6.

        Write u = n/d and v = m/e, reduced with monic denominators.  The
        equation is m^2 d^3 = e^2 N, where N = n^3 + a2 n^2 d + a4 n d^2
        + a6 d^3 is a polynomial.  As gcd(m, e) = 1, e^2 divides d^3; as
        gcd(N, d) = gcd(n^3, d) = 1, d^3 divides e^2.  Both are monic, so
        the equation holds exactly when e^2 = d^3 and m^2 = N.  The test
        forms neither m^2 d^3 nor e^2 N, and takes no gcd.
        """
        u, v = _rf(u), _rf(v)
        n, d, m, e = u.num, u.den, v.num, v.den
        d2 = d * d
        d3 = d2 * d
        if e * e != d3:
            return False
        return m * m == (((n + self.a2.num * d) * n + self.a4.num * d2) * n
                         + self.a6.num * d3)

    def infinity(self) -> "CurvePoint":
        return CurvePoint(self, None, None)

    def point(self, u, v) -> "CurvePoint":
        return CurvePoint(self, u, v)

    def __eq__(self, other):
        if not isinstance(other, WeierstrassModel):
            return NotImplemented
        return (self.a2, self.a4, self.a6) == (other.a2, other.a4, other.a6)

    def __hash__(self):
        return hash((self.a2, self.a4, self.a6))

    def __repr__(self):
        return "WeierstrassModel(a2=%s, a4=%s, a6=%s)" % (
            self.a2, self.a4, self.a6)


class CurvePoint:
    """A point of a Weierstrass model over the function field."""

    __slots__ = ("model", "u", "v")

    def __init__(self, model, u, v):
        object.__setattr__(self, "model", model)
        if u is None and v is None:
            object.__setattr__(self, "u", None)
            object.__setattr__(self, "v", None)
            return
        u, v = _rf(u), _rf(v)
        if not model.contains(u, v):
            raise ValueError("point is not on the curve: u=%s v=%s" % (u, v))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, *a):
        raise AttributeError("CurvePoint is immutable")

    @property
    def is_infinity(self) -> bool:
        return self.u is None

    def __neg__(self):
        if self.is_infinity:
            return self
        return CurvePoint(self.model, self.u, -self.v)

    def __add__(self, other):
        if not isinstance(other, CurvePoint) or other.model != self.model:
            return NotImplemented
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        m = self.model
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        if u1 == u2:
            if v1 == -v2:
                return m.infinity()
            lam = (3 * u1 ** 2 + 2 * m.a2 * u1 + m.a4) / (2 * v1)
        else:
            lam = (v2 - v1) / (u2 - u1)
        # a square is reduced as it stands, so ** takes no gcd where * would
        u3 = lam ** 2 - m.a2 - u1 - u2
        v3 = lam * (u1 - u3) - v1
        return CurvePoint(m, u3, v3)

    def __sub__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (-n) * (-self)
        out = self.model.infinity()
        base = self
        while True:
            if n & 1:
                out = out + base
            n >>= 1
            if not n:
                return out
            base = base + base

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.model == other.model and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return "CurvePoint(u=%s, v=%s)" % (self.u, self.v)


@lru_cache(maxsize=1)
def family_model() -> WeierstrassModel:
    """The Weierstrass form of the fibration of the matrix surface."""
    t = Polynomial.gen()
    e2 = 8 * t * (t * t - 1)
    e3 = (t * t - 1) * (t + 2) ** 2
    return WeierstrassModel(-(e2 + e3), e2 * e3, 0)


# -- Kodaira fiber classification ---------------------------------------------


# Kodaira's table (Kodaira 1963; Tate's algorithm): each type by the sorted
# multiplicities of its components, the null vector of its affine Dynkin
# diagram.  I_n has n 1s (I0 one), I_n* four 1s and n + 1 2s, and the types
# below have, by Ogg's formula, delta = (number of components) + 1.
_ADDITIVE = {"II": (1,), "III": (1, 1), "IV": (1, 1, 1),
             "IV*": (1, 1, 1, 2, 2, 2, 3), "III*": (1, 1, 2, 2, 2, 3, 3, 4),
             "II*": (1, 2, 2, 3, 3, 4, 4, 5, 6)}


class LocalFiber:
    """One fiber of an elliptic surface: its place, its Kodaira kind and n
    (I_n, I_n*), the printed symbol, its components' multiplicities in
    Kodaira's table, how many components and simple ones there are, and
    delta, the minimal discriminant's order, which the Euler number sums."""

    __slots__ = ("place", "symbol", "kind", "n", "multiplicities",
                 "components", "simple", "delta")

    def __init__(self, place, kind, n, delta):
        if kind == "I":
            mult, symbol = (1,) * max(n, 1), "I%d" % n
        elif kind == "I*":
            mult, symbol = (1,) * 4 + (2,) * (n + 1), "I%d*" % n
        elif kind in _ADDITIVE:
            mult, symbol = _ADDITIVE[kind], kind
        else:
            raise ValueError("unknown Kodaira fiber type %r" % (kind,))
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "multiplicities", mult)
        object.__setattr__(self, "components", len(mult))
        object.__setattr__(self, "simple", mult.count(1))
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, *a):
        raise AttributeError("LocalFiber is immutable")

    def __repr__(self):
        return "LocalFiber(%s at %s)" % (self.symbol, self.place)


def _leading_term(f: RationalFunction, place, w: int, k: int):
    """(order, leading coefficient) at a place of f of weight w (u is 2, v
    is 3, a_i is i), in the local coordinate: t - r at a rational place r,
    and s = 1/t at infinity, where f is twisted to s^(w k) f(1/s).  The
    zero function gives (_BIG, 0)."""
    if f.is_zero:
        return _BIG, 0
    if place == INFINITE_PLACE:
        return w * k - f.degree(), f.num.lead()  # the denominator is monic
    (a, x), (b, y) = f.num.lead_at(place), f.den.lead_at(place)
    return a - b, x / y


def twist_weight(model: WeierstrassModel) -> int:
    """The least k >= 0 with deg a_i <= i k: the twist
    a_i(t) -> s^(i k) a_i(1/s) makes the model integral at s = 1/t = 0."""
    k = 0
    for i, a in ((2, model.a2), (4, model.a4), (6, model.a6)):
        if not a.is_zero:
            k = max(k, -(-a.degree() // i))
    return k


def fiber_at(model: WeierstrassModel, place) -> LocalFiber:
    """Kodaira type of the fiber at a rational place, or at infinity.

    Residue characteristic zero, so Tate's algorithm needs only the
    valuations alpha, beta, delta of c4, c6 and Delta, read off the global
    model.  Rescaling a_i by the uniformizer^(-i) lowers them by 4, 6 and
    12, m times for the largest m all three allow: the model is minimal.
    The coefficients are polynomials, so m is never negative.
    """
    if place != INFINITE_PLACE:
        place = Fraction(place)
    k = twist_weight(model)
    c4, c6 = model.c_invariants()
    alpha, beta, delta = (_leading_term(f, place, w, k)[0] for f, w in
                          ((c4, 4), (c6, 6), (model.discriminant(), 12)))
    m = min(alpha // 4, beta // 6, delta // 12)
    alpha, beta, delta = alpha - 4 * m, beta - 6 * m, delta - 12 * m
    if alpha == 0 or delta == 0:
        return LocalFiber(place, "I", delta, delta)
    if delta == 6 or (alpha, beta) == (2, 3):
        return LocalFiber(place, "I*", delta - 6, delta)
    for kind, mult in _ADDITIVE.items():
        if delta == len(mult) + 1:
            return LocalFiber(place, kind, 0, delta)
    raise ArithmeticError("unclassifiable fiber at %s: "
                          "alpha=%s beta=%s delta=%s" % (place, alpha, beta, delta))


@lru_cache(maxsize=8)
def tate_classify(model: WeierstrassModel) -> tuple:
    """All singular fibers of the model, finite rational places first
    (sorted), then infinity.  Raises if the discriminant has an irrational
    factor (residue field extensions are not implemented)."""
    poly = model.discriminant().as_polynomial()
    roots = rational_roots(poly)
    if sum(poly.lead_at(r)[0] for r in roots) != poly.degree:
        raise NotImplementedError(
            "discriminant has a nonrational factor; residue field "
            "extensions are not implemented")
    fibers = (fiber_at(model, r) for r in sorted(roots) + [INFINITE_PLACE])
    return tuple(fib for fib in fibers if fib.delta > 0)


def euler_number(model: WeierstrassModel) -> int:
    """Sum of the local discriminant valuations, infinity included.
    Equals 12 chi(O) for a relatively minimal elliptic surface; 24 here."""
    return sum(f.delta for f in tate_classify(model))


def shioda_tate_rank(model: WeierstrassModel, mw_rank: int) -> int:
    """Picard number from fiber data and a Mordell-Weil rank."""
    return 2 + mw_rank + sum(f.components - 1 for f in tate_classify(model))


# -- sections of the matrix surface fibration ---------------------------------


def named_sections():
    """The distinguished sections, as parametrizations with x = t a.

    O is the zero section, T1 and T2 are 2-torsion, P generates an
    infinite cyclic subgroup, and Q is defined over Q(sqrt 3) and maps to
    its own negative under conjugation.
    """
    t = Polynomial.gen()
    rt3 = SQRT3
    minus2 = Polynomial([-2])
    O = Parametrization(t ** 2, 2 - t ** 2, minus2, t, -t, 2 - t ** 2)
    P = Parametrization(t ** 2, 2 - t ** 2, minus2, t, t ** 2 - 2, t)
    T1 = Parametrization(t ** 2, 2 - t ** 2, minus2, t, t, t ** 2 - 2)
    T2 = Parametrization(t ** 2, minus2, 2 - t ** 2, t, 2 - t ** 2, -t)
    Q = Parametrization(
        2 * t ** 2 - rt3 * t,
        2 - rt3 * t,
        -2 + 2 * rt3 * t - 2 * t ** 2,
        2 * t - rt3,
        -1 + rt3 * t - t ** 2,
        2 * t - rt3 * t ** 2,
    )
    return {"O": O, "P": P, "T1": T1, "T2": T2, "Q": Q}


# The fiber map.  An adapted section (x = t a) is read on the chart a = 1,
# x = t through its slope nu = (x - c)/(a + b), reduced once to n/d.  The
# rest is polynomial in (n, d):
#
#     lam_n = (t^2 - 4) n + 3 t d,        k = t (n^2 + d^2) - 2 n d,
#     s = lam_n^2 + t (t^2 - 1)(t + 8) d^2,
#
# and the Weierstrass point (u, v) of the section is
#
#     2 u d^2 = (t^2 - 4) k (z - y)/a + s,
#     v = (lam_n / d)(u - u0) + v0:
#
# (u, v) is the other point of the curve on the chord of slope
# lam = lam_n / d through the base point (u0, v0) = (4(t-1)(t+1)^2,
# -4t(t^2-1)^2).  Where a numerator is known to be divisible by part of its
# denominator, that part is cancelled first: gcd_cofactors settles a
# dividing argument by one exact division, while a single reduction would
# rebuild a gcd of most of the denominator's degree prime by prime.


@lru_cache(maxsize=1)
def _base_point():
    t = Polynomial.gen()
    return 4 * (t - 1) * (t + 1) ** 2, -4 * t * (t * t - 1) ** 2


@lru_cache(maxsize=1)
def _slope_constants():
    """t, t^2 - 4, 3t and t (t^2 - 1)(t + 8): the fixed factors above."""
    t = Polynomial.gen()
    return t, t * t - 4, 3 * t, t * (t * t - 1) * (t + 8)


def _slope_terms(n: Polynomial, d: Polynomial):
    """(lam_n, k, s) of the reduced slope n/d, as above."""
    t, t2_4, t3, c = _slope_constants()
    lam_n = t2_4 * n + t3 * d
    dd = d * d
    k = t * (n * n + dd) - 2 * n * d
    return lam_n, k, lam_n ** 2 + c * dd


def param_to_point(par: Parametrization) -> CurvePoint:
    """Point of the family model of a section parametrization.

    The section must be in fibration-adapted form, meaning x = t a
    identically, or ValueError is raised.  The zero section (a + b = 0)
    maps to the point at infinity, and a = 0 raises ValueError.

    nu = n/d and q = (z - y)/a are reduced once each.  Then
    u = ((t^2 - 4) k q.num + s q.den)/(2 q.den d^2), where q.den divides
    the numerator on every section, and v = (lam_n (u - u0) + v0 d)/d by
    the chord identity above, which holds for any section.  CurvePoint
    still checks that (u, v) lies on the curve.
    """
    model = family_model()
    t = Polynomial.gen()
    if par.x != t * par.a:
        raise ValueError("parametrization is not fibration-adapted (x != t a)")
    if (par.a + par.b).is_zero:
        return model.infinity()
    if par.a.is_zero:
        raise ValueError("a vanishes identically; the fiber map is undefined")
    nu = RationalFunction(par.x - par.c, par.a + par.b)
    n, d = nu.num, nu.den
    q = RationalFunction(par.z - par.y, par.a)
    lam_n, k, s = _slope_terms(n, d)
    u = RationalFunction((t * t - 4) * k * q.num + s * q.den,
                         q.den) / (2 * d * d)
    u0, v0 = _base_point()
    v = RationalFunction(lam_n * (u.num - u0 * u.den) + v0 * d * u.den,
                         d * u.den)
    return CurvePoint(model, u, v)


def _clear_denominators(comps):
    """Scale rational-function components by the monic lcm of their
    denominators, which makes all of them polynomials."""
    lcm = Polynomial._lift(1)
    for c in comps:
        lcm = lcm * gcd_cofactors(lcm, c.den)[2]
    return [(c * RationalFunction(lcm)).as_polynomial() for c in comps]


def point_to_param(pt: CurvePoint) -> Parametrization:
    """Section parametrization of a Weierstrass point of the family model.

    Inverts param_to_point on the chart a = 1, x = t; the point at
    infinity gives the zero section O.  The chord slope
    lam = (v - v0)/(u - u0) gives nu = (lam - 3t)/(t^2 - 4) = n/d, reduced.
    Then, with P/R reduced,

        z - y = P/R = (2 u d^2 - s)/((t^2 - 4) k),    y + z = -t,
        y z = (t^2 R^2 - P^2)/(4 R^2).

    Put w = t d - n.  Then c = (w - n b)/d, and the surface equations are
    two quadratics in b:

        f2 = (1 + nu^2) b^2 - 2 nu (w/d) b + (w/d)^2 + 1 - t^2 + y z,
        f3 = 2 nu b^2 - 2 (w/d) b + t y z.

    2 nu f2 - (1 + nu^2) f3 is linear in b, so

        b = (d k (t^2 R^2 - P^2) - 8 n R^2 (w^2 + (1 - t^2) d^2))
            / (8 R^2 w (d^2 - n^2)),

    where w (d^2 - n^2) and then R divide the numerator on every section.
    c is one more reduction.  The components are cleared of denominators
    and normalized, and the result must pass verify() and the round trip
    through param_to_point.

    The map is undefined, and raises, where
    - u - u0 = 0 identically: ValueError.  Two sections of the family,
      +-P + T1 + T2, are genuinely outside this chart.
    - k = 0 identically: ValueError, a chart degeneracy.  Over a real
      field k has degree 1 + 2 max(deg n, deg d), so this is a guard.
    - w (d^2 - n^2) = 0 identically, that is nu in {t, 1, -1}:
      ArithmeticError.  No section has such a slope.  These nu fix lam to
      t^3 - t, t^2 + 3t - 4 or -t^2 + 3t + 4, and the chord of that slope
      through (u0, v0) meets the curve again where a quadratic in u has a
      discriminant that is not a square over the algebraic closure of
      Q(t) (for nu = t it is t^12 - 2t^10 - 47t^8 + 224t^6 - 304t^4
      + 128t^2).  So no point of the curve over Q-bar(t) other than the
      base point lies on it.
    """
    if pt.model != family_model():
        raise ValueError("point is not on the family model")
    if pt.is_infinity:
        return named_sections()["O"]
    t = Polynomial.gen()
    T = RationalFunction(t)
    u0, v0 = _base_point()
    den = pt.u - u0
    if den.is_zero:
        raise ValueError("inversion denominator identically zero; "
                         "this section is outside the chart")
    lam = (pt.v - v0) / den
    nu = (lam - 3 * T) / (T * T - 4)
    n, d = nu.num, nu.den
    lam_n, k, s = _slope_terms(n, d)
    if k.is_zero:
        raise ValueError("chart degeneracy: the component denominator vanishes")
    w = t * d - n
    dd, nn = d * d, n * n
    if (w * (dd - nn)).is_zero:
        raise ArithmeticError("nu is t, 1 or -1; no section has this slope")
    un, ud = pt.u.num, pt.u.den
    zy = RationalFunction(2 * un * dd - ud * s, ud * (t * t - 4) * k)
    p, r = zy.num, zy.den
    rr = r * r
    b = RationalFunction(
        d * k * (t * t * rr - p * p) - 8 * n * rr * (w * w + (1 - t * t) * dd),
        w * (dd - nn)) / r / r / 8
    c = RationalFunction(w * b.den - n * b.num, d * b.den)
    y = RationalFunction(-(t * r + p), 2 * r)
    z = RationalFunction(p - t * r, 2 * r)
    comps = _clear_denominators([T, y, z, RationalFunction(1), b, c])
    par = Parametrization(*comps).normalized()
    if not par.verify():
        raise ArithmeticError("inverted parametrization fails verification")
    if param_to_point(par) != pt:
        raise ArithmeticError("round trip failed")
    return par
