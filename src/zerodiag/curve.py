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
come from the orders of c4, c6 and Delta at the place.
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
    """v^2 = u^3 + a2 u^2 + a4 u + a6 with function-field coefficients."""

    __slots__ = ("a2", "a4", "a6", "_disc")

    def __init__(self, a2, a4, a6):
        object.__setattr__(self, "a2", _rf(a2))
        object.__setattr__(self, "a4", _rf(a4))
        object.__setattr__(self, "a6", _rf(a6))
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
        """Whether v^2 = u^3 + a2 u^2 + a4 u + a6, by cross-multiplication.

        With u = n/d and ai = pi/qi the right side is N/D over the common
        denominator D = d^3 q2 q4 q6, so the test is v.num^2 D == N v.den^2:
        polynomial products only, no gcd.
        """
        u, v = _rf(u), _rf(v)
        n, d = u.num, u.den
        (p2, q2), (p4, q4), (p6, q6) = (
            (a.num, a.den) for a in (self.a2, self.a4, self.a6))
        q = q2 * q4 * q6
        d2 = d * d
        # N = n^3 q + p2 q4 q6 n^2 d + p4 q2 q6 n d^2 + p6 q2 q4 d^3, by Horner
        big = (((q * n + p2 * q4 * q6 * d) * n + p4 * q2 * q6 * d2) * n
               + p6 * q2 * q4 * d2 * d)
        return v.num * v.num * (q * d2 * d) == big * (v.den * v.den)

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
            lam = (3 * u1 * u1 + 2 * m.a2 * u1 + m.a4) / (2 * v1)
        else:
            lam = (v2 - v1) / (u2 - u1)
        u3 = lam * lam - m.a2 - u1 - u2
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


class LocalFiber:
    """One fiber of an elliptic surface: its place, its Kodaira kind and n
    (I_n, I_n*), the printed symbol, the numbers of components and of
    simple components, and delta, the order of the minimal discriminant
    there, which the Euler number sums."""

    __slots__ = ("place", "symbol", "kind", "n", "components", "simple",
                 "delta")

    def __init__(self, place, kind, n, delta):
        m, m1, symbol = _fiber_shape(kind, n)
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", m)
        object.__setattr__(self, "simple", m1)
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, *a):
        raise AttributeError("LocalFiber is immutable")

    def __repr__(self):
        return "LocalFiber(%s at %s)" % (self.symbol, self.place)


def _fiber_shape(kind, n):
    """(component count, simple component count, printed symbol)."""
    if kind == "I":
        return max(n, 1), max(n, 1), "I%d" % n
    if kind == "I*":
        return n + 5, 4, "I%d*" % n
    shapes = {"II": (1, 1), "III": (2, 2), "IV": (3, 3),
              "IV*": (7, 3), "III*": (8, 2), "II*": (9, 1)}
    m, m1 = shapes[kind]
    return m, m1, kind


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
    12; it is done while all three allow it, so the model is minimal.
    """
    if place != INFINITE_PLACE:
        place = Fraction(place)
    k = twist_weight(model)
    c4, c6 = model.c_invariants()
    alpha, beta, delta = (_leading_term(f, place, w, k)[0] for f, w in
                          ((c4, 4), (c6, 6), (model.discriminant(), 12)))
    while alpha >= 4 and beta >= 6 and delta >= 12:
        alpha, beta, delta = (v if v == _BIG else v - d for v, d in
                              ((alpha, 4), (beta, 6), (delta, 12)))
    if delta == 0:
        return LocalFiber(place, "I", 0, delta)
    if alpha == 0:
        return LocalFiber(place, "I", delta, delta)
    if delta == 2:
        return LocalFiber(place, "II", 0, delta)
    if delta == 3:
        return LocalFiber(place, "III", 0, delta)
    if delta == 4:
        return LocalFiber(place, "IV", 0, delta)
    if delta == 6:
        return LocalFiber(place, "I*", 0, delta)
    if alpha == 2 and beta == 3:
        return LocalFiber(place, "I*", delta - 6, delta)
    if delta == 8:
        return LocalFiber(place, "IV*", 0, delta)
    if delta == 9:
        return LocalFiber(place, "III*", 0, delta)
    if delta == 10:
        return LocalFiber(place, "II*", 0, delta)
    raise ArithmeticError("unclassifiable fiber at %s: "
                          "alpha=%s beta=%s delta=%s" % (place, alpha, beta, delta))


def bad_places(model: WeierstrassModel):
    """Rational places where the discriminant vanishes, plus infinity if
    the fiber there is not smooth.  Raises if the discriminant has an
    irrational factor (residue field extensions are not implemented)."""
    dlt = model.discriminant()
    if not dlt.is_polynomial():
        raise NotImplementedError("discriminant with denominator")
    poly = dlt.as_polynomial()
    roots = rational_roots(poly)
    rebuilt = Polynomial([1])
    for r in roots:
        rebuilt = rebuilt * Polynomial([-r, 1]) ** poly.lead_at(r)[0]
    if rebuilt.degree != poly.degree:
        raise NotImplementedError(
            "discriminant has a nonrational factor; residue field "
            "extensions are not implemented")
    places = sorted(roots)
    inf = fiber_at(model, INFINITE_PLACE)
    return places, inf


@lru_cache(maxsize=8)
def tate_classify(model: WeierstrassModel) -> tuple:
    """All singular fibers of the model, finite rational places first
    (sorted), then infinity."""
    places, inf_fiber = bad_places(model)
    fibers = [fiber_at(model, r) for r in places] + [inf_fiber]
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


def param_to_point(par: Parametrization) -> CurvePoint:
    """Point of the family model of a section parametrization.

    The section must be in fibration-adapted form, meaning x = t a
    identically.  The zero section (characterized by a + b = 0) maps to
    the point at infinity.
    """
    model = family_model()
    t = Polynomial.gen()
    if par.x != t * par.a:
        raise ValueError("parametrization is not fibration-adapted (x != t a)")
    if (par.a + par.b).is_zero:
        return model.infinity()
    x, y, z, a, b, c = (RationalFunction(p) for p in par.components())
    T = RationalFunction(t)
    nu = (x - c) / (a + b)
    lam = (T * T - 4) * nu + 3 * T
    mu = T * (T * T - 4) * (z - y) * (T * nu * nu - 2 * nu + T) / x
    u = (mu + lam * lam + T * (T * T - 1) * (T + 8)) / 2
    v = (mu * lam + lam ** 3 + (T * T - 1) * (T * T - 8) * lam
         - 8 * T * (T * T - 1) ** 2) / 2
    return CurvePoint(model, u, v)


def _clear_denominators(comps):
    """Scale rational-function components by a common polynomial to make
    all of them polynomials."""
    lcm = Polynomial([1])
    for c in comps:
        lcm = lcm * gcd_cofactors(lcm, c.den)[2]
    return [(c * RationalFunction(lcm)).as_polynomial() for c in comps]


def point_to_param(pt: CurvePoint) -> Parametrization:
    """Section parametrization of a Weierstrass point of the family model.

    Inverts param_to_point with rational functions only.  Raises
    ValueError when the inversion denominator u - 4(t-1)(t+1)^2 vanishes
    identically (two sections of the family are genuinely outside this
    chart).

    With a = 1, x = t, w = t - nu and c = w - nu b, the surface equations
    are two quadratics in b:

        f2 = (1 + nu^2) b^2 - 2 nu w b + w^2 + 1 + t y + y z + z t,
        f3 = 2 nu b^2 - 2 w b + t y z,

    and 2 nu f2 - (1 + nu^2) f3 = 2 w (1 - nu^2) b + 2 nu (w^2 + 1 + t y
    + y z + z t) - (1 + nu^2) t y z is linear in b, so b is read off it.
    Its divisor vanishes only for nu in {t, 1, -1}, where ArithmeticError
    is raised; no section reaches them.  Those nu fix the slope
    lam = (t^2 - 4) nu + 3t of the line through the base point
    (u0, v0) = (4(t-1)(t+1)^2, -4t(t^2-1)^2) to t^3 - t, t^2 + 3t - 4 or
    -t^2 + 3t + 4, and that line meets the curve again where a quadratic
    in u has a discriminant that is not a square over the algebraic
    closure of Q(t) (for nu = t it is t^12 - 2t^10 - 47t^8 + 224t^6
    - 304t^4 + 128t^2), so no point of the curve over Q-bar(t) other
    than the base point lies on it.
    """
    if pt.model != family_model():
        raise ValueError("point is not on the family model")
    t = Polynomial.gen()
    T = RationalFunction(t)
    if pt.is_infinity:
        return named_sections()["O"]
    den = pt.u - 4 * (T - 1) * (T + 1) ** 2
    if den.is_zero:
        raise ValueError("inversion denominator identically zero; "
                         "this section is outside the chart")
    lam = (pt.v + 4 * T * (T * T - 1) ** 2) / den
    nu = (lam - 3 * T) / (T * T - 4)
    mu = 2 * pt.u - lam * lam - T * (T * T - 1) * (T + 8)
    den2 = (T * T - 4) * (T * (nu * nu + 1) - 2 * nu)
    if den2.is_zero:
        raise ValueError("chart degeneracy: the component denominator vanishes")
    y = -(T + mu / den2) / 2
    z = -T - y
    w = T - nu
    divisor = 2 * w * (1 - nu * nu)
    if divisor.is_zero:
        raise ArithmeticError("nu is t, 1 or -1; no section has this slope")
    b = ((1 + nu * nu) * T * y * z
         - 2 * nu * (w * w + 1 + T * y + y * z + z * T)) / divisor
    comps = _clear_denominators(
        [T * 1, y, z, RationalFunction(1), b, w - nu * b])
    par = Parametrization(*comps).normalized()
    if not par.verify():
        raise ArithmeticError("inverted parametrization fails verification")
    if param_to_point(par) != pt:
        raise ArithmeticError("round trip failed")
    return par
