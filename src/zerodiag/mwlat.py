"""Heights and the Mordell-Weil lattice of the family fibration.

The canonical height pairing of sections is computed exactly from
intersection data by Shioda's formula

    <S,T> = chi + (S.O) + (T.O) - (S.T) - sum_v contr_v(S,T)

(the surface has chi = 2).  (S.O) needs only pole degrees of the
u-coordinate.  (S.S) = -chi, and for T != S, (S.T) is reduced to ((S-T).O)
through translation by a section, which extends to an automorphism of the
relatively minimal elliptic surface.  The correction terms contr_v need to
know which fiber component a section hits.  That is decided from the first
terms of truncated power series of a2, a4, a6, u and v in the local
coordinate of each bad place (curve.local_series), checked against the
Weierstrass equation to the working precision; no local model is built.  At
a multiplicative place the node of the Weierstrass cubic is lifted to a
series root of g' (plain evaluation at the place is not enough, because a
section can agree with the node to higher order), and the component is read
from the order a of u - node and the slope v[a] / (u - node)[a], a square
root of the constant term of a2 + 3 node.  On an I0* fiber it is the linear
term of u minus the triple root.  section_component keeps each answer per
(section, fiber) in one bounded cache, so height_pairing and height_gram
hold no memo of their own.

Also here: the torsion sections, the two-descent style saturation
argument for the full Mordell-Weil lattice, and the certificates of
both that the command line tool prints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from types import MappingProxyType

from .exactnum import (
    Certificate,
    PoleError,
    Polynomial,
    RationalFunction,
    Series,
    field_sqrt,
    newton_steps,
    poly_gcd,
    poly_sqrt,
)
from .curve import (
    CurvePoint,
    euler_number,
    family_model,
    local_series,
    named_sections,
    param_to_point,
    shioda_tate_rank,
    tate_classify,
    twist_weight,
)
from .lattice import signature

CHI = 2  # holomorphic Euler characteristic of the surface


# -- local fiber geometry -------------------------------------------------------


@lru_cache(maxsize=64)
def _model_series(model, place, prec: int):
    """Series (a2, a4, a6) of the model in the local coordinate of a place
    (see curve.local_series).  Like the node, they depend only on the model
    and the place, so each place expands them once."""
    k = twist_weight(model)
    return tuple(local_series(a, place, i, k, prec) for i, a in
                 ((2, model.a2), (4, model.a4), (6, model.a6)))


@lru_cache(maxsize=64)
def _place_node(model, place, prec: int) -> Series:
    """_node_series at a multiplicative place of the model."""
    return _node_series(*_model_series(model, place, prec))


def _local_expansion(pt: CurvePoint, place, prec: int):
    """Series (a2, a4, a6, u, v) of the model and a section in the local
    coordinate of a place (see curve.local_series).  u and v are None when
    the section has a pole there, so it meets the identity component.
    Raises ArithmeticError unless v^2 = u^3 + a2 u^2 + a4 u + a6 holds to
    precision prec."""
    k = twist_weight(pt.model)
    a2, a4, a6 = _model_series(pt.model, place, prec)
    try:
        u = local_series(pt.u, place, 2, k, prec)
        v = local_series(pt.v, place, 3, k, prec)
    except PoleError:
        return a2, a4, a6, None, None
    if not (v * v - ((u + a2) * u + a4) * u - a6).is_zero():
        raise ArithmeticError("section is off the model at %s" % (place,))
    return a2, a4, a6, u, v


def _node_series(a2: Series, a4: Series, a6: Series) -> Series:
    """The node of a multiplicative fiber, lifted to a series: the critical
    point of the cubic near the double root of its reduction."""
    prec = a2.prec
    # double root of the reduced cubic
    g0 = Polynomial([a6[0], a4[0], a2[0], 1])
    dbl = poly_gcd(g0, g0.derivative())
    if dbl.degree != 1:
        raise ArithmeticError("fiber is not a node")
    root = -dbl[0] / dbl[1]
    u = Series.constant(root, prec)
    for _ in range(newton_steps(prec)):
        gp = 3 * u * u + 2 * a2 * u + a4
        gpp = 6 * u + 2 * a2
        u = u - gp / gpp
    gp = 3 * u * u + 2 * a2 * u + a4
    if not gp.is_zero():
        raise ArithmeticError("node lift did not converge")
    return u


class ComponentRef:
    """Which component of a bad fiber a section hits.

    kind 'identity' (index None), 'cycle' (index 1..n-1 on an I_n fiber,
    orientation fixed per place), or 'far' (index = the root label on an
    I0* fiber)."""

    __slots__ = ("place", "symbol", "kind", "index")

    def __init__(self, place, symbol, kind, index):
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    def __setattr__(self, *a):
        raise AttributeError("ComponentRef is immutable")

    def __repr__(self):
        return "ComponentRef(%s@%s: %s %s)" % (
            self.symbol, self.place, self.kind, self.index)


def _identity(fiber):
    return ComponentRef(fiber.place, fiber.symbol, "identity", None)


@lru_cache(maxsize=64)
def section_component(pt: CurvePoint, fiber) -> ComponentRef:
    """Component of the fiber hit by a section; the one memo of components,
    bounded to hold the 5 x 6 of the largest Gram the command line prints."""
    if pt.is_infinity:
        return _identity(fiber)
    if fiber.kind == "I":
        return _component_on_In(
            _local_expansion(pt, fiber.place, fiber.n // 2 + 1), fiber,
            pt.model)
    if fiber.kind == "I*" and fiber.n == 0:
        return _component_on_I0star(_local_expansion(pt, fiber.place, 4), fiber)
    if fiber.kind in ("II", "II*"):
        return _identity(fiber)  # single simple component
    raise NotImplementedError(
        "component identification on a %s fiber is not implemented"
        % fiber.symbol)


def _component_on_In(expansion, fiber, model) -> ComponentRef:
    """Component of an I_n fiber met by a section, from the order a of
    du = u - u0 (u0 the node series) and the slope s = v[a] / du[a]:
    a = 0 is the identity component, 2a >= n the middle one n/2, and
    otherwise s = +root0 gives n - a and s = -root0 gives a, root0 the
    square root of A(0) that field_sqrt takes, A = a2 + 3 u0.

    Why: with g the cubic, v^2 = g(u0) + (A + du) du^2, and
    ord g(u0) = ord disc = n, since disc = -16 g(u0) (4 A^3 + 27 g(u0))
    with A a unit at a multiplicative place.  So
    (v - beta du)(v + beta du) = g(u0) for the series beta^2 = A + du
    with beta(0) = root0.  If 2a < n, v has order a and slope s = +-root0;
    one factor has order a and the other n - a, and the first factor
    drops to order n - a exactly when s = +root0.  Its order is the
    component index.  For odd n, 2a >= n cannot happen: v^2 would have
    the odd order n.  The precision n // 2 + 1 reaches every coefficient
    read."""
    a2, _, _, u_s, v_s = expansion
    if u_s is None:
        return _identity(fiber)  # section meets the fiber at infinity
    n = fiber.n
    u0 = _place_node(model, fiber.place, u_s.prec)
    du = u_s - u0
    a = du.ord()
    if a == 0:
        return _identity(fiber)  # misses the node
    if 2 * a >= n:
        return ComponentRef(fiber.place, fiber.symbol, "cycle", n // 2)
    root0 = field_sqrt(a2[0] + 3 * u0[0])
    s = v_s[a] / du[a]
    if root0 is None or s not in (root0, -root0):
        raise ArithmeticError("section slope at the node is not +-root0")
    k = n - a if s == root0 else a
    return ComponentRef(fiber.place, fiber.symbol, "cycle", k)


def _component_on_I0star(expansion, fiber) -> ComponentRef:
    """Component of an I0* fiber met by a section: the identity one if u
    misses the triple root ubar of the reduced cubic, else the far one
    labelled by lambda = du[1], du = u - ubar.

    The label is a root of the rescaled cubic c: in the local coordinate
    e, g(ubar + du) = e^3 c(lambda) + O(e^4), and _local_expansion has
    checked v^2 = g(u) to order 3.  That makes ord v >= 2, so the e^3
    term c(lambda) vanishes; otherwise v^2 would have the odd order 3."""
    a2, _, _, u_s, _ = expansion
    if u_s is None:
        return _identity(fiber)
    ubar = -a2[0] / 3  # triple root of the reduced cubic
    du = u_s - Series.constant(ubar, u_s.prec)
    if du.ord() == 0:
        return _identity(fiber)
    return ComponentRef(fiber.place, fiber.symbol, "far", du[1])


def local_contribution(fiber, ref_s: ComponentRef, ref_t: ComponentRef) -> Fraction:
    """Correction term contr_v(S, T) of one bad fiber to the height
    pairing; the diagonal term contr_v(S) is contr_v(S, S)."""
    if ref_s.kind == "identity" or ref_t.kind == "identity":
        return Fraction(0)
    if fiber.kind == "I":
        n = fiber.n
        i, j = sorted((ref_s.index, ref_t.index))
        return Fraction(i * (n - j), n)
    if fiber.kind == "I*" and fiber.n == 0:
        if ref_s.index == ref_t.index:
            return Fraction(1)
        return Fraction(1, 2)
    raise NotImplementedError("no contribution rule for %s" % fiber.symbol)


# -- intersection numbers and heights --------------------------------------------


def intersection_with_zero(pt: CurvePoint) -> Fraction:
    """(S.O): intersection number of a section with the zero section.

    Equals half the degree of the polar divisor of u_S, the place at
    infinity weighted through the twisted model there.  No factorization
    needed: irrational poles are counted by their degree.
    """
    if pt.is_infinity:
        raise ValueError("(O.O) is handled by the height formulas directly")
    k = twist_weight(pt.model)
    u = pt.u
    if u.is_zero:
        return Fraction(0)
    finite = u.den.degree
    at_inf = max(0, u.degree() - 2 * k)
    return Fraction(finite + at_inf, 2)


def mutual_intersection(s: CurvePoint, t: CurvePoint) -> Fraction:
    """(S.T) for distinct sections, via translation: (S.T) = ((S-T).O)."""
    if s == t:
        raise ValueError("(S.S) is not computed here; use the height formulas")
    d = s - t
    if d.is_infinity:
        raise ValueError("sections are equal")
    return intersection_with_zero(d)


def height_pairing(s: CurvePoint, t: CurvePoint = None) -> Fraction:
    """Canonical height pairing of sections of the family fibration; the
    height of s when t is None or s."""
    diagonal = t is None or t == s
    if diagonal:
        t = s
    if s.is_infinity or t.is_infinity:
        return Fraction(0)
    total = (Fraction(CHI) + intersection_with_zero(s)
             + intersection_with_zero(t)
             - (-CHI if diagonal else mutual_intersection(s, t)))
    for fib in tate_classify(family_model()):
        ref_s = section_component(s, fib)
        total -= local_contribution(
            fib, ref_s, ref_s if diagonal else section_component(t, fib))
    return total


def height_gram(points) -> list:
    """Gram matrix of the height pairing, from height_pairing on the upper
    triangle; section_component's cache serves each section's component
    at each bad fiber to the diagonal and the mixed terms alike."""
    pts = list(points)
    n = len(pts)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = height_pairing(pts[i], None if i == j else pts[j])
            out[i][j] = out[j][i] = val
    return out


# -- torsion and saturation -------------------------------------------------------


@lru_cache(maxsize=1)
def torsion_points():
    """The four torsion sections, read-only: O, the two marked 2-torsion
    sections and their sum.  That this is the whole torsion subgroup uses
    the imported fact that the torsion order divides 4."""
    model = family_model()
    secs = named_sections()
    t1 = param_to_point(secs["T1"])
    t2 = param_to_point(secs["T2"])
    return MappingProxyType(
        {"O": model.infinity(), "T1": t1, "T2": t2, "T1+T2": t1 + t2})


def is_square_in_function_field(rf: RationalFunction) -> bool:
    """Squareness of u in the function field over the algebraic closure of
    the constants: the monic numerator and the denominator must be squares.
    A monic polynomial that is a square over the algebraic closure has its
    monic root over its own coefficient field already (the root's
    coefficients follow from the top one down by field operations), so
    poly_sqrt decides it."""
    if rf.is_zero:
        return True
    return (poly_sqrt(rf.num.monic()) is not None
            and poly_sqrt(rf.den) is not None)


def torsion_certificate() -> Certificate:
    """The order and structure of the torsion subgroup the marked
    2-torsion sections generate, and the heights of its elements."""
    tors = torsion_points()
    order = len(set(tors.values()))
    facts = [("torsion.order", order)]
    killed_by_2 = all((2 * p).is_infinity for p in tors.values())
    closed = all((a + b) in tors.values()
                 for a in tors.values() for b in tors.values())
    # a finite set closed under addition is a subgroup, and a group of
    # order 2^k in which 2p = O for all p is (Z/2)^k
    if killed_by_2 and closed and order & (order - 1) == 0:
        structure = "(Z/2)^%d" % (order.bit_length() - 1)
    else:
        structure = "not an elementary abelian 2-group"
    facts.append(("torsion.structure", structure))
    heights = {name: height_pairing(p) for name, p in tors.items()
               if not p.is_infinity}
    facts += [("height." + name, h) for name, h in heights.items()]
    # the heights of T1 and T2 are claims of their own
    return Certificate(
        "torsion", facts,
        imported=["the torsion order divides 4"],
        ok=heights["T1+T2"] == 0)


def saturation_certificate() -> Certificate:
    """Saturation of the rank-two sublattice spanned by the two marked
    infinite-order sections.

    The index n of the span inside the full Mordell-Weil lattice has n^2
    dividing disc, the discriminant of the integral rescaled Gram (4 times
    the quarter-integral heights).  An even n would make some
    (aP + bQ + T) / 2 a section.  Halving P or Q alone is ruled out by
    h / 4 lying outside (1/4) Z, and halving P + Q because u(P + Q + T) is
    a nonsquare in the function field for every torsion T.  So n is odd,
    and n = 1 when no odd square above 1 divides disc.
    """
    secs = named_sections()
    p = param_to_point(secs["P"])
    q = param_to_point(secs["Q"])
    tors = torsion_points()
    gram = height_gram([p, q])
    # exact: a height outside (1/4) Z must show, not truncate to an integer
    scaled = [[4 * gram[i][j] for j in range(2)] for i in range(2)]
    disc = scaled[0][0] * scaled[1][1] - scaled[0][1] * scaled[1][0]
    facts = [
        ("height.PP", gram[0][0]),
        ("height.QQ", gram[1][1]),
        ("height.PQ", gram[0][1]),
        ("lattice.scaled_gram", tuple(map(tuple, scaled))),
        ("lattice.scaled_disc", disc),
    ]
    # halving P or Q alone: a half-point has height h / 4, in (1/4) Z
    # when the scaled entry 4 h is divisible by 4; an entry outside Z
    # already contradicts quarter-integrality
    parity_ok = all(x.denominator == 1 and x % 4
                    for x in (scaled[0][0], scaled[1][1]))
    base = p + q
    blocked = tuple(sorted(name for name, t in tors.items()
                           if not is_square_in_function_field((base + t).u)))
    facts.append(("halving.sum_blocked_for", blocked))
    # the index n is odd once every way to halve is ruled out, and n^2
    # divides disc; None: undecided
    halving_ok = parity_ok and len(blocked) == len(tors)
    facts.append(("lattice.index",
                  1 if halving_ok and _no_odd_square_factor(disc) else None))
    facts.append(("lattice.rank", len(gram) - signature(gram)[2]))
    return Certificate(
        "saturation", facts,
        imported=["the torsion order divides 4",
                  "quarter-integrality of the height pairing"],
        ok=halving_ok)


def _no_odd_square_factor(disc) -> bool:
    """disc is a positive integer that no odd square above 1 divides."""
    if disc <= 0 or disc.denominator != 1:
        return False
    odd = int(disc) // (int(disc) & -int(disc))
    return all(odd % (k * k) for k in range(3, isqrt(odd) + 1, 2))


def rank_formula_certificate() -> Certificate:
    """The Euler number, and the Picard number from the fiber table and
    Mordell-Weil rank 2 by the Shioda-Tate formula."""
    model = family_model()
    return Certificate("rank-formula", [
        ("fibers.component_excess",
         sum(f.components - 1 for f in tate_classify(model))),
        ("euler.number", euler_number(model)),
        ("picard.number", shioda_tate_rank(model, 2)),
    ])
