"""Heights and the Mordell-Weil lattice of the family fibration.

The canonical height pairing of sections is computed exactly from
intersection data by Shioda's formula

    <S,T> = chi + (S.O) + (T.O) - (S.T) - sum_v contr_v(S,T)

(the surface has chi = 2).  (S.O) needs only pole degrees of the
u-coordinate.  (S.S) = -chi, and for T != S, (S.T) is reduced to ((S-T).O)
through translation by a section, which extends to an automorphism of the
relatively minimal elliptic surface.  The correction terms contr_v need to
know which fiber component a section hits.  The model's 2-torsion is
rational, v^2 = u (u - e2)(u - e3), so that is read from the orders and
leading coefficients of u - e_i and v at each bad place
(curve._leading_term), with no local model and no series: which roots u
reduces to, how closely it follows them, and on I_n the sign of the slope
of v.  section_component keeps each answer per (section, fiber) in one
bounded cache, so height_pairing and height_gram hold no memo of their own.

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
    RationalFunction,
    field_sqrt,
    poly_sqrt,
)
from .curve import (
    INFINITE_PLACE,
    CurvePoint,
    _leading_term,
    euler_number,
    family_model,
    named_sections,
    param_to_point,
    shioda_tate_rank,
    tate_classify,
    twist_weight,
)
from .lattice import signature

CHI = 2  # holomorphic Euler characteristic of the surface


# -- local fiber geometry -------------------------------------------------------


@lru_cache(maxsize=8)
def _two_torsion(model) -> tuple:
    """The u-coordinates of the three points of order 2, which are rational
    when a6 = 0 and a2^2 - 4 a4 is a square: 0 and (-a2 +- sqrt)/2.  Each
    is checked by building the point (e, 0).  Raises NotImplementedError
    for any other model."""
    disc = (model.a2 * model.a2 - 4 * model.a4).num
    root = poly_sqrt(disc) if model.a6.is_zero else None
    if root is None:
        raise NotImplementedError(
            "fiber components are read from rational 2-torsion only")
    half = RationalFunction(root, 2)
    roots = (RationalFunction(0), -model.a2 / 2 + half, -model.a2 / 2 - half)
    for e in roots:
        model.point(e, 0)
    return roots


@lru_cache(maxsize=16)
def _two_torsion_at(model, place) -> tuple:
    """The pairs (e, e(place)) of the 2-torsion roots and their values at a
    place, in the local coordinate of curve._leading_term."""
    k = twist_weight(model)
    out = []
    for e in _two_torsion(model):
        order, lead = _leading_term(e, place, 2, k)
        out.append((e, lead if order == 0 else Fraction(0)))
    return tuple(out)


@lru_cache(maxsize=64)
def section_component(pt: CurvePoint, fiber):
    """Component of the fiber hit by a section: None for the identity
    component, the index 1..n-1 (an int, orientation fixed per place) on
    an I_n fiber, and on an I0* fiber the Fraction that labels the far
    component.  The one memo of components, bounded to hold the 5 x 6 of
    the largest Gram the command line prints.

    Read from orders and leading coefficients at the place
    (curve._leading_term).  The section meets the identity component
    unless u(place) is the value there of two 2-torsion roots e_i, e_j
    (the node of an I_n fiber) or of all three (the triple point of I0*).

    On I_n, n = 2m with m the order of e_i - e_j.  Let a_i, a_j be the
    orders of u - e_i, u - e_j, a = min(a_i, a_j), and e_l the third root.
    a >= m is the middle component m.  Otherwise a_i = a_j = a, and
    v^2 = (u - e_i)(u - e_j)(u - e_l) gives v the order a and the slope
    s = lead(v) / lead(u - e_i) = +-root0, root0 the square root of
    (e_i - e_l)(place) that field_sqrt takes; the component is n - a for
    s = +root0 and a for s = -root0.  These are the order and the slope of
    du = u - u0 for the node u0, the critical point of the cubic: u0 - e_i
    has order m, and (a2 + 3 u0)(place) = (e_i - e_l)(place).  With
    beta^2 = a2 + 3 u0 + du and beta(place) = root0, (v - beta du)(v +
    beta du) = g(u0) has order n, and the index is the order of
    v - beta du: n - a when s = +root0, a when s = -root0.

    On I0*, the three roots meet at 0, since 0 is one of them, and differ
    at order 1.  A section through the triple point has exactly one u - e_i
    of order >= 2 (three orders 1 would give v^2 the odd order 3), and is
    labelled by the linear coefficient of u, which is that of e_i."""
    if pt.is_infinity or fiber.simple == 1:
        return None  # a section meets only simple components
    if fiber.kind != "I" and (fiber.kind, fiber.n) != ("I*", 0):
        raise NotImplementedError(
            "component identification on a %s fiber is not implemented"
            % fiber.symbol)
    place, k = fiber.place, twist_weight(pt.model)
    order, lead = _leading_term(pt.u, place, 2, k)
    value = lead if order == 0 else Fraction(0)
    at = _two_torsion_at(pt.model, place)
    near = [e for e, e0 in at if e0 == value] if order >= 0 else []
    if len(near) < 2:
        return None
    du = [_leading_term(pt.u - e, place, 2, k) for e in near]
    if fiber.kind == "I*":
        if sum(a >= 2 for a, _ in du) != 1:
            raise ArithmeticError("no root of u - e_i to order 2 at %s"
                                  % (place,))
        return lead if order == 1 else Fraction(0)
    (a, lead_i), (b, _) = du
    a, n = min(a, b), fiber.n
    if 2 * a >= n:
        return n // 2
    root0 = field_sqrt(value - next(e0 for _, e0 in at if e0 != value))
    order_v, lead_v = _leading_term(pt.v, place, 3, k)
    s = lead_v / lead_i
    if root0 is None or order_v != a or s not in (root0, -root0):
        raise ArithmeticError("section slope at the node is not +-root0")
    return n - a if s == root0 else a


def local_contribution(fiber, a, b) -> Fraction:
    """Correction term contr_v(S, T) of one bad fiber to the height
    pairing, from the components a and b that section_component gives S
    and T there; the diagonal term contr_v(S) is contr_v(S, S)."""
    if a is None or b is None:
        return Fraction(0)
    if fiber.kind == "I":
        n = fiber.n
        i, j = sorted((a, b))
        return Fraction(i * (n - j), n)
    if fiber.kind == "I*" and fiber.n == 0:
        return Fraction(1) if a == b else Fraction(1, 2)
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
    u = pt.u
    if u.is_zero:
        return Fraction(0)
    at_inf = _leading_term(u, INFINITE_PLACE, 2, twist_weight(pt.model))[0]
    return Fraction(u.den.degree + max(0, -at_inf), 2)


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
        a = section_component(s, fib)
        total -= local_contribution(
            fib, a, a if diagonal else section_component(t, fib))
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
