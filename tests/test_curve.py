import random
from fractions import Fraction as F

import pytest

from field_oracle import conj
from zerodiag.exactnum import (
    Polynomial,
    QuadElem,
    RationalFunction,
    SQRT3,
    poly_sqrt,
)
from zerodiag.curve import (
    CurvePoint,
    INFINITE_PLACE,
    LocalFiber,
    WeierstrassModel,
    _BIG,
    _clear_denominators,
    _leading_term,
    bad_places,
    euler_number,
    family_model,
    fiber_at,
    named_sections,
    param_to_point,
    point_to_param,
    shioda_tate_rank,
    tate_classify,
    twist_weight,
)
from zerodiag.surface import Parametrization, low_degree_parametrization

T = Polynomial.gen()


def _rhs(model, u):
    # oracle: u^3 + a2 u^2 + a4 u + a6 in the function field
    return ((u + model.a2) * u + model.a4) * u + model.a6


def family_two_torsion_u():
    """u-coordinates of the three finite 2-torsion points of the family."""
    return Polynomial(), 8 * T * (T * T - 1), (T * T - 1) * (T + 2) ** 2


@pytest.fixture(scope="module")
def model():
    return family_model()


@pytest.fixture(scope="module")
def sections():
    return named_sections()


@pytest.fixture(scope="module")
def points(model, sections):
    return {name: param_to_point(par) for name, par in sections.items()}


# -- oracle: local Weierstrass models rebuilt at each place --------------------


def twist_at_infinity(rf, w):
    """s^w rf(1/s): a function of t rewritten in s = 1/t with weight w."""
    if rf.is_zero:
        return rf
    num, den = rf.num, rf.den
    shift = w - (num.degree - den.degree)
    rev_num = Polynomial(num.coeffs[::-1])  # t^deg num(1/t)
    rev_den = Polynomial(den.coeffs[::-1])
    s = Polynomial.gen()
    if shift >= 0:
        return RationalFunction(rev_num * s ** shift, rev_den)
    return RationalFunction(rev_num, rev_den * s ** (-shift))


def model_at_infinity(model):
    """The model in s = 1/t, a_i(t) -> s^(i k) a_i(1/s), and the k used."""
    degs = []
    for i, a in ((2, model.a2), (4, model.a4), (6, model.a6)):
        if not a.is_zero:
            d = a.degree()
            if d > 0:
                degs.append(-(-d // i))
    k = max(degs, default=0)
    return (twist_at_infinity(model.a2, 2 * k),
            twist_at_infinity(model.a4, 4 * k),
            twist_at_infinity(model.a6, 6 * k), k)


def horner_shift(f, c):
    """Oracle: the Polynomial.shift exactnum used to have, f(t + c) via
    Horner in (t + c)."""
    tc = Polynomial([c, 1])
    out = Polynomial()
    for coeff in reversed(f.coeffs):
        out = out * tc + coeff
    return out


def shift_rf(rf, r):
    return RationalFunction(horner_shift(rf.num, r), horner_shift(rf.den, r))


def local_model(model, place):
    """The model rewritten in the local coordinate of the place."""
    if place == INFINITE_PLACE:
        a2, a4, a6, _ = model_at_infinity(model)
        return WeierstrassModel(a2, a4, a6)
    return WeierstrassModel(*(shift_rf(a, F(place))
                              for a in (model.a2, model.a4, model.a6)))


def classify_local(model, place):
    """Tate classification at t = 0 of a local model, rescaling the model
    by t while it is not minimal."""
    t = RationalFunction(Polynomial.gen())

    def ord0(rf):
        return 10 ** 9 if rf.is_zero else order_at_zero(rf)

    while True:
        c4, c6 = model.c_invariants()
        alpha, beta, delta = ord0(c4), ord0(c6), ord0(model.discriminant())
        if alpha >= 4 and beta >= 6 and delta >= 12:
            model = WeierstrassModel(model.a2 / t ** 2, model.a4 / t ** 4,
                                     model.a6 / t ** 6)
            continue
        break
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
    raise ArithmeticError("unclassifiable fiber")


def order_at_zero(rf):
    """Order at t = 0 of a nonzero rational function: the lowest nonzero
    coefficient index of its numerator minus that of its denominator."""
    return (next(i for i, c in enumerate(rf.num.coeffs) if c)
            - next(i for i, c in enumerate(rf.den.coeffs) if c))


def leading_oracle(f, place, w, k):
    """Shift to t - r, or twist at infinity; then the order a at 0 and the
    value of f / t^a there."""
    if place == INFINITE_PLACE:
        local = twist_at_infinity(f, w * k)
    else:
        local = shift_rf(f, F(place))
    if local.is_zero:
        return _BIG, 0
    a = order_at_zero(local)
    return a, (local * RationalFunction(T) ** (-a))(F(0))


# -- invariants ----------------------------------------------------------------


def test_short_model_invariants():
    m = WeierstrassModel(0, -1, 0)  # v^2 = u^3 - u
    assert m.discriminant() == RationalFunction(64)
    assert m.j_invariant() == RationalFunction(1728)


def test_singular_model_rejected():
    with pytest.raises(ValueError):
        WeierstrassModel(0, 0, 0)  # v^2 = u^3 is a cusp everywhere


def b_invariant_discriminant(m):
    b2, b4, b6, b8 = m.b_invariants()
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def test_stored_discriminant(model):
    assert family_model() is family_model()
    lam = RationalFunction(T + 3)
    for m in (model, local_model(model, INFINITE_PLACE),
              WeierstrassModel(model.a2 / lam ** 2, model.a4 / lam ** 4,
                               model.a6 / lam ** 6)):
        assert m.discriminant() == b_invariant_discriminant(m)


def test_twist_at_infinity():
    # the oracle of _leading_term at infinity
    rf = RationalFunction(3 * T ** 2 + T - 1, T ** 3 + 2)
    for w in (0, 1, 4):
        tw = twist_at_infinity(rf, w)
        for s0 in (F(1), F(2), F(-1, 3)):
            assert tw(s0) == s0 ** w * rf(1 / s0)
    assert twist_at_infinity(RationalFunction(0), 4).is_zero


def test_family_discriminant_factored(model):
    delta = model.discriminant().as_polynomial()
    assert delta == 2 ** 10 * T ** 2 * (T * T - 1) ** 6 * (T * T - 4) ** 4
    assert delta.degree == 22


def test_family_c4_and_j(model):
    c4, _ = model.c_invariants()
    assert c4.as_polynomial() == 16 * (T * T - 1) ** 2 * (T ** 4 + 56 * T * T + 16)
    expected_j = RationalFunction(4 * (T ** 4 + 56 * T * T + 16) ** 3,
                                  T * T * (T * T - 4) ** 4)
    assert model.j_invariant() == expected_j


def test_c_invariant_identity(model):
    # c4^3 - c6^2 = 1728 Delta
    c4, c6 = model.c_invariants()
    assert c4 ** 3 - c6 ** 2 == 1728 * model.discriminant()


# -- fiber classification --------------------------------------------------------


def test_family_fiber_table(model):
    fibers = {f.place: f for f in tate_classify(model)}
    assert set(fibers) == {F(-2), F(-1), F(0), F(1), F(2), INFINITE_PLACE}
    assert fibers[F(0)].symbol == "I2"
    assert fibers[INFINITE_PLACE].symbol == "I2"
    assert fibers[F(1)].symbol == "I0*"
    assert fibers[F(-1)].symbol == "I0*"
    assert fibers[F(2)].symbol == "I4"
    assert fibers[F(-2)].symbol == "I4"
    assert sum(f.components - 1 for f in fibers.values()) == 16


def test_family_euler_number(model):
    assert euler_number(model) == 24


def test_shioda_tate(model):
    assert shioda_tate_rank(model, 2) == 20


def test_fiber_component_counts(model):
    fibers = {f.place: f for f in tate_classify(model)}
    assert fibers[F(2)].components == 4
    assert fibers[F(1)].components == 5
    assert fibers[F(1)].simple == 4
    assert fibers[F(0)].components == 2


# small models pinning each classification branch at t = 0
KODAIRA_ZOO = [
    (WeierstrassModel(Polynomial([0, 1]), 0, Polynomial([0, 1])), "II"),
    (WeierstrassModel(0, Polynomial([0, 1]), 0), "III"),
    (WeierstrassModel(0, 0, Polynomial([0, 0, 1])), "IV"),
    (WeierstrassModel(0, Polynomial([0, 0, 1]), 0), "I0*"),
    (WeierstrassModel(0, 0, Polynomial([0] * 4 + [1])), "IV*"),
    (WeierstrassModel(0, Polynomial([0, 0, 0, 1]), 0), "III*"),
    (WeierstrassModel(0, 0, Polynomial([0] * 5 + [1])), "II*"),
    (WeierstrassModel(1, 0, Polynomial([0, 1])), "I1"),
]


def test_kodaira_zoo():
    for m, symbol in KODAIRA_ZOO:
        assert fiber_at(m, 0).symbol == symbol, symbol


def test_fiber_at_matches_local_model_oracle(model):
    e2, e3 = Polynomial([0, 1]), Polynomial([0, 0, 2])
    i2_star = WeierstrassModel(-(e2 + e3), e2 * e3, 0)
    e2, e3 = Polynomial([0] * 4 + [1]), Polynomial([0] * 4 + [2])
    nonminimal = WeierstrassModel(-(e2 + e3), e2 * e3, 0)
    cases = [(m, place) for m, _ in KODAIRA_ZOO
             for place in (F(0), F(1), INFINITE_PLACE)]
    cases += [(i2_star, F(0)), (nonminimal, F(0)), (nonminimal, INFINITE_PLACE)]
    cases += [(model, f.place) for f in tate_classify(model)]
    assert len(cases) == 24 + 3 + 6
    for m, place in cases:
        got = fiber_at(m, place)
        want = classify_local(local_model(m, place), place)
        assert got.place == want.place
        assert ((got.symbol, got.n, got.delta)
                == (want.symbol, want.n, want.delta)), (m, place)


def random_rational_function(rng, quadratic, place):
    def coeff():
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        return QuadElem(c, rng.randint(-2, 2)) if quadratic else c

    num = Polynomial([coeff() for _ in range(rng.randint(1, 5))])
    den = Polynomial([coeff() for _ in range(rng.randint(1, 4))])
    while den.is_zero:
        den = Polynomial([coeff()])
    if place != INFINITE_PLACE and rng.random() < 0.3:
        den = den * Polynomial([-place, 1])  # a pole at the place
    return RationalFunction(num, den)


def test_leading_term_matches_shift_and_twist_oracle():
    rng = random.Random(20041)
    compared, poles, irrational = 0, 0, 0
    for quadratic in (False, True):
        for place in (F(0), F(2), F(-1, 3), INFINITE_PLACE):
            for _ in range(6):
                f = random_rational_function(rng, quadratic, place)
                for w in (2, 3, 4, 6):
                    for k in range(4):
                        got = _leading_term(f, place, w, k)
                        want = leading_oracle(f, place, w, k)
                        assert got == want, (f, place, w, k)
                        assert type(got[1]) is type(want[1])
                        compared += 1
                        poles += got[0] < 0
                        irrational += type(got[1]) is QuadElem
    assert compared == 768 and poles > 50 and irrational > 50
    for place in (F(0), F(2), INFINITE_PLACE):
        assert _leading_term(RationalFunction(0), place, 6, 3) == (_BIG, 0)


def test_kodaira_In_star():
    # v^2 = u (u - t)(u - 2t^2): alpha=2, beta=3, delta=8 at t=0
    e2, e3 = Polynomial([0, 1]), Polynomial([0, 0, 2])
    m = WeierstrassModel(-(e2 + e3), e2 * e3, 0)
    f = fiber_at(m, 0)
    assert f.symbol == "I2*"
    assert f.components == 7
    assert f.simple == 4


def test_minimality_rescaling():
    # v^2 = u(u - t^4)(u - 2t^4) is nonminimal at 0; rescaled twice it is
    # u(u-1)(u-2) with good reduction
    e2, e3 = Polynomial([0] * 4 + [1]), Polynomial([0] * 4 + [2])
    m = WeierstrassModel(-(e2 + e3), e2 * e3, 0)
    f = fiber_at(m, 0)
    assert f.symbol == "I0"
    assert f.delta == 0


def test_good_reduction_everywhere():
    m = WeierstrassModel(0, -1, 0)
    assert tate_classify(m) == ()


def test_nonrational_place_raises():
    # Delta = -4t^2(16t^2 + 108) has an irrational factor
    m = WeierstrassModel(Polynomial([0, 1]), 0, Polynomial([0, 1]))
    assert fiber_at(m, 0).symbol == "II"
    with pytest.raises(NotImplementedError):
        bad_places(m)


def test_model_at_infinity_weight(model):
    assert twist_weight(model) == 2
    assert model_at_infinity(model)[3] == 2
    assert fiber_at(model, INFINITE_PLACE).symbol == "I2"


# -- group law -------------------------------------------------------------------


def test_point_validation(model, points):
    with pytest.raises(ValueError):
        CurvePoint(model, RationalFunction(1), RationalFunction(1))
    P = points["P"]
    wobble = RationalFunction(T + 1, T + 2)
    twoP = 2 * P
    assert not twoP.u.is_polynomial() and not twoP.v.is_polynomial()
    # off-curve points whose coordinates carry denominators
    for u, v in ((P.u, P.v * wobble), (twoP.u, twoP.v * wobble)):
        with pytest.raises(ValueError):
            CurvePoint(model, u, v)
    # a model whose coefficients have denominators: rescale by lam = t + 3
    lam = RationalFunction(T + 3)
    scaled = WeierstrassModel(model.a2 / lam ** 2, model.a4 / lam ** 4,
                              model.a6 / lam ** 6)
    assert not scaled.a2.is_polynomial() and not scaled.a4.is_polynomial()
    for pt in (P, twoP, points["Q"]):
        on = CurvePoint(scaled, pt.u / lam ** 2, pt.v / lam ** 3)
        assert on.u * lam ** 2 == pt.u
        with pytest.raises(ValueError):
            CurvePoint(scaled, on.u, on.v * wobble)
        with pytest.raises(ValueError):
            CurvePoint(scaled, on.u, on.v + 1)
    # the cross-multiplied check agrees with v^2 == rhs(u) in the field
    for m, u, v in ((model, P.u, P.v), (model, twoP.u, twoP.v * wobble),
                    (scaled, P.u / lam ** 2, P.v / lam ** 3),
                    (scaled, P.u / lam ** 2, P.v / lam ** 2)):
        assert m.contains(u, v) == (v * v == _rhs(m, u))


def test_two_torsion(points, model):
    t1, t2 = points["T1"], points["T2"]
    assert (2 * t1).is_infinity
    assert (2 * t2).is_infinity
    s = t1 + t2
    assert s.u == RationalFunction(8 * T * (T * T - 1))
    assert s.v.is_zero
    assert (2 * s).is_infinity
    # the three finite 2-torsion u-values are the roots of the cubic
    u_all = {t2.u.as_polynomial(), t1.u.as_polynomial(), s.u.as_polynomial()}
    assert u_all == set(family_two_torsion_u())


def test_group_law_axioms(points, model):
    inf = model.infinity()
    named = [points["P"], points["T1"], points["T2"], points["Q"]]
    for p in named:
        assert p + inf == p
        assert p + (-p) == inf
    for p in named:
        for q in named:
            assert p + q == q + p
    # associativity spot checks
    p, t1, t2, q = named
    assert (p + t1) + t2 == p + (t1 + t2)
    assert (p + q) + t1 == p + (q + t1)
    assert (p + p) + p == p + (p + p)


def test_multiples_consistency(points):
    p = points["P"]
    assert 1 * p == p
    assert 2 * p == p + p
    assert 3 * p == p + p + p
    assert (-2) * p == -(2 * p)
    assert (0 * p).is_infinity


def test_multiplication_makes_no_unused_doubling(monkeypatch):
    # n * P by double-and-add takes floor(log2 n) doublings and
    # popcount(n) - 1 additions, counting only sums of two finite points;
    # P = (3, 5) on v^2 = u^3 - 2 has infinite order, so none is trivial
    model = WeierstrassModel(0, 0, -2)
    p = model.point(3, 5)
    multiples = [model.infinity()]
    for _ in range(8):
        multiples.append(multiples[-1] + p)
    real_add = CurvePoint.__add__
    count = [0]

    def counted(a, b):
        if not (a.is_infinity or b.is_infinity):
            count[0] += 1
        return real_add(a, b)

    monkeypatch.setattr(CurvePoint, "__add__", counted)
    for n in list(range(1, 9)) + [-3]:
        count[0] = 0
        got = n * p
        k = abs(n)
        assert count[0] == (k.bit_length() - 1) + (bin(k).count("1") - 1), n
        assert got == (multiples[k] if n > 0 else -multiples[k]), n


def test_known_point_coordinates(points):
    assert points["O"].is_infinity
    assert points["T2"].u.is_zero and points["T2"].v.is_zero
    assert points["T1"].u == RationalFunction((T * T - 1) * (T + 2) ** 2)
    assert points["T1"].v.is_zero
    assert points["P"].u == RationalFunction(2 * T ** 3 * (T + 1))
    assert points["P"].v == RationalFunction(2 * T * T * (T + 1) ** 2 * (T - 2) ** 2)
    assert points["Q"].u == RationalFunction(2 * T * (T + 1) * (T + 2))
    assert points["Q"].v == RationalFunction(SQRT3 * 2 * T * (T * T - 4) * (T + 1) ** 2)


def test_conjugation_negates_Q(points):
    q, p = points["Q"], points["P"]
    assert q.model.point(conj(q.u), conj(q.v)) == -q
    assert p.model.point(conj(p.u), conj(p.v)) == p


def test_double_P_coordinates(points):
    p2 = 2 * points["P"]
    num_u = T ** 6 + 4 * T ** 5 + 4 * T ** 4 - 4 * T ** 3 - 8 * T ** 2 + 4
    assert p2.u == RationalFunction(num_u, T * T)
    num_v = -T ** 8 + 6 * T ** 6 - 16 * T ** 4 + 20 * T ** 2 - 8
    assert p2.v == RationalFunction(num_v, T ** 3)


# -- section / point dictionary ---------------------------------------------------


def test_sections_verify(sections):
    for name, par in sections.items():
        assert par.verify(), name
        assert par.x == T * par.a, name


def test_param_to_point_rejects_unadapted():
    with pytest.raises(ValueError):
        param_to_point(low_degree_parametrization())


def test_point_to_param_round_trips(points, sections):
    for name in ("P", "T1", "T2", "Q"):
        par = point_to_param(points[name])
        assert par == sections[name], name
    assert point_to_param(points["O"].model.infinity()) == sections["O"]


def test_point_to_param_double_P(points):
    par = point_to_param(2 * points["P"])
    assert par.a == T * (T ** 6 - 8 * T ** 4 + 20 * T ** 2 - 12)
    assert par.b == -T * (T ** 6 - 4 * T ** 4 + 4)
    assert par.c == (T * T - 2) * (T ** 6 - 6 * T ** 4 + 8 * T ** 2 - 4)
    assert par.verify()
    assert param_to_point(par) == 2 * points["P"]


def test_point_to_param_sum_with_torsion(points):
    pt = points["P"] + points["T1"]
    par = point_to_param(pt)
    assert par.verify()
    assert param_to_point(par) == pt


# -- oracle: point_to_param by a square root and a branch choice --------------


def ratfunc_sqrt(rf):
    """A square root of rf in the function field, or None.

    num/den = (num*den)/den^2, so rf is a square iff num*den is a square
    polynomial.
    """
    if rf.is_zero:
        return RationalFunction(0)
    root = poly_sqrt(rf.num * rf.den)
    if root is None:
        return None
    return RationalFunction(root, rf.den)


def branch_point_to_param(pt):
    """The inversion of param_to_point that solves f3 for b by a square
    root and keeps the branch on which f2 vanishes."""
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
    if nu.is_zero:
        bs = [-y * (T + y) / 2]
    else:
        disc = 4 * (T - nu) ** 2 + 8 * nu * T * y * (T + y)
        root = ratfunc_sqrt(disc)
        if root is None:
            raise ArithmeticError("branch discriminant is not a square; "
                                  "the input is not a section")
        bs = [(2 * (T - nu) + root) / (4 * nu),
              (2 * (T - nu) - root) / (4 * nu)]
    chosen = None
    for b in bs:
        cc = T - nu * (1 + b)
        f2 = T * y + y * z + z * T + 1 + b * b + cc * cc
        if f2.is_zero:
            chosen = (b, cc)
            break
    if chosen is None:
        raise ArithmeticError("no branch satisfies the surface equations")
    b, cc = chosen
    comps = _clear_denominators([T * 1, y, z, RationalFunction(1), b, cc])
    par = Parametrization(*comps).normalized()
    if not par.verify():
        raise ArithmeticError("inverted parametrization fails verification")
    if param_to_point(par) != pt:
        raise ArithmeticError("round trip failed")
    return par


def _inversion(fn, pt):
    try:
        return fn(pt).components()
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def test_point_to_param_matches_branch_oracle(points):
    P, Q = points["P"], points["Q"]
    torsion = (points["O"], points["T1"], points["T2"],
               points["T1"] + points["T2"])
    cases = [P, Q, points["T1"], points["T2"], -Q, 2 * Q, -2 * Q]
    cases += [n * P for n in (-4, -3, -2, -1, 1, 2, 3, 4)]
    cases += [base + tor for base in (P, Q) for tor in torsion]
    for pt in cases:
        assert _inversion(point_to_param, pt) == _inversion(
            branch_point_to_param, pt), pt


def residual_discriminant(model, nu):
    """Discriminant of the quadratic in u whose roots are the two further
    meets of the curve with the line of slope lam = (t^2 - 4) nu + 3t
    through the base point (u0, v0) of the inversion chart."""
    Tf = RationalFunction(T)
    u0 = 4 * (Tf - 1) * (Tf + 1) ** 2
    v0 = -4 * Tf * (Tf * Tf - 1) ** 2
    assert model.contains(u0, v0)
    lam = (Tf * Tf - 4) * nu + 3 * Tf
    total = lam * lam - model.a2 - u0
    product = (v0 - lam * u0) ** 2 / u0
    return total * total - 4 * product


def test_linear_solve_divisor_never_vanishes(model):
    # the divisor 2(t - nu)(1 - nu^2) of point_to_param vanishes only for
    # nu in {t, 1, -1}; no point of the curve over Q-bar(t) has that nu
    # because the residual quadratic's discriminant is not a square
    for nu in (T, 1, -1):
        disc = residual_discriminant(model, RationalFunction(nu))
        assert poly_sqrt((disc.num * disc.den).monic()) is None, nu
    assert residual_discriminant(model, RationalFunction(T)) == (
        T ** 12 - 2 * T ** 10 - 47 * T ** 8 + 224 * T ** 6
        - 304 * T ** 4 + 128 * T ** 2)


def test_degenerate_chart_sections(model):
    u0 = RationalFunction(4 * (T - 1) * (T + 1) ** 2)
    v0 = ratfunc_sqrt(_rhs(model, u0))
    assert v0 is not None
    pt = model.point(u0, v0)
    with pytest.raises(ValueError):
        point_to_param(pt)


def test_ratfunc_sqrt():
    f = RationalFunction((T + 1) ** 2 * 9, (T - 2) ** 4)
    r = ratfunc_sqrt(f)
    assert r is not None and r * r == f
    assert ratfunc_sqrt(RationalFunction(T)) is None
    assert ratfunc_sqrt(RationalFunction(0)).is_zero
