import random
from fractions import Fraction as F

import pytest

from zerodiag.exactnum import Polynomial, QuadElem, RationalFunction, SQRT3
from zerodiag.curve import (
    CurvePoint,
    INFINITE_PLACE,
    WeierstrassModel,
    bad_places,
    euler_number,
    family_model,
    family_two_torsion_u,
    fiber_at,
    model_at_infinity,
    named_sections,
    param_to_point,
    point_to_param,
    ratfunc_sqrt,
    shioda_tate_rank,
    tate_classify,
    twist_at_infinity,
)
from zerodiag.surface import Parametrization, low_degree_parametrization

T = Polynomial.gen()


@pytest.fixture(scope="module")
def model():
    return family_model()


@pytest.fixture(scope="module")
def sections():
    return named_sections()


@pytest.fixture(scope="module")
def points(model, sections):
    return {name: param_to_point(par, model) for name, par in sections.items()}


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
    a2, a4, a6, _ = model_at_infinity(model)
    for m in (model, WeierstrassModel(a2, a4, a6),
              WeierstrassModel(model.a2 / lam ** 2, model.a4 / lam ** 4,
                               model.a6 / lam ** 6)):
        assert m.discriminant() == b_invariant_discriminant(m)


def test_twist_at_infinity():
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


def test_kodaira_zoo():
    # small models pinning each classification branch at t = 0
    cases = [
        (WeierstrassModel(Polynomial([0, 1]), 0, Polynomial([0, 1])), "II"),
        (WeierstrassModel(0, Polynomial([0, 1]), 0), "III"),
        (WeierstrassModel(0, 0, Polynomial([0, 0, 1])), "IV"),
        (WeierstrassModel(0, Polynomial([0, 0, 1]), 0), "I0*"),
        (WeierstrassModel(0, 0, Polynomial([0] * 4 + [1])), "IV*"),
        (WeierstrassModel(0, Polynomial([0, 0, 0, 1]), 0), "III*"),
        (WeierstrassModel(0, 0, Polynomial([0] * 5 + [1])), "II*"),
        (WeierstrassModel(1, 0, Polynomial([0, 1])), "I1"),
    ]
    for m, symbol in cases:
        assert fiber_at(m, 0).symbol == symbol, symbol


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
    _, _, _, k = model_at_infinity(model)
    assert k == 2
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
        assert m.contains(u, v) == (v * v == m.rhs(u))


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
    q = points["Q"]
    assert q.conjugate() == -q
    assert points["P"].conjugate() == points["P"]


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


def test_degenerate_chart_sections(model):
    u0 = RationalFunction(4 * (T - 1) * (T + 1) ** 2)
    v0 = ratfunc_sqrt(model.rhs(u0))
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
