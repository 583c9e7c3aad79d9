"""Heights, local contributions, torsion, and the saturation argument."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from zerodiag.exactnum import (
    Polynomial,
    QuadElem,
    RationalFunction,
    Series,
    _series_of_rf,
    field_sqrt,
    newton_steps,
    rational_roots,
)
from zerodiag import mwlat
from zerodiag.curve import (
    WeierstrassModel,
    family_model,
    fiber_at,
    named_sections,
    param_to_point,
    point_to_param,
    tate_classify,
)
from zerodiag.mwlat import (
    ComponentRef,
    height_gram,
    height_pairing,
    intersection_with_zero,
    is_square_in_function_field,
    local_contribution,
    mutual_intersection,
    rank_formula_certificate,
    saturation_certificate,
    section_component,
    torsion_certificate,
    torsion_points,
)

T = Polynomial.gen()


@pytest.fixture(scope="module")
def model():
    return family_model()


@pytest.fixture(scope="module")
def pts(model):
    secs = named_sections()
    out = {k: param_to_point(secs[k]) for k in ("P", "Q", "T1", "T2")}
    out["O"] = model.infinity()
    return out


# -- series helpers ------------------------------------------------------------


def test_series_arithmetic():
    a = Series(Polynomial([1, 2, 3]), 5)
    b = Series(Polynomial([0, 1]), 5)
    assert (a * b).coeffs == [0, 1, 2, 3, 0]
    assert (a + b).coeffs == [1, 3, 3, 0, 0]
    assert (a - a).is_zero()
    assert b.ord() == 1
    assert Series(Polynomial([0, 0, 0]), 3).ord() == 3


def test_series_inverse_roundtrip():
    a = Series(Polynomial([2, -1, 5, Fraction(1, 3)]), 6)
    prod = a * (Series.constant(1, 6) / a)
    assert prod.coeffs[0] == 1
    assert all(c == 0 for c in prod.coeffs[1:])
    with pytest.raises(ZeroDivisionError):
        Series.constant(1, 3) / Series(Polynomial([0, 1]), 3)


def _series_sqrt(s, root0):
    # oracle helper: the former Series.sqrt, the square root of s with
    # constant term root0 by Newton's iteration
    r = Series.constant(root0, s.prec)
    for _ in range(newton_steps(s.prec)):
        r = (r + s / r) * Fraction(1, 2)
    if not (r * r - s).is_zero():
        raise ArithmeticError("series square root did not converge")
    return r


def _shift_down(s, k):
    # oracle helper: the former Series.shift_down, division by e^k
    if any(s.coeffs[i] for i in range(k)):
        raise ValueError("not divisible")
    return Series(Polynomial(s.coeffs[k:]), s.prec)


def test_series_sqrt():
    a = Series(Polynomial([9, 6, 1]), 6)  # (3 + t)^2
    r = _series_sqrt(a, Fraction(3))
    assert r.coeffs[:2] == [3, 1]
    assert (r * r - a).is_zero()
    neg = _series_sqrt(a, Fraction(-3))
    assert neg.coeffs[0] == -3
    assert (neg * neg - a).is_zero()


def test_series_sqrt_quadratic_field():
    # constant term 48 has root 4*sqrt(3)
    a = Series(Polynomial([QuadElem(48), QuadElem(24), QuadElem(3)]), 5)
    r = _series_sqrt(a, QuadElem(0, 4))
    assert (r * r - a).is_zero()


def test_series_shift_down():
    a = Series(Polynomial([0, 0, 7, 1]), 4)
    assert _shift_down(a, 2).coeffs == [7, 1, 0, 0]
    with pytest.raises(ValueError):
        _shift_down(a, 3)


def test_series_expansion_matches_taylor():
    # 1/(1 - t) at 0 is the geometric series
    rf = RationalFunction(1, 1 - T)
    s = _series_of_rf(rf, Fraction(0), 6)
    assert s.coeffs == [1] * 6
    # (t^2 + 1)/(t + 2) at t = 1: shift and compare against direct division
    rf = RationalFunction(T * T + 1, T + 2)
    s = _series_of_rf(rf, Fraction(1), 4)
    val = Fraction(2, 3)
    assert s[0] == val
    # derivative: (2t(t+2) - (t^2+1)) / (t+2)^2 at 1 = (6 - 2)/9
    assert s.coeffs[1] == Fraction(4, 9)


# -- intersection with the zero section ------------------------------------------


def test_zero_section_intersections(pts):
    assert intersection_with_zero(pts["P"]) == 0
    assert intersection_with_zero(pts["Q"]) == 0
    assert intersection_with_zero(pts["T1"]) == 0
    assert intersection_with_zero(pts["T2"]) == 0
    assert intersection_with_zero(2 * pts["P"]) == 1


def test_mutual_intersection(pts):
    assert mutual_intersection(pts["P"], pts["Q"]) == 0
    assert mutual_intersection(pts["P"], pts["T1"]) == 0
    with pytest.raises(ValueError):
        mutual_intersection(pts["P"], pts["P"])


# -- fiber components -------------------------------------------------------------


def test_component_table(pts):
    """Which component each named section hits, at every bad place."""
    expected = {
        # place: (P, Q, T1, T2) as (kind, index)
        Fraction(-2): [("identity", None), ("cycle", 3), ("cycle", 2), ("cycle", 2)],
        Fraction(-1): [("far", -2), ("far", -2), ("far", -2), ("far", 0)],
        Fraction(0): [("cycle", 1), ("cycle", 1), ("identity", None), ("cycle", 1)],
        Fraction(1): [("identity", None), ("identity", None), ("far", 18), ("far", 0)],
        Fraction(2): [("cycle", 2), ("cycle", 1), ("cycle", 2), ("identity", None)],
        "inf": [("identity", None), ("cycle", 1), ("identity", None), ("cycle", 1)],
    }
    for fib in tate_classify(family_model()):
        want = expected[fib.place]
        for pt, (kind, index) in zip((pts["P"], pts["Q"], pts["T1"], pts["T2"]), want):
            ref = section_component(pt, fib)
            assert (ref.kind, ref.index) == (kind, index), (fib.place, pt)


def _oracle_component(pt, fib):
    # oracle: the former section_component.  On I_n it divides v by the
    # series square root beta of A + du at precision n + 3 and reads the
    # component from ord(v/beta - du); on I0* it checks the label against
    # the rational roots of the rescaled cubic.
    place, ref = fib.place, mwlat._identity(fib)
    if pt.is_infinity:
        return ref
    if fib.kind == "I":
        a2, _, _, u_s, v_s = mwlat._local_expansion(pt, place, fib.n + 3)
        if u_s is None:
            return ref
        prec = u_s.prec
        u0 = mwlat._place_node(pt.model, place, prec)
        du = u_s - u0
        if du.ord() == 0:
            return ref
        if fib.n <= 2:
            return ComponentRef(place, fib.symbol, "cycle", 1)
        rad = a2 + Series.constant(3, prec) * u0 + du
        beta = _series_sqrt(rad, field_sqrt(rad[0]))
        k = (v_s / beta - du).ord()
        if not 1 <= k <= fib.n - 1:
            return ref
        return ComponentRef(place, fib.symbol, "cycle", k)
    a2, a4, a6, u_s, _ = mwlat._local_expansion(pt, place, 4)
    if u_s is None:
        return ref
    ubar = -a2[0] / 3
    ub = Series.constant(ubar, 4)
    du = u_s - ub
    if du.ord() == 0:
        return ref
    big2 = a2 + 3 * ub
    big4 = a4 + 2 * ub * a2 + 3 * ub * ub
    big6 = ((ub + a2) * ub + a4) * ub + a6
    cubic = Polynomial([_shift_down(big6, 3)[0],
                        _shift_down(big4, 2)[0],
                        _shift_down(big2, 1)[0], 1])
    roots = rational_roots(cubic)
    assert len(roots) == 3 and du.coeffs[1] in roots
    return ComponentRef(place, fib.symbol, "far", du.coeffs[1])


def test_section_component_matches_the_oracle(pts):
    """Order and slope against the former square-root and rescaled-cubic
    reading, on every mP + nQ + T with |m|, |n| <= 1 at every bad fiber:
    216 pairs that reach every component the table below names and the
    third far component at each I0* place."""
    fibers = tate_classify(family_model())
    assert [f.symbol for f in fibers] == ["I4", "I0*", "I2", "I0*", "I4", "I2"]
    seen = set()
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            base = m * pts["P"] + n * pts["Q"]
            for t in torsion_points().values():
                sec = base + t
                for fib in fibers:
                    ref = section_component(sec, fib)
                    want = _oracle_component(sec, fib)
                    assert (ref.kind, ref.index) == (want.kind, want.index)
                    seen.add((str(fib.place), ref.kind, ref.index))
    # I4: identity and cycles 1-3; I2: identity and cycle 1; I0*:
    # identity and three far labels
    per_place = Counter(place for place, _, _ in seen)
    assert per_place == {"-2": 4, "-1": 4, "0": 2, "1": 4, "2": 4, "inf": 2}


def test_wrong_slope_at_the_node_is_refused(pts):
    # Q meets cycle 3 at t = -2; doubling v breaks v[a] / du[a] = +-root0.
    # Called directly, past the on-model check of _local_expansion.
    fib = next(f for f in tate_classify(family_model())
               if f.place == Fraction(-2))
    q = pts["Q"]
    a2, a4, a6, u_s, v_s = mwlat._local_expansion(q, fib.place, fib.n // 2 + 1)
    ref = mwlat._component_on_In((a2, a4, a6, u_s, v_s), fib, q.model)
    assert (ref.kind, ref.index) == ("cycle", 3)
    with pytest.raises(ArithmeticError):
        mwlat._component_on_In((a2, a4, a6, u_s, 2 * v_s), fib, q.model)


def test_section_component_does_no_hidden_work(pts, monkeypatch):
    """Components come from series of the global model and the section:
    no local model is built and no full curve check runs."""
    fibers = tate_classify(family_model())
    calls = {"contains": 0, "init": 0}
    real_contains = WeierstrassModel.contains
    real_init = WeierstrassModel.__init__

    def contains(self, u, v):
        calls["contains"] += 1
        return real_contains(self, u, v)

    def init(self, *args):
        calls["init"] += 1
        real_init(self, *args)

    monkeypatch.setattr(WeierstrassModel, "contains", contains)
    monkeypatch.setattr(WeierstrassModel, "__init__", init)
    section_component.cache_clear()
    refs = [section_component(pts[name], fib)
            for fib in fibers for name in ("P", "Q", "T1", "T2")]
    assert len(refs) == 24
    assert calls == {"contains": 0, "init": 0}


def test_node_is_lifted_once_per_place(pts, monkeypatch):
    """The node depends only on the model and the place: the heights of
    P, Q and P+Q lift it at most once at each I_n place (-2, 0, 2, inf),
    not once per section."""
    section_component.cache_clear()
    mwlat._model_series.cache_clear()
    mwlat._place_node.cache_clear()
    real, lifted = mwlat._node_series, []

    def counted(a2, a4, a6):
        lifted.append(a2.prec)
        return real(a2, a4, a6)

    monkeypatch.setattr(mwlat, "_node_series", counted)
    heights = [height_pairing(pt)
               for pt in (pts["P"], pts["Q"], pts["P"] + pts["Q"])]
    assert heights == [Fraction(3, 2), Fraction(1, 2), Fraction(2)]
    assert 0 < len(lifted) <= 4


def test_section_off_the_model_is_refused(pts, monkeypatch):
    # one wrong term in the expansion of v breaks v^2 = g(u) to precision
    real = mwlat.local_series

    def wrong_v(f, place, w, k, prec):
        s = real(f, place, w, k, prec)
        return s + Series.constant(1, prec) if w == 3 else s

    fibers = tate_classify(family_model())
    met = [(fib, name) for fib in fibers for name in ("P", "Q", "T1", "T2")
           if section_component(pts[name], fib).kind != "identity"]
    assert len(met) == 17
    monkeypatch.setattr(mwlat, "local_series", wrong_v)
    section_component.cache_clear()
    for fib, name in met:
        with pytest.raises(ArithmeticError):
            section_component(pts[name], fib)


def test_zero_section_on_identity(pts):
    for fib in tate_classify(family_model()):
        ref = section_component(pts["O"], fib)
        assert ref.kind == "identity"


def test_contribution_values():
    fibers = {f.place: f for f in tate_classify(family_model())}
    i4 = fibers[Fraction(2)]
    mid = ComponentRef(2, "I4", "cycle", 2)
    side = ComponentRef(2, "I4", "cycle", 1)
    idy = ComponentRef(2, "I4", "identity", None)
    assert local_contribution(i4, mid, mid) == 1
    assert local_contribution(i4, side, side) == Fraction(3, 4)
    assert local_contribution(i4, side, mid) == Fraction(1, 2)
    assert local_contribution(i4, side, ComponentRef(2, "I4", "cycle", 3)) == Fraction(1, 4)
    assert local_contribution(i4, idy, mid) == 0
    star = fibers[Fraction(1)]
    a = ComponentRef(1, "I0*", "far", 0)
    b = ComponentRef(1, "I0*", "far", 18)
    assert local_contribution(star, a, a) == 1
    assert local_contribution(star, a, b) == Fraction(1, 2)


def test_unsupported_fiber_type_is_loud():
    # I2* fiber: component identification is deliberately not implemented
    t = RationalFunction(T)
    model = WeierstrassModel(-(t + 2 * t * t), 2 * t ** 3, 0)
    fib = fiber_at(model, Fraction(0))
    assert fib.symbol == "I2*"
    sec = model.point(0, 0)
    with pytest.raises(NotImplementedError):
        section_component(sec, fib)


# -- heights ----------------------------------------------------------------------


def test_height_values(pts):
    assert height_pairing(pts["P"]) == Fraction(3, 2)
    assert height_pairing(pts["Q"]) == Fraction(1, 2)
    assert height_pairing(pts["P"], pts["Q"]) == 0
    assert height_pairing(pts["T1"]) == 0
    assert height_pairing(pts["T2"]) == 0
    assert height_pairing(pts["O"]) == 0
    assert height_pairing(pts["O"], pts["P"]) == 0


def test_height_gram(pts):
    gram = height_gram([pts["P"], pts["Q"]])
    assert gram == [[Fraction(3, 2), 0], [0, Fraction(1, 2)]]


def _count_expansions(monkeypatch):
    # (section, place) of each _local_expansion, on a cleared component cache
    real, calls = mwlat._local_expansion, []

    def counted(pt, place, prec):
        calls.append((pt, place))
        return real(pt, place, prec)

    monkeypatch.setattr(mwlat, "_local_expansion", counted)
    section_component.cache_clear()
    return calls


def test_height_gram_computes_each_component_once(pts, monkeypatch):
    sections = [pts["P"], pts["Q"], pts["T1"], pts["P"] + pts["Q"], pts["O"]]
    want = [[height_pairing(s) if i == j else height_pairing(s, t)
             for j, t in enumerate(sections)] for i, s in enumerate(sections)]
    calls = _count_expansions(monkeypatch)
    assert height_gram(sections) == want
    # once per (section, bad fiber); O's pairings are 0 without a component
    n = 4 * len(tate_classify(family_model()))
    assert len(calls) == len(set(calls)) == n
    assert section_component.cache_info().misses == n


def test_a_height_then_a_pairing_expand_each_component_once(pts, monkeypatch):
    s = pts["P"] + pts["Q"]
    calls = _count_expansions(monkeypatch)
    assert height_pairing(s) == 2
    assert height_pairing(s, pts["P"]) == Fraction(3, 2)
    # s and P at each of the six bad fibers, s's components not redone
    assert len(calls) == len(set(calls)) == 12
    assert isinstance(section_component.cache_info().maxsize, int)


def test_height_of_multiples(pts):
    p = pts["P"]
    assert height_pairing(2 * p) == 6
    assert height_pairing(2 * p, p) == 3
    assert height_pairing(2 * p, pts["Q"]) == 0


def test_polarization_identity(pts):
    p, q = pts["P"], pts["Q"]
    assert height_pairing(p + q) == (height_pairing(p)
                                     + 2 * height_pairing(p, q)
                                     + height_pairing(q))
    assert height_pairing(p - q) == (height_pairing(p)
                                     - 2 * height_pairing(p, q)
                                     + height_pairing(q))


def test_height_invariant_under_torsion_translation(pts):
    p, q = pts["P"], pts["Q"]
    for t in torsion_points().values():
        assert height_pairing(p + t) == height_pairing(p)
        assert height_pairing(p + t, q) == height_pairing(p, q)


def test_height_negation_antisymmetry(pts):
    q = pts["Q"]
    assert height_pairing(q.conjugate()) == height_pairing(q)  # conj(Q) = -Q
    assert height_pairing(pts["P"], -q) == -height_pairing(pts["P"], q)
    assert height_pairing(q, -q) == -Fraction(1, 2)


# sha256 of the outputs below for the 56 sections, recorded before the
# shortcuts in Polynomial.__mul__, Series.__truediv__ and _modular_gcd
SECTIONS_SHA256 = (
    "9beac9702eda2abb874f13d899a3331f031674b305ece2464bf880120f218bc6")


def test_sections_of_height_at_most_seven_halves_are_unchanged(pts):
    """The 56 sections mP + nQ + T with 0 < 3m^2 + n^2 <= 7 and T torsion:
    the height, the pairings with P and Q, and the integer forms of the
    point_to_param components, or the out-of-chart ValueError."""
    torsion = {"O": pts["O"], "T1": pts["T1"], "T2": pts["T2"],
               "T1+T2": pts["T1"] + pts["T2"]}
    lines = []
    for m in (-1, 0, 1):
        for n in range(-2, 3):
            if not 0 < 3 * m * m + n * n <= 7:
                continue
            for name, t in torsion.items():
                s = m * pts["P"] + n * pts["Q"] + t
                row = [m, n, name] + [str(height_pairing(s, other))
                                      for other in (s, pts["P"], pts["Q"])]
                try:
                    row += [(c.x, c.y, c.d)
                            for c in point_to_param(s).components()]
                except ValueError as e:
                    row.append(str(e))
                lines.append(repr(row))
    assert len(lines) == 56
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SECTIONS_SHA256


# -- torsion and descent ------------------------------------------------------------


def test_torsion_points(model):
    tors = torsion_points()
    assert torsion_points() is tors  # built once
    with pytest.raises(TypeError):
        tors["P"] = model.infinity()
    assert len(tors) == 4
    for name, p in tors.items():
        assert (2 * p).is_infinity
    vals = list(tors.values())
    for a in vals:
        for b in vals:
            assert (a + b) in vals


def test_torsion_certificate():
    cert = torsion_certificate()
    assert cert.ok
    assert cert.fact("torsion.order") == 4
    assert cert.fact("torsion.structure") == "(Z/2)^2"
    assert cert.imported  # relies on the imported torsion bound


def test_square_classes(pts):
    p, q = pts["P"], pts["Q"]
    # positive control: u of a doubled point is a square times (u - e1), e1 = 0
    assert is_square_in_function_field((2 * p).u)
    # u(T1) = (t^2 - 1)(t + 2)^2 is not a square
    assert not is_square_in_function_field(pts["T1"].u)
    base = p + q
    for t in torsion_points().values():
        assert not is_square_in_function_field((base + t).u)


def test_saturation_certificate():
    cert = saturation_certificate()
    assert cert.ok
    assert cert.fact("lattice.scaled_gram") == ((6, 0), (0, 2))
    assert cert.fact("lattice.scaled_disc") == 12
    assert cert.fact("lattice.index") == 1
    assert cert.fact("lattice.rank") == 2


def test_rank_formula_certificate():
    cert = rank_formula_certificate()
    assert cert.ok
    assert cert.fact("picard.number") == 20
    assert cert.fact("euler.number") == 24
    assert cert.fact("fibers.component_excess") == 16


def test_certificate_is_immutable():
    cert = rank_formula_certificate()
    with pytest.raises(AttributeError):
        cert.ok = False
    with pytest.raises(KeyError):
        cert.fact("no.such.key")
