"""Heights, local contributions, torsion, and the saturation argument."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from field_oracle import conj
from zerodiag.exactnum import (
    Polynomial,
    RationalFunction,
)
from zerodiag import mwlat
from zerodiag.curve import (
    CurvePoint,
    WeierstrassModel,
    family_model,
    fiber_at,
    named_sections,
    param_to_point,
    point_to_param,
    tate_classify,
)
from zerodiag.mwlat import (
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


def _code(fib, component):
    """A section_component value as the COMPONENTS table writes it, after
    checking its type: None, an int on I_n, a Fraction on I0*."""
    assert type(component) in (type(None),
                                {"I": int, "I*": Fraction}[fib.kind])
    if component is None:
        return "o"
    return ("c%s" if fib.kind == "I" else "f%s") % component


def test_component_table(pts):
    """Which component each named section hits, at every bad place."""
    expected = {
        # place: (P, Q, T1, T2), coded as in COMPONENTS below
        Fraction(-2): ["o", "c3", "c2", "c2"],
        Fraction(-1): ["f-2", "f-2", "f-2", "f0"],
        Fraction(0): ["c1", "c1", "o", "c1"],
        Fraction(1): ["o", "o", "f18", "f0"],
        Fraction(2): ["c2", "c1", "c2", "o"],
        "inf": ["o", "c1", "o", "c1"],
    }
    for fib in tate_classify(family_model()):
        want = expected[fib.place]
        for pt, code in zip((pts["P"], pts["Q"], pts["T1"], pts["T2"]), want):
            assert _code(fib, section_component(pt, fib)) == code, (fib.place, pt)


# section_component for mP + nQ + T at the bad fibers
# t = -2, -1, 0, 1, 2, inf, as the former reading from truncated series
# (the node lifted by Newton's method, the twisted expansion at infinity)
# gave them: o the identity component, cK cycle K, fL the far component
# labelled L
COMPONENTS = """
    -1 -1 O     c1   o    o    o    c1   c1
    -1 -1 T1    c3   f-2  o    f18  c3   c1
    -1 -1 T2    c3   f0   c1   f0   c1   o
    -1 -1 T1+T2 c1   f16  c1   f16  c3   o
    -1  0 O     o    f-2  c1   o    c2   o
    -1  0 T1    c2   o    c1   f18  o    o
    -1  0 T2    c2   f16  o    f0   c2   c1
    -1  0 T1+T2 o    f0   o    f16  o    c1
    -1  1 O     c3   o    o    o    c3   c1
    -1  1 T1    c1   f-2  o    f18  c1   c1
    -1  1 T2    c1   f0   c1   f0   c3   o
    -1  1 T1+T2 c3   f16  c1   f16  c1   o
     0 -1 O     c1   f-2  c1   o    c3   c1
     0 -1 T1    c3   o    c1   f18  c1   c1
     0 -1 T2    c3   f16  o    f0   c3   o
     0 -1 T1+T2 c1   f0   o    f16  c1   o
     0  0 O     o    o    o    o    o    o
     0  0 T1    c2   f-2  o    f18  c2   o
     0  0 T2    c2   f0   c1   f0   o    c1
     0  0 T1+T2 o    f16  c1   f16  c2   c1
     0  1 O     c3   f-2  c1   o    c1   c1
     0  1 T1    c1   o    c1   f18  c3   c1
     0  1 T2    c1   f16  o    f0   c1   o
     0  1 T1+T2 c3   f0   o    f16  c3   o
     1 -1 O     c1   o    o    o    c1   c1
     1 -1 T1    c3   f-2  o    f18  c3   c1
     1 -1 T2    c3   f0   c1   f0   c1   o
     1 -1 T1+T2 c1   f16  c1   f16  c3   o
     1  0 O     o    f-2  c1   o    c2   o
     1  0 T1    c2   o    c1   f18  o    o
     1  0 T2    c2   f16  o    f0   c2   c1
     1  0 T1+T2 o    f0   o    f16  o    c1
     1  1 O     c3   o    o    o    c3   c1
     1  1 T1    c1   f-2  o    f18  c1   c1
     1  1 T2    c1   f0   c1   f0   c3   o
     1  1 T1+T2 c3   f16  c1   f16  c1   o
"""


def test_section_component_matches_the_oracle(pts):
    """section_component against the recorded table, on every mP + nQ + T
    with |m|, |n| <= 1 at every bad fiber: 216 pairs that reach every
    component the table above names and the third far component at each
    I0* place."""
    fibers = tate_classify(family_model())
    assert [f.symbol for f in fibers] == ["I4", "I0*", "I2", "I0*", "I4", "I2"]
    want = {}
    for line in COMPONENTS.split("\n"):
        if line:
            m, n, name, *refs = line.split()
            want[int(m), int(n), name] = refs
    assert len(want) == 36 and {len(refs) for refs in want.values()} == {6}
    seen = set()
    for (m, n, name), refs in want.items():
        sec = m * pts["P"] + n * pts["Q"] + torsion_points()[name]
        for fib, code in zip(fibers, refs):
            got = _code(fib, section_component(sec, fib))
            assert got == code, (m, n, name, fib.place)
            seen.add((str(fib.place), code))
    # I4: identity and cycles 1-3; I2: identity and cycle 1; I0*:
    # identity and three far labels
    per_place = Counter(place for place, _ in seen)
    assert per_place == {"-2": 4, "-1": 4, "0": 2, "1": 4, "2": 4, "inf": 2}


def _unchecked_point(model, u, v):
    # a CurvePoint built past the constructor's curve check
    pt = object.__new__(CurvePoint)
    for name, value in (("model", model), ("u", u), ("v", v)):
        object.__setattr__(pt, name, value)
    return pt


def test_wrong_slope_at_the_node_is_refused(pts):
    """Q meets cycle 3 at t = -2; doubling v breaks lead(v) / lead(u - e_i)
    = +-root0 there.  On I0*, a u through the triple point whose linear
    term is no root's leaves no u - e_i of order 2."""
    fibers = {f.place: f for f in tate_classify(family_model())}
    q = pts["Q"]
    assert section_component(q, fibers[Fraction(-2)]) == 3
    with pytest.raises(ArithmeticError):
        section_component(_unchecked_point(q.model, q.u, 2 * q.v),
                          fibers[Fraction(-2)])
    for place in (Fraction(-1), Fraction(1)):
        fake = _unchecked_point(q.model, RationalFunction(5 * (T - place)),
                                q.v)
        with pytest.raises(ArithmeticError):
            section_component(fake, fibers[place])


def test_section_off_the_model_is_refused(pts):
    # the curve check lives where points are built: components trust it
    for s in (pts["P"], pts["Q"], pts["P"] + pts["Q"]):
        with pytest.raises(ValueError):
            s.model.point(s.u, 2 * s.v)


def test_components_need_rational_two_torsion():
    t = RationalFunction(T)
    # v^2 = u (u^2 + u + t): I2 at t = 0, 2-torsion over Q(sqrt(1 - 4t))
    irrational = WeierstrassModel(1, t, 0)
    # v^2 = u^3 + u^2 + t^2: I2 at t = 0, a6 != 0
    shifted = WeierstrassModel(1, 0, t * t)
    for model, pt in ((irrational, irrational.point(0, 0)),
                      (shifted, shifted.point(0, t))):
        fib = fiber_at(model, Fraction(0))
        assert fib.symbol == "I2"
        with pytest.raises(NotImplementedError):
            section_component(pt, fib)


def test_section_component_does_no_hidden_work(pts, monkeypatch):
    """Components are read from the global model and the section: no local
    model is built, and the only curve checks are those of the three
    2-torsion points, once per model."""
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
    mwlat._two_torsion.cache_clear()
    mwlat._two_torsion_at.cache_clear()
    refs = [section_component(pts[name], fib)
            for fib in fibers for name in ("P", "Q", "T1", "T2")]
    assert len(refs) == 24
    assert calls == {"contains": 3, "init": 0}


def test_two_torsion_is_found_once_per_model(pts, monkeypatch):
    """The 2-torsion depends only on the model: the heights of P, Q and
    P+Q take one square root, not one per section or per place."""
    section_component.cache_clear()
    mwlat._two_torsion.cache_clear()
    mwlat._two_torsion_at.cache_clear()
    real, roots = mwlat.poly_sqrt, []

    def counted(f):
        roots.append(f)
        return real(f)

    monkeypatch.setattr(mwlat, "poly_sqrt", counted)
    heights = [height_pairing(pt)
               for pt in (pts["P"], pts["Q"], pts["P"] + pts["Q"])]
    assert heights == [Fraction(3, 2), Fraction(1, 2), Fraction(2)]
    assert len(roots) == 1


def test_zero_section_on_identity(pts):
    for fib in tate_classify(family_model()):
        assert section_component(pts["O"], fib) is None


def test_contribution_values():
    fibers = {f.place: f for f in tate_classify(family_model())}
    i4 = fibers[Fraction(2)]
    mid, side = 2, 1
    assert local_contribution(i4, mid, mid) == 1
    assert local_contribution(i4, side, side) == Fraction(3, 4)
    assert local_contribution(i4, side, mid) == Fraction(1, 2)
    assert local_contribution(i4, side, 3) == Fraction(1, 4)
    assert local_contribution(i4, None, mid) == 0
    star = fibers[Fraction(1)]
    a, b = Fraction(0), Fraction(18)
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


def _computed_components():
    # (computed, distinct) components since the cache was cleared: equal
    # when no (section, fiber) was computed twice
    info = section_component.cache_info()
    return info.misses, info.currsize


def test_height_gram_computes_each_component_once(pts):
    sections = [pts["P"], pts["Q"], pts["T1"], pts["P"] + pts["Q"], pts["O"]]
    want = [[height_pairing(s) if i == j else height_pairing(s, t)
             for j, t in enumerate(sections)] for i, s in enumerate(sections)]
    section_component.cache_clear()
    assert height_gram(sections) == want
    # once per (section, bad fiber); O's pairings are 0 without a component
    n = 4 * len(tate_classify(family_model()))
    assert _computed_components() == (n, n)


def test_a_height_then_a_pairing_expand_each_component_once(pts):
    s = pts["P"] + pts["Q"]
    section_component.cache_clear()
    assert height_pairing(s) == 2
    assert height_pairing(s, pts["P"]) == Fraction(3, 2)
    # s and P at each of the six bad fibers, s's components not redone
    assert _computed_components() == (12, 12)
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
    conj_q = q.model.point(conj(q.u), conj(q.v))
    assert conj_q == -q
    assert height_pairing(conj_q) == height_pairing(q)
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
