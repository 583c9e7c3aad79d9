import random
from fractions import Fraction as F

import pytest

from zerodiag.exactnum import (
    PoleError,
    Polynomial,
    QuadElem,
    RationalFunction,
    SQRT3,
    conj,
    field_sqrt,
    matrix_rank,
    nullspace,
    poly_gcd,
    poly_sqrt,
    quad_sqrt,
    rat_sqrt,
    rational_roots,
    rref,
    squarefree_decomposition,
    squarefree_part,
)

T = Polynomial.gen()


def test_floats_rejected():
    with pytest.raises(TypeError):
        Polynomial([0.5])
    with pytest.raises(TypeError):
        QuadElem(1.5)


def test_quadelem_field_axioms():
    rng = random.Random(7)
    for _ in range(50):
        a = QuadElem(F(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-9, 9))
        b = QuadElem(rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 7)))
        assert a * b == b * a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        if a:
            assert a * a.inverse() == 1
    assert SQRT3 * SQRT3 == 3


def test_quadelem_norm_is_multiplicative():
    a, b = QuadElem(2, 5), QuadElem(-1, F(1, 3))
    assert (a * b).norm() == a.norm() * b.norm()


def test_quadelem_positivity_matches_real_embedding():
    # sqrt(3) = 1.732...; check exact sign logic against float sign on cases
    # where the float is nowhere near zero.
    rng = random.Random(21)
    for _ in range(200):
        r, s = rng.randint(-30, 30), rng.randint(-30, 30)
        x = QuadElem(r, s)
        approx = r + s * 3 ** 0.5
        if abs(approx) < 1e-6 or not x:
            continue
        assert x.is_positive() == (approx > 0)
    # a genuinely close case: 26 - 15*sqrt(3) = 0.019...
    assert QuadElem(26, -15).is_positive()
    assert not QuadElem(-26, 15).is_positive()


def test_rat_sqrt():
    assert rat_sqrt(F(49, 64)) == F(7, 8)
    assert rat_sqrt(F(2)) is None
    assert rat_sqrt(F(-4)) is None
    assert rat_sqrt(F(0)) == 0


def test_quad_sqrt_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        x = QuadElem(F(rng.randint(-6, 6), rng.randint(1, 4)), rng.randint(-6, 6))
        sq = x * x
        root = quad_sqrt(sq)
        assert root is not None
        assert root * root == sq
    assert quad_sqrt(QuadElem(0, 1)) is None  # sqrt(sqrt(3)) leaves the field
    assert quad_sqrt(QuadElem(2, 0)) is None


def test_field_sqrt():
    assert field_sqrt(4) == 2
    assert field_sqrt(F(9, 4)) == F(3, 2)
    assert field_sqrt(3) == SQRT3  # lifted into Q(sqrt 3)
    assert field_sqrt(2) is None
    root = field_sqrt(QuadElem(7, 4))  # (2 + sqrt 3)^2
    assert root * root == QuadElem(7, 4)
    assert field_sqrt(SQRT3) is None


# -- linear algebra over Q and Q(sqrt 3) ----------------------------------------


def test_rref_nullspace_rank_over_quadratic_field():
    rows = [
        (1, SQRT3, 0, QuadElem(2, 0)),
        (SQRT3, 3, 1, QuadElem(0, 2)),       # row 0 times sqrt 3, plus e2
        (QuadElem(1, 1), QuadElem(3, 1), 1, QuadElem(2, 2)),  # row 0 + row 1
    ]
    reduced, pivots = rref(rows)
    assert pivots == [0, 2]
    assert matrix_rank(rows) == 2
    for i, p in enumerate(pivots):
        assert [row[p] for row in reduced] == [int(i == r) for r in range(2)]
    # rational QuadElems come back as Fractions
    assert type(reduced[0][3]) is F and reduced[0][3] == 2
    assert all(type(x) is F for x in reduced[1])
    basis = nullspace(rows)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    assert type(basis[0][2]) is F
    assert any(isinstance(x, QuadElem) for vec in basis for x in vec)
    assert matrix_rank([(QuadElem(0, 0), 0)]) == 0
    assert matrix_rank([(1, 2), (SQRT3, 2 * SQRT3)]) == 1
    assert matrix_rank([(1, 2), (SQRT3, 2)]) == 2


def test_polynomial_ring_axioms():
    rng = random.Random(11)

    def rand_poly():
        return Polynomial([rng.randint(-8, 8) for _ in range(rng.randint(0, 6))])

    for _ in range(40):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        if not g.is_zero:
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree


def test_polynomial_shift_and_reverse():
    f = (T - 2) ** 3 * (T + 1)
    assert f.shift(2)(F(0)) == 0
    assert f.shift(2).valuation_at(F(0)) == 3
    rev = f.reverse(6)
    # t^6 f(1/t) vanishes to order 6 - deg f = 2 at 0
    assert rev.valuation_at(F(0)) == 2


def test_poly_gcd_agrees_with_construction():
    f = (T - 1) ** 2 * (T + 3) * (2 * T + 5)
    g = (T - 1) * (T + 3) ** 2 * (3 * T - 7)
    assert poly_gcd(f, g) == ((T - 1) * (T + 3)).monic()


def test_poly_gcd_quadratic_field():
    p = Polynomial([QuadElem(0, -1), 1])  # t - sqrt3
    f = p * (T + 2)
    g = p * (T - 5)
    assert poly_gcd(f, g) == p


def test_squarefree_part_of_cubic():
    # f = t^3 - 3t + 2 = (t-1)^2 (t+2); odd-multiplicity product is t + 2
    f = T ** 3 - 3 * T + 2
    assert squarefree_part(f) == T + 2


def test_squarefree_part_keeps_odd_multiplicities():
    f = (T - 1) ** 3 * (T + 2) ** 2 * (T ** 2 + 1)
    assert squarefree_part(f) == (T - 1) * (T ** 2 + 1)
    # quotient by the squarefree part is a perfect square
    ratio = f.exact_div(squarefree_part(f))
    assert poly_sqrt(ratio.monic()) is not None


def test_squarefree_decomposition_reconstructs():
    f = (T - 1) ** 3 * (T + 2) ** 2 * (T ** 2 + 1)
    rebuilt = Polynomial([1])
    for g, m in squarefree_decomposition(f):
        rebuilt = rebuilt * g ** m
    assert rebuilt == f.monic()


def test_poly_sqrt():
    f = (T ** 3 - 2 * T + 9) ** 2 * 4
    assert poly_sqrt(f) in ((T ** 3 - 2 * T + 9) * 2, (T ** 3 - 2 * T + 9) * -2)
    assert poly_sqrt(f * T) is None
    assert poly_sqrt(f * (T + 1) ** 3) is None
    p = Polynomial([QuadElem(1, 1), QuadElem(0, 2), 1])
    assert poly_sqrt(p * p) is not None


def test_rational_roots_against_divisor_oracle():
    # oracle: scan all p/q with p | a0, q | an directly, no cleverness
    rng = random.Random(17)
    for _ in range(25):
        roots = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        f = Polynomial([rng.randint(1, 5)])
        for r in roots:
            f = f * Polynomial([-r.numerator, r.denominator])
        if rng.random() < 0.5:
            f = f * (T ** 2 + T + 1)  # irreducible drag-along
        found = rational_roots(f)
        assert found == set(roots)


def test_rational_roots_handles_zero_root_and_scaling():
    f = 6 * T ** 2 * (3 * T - 2) * (T + F(1, 2))
    assert rational_roots(f) == {F(0), F(2, 3), F(-1, 2)}


def test_rational_function_reduction_and_poles():
    r = RationalFunction((T - 1) ** 2 * (T + 2), (T - 1) * (T + 5))
    assert r.num == (T - 1) * (T + 2)
    assert r.den == T + 5
    assert r(F(3)) == F(5, 4)
    with pytest.raises(PoleError):
        r(F(-5))
    assert r.ord_at(F(1)) == 1
    assert r.ord_at(F(-5)) == -1
    assert r.ord_at_infinity() == -1


def test_rational_function_field_ops():
    a = RationalFunction(T, T - 1)
    b = RationalFunction(1, T + 1)
    s = a + b
    assert s == RationalFunction(T * (T + 1) + (T - 1), (T - 1) * (T + 1))
    assert (a * b) / b == a
    assert (a - a).is_zero


def test_conjugation_lifts_through_tower():
    p = Polynomial([QuadElem(1, 2), QuadElem(0, -1), 3])
    r = RationalFunction(p, T + 1)
    assert conj(conj(p)) == p
    assert conj(r).num == conj(p)
    assert conj(F(5, 3)) == F(5, 3)


def test_scalar_formatting():
    from zerodiag.exactnum import format_scalar

    assert format_scalar(F(3, 4)) == "3/4"
    assert format_scalar(QuadElem(F(1, 2), F(-3, 4))) == "(1/2)+(-3/4)√3"
    assert format_scalar(QuadElem(7, 0)) == "7"
