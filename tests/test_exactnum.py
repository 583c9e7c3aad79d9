import random
from fractions import Fraction as F
from itertools import product, takewhile
from math import gcd, isqrt

import pytest

from field_oracle import conj, matrix_rank, nullspace, rref
from zerodiag import exactnum
from zerodiag.exactnum import (
    PoleError,
    Polynomial,
    QuadElem,
    RationalFunction,
    SQRT3,
    field_sqrt,
    gcd_cofactors,
    poly_gcd,
    poly_sqrt,
    rat_sqrt,
    rational_roots,
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
        if a:
            assert a * a.inverse() == 1
    assert SQRT3 * SQRT3 == 3


def test_quadelem_norm_is_multiplicative():
    a, b = QuadElem(2, 5), QuadElem(-1, F(1, 3))
    assert (a * b).norm() == a.norm() * b.norm()


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
        root = field_sqrt(sq)
        assert root is not None
        assert root * root == sq
    assert field_sqrt(QuadElem(0, 1)) is None  # sqrt(sqrt(3)) leaves the field
    assert field_sqrt(QuadElem(2, 0)) is None


def test_field_sqrt():
    assert field_sqrt(4) == 2
    assert field_sqrt(F(9, 4)) == F(3, 2)
    assert field_sqrt(3) == SQRT3  # lifted into Q(sqrt 3)
    assert field_sqrt(2) is None
    root = field_sqrt(QuadElem(7, 4))  # (2 + sqrt 3)^2
    assert root * root == QuadElem(7, 4)
    assert field_sqrt(SQRT3) is None


# -- the field row reduction, kept in the tests as the oracle ----------------------


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
    # rational values come back as Fractions
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
            m = g.monic()
            assert exactnum._quotient(f * m, m) == f


# -- the integer form against field arithmetic ---------------------------------


def field_mul(f, g):
    """Oracle: Polynomial.__mul__ in field arithmetic, from before the
    integer form."""
    if f.is_zero or g.is_zero:
        return Polynomial()
    a, b = f.coeffs, g.coeffs
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return Polynomial(out)


def field_divmod(f, g):
    """Oracle: Polynomial.__divmod__, long division over the field, from
    before exactnum dropped it."""
    o = Polynomial._lift(g)
    if o.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dv = list(o.coeffs)
    dq = len(dv) - 1
    inv_lead = exactnum._inv(dv[-1])
    if len(rem) - 1 < dq:
        return Polynomial(), f
    quot = [0] * (len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = c * inv_lead
        quot[i - dq] = q
        for j in range(dq + 1):
            rem[i - dq + j] = rem[i - dq + j] - q * dv[j]
    return Polynomial(quot), Polynomial(rem)


def horner_shift(f, c):
    """Oracle: Polynomial.shift, f(t + c) via Horner in (t + c)."""
    tc = Polynomial([c, 1])
    out = Polynomial()
    for coeff in reversed(f.coeffs):
        out = out * tc + coeff
    return out


def divmod_valuation(f, root):
    """Oracle: the order of f at root, the first item of Polynomial.lead_at,
    by repeated division by t - root."""
    if f.is_zero:
        raise ValueError("valuation of the zero polynomial")
    k = 0
    lin = Polynomial([-root, 1])
    while True:
        q, r = field_divmod(f, lin)
        if not r.is_zero:
            return k
        f, k = q, k + 1


def field_exact_div(f, g):
    """Oracle: exact division by field long division."""
    q, r = field_divmod(f, g)
    if not r.is_zero:
        raise ValueError("not an exact polynomial division")
    return q


def field_normalized_int(f):
    """Oracle: Polynomial._normalized_int in field arithmetic."""
    if f.is_zero:
        return f
    nums, dens = [], []
    for c in f.coeffs:
        parts = (c.r, c.s) if isinstance(c, QuadElem) else (c,)
        for p in parts:
            nums.append(p.numerator)
            dens.append(p.denominator)
    m = 1
    for d in dens:
        m = m * d // gcd(m, d)
    scaled = [c * m for c in f.coeffs]
    g = 0
    for c in scaled:
        parts = (c.r, c.s) if isinstance(c, QuadElem) else (c,)
        for p in parts:
            g = gcd(g, abs(p.numerator))
    if g > 1:
        scaled = [c / g for c in scaled]
    return Polynomial(scaled)


def assert_canonical(f):
    """The stored form: int tuples x, y of one length and the least d > 0,
    no trailing zero pair and gcd(d, *x, *y) = 1; its coefficients are
    Fractions and irrational QuadElems."""
    assert type(f.x) is tuple and type(f.y) is tuple and type(f.d) is int
    assert len(f.x) == len(f.y)
    assert all(type(v) is int for v in f.x + f.y)
    if f.is_zero:
        assert f.d == 1
    else:
        assert f.d > 0 and (f.x[-1] or f.y[-1])
        assert gcd(f.d, *f.x, *f.y) == 1
    assert all(type(c) is F or (type(c) is QuadElem and c.s != 0)
               for c in f.coeffs)


def assert_identical(got, want):
    assert got == want
    assert (got.x, got.y, got.d) == (want.x, want.y, want.d)
    assert hash(got) == hash(want)
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert_canonical(got)


def kernel_samples(seed):
    """Zero, constants and seeded random polynomials over Q and over
    Q(sqrt 3), with non-monic leads; those built from QuadElems with zero
    sqrt 3 parts have rational values, so they are polynomials over Q."""
    rng = random.Random(seed)
    out = [Polynomial(), Polynomial([F(-3, 4)]), Polynomial([QuadElem(2, -1)]),
           Polynomial([QuadElem(F(5, 6))]), T, 7 * T - F(2, 9)]
    for _ in range(6):
        out.append(random_poly(rng, rng.randint(0, 7), False))
        out.append(random_poly(rng, rng.randint(0, 7), True))
        f = random_poly(rng, rng.randint(1, 5), False)
        out.append(Polynomial([QuadElem(c) for c in f.coeffs]))
    return out


def from_integer_parts(x, y, d):
    """Oracle: the former exactnum._from_integer_parts, the polynomial with
    coefficients (x[i] + y[i]*sqrt3) / d built from field scalars."""
    return Polynomial([QuadElem(F(u, d), F(v, d)) if v else F(u, d)
                       for u, v in zip(x, y)])


def parts_mul(f, g):
    """Oracle: Polynomial.__mul__ from before the stored integer form,
    which cleared the denominators of both operands at every product."""
    if f.is_zero or g.is_zero:
        return Polynomial()
    ax, ay, ad = exactnum._integer_parts(f.coeffs)
    bx, by, bd = exactnum._integer_parts(g.coeffs)
    yy = exactnum._convolve(ay, by)
    x = [u + 3 * v for u, v in zip(exactnum._convolve(ax, bx), yy)]
    y = [u + v for u, v in zip(exactnum._convolve(ax, by),
                               exactnum._convolve(ay, bx))]
    return from_integer_parts(x, y, ad * bd)


def four_convolution_mul(f, g):
    """Oracle: Polynomial.__mul__ on the stored integer form, from before
    it skipped the convolutions of zero sqrt 3 parts."""
    if f.is_zero or g.is_zero:
        return Polynomial()
    yy = exactnum._convolve(f.y, g.y)
    x = [u + 3 * v for u, v in zip(exactnum._convolve(f.x, g.x), yy)]
    y = [u + v for u, v in zip(exactnum._convolve(f.x, g.y),
                               exactnum._convolve(f.y, g.x))]
    return Polynomial._of(x, y, f.d * g.d)


def field_add(f, g):
    """Oracle: Polynomial.__add__ in field arithmetic, coefficient by
    coefficient."""
    return Polynomial([f[i] + g[i] for i in range(max(f.degree, g.degree) + 1)])


def test_integer_mul_matches_field_mul():
    samples = kernel_samples(41)
    for f in samples:
        assert_canonical(f)
        for g in samples:
            assert_identical(f * g, field_mul(f, g))
            assert_identical(f * g, parts_mul(f, g))
            assert_identical(f * g, four_convolution_mul(f, g))
            assert_identical(f + g, field_add(f, g))
            assert_identical(f - g, field_add(f, field_mul(g, Polynomial([-1]))))
    assert_identical(samples[7] * 3, field_mul(samples[7], Polynomial([3])))
    assert_identical(SQRT3 * samples[6], field_mul(Polynomial([SQRT3]),
                                                   samples[6]))


def test_quotient_matches_field_division():
    samples = kernel_samples(43)
    for g in samples:
        if g.is_zero:
            with pytest.raises(ZeroDivisionError):
                field_exact_div(samples[1], g)
            continue
        g = g.monic()
        for h in samples:
            f = field_mul(g, h)
            assert_identical(exactnum._quotient(f, g), field_exact_div(f, g))
            if g.degree > 0 and not h.is_zero:
                assert exactnum._quotient(f + 1, g) is None
                with pytest.raises(ValueError):
                    field_exact_div(f + 1, g)


def test_operations_keep_the_canonical_form():
    for f in kernel_samples(47):
        results = [-f, f.monic(), f ** 2, Polynomial(f.coeffs)]
        for g in results:
            assert_canonical(g)
        assert_identical(Polynomial(f.coeffs), f)
        assert_identical(-f, field_mul(f, Polynomial([-1])))
        if f:
            assert_identical(f.monic(), field_mul(
                f, Polynomial([exactnum._inv(f.lead())])))
            assert f.monic().lead() == 1


def test_equal_polynomials_have_one_form():
    a, b = Polynomial([F(1, 2), 1]) * 2, Polynomial([1, 2])
    assert (a.x, a.y, a.d) == (b.x, b.y, b.d) == ((1, 2), (0, 0), 1)
    assert hash(a) == hash(b)
    half = Polynomial([F(1, 2), 1])
    assert (half.x, half.y, half.d) == ((1, 2), (0, 0), 2)
    routes = [half, (T + F(1, 2)) - T + T, Polynomial._of([2, 4], [0, 0], 4),
              Polynomial._of([-3, -6, 0], [0, 0, 0], -6), (2 * T + 1) * F(1, 2),
              exactnum._quotient(half * (T - SQRT3), T - SQRT3),
              RationalFunction(half * (T + 1), T + 1).num]
    for g in routes:
        assert_identical(g, half)
    # content in Z[sqrt 3]: (1 + sqrt3)^2 = 2(2 + sqrt3), over 2
    s = Polynomial([QuadElem(1, 1)]) * Polynomial([QuadElem(F(1, 2), F(1, 2))])
    assert (s.x, s.y, s.d) == ((2,), (1,), 1)
    r = (SQRT3 * T) * (SQRT3 * T)
    assert (r.x, r.y, r.d) == ((0, 0, 3), (0, 0, 0), 1)
    zero = Polynomial._of([0, 0], [0, 0], 5)
    diff = T - T
    assert (zero.x, zero.y, zero.d) == (diff.x, diff.y, diff.d) == ((), (), 1)
    assert_identical(zero, Polynomial())


def test_rat_returns_a_fraction_itself():
    x = F(22, 7)
    assert exactnum.rat(x) is x
    assert exactnum.rat(3) == 3 and type(exactnum.rat(3)) is F
    with pytest.raises(TypeError):
        exactnum.rat(0.5)


def field_taylor(coeffs, r, n):
    """Oracle: _taylor in field arithmetic, from before the integer shift:
    step k divides by t - r synthetically over the field."""
    c = list(coeffs)
    for k in range(min(n, len(c))):
        for i in range(len(c) - 2, k - 1, -1):
            c[i] = c[i] + r * c[i + 1]
        yield c[k]


def taylor_scalars(f, r, n):
    """The integer pairs of _taylor over their denominator d*q^deg f, as
    field scalars."""
    den = f.d * F(r).denominator ** max(f.degree, 0)
    pairs = list(exactnum._taylor(f, r, n))
    assert all(type(u) is int and type(v) is int for u, v in pairs)
    return [QuadElem(F(u, den), F(v, den)) for u, v in pairs]


def test_polynomial_taylor_shift():
    f = (T - 2) ** 3 * (T + 1)
    assert list(exactnum._taylor(f, 2, 9)) == [(0, 0)] * 3 + [(3, 0), (1, 0)]
    assert taylor_scalars(f, 2, 9) == list(field_taylor(f.coeffs, 2, 9))
    # at r = 1/2 the pairs are over d*q^deg = 4: f(t + 1/2) = 4t^2
    g = (2 * T - 1) ** 2
    assert list(exactnum._taylor(g, F(1, 2), 3)) == [(0, 0), (0, 0), (16, 0)]
    assert taylor_scalars(g, F(1, 2), 3) == [0, 0, 4]
    assert f.lead_at(2) == (3, 3)
    assert g.lead_at(F(1, 2)) == (2, 4)


def test_taylor_and_valuation_match_shift_and_divmod():
    rng = random.Random(53)
    for quad in (False, True):
        for m in range(6):
            for _ in range(4):
                r = F(rng.randint(-9, 9), rng.randint(1, 4))
                h = random_poly(rng, rng.randint(0, 4), quad)
                f = (T - r) ** m * h
                shifted = horner_shift(f, r).coeffs
                for n in (1, f.degree, f.degree + 1, f.degree + 4):
                    got = taylor_scalars(f, r, n)
                    want = list(field_taylor(f.coeffs, r, n))
                    assert got == want == list(shifted[:n])
                    assert [type(c) for c in got] == [type(c) for c in want]
                assert f.lead_at(r)[0] == divmod_valuation(f, r)
                assert f.lead_at(r)[0] == m + (h(r) == 0)
                # the leading term at r: the first nonzero shifted coefficient
                v = divmod_valuation(f, r)
                assert f.lead_at(r) == (v, shifted[v])
                assert type(f.lead_at(r)[1]) is type(shifted[v])
    zero = Polynomial()
    assert list(exactnum._taylor(zero, F(1, 2), 3)) == []
    with pytest.raises(ValueError):
        zero.lead_at(F(1, 2))
    with pytest.raises(ValueError):
        divmod_valuation(zero, F(1, 2))


def test_integer_taylor_matches_field_taylor():
    rng = random.Random(37)
    places = [0, 3, -2, F(1, 2), F(-7, 3), F(5, 12)]
    samples = kernel_samples(37) + [-3 * (T - F(1, 6)) ** 4, -SQRT3 * T ** 3]
    for f in samples:
        for r in places + [F(rng.randint(-20, 20), rng.randint(1, 9))]:
            for n in (0, 1, 2, f.degree + 1, f.degree + 3):
                got = taylor_scalars(f, r, n)
                want = list(field_taylor(f.coeffs, r, n))
                assert got == want, (f, r, n)
                assert [type(c) for c in got] == [type(c) for c in want]


def test_poly_gcd_agrees_with_construction():
    f = (T - 1) ** 2 * (T + 3) * (2 * T + 5)
    g = (T - 1) * (T + 3) ** 2 * (3 * T - 7)
    assert poly_gcd(f, g) == ((T - 1) * (T + 3)).monic()


def test_poly_gcd_quadratic_field():
    p = Polynomial([QuadElem(0, -1), 1])  # t - sqrt3
    f = p * (T + 2)
    g = p * (T - 5)
    assert poly_gcd(f, g) == p


def euclid_gcd(a, b):
    """Oracle: the Euclidean poly_gcd from before the modular one, with the
    field content normalization."""
    a, b = field_normalized_int(a), field_normalized_int(b)
    while not b.is_zero:
        a, b = b, field_normalized_int(field_divmod(a, b)[1])
    return a.monic() if not a.is_zero else a


def assert_same_gcd(a, b):
    """poly_gcd equals Euclid's answer, down to the type of every
    coefficient."""
    got, want = poly_gcd(a, b), euclid_gcd(a, b)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    return got


P1, P2 = exactnum._gcd_prime(0), exactnum._gcd_prime(1)


def image_gcd_degree(a, b, p, w=None):
    """Degree of gcd(a, b) modulo p with sqrt3 -> w (default: the square
    root poly_gcd uses)."""
    if w is None:
        w = pow(3, (p + 1) // 4, p)
    ia, ib = exactnum._image(a, w, p), exactnum._image(b, w, p)
    return len(exactnum._gcd_mod(ia, ib, p)) - 1


SMALL_PRIMES = [q for q in range(2, 46341)  # 46341^2 > 2^31
                if all(q % r for r in range(2, isqrt(q) + 1))]


def trial_division_is_prime(n):
    return n > 1 and all(n % q for q in takewhile(lambda q: q * q <= n,
                                                   SMALL_PRIMES))


def test_gcd_primes_are_the_largest_that_reduce_sqrt3():
    primes = [exactnum._gcd_prime(i) for i in range(32)]
    want = [p for p in range(2 ** 31 - 1, primes[-1] - 1, -1)
            if p % 12 == 11 and trial_division_is_prime(p)]
    assert primes == want
    for p in primes:
        assert pow(pow(3, (p + 1) // 4, p), 2, p) == 3


def test_is_prime_matches_trial_division():
    for n in list(range(-3, 3000)) + list(range(2 ** 31 - 3000, 2 ** 31)):
        assert exactnum._is_prime(n) == trial_division_is_prime(n), n
    # strong pseudoprimes to base 2, caught by the bases 3, 5 and 7
    for n in (2047, 3277, 4033, 4681, 8321):
        assert pow(2, n - 1, n) == 1 and not exactnum._is_prime(n)
    # the least strong pseudoprime to bases 2, 3, 5 and 7 lies above 2^31,
    # which is why the stream stops there
    assert exactnum._is_prime(3215031751) and 3215031751 % 151 == 0


def random_poly(rng, degree, quad):
    def coeff():
        r = F(rng.randint(-40, 40), rng.randint(1, 12))
        return QuadElem(r, F(rng.randint(-40, 40), rng.randint(1, 12))) if quad else r
    coeffs = [coeff() for _ in range(degree)]
    lead = coeff()
    while not lead:
        lead = coeff()
    return Polynomial(coeffs + [lead])


@pytest.mark.parametrize("fields", [(False, False, False), (True, True, True),
                                    (False, True, False), (True, False, True),
                                    (False, False, True)])
def test_poly_gcd_matches_euclid_on_planted_factors(fields):
    """fields: whether the planted factor, a's and b's cofactors lie in
    Q(sqrt 3)."""
    rng = random.Random(1971 + sum(k << i for i, k in enumerate(fields)))
    quad_g, quad_u, quad_v = fields
    degrees = [0, 0, 1, 3, 7, 12]
    nontrivial = 0
    for trial in range(10):
        dg = rng.choice([0, 1, 2, 5, 10, 20])
        du, dv = rng.choice(degrees), rng.choice(degrees)
        if trial == 0:  # the largest case: degree 40 on both sides
            dg, du, dv = 20, 20, 20
        g = random_poly(rng, dg, quad_g)
        a = g * random_poly(rng, du, quad_u)
        b = g * random_poly(rng, dv, quad_v)
        got = assert_same_gcd(a, b)
        if trial:  # Euclid takes seconds on the degree-40 pair; once will do
            assert_same_gcd(b, a)
        assert got.degree >= dg
        nontrivial += got.degree > 0
    assert nontrivial >= 5


def test_poly_gcd_zero_and_constant_arguments():
    q = Polynomial([QuadElem(2, 1), 0, QuadElem(0, 3)])
    f = (T - 1) * (T + F(1, 2))
    zero = Polynomial()
    for c in (Polynomial([F(-3, 7)]), Polynomial([QuadElem(F(1, 2), 1)]),
              Polynomial([QuadElem(5)])):
        for other in (zero, c, f, q, Polynomial([4]), Polynomial([SQRT3])):
            assert_same_gcd(c, other)
            assert_same_gcd(other, c)
    for other in (zero, f, q, 2 * f):
        assert_same_gcd(zero, other)
        assert_same_gcd(other, zero)


def test_poly_gcd_when_p_divides_a_denominator():
    g = T - F(1, P1)
    a, b = g * (T + 2), g * (T ** 2 - 3)
    # inconclusive at the first prime
    assert exactnum._image(a, 0, P1) is None
    assert assert_same_gcd(a, b) == g
    # a coprime pair, certified at the second prime only
    assert assert_same_gcd(T ** 2 + F(1, P1), T ** 3 + 2).degree == 0
    q = Polynomial([QuadElem(0, F(1, P1)), 1])
    assert assert_same_gcd(q * (T + 1), q * (T - SQRT3)) == q


def test_poly_gcd_when_p_divides_both_leading_numerators():
    # the images mod P1 drop degree and are coprime, but the pair is not
    a, b = (P1 * T + 1) * (T + 5), (P1 * T + 1) * (T - 7)
    assert image_gcd_degree(a, b, P1) == 0
    assert assert_same_gcd(a, b) == T + F(1, P1)
    g = T - 2
    a, b = (P1 * T + 1) * g, (P1 * T - 3) * g
    assert assert_same_gcd(a, b) == g
    # one leading coefficient kept is enough for the bound
    assert assert_same_gcd(a, (T + 1) * g) == g
    qa = Polynomial([1, QuadElem(P1, P1)]) * g
    qb = Polynomial([5, QuadElem(-P1, 3 * P1)]) * g
    assert assert_same_gcd(qa, qb) == g


def test_poly_gcd_drops_unlucky_primes():
    f = (T + 3) * (2 * T ** 2 - 5)
    # coprime over Q, but not mod P1: certified at the second prime
    assert image_gcd_degree(T + 1, T + 1 - P1, P1) == 1
    assert assert_same_gcd((T + 1) * (T - 4), (T + 1 - P1) * (T + 9)).degree == 0
    # the unlucky prime comes first: its image degree is discarded
    a, b = f * T, f * (T - P1)
    assert image_gcd_degree(a, b, P1) == 4
    assert assert_same_gcd(a, b) == f.monic()
    # the unlucky prime comes second: it is dropped from the CRT
    a, b = f * T, f * (T - P2)
    assert image_gcd_degree(a, b, P2) == 4
    assert assert_same_gcd(a, b) == f.monic()
    # over Q(sqrt 3): unlucky under sqrt3 -> w mod P1 but not under -w
    w = pow(3, (P1 + 1) // 4, P1)
    a, b = f * (T - SQRT3), f * (T - w)
    assert image_gcd_degree(a, b, P1, w) == 4
    assert image_gcd_degree(a, b, P1, P1 - w) == 3
    assert assert_same_gcd(a, b) == f.monic()


def test_poly_gcd_settles_beyond_the_first_32_primes(monkeypatch):
    first = [exactnum._gcd_prime(i) for i in range(33)]
    big = 1
    for p in first[:32]:
        big *= p
    prime, drawn = exactnum._gcd_prime, []

    def counted(i):
        drawn.append(i)
        return prime(i)

    monkeypatch.setattr(exactnum, "_gcd_prime", counted)
    g = T ** 2 + F(1, big)
    a, b = g * (T - 1), g * (T + 5)
    assert all(exactnum._image(a, 0, p) is None for p in first[:32])
    assert exactnum._image(a, 0, first[32]) is not None
    assert assert_same_gcd(a, b) == g
    # 1/big is reconstructed, and the candidate tried, at the first prime k
    # where the modulus m = prod(first[32..k]) has isqrt(m // 2) >= big
    k, modulus = 32, first[32]
    while isqrt(modulus // 2) < big:
        k += 1
        modulus *= prime(k)
    assert max(drawn) == k == 96
    # a coprime pair is certified at the 33rd prime itself
    del drawn[:]
    assert assert_same_gcd(T ** 2 + F(1, big), T ** 3 + 2) == 1
    assert drawn == list(range(33))


def count_draws(monkeypatch):
    """The list of indices _gcd_prime is called with from now on."""
    prime, drawn = exactnum._gcd_prime, []

    def counted(i):
        drawn.append(i)
        return prime(i)

    monkeypatch.setattr(exactnum, "_gcd_prime", counted)
    return drawn


def test_dividing_pairs_are_settled_at_the_first_prime(monkeypatch):
    rng = random.Random(2718)
    drawn = count_draws(monkeypatch)
    pairs = []
    for quad_g, quad_h in product((False, True), repeat=2):
        for _ in range(3):
            g = random_poly(rng, rng.randint(1, 6), quad_g)
            h = random_poly(rng, rng.randint(1, 5), quad_h)
            c = F(-7, 5) if quad_h else QuadElem(F(2, 3), -1)
            pairs += [(g * h, g), (g, g * h), (c * g, g), (g, c * g),
                      (g, g), (g, Polynomial(g.coeffs))]
    for a, b in pairs:
        del drawn[:]
        g, qa, qb = gcd_cofactors(a, b)
        assert drawn == [0]
        want = euclid_gcd(a, b)
        assert_identical(g, want)
        assert g * qa == a and g * qb == b
        for q, f in ((qa, a), (qb, b)):
            quotient, remainder = field_divmod(f, want)
            assert remainder.is_zero
            assert_identical(q, quotient)


def test_a_divisor_suggested_by_the_first_prime_is_checked(monkeypatch):
    # mod P1, a = T(T + 1) and b = T + 1 divides it, but not over Q: the
    # failed division sends the pair on, and the second prime proves it
    # coprime
    drawn = count_draws(monkeypatch)
    a, b = T * (T + 1) + P1, T + 1
    assert image_gcd_degree(a, b, P1) == 1
    for x, y in ((a, b), (b, a)):
        del drawn[:]
        g, qx, qy = gcd_cofactors(x, y)
        assert g == 1 and qx is x and qy is y
        assert drawn == [0, 1]


def test_proper_gcds_are_settled_at_the_first_prime(monkeypatch):
    # degree strictly between 0 and both degrees, with small coefficients:
    # the first reconstruction is g, and its two divisions prove it
    drawn = count_draws(monkeypatch)
    p = Polynomial([QuadElem(0, -1), 1])  # t - sqrt3
    pairs = [((T - 1) ** 2 * (T + 3) * (2 * T + 5),
              (T - 1) * (T + 3) ** 2 * (3 * T - 7)),
             (p * (T + 2) * (T - SQRT3 / 2), p * (T - 5) ** 2)]
    for a, b in pairs:
        del drawn[:]
        g = assert_same_gcd(a, b)
        assert 0 < g.degree < min(a.degree, b.degree)
        assert drawn == [0]


def test_a_wrong_reconstruction_is_tried_once(monkeypatch):
    # c = 1 mod P1, P2 and P3, so the first three primes all reconstruct
    # t + 1 (or t + sqrt3) in place of g: it fails its division once and
    # is not tried again, and more primes give g itself
    c = 1 + P1 * P2 * exactnum._gcd_prime(2)
    assert exactnum._rational_reconstruction(c, P1 * P2) == 1
    quotient, tried = exactnum._quotient, []

    def recorded(f, g):
        tried.append(g)
        return quotient(f, g)

    monkeypatch.setattr(exactnum, "_quotient", recorded)
    for g, wrong in ((T + c, T + 1), (T + c * SQRT3, T + SQRT3)):
        del tried[:]
        assert assert_same_gcd(g * (T - 1), g * (T + 5)) == g
        assert tried.count(wrong) == 1
        assert tried[0] == wrong and tried[-2:] == [g, g]


def test_divides_is_exact_division():
    rng = random.Random(3)
    for quad in (False, True):
        for _ in range(10):
            g = random_poly(rng, rng.randint(1, 6), quad).monic()
            h = random_poly(rng, rng.randint(0, 8), not quad)
            q = exactnum._quotient(g * h, g)
            assert q == h
            # a QuadElem exactly where the value is irrational
            assert all(isinstance(c, QuadElem) == (c != conj(c))
                       for c in q.coeffs)
            off = g * h + random_poly(rng, rng.randint(0, g.degree - 1), quad)
            want = h if field_divmod(off, g)[1].is_zero else None
            assert exactnum._quotient(off, g) == want
    # d*g = 2t + 1 + sqrt3 has the content 1 + sqrt3 in Z[sqrt 3], so the
    # remainder must be scaled before a quotient term is integral
    g = Polynomial([QuadElem(F(1, 2), F(1, 2)), 1])
    f = Polynomial([1, QuadElem(-1, 1)])
    assert f == QuadElem(-1, 1) * g
    assert exactnum._quotient(f, g) == Polynomial([QuadElem(-1, 1)])
    h = T ** 3 - SQRT3
    assert exactnum._quotient(f * h, g) == QuadElem(-1, 1) * h
    assert exactnum._quotient(f + 1, g) is None
    assert exactnum._quotient(Polynomial(), g) == Polynomial()
    assert exactnum._quotient(Polynomial([3]), T - 1) is None


def parent_exact_div(f, g):
    """Oracle: Polynomial.exact_div, from before gcd_cofactors returned the
    quotients: _quotient by g made monic, scaled back by lc(g)."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    lead = g.lead()
    q = exactnum._quotient(f, g if lead == 1 else g.monic())
    if q is None:
        raise ValueError("not an exact polynomial division")
    return q if lead == 1 else q * exactnum._inv(lead)


def cofactor_samples(seed):
    """Pairs over Q, Q(sqrt 3) and mixed: zero and constants, planted
    common factors, and pairs where one argument divides the other."""
    rng = random.Random(seed)
    polys = kernel_samples(seed)[:6]
    pairs = [(a, b) for a in polys for b in polys]
    for quad_g, quad_u, quad_v in product((False, True), repeat=3):
        for _ in range(3):
            g = random_poly(rng, rng.randint(0, 4), quad_g)
            u = random_poly(rng, rng.randint(0, 4), quad_u)
            v = random_poly(rng, rng.randint(0, 4), quad_v)
            pairs += [(g * u, g * v), (g * u, g), (F(2, 3) * g, g * v)]
    return pairs


def test_gcd_cofactors_are_the_exact_quotients():
    nontrivial = 0
    for a, b in cofactor_samples(59):
        g, qa, qb = gcd_cofactors(a, b)
        assert_identical(g, poly_gcd(a, b))
        assert g * qa == a and g * qb == b
        if g.degree > 0:
            nontrivial += 1
            assert_identical(qa, parent_exact_div(a, g))
            assert_identical(qb, parent_exact_div(b, g))
        elif g.degree == 0:
            # a constant gcd divides nothing
            assert qa is a and qb is b
    assert nontrivial >= 60


def derivative(f):
    return Polynomial([i * c for i, c in enumerate(f.coeffs)][1:])


def squarefree_decomposition(f):
    # Yun's algorithm, formerly in exactnum, kept as the oracle of the
    # squareness test: [(g1, 1), (g2, 2), ...] with f = lc * prod gi^i
    if f.is_zero:
        raise ValueError("zero polynomial")
    f = f.monic()
    out = []
    _, b, c = gcd_cofactors(f, derivative(f))
    i = 1
    while b.degree > 0:
        g, b, c = gcd_cofactors(b, c - derivative(b))
        if g.degree > 0:
            out.append((g, i))
        i += 1
    return out


def squarefree_part(f):
    # monic product of the irreducible factors of odd multiplicity
    out = Polynomial([1])
    for g, mult in squarefree_decomposition(f):
        if mult % 2 == 1:
            out = out * g
    return out


def test_squarefree_part_of_cubic():
    # f = t^3 - 3t + 2 = (t-1)^2 (t+2); odd-multiplicity product is t + 2
    f = T ** 3 - 3 * T + 2
    assert squarefree_part(f) == T + 2


def test_squarefree_part_keeps_odd_multiplicities():
    f = (T - 1) ** 3 * (T + 2) ** 2 * (T ** 2 + 1)
    assert squarefree_part(f) == (T - 1) * (T ** 2 + 1)
    # quotient by the squarefree part is a perfect square
    ratio = exactnum._quotient(f, squarefree_part(f))
    assert poly_sqrt(ratio.monic()) is not None


def test_squarefree_decomposition_reconstructs():
    f = (T - 1) ** 3 * (T + 2) ** 2 * (T ** 2 + 1)
    rebuilt = Polynomial([1])
    for g, m in squarefree_decomposition(f):
        rebuilt = rebuilt * g ** m
    assert rebuilt == f.monic()


def test_squareness_by_poly_sqrt_against_yun_oracle():
    # u of mP + nQ + T for |m|, |n| <= 3 and the four torsion sections:
    # poly_sqrt of the monic numerator and of the denominator against
    # constant squarefree parts
    from zerodiag.curve import named_sections, param_to_point
    from zerodiag.mwlat import is_square_in_function_field, torsion_points

    secs = named_sections()
    p, q = (param_to_point(secs[k]) for k in ("P", "Q"))
    multiples = {k: (k * p, k * q) for k in range(-3, 4)}
    squares = cases = 0
    for m in range(-3, 4):
        for n in range(-3, 4):
            base = multiples[m][0] + multiples[n][1]
            for t in torsion_points().values():
                pt = base + t
                if pt.is_infinity:
                    continue
                u = pt.u
                expected = u.is_zero or (
                    squarefree_part(u.num).degree == 0
                    and squarefree_part(u.den).degree == 0)
                assert is_square_in_function_field(u) == expected, (m, n)
                squares += expected
                cases += 1
    # O itself is skipped; u = 0 at one 2-torsion section
    assert (cases, squares) == (195, 9)


def test_poly_sqrt():
    f = (T ** 3 - 2 * T + 9) ** 2 * 4
    assert poly_sqrt(f) in ((T ** 3 - 2 * T + 9) * 2, (T ** 3 - 2 * T + 9) * -2)
    assert poly_sqrt(f * T) is None
    assert poly_sqrt(f * (T + 1) ** 3) is None
    p = Polynomial([QuadElem(1, 1), QuadElem(0, 2), 1])
    assert poly_sqrt(p * p) is not None
    # a rational lead whose root is irrational
    assert poly_sqrt(3 * (T + 1) ** 2) in (SQRT3 * (T + 1), -SQRT3 * (T + 1))


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
    assert r.num.lead_at(F(1))[0] == 1 and r.den.lead_at(F(1))[0] == 0
    assert r.den.lead_at(F(-5))[0] == 1
    assert r.degree() == 1  # a pole of order 1 at infinity


def test_rational_function_field_ops():
    a = RationalFunction(T, T - 1)
    b = RationalFunction(1, T + 1)
    s = a + b
    assert s == RationalFunction(T * (T + 1) + (T - 1), (T - 1) * (T + 1))
    assert (a * b) / b == a
    assert (a - a).is_zero


class ParentRF:
    """Oracle: RationalFunction from before gcd_cofactors.  Every result
    goes through the normalising constructor: poly_gcd, then exact_div,
    then the denominator made monic."""

    def __init__(self, num, den=None):
        num = Polynomial._lift(num)
        den = Polynomial([1]) if den is None else Polynomial._lift(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = Polynomial([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = parent_exact_div(num, g), parent_exact_div(den, g)
            inv = exactnum._inv(den.lead())
            num, den = num * inv, den * inv
        self.num, self.den = num, den

    def __add__(self, o):
        g = poly_gcd(self.den, o.den)
        if g.degree > 0:
            da, db = parent_exact_div(self.den, g), parent_exact_div(o.den, g)
            return ParentRF(self.num * db + o.num * da, self.den * db)
        return ParentRF(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return ParentRF(-self.num, self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = parent_exact_div(self.num, g1) if g1.degree > 0 else self.num
        d2 = parent_exact_div(o.den, g1) if g1.degree > 0 else o.den
        n2 = parent_exact_div(o.num, g2) if g2.degree > 0 else o.num
        d1 = parent_exact_div(self.den, g2) if g2.degree > 0 else self.den
        return ParentRF(n1 * n2, d1 * d2)

    def inverse(self):
        return ParentRF(self.den, self.num)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return ParentRF(self.num ** n, self.den ** n)


def assert_same_rf(got, want):
    assert_identical(got.num, want.num)
    assert_identical(got.den, want.den)


def rf_samples(seed):
    """(num, den) pairs over Q, Q(sqrt 3) and mixed: zero, constants and
    fractions sharing the factors t - 1, t + 1/2 and t - sqrt3, so that
    constructors, sums and products meet nontrivial gcds."""
    rng = random.Random(seed)
    shared = [T - 1, T + F(1, 2), T - SQRT3]
    out = [(Polynomial(), T + 1), (Polynomial([F(-3, 4)]), 1),
           (Polynomial([QuadElem(2, -1)]), 1), (2 * T, QuadElem(3)),
           (T - 1, T ** 2 - 1), (T - SQRT3, F(1, 2) * (T + SQRT3)),
           (T + 2, T - SQRT3)]
    for quad_num, quad_den in product((False, True), repeat=2):
        for _ in range(2):
            num = random_poly(rng, rng.randint(0, 2), quad_num)
            den = random_poly(rng, rng.randint(0, 2), quad_den)
            out.append((num * rng.choice(shared), den * rng.choice(shared)))
    return out


def test_rational_function_matches_the_normalising_constructor():
    samples = [(RationalFunction(*nd), ParentRF(*nd))
               for nd in rf_samples(67)]
    scalars = [3, F(-1, 2), SQRT3, QuadElem(5)]
    for r, pr in samples:
        assert_same_rf(r, pr)
        assert_same_rf(-r, -pr)
        for n in (0, 1, 3):
            assert_same_rf(r ** n, pr ** n)
        if not r.is_zero:
            assert_same_rf(r.inverse(), pr.inverse())
            assert_same_rf(r ** -2, pr ** -2)
        for c in scalars:
            assert_same_rf(r + c, pr + ParentRF(c))
            assert_same_rf(c * r, ParentRF(c) * pr)
        for s, ps in samples:
            assert_same_rf(r + s, pr + ps)
            assert_same_rf(r - s, pr - ps)
            assert_same_rf(r * s, pr * ps)
            if not s.is_zero:
                assert_same_rf(r / s, pr / ps)


def test_reduced_results_take_no_gcd(monkeypatch):
    r = RationalFunction((T - 1) * (T + 2), (T ** 2 + SQRT3) * (T + 5))
    a = RationalFunction(T ** 2 + 1, (T - 3) * T)
    b = RationalFunction((T - 3) * (T + 4), T ** 3 + 2)
    real, calls = exactnum._modular_gcd, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exactnum, "_modular_gcd", counted)
    results = [-r, r.inverse(), r ** 3]
    assert calls == []
    ab = a * b
    # one gcd per cross-cancellation, none for the reduced product
    assert len(calls) == 2
    monkeypatch.undo()
    assert results == [RationalFunction(-r.num, r.den),
                       RationalFunction(r.den, r.num),
                       RationalFunction(r.num ** 3, r.den ** 3)]
    assert ab == RationalFunction((T ** 2 + 1) * (T + 4), T * (T ** 3 + 2))


def test_monic_denominator_takes_no_product(monkeypatch):
    pairs = [((T - 1) * (T + 2), (T - 1) * (T + 5)),
             (SQRT3 * T + 1, T ** 2 + 3),
             (T ** 2 - 3, T - SQRT3),
             (F(2, 3) * T, T ** 3 + SQRT3 * T)]
    real, calls = Polynomial.__mul__, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    built = [RationalFunction(num, den) for num, den in pairs]
    assert calls == []
    monkeypatch.undo()
    assert [(r.num, r.den) for r in built] == [
        (T + 2, T + 5), (SQRT3 * T + 1, T ** 2 + 3), (T + SQRT3, 1),
        (F(2, 3), T ** 2 + SQRT3)]


def scalars(value):
    """Every field element inside a scalar, Polynomial, RationalFunction or
    a list or tuple of them."""
    if isinstance(value, (list, tuple)):
        return [c for v in value for c in scalars(v)]
    if isinstance(value, Polynomial):
        return list(value.coeffs)
    if isinstance(value, RationalFunction):
        return list(value.num.coeffs) + list(value.den.coeffs)
    return [value]


def test_one_representation_per_number():
    assert type(QuadElem(5)) is F and QuadElem(5) == 5
    assert type(QuadElem(F(1, 2), 0)) is F
    rng = random.Random(71)
    for _ in range(20):
        x = QuadElem(F(rng.randint(-9, 9), rng.randint(1, 5)),
                     F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))
        y = QuadElem(rng.randint(-9, 9), rng.randint(1, 9))
        c = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        lin, lin_bar = T - x, T - conj(x)
        quadratic = lin * lin_bar
        # arithmetic in which every sqrt 3 part cancels
        rational_valued = [
            x * conj(x), x - x, x + conj(x), x + (c - x), (x + c) - x,
            c - (c + x - x), x / x, (2 * x) / x, (x * c) / x, x * x / (x * x),
            SQRT3 * SQRT3, (x * conj(x)) ** 3,
            (SQRT3 * x) * (conj(x) / SQRT3), 1 / x * x, c / x * (x / c),
            quadratic, quadratic * (T + c), (SQRT3 * T) * (SQRT3 * T),
            exactnum._quotient(quadratic * (T - y), T - y),
            gcd_cofactors(quadratic * (T - 1), quadratic * (T + c)),
            RationalFunction(quadratic, lin) - RationalFunction(lin_bar),
            (Polynomial([x, 1]) * Polynomial([conj(x), -1])
             + Polynomial([0, x - conj(x)])),
        ]
        assert all(type(v) is F for v in scalars(rational_valued))
        # results mixing rational and irrational values
        mixed = [
            exactnum._quotient(quadratic * lin, lin),
            gcd_cofactors(quadratic * (T - 1), quadratic * (T + y)),
            gcd_cofactors(lin * (T - y), lin_bar * (T - y)),
            Polynomial([x, 1, y]) * Polynomial([conj(x), -1, 2]),
        ]
        for v in scalars(mixed):
            assert type(v) is F or (type(v) is QuadElem and v.s != 0), v


def test_scalar_lift_is_the_constant_polynomial():
    samples = [0, 1, -1, 7, -12, 10 ** 30, F(0), F(3, 4), F(-5, 6), F(8, 2),
               QuadElem(0, 1), QuadElem(F(-1, 2), 3), QuadElem(2, 0), -SQRT3]
    for c in samples:
        lifted, ref = Polynomial._lift(c), Polynomial([c])
        assert lifted == ref, c
        assert (lifted.x, lifted.y, lifted.d) == (ref.x, ref.y, ref.d), c
    assert Polynomial._lift(0).is_zero and Polynomial._lift(F(0)).is_zero
