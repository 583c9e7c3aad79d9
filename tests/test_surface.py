import random
from fractions import Fraction as F
from math import gcd, isqrt

import pytest

from field_oracle import matrix_rank
from zerodiag import surface
from zerodiag.curve import named_sections
from zerodiag.exactnum import SQRT3, Polynomial, rational_roots
from zerodiag.lattice import smith_normal_form
from zerodiag.surface import (
    SEARCH_MAX,
    Parametrization,
    char_poly_coeffs,
    equation_values,
    g_apply,
    g_compose,
    group_elements,
    integer_trivial_locus,
    integral_eigenvalues,
    is_trivial,
    jacobian,
    low_degree_parametrization,
    normalize_projective,
    partition_orbits,
    point_orbit,
    search,
    singular_points,
    trivial_locus,
)

T = Polynomial.gen()


def char_poly(a, b, c):
    p, q = char_poly_coeffs(a, b, c)
    return Polynomial([-q, -p, 0, 1])


def matrix_of_triple(a, b, c):
    return [[0, c, b], [c, 0, a], [b, a, 0]]


def on_surface(pt):
    return all(not v for v in equation_values(pt))


def is_singular_point(pt):
    if not on_surface(pt):
        raise ValueError("point is not on the surface")
    return matrix_rank(jacobian(pt)) <= 2


def apply(g, par):
    """The image of a parametrization under a symmetry of the surface."""
    return Parametrization(*g_apply(g, par.components()))


def eigenvalues_by_root_finding(a, b, c):
    # oracle: factor the characteristic cubic over Q directly
    roots = sorted(rational_roots(char_poly(a, b, c)), reverse=True)
    if len(roots) == 0 or any(r.denominator != 1 for r in roots):
        return None
    p, q = char_poly_coeffs(a, b, c)
    full = []
    for r in roots:
        f = char_poly(a, b, c)
        full.extend([int(r)] * f.lead_at(r)[0])
    if len(full) != 3:
        return None
    return tuple(sorted(full, reverse=True))


def test_char_poly_matches_matrix():
    # coefficients agree with trace identities of the actual matrix
    a, b, c = 26, 51, 114
    m = matrix_of_triple(a, b, c)
    tr2 = sum(sum(m[i][k] * m[k][i] for k in range(3)) for i in range(3))
    p, q = char_poly_coeffs(a, b, c)
    assert tr2 == 2 * p
    detm = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assert detm == q


def test_integral_eigenvalues_known_triples():
    assert integral_eigenvalues(26, 51, 114) == (136, -19, -117)
    assert integral_eigenvalues(57, 99, 125) == (190, -55, -135)
    assert integral_eigenvalues(1, 1, 1) == (2, -1, -1)
    assert integral_eigenvalues(1, 2, 3) is None


def test_integral_eigenvalues_against_oracle():
    rng = random.Random(31)
    for _ in range(300):
        a = rng.randint(1, 40)
        b = rng.randint(1, 40)
        c = rng.randint(1, 40)
        assert integral_eigenvalues(a, b, c) == eigenvalues_by_root_finding(a, b, c)


def _integral_eigenvalues_scan(a, b, c):
    # oracle: the former integral_eigenvalues, a linear scan for p < 20 and
    # a bisection over 2p/3 <= l^2 <= 2p otherwise
    p, q = char_poly_coeffs(a, b, c)

    def f(v):
        return v * v * v - p * v - q

    if q < 0:
        neg = _integral_eigenvalues_scan(-a, b, c)
        if neg is None:
            return None
        return tuple(sorted((-v for v in neg), reverse=True))
    if q == 0:
        s = isqrt(p)
        return (s, 0, -s) if s * s == p else None
    lo, hi = isqrt(2 * p // 3), isqrt(2 * p) + 1
    if p < 20:
        r = next((v for v in range(hi + 1) if f(v) == 0), None)
    else:
        while lo < hi:
            mid = (lo + hi) // 2
            if f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        r = lo if f(lo) == 0 else None
    if r is None:
        return None
    disc = 4 * p - 3 * r * r
    if disc < 0:
        return None
    s = isqrt(disc)
    if s * s != disc or (s - r) % 2:
        return None
    return (r, (-r + s) // 2, (-r - s) // 2)


def test_integral_eigenvalues_match_the_scan_on_a_cube():
    # one bisection from isqrt(p) + 1 for every p, against the former
    # scan-or-bisection, on every triple of [-15, 15]^3
    span = range(-15, 16)
    hits = 0
    for a in span:
        for b in span:
            for c in span:
                ev = integral_eigenvalues(a, b, c)
                assert ev == _integral_eigenvalues_scan(a, b, c), (a, b, c)
                hits += ev is not None
    assert hits == 499


def test_integral_eigenvalues_sum_and_products():
    ev = integral_eigenvalues(26, 51, 114)
    x, y, z = ev
    p, q = char_poly_coeffs(26, 51, 114)
    assert x + y + z == 0
    assert x * y + y * z + z * x == -p
    assert x * y * z == q


def test_search_small_limit_brute_force():
    # oracle: triviality-unaware full scan with the root-finding oracle
    limit = 30
    expected = []
    for a in range(1, limit + 1):
        for b in range(a, limit + 1):
            for c in range(b, limit + 1):
                if is_trivial(a, b, c):
                    continue
                ev = eigenvalues_by_root_finding(a, b, c)
                if ev is not None:
                    expected.append(((a, b, c), ev))
    expected.sort(key=lambda item: (item[0][2], item[0][0], item[0][1]))
    assert search(limit) == expected


def _bisection_range(a_values, limit):
    # oracle: the former search, one cubic bisection per triple a < b < c
    found = []
    for a in a_values:
        for b in range(a + 1, limit + 1):
            for c in range(b + 1, limit + 1):
                ev = integral_eigenvalues(a, b, c)
                if ev is not None:
                    found.append(((a, b, c), ev))
    return found


BISECTION_TOP = 130


@pytest.fixture(scope="module")
def bisection_oracle():
    return _bisection_range(range(1, BISECTION_TOP - 1), BISECTION_TOP)


def _by_c_a_b(found):
    return sorted(found, key=lambda item: (item[0][2], item[0][0], item[0][1]))


def test_search_matches_cubic_bisection_oracle(bisection_oracle):
    for limit in range(BISECTION_TOP + 1):
        expected = _by_c_a_b(t for t in bisection_oracle if t[0][2] <= limit)
        assert search(limit) == expected, limit


def _smallest_prime_factors(n):
    spf = list(range(n + 1))
    for q in range(2, isqrt(n) + 1):
        if spf[q] == q:
            for k in range(q * q, n + 1, q):
                if spf[k] == k:
                    spf[k] = q
    return spf


def _search_range(x_values, limit):
    """The triples of search(limit) whose largest eigenvalue is in
    x_values, unsorted."""
    spf = _smallest_prime_factors(2 * limit)
    p_max = 3 * limit * limit  # a^2 + b^2 + c^2 < 3 limit^2
    bc_max = limit * limit
    found = []
    for x in x_values:
        # spectrum (x, -m, -(x - m)); p rises as m falls
        for m in range(x // 2, 0, -1):
            p = x * x - x * m + m * m
            if p >= p_max:
                break
            # one of x, m, x - m is even, so abc is an integer
            abc = x * m * (x - m) // 2
            exps = {}
            for n in (x, m, x - m):
                while n > 1:
                    q = spf[n]
                    exps[q] = exps.get(q, 0) + 1
                    n //= q
            exps[2] -= 1
            # the divisors a of abc with a^3 < abc, a being the smallest
            divisors = [1]
            for q, e in exps.items():
                grown = []
                for d in divisors:
                    for _ in range(e):
                        d *= q
                        if d * d * d >= abc:
                            break
                        grown.append(d)
                divisors += grown
            for a in divisors:
                if a * bc_max < abc:
                    continue
                bc = abc // a
                s = p - a * a  # b^2 + c^2
                if s <= 2 * bc:
                    continue
                uu, vv = s + 2 * bc, s - 2 * bc  # (c + b)^2, (c - b)^2
                u, v = isqrt(uu), isqrt(vv)
                # u^2 - v^2 = 4bc, so u and v have the same parity
                if u * u != uu or v * v != vv:
                    continue
                b, c = (u - v) // 2, (u + v) // 2
                if a < b and c <= limit:
                    ev = (x, -m, -(x - m))
                    if integral_eigenvalues(a, b, c) != ev:
                        raise ArithmeticError(
                            "triple %r does not have spectrum %r"
                            % ((a, b, c), ev))
                    found.append(((a, b, c), ev))
    return found


def _window_range(x_values, limit):
    """The triples of search(limit) whose largest eigenvalue is in
    x_values, unsorted."""
    p_max = 3 * limit * limit  # a^2 + b^2 + c^2 < 3 limit^2
    bb_cc_max = limit * limit + (limit - 1) ** 2  # b < c <= limit
    found = []
    for x in x_values:
        # spectrum (x, -m, -(x - m)); p rises and abc falls as m falls
        hi = x // 2 + 1
        for m in range(x // 2, 0, -1):
            p = x * x - x * m + m * m
            if p >= p_max:
                break
            # one of x, m, x - m is even, so abc is an integer
            abc = x * m * (x - m) // 2
            while (hi - 1) ** 3 >= abc:
                hi -= 1  # the least hi with hi^3 >= abc
            rest = p - bb_cc_max  # a^2 >= rest
            lo = max(m + 1, isqrt(rest - 1) + 1 if rest > 0 else 0)
            for a in range(lo, hi):
                if abc % a:
                    continue
                bc = abc // a
                s = p - a * a  # b^2 + c^2
                uu, vv = s + 2 * bc, s - 2 * bc  # (c + b)^2, (c - b)^2
                u, v = isqrt(uu), isqrt(vv)
                # u^2 - v^2 = 4bc, so u and v have the same parity
                if u * u != uu or v * v != vv:
                    continue
                b, c = (u - v) // 2, (u + v) // 2
                if a < b and c <= limit:
                    ev = (x, -m, -(x - m))
                    if integral_eigenvalues(a, b, c) != ev:
                        raise ArithmeticError(
                            "triple %r does not have spectrum %r"
                            % ((a, b, c), ev))
                    found.append(((a, b, c), ev))
    return found


def test_search_matches_window_scan_oracle():
    # oracle: the former search, a scan by remainders of abc over a window
    # of the smallest entry per spectrum (x, -m, -(x - m))
    for limit in list(range(BISECTION_TOP + 1)) + [250, 500]:
        expected = _by_c_a_b(_window_range(range(2, 2 * limit + 1), limit))
        assert search(limit) == expected, limit


def test_entry_range_is_exact():
    # every a < b < c <= limit and x > c with 3x^2 <= 4p < 4x^2,
    # p = a^2 + b^2 + c^2, integral spectrum or not, has a and b in
    # _entry_range(x, limit), and both ends of the range are reached; the
    # sets of such points only grow with the limit, so the least a and
    # greatest b per x are kept while the limit rises
    top = 40
    least_a, greatest_b = {}, {}
    reached = 0
    for limit in range(top + 1):
        c = limit
        for b in range(1, c):
            for a in range(1, b):
                p = a * a + b * b + c * c
                x_min = max(c, isqrt(p)) + 1  # x > c and x^2 > p
                for x in range(x_min, isqrt(4 * p // 3) + 1):
                    least_a[x] = min(least_a.get(x, a), a)
                    greatest_b[x] = max(greatest_b.get(x, b), b)
        for x in range(2 * limit + 2):
            entries = surface._entry_range(x, limit)
            if x in least_a:
                assert (least_a[x], greatest_b[x]) == (
                    entries[0], entries[-1]), (limit, x)
                reached += 1
            else:
                # no point: x <= 3, or x past the largest x
                assert len(entries) < 2, (limit, x)
    assert reached == 1444


def test_search_matches_divisor_oracle():
    # oracle: the former search, the divisors of abc per spectrum (x, m);
    # its limit only drops triples with c > limit, so one run serves all
    # smaller limits
    oracle = _search_range(range(2, 2 * BISECTION_TOP + 1), BISECTION_TOP)
    for limit in range(BISECTION_TOP + 1):
        expected = _by_c_a_b(t for t in oracle if t[0][2] <= limit)
        assert search(limit) == expected, limit
    assert search(250) == _by_c_a_b(_search_range(range(2, 501), 250))


def _uncapped_entry_range(x, limit):
    """The entries a < b of a triple of search(limit) with largest
    eigenvalue x can take: 4a^2 >= 3x^2 - 4(limit^2 + (limit - 1)^2) and
    b <= min(x - 2, limit - 1)."""
    rest = 3 * x * x - 4 * (limit * limit + (limit - 1) ** 2)
    lo = isqrt((rest + 3) // 4 - 1) + 1 if rest > 0 else 1
    return range(lo, min(x - 2, limit - 1) + 1)


def _square_parts(n):
    """Lists core and root over 0 <= k < n with k = core[k] * root[k]^2 and
    core[k] squarefree (core[0] = 0)."""
    core, root = list(range(n)), [1] * n
    q = 2
    while q * q < n:
        qq = q * q
        for k in range(qq, n, qq):
            while core[k] % qq == 0:
                core[k] //= qq
                root[k] *= q
        q += 1
    return core, root


def _bucketing_search(limit):
    # oracle: the former search, every entry up to min(x - 2, limit - 1)
    # bucketed by k0
    if limit < 3:
        return []
    core, root = _square_parts(3 * limit)  # x + a < 3 limit
    found = []
    for x in range(2, 2 * limit + 1):
        entries = _uncapped_entry_range(x, limit)
        if len(entries) < 2:
            continue
        lo, hi = entries.start, entries.stop - 1
        # core and root of x - a and x + a for a = lo, ..., hi
        cu = core[x - hi:x - lo + 1]
        cu.reverse()
        cv = core[x + lo:x + hi + 1]
        gs = list(map(gcd, cu, cv))
        # x^2 - a^2 = k0 * k1^2 with k0 squarefree
        buckets = {}
        for a, k0 in zip(entries, [u * v // (g * g)
                                   for u, v, g in zip(cu, cv, gs)]):
            if k0 in buckets:
                buckets[k0].append(a)
            else:
                buckets[k0] = [a]
        x_limit = x * limit
        for k0, bucket in buckets.items():
            n = len(bucket)
            if n < 2:
                continue
            k1 = [gs[a - lo] * root[x - a] * root[x + a] for a in bucket]
            for i in range(n - 1):
                a = bucket[i]
                ka = k0 * k1[i]
                for j in range(i + 1, n):
                    b = bucket[j]
                    cx = ka * k1[j] - a * b  # c * x
                    if cx > x_limit:
                        continue
                    if cx <= x * b:
                        break  # c falls and b rises along the bucket
                    if cx % x:
                        continue
                    c = cx // x
                    # the other eigenvalues (-x +/- r)/2, r^2 = 4p - 3x^2
                    disc = 4 * (a * a + b * b + c * c) - 3 * x * x
                    r = isqrt(disc)
                    if r * r != disc:
                        continue
                    ev = (x, (r - x) // 2, -(r + x) // 2)
                    if integral_eigenvalues(a, b, c) != ev:
                        raise ArithmeticError(
                            "triple %r does not have spectrum %r"
                            % ((a, b, c), ev))
                    found.append(((a, b, c), ev))
    return sorted(found, key=lambda item: (item[0][2], item[0][0], item[0][1]))


def test_search_matches_bucketing_oracle():
    for limit in list(range(BISECTION_TOP + 1)) + [250, 500]:
        assert search(limit) == _bucketing_search(limit), limit


def _pairs(entry_range, limit):
    """The pairs (x, a) a search kernel visits: every entry a of each x
    with at least two entries."""
    return sum(len(r) for x in range(2, 2 * limit + 1)
               if len(r := entry_range(x, limit)) >= 2)


def test_entry_cap_drops_a_sixth_of_the_pairs():
    # p < x^2 caps b; at N = 250 the pairs (x, a) fall from 77,881
    assert _pairs(_uncapped_entry_range, 250) == 77881
    assert _pairs(surface._entry_range, 250) == 65183
    for limit in (3, 10, 50, 130):
        for x in range(2, 2 * limit + 1):
            capped = surface._entry_range(x, limit)
            uncapped = _uncapped_entry_range(x, limit)
            assert capped.start == uncapped.start
            assert capped.stop <= uncapped.stop, (limit, x)


def _k0_by_gcd(core, u, v):
    # oracle: the former per-entry k0, the squarefree part of u v
    g = gcd(core[u], core[v])
    return core[u] * core[v] // (g * g)


def test_parity_keys_tell_squarefree_parts_apart():
    core, _ = _square_parts(750)
    key, primes = surface._parity_keys(750)
    assert len(key) == 750
    # bit i of a key stands for primes[i], the primes below 750 in order
    assert primes == [p for p in range(2, 750)
                      if all(p % d for d in range(2, isqrt(p) + 1))]
    for n in range(1, 750):
        product, bits = 1, key[n]
        for p in primes:
            if bits & 1:
                product *= p
            bits >>= 1
        assert product == core[n], n
    assert all(key[n] == key[core[n]] for n in range(750))
    squarefree = [n for n in range(1, 750) if core[n] == n]
    assert len({key[n] for n in squarefree}) == len(squarefree) == 456
    # every pair (x, a) search(250) visits: its key of k0 and k0 itself
    # determine each other
    seen = set()
    for x in range(2, 501):
        entries = surface._entry_range(x, 250)
        if len(entries) < 2:
            continue
        for a in entries:
            seen.add((key[x - a] ^ key[x + a],
                      _k0_by_gcd(core, x - a, x + a)))
    assert len(seen) == 21266  # distinct k0 over the 65,183 pairs
    assert len({k for k, _ in seen}) == len(seen)
    assert len({k0 for _, k0 in seen}) == len(seen)


SEARCH_250 = [
    ((26, 51, 114), (136, -19, -117)),
    ((57, 99, 125), (190, -55, -135)),
    ((34, 99, 174), (216, -29, -187)),
    ((154, 171, 186), (341, -152, -189)),
    ((52, 102, 228), (272, -38, -234)),
    ((23, 77, 247), (266, -13, -253)),
    ((114, 198, 250), (380, -110, -270)),
]


def test_entries_interlace_the_spectrum(bisection_oracle):
    # f(-a) = a(c - b)^2 > 0 and f(a) = -a(c + b)^2 for
    # f(l) = (l - x)(l + m)(l + x - m): every entry lies in (m, x - m)
    triples = bisection_oracle + SEARCH_250
    assert len(triples) > len(SEARCH_250)
    for (a, b, c), (x, neg_m, _) in triples:
        m = -neg_m
        assert m < a < b < c < x - m
        assert (c - b) ** 2 * a == (x + a) * (a - m) * (x - m - a)
        assert (c + b) ** 2 * a == (x - a) * (a + m) * (x - m + a)


def test_search_to_250_checks_each_triple_once(monkeypatch):
    real = surface.integral_eigenvalues
    calls = []

    def counted(a, b, c):
        calls.append((a, b, c))
        return real(a, b, c)

    monkeypatch.setattr(surface, "integral_eigenvalues", counted)
    assert search(250) == SEARCH_250
    assert sorted(calls) == sorted(t for t, _ in SEARCH_250)


def test_search_rejects_a_wrong_spectrum(monkeypatch):
    monkeypatch.setattr(surface, "integral_eigenvalues",
                        lambda a, b, c: (136, -117, -19))
    with pytest.raises(ArithmeticError):
        search(114)


def test_search_limit_is_bounded():
    for limit in (SEARCH_MAX + 1, 10 ** 9, -1):
        with pytest.raises(ValueError):
            search(limit)
    assert [search(limit) for limit in range(3)] == [[], [], []]


def test_search_refuses_a_limit_that_is_not_an_int():
    for limit in (2.5, 250.0, -1.0, F(250), "250"):
        with pytest.raises(TypeError):
            search(limit)
    with pytest.raises(TypeError):
        search(2.5, workers=2)


def test_search_finds_the_lowest_triple():
    # the smallest nontrivial triple by largest entry is (26, 51, 114)
    assert search(113) == []
    hits = search(114)
    assert hits == [((26, 51, 114), (136, -19, -117))]
    assert all(not is_trivial(*t) for t, _ in hits)


def test_search_to_125():
    hits = search(125)
    assert hits == [
        ((26, 51, 114), (136, -19, -117)),
        ((57, 99, 125), (190, -55, -135)),
    ]


def test_search_runs_on_one_worker_only():
    with pytest.raises(ValueError):
        search(45, workers=2)
    assert search(45, workers=1) == search(45)
    # the call the benchmark child makes
    assert search(250, workers=1) == SEARCH_250


def test_search_to_2000():
    # the count the window scan gave at the largest limit it ran to
    hits = search(2000)
    assert len(hits) == 125
    assert hits[-1] == ((912, 1584, 2000), (3040, -880, -2160))


def test_surface_membership():
    assert on_surface((2, -1, -1, 1, 1, 1))
    assert on_surface((190, -55, -135, 125, 99, 57))
    assert not on_surface((1, 1, -2, 1, 1, 1))


def test_singular_points_are_the_twelve_nodes():
    pts = singular_points()
    assert len(pts) == 12
    assert len(set(pts)) == 12
    for p in pts:
        assert on_surface(p)
        assert is_singular_point(p)
        assert matrix_rank(jacobian(p)) == 2
    # and a smooth point is smooth
    assert not is_singular_point((190, -55, -135, 125, 99, 57))


# the twelve double points as singular_points gave them before it
# normalized them, in its order
FORMER_SINGULAR_POINTS = [
    (2, -1, -1, 1, 1, 1), (2, -1, -1, 1, -1, -1), (2, -1, -1, -1, 1, -1),
    (2, -1, -1, -1, -1, 1), (-1, 2, -1, 1, 1, 1), (-1, 2, -1, 1, -1, -1),
    (-1, 2, -1, -1, 1, -1), (-1, 2, -1, -1, -1, 1), (-1, -1, 2, 1, 1, 1),
    (-1, -1, 2, 1, -1, -1), (-1, -1, 2, -1, 1, -1), (-1, -1, 2, -1, -1, 1),
]


def test_singular_points_are_the_former_points_normalized():
    assert singular_points() == tuple(
        normalize_projective(p) for p in FORMER_SINGULAR_POINTS)


def test_jacobian_rank_from_smith_form_matches_field_rank():
    # cli reads the Jacobian ranks off the Smith form; the field rank of
    # the former row reduction is the oracle
    points = list(singular_points()) + [(190, -55, -135, 125, 99, 57)]
    ranks = [len(smith_normal_form(jacobian(p))) for p in points]
    assert ranks == [matrix_rank(jacobian(p)) for p in points]
    assert ranks == [2] * 12 + [3]


def test_singular_points_form_one_orbit():
    pts = singular_points()
    orb = point_orbit(pts[0])
    assert orb == {normalize_projective(p) for p in pts}


def test_group_order_and_closure():
    G = group_elements()
    assert len(G) == 144
    assert len(set(G)) == 144
    rng = random.Random(8)
    pt = (6, -1, -5, 2, 3, 1)
    for _ in range(30):
        g, h = rng.choice(G), rng.choice(G)
        gh = g_compose(g, h)
        assert gh in G
        assert g_apply(gh, pt) == g_apply(g, g_apply(h, pt))


def test_group_preserves_surface():
    pt = (190, -55, -135, 125, 99, 57)
    for g in group_elements():
        assert on_surface(g_apply(g, pt))


def test_normalize_projective():
    assert normalize_projective((-56, -16, 72, 56, 24, 24)) == (-7, -2, 9, 7, 3, 3)
    assert normalize_projective((F(1, 2), F(0), F(-1, 3))) == (-3, 0, 2)
    with pytest.raises(ValueError):
        normalize_projective((0, 0, 0))


def test_partition_orbits():
    pts = list(singular_points()) + [(190, -55, -135, 125, 99, 57)]
    orbits = partition_orbits(pts)
    assert sorted(len(o) for o in orbits) == [1, 12]


def test_low_degree_parametrization():
    par = low_degree_parametrization()
    assert par.verify()
    assert par.degree() == 4
    assert par.evaluate(F(3))[3:] == (125, 99, 57)
    assert par.evaluate_projective(F(3)) == (190, -55, -135, 125, 99, 57)
    assert par.evaluate_projective(F(0)) == (-7, -2, 9, 7, 3, 3)


def test_normalized_reads_values_not_types():
    # sqrt3 * (sqrt3 / 3) is the rational 1, so the scaled tuple is par
    par = low_degree_parametrization()
    scaled = Parametrization(*(p * (SQRT3 * (SQRT3 / 3))
                               for p in par.components()))
    assert scaled.normalized().components() == par.normalized().components()


def test_parametrization_verify_rejects_bad():
    t = T
    # constants on the surface: nonconstant requirement fails
    assert not Parametrization(2, -1, -1, 1, 1, 1).verify()
    # common factor t
    par = low_degree_parametrization()
    scaled = Parametrization(*(p * t for p in par.components()))
    assert not scaled.verify()
    # violates the equations
    assert not Parametrization(t, t, -2 * t, 1, 1, 1).verify()


def test_parametrization_refuses_the_zero_tuple():
    # as normalize_projective refuses the zero vector; the check follows
    # coercion, so a float is still a TypeError
    with pytest.raises(ValueError, match="zero vector"):
        Parametrization(0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="zero vector"):
        Parametrization(*[Polynomial.coerce(0)] * 6)
    with pytest.raises(TypeError):
        Parametrization(1.5, 0, 0, 0, 0, 0)
    with pytest.raises(TypeError):
        Parametrization(0.0, 0, 0, 0, 0, 0)
    # one nonzero component is enough
    assert Parametrization(0, 0, 0, 0, 0, T).degree() == 1


def test_parametrization_group_action_keeps_validity():
    par = low_degree_parametrization()
    rng = random.Random(4)
    G = group_elements()
    for _ in range(10):
        g = rng.choice(G)
        assert apply(g, par).verify()


def test_trivial_locus_full_rational_set():
    par = low_degree_parametrization()
    locus = trivial_locus(par)
    assert locus == {F(-2), F(-1), F(0), F(4, 7), F(1), F(6, 5),
                     F(7, 4), F(2), F(8, 3), F(4), F(10)}
    # each claimed root really is trivial, and neighbours are not
    for r in locus:
        a, b, c = par.evaluate(r)[3:]
        assert is_trivial(a, b, c)
    for t0 in (F(3), F(5), F(-3), F(1, 2)):
        a, b, c = par.evaluate(t0)[3:]
        assert not is_trivial(a, b, c)


def _trivial_locus_by_product(par):
    # oracle: rational roots of the product of all nine factors at once
    a, b, c = par.a, par.b, par.c
    prod = a * b * c * (a * a - b * b) * (b * b - c * c) * (c * c - a * a)
    return rational_roots(prod)


def test_trivial_locus_matches_product_of_factors():
    par = low_degree_parametrization()
    rng = random.Random(396)
    images = [apply(g, par) for g in rng.sample(group_elements(), 3)]
    for p in [par] + images:
        assert trivial_locus(p) == _trivial_locus_by_product(p)
    # O, P and T1 have a + b, c - a and a - b identically zero
    sections = named_sections()
    for name in ("O", "P", "T1"):
        with pytest.raises(ValueError):
            trivial_locus(sections[name])


def test_integer_trivial_locus():
    par = low_degree_parametrization()
    assert integer_trivial_locus(par) == [-2, -1, 0, 1, 2, 4, 10]


def test_parametrized_triples_have_integral_spectrum():
    par = low_degree_parametrization()
    for t0 in range(-6, 12):
        vals = par.evaluate(F(t0))
        x, y, z, a, b, c = [int(v) for v in vals]
        spec = sorted((x, y, z), reverse=True)
        got = integral_eigenvalues(abs(a), abs(b), abs(c))
        assert got is not None
        assert list(got) == spec or list(got) == sorted((-x, -y, -z), reverse=True)


def test_equation_values_on_polynomials():
    par = low_degree_parametrization()
    f1, f2, f3 = equation_values(par.components())
    assert f1.is_zero and f2.is_zero and f3.is_zero
