import itertools
import random
import time
from fractions import Fraction as F
from math import gcd, isqrt, lcm, prod
from operator import mul

import pytest

from field_oracle import rref
from zerodiag import nscat
from zerodiag.lattice import (
    DiscriminantGroup,
    _bareiss,
    _ldl,
    det,
    is_positive_definite,
    kummer_condition,
    mat_inverse,
    reduced_binary_even_forms,
    short_vectors,
    signature,
    smith_normal_form,
    vectors_with_norm,
)

E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def mat_vec(mat, vec):
    return [sum(m * v for m, v in zip(row, vec)) for row in mat]


def gram_pairing(gram, u, v):
    return sum(a * b for a, b in zip(u, mat_vec(gram, v)))


def random_int_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def cofactor_det(mat):
    # textbook Laplace expansion, the slow oracle
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * cofactor_det(minor)
    return total


def test_det_against_cofactor_oracle():
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            m = random_int_matrix(rng, n)
            assert det(m) == cofactor_det(m)
            q = [[F(x, rng.randint(1, 9)) for x in row] for row in m]
            assert det(q) == cofactor_det(q)
    singular = [[F(1, 2), F(1, 3)], [F(3, 2), 1]]
    assert det(singular) == 0


def scaled_det(mat):
    # the former det, kept as the oracle: every row scaled to integers by
    # the lcm of its Fraction denominators, and the scales divided out
    rows, scale = [], 1
    for row in mat:
        row = [F(x) for x in row]
        m = lcm(*(x.denominator for x in row))
        rows.append([int(x * m) for x in row])
        scale *= m
    return F(_bareiss(rows)[0], scale)


def scaled_signature(gram):
    # the former signature, kept as the oracle: every entry a Fraction,
    # scaled to integers by the lcm of the denominators
    a = [[F(x) for x in row] for row in gram]
    m = lcm(*(x.denominator for row in a for x in row))
    _, rows = _ldl([[x * m for x in row] for row in a])
    minors = [1] + [row[0] for row in rows]
    pos = sum(1 for k in range(len(rows)) if minors[k] * minors[k + 1] > 0)
    return pos, len(rows) - pos, len(gram) - len(rows)


def test_integer_input_matches_the_scaling_oracle():
    rng = random.Random(41)
    for n in range(1, 9):
        for _ in range(8):
            m = random_int_matrix(rng, n)
            got = det(m)
            assert type(got) is F and got == scaled_det(m)
            sym = _random_symmetric(rng, n, zero_diagonal=rng.random() < 0.3)
            assert signature(sym) == scaled_signature(sym)
            q = [[F(x, 3) for x in row] for row in sym]
            assert signature(q) == scaled_signature(q)
            assert det(q) == scaled_det(q)
    G = [list(r) for r in nscat.ns_lattice()]
    assert det(G) == scaled_det(G) == -48
    assert signature(G) == scaled_signature(G) == (1, 19, 0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        det([[0.1, 0], [0, 1]])
    with pytest.raises(TypeError):
        signature([[0.1, 0], [0, -1]])
    with pytest.raises(TypeError):
        is_positive_definite([[2.0, 0], [0, 2]])
    with pytest.raises(TypeError):
        mat_inverse([[2.0, 0], [0, 2]])
    with pytest.raises(TypeError):
        smith_normal_form([[2.0, 0], [0, 4]])
    with pytest.raises(TypeError):
        DiscriminantGroup([[2.0, 1], [1, 2]])
    with pytest.raises(TypeError):
        reduced_binary_even_forms(48.0)
    with pytest.raises(TypeError):
        kummer_condition(((8.0, 4), (4, 8)))
    for fn in (short_vectors, vectors_with_norm):
        with pytest.raises(TypeError):
            fn([[2.0, 0], [0, 2]], 2)
        with pytest.raises(TypeError):
            fn([[2, 0], [0, 2]], 2.5)
        with pytest.raises(TypeError):
            fn([[2, 0], [0, 2]], F(5, 2), center=[0.5, 0])
    # the exact forms of the same input are taken
    assert det([[F(1, 10), 0], [0, 1]]) == F(1, 10)
    assert smith_normal_form([[F(2), 0], [0, 4]]) == [2, 4]
    assert short_vectors([[2, 0], [0, 2]], F(5, 2), center=[F(1, 2), 0]) \
        == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1)]


def test_det_fraction_entries():
    m = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
    assert det(m) == F(1, 14) - F(1, 15)


def test_mat_inverse_roundtrip():
    rng = random.Random(9)
    while True:
        m = random_int_matrix(rng, 4)
        if det(m) != 0:
            break
    d, adj = mat_inverse(m)
    for i in range(4):
        e = mat_vec(adj, mat_vec(m, [int(k == i) for k in range(4)]))
        assert e == [d * int(k == i) for k in range(4)]
    for singular in ([[1, 2], [2, 4]], [[0, 1], [0, 1]], [[1, 0], [0, 0]]):
        with pytest.raises(ZeroDivisionError):
            mat_inverse(singular)


# -- the former Fraction inverse, kept as the oracle --------------------------


def rref_inverse(mat):
    # the right half of rref([A | I]) over Q
    n = len(mat)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [list(row[n:]) for row in rows]


def _inverse_cases():
    rng = random.Random(21)
    for n in (1, 2, 3, 4, 6, 8):
        for _ in range(8):
            m = random_int_matrix(rng, n)
            yield m
            yield [[m[min(i, j)][max(i, j)] for j in range(n)]
                   for i in range(n)]
            lead = [list(row) for row in m]
            lead[0][0] = 0
            yield lead
    # a pivot that vanishes midway, and row swaps of either parity
    yield [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    for perm in itertools.permutations(range(4)):
        yield [[(-1) ** i * int(j == perm[i]) for j in range(4)]
               for i in range(4)]
    yield E8
    yield [list(row) for row in nscat.ns_lattice()]


def test_mat_inverse_matches_rref_oracle():
    swapped = singular = 0
    for m in _inverse_cases():
        n = len(m)
        if det(m) == 0:
            singular += 1
            for inverse in (mat_inverse, rref_inverse):
                with pytest.raises(ZeroDivisionError):
                    inverse(m)
            continue
        swapped += m[0][0] == 0
        d, adj = mat_inverse(m)
        assert d == det(m)
        assert all(type(x) is int for row in adj for x in row)
        assert [[F(x, d) for x in row] for row in adj] == rref_inverse(m)
        assert [[sum(adj[i][k] * m[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)] == \
            [[d * int(i == j) for j in range(n)] for i in range(n)]
    assert swapped > 20 and singular > 3


def test_mat_inverse_rejects_non_integral_entries():
    with pytest.raises(ValueError):
        mat_inverse([[F(1, 2), 0], [0, 1]])
    with pytest.raises(ValueError):
        mat_inverse([[1, 2]])
    # an integral Fraction entry is an integer
    assert mat_inverse([[F(4, 2), 0], [0, 1]]) == (2, [[1, 0], [0, 2]])
    # det scales rows first, so it keeps accepting rationals
    assert det([[F(1, 2), 0], [0, 1]]) == F(1, 2)


# -- the former Smith form with its row transform, kept as the oracle -------


def oracle_smith_normal_form(mat):
    """(d, uinv): the nonzero diagonal d of the Smith form D = U A V and
    U^-1, by Euclid along one row and column at a time with swaps.  Its
    entries can blow up, so it is run only where it finishes."""
    a = [list(row) for row in mat]
    if not a:
        return [], []
    m, n = len(a), len(a[0])
    uinv = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(m):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def row_addmul(i, j, c):
        # row_i += c * row_j  in a;  col_j -= c * col_i  in uinv
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for r in range(m):
            uinv[r][j] -= c * uinv[r][i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        for r in range(m):
            uinv[r][i] = -uinv[r][i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_addmul(i, j, c):
        for row in a:
            row[i] += c * row[j]

    t = 0
    while t < min(m, n):
        piv = next(((i, j) for i in range(t, m) for j in range(t, n)
                    if a[i][j]), None)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    row_addmul(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    col_addmul(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        col_swap(t, j)
                        done = False
        # divisibility fix-up: the pivot must divide every later entry
        bad = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                    if a[i][j] % a[t][t]), None)
        if bad is not None:
            row_addmul(t, bad, 1)
            continue
        if a[t][t] < 0:
            row_negate(t)
        t += 1
    return [a[i][i] for i in range(t) if a[i][i]], uinv


def oracle_pairing_q_values(gram):
    """Oracle: q on L*/L from the generators w_i = G^-1 x_i, x_i the
    columns of U^-1 whose invariant factor is not 1, and their exact
    pairings w_i . w_j = x_i . adj x_j / det."""
    n = len(gram)
    d, uinv = oracle_smith_normal_form(gram)
    den, adj = mat_inverse(gram)
    xs = [[uinv[r][i] for r in range(n)] for i in range(n) if d[i] != 1]
    b = [[F(sum(p * q for p, q in zip(x, mat_vec(adj, y))), den)
          for y in xs] for x in xs]
    orders = [e for e in d if e != 1]
    return sorted(
        sum(ci * cj * bij for ci, row in zip(c, b)
            for cj, bij in zip(c, row)) % 2
        for c in itertools.product(*(range(e) for e in orders)))


def minor_gcd_invariants(mat):
    """Oracle: d_1 ... d_k is the gcd of the k x k minors, for k up to the
    rank."""
    m, n = len(mat), len(mat[0])
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = gcd(*(cofactor_det([[mat[i][j] for j in cols] for i in rows])
                  for rows in itertools.combinations(range(m), k)
                  for cols in itertools.combinations(range(n), k)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_smith_normal_form_divisibility_and_det():
    rng = random.Random(13)
    for _ in range(10):
        m = random_int_matrix(rng, 4)
        if det(m) == 0:
            continue
        d = smith_normal_form(m)
        want, uinv = oracle_smith_normal_form(m)
        assert d == want
        assert len(d) == 4
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        assert prod(d) == abs(det(m))
        assert abs(det(uinv)) == 1


def test_smith_normal_form_matches_minor_gcd_oracle():
    rng = random.Random(17)
    deficient = 0
    for m in range(1, 5):
        for n in range(1, 6):
            for k in range(6):
                a = [[rng.randint(-6, 6) for _ in range(n)]
                     for _ in range(m)]
                if k % 2 and m > 1:
                    # the last row a combination of the first ones
                    a[-1] = [3 * x - 2 * y
                             for x, y in zip(a[0], a[1 % (m - 1)])]
                d = smith_normal_form(a)
                assert d == minor_gcd_invariants(a), a
                deficient += len(d) < min(m, n)
    assert deficient > 20
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == []
    assert smith_normal_form([]) == []


def test_smith_normal_form_pinned_blowups():
    """Two inputs on which the former Euclid-and-swap Smith form did not
    finish in 30 s; the 6 x 6 one is an even lattice of prime det -277."""
    wide = [[336, 0, 144, 709, 65], [836, 0, 0, -591, 67],
            [-162, 177, -385, 0, -358], [-348, -334, 65, 77, -351]]
    gram = [[-4, 0, 3, 4, 2, -3], [0, -6, -2, -3, -1, 4],
            [3, -2, 4, 4, -1, 3], [4, -3, 4, 0, 3, 2],
            [2, -1, -1, 3, -6, 4], [-3, 4, 3, 2, 4, -4]]
    start = time.perf_counter()
    assert smith_normal_form(wide) == [1, 1, 1, 22]
    assert time.perf_counter() - start < 1
    assert minor_gcd_invariants(wide) == [1, 1, 1, 22]
    start = time.perf_counter()
    assert smith_normal_form(gram) == [1, 1, 1, 1, 1, 277]
    dg = DiscriminantGroup(gram)
    assert dg.orders == (277,)
    assert time.perf_counter() - start < 1
    assert det(gram) == -277
    assert dg.all_q_values() == fraction_all_q_values(gram)


def test_smith_normal_form_dense_8x8_is_fast():
    rng = random.Random(13)
    for _ in range(20):
        m = random_int_matrix(rng, 8)
        start = time.perf_counter()
        d = smith_normal_form(m)
        assert time.perf_counter() - start < 1
        assert all(b % a == 0 for a, b in zip(d, d[1:]))
        assert prod(d) == abs(det(m)) if len(d) == 8 else det(m) == 0


def test_discriminant_group_hyperbolic_plane():
    # unimodular, so the group is trivial
    dg = DiscriminantGroup([[0, 1], [1, 0]])
    assert dg.orders == ()
    assert prod(dg.orders) == 1
    assert dg.all_q_values() == [0]


def test_discriminant_group_orders_and_q():
    dg = DiscriminantGroup([[2, 0], [0, 24]])
    assert dg.orders == (2, 24)
    # q of the generators, in [0, 2)
    assert {F(1, 2), F(1, 24)} <= set(dg.all_q_values())


def test_discriminant_group_rejects_odd_lattice():
    with pytest.raises(ValueError):
        DiscriminantGroup([[1, 0], [0, 2]])


def test_discriminant_group_negative_definite_rank_one():
    dg = DiscriminantGroup([[-24]])
    assert dg.orders == (24,)
    # q(k w) = -k^2/24 mod 2Z for the generator w = e/24, canonical
    # representatives in [0, 2); q(w) = 47/24
    assert dg.all_q_values() == sorted(F(-k * k, 24) % 2 for k in range(24))
    assert F(47, 24) in dg.all_q_values()


def fraction_all_q_values(gram):
    """Oracle: q on every element of L*/L as a Fraction vector.  In the
    coordinates of L, L = Z^n and L* is spanned by the columns of G^-1, so
    L*/L is their closure under addition mod 1."""
    den, adj = mat_inverse(gram)
    n = len(gram)
    columns = [tuple(F(adj[i][j], den) % 1 for i in range(n))
               for j in range(n)]
    group = {(F(0),) * n}
    todo = list(group)
    while todo:
        x = todo.pop()
        for w in columns:
            y = tuple((a + b) % 1 for a, b in zip(x, w))
            if y not in group:
                group.add(y)
                todo.append(y)
    vals = []
    for x in group:
        q = gram_pairing(gram, list(x), list(x))
        vals.append(q - 2 * (q / 2).__floor__())
    return sorted(vals)


@pytest.mark.parametrize("gram", [
    "ns", [[2, 0], [0, 24]], [[4, 0], [0, 12]], [[6, 0], [0, 8]],
    [[8, 4], [4, 8]], [[-24]],
])
def test_all_q_values_match_fraction_vector_oracle(gram):
    if gram == "ns":
        gram = [list(row) for row in nscat.ns_lattice()]
    dg = DiscriminantGroup(gram)
    vals = dg.all_q_values()
    assert vals == fraction_all_q_values(gram)
    assert vals == oracle_pairing_q_values(gram)
    assert list(dg.orders) == [e for e in oracle_smith_normal_form(gram)[0]
                               if e != 1]
    assert len(vals) == prod(dg.orders) == abs(det(gram))


def char_poly(mat):
    """Oracle: characteristic polynomial det(xI - A), coefficients lowest
    degree first, by the Faddeev-LeVerrier recurrence (exact)."""
    n = len(mat)
    a = [[F(x) for x in row] for row in mat]
    coeffs = [F(1)]  # leading coefficient, will reverse at the end
    m = [[F(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I
        if k == 1:
            m = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        else:
            am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)]
                  for i in range(n)]
            for i in range(n):
                am[i][i] += coeffs[-1]
            m = am
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
    return list(reversed(coeffs))


def test_char_poly_companion_matrix():
    # companion of x^3 - 2x - 5
    m = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert char_poly(m) == [F(-5), F(-2), F(0), F(1)]


def test_signature():
    assert signature(E8) == (8, 0, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[2, 0, 0], [0, -2, 0], [0, 0, 0]]) == (1, 1, 1)
    assert is_positive_definite(E8)
    assert not is_positive_definite([[0, 1], [1, 0]])


def signature_by_char_poly(gram):
    """Oracle: Descartes' rule of signs on the characteristic polynomial,
    sharp because a symmetric matrix has only real eigenvalues."""
    cp = char_poly(gram)
    zero = 0
    while zero < len(cp) - 1 and cp[zero] == 0:
        zero += 1
    coeffs = cp[zero:]

    def variations(cs):
        signs = [c for c in cs if c]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    alternated = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return variations(coeffs), variations(alternated), zero


def _random_symmetric(rng, n, zero_diagonal=False):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
        if zero_diagonal:
            m[i][i] = 0
    return m


def _congruent_singular(rng, n):
    # B^T D B with B of rank < n, so the form is degenerate
    r = rng.randint(0, n - 1)
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
    d = [rng.choice((-2, -1, 1, 2)) for _ in range(r)]
    return [[sum(d[k] * b[k][i] * b[k][j] for k in range(r)) for j in range(n)]
            for i in range(n)]


def test_signature_against_char_poly_oracle():
    U = [[0, 1], [1, 0]]
    UU = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    cases = [U, UU, [[0]], [[0, 0], [0, 0]], [[0, 2, 1], [2, 0, 0], [1, 0, 0]]]
    rng = random.Random(20261018)
    for n in range(1, 7):
        for _ in range(12):
            cases.append(_random_symmetric(rng, n))
            cases.append(_random_symmetric(rng, n, zero_diagonal=True))
            cases.append(_congruent_singular(rng, n))
    assert any(det(m) == 0 and len(m) > 1 for m in cases)
    for m in cases:
        sig = signature(m)
        assert sig == signature_by_char_poly(m), m
        assert sum(sig) == len(m)
        assert (sig[2] == 0) == (det(m) != 0)
        order, rows = _ldl(m)
        assert sorted(order) == sorted(set(order)) and len(rows) == len(order)
        if sig[2] == 0:
            # the pivot order and e_i -> e_i + e_j keep the determinant
            assert rows[-1][0] == det(m), m
    assert signature(U) == (1, 1, 0)
    assert signature(UU) == (2, 2, 0)
    with pytest.raises(ValueError):
        signature([[0, 1], [2, 0]])


def test_reduced_forms_determinants():
    assert reduced_binary_even_forms(3) == [((2, 1), (1, 2))]
    assert reduced_binary_even_forms(4) == [((2, 0), (0, 2))]
    forms48 = reduced_binary_even_forms(48)
    assert forms48 == [
        ((2, 0), (0, 24)),
        ((4, 0), (0, 12)),
        ((6, 0), (0, 8)),
        ((8, 4), (4, 8)),
    ]
    for (a, b), (_, c) in forms48:
        assert a * c - b * b == 48


def test_reduced_forms_exhaustive_against_scan():
    # brute scan over a generous box must find no extra classes
    for d in (3, 4, 12, 48, 75):
        expected = set(reduced_binary_even_forms(d))
        scanned = set()
        for a in range(2, 4 * d, 2):
            for b in range(0, a // 2 + 1):
                for c in range(a, 4 * d + 1, 2):
                    if a * c - b * b == d and 2 * b <= a <= c:
                        scanned.add(((a, b), (b, c)))
        assert scanned == expected


def test_kummer_condition():
    assert kummer_condition(((4, 0), (0, 12)))
    assert kummer_condition(((8, 4), (4, 8)))
    assert not kummer_condition(((2, 0), (0, 24)))
    assert not kummer_condition(((6, 0), (0, 8)))


def naive_vectors(gram, bound, box):
    n = len(gram)
    out = []

    def rec(i, v):
        if i == n:
            q = gram_pairing(gram, v, v)
            if q <= bound:
                lead = next((x for x in v if x), None)
                if lead is not None and lead > 0:
                    out.append(tuple(v))
            return
        for x in range(-box, box + 1):
            rec(i + 1, v + [x])

    rec(0, [])
    return sorted(out)


def test_short_vectors_E8_root_count():
    roots = short_vectors(E8, 2)
    assert len(roots) == 120  # 240 roots, one per +/- pair
    assert all(gram_pairing(E8, list(v), list(v)) == 2 for v in roots)


def test_short_vectors_against_box_scan():
    gram = [[2, 1, 0], [1, 4, -1], [0, -1, 6]]
    got = short_vectors(gram, 12)
    assert got == naive_vectors(gram, 12, box=4)


def test_short_vectors_with_center():
    gram = [[2, 0], [0, 2]]
    sols = vectors_with_norm(gram, F(1, 2), center=[F(1, 2), F(0)])
    assert sols == [(-1, 0), (0, 0)]
    # shifted enumeration returns all solutions, not half
    sols2 = vectors_with_norm(gram, F(5, 2), center=[F(1, 2), F(0)])
    assert set(sols2) == {(-1, 1), (-1, -1), (0, 1), (0, -1)}
    sols3 = vectors_with_norm(gram, F(9, 2), center=[F(1, 2), F(0)])
    assert set(sols3) == {(-2, 0), (1, 0)}


def test_fp_coefficients_semidefinite():
    # a zero pivot whose row is zero is allowed, last or in the middle
    q = _fp_coefficients([[2, 1, 2], [1, 1, 1], [2, 1, 2]])
    assert [q[i][i] for i in range(3)] == [2, F(1, 2), 0]
    assert q[0][1:] == [F(1, 2), 1] and q[1][2] == 0
    q = _fp_coefficients([[1, 1, 0], [1, 1, 0], [0, 0, 3]])
    assert [q[i][i] for i in range(3)] == [1, 0, 3]
    for indefinite in ([[0, 1], [1, 0]], [[1, 2], [2, 1]], [[-1]],
                       [[1, 1, 0], [1, 1, 1], [0, 1, 1]]):
        with pytest.raises(ValueError):
            _fp_coefficients(indefinite)


def test_ldl_minors_and_pivot_order():
    # a zero remainder ends the elimination, last or in the middle
    assert _ldl([[2, 1, 2], [1, 1, 1], [2, 1, 2]]) == ([0, 1], [[2, 1, 2], [1, 0]])
    order, rows = _ldl([[1, 1, 0], [1, 1, 0], [0, 0, 3]])
    assert order == [0, 2] and [row[0] for row in rows] == [1, 3]
    assert signature([[1, 1, 0], [1, 1, 0], [0, 0, 3]]) == (2, 0, 1)
    # every diagonal entry 0: e_0 becomes e_0 + e_1, of norm 2
    assert _ldl([[0, 1], [1, 0]]) == ([0, 1], [[2, 1], [-1]])
    assert _ldl([[0, 0], [0, 0]]) == ([], [])
    for indefinite in ([[0, 1], [1, 0]], [[1, 2], [2, 1]], [[-1]],
                       [[1, 1, 0], [1, 1, 1], [0, 1, 1]]):
        with pytest.raises(ValueError):
            short_vectors(indefinite, 2)
    # without a zero pivot the minors are the leading principal minors
    rng = random.Random(20261018)
    for n in range(1, 7):
        for _ in range(10):
            m = _random_symmetric(rng, n)
            leading = [det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
            if all(leading):
                order, rows = _ldl(m)
                assert order == list(range(n))
                assert [row[0] for row in rows] == leading


def test_signature_of_rational_form():
    # scaled by the lcm 30 of the denominators
    assert signature([[F(1, 2), F(1, 3)], [F(1, 3), F(-1, 5)]]) == (1, 1, 0)
    assert signature([[15, 10], [10, -6]]) == (1, 1, 0)
    assert signature([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 4)]]) == (2, 0, 0)
    assert signature([[F(1, 2), 0], [0, 0]]) == (1, 0, 1)


def test_short_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        short_vectors([[0, 1], [1, 0]], 2)
    with pytest.raises(ValueError):
        short_vectors([[1, 1], [1, 1]], 2)  # semidefinite is not enough


def test_non_square_forms_and_short_centers_rejected():
    # a form is read from its upper triangle, so a non-square matrix or a
    # center of another length used to pass as a smaller or padded input
    for mat in ([[1, 2]], [[2], [0]], [[2, 0], [0]], [[2, 0]]):
        for fn in (signature, is_positive_definite, det, mat_inverse,
                   DiscriminantGroup):
            with pytest.raises(ValueError, match="non-square"):
                fn(mat)
        for fn in (short_vectors, vectors_with_norm):
            with pytest.raises(ValueError, match="non-square"):
                fn(mat, 2)
    gram = [[2, 0], [0, 2]]
    for center in ([F(1, 2)], [F(1, 2), 0, 5], [], [0, 0, 0]):
        for fn in (short_vectors, vectors_with_norm):
            with pytest.raises(ValueError, match="center"):
                fn(gram, 2, center=center)
            with pytest.raises(ValueError, match="center"):
                fn(gram, -1, center=center)
    with pytest.raises(ValueError, match="center"):
        short_vectors([], 1, center=[0])
    # the right length is still taken, as a list, a tuple or a generator
    assert short_vectors(gram, 2, center=(F(1, 2), 0)) == [(-1, 0), (0, 0)]
    assert short_vectors(gram, 2, center=(v for v in [F(1, 2), 0])) \
        == [(-1, 0), (0, 0)]
    assert short_vectors([], 1, center=[]) == [()]


def test_short_vectors_rejects_non_integral_gram():
    for fn in (short_vectors, vectors_with_norm):
        with pytest.raises(ValueError):
            fn([[F(1, 2), 0], [0, 2]], 2)
        with pytest.raises(ValueError):
            fn([[2, F(1, 3)], [F(1, 3), 2]], 2, center=[0, 0])
    # an integral Fraction entry is an integer
    assert short_vectors([[F(2), 0], [0, 2]], 2) == [(0, 1), (1, 0)]


# -- the former Fraction enumerator, kept as the oracle ---------------------------


def _fp_coefficients(gram):
    """Fincke-Pohst decomposition Q(x) = sum_i q[i][i] (x_i + sum_{j>i} q[i][j] x_j)^2.

    This is LDL^T without pivoting.  A zero pivot is allowed when the rest
    of its row is zero, which is the positive semidefinite case; any other
    form raises ValueError.
    """
    n = len(gram)
    q = [[F(x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] < 0 or (q[i][i] == 0 and any(q[i][i + 1:])):
            raise ValueError("form is not positive semidefinite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            if q[i][i]:
                q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    return q



def _floor_sqrt_plus(f: F, r: F) -> int:
    """floor(sqrt(f) + r) exactly, for f >= 0."""
    if f < 0:
        raise ValueError("negative radicand")
    # sqrt(n/d) + p/q = (q*sqrt(n*d) + p*d) / (d*q)
    n, dd = f.numerator, f.denominator
    p, q = r.numerator, r.denominator
    big_a, big_n, big_b, big_c = q, n * dd, p * dd, dd * q
    k = (big_a * isqrt(big_n) + big_b) // big_c

    def le_sqrt(val):  # val <= A*sqrt(N)?
        if val <= 0:
            return True
        return val * val <= big_a * big_a * big_n

    def gt_sqrt(val):  # val > A*sqrt(N)?
        if val <= 0:
            return False
        return val * val > big_a * big_a * big_n

    while not le_sqrt(big_c * k - big_b):
        k -= 1
    while not gt_sqrt(big_c * (k + 1) - big_b):
        k += 1
    return k


def fraction_short_vectors(gram, bound, center=None):
    """Integer vectors x with Q(x + center) <= bound, Q the form of gram.

    Exact enumeration.  Without a center, x and -x are identified and one
    representative is returned (first nonzero coordinate positive); the
    zero vector is omitted.  With a center, every solution is returned,
    zero included.
    """
    n = len(gram)
    bound = F(bound)
    if bound < 0:
        return []
    symmetric = center is None
    c = [F(0)] * n if center is None else [F(x) for x in center]
    q = _fp_coefficients(gram)
    if not all(q[i][i] for i in range(n)):
        raise ValueError("form is not positive definite")
    out = []
    x = [0] * n

    def recurse(i, remaining):
        if i < 0:
            vec = tuple(x)
            if symmetric:
                lead = next((v for v in vec if v), None)
                if lead is None or lead < 0:
                    return
            out.append(vec)
            return
        off = c[i] + sum(q[i][j] * (x[j] + c[j]) for j in range(i + 1, n))
        radic = remaining / q[i][i]
        hi = _floor_sqrt_plus(radic, -off)
        lo = -_floor_sqrt_plus(radic, off)
        for xi in range(lo, hi + 1):
            x[i] = xi
            used = q[i][i] * (xi + off) ** 2
            recurse(i - 1, remaining - used)
        x[i] = 0

    recurse(n - 1, bound)
    return sorted(out)


def fraction_vectors_with_norm(gram, target, center=None):
    """Like short_vectors but keeps only exact norm = target."""
    target = F(target)
    cand = fraction_short_vectors(gram, target, center=center)
    c = [F(0)] * len(gram) if center is None else [F(x) for x in center]
    out = []
    for v in cand:
        y = [vi + ci for vi, ci in zip(v, c)]
        if gram_pairing(gram, y, y) == target:
            out.append(v)
    return out


def recursive_short_vectors(gram, bound, center=None, exact=False):
    """The former integer walk, kept as the oracle of short_vectors: one
    call per node, each taking the fresh dot product of its row of _ldl
    with the coordinates already fixed, and one call per leaf."""
    n = len(gram)
    bound = F(bound)
    if bound < 0:
        return []
    _, rows = _ldl(gram)
    symmetric = center is None
    c = [F(0)] * n if symmetric else [F(x) for x in center]
    den = lcm(*(x.denominator for x in c))
    big_c = [int(x * den) for x in c]
    minors = [1] + [row[0] for row in rows]
    scales = [den * den * minors[i] * minors[i + 1] for i in range(n)]
    m = lcm(bound.denominator, *scales)
    weight = [m // s for s in scales]
    step = [den * minors[i + 1] for i in range(n)]
    shift = [sum(map(mul, rows[i], big_c[i:])) for i in range(n)]
    tail = [[den * u for u in rows[i][1:]] for i in range(n)]
    out = []
    x = [0] * n

    def walk(i, rem):
        if i < 0:
            if exact and rem:
                return
            vec = tuple(x)
            if symmetric:
                lead = next((v for v in vec if v), None)
                if lead is None or lead < 0:
                    return
            out.append(vec)
            return
        s = shift[i] + sum(map(mul, tail[i], x[i + 1:]))
        k, d = weight[i], step[i]
        r = isqrt(rem // k)
        for xi in range(-((r + s) // d), (r - s) // d + 1):
            x[i] = xi
            t = d * xi + s
            walk(i - 1, rem - t * t * k)
        x[i] = 0

    walk(n - 1, bound.numerator * (m // bound.denominator))
    return sorted(out)


def _assert_matches_recursive_walk(gram, bound, center=None):
    got = short_vectors(gram, bound, center=center)
    assert got == recursive_short_vectors(gram, bound, center)
    exact = vectors_with_norm(gram, bound, center=center)
    assert exact == recursive_short_vectors(gram, bound, center, exact=True)
    return got, exact


def test_incremental_walk_matches_the_recursive_walk():
    rng = random.Random(20261018)
    for n in range(1, 7):
        for _ in range(6):
            gram = _random_definite(rng, n)
            for with_center in (False, True):
                center = None
                if with_center:
                    center = [F(rng.randint(-7, 7), rng.randint(1, 6))
                              for _ in range(n)]
                bound = F(rng.randint(0, 30), rng.randint(1, 3))
                _assert_matches_recursive_walk(gram, bound, center)
    G = nscat.ns_lattice()
    for idx in nscat._E8_BLOCKS:
        block = [[-G[i][j] for j in idx] for i in idx]
        got, roots = _assert_matches_recursive_walk(block, 2)
        assert len(got) == len(roots) == 120
        _assert_matches_recursive_walk(block, 3, center=[F(1, 2)] * 8)
    form = [list(r) for r in nscat._kernel_form()]
    for (d, g), count in (((2, 0), 441), ((4, 1), 441), ((4, 0), 50616)):
        center, radius = nscat._kernel_equation(d, g)
        got = vectors_with_norm(form, radius, center=center)
        assert got == recursive_short_vectors(form, radius, center,
                                              exact=True)
        assert len(got) == count


def _random_definite(rng, n):
    # diagonally dominant, hence positive definite
    m = _random_symmetric(rng, n)
    for i in range(n):
        m[i][i] = sum(abs(x) for j, x in enumerate(m[i]) if j != i) \
            + rng.randint(1, 3)
    return m


def _assert_matches_oracle(gram, bound, center=None):
    got = short_vectors(gram, bound, center=center)
    assert got == fraction_short_vectors(gram, bound, center=center)
    exact = vectors_with_norm(gram, bound, center=center)
    c = [0] * len(gram) if center is None else center
    assert exact == [v for v in got
                     if gram_pairing(gram, [a + b for a, b in zip(v, c)],
                                     [a + b for a, b in zip(v, c)]) == bound]
    return got, exact


def test_short_vectors_match_fraction_oracle_on_random_forms():
    rng = random.Random(20261018)
    hits = 0
    for n in range(1, 7):
        for _ in range(6):
            gram = _random_definite(rng, n)
            assert is_positive_definite(gram)
            assert _ldl(gram)[0] == list(range(n))
            for with_center in (False, True):
                center = None
                if with_center:
                    center = [F(rng.randint(-7, 7), rng.randint(1, 6))
                              for _ in range(n)]
                bound = F(rng.randint(0, 30), rng.randint(1, 3))
                _assert_matches_oracle(gram, bound, center)
                # a bound attained by a vector near -center, so the exact
                # walk has leaves to keep
                c = center or [0] * n
                v = [rng.randint(-1, 1) - round(x) for x in c]
                y = [a + b for a, b in zip(v, c)]
                norm = gram_pairing(gram, y, y)
                if norm:
                    _, exact = _assert_matches_oracle(gram, norm, center)
                    hits += bool(exact)
    assert hits > 30


def test_short_vectors_match_fraction_oracle_on_e8():
    got, roots = _assert_matches_oracle(E8, 2)
    assert len(roots) == len(got) == 120
    _, exact = _assert_matches_oracle(E8, 4)
    assert len(exact) == 1080
    G = nscat.ns_lattice()
    for idx in nscat._E8_BLOCKS:
        block = [[-G[i][j] for j in idx] for i in idx]
        _, roots = _assert_matches_oracle(block, 2)
        assert len(roots) == 120
        _assert_matches_oracle(block, 3, center=[F(1, 2)] * 8)


@pytest.mark.parametrize("d,g,count", [(2, 0, 441), (2, 1, 0), (4, 1, 441),
                                       (0, 0, 24)])
def test_kernel_enumeration_matches_fraction_oracle(d, g, count):
    form = [list(r) for r in nscat._kernel_form()]
    center, radius = nscat._kernel_equation(d, g)
    got = vectors_with_norm(form, radius, center=center)
    assert got == fraction_vectors_with_norm(form, radius, center=center)
    assert len(got) == count
