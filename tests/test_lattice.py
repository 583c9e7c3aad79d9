import random
from fractions import Fraction as F

import pytest

from zerodiag.lattice import (
    DiscriminantGroup,
    _fp_coefficients,
    det,
    gram_pairing,
    is_positive_definite,
    kummer_condition,
    mat_inverse,
    mat_vec,
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


def test_det_fraction_entries():
    m = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
    assert det(m) == F(1, 14) - F(1, 15)


def test_mat_inverse_roundtrip():
    rng = random.Random(9)
    while True:
        m = random_int_matrix(rng, 4)
        if det(m) != 0:
            break
    inv = mat_inverse(m)
    for i in range(4):
        e = mat_vec(inv, mat_vec(m, [int(k == i) for k in range(4)]))
        assert e == [F(int(k == i)) for k in range(4)]
    for singular in ([[1, 2], [2, 4]], [[0, 1], [0, 1]], [[1, 0], [0, 0]]):
        with pytest.raises(ZeroDivisionError):
            mat_inverse(singular)


def test_smith_normal_form_divisibility_and_det():
    rng = random.Random(13)
    for _ in range(10):
        m = random_int_matrix(rng, 4)
        if det(m) == 0:
            continue
        d, uinv = smith_normal_form(m)
        assert len(d) == 4
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(det(m))
        assert abs(det(uinv)) == 1


def test_discriminant_group_hyperbolic_plane():
    # unimodular, so the group is trivial
    dg = DiscriminantGroup([[0, 1], [1, 0]])
    assert dg.orders == ()
    assert dg.order() == 1


def test_discriminant_group_orders_and_q():
    dg = DiscriminantGroup([[2, 0], [0, 24]])
    assert dg.orders == (2, 24)
    assert dg.q_values == (F(1, 2), F(1, 24))
    # generator norms recompute from the stored generators
    for w, q in zip(dg.generators, dg.q_values):
        raw = gram_pairing(dg.gram, list(w), list(w))
        assert (raw - q) % 2 == 0


def test_discriminant_group_rejects_odd_lattice():
    with pytest.raises(ValueError):
        DiscriminantGroup([[1, 0], [0, 2]])


def test_discriminant_group_negative_definite_rank_one():
    dg = DiscriminantGroup([[-24]])
    assert dg.orders == (24,)
    # q(generator) = -1/24 mod 2Z, canonical representative in [0, 2)
    assert dg.q_values == (F(47, 24),)


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


def test_short_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        short_vectors([[0, 1], [1, 0]], 2)
    with pytest.raises(ValueError):
        short_vectors([[1, 1], [1, 1]], 2)  # semidefinite is not enough
