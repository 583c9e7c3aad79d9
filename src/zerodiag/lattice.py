"""Exact integer lattice utilities.

Gram matrices are lists of lists of ints (or Fractions where noted).
Provided here: determinants, Smith normal form, discriminant groups of even
lattices with their torsion quadratic form, signatures, enumeration of
reduced positive definite even binary forms of given determinant, and short
vector enumeration by integer Fincke-Pohst: a fraction-free LDL^T and an
exact integer budget, so a vector of norm exactly the bound is recognised
without recomputing its norm.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .exactnum import rref


def det(mat) -> Fraction:
    """Exact determinant: each row is scaled to integers by the lcm of its
    denominators, Bareiss runs on the result, and the scales are divided
    out again."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    rows, scale = [], 1
    for row in mat:
        row = [Fraction(x) for x in row]
        m = lcm(*(x.denominator for x in row))
        rows.append([int(x * m) for x in row])
        scale *= m
    return Fraction(_bareiss(rows), scale)


def _bareiss(mat) -> int:
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_inverse(mat):
    """Exact inverse as Fractions: the right half of rref([A | I])."""
    n = len(mat)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [list(row[n:]) for row in rows]


def mat_vec(mat, vec):
    return [sum(m * v for m, v in zip(row, vec)) for row in mat]


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def gram_pairing(gram, u, v):
    return vec_dot(u, mat_vec(gram, v))


def smith_normal_form(mat):
    """Return (d, uinv) where d are the nonzero diagonal entries of the
    Smith form D = U A V (each dividing the next) and uinv is U^{-1}.

    Only the row transform inverse is returned; it is what the
    discriminant-group computation needs.
    """
    a = [list(row) for row in mat]
    if not a:
        return [], []
    m, n = len(a), len(a[0])
    # uinv accumulates the inverses of the row operations applied to a
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
        # find a pivot
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        done = False
            if done:
                break
        # divisibility fix-up: pivot must divide every later entry
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_addmul(t, bad, 1)
            continue
        if a[t][t] < 0:
            row_negate(t)
        t += 1
    d = [a[i][i] for i in range(t) if a[i][i]]
    return d, uinv


class DiscriminantGroup:
    """L*/L of an even nondegenerate lattice, with its Q/2Z quadratic form."""

    __slots__ = ("orders", "generators", "q_values", "gram")

    def __init__(self, gram):
        n = len(gram)
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be symmetric")
        if any(gram[i][i] % 2 for i in range(n)):
            raise ValueError("lattice is not even")
        d, uinv = smith_normal_form(gram)
        if len(d) != n:
            raise ValueError("degenerate lattice")
        ginv = mat_inverse(gram)
        orders, gens, qvals = [], [], []
        for i in range(n):
            if d[i] == 1:
                continue
            x = [uinv[r][i] for r in range(n)]  # class of e_i pulled back
            w = mat_vec(ginv, x)                # generator in L* = G^-1 Z^n
            q = vec_dot(x, mat_vec(ginv, x))    # w^T G w
            orders.append(d[i])
            gens.append(w)
            qvals.append(_mod_2z(q))
        object.__setattr__(self, "orders", tuple(orders))
        object.__setattr__(self, "generators", tuple(tuple(g) for g in gens))
        object.__setattr__(self, "q_values", tuple(qvals))
        object.__setattr__(self, "gram", tuple(tuple(row) for row in gram))

    def __setattr__(self, *a):
        raise AttributeError("DiscriminantGroup is immutable")

    def order(self) -> int:
        out = 1
        for d in self.orders:
            out *= d
        return out

    def all_q_values(self):
        """The full multiset {q(x) : x in L*/L} as values in [0, 2)."""
        from itertools import product

        vals = []
        for combo in product(*(range(d) for d in self.orders)):
            x = [Fraction(0)] * len(self.gram)
            for c, g in zip(combo, self.generators):
                x = [xi + c * gi for xi, gi in zip(x, g)]
            vals.append(_mod_2z(gram_pairing(self.gram, x, x)))
        return sorted(vals)


def _mod_2z(q: Fraction) -> Fraction:
    q = Fraction(q)
    return q - 2 * (q / 2).__floor__()


def signature(gram):
    """(n_plus, n_minus, n_zero) of a symmetric integer matrix, exactly.

    Congruence diagonalisation (LDL^T over Q): by Sylvester's law of
    inertia the signs of the pivots are the signature.  When every
    remaining diagonal entry is 0 but some a[i][j] is not, e_i is replaced
    by e_i + e_j, whose norm 2 a[i][j] is a nonzero pivot.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("gram matrix must be symmetric")
    pos = neg = 0
    live = list(range(n))
    while live:
        p = next((i for i in live if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                break  # the rest of the form is zero
            p, j = pair
            for k in live:
                a[p][k] += a[j][k]
            for k in live:
                a[k][p] += a[k][j]
        live.remove(p)
        piv = a[p][p]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for r in live:
            f = a[r][p] / piv
            if f:
                for c in live:
                    a[r][c] -= f * a[p][c]
    return pos, neg, n - pos - neg


def is_positive_definite(gram) -> bool:
    n = len(gram)
    pos, neg, zero = signature(gram)
    return pos == n


def reduced_binary_even_forms(d: int):
    """All reduced positive definite even binary forms of determinant d.

    Reduction convention: gram [[a, b], [b, c]] with 0 <= 2b <= a <= c.
    Even means a and c even.  Returns a sorted list of ((a, b), (b, c)).
    """
    if d <= 0:
        raise ValueError("determinant must be positive")
    out = []
    a = 2
    while 3 * a * a <= 4 * d:
        for b in range(0, a // 2 + 1):
            rem = d + b * b
            if rem % a:
                continue
            c = rem // a
            if c % 2 == 0 and c >= a:
                out.append(((a, b), (b, c)))
        a += 2
    return sorted(out)


def kummer_condition(form) -> bool:
    """Whether a binary even form is twice another even form.

    For gram [[a, b], [b, c]] this says a = c = 0 mod 4 and b even.
    """
    (a, b), (_, c) = form
    return a % 4 == 0 and c % 4 == 0 and b % 2 == 0


def _fp_coefficients(gram):
    """Fincke-Pohst decomposition Q(x) = sum_i q[i][i] (x_i + sum_{j>i} q[i][j] x_j)^2.

    This is LDL^T without pivoting.  A zero pivot is allowed when the rest
    of its row is zero, which is the positive semidefinite case; any other
    form raises ValueError.
    """
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
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


def _fraction_free_ldl(gram):
    """Fraction-free (Bareiss) LDL^T of a positive definite integer form.

    Returns integer rows: rows[i] holds U_i[i:], the row of the form after
    i elimination steps, with U_ii = d_i the leading principal minor of
    size i + 1.  Then Q(x) = sum_i (U_i . x)^2 / (d_{i-1} d_i), d_{-1} = 1.
    Only the upper triangle of gram is read.  A non-integral entry, or a
    pivot <= 0 (an indefinite or semidefinite form), raises ValueError.
    """
    a = []
    for row in gram:
        ints = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError("gram entry %s is not an integer" % (x,))
            ints.append(f.numerator)
        a.append(ints)
    n = len(a)
    rows, prev = [], 1
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            raise ValueError("form is not positive definite")
        rows.append(a[k][k:])
        for i in range(k + 1, n):
            aki = a[k][i]
            for j in range(i, n):
                a[i][j] = (piv * a[i][j] - aki * a[k][j]) // prev
        prev = piv
    return rows


def short_vectors(gram, bound, center=None, *, _exact=False):
    """Integer vectors x with Q(x + center) <= bound, Q the form of gram.

    Exact enumeration.  Without a center, x and -x are identified and one
    representative is returned (first nonzero coordinate positive); the
    zero vector is omitted.  With a center, every solution is returned,
    zero included.  Raises ValueError unless gram is integral and
    positive definite.  _exact keeps only Q(x + center) == bound, for
    vectors_with_norm.

    Integer Fincke-Pohst: the center is scaled to integers C = den *
    center and the budget to an integer by M, a common multiple of every
    den^2 d_{i-1} d_i and of the bound's denominator, so that
    M Q(x + center) = sum_i k_i t_i^2 with t_i = den U_i . x + U_i . C and
    integer weights k_i.  Level i takes x_i from
    |t_i| <= isqrt(rem // k_i), where t_i = den d_i x_i + s and s collects
    the coordinates already fixed.  The remaining budget is exact, so a
    leaf with rem == 0 has norm exactly bound.
    """
    n = len(gram)
    bound = Fraction(bound)
    if bound < 0:
        return []
    rows = _fraction_free_ldl(gram)
    symmetric = center is None
    c = [Fraction(0)] * n if symmetric else [Fraction(x) for x in center]
    den = lcm(*(x.denominator for x in c))
    big_c = [int(x * den) for x in c]
    minors = [1] + [row[0] for row in rows]
    scales = [den * den * minors[i] * minors[i + 1] for i in range(n)]
    m = lcm(bound.denominator, *scales)
    weight = [m // s for s in scales]
    step = [den * minors[i + 1] for i in range(n)]
    shift = [vec_dot(rows[i], big_c[i:]) for i in range(n)]
    tail = [[den * u for u in rows[i][1:]] for i in range(n)]
    out = []
    x = [0] * n

    def walk(i, rem):
        if i < 0:
            if _exact and rem:
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


def vectors_with_norm(gram, target, center=None):
    """Like short_vectors but keeps only exact norm = target."""
    return short_vectors(gram, target, center, _exact=True)
