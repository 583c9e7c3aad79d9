"""Exact integer lattice utilities.

Gram matrices are lists of lists of ints (or Fractions where noted).
Provided here: determinants and inverses, both from one fraction-free
(Bareiss) Gauss-Jordan elimination, _bareiss, which keeps an inverse in
integer form (det, adjugate); Smith normal form, discriminant groups of even
lattices with their torsion quadratic form, enumeration of reduced positive
definite even binary forms of given determinant, and the facts read off one
fraction-free symmetric elimination, _ldl: signatures, positive
definiteness, and short vector enumeration by integer Fincke-Pohst, whose
exact integer budget recognises a vector of norm exactly the bound without
recomputing its norm.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import mul


def det(mat) -> Fraction:
    """Exact determinant: each row is scaled to integers by the lcm of its
    denominators, _bareiss runs on the result, and the scales are divided
    out again."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    rows, scale = [], 1
    for row in mat:
        row = [Fraction(x) for x in row]
        m = lcm(*(x.denominator for x in row))
        rows.append([int(x * m) for x in row])
        scale *= m
    return Fraction(_bareiss(rows)[0], scale)


def mat_inverse(mat):
    """Exact inverse in integer form: (d, adj) with mat^-1 = adj / d, d the
    determinant and adj the adjugate.  Raises ValueError on a non-square
    matrix or a non-integral entry, ZeroDivisionError on a singular one."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("inverse of a non-square matrix")
    d, adj = _bareiss([[_as_int(x) for x in row]
                       + [int(i == j) for j in range(n)]
                       for i, row in enumerate(mat)])
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    return d, adj


def _bareiss(aug):
    """(det A, adj(A) B), or (0, None) for a singular A, by fraction-free
    Gauss-Jordan on the integer rows [A | B], A their first n columns.

    Step k swaps in a row with a nonzero entry in column k if row k has
    none, and replaces every other row r by (p r - r[k] row_k) // prev, p
    the pivot and prev the one before; each division is exact by
    Sylvester's identity (Bareiss 1968).  The left block, of which step k
    reads only the columns from k on, ends as D I with D = det(PA) for the
    swaps P, so the right block ends as D A^-1 B.
    """
    m = [list(row) for row in aug]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p, mk = m[k][k], m[k]
        for mi in m[:k] + m[k + 1:]:
            f = mi[k]
            mi[k + 1:] = [(p * x - f * y) // prev
                          for x, y in zip(mi[k + 1:], mk[k + 1:])]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def mat_vec(mat, vec):
    return [sum(m * v for m, v in zip(row, vec)) for row in mat]


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


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
    """L*/L of an even nondegenerate lattice, with its Q/2Z quadratic form:
    the orders of its cyclic factors and the exact pairings w_i . w_j of
    their generators in L*, from which all_q_values reads q on every
    element."""

    __slots__ = ("orders", "pairings")

    def __init__(self, gram):
        n = len(gram)
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be symmetric")
        if any(gram[i][i] % 2 for i in range(n)):
            raise ValueError("lattice is not even")
        d, uinv = smith_normal_form(gram)
        if len(d) != n:
            raise ValueError("degenerate lattice")
        den, adj = mat_inverse(gram)
        # x: the class of e_i pulled back; adj x / den: its generator in
        # L* = G^-1 Z^n, and x . adj y / den = w_x^T G w_y
        xs = [[uinv[r][i] for r in range(n)] for i in range(n) if d[i] != 1]
        ys = [mat_vec(adj, x) for x in xs]
        pairings = tuple(tuple(Fraction(vec_dot(x, y), den) for y in ys)
                         for x in xs)
        object.__setattr__(self, "orders", tuple(e for e in d if e != 1))
        object.__setattr__(self, "pairings", pairings)

    def __setattr__(self, *a):
        raise AttributeError("DiscriminantGroup is immutable")

    def all_q_values(self):
        """The full multiset {q(x) : x in L*/L} as values in [0, 2), each
        q(sum c_i w_i) read off the pairing matrix of the generators."""
        b = self.pairings
        return sorted(_mod_2z(sum(ci * cj * bij for ci, row in zip(c, b)
                                  for cj, bij in zip(c, row)))
                      for c in product(*(range(e) for e in self.orders)))


def _mod_2z(q: Fraction) -> Fraction:
    q = Fraction(q)
    return q - 2 * (q / 2).__floor__()


def _as_int(x) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError("entry %s is not an integer" % (f,))
    return f.numerator


def _ldl(gram):
    """Fraction-free (Bareiss) symmetric elimination of an integer form.

    Returns (order, rows).  Step k pivots on p = order[k], the first live
    index with a nonzero diagonal entry.  When every live diagonal entry is
    0 but some a[i][j] is not, e_i is first replaced by e_i + e_j, whose
    norm 2 a[i][j] is nonzero; the change of basis is unimodular, so every
    division stays exact.  rows[k] is the row of p over p and the indices
    still live after it, in index order, and rows[k][0] = d_k is the
    leading principal minor of size k + 1 of the congruent form.  The
    elimination stops when the remainder is zero, so len(rows) is the rank.
    A form that pivots in index order, a positive definite one say, is
    Q(x) = sum_k (U_k . x)^2 / (d_{k-1} d_k) with U_k = [0]*k + rows[k]
    and d_{-1} = 1.  Only the upper triangle of gram is read; a
    non-integral entry raises ValueError.
    """
    n = len(gram)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = _as_int(gram[i][j])
    live, order, rows, prev = list(range(n)), [], [], 1
    while live:
        p = next((i for i in live if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                break  # the remainder is zero
            p, j = pair
            for k in live:
                a[p][k] += a[j][k]
            for k in live:
                a[k][p] += a[k][j]
        live.remove(p)
        piv, ap = a[p][p], a[p]
        order.append(p)
        rows.append([piv] + [ap[c] for c in live])
        for r in live:
            ar = a[r]
            arp = ar[p]
            for c in live:
                ar[c] = (piv * ar[c] - arp * ap[c]) // prev
        prev = piv
    return order, rows


def signature(gram):
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix, exactly.

    The matrix is scaled to integers by the lcm of its denominators, which
    keeps the signature, and run through _ldl.  By Sylvester's law of
    inertia the signs of the pivots d_k / d_{k-1} of the congruent form are
    the signature, and the rank is the number of pivots.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("gram matrix must be symmetric")
    m = lcm(*(x.denominator for row in a for x in row))
    _, rows = _ldl([[x * m for x in row] for row in a])
    minors = [1] + [row[0] for row in rows]
    pos = sum(1 for k in range(len(rows)) if minors[k] * minors[k + 1] > 0)
    return pos, len(rows) - pos, n - len(rows)


def is_positive_definite(gram) -> bool:
    return signature(gram)[0] == len(gram)


# the largest determinant reduced_binary_even_forms accepts: its scan is
# linear in d and takes about 1.5 s at this bound.
FORMS_MAX_DET = 10**8


def reduced_binary_even_forms(d: int):
    """All reduced positive definite even binary forms of determinant d.

    Reduction convention: gram [[a, b], [b, c]] with 0 <= 2b <= a <= c.
    Even means a and c even.  Returns a sorted list of ((a, b), (b, c)).
    The scan is linear in d; raises ValueError unless 0 < d <= FORMS_MAX_DET.
    """
    if not 0 < d <= FORMS_MAX_DET:
        raise ValueError("determinant must be between 1 and %d, got %d"
                         % (FORMS_MAX_DET, d))
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


def short_vectors(gram, bound, center=None, *, _exact=False):
    """Integer vectors x with Q(x + center) <= bound, Q the form of gram.

    Exact enumeration.  Without a center, x and -x are identified and one
    representative is returned (first nonzero coordinate positive); the
    zero vector is omitted.  With a center, every solution is returned,
    zero included.  Raises ValueError unless gram is integral and
    positive definite.  _exact keeps only Q(x + center) == bound, for
    vectors_with_norm.

    Integer Fincke-Pohst on the rows U_i and minors d_i of _ldl, which
    pivots in index order on a positive definite form.  The center is
    scaled to integers C = den * center and the budget to an integer by M,
    a common multiple of every den^2 d_{i-1} d_i and of the bound's
    denominator, so that
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
    _, rows = _ldl(gram)
    if len(rows) < n or any(row[0] <= 0 for row in rows):
        raise ValueError("form is not positive definite")
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
