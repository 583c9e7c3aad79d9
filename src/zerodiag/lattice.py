"""Exact integer lattice utilities.

Gram matrices are lists of lists of ints (or Fractions where noted).
Integer input is taken as it is and Fraction input is scaled to
integers first; a float, or any other inexact entry, bound or center,
raises TypeError.  Provided here: determinants and inverses, both from
one fraction-free (Bareiss) Gauss-Jordan elimination, _bareiss, which
keeps an inverse in integer form (det, adjugate); the invariant factors
of the Smith normal form; discriminant groups of even lattices, with
their torsion quadratic form read off that adjugate; enumeration of
reduced positive definite even binary forms of given determinant; and
the facts read off one fraction-free symmetric elimination, _ldl:
signatures, positive definiteness, and short vector enumeration by
integer Fincke-Pohst, whose exact integer budget recognises a vector of
norm exactly the bound without recomputing its norm, and whose walk
keeps its centre sums current.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul


def det(mat) -> Fraction:
    """Exact determinant, by _bareiss.  An integer matrix goes in as it
    is; otherwise each row is scaled to integers by the lcm of its
    denominators, and the scales are divided out again."""
    n = _require_square(mat, "determinant")
    if all(type(x) is int for row in mat for x in row):
        return Fraction(_bareiss(mat)[0])
    rows, scale = [], 1
    for row in mat:
        row = [_rational(x) for x in row]
        m = lcm(*(x.denominator for x in row))
        rows.append([int(x * m) for x in row])
        scale *= m
    return Fraction(_bareiss(rows)[0], scale)


def mat_inverse(mat):
    """Exact inverse in integer form: (d, adj) with mat^-1 = adj / d, d the
    determinant and adj the adjugate.  Raises ValueError on a non-square
    matrix or a non-integral entry, ZeroDivisionError on a singular one."""
    n = _require_square(mat, "inverse")
    d, adj = _bareiss([[_as_int(x) for x in row]
                       + [int(i == j) for j in range(n)]
                       for i, row in enumerate(mat)])
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    return d, adj


def _require_square(mat, what) -> int:
    """The size n of an n x n matrix; ValueError names what was asked of
    a matrix that is not square."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("%s of a non-square matrix" % what)
    return n


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


def vec_dot(u, v):
    return sum(map(mul, u, v))


def smith_normal_form(mat):
    """The invariant factors d_1 | d_2 | ... | d_r of an integer matrix
    of rank r: the nonzero diagonal of its Smith form, with no transform.

    Each pass moves an entry of least nonzero absolute value p to the
    corner and reduces the rest of its row and column modulo p.  A
    nonzero remainder is a smaller entry, so the pass repeats until the
    row and column are clear; then |p| is recorded and the minor is
    next.  Pivoting on the least entry keeps the entries small in
    practice, against the coefficient growth of naive elimination
    (Kannan and Bachem 1979).  Last, (d_i, d_j) -> (gcd, lcm), which
    keeps the group Z^r / diag(d), makes the diagonal a divisor chain.
    """
    a = [[_as_int(x) for x in row] for row in mat]
    d = []
    while True:
        nonzero = [(abs(x), i, j) for i, row in enumerate(a)
                   for j, x in enumerate(row) if x]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        top, p = a[0], a[0][0]
        for row in a[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, top)]
        for j in range(1, len(top)):
            q = top[j] // p
            for row in a:
                row[j] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in a[1:]):
            continue
        d.append(abs(p))
        a = [row[1:] for row in a[1:]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d


class DiscriminantGroup:
    """L*/L of an even nondegenerate lattice L, with its Q/2Z quadratic
    form q (Nikulin 1979): the orders of its cyclic factors, read off the
    Smith form, q on every element through all_q_values, and the inverse
    (d, adj) of the Gram matrix as mat_inverse gives it, from which q is
    read."""

    __slots__ = ("orders", "inverse")

    def __init__(self, gram):
        n = _require_square(gram, "discriminant group")
        gram = [[_as_int(x) for x in row] for row in gram]
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be symmetric")
        if any(gram[i][i] % 2 for i in range(n)):
            raise ValueError("lattice is not even")
        d = smith_normal_form(gram)
        if len(d) != n:
            raise ValueError("degenerate lattice")
        object.__setattr__(self, "orders", tuple(e for e in d if e != 1))
        object.__setattr__(self, "inverse", mat_inverse(gram))

    def __setattr__(self, *a):
        raise AttributeError("DiscriminantGroup is immutable")

    def all_q_values(self):
        """The full multiset {q(x) : x in L*/L} as values in [0, 2).

        In the coordinates of L, y in Z^n stands for adj y / d in
        L* = G^-1 Z^n, and q = y . adj y / d.  A walk from 0 adds the basis
        vectors e_j and keeps v = adj y mod |d|, which names the element,
        and t = y . adj y mod 2|d|, with t(y + e_j) = t(y) + 2 (adj y)_j
        + adj_jj.  Reading v_j for (adj y)_j shifts t by a multiple of 2|d|,
        which changes q by an even integer, so y itself is never kept."""
        d, adj = self.inverse
        m = abs(d)
        # the walk meets |d| elements, so v fits in 64-bit entries whenever
        # it can finish; keys are bytes, not tuples, since CPython 3.11 keeps
        # freed 20-item tuples on a free list that allocation never pops
        start = [0] * len(adj)
        seen = {array("q", start).tobytes()}
        todo, out = [(start, 0)], []
        for v, t in todo:
            out.append(Fraction(t, d) % 2)
            for j, col in enumerate(adj):
                w = [(x + y) % m for x, y in zip(v, col)]
                key = array("q", w).tobytes()
                if key not in seen:
                    seen.add(key)
                    todo.append((w, (t + 2 * v[j] + col[j]) % (2 * m)))
        return sorted(out)


def _rational(x) -> Fraction:
    """x as a Fraction; an entry that is not an int or a Fraction, a
    float say, raises TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError("lattice entries are exact; pass int or Fraction, "
                        "not %r" % (x,))
    return Fraction(x)


def _as_int(x) -> int:
    if type(x) is int:
        return x
    f = _rational(x)
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

    An integer matrix goes to _ldl as it is; otherwise it is scaled to
    integers by the lcm of its denominators, which keeps the signature.
    By Sylvester's law of inertia the signs of the pivots d_k / d_{k-1}
    of the congruent form are the signature, and the rank is the number
    of pivots.  A non-square matrix raises ValueError.
    """
    n = _require_square(gram, "signature")
    if all(type(x) is int for row in gram for x in row):
        a = gram
    else:
        a = [[_rational(x) for x in row] for row in gram]
        m = lcm(*(x.denominator for row in a for x in row))
        a = [[x * m for x in row] for row in a]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("gram matrix must be symmetric")
    _, rows = _ldl(a)
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
    d = _as_int(d)
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
    (a, b), (_, c) = [[_as_int(x) for x in row] for row in form]
    return a % 4 == 0 and c % 4 == 0 and b % 2 == 0


def short_vectors(gram, bound, center=None, *, _exact=False):
    """Integer vectors x with Q(x + center) <= bound, Q the form of gram.

    Exact enumeration.  Without a center, x and -x are identified and one
    representative is returned (first nonzero coordinate positive); the
    zero vector is omitted.  With a center, every solution is returned,
    zero included.  Raises ValueError unless gram is square, integral and
    positive definite, or when the center's length is not gram's.  _exact
    keeps only Q(x + center) == bound, for vectors_with_norm.

    Integer Fincke-Pohst on the rows U_i and minors d_i of _ldl, which
    pivots in index order on a positive definite form.  The center is
    scaled to integers C = den * center and the budget to an integer by M,
    a common multiple of every den^2 d_{i-1} d_i and of the bound's
    denominator, so that
    M Q(x + center) = sum_i k_i t_i^2 with t_i = den U_i . x + U_i . C and
    integer weights k_i.  Level i takes x_i from
    |t_i| <= isqrt(rem // k_i), where t_i = den d_i x_i + s_i and s_i
    collects the coordinates already fixed.  Each s_i is kept current
    rather than recomputed: when x_j moves by one, every s_l with a
    nonzero U_l[j] moves by den U_l[j] (Schnorr and Euchner 1994).  The
    remaining budget is exact, so a leaf with rem == 0 has norm exactly
    bound.
    """
    n = _require_square(gram, "short vectors")
    bound = _rational(bound)
    symmetric = center is None
    c = [Fraction(0)] * n if symmetric else [_rational(x) for x in center]
    if len(c) != n:
        raise ValueError("center of length %d for a form of rank %d"
                         % (len(c), n))
    if bound < 0:
        return []
    _, rows = _ldl(gram)
    if len(rows) < n or any(row[0] <= 0 for row in rows):
        raise ValueError("form is not positive definite")
    if n == 0:
        return [] if symmetric or (_exact and bound) else [()]
    den = lcm(*(x.denominator for x in c))
    big_c = [int(x * den) for x in c]
    minors = [1] + [row[0] for row in rows]
    scales = [den * den * minors[i] * minors[i + 1] for i in range(n)]
    m = lcm(bound.denominator, *scales)
    weight = [m // s for s in scales]
    step = [den * minors[i + 1] for i in range(n)]
    # s_i with every coordinate at 0, and the moves of s when x_j does
    sums = [vec_dot(rows[i], big_c[i:]) for i in range(n)]
    moves = [[(l, den * rows[l][j - l]) for l in range(j) if rows[l][j - l]]
             for j in range(n)]
    out = []
    x = [0] * n

    def walk(i, rem):
        s, k, d = sums[i], weight[i], step[i]
        r = isqrt(rem // k)
        lo, hi = -((r + s) // d), (r - s) // d
        if lo > hi:
            return
        if i == 0:
            if _exact and rem != k * r * r:
                return  # no t_0 with k t_0^2 == rem
            tail = x[1:]
            # the representative of +-x has its first nonzero entry
            # positive: x_0 > 0, or x_0 = 0 after a tail that leads with one
            if symmetric:
                lo = max(lo, 0 if next((v for v in tail if v), 0) > 0 else 1)
            for x0 in range(lo, hi + 1):
                t = d * x0 + s
                if not _exact or rem == t * t * k:
                    out.append((x0, *tail))
            return
        mv = moves[i]
        for l, u in mv:
            sums[l] += lo * u
        for xi in range(lo, hi + 1):
            x[i] = xi
            t = d * xi + s
            walk(i - 1, rem - t * t * k)
            for l, u in mv:
                sums[l] += u
        for l, u in mv:
            sums[l] -= (hi + 1) * u
        x[i] = 0

    walk(n - 1, bound.numerator * (m // bound.denominator))
    return sorted(out)


def vectors_with_norm(gram, target, center=None):
    """Like short_vectors but keeps only exact norm = target."""
    return short_vectors(gram, target, center, _exact=True)
