"""Acceptance battery.

One test per criterion.  Every numeric claim is asserted bit-exactly
(integers, fractions, polynomial coefficients; no floats anywhere) and
each criterion carries an explicit wall-clock budget so a performance
regression fails loudly instead of rotting quietly.
"""

import itertools
import random
import time
from fractions import Fraction
from math import isqrt

from zerodiag import mwlat, nscat, surface
from zerodiag.curve import (
    euler_number,
    family_model,
    named_sections,
    param_to_point,
    point_to_param,
    shioda_tate_rank,
    tate_classify,
)
from zerodiag.exactnum import Polynomial, RationalFunction, matrix_rank
from zerodiag.lattice import (
    det,
    reduced_binary_even_forms,
    signature,
    vectors_with_norm,
)

T = Polynomial.gen()


class budget:
    """Context manager asserting the body ran within a time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed <= self.seconds, (
                "took %.3fs, budget %.3fs" % (elapsed, self.seconds))
        return False


def fastest(fn, runs=5):
    """Best-of-n wall time for a warm call, with the last return value."""
    best = None
    for _ in range(runs):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def test_c01_eigenvalue_triple_and_parametrized_point():
    surface.integral_eigenvalues(125, 99, 57)  # warm
    dt, triple = fastest(lambda: surface.integral_eigenvalues(125, 99, 57))
    assert triple == (190, -55, -135)
    assert dt < 0.001

    par = surface.low_degree_parametrization()
    par.evaluate_projective(3)  # warm
    dt, pt = fastest(lambda: par.evaluate_projective(3))
    assert pt == (190, -55, -135, 125, 99, 57)
    assert dt < 0.001


def test_c02_search_is_exhaustive_and_fast():
    with budget(30):
        r114 = surface.search(114)
        r125 = surface.search(125)
    assert [t for t, _ in r114] == [(26, 51, 114)]
    assert r114[0][1] == (136, -19, -117)
    assert [t for t, _ in r125] == [(26, 51, 114), (57, 99, 125)]
    assert r125[1][1] == (190, -55, -135)


def test_c03_trivial_integer_parameters():
    with budget(1):
        par = surface.low_degree_parametrization()
        locus = surface.integer_trivial_locus(par)
    assert locus == [-2, -1, 0, 1, 2, 4, 10]


def test_c04_discriminant_and_j_invariant():
    with budget(1):
        model = family_model()
        disc = model.discriminant()
        j = model.j_invariant()
    assert disc == RationalFunction(
        1024 * T ** 2 * (T ** 2 - 1) ** 6 * (T ** 2 - 4) ** 4)
    assert j == RationalFunction(
        4 * (T ** 4 + 56 * T ** 2 + 16) ** 3,
        T ** 2 * (T ** 2 - 4) ** 4)


def test_c05_fiber_classification():
    with budget(1):
        rows = [(str(f.place), f.symbol, f.components, f.simple)
                for f in tate_classify(family_model())]
    assert rows == [
        ("-2", "I4", 4, 4),
        ("-1", "I0*", 5, 4),
        ("0", "I2", 2, 2),
        ("1", "I0*", 5, 4),
        ("2", "I4", 4, 4),
        ("inf", "I2", 2, 2),
    ]


def test_c06_height_pairings():
    secs = named_sections()
    with budget(5):
        P = param_to_point(secs["P"])
        Q = param_to_point(secs["Q"])
        hPP = mwlat.height_pairing(P)
        hQQ = mwlat.height_pairing(Q)
        hPQ = mwlat.height_pairing(P, Q)
        h2P = mwlat.height_pairing(2 * P)
    assert hPP == Fraction(3, 2)
    assert hQQ == Fraction(1, 2)
    assert hPQ == 0
    assert h2P == 6


def test_c07_doubled_section_parametrization():
    # the degree eight image curve of 2P, pinned by its a, b, c components
    expected_a = T * (T ** 6 - 8 * T ** 4 + 20 * T ** 2 - 12)
    expected_b = -T * (T ** 6 - 4 * T ** 4 + 4)
    expected_c = (T ** 2 - 2) * (T ** 6 - 6 * T ** 4 + 8 * T ** 2 - 4)
    with budget(5):
        P = param_to_point(named_sections()["P"])
        par = point_to_param(2 * P)
        assert par.verify()
    assert par.degree() == 8
    a, b, c = par.components()[3:]
    # equal as projective tuples: all cross products agree and a is nonzero
    assert a != Polynomial()
    assert a * expected_b == b * expected_a
    assert a * expected_c == c * expected_a
    assert b * expected_c == c * expected_b


def test_c08_descent_certificate():
    with budget(5):
        sat = mwlat.saturation_certificate()
    assert sat.ok
    assert sat.fact("lattice.scaled_disc") == 12
    assert sat.fact("lattice.scaled_gram") == ((6, 0), (0, 2))
    blocked = sat.fact("halving.sum_blocked_for")
    assert len(blocked) == 4
    assert blocked == ("O", "T1", "T1+T2", "T2")
    assert sat.fact("lattice.index") == 1
    assert sat.fact("lattice.rank") == 2


def test_c09_rank_bookkeeping():
    model = family_model()
    fibers = tate_classify(model)
    dt, rho = fastest(
        lambda: 2 + sum(f.components - 1 for f in fibers) + 2)
    assert dt < 0.001
    assert rho == 20
    excess = sum(f.components - 1 for f in fibers)
    assert (2, excess, 2) == (2, 16, 2)
    assert shioda_tate_rank(model, 2) == 20
    assert euler_number(model) == 24


def test_c10_neron_severi_structure():
    with budget(1):
        dec = nscat.decomposition_certificate()
    assert dec.ok
    assert dec.fact("lattice.disc") == -48
    assert dec.fact("lattice.signature") == (1, 19, 0)
    for key in ("block.e8_1", "block.e8_2"):
        block = dec.fact(key)
        assert block["even"] and block["definite"] and block["unimodular"]
        assert block["roots"] == 240
    assert dec.fact("block.neg2") == -2
    assert dec.fact("block.neg24") == -24
    assert dec.fact("block.hyperbolic") == ((0, 1), (1, 0))
    assert dec.fact("blocks.orthogonal") == "yes"
    assert dec.fact("sublattice.index") == 1


def test_c11_binary_forms_and_transcendental_lattice():
    with budget(1):
        forms = reduced_binary_even_forms(48)
        cert = nscat.transcendental_certificate()
    assert forms == [
        ((2, 0), (0, 24)),
        ((4, 0), (0, 12)),
        ((6, 0), (0, 8)),
        ((8, 4), (4, 8)),
    ]
    assert cert.ok
    assert cert.fact("match.attains_1_24") == [((2, 0), (0, 24))]
    assert cert.fact("match.opposite_disc_form") == [((2, 0), (0, 24))]
    assert cert.fact("kummer.condition") is False


def test_c12_class_enumeration_and_catalogue():
    with budget(60):
        classes = nscat.enumerate_classes(2, 0)
        cat = nscat.catalogue_441()
        orbits = nscat.strict_transform_conics()
    assert len(classes) == 441
    assert len(cat["all"]) == 441
    assert {k: len(v) for k, v in cat["families"].items()} == {
        0: 9, 2: 144, 4: 288}
    assert len(cat["strict_transforms"]) == 63
    assert {k: len(v) for k, v in orbits.items()} == {0: 9, 2: 36, 4: 18}
    assert sorted(cat["all"]) == sorted(classes)


def test_c13_symmetry_action():
    with budget(1):
        group = surface.group_elements()
        points = surface.singular_points()
        orbits = surface.partition_orbits(points)
        ranks = {matrix_rank(surface.jacobian(p)) for p in points}
    assert len(group) == 144
    assert len(points) == 12
    assert [len(o) for o in orbits] == [12]
    assert ranks == {2}


def _naive_box_vectors(gram, bound):
    """All nonzero vectors of norm <= bound, by scanning a safe box.

    For a diagonally dominant Gram matrix the smallest eigenvalue is at
    least the minimal row slack (Gershgorin), so coordinates of vectors
    with Q(x) <= bound lie within isqrt(bound // slack)."""
    n = len(gram)
    slack = min(gram[i][i] - sum(abs(gram[i][j]) for j in range(n) if j != i)
                for i in range(n))
    assert slack >= 1
    radius = isqrt(bound // slack)
    found = {}
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        q = sum(gram[i][j] * x[i] * x[j]
                for i in range(n) for j in range(n))
        if 0 < q <= bound or (q == 0 and any(x)):
            found.setdefault(q, set()).add(x)
    return found


def _random_unimodular(rng, n, ops=15):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            k = rng.choice((-2, -1, 1, 2))
            u[j] = [u[j][c] + k * u[i][c] for c in range(n)]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


def test_c14_property_suites():
    with budget(60):
        # group law associativity on a pool of sections and sums
        secs = named_sections()
        O = param_to_point(secs["O"])
        P = param_to_point(secs["P"])
        Q = param_to_point(secs["Q"])
        T1 = param_to_point(secs["T1"])
        T2 = param_to_point(secs["T2"])
        pool = [O, P, Q, T1, T2, P + Q]
        rng = random.Random(20260816)
        for _ in range(20):
            A, B, C = (rng.choice(pool) for _ in range(3))
            assert (A + B) + C == A + (B + C)

        # bilinearity and torsion degeneracy of the height pairing
        hPP = mwlat.height_pairing(P)
        hQQ = mwlat.height_pairing(Q)
        hPQ = mwlat.height_pairing(P, Q)
        assert mwlat.height_pairing(P + Q, P) == hPP + hPQ
        assert mwlat.height_pairing(2 * P, Q) == 2 * hPQ
        assert mwlat.height_pairing(P + Q) == hPP + 2 * hPQ + hQQ
        assert mwlat.height_pairing(P + T1) == hPP
        assert mwlat.height_pairing(P + T2, Q) == hPQ

        # vector enumeration against an independent box scan
        grams = [
            [[2]],
            [[2, -1], [-1, 2]],
            [[3, -1, 0], [-1, 3, -1], [0, -1, 3]],
            [[4, 1, 1, 1], [1, 4, 1, 1], [1, 1, 4, 1], [1, 1, 1, 4]],
        ]
        for gram in grams:
            expected = _naive_box_vectors(gram, 20)
            for norm in range(1, 21):
                reps = vectors_with_norm(gram, norm)
                full = set(map(tuple, reps))
                full |= {tuple(-x for x in v) for v in full}
                assert len(full) == 2 * len(reps)
                assert full == expected.get(norm, set())

        # determinant and signature are congruence invariants
        G = [list(row) for row in nscat.ns_lattice()]
        n = len(G)
        rng = random.Random(441)
        for _ in range(3):
            U = _random_unimodular(rng, n)
            GU = [[sum(G[r][c] * U[c][j] for c in range(n))
                   for j in range(n)] for r in range(n)]
            H = [[sum(U[i][r] * GU[i][j] for i in range(n))
                  for j in range(n)] for r in range(n)]
            assert det(H) == -48
            assert signature(H) == (1, 19, 0)


def test_multiples_give_distinct_verified_parametrizations():
    with budget(60):
        P = param_to_point(named_sections()["P"])
        params = []
        for n in range(1, 6):
            par = point_to_param(n * P)
            assert par.verify()
            params.append(par)
    degrees = [par.degree() for par in params]
    assert degrees == [2, 8, 20, 38, 62]  # 3n^2 - 3n + 2
    seen = [par.components() for par in params]
    for i in range(5):
        for j in range(i + 1, 5):
            assert seen[i] != seen[j]
