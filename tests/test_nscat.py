"""Exact checks for the Neron-Severi lattice machinery.

The Gram matrix derived by the conic intersection engine is checked
against the digest of the matrix formerly shipped as data, and the fiber
decompositions are cross-checked against the height machinery, which
identifies fiber components through power series rather than linear
algebra.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from zerodiag import conics, nscat
from zerodiag.curve import (
    family_model,
    named_sections,
    param_to_point,
    tate_classify,
)
from zerodiag.exactnum import (
    QuadElem,
    field_sqrt,
    matrix_rank,
    nullspace,
    rref,
)
from zerodiag.lattice import det, signature
from zerodiag.mwlat import local_contribution, section_component

GRAM = nscat.ns_lattice()

SECTION_BASIS = {"O": 3, "P": 19, "Q": 15, "T1": 12, "T2": 7}

# sha256 of the canonical JSON of the Gram matrix that used to be shipped
# as data/ns_gram.json, the oracle for the matrix the engine derives
FORMER_GRAM_SHA256 = (
    "2e25939ab142ac86cfc8809fff2d577c95ab98451248756cdc83a23c454438b5")


def unit(i):
    return tuple(1 if j == i - 1 else 0 for j in range(20))


def test_gram_data():
    assert len(GRAM) == 20
    assert all(len(r) == 20 for r in GRAM)
    assert all(GRAM[i][j] == GRAM[j][i] for i in range(20) for j in range(20))
    assert det([list(r) for r in GRAM]) == -48
    assert signature([list(r) for r in GRAM]) == (1, 19, 0)


def test_gram_matches_former_shipped_data():
    obj = {"rank": 20, "gram": [list(r) for r in GRAM]}
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canon).hexdigest() == FORMER_GRAM_SHA256


def test_degree_pairings_match_former_shipped_data():
    assert nscat._degree_pairings() == (
        2, 0, 2, 0, 2, 0, 2, 0, 0, 2, 0, 2, 0, 2, 2, 2, 2, 2, 2, 4)


def test_data_checksum_guard(monkeypatch):
    monkeypatch.setitem(nscat._DATA_CHECKSUMS, "structure_vectors.json",
                        "0" * 64)
    with pytest.raises(RuntimeError, match="checksum"):
        nscat._load_data("structure_vectors.json")


def test_basis_classes_are_unit_vectors():
    # solving the engine's intersection vectors against the Gram matrix
    # must give back the basis
    for i, conic in conics.basis_conics().items():
        assert nscat.class_of_conic(conic) == unit(i)
    for i, point in conics.basis_points().items():
        assert nscat.exceptional_class(point) == unit(i)


def test_conic_engine_values():
    cs = conics.basis_conics()
    assert conics.conic_intersection(cs[14], cs[16]) == 0
    assert conics.conic_intersection(cs[1], cs[19]) == 0
    assert conics.conic_intersection(cs[10], cs[10]) == -2
    assert conics.conic_intersection(cs[3], cs[7]) == 0
    # the two components of the fiber at zero meet twice
    partner = conics.Conic([(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)])
    assert conics.conic_intersection(cs[17], partner) == 2
    # a conic through a double point meets its exceptional curve once
    assert conics.conic_point_intersection(cs[1], conics.basis_points()[2]) == 1
    assert conics.conic_point_intersection(cs[17], conics.basis_points()[2]) == 0


def former_line_zero_points(w0, w1):
    # q2 on span(w0, w1) is a s^2 + b s u + c u^2
    a, c = conics.q2(w0), conics.q2(w1)
    b = conics.q2(tuple(u + v for u, v in zip(w0, w1))) - a - c

    def comb(s, u):
        return tuple(s * x + u * y for x, y in zip(w0, w1))

    if not a:
        if not b:
            return [w0]
        if not c:
            return [w0, w1]
        return [w0, comb(-c, b)]
    disc = b * b - 4 * a * c
    if not disc:
        return [comb(-b, 2 * a)]
    root = field_sqrt(disc)
    if root is None:
        return []
    return [comb(-b + root, 2 * a), comb(-b - root, 2 * a)]


def stacked_conic_intersection(c1, c2):
    # the former engine, kept as the oracle: row-reduce the stacked
    # equations of both planes in all six coordinates
    if c1 == c2:
        return -2
    stacked, _ = rref(list(c1.rows) + list(c2.rows))
    rank = len(stacked)
    assert rank > 3
    if rank == 6:
        return 0
    if rank == 5:
        q = nullspace(stacked)[0]
        if conics.q2(q) != 0:
            return 0
        return 1 - (1 if conics._is_double_point(q) else 0)
    points = former_line_zero_points(*nullspace(stacked))
    return 2 - sum(1 for p in points if conics._is_double_point(p))


def contains_form_by_rref(conic, form):
    # the former test: the form lies in the span of the plane's equations
    return len(rref(list(conic.rows) + [form])[0]) == 3


def test_conic_engine_against_stacked_rref_oracle():
    # every pair the Gram matrix and the classes are built from: each of
    # the 63 conics against the 12 basis conics and the base conic
    fixed = list(conics.basis_conics().values()) + [conics.base_conic()]
    everything = [c for orb in nscat.strict_transform_conics().values()
                  for c in orb]
    values = set()
    for c in everything:
        for f in fixed:
            got = conics.conic_intersection(c, f)
            assert got == stacked_conic_intersection(c, f), (c, f)
            values.add(got)
    assert values == {-2, 0, 1, 2}
    forms = [nscat._fiber_form(fib.place)
             for fib in tate_classify(family_model())]
    assert len(forms) == 6
    inside = 0
    for c in everything:
        for form in forms:
            got = c.contains_form(form)
            assert got == contains_form_by_rref(c, form), (c, form)
            inside += got
    # the base conic lies in every fiber hyperplane, and ten fiber
    # components are conics
    assert inside == 6 + 10


def test_bad_planes_rejected():
    with pytest.raises(ValueError, match="codimension"):
        conics.Conic([(1, 0, 0, 0, 0, 0)])
    # the plane x = y = 0 meets the surface in a curve that is not a conic
    with pytest.raises(ValueError, match="surface"):
        conics.Conic([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])


def cubic_divisible_on_grid(basis):
    # the former check, kept as the oracle: the same linear system on the
    # 63 nonzero points of {0,1,2,3}^3, conclusive because a cubic
    # vanishing on four values per variable vanishes identically
    rows = []
    for s in itertools.product(range(4), repeat=3):
        if any(s):
            p = tuple(s[0] * u + s[1] * v + s[2] * w
                      for u, v, w in zip(*basis))
            q = conics.q2(p)
            rows.append((q * s[0], q * s[1], q * s[2], conics.q3(p)))
    return 3 not in rref(rows)[1]


def test_cubic_nodes_are_unisolvent():
    # no nonzero ternary cubic form vanishes on all of them
    monomials = [e for e in itertools.product(range(4), repeat=3)
                 if sum(e) == 3]
    values = [[s[0] ** e[0] * s[1] ** e[1] * s[2] ** e[2] for e in monomials]
              for s in conics._CUBIC_NODES]
    assert len(monomials) == len(conics._CUBIC_NODES) == 10
    assert matrix_rank(values) == 10


def test_cubic_divisible_against_grid_oracle():
    planes = [c.basis
              for orb in nscat.strict_transform_conics().values()
              for c in orb]
    assert len(planes) == 63
    rng = random.Random(17)

    def coeff():
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return QuadElem(r, rng.randint(-2, 2)) if rng.random() < 0.5 else r

    while len(planes) < 103:
        forms = [[coeff() for _ in range(6)] for _ in range(2)]
        basis = nullspace(forms + [(1, 1, 1, 0, 0, 0)])
        if len(basis) == 3:
            planes.append(basis)
    got = [conics._cubic_divisible(b) for b in planes]
    assert got == [cubic_divisible_on_grid(b) for b in planes]
    assert got[:63] == [True] * 63


def test_conic_orbits():
    orbits = nscat.strict_transform_conics()
    assert {k: len(v) for k, v in orbits.items()} == {0: 9, 2: 36, 4: 18}
    everything = [c for orb in orbits.values() for c in orb]
    assert len(set(everything)) == 63
    for nodes, orb in orbits.items():
        for c in orb:
            assert len(c.double_points_on()) == nodes


def test_conic_orbit_verifies_each_conic_once(monkeypatch):
    cs = conics.basis_conics()
    real = conics._cubic_divisible
    calls = []

    def counted(basis):
        calls.append(basis)
        return real(basis)

    monkeypatch.setattr(conics, "_cubic_divisible", counted)
    for seed, size in ((17, 9), (16, 36), (10, 18)):
        calls.clear()
        assert len(conics.conic_orbit(cs[seed])) == size
        assert len(calls) == size


def test_exceptional_classes():
    classes = {p: nscat.exceptional_class(p) for p in conics.double_points()}
    assert len(classes) == 12
    vals = list(classes.values())
    for i, u in enumerate(vals):
        assert nscat.degree(u) == 0
        for j, v in enumerate(vals):
            assert nscat.pairing(u, v) == (-2 if i == j else 0)


def test_hyperplane_class():
    h = nscat.hyperplane_class()
    assert nscat.pairing(h, h) == 6
    assert nscat.degree(h) == 6
    assert nscat.pairing(h, unit(17)) == 2
    assert nscat.pairing(h, unit(20)) == 4
    for p in conics.double_points():
        assert nscat.pairing(h, nscat.exceptional_class(p)) == 0
    assert nscat.hyperplane_certificate().ok


def test_degree_genus_effectivity():
    e17 = unit(17)
    assert nscat.degree(e17) == 2
    assert nscat.genus(e17) == 0
    fiber = unit(20)
    assert nscat.degree(fiber) == 4
    assert nscat.genus(fiber) == 1
    assert nscat.rr_effective(e17) is True
    assert nscat.rr_effective(tuple(-x for x in e17)) is False
    with pytest.raises(ValueError):
        nscat.rr_effective(fiber)
    with pytest.raises(ValueError, match="even"):
        nscat.enumerate_classes(3, 0)


def test_enumerate_conic_classes():
    classes = nscat.enumerate_classes(2, 0)
    assert len(classes) == 441
    assert len(set(classes)) == 441
    assert classes == sorted(classes)
    for c in classes:
        assert nscat.degree(c) == 2
        assert nscat.pairing(c, c) == -2
    assert unit(17) in set(classes)


def test_enumerate_degree_zero_roots():
    classes = nscat.enumerate_classes(0, 0)
    s = set(classes)
    assert all(nscat.degree(c) == 0 and nscat.pairing(c, c) == -2 for c in s)
    assert all(tuple(-x for x in c) in s for c in s)
    for p in conics.double_points():
        assert nscat.exceptional_class(p) in s


def test_catalogue():
    cat = nscat.catalogue_441()
    assert {k: len(v) for k, v in cat["families"].items()} == {
        0: 9, 2: 144, 4: 288}
    strict = cat["strict_transforms"]
    assert len(strict) == 63
    assert len(set(strict)) == 63
    assert unit(17) in strict
    assert unit(10) in strict
    full = set(cat["all"])
    assert len(full) == 441
    assert full == set(nscat.enumerate_classes(2, 0))
    cert = nscat.count_certificate()
    assert cert.ok
    assert cert.fact("count.total") == 441


def test_degree_identity():
    cert = nscat.degree_identity_certificate()
    assert cert.ok
    assert cert.fact("identity.forms") == 19
    assert cert.fact("identity.matrices_agree") is True


def test_decomposition_certificate():
    cert = nscat.decomposition_certificate()
    assert cert.ok
    assert cert.fact("lattice.disc") == -48
    assert cert.fact("block.e8_1")["roots"] == 240
    assert cert.fact("block.e8_2")["roots"] == 240
    assert cert.fact("block.hyperbolic") == ((0, 1), (1, 0))
    assert cert.fact("sublattice.index") == 1


def test_transcendental_certificate():
    cert = nscat.transcendental_certificate()
    assert cert.ok
    assert cert.fact("candidates.count") == 4
    assert cert.fact("match.opposite_disc_form") == [((2, 0), (0, 24))]
    assert cert.fact("match.attains_1_24") == [((2, 0), (0, 24))]
    assert cert.fact("kummer.condition") is False


def test_fiber_reconstruction():
    decomp = nscat.reconstruct_fiber_classes()
    assert set(decomp) == {"0", "1", "-1", "2", "-2", "inf"}
    cert = nscat.fiber_class_certificate()
    assert cert.ok
    assert cert.fact("fiber.total_components") == 22

    at2 = decomp["2"]
    labels = {label for label, _, _ in at2}
    assert {"basis_13", "basis_14", "basis_16"} <= labels
    assert len(at2) == 4

    for place, central_label in (("1", "basis_10"), ("-1", "basis_5")):
        doubled = [label for label, mult, _ in decomp[place] if mult == 2]
        assert doubled == [central_label]
        assert len(decomp[place]) == 5

    at0 = decomp["0"]
    assert len(at0) == 2
    assert all(mult == 1 for _, mult, _ in at0)
    assert "basis_17" in {label for label, _, _ in at0}


def test_sections_lie_on_their_conics():
    secs = named_sections()
    cs = conics.basis_conics()
    for name, idx in SECTION_BASIS.items():
        par = secs[name]
        for t0 in (Fraction(5), Fraction(-7, 3)):
            assert cs[idx].contains(par.evaluate(t0))


def _cycle_positions(comps, start):
    n = len(comps)
    if n == 2:
        return {start: 0, 1 - start: 1}
    adj = {
        i: [j for j in range(n)
            if j != i and nscat.pairing(comps[i][2], comps[j][2]) == 1]
        for i in range(n)
    }
    assert all(len(v) == 2 for v in adj.values())
    order, prev = [start], None
    while len(order) < n:
        cur = order[-1]
        nxt = next(j for j in adj[cur] if j != prev)
        prev = cur
        order.append(nxt)
    return {comp: k for k, comp in enumerate(order)}


def _geometric_contribution(fib, comps, met_s, met_t, met_zero):
    if fib.kind == "I":
        pos = _cycle_positions(comps, met_zero)
        i, j = sorted((pos[met_s], pos[met_t]))
        return Fraction(i * (fib.n - j), fib.n)
    if met_s == met_zero or met_t == met_zero:
        return Fraction(0)
    if met_s == met_t:
        return Fraction(1)
    return Fraction(1, 2)


def test_contributions_match_height_machinery():
    """The component each section meets, read off from class pairings,
    gives the same local height contributions as the power series
    analysis of the Weierstrass model."""
    decomp = nscat.reconstruct_fiber_classes()
    secs = named_sections()
    points = {name: param_to_point(par) for name, par in secs.items()}
    names = sorted(SECTION_BASIS)

    for fib in tate_classify(family_model()):
        key = "inf" if fib.place == "inf" else str(Fraction(fib.place))
        comps = decomp[key]
        met = {}
        for name in names:
            cls = unit(SECTION_BASIS[name])
            hits = [k for k, (_, _, c) in enumerate(comps)
                    if nscat.pairing(cls, c) == 1]
            assert len(hits) == 1, (key, name, hits)
            met[name] = hits[0]
        refs = {name: section_component(points[name], fib) for name in names}
        for s in names:
            for t in names:
                if s == t:
                    expected = local_contribution(fib, refs[s])
                else:
                    expected = local_contribution(fib, refs[s], refs[t])
                got = _geometric_contribution(
                    fib, comps, met[s], met[t], met["O"])
                assert got == expected, (key, s, t, got, expected)
