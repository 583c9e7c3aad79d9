"""Exact checks for the Neron-Severi lattice machinery.

The Gram matrix derived by the conic intersection engine is checked
against the digest of the matrix formerly shipped as data, and the fiber
decompositions are cross-checked against the height machinery, which
identifies fiber components from orders and leading coefficients at the
place rather than by linear algebra.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest

import zerodiag
from field_oracle import field_rows, matrix_rank, nullspace, rref
from zerodiag import conics, exactnum, nscat
from zerodiag.curve import (
    family_model,
    named_sections,
    param_to_point,
    tate_classify,
)
from zerodiag.exactnum import SQRT3, QuadElem, field_sqrt
from zerodiag.lattice import (
    _ldl,
    det,
    mat_inverse,
    signature,
    vec_dot,
)
from zerodiag.mwlat import local_contribution, section_component
from zerodiag.surface import (
    equation_values,
    g_apply,
    group_elements,
    normalize_projective,
)

GRAM = nscat.ns_lattice()


def mat_vec(mat, vec):
    return [vec_dot(row, vec) for row in mat]

SECTION_BASIS = {"O": 3, "P": 19, "Q": 15, "T1": 12, "T2": 7}

# sha256 of the canonical JSON of the Gram matrix that used to be shipped
# as data/ns_gram.json, the oracle for the matrix the engine derives
FORMER_GRAM_SHA256 = (
    "2e25939ab142ac86cfc8809fff2d577c95ab98451248756cdc83a23c454438b5")


def q2(p):
    return equation_values(p)[1]


def q3(p):
    x, y, z, a, b, c = p
    return x * y * z - 2 * a * b * c


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


def test_wrong_witness_fails_decomposition(monkeypatch, capsys):
    from zerodiag import cli

    # a root of the first E8 block: norm -2, but not orthogonal to it
    monkeypatch.setattr(nscat, "_GLUE_NEG2", unit(1))
    cert = nscat.decomposition_certificate()
    assert cert.fact("block.neg2") == -2
    assert cert.fact("blocks.orthogonal") == [("e8_1", "neg2")]
    # the blocks are dependent, so the direct sum has no index
    assert cert.fact("sublattice.disc") == 0
    assert cert.fact("sublattice.index") is None
    rows = {row[0]: row for row in cli.claims_report("ns").rows}
    assert rows["ns.index"][1:] == ("None", "1", "fail")
    for claim in ("ns.orthogonal", "ns.index",
                  "certificate.lattice.decomposition"):
        assert rows[claim][3] == "fail", claim
    assert cli.main(["verify-all"]) == 1
    capsys.readouterr()


def test_basis_classes_are_unit_vectors():
    # solving the engine's intersection vectors against the Gram matrix
    # must give back the basis
    for i, conic in nscat.basis_conics().items():
        assert nscat.class_of_conic(conic) == unit(i)
    for i, point in nscat.basis_points().items():
        assert nscat.exceptional_class(point) == unit(i)


def test_conic_engine_values():
    cs = nscat.basis_conics()
    assert conics.conic_intersection(cs[14], cs[16]) == 0
    assert conics.conic_intersection(cs[1], cs[19]) == 0
    assert conics.conic_intersection(cs[10], cs[10]) == -2
    assert conics.conic_intersection(cs[3], cs[7]) == 0
    # the two components of the fiber at zero meet twice
    partner = conics.Conic([(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)])
    assert conics.conic_intersection(cs[17], partner) == 2
    # a conic through a double point meets its exceptional curve once
    assert nscat.basis_points()[2] in cs[1].nodes
    assert nscat.basis_points()[2] not in cs[17].nodes


def former_is_double_point(p):
    if any(isinstance(x, QuadElem) for x in p):
        return False
    return normalize_projective(p) in conics.double_points()


def former_line_zero_points(w0, w1):
    # q2 on span(w0, w1) is a s^2 + b s u + c u^2
    a, c = q2(w0), q2(w1)
    b = q2(tuple(u + v for u, v in zip(w0, w1))) - a - c

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
    stacked, _ = rref(list(field_rows(c1)) + list(field_rows(c2)))
    rank = len(stacked)
    assert rank > 3
    if rank == 6:
        return 0
    if rank == 5:
        q = nullspace(stacked)[0]
        if q2(q) != 0:
            return 0
        return 1 - (1 if former_is_double_point(q) else 0)
    points = former_line_zero_points(*nullspace(stacked))
    return 2 - sum(1 for p in points if former_is_double_point(p))


def contains_form_by_rref(conic, form):
    # the former test: the form lies in the span of the plane's equations
    return len(rref(list(field_rows(conic)) + [form])[0]) == 3


# -- the former engine over Q(sqrt 3), kept as the oracle of the integer one

def field_dot(row, p):
    return sum(r * x for r, x in zip(row, p) if r and x)


def field_contains(rows, p):
    return all(field_dot(row, p) == 0 for row in rows) and q2(p) == 0


def field_plane(conic):
    # the rows, the basis over Q(sqrt 3) and the nodes of a conic's plane
    rows = field_rows(conic)
    basis = nullspace(list(rows))
    nodes = {p for p in conics.double_points() if field_contains(rows, p)}
    return rows, basis, nodes


def field_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def field_conic_intersection(plane1, plane2):
    if plane1[0] == plane2[0]:
        return -2
    (_, basis, nodes1), (rows, _, nodes2) = plane1, plane2
    restricted = [[field_dot(row, w) for w in basis] for row in rows]
    shared = len(nodes1 & nodes2)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        s = field_cross(restricted[i], restricted[j])
        if any(s):
            if shared:
                return 0
            meet = tuple(sum(c * w[k] for c, w in zip(s, basis))
                         for k in range(6))
            return 1 if q2(meet) == 0 else 0
    assert any(any(row) for row in restricted)
    return 2 - shared


def field_polar_det(basis):
    def polar(u, v):
        x, y, z, a, b, c = u
        X, Y, Z, A, B, C = v
        return (x * (Y + Z) + y * (X + Z) + z * (X + Y)
                + 2 * (a * A + b * B + c * C))

    (a, b, c), (d, e, f), (g, h, k) = (
        [polar(u, v) for v in basis] for u in basis)
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)


def field_cubic_divisible(basis):
    rows = []
    for s0, s1, s2 in conics._CUBIC_NODES:
        p = tuple(s0 * u + s1 * v + s2 * w for u, v, w in zip(*basis))
        q = q2(p)
        rows.append((q * s0, q * s1, q * s2, q3(p)))
    return 3 not in rref(rows)[1]


def integer_basis(basis):
    # the integer form of a basis over Q(sqrt 3), and the product of the
    # scales of its vectors
    parts = [exactnum._integer_parts(w) for w in basis]
    return (tuple((tuple(x), tuple(y)) for x, y, _ in parts),
            prod(d for _, _, d in parts))


def all_conics():
    return [c for orb in nscat.strict_transform_conics().values()
            for c in orb]


def test_conic_engine_against_stacked_rref_oracle():
    # every pair of the 63 conics, in both orders; the 12 basis conics
    # and the base conic are among them, so this covers every pair the
    # Gram matrix and the classes are built from
    everything = [c for orb in nscat.strict_transform_conics().values()
                  for c in orb]
    fixed = list(nscat.basis_conics().values()) + [nscat.base_conic()]
    assert set(fixed) <= set(everything)
    counts = {}
    for i, c in enumerate(everything):
        for d in everything[i:]:
            got = conics.conic_intersection(c, d)
            assert got == stacked_conic_intersection(c, d), (c, d)
            assert conics.conic_intersection(d, c) == got, (c, d)
            counts[got] = counts.get(got, 0) + 1
    assert len(everything) == 63
    assert counts == {-2: 63, 0: 1107, 1: 738, 2: 108}
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


def test_integer_engine_against_field_engine():
    everything = all_conics()
    planes = {c: field_plane(c) for c in everything}
    for c in everything:
        assert set(c.nodes) == planes[c][2]
        for d in everything:
            assert (conics.conic_intersection(c, d)
                    == field_conic_intersection(planes[c], planes[d])), (c, d)
    forms = [nscat._fiber_form(fib.place)
             for fib in tate_classify(family_model())]
    for c in everything:
        _, basis, _ = planes[c]
        for form in forms:
            assert (c.contains_form(form)
                    == all(field_dot(form, w) == 0 for w in basis))


def test_rref_matches_the_field_oracle():
    # conics.rref gives the integer form of the oracle's field rows, with
    # the same pivots
    rng = random.Random(29)

    def coeff():
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return QuadElem(r, rng.randint(-2, 2)) if rng.random() < 0.5 else r

    def check(forms):
        rows, pivots = rref(forms)
        got = conics.rref([conics._integer_form(f) for f in forms])
        assert got == ([conics._integer_form(row) for row in rows], pivots)
        return got

    # the 76 conics verify-all builds, each from its rows mixed by an
    # invertible matrix over Z[sqrt 3], so that no pivot entry is 1
    built = (list(nscat.basis_conics().values()) + [nscat.base_conic()]
             + all_conics())
    assert len(built) == 76
    for c in built:
        r0, r1, r2 = field_rows(c)
        mixed = [[(1 + SQRT3) * a + b for a, b in zip(r0, r1)],
                 [a + SQRT3 * b for a, b in zip(r0, r2)],
                 [2 * a - b for a, b in zip(r1, r2)]]
        assert check(mixed)[0] == list(c.equations)
    # random planes: two forms over Q(sqrt 3) and x + y + z
    for _ in range(200):
        check([[coeff() for _ in range(6)] for _ in range(2)]
              + [(1, 1, 1, 0, 0, 0)])
    # other shapes, some rank deficient
    for _ in range(100):
        nc = rng.randint(1, 7)
        forms = [[coeff() for _ in range(nc)]
                 for _ in range(rng.randint(1, 5))]
        if len(forms) > 1 and rng.random() < 0.5:
            forms.append([a - SQRT3 * b for a, b in zip(*forms[:2])])
        check(forms)


def test_equivalent_forms_give_equal_conics():
    f, g = nscat._BASIS_CONIC_FORMS[1]
    s = (1, 1, 1, 0, 0, 0)
    conic = conics.Conic([f, g])
    variants = [
        [[2 * x for x in f], g],
        [f, [(1 + SQRT3) * x for x in g]],
        [g, f],
        [f, [x - 3 * y for x, y in zip(g, s)]],
        [[(1 + SQRT3) * (x + SQRT3 * y) for x, y in zip(f, s)], g, s],
    ]
    for forms in variants:
        other = conics.Conic(forms)
        assert other == conic and hash(other) == hash(conic), forms
        assert (other.basis, other.nodes) == (conic.basis, conic.nodes)
    assert conics.Conic(nscat._BASIS_CONIC_FORMS[14]) != conic


def test_integer_form_arithmetic_matches_the_field():
    # q2, q3, linear forms and cross products on Z[sqrt 3] pairs against
    # the same expressions over Q(sqrt 3)
    rng = random.Random(5)

    def element():
        return rng.randint(-9, 9), rng.randint(-9, 9)

    def field(z):
        return QuadElem(*z)

    for _ in range(200):
        u, v = [element() for _ in range(6)], [element() for _ in range(6)]
        p, f = tuple(zip(*u)), tuple(zip(*v))
        fu, fv = [field(z) for z in u], [field(z) for z in v]
        assert field(conics._q2(p)) == q2(fu)
        assert field(conics._q3(p)) == q3(fu)
        assert field(conics._dot(f, p)) == field_dot(fv, fu)
        assert ([field(z) for z in conics._cross(u[:3], v[:3])]
                == list(field_cross(fu[:3], fv[:3])))


def test_integer_engine_makes_no_field_multiplication(monkeypatch):
    everything = all_conics()
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    for cls in (QuadElem, Fraction):
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    # the counter sees products in either field
    assert 2 * QuadElem(0, 1) == QuadElem(0, 2)
    assert {type(args[0]) for args in calls} == {QuadElem, Fraction}
    calls.clear()
    for c in everything:
        for d in everything:
            conics.conic_intersection(c, d)
        assert conics._cubic_divisible(c.basis)
    # building the conics: their planes from forms over Q(sqrt 3), and
    # the orbits with their order
    built = {i: conics.Conic(forms)
             for i, forms in nscat._BASIS_CONIC_FORMS.items()}
    orbits = [conics.conic_orbit(built[seed]) for seed in (17, 16, 10)]
    assert calls == []
    assert built == nscat.basis_conics()
    assert [c for orbit in orbits for c in orbit] == everything


def test_verify_all_row_reduces_once_per_conic():
    # in a fresh interpreter, so that no cache holds a conic already
    script = "\n".join([
        "import contextlib, io",
        "from zerodiag import cli, conics",
        "real, calls = conics.rref, []",
        "def counted(rows):",
        "    calls.append(len(rows[0][0]))",
        "    return real(rows)",
        "conics.rref = counted",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify-all'])",
        "print(code, calls.count(6), calls.count(4), len(calls))"])
    src = os.path.dirname(os.path.dirname(zerodiag.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, planes, cubics, calls = map(int, proc.stdout.split())
    assert code == 0
    # 76 conics built, each reducing its 6-column plane equations and the
    # 4-column system of its on-surface test; the Jacobian ranks come
    # from Smith forms
    assert (planes, cubics, calls) == (76, 76, 76 + 76)


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
            q = q2(p)
            rows.append((q * s[0], q * s[1], q * s[2], q3(p)))
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
    everything = all_conics()
    planes = [nullspace(list(field_rows(c))) for c in everything]
    assert [integer_basis(b)[0] for b in planes] == [
        c.basis for c in everything]
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
    got = [conics._cubic_divisible(integer_basis(b)[0]) for b in planes]
    assert got == [cubic_divisible_on_grid(b) for b in planes]
    assert got == [field_cubic_divisible(b) for b in planes]
    assert got[:63] == [True] * 63
    # the polar determinant of the integer form is the field one times
    # the square of the scales
    for b in planes:
        basis, scale = integer_basis(b)
        det = QuadElem(*conics._polar_det(basis))
        assert det == field_polar_det(b) * scale * scale


def test_conic_orbits():
    orbits = nscat.strict_transform_conics()
    assert {k: len(v) for k, v in orbits.items()} == {0: 9, 2: 36, 4: 18}
    everything = [c for orb in orbits.values() for c in orb]
    assert len(set(everything)) == 63
    for nodes, orb in orbits.items():
        for c in orb:
            assert len(c.nodes) == nodes


def test_conic_reduces_its_plane_once(monkeypatch):
    # one reduction of the 6-column plane equations, then one of the
    # 4-column system of the on-surface test
    real = conics.rref
    widths = []

    def counted(rows):
        widths.append(len(rows[0][0]))
        return real(rows)

    monkeypatch.setattr(conics, "rref", counted)
    conic = conics.Conic([(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    assert widths == [6, 4]
    assert conic == nscat.base_conic()
    assert len(conic.basis) == 3


def test_conic_orbit_verifies_each_conic_once(monkeypatch):
    cs = nscat.basis_conics()
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


def rref_orbit(conic):
    # the former orbit, kept as the oracle: every image plane canonicalised
    # by rref; also the order of the plane's stabilizer
    rows = field_rows(conic)
    images = [tuple(rref([g_apply(g, row) for row in rows])[0])
              for g in group_elements()]
    orbit = sorted((conics.Conic(p) for p in set(images)),
                   key=conics._sort_key)
    return orbit, images.count(rows)


def test_conic_orbit_matches_rref_oracle():
    cs = nscat.basis_conics()
    for seed, size, stabilizer in ((17, 9, 16), (16, 36, 4), (10, 18, 8)):
        orbit = conics.conic_orbit(cs[seed])
        # Conic equality compares the canonical rows, so this is the same
        # orbit in the same order
        assert (orbit, stabilizer) == rref_orbit(cs[seed])
        assert len(orbit) * stabilizer == 144 and len(orbit) == size


def group_matrix(g):
    # the former conics._group_matrix: column j is g applied to e_j
    cols = [g_apply(g, tuple(int(i == j) for i in range(6))) for j in range(6)]
    return tuple(tuple(Fraction(cols[j][i]) for j in range(6))
                 for i in range(6))


def test_conic_orbit_form_map_matches_group_matrix_oracle():
    cs = nscat.basis_conics()
    for k in (1, 14, 15, 16):
        assert any(isinstance(x, QuadElem)
                   for row in field_rows(cs[k]) for x in row)
    rows = [row for c in cs.values() for row in field_rows(c)]
    elements = group_elements()
    assert len(elements) == 144
    for g in elements:
        mat = group_matrix(g)
        for row in rows:
            # the former product row . mat^T, the form moved by g^{-1}
            old = tuple(sum(row[i] * mat[j][i] for i in range(6))
                        for j in range(6))
            assert g_apply(g, row) == old


def test_solve_class_inverts_the_gram_on_the_catalogue():
    classes = nscat.enumerate_classes(2, 0)
    assert len(classes) == 441
    for c in classes:
        assert nscat._solve_class(mat_vec(GRAM, c)) == c


def test_solve_class_raises_outside_the_gram_image():
    # the Fraction solve of G x = e_i by rref is the oracle
    outside = 0
    for i in range(1, nscat.RANK + 1):
        e = unit(i)
        rows, _ = rref([list(GRAM[r]) + [e[r]] for r in range(nscat.RANK)])
        x = [row[-1] for row in rows]
        if all(v.denominator == 1 for v in x):
            assert nscat._solve_class(e) == tuple(int(v) for v in x)
            continue
        outside += 1
        with pytest.raises(ArithmeticError):
            nscat._solve_class(e)
    assert outside > 0


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


def genus(c):
    """Arithmetic genus from adjunction: c.c = 2g - 2."""
    return Fraction(nscat.pairing(c, c), 2) + 1


def test_degree_genus_effectivity():
    e17 = unit(17)
    assert nscat.degree(e17) == 2
    assert genus(e17) == 0
    fiber = unit(20)
    assert nscat.degree(fiber) == 4
    assert genus(fiber) == 1
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


def test_enumerate_degree_four_rational_classes():
    # the largest radius enumerate_classes accepts
    classes = nscat.enumerate_classes(4, 0)
    assert len(classes) == 50616
    assert len(set(classes)) == 50616
    assert classes == sorted(classes)


def test_enumerate_degree_zero_roots():
    classes = nscat.enumerate_classes(0, 0)
    s = set(classes)
    assert all(nscat.degree(c) == 0 and nscat.pairing(c, c) == -2 for c in s)
    assert all(tuple(-x for x in c) in s for c in s)
    for p in conics.double_points():
        assert nscat.exceptional_class(p) in s


def test_conic_point_intersection_reads_nodes():
    conics_63 = [c for orb in nscat.strict_transform_conics().values()
                 for c in orb]
    assert len(conics_63) == 63
    for c in conics_63:
        for p in conics.double_points():
            assert (p in c.nodes) == field_contains(field_rows(c), p)


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


# Oracles for the hyperplane split: the genus equation by inverting the
# kernel form, and 112 k^2 - 168 c.c with m1 eliminated over Fractions.

def kernel_equation_oracle(d, g):
    """(center, radius) of the genus equation from A^-1 b, for the kernel
    form A and b the pairings of the kernel basis with (d/2) e17."""
    m0 = [0] * 20
    m0[nscat._E17] = d // 2
    b = [nscat.pairing(c, m0) for c in nscat._degree_kernel_basis()]
    beta = nscat.pairing(m0, m0) - (2 * g - 2)
    den, adj = mat_inverse(nscat._kernel_form())
    adj_b = mat_vec(adj, b)
    return ([Fraction(-x, den) for x in adj_b],
            beta + Fraction(vec_dot(b, adj_b), den))


def identity_matrix_oracle():
    """112 k^2 - 168 c.c in the variables (m2, ..., m20, k), after
    eliminating m1 = k - sum_{j>=2} w_j m_j / 2 by the degree relation."""
    w = nscat._degree_pairings()
    u = [Fraction(-x, 2) for x in w[1:]] + [Fraction(1)]  # m1
    g = list(GRAM[0][1:]) + [0]  # e1.e_j
    rest = [list(row[1:]) + [0] for row in GRAM[1:]] + [[0] * 20]
    M = [[-168 * (GRAM[0][0] * u[a] * u[b] + u[a] * g[b] + g[a] * u[b]
                  + rest[a][b]) for b in range(20)] for a in range(20)]
    M[-1][-1] += 112
    return M


@pytest.mark.parametrize("d", [-4, -2, 0, 2, 4, 6])
def test_kernel_equation_matches_inverse_oracle(d):
    for g in range(-1, 4):
        assert nscat._kernel_equation(d, g) == kernel_equation_oracle(d, g)


def test_identity_form_evaluates_the_degree_identity():
    M = nscat._identity_form()
    cols = nscat._degree_kernel_basis()
    rng = random.Random(33)
    for _ in range(50):
        z = [rng.randint(-3, 3) for _ in cols]
        k = rng.randint(-4, 4)
        c = [0] * 20
        c[nscat._E17] = k
        for zj, col in zip(z, cols):
            c = [ci + zj * x for ci, x in zip(c, col)]
        x = z + [k]
        value = sum(x[a] * M[a][b] * x[b]
                    for a in range(20) for b in range(20))
        assert value == 112 * k * k - 168 * nscat.pairing(c, c)
        assert nscat.degree(c) == 2 * k


def test_identity_form_and_oracle_have_nineteen_positive_pivots():
    for M in (nscat._identity_form(), identity_matrix_oracle()):
        _, rows = _ldl(M)
        assert len(rows) == 19
        assert all(row[0] > 0 for row in rows)


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


def former_dual_graph_matches(fib, comps):
    # the former check, one branch per Kodaira type, kept as the oracle
    classes = [cls for _, _, cls in comps]
    n = len(classes)
    pair = [[nscat.pairing(classes[i], classes[j]) for j in range(n)]
            for i in range(n)]
    if any(pair[i][i] != -2 for i in range(n)):
        return False
    if fib.kind == "I" and fib.n == 2:
        return n == 2 and pair[0][1] == 2
    if fib.kind == "I":
        for i in range(n):
            offs = [pair[i][j] for j in range(n) if j != i]
            if sorted(offs) != [0] * (n - 3) + [1, 1]:
                return False
        return True
    if fib.kind == "I*" and fib.n == 0:
        central = [i for i, (_, mult, _) in enumerate(comps) if mult == 2]
        if len(central) != 1:
            return False
        c = central[0]
        return all(pair[c][j] == 1 for j in range(n) if j != c) and all(
            pair[i][j] == 0
            for i in range(n) for j in range(n)
            if i != j and i != c and j != c)
    return False


def test_dual_graph_rule_matches_the_former_check_on_the_fibers():
    decomp = nscat.reconstruct_fiber_classes()
    fibers = tate_classify(family_model())
    assert len(fibers) == 6
    for fib in fibers:
        comps = decomp[str(fib.place)]
        assert nscat._dual_graph_matches(fib, comps), fib.symbol
        assert former_dual_graph_matches(fib, comps), fib.symbol
        # multiplicities that are not the fiber: all of them doubled, or
        # a star fiber's 2 moved from its central component to a leaf
        doubled = [(label, 2 * mult, cls) for label, mult, cls in comps]
        assert not nscat._dual_graph_matches(fib, doubled), fib.symbol
        mults = [mult for _, mult, _ in comps]
        moved = [(label, mult, cls) for (label, _, cls), mult
                 in zip(comps, mults[1:] + mults[:1])]
        assert (nscat._dual_graph_matches(fib, moved)
                == (fib.kind == "I")), fib.symbol


def test_dual_graph_rejects_two_disjoint_cycles(monkeypatch):
    # six components, each meeting two others once: a hexagon is the
    # cycle of an I6 fiber, two disjoint triangles are not connected and
    # have a kernel of rank two; the former check took both for I6
    fib = SimpleNamespace(kind="I", n=6)
    comps = [("c%d" % i, 1, unit(i + 1)) for i in range(6)]

    def graph(meets):
        def pairing(u, v):
            i, j = u.index(1), v.index(1)
            return -2 if i == j else int(meets(i, j))
        return pairing

    monkeypatch.setattr(nscat, "pairing", graph(lambda i, j: (i - j) % 6 in (1, 5)))
    assert nscat._dual_graph_matches(fib, comps)
    assert former_dual_graph_matches(fib, comps)
    monkeypatch.setattr(nscat, "pairing", graph(lambda i, j: i // 3 == j // 3))
    assert former_dual_graph_matches(fib, comps)
    assert not nscat._dual_graph_matches(fib, comps)


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
    cs = nscat.basis_conics()
    for name, idx in SECTION_BASIS.items():
        par = secs[name]
        for t0 in (Fraction(5), Fraction(-7, 3)):
            assert field_contains(field_rows(cs[idx]), par.evaluate(t0))


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
                expected = local_contribution(fib, refs[s], refs[t])
                got = _geometric_contribution(
                    fib, comps, met[s], met[t], met["O"])
                assert got == expected, (key, s, t, got, expected)
