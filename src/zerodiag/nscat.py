"""The Neron-Severi lattice of the resolved surface.

The twenty basis classes are numbered here, and only here: twelve plane
conics (among them the five sections of the fibration), seven exceptional
curves over double points, and the fiber class F, label 20.  F = H - [C0]
for the fixed conic C0 cut out by x = a = 0, so F.C = 2 - C.C0 for any
conic, C0 itself included, and F meets no exceptional curve.  The Gram
matrix of the basis is certified here in three independent ways:

  * every pairing is computed by the conic intersection engine (see
    conics) from both sides, and the two are cross-checked by symmetry;
  * the lattice decomposes as E8(-1) + E8(-1) + <-2> + <-24> + U after a
    change of basis by witness vectors written out below and checked in
    full, which pins the discriminant to -48 and the embedding index to 1;
  * 112 k^2 - 168 c.c, for classes c of degree 2k, is a weighted sum of
    nineteen squares, derived here from its LDL^T decomposition rather
    than shipped, which bounds class enumeration.  This is the Hodge-index
    split NS (x) Q = QH + H^perp with H.H = 6: a class of degree d is
    c = (d / H.H) H + y with y.H = 0, so c.c = d^2 / H.H + y.y, and y.y
    is negative definite on H^perp.

Classes are plain 20-tuples of integers in the fixed basis.  Enumeration
of classes with given degree and arithmetic genus reads the split in the
integral kernel of the degree form, where it is a definite quadratic
equation solved by lattice point search.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, lcm, prod

from . import conics
from .curve import INFINITE_PLACE, family_model, tate_classify
from .lattice import (
    DiscriminantGroup,
    _ldl,
    det,
    is_positive_definite,
    kummer_condition,
    reduced_binary_even_forms,
    signature,
    vec_dot,
    vectors_with_norm,
)
from .exactnum import SQRT3, Certificate
from .surface import normalize_projective, singular_points

RANK = 20
# Positions in a class tuple are 0-based; the basis labels, the keys of
# basis_conics() and basis_points(), are 1-based, so e17 sits at 16.
_FIBER = 19  # the fiber class, last in the basis
# the degree-2 conic e17, along which classes of given degree lift from the
# degree kernel, and the other nineteen positions
_E17 = 16
_FREE = tuple(j for j in range(RANK) if j != _E17)
# enumeration radius of the classes of degree 4 and genus 0, the largest
# enumerate_classes accepts; it yields 50616 classes in under 2 s.
# A larger radius is not yet cheap: (6, 1), radius 6, yields 427,808
# classes in about 12 s and 200 MB.
_MAX_RADIUS = Fraction(14, 3)

# Witnesses of the splitting E8(-1) + E8(-1) + <-2> + <-24> + U: the two E8
# blocks are the basis classes e1-e8 and e9-e16, and the four vectors below
# span the rest.  decomposition_certificate checks all of them in full:
# norms, the hyperbolic Gram, orthogonality across blocks and index one.
_E8_BLOCKS = (tuple(range(8)), tuple(range(8, 16)))
_GLUE_NEG2 = (0, 0, 0, -1, -2, -2, -2, -1, 1, 2, 3, 4, 4, 2, 0, 2, 1, -2,
              0, 0)
_GLUE_NEG24 = (6, 12, 26, 29, 32, 19, 6, 16, 9, 18, 27, 36, 34, 23, 12, 17,
               7, -3, -8, 4)
_HYPERBOLIC_PAIR = (
    (1, 2, 4, 4, 4, 2, 0, 2, 2, 4, 6, 8, 8, 5, 2, 4, 2, -1, -1, 0),
    (1, 2, 4, 5, 6, 4, 2, 3, 1, 2, 3, 4, 4, 3, 2, 2, 0, 0, -1, 1),
)


# -- the named basis --------------------------------------------------------------

# linear forms as coefficient rows on (x, y, z, a, b, c)
_BASIS_CONIC_FORMS = {
    1: [(1, 0, 0, 2, 0, 0), (0, -SQRT3, SQRT3, 0, 2, 2)],
    3: [(0, 0, 0, 1, 1, 0), (0, -1, 0, 0, 0, 1)],
    5: [(1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, -1)],
    7: [(0, 0, 0, 1, 0, 1), (0, 0, -1, 0, 1, 0)],
    10: [(1, 0, 0, -1, 0, 0), (0, 0, 0, 0, 1, 1)],
    12: [(0, 0, 0, 1, -1, 0), (0, 1, 0, 0, 0, 1)],
    14: [(1, 0, 0, -2, 0, 0), (0, -SQRT3, SQRT3, 0, 2, -2)],
    15: [(0, 0, 1, 0, -2, 0), (SQRT3, -SQRT3, 0, -2, 0, 2)],
    16: [(1, 0, 0, -2, 0, 0), (0, SQRT3, -SQRT3, 0, 2, -2)],
    17: [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)],
    18: [(0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0)],
    19: [(0, 0, 0, 1, 0, -1), (0, 1, 0, 0, 1, 0)],
}

# double points in normalize_projective form, each standing for the
# exceptional curve over it
_BASIS_POINTS = {
    2: (-2, 1, 1, 1, -1, 1),
    4: (1, 1, -2, -1, 1, 1),
    6: (1, -2, 1, -1, 1, 1),
    8: (-1, 2, -1, 1, 1, 1),
    9: (1, -2, 1, 1, -1, 1),
    11: (-1, -1, 2, -1, -1, 1),
    13: (2, -1, -1, 1, 1, 1),
}


# the seed of each orbit of conics, by the number of its nodes
_SEEDS = {0: 17, 2: 16, 4: 10}


@lru_cache(maxsize=1)
def _seed_conics():
    """The three orbit seeds, each verified from its forms."""
    return {i: conics.Conic(_BASIS_CONIC_FORMS[i]) for i in _SEEDS.values()}


@lru_cache(maxsize=1)
def basis_conics():
    """The twelve basis conics.  The seeds are verified from their forms;
    each other one is the catalogued conic in the plane its forms cut
    out, verified along its orbit, since equal canonical planes are equal
    conics, nodes included."""
    seeds = _seed_conics()
    by_plane = {c.equations: c
                for orb in strict_transform_conics().values() for c in orb}
    out = {}
    for i, forms in _BASIS_CONIC_FORMS.items():
        out[i] = seeds[i] if i in seeds else by_plane.get(
            conics.plane_equations(forms))
        if out[i] is None:
            raise ValueError("basis conic %d is not a catalogued conic" % i)
    return out


@lru_cache(maxsize=1)
def basis_points():
    for p in _BASIS_POINTS.values():
        if p not in singular_points():
            raise AssertionError("basis point is not a double point: %r" % (p,))
    return _BASIS_POINTS


@lru_cache(maxsize=1)
def _basis_curves():
    """The nineteen basis curves by label: the conics, and the double
    points standing for the exceptional curves over them."""
    return {**basis_conics(), **basis_points()}


@lru_cache(maxsize=1)
def base_conic():
    """The fixed conic x = a = 0 split off from the hyperplane class by
    the fibration; F = H - [this]."""
    return conics.Conic([(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])


def _meet(x, y):
    """Intersection number of two curves on the resolved surface, each a
    Conic for its strict transform or a normalized double point for the
    exceptional curve over it.  Two conics meet as conic_intersection
    says; a conic meets the exceptional curve over a double point once if
    the point is one of its nodes, else not; two exceptional curves are
    disjoint, and each has self-intersection -2."""
    if isinstance(x, conics.Conic) and isinstance(y, conics.Conic):
        return conics.conic_intersection(x, y)
    if isinstance(x, conics.Conic) or isinstance(y, conics.Conic):
        conic, point = (x, y) if isinstance(x, conics.Conic) else (y, x)
        return 1 if point in conic.nodes else 0
    return -2 if x == y else 0


def _pairings(curve):
    """Pairings of a curve, as _meet takes it, with the twenty basis
    classes.  The last is F.curve = H.curve - C0.curve, where the
    hyperplane section H meets a conic twice and an exceptional curve
    not at all."""
    curves = _basis_curves()
    h = 2 if isinstance(curve, conics.Conic) else 0
    return [_meet(curve, curves[i]) for i in range(1, RANK)] + [
        h - _meet(curve, base_conic())]


@lru_cache(maxsize=1)
def ns_lattice():
    """Gram matrix of the twenty basis classes, rows as tuples: the
    pairings of the nineteen basis curves, then the fiber row read off
    their fiber column, with F.F = 0."""
    rows = [_pairings(_basis_curves()[i]) for i in range(1, RANK)]
    rows.append([row[_FIBER] for row in rows] + [0])
    gram = tuple(tuple(row) for row in rows)
    if any(gram[i][j] != gram[j][i] for i in range(RANK) for j in range(RANK)):
        raise RuntimeError("gram matrix is not symmetric")
    return gram


@lru_cache(maxsize=1)
def _degree_pairings():
    """Pairings of the basis with the hyperplane class H = F + C0, for
    the base conic C0 of the pencil."""
    c0 = _pairings(base_conic())
    return tuple(f + c for f, c in zip(ns_lattice()[_FIBER], c0))


@lru_cache(maxsize=1)
def _discriminant_group():
    """NS*/NS with its form; its inverse (d, adj), G^-1 = adj / d and
    d = det G, is the one inverse of G that solving for classes and the
    transcendental candidates both read."""
    return DiscriminantGroup(ns_lattice())


@lru_cache(maxsize=1)
def _gram_entries():
    """The nonzero entries (i, j, G_ij) of the Gram matrix, 71 of 400."""
    return tuple((i, j, g) for i, row in enumerate(ns_lattice())
                 for j, g in enumerate(row) if g)


def pairing(u, v) -> int:
    return sum(g * u[i] * v[j] for i, j, g in _gram_entries())


def _gram_of(vs, pair=None):
    """The matrix [[pair(u, v) for v in vs] for u in vs] of a symmetric
    pair, pairing unless given, each entry computed once and mirrored."""
    pair = pair or pairing
    n = len(vs)
    gram = [[0] * n for _ in range(n)]
    for i, u in enumerate(vs):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = pair(u, vs[j])
    return gram


def degree(c) -> int:
    """Degree of a class against the hyperplane section."""
    w = _degree_pairings()
    return sum(wi * ci for wi, ci in zip(w, c))


def hyperplane_class():
    """The hyperplane section as an integral class.

    Solves G h = w for the degree pairing vector w; integrality of the
    solution is part of the claim.
    """
    return _solve_class(_degree_pairings())


def rr_effective(c) -> bool:
    """Riemann-Roch effectivity test for a (-2)-class.

    On a K3 surface a class with c.c = -2 has either c or -c effective;
    positive degree against the hyperplane section picks c.  Classes of
    degree zero are contracted by the hyperplane (the exceptional ones)
    and are not decided by this test.
    """
    if pairing(c, c) != -2:
        raise ValueError("effectivity test requires self-intersection -2")
    return degree(c) > 0


def _unit(i):
    return tuple(int(j == i) for j in range(RANK))


# -- classes of curves ----------------------------------------------------------


@lru_cache(maxsize=128)
def class_of(curve) -> tuple:
    """Class of a curve on the resolved surface: the strict transform of a
    Conic, or the exceptional curve over a double point, given as a tuple.
    The point is normalized first, and refused with ValueError if it is
    not a double point.  A basis curve's class is its unit vector, any
    other solves G c = its pairings."""
    if not isinstance(curve, conics.Conic):
        p = normalize_projective(curve)
        if p not in singular_points():
            raise ValueError("not a double point: %r" % (curve,))
        curve = p
    for i, c in _basis_curves().items():
        if c == curve:
            return _unit(i - 1)
    return _solve_class(_pairings(curve))


def _solve_class(vec):
    """The class c with G c = vec, by one exact division of adj vec by d."""
    d, adj = _discriminant_group().inverse
    out = []
    for row in adj:
        q, r = divmod(vec_dot(row, vec), d)
        if r:
            raise ArithmeticError(
                "intersection vector %r is not integral in the basis" % (vec,))
        out.append(q)
    return tuple(out)


@lru_cache(maxsize=1)
def strict_transform_conics():
    """All 63 plane conics on the surface, as three symmetry orbits keyed
    by the number of double points on each conic."""
    seeds = _seed_conics()
    orbits = {nodes: conics.conic_orbit(seeds[i])
              for nodes, i in _SEEDS.items()}
    for nodes, orb in orbits.items():
        for c in orb:
            if len(c.nodes) != nodes:
                raise RuntimeError("conic has wrong node count")
    return orbits


@lru_cache(maxsize=1)
def _labels():
    """The label of each of the 63 conics and 12 double points: basis_<i>
    for a basis curve, else conic_<nodes>n_<place in its orbit> or
    node(<coordinates>)."""
    labels = {c: "basis_%d" % i for i, c in _basis_curves().items()}
    for nodes, orb in strict_transform_conics().items():
        for k, c in enumerate(orb):
            labels.setdefault(c, "conic_%dn_%d" % (nodes, k))
    for p in singular_points():
        labels.setdefault(p, "node(%s)" % ",".join(map(str, p)))
    return labels


# -- enumeration of classes -----------------------------------------------------


@lru_cache(maxsize=1)
def _degree_kernel_basis():
    """Integral basis of the rank-19 kernel of the degree form.

    Each kernel vector reads off one free coordinate, so the map is a
    bijection onto the kernel: basis vectors of degree zero are kept
    as they are, the remaining ones are corrected by the degree-2 class
    e17 (and twice it for the degree-4 fiber class).
    """
    w = _degree_pairings()
    cols = []
    for j in _FREE:
        v = [0] * RANK
        v[j] = 1
        v[_E17] = -(w[j] // 2)
        cols.append(tuple(v))
    if any(degree(c) for c in cols):
        raise AssertionError("kernel basis vector has nonzero degree")
    return tuple(cols)


@lru_cache(maxsize=1)
def _kernel_form():
    """The negative of the Gram matrix on the degree kernel; positive
    definite by the index theorem."""
    cols = _degree_kernel_basis()
    A = tuple(tuple(-x for x in row) for row in _gram_of(cols))
    if not is_positive_definite(A):
        raise RuntimeError("degree kernel is not negative definite")
    return A


def _kernel_equation(d: int, g: int):
    """(center, radius) of the genus equation: the degree-d class
    c = (d/2) e17 + sum_k z_k col_k has genus g iff Q(z + center) = radius,
    Q the kernel form and col_k the kernel basis.

    By the split c = c* + y with c* = s H, s = d / H.H, and y in the
    degree kernel over Q, c.c = s d - Q(y).  The coordinates of y are z less the
    free coordinates of c*, since col_k has coordinate 1 at the k-th free
    index and 0 at the others."""
    h = hyperplane_class()
    s = Fraction(d, pairing(h, h))
    return [-s * h[j] for j in _FREE], s * d - (2 * g - 2)


def enumerate_classes(d: int, g: int):
    """All integral classes of degree d and arithmetic genus g.

    Every class of degree d differs from (d/2) e17 by an element of the
    degree kernel, so the genus condition becomes a definite quadratic
    equation there, solved exactly.  Returns a sorted list of 20-tuples.
    Raises TypeError when d or g is not an int, and ValueError, before
    enumerating, when d is odd or the radius of that equation exceeds
    _MAX_RADIUS.
    """
    for name, v in (("degree", d), ("genus", g)):
        if not isinstance(v, int):
            raise TypeError("%s must be an int, got %r" % (name, v))
    if d % 2:
        raise ValueError("degree must be even")
    center, radius = _kernel_equation(d, g)
    if radius > _MAX_RADIUS:
        raise ValueError("enumeration radius %s for degree %d and genus %d "
                         "exceeds %s, that of degree 4 and genus 0"
                         % (radius, d, g, _MAX_RADIUS))
    if radius < 0:
        return []

    # column k of the kernel basis is e_j - (w_j // 2) e17 for the k-th
    # free index j, so z lifts coordinate by coordinate
    cols = _degree_kernel_basis()
    out = []
    for z in vectors_with_norm(_kernel_form(), radius, center=center):
        c = [0] * RANK
        c[_E17] = d // 2
        for zi, col, j in zip(z, cols, _FREE):
            c[j] = zi
            c[_E17] += zi * col[_E17]
        if degree(c) != d or pairing(c, c) != 2 * g - 2:
            raise AssertionError("enumerated class fails its defining "
                                 "equations: %r" % (c,))
        out.append(tuple(c))
    return sorted(out)


def catalogue_441():
    """The 441 classes of degree 2 and genus 0, built from geometry.

    Every such class is the strict transform of one of the 63 plane
    conics plus an arbitrary subset of the exceptional curves over the
    double points on that conic: 9*1 + 36*4 + 18*16 = 441.  The result
    records the three families, the 63 strict transforms themselves, the
    full set, and whether that set is the one enumerate_classes(2, 0)
    finds in the lattice.
    """
    families = {}
    strict = []
    everything = set()
    for nodes, orb in sorted(strict_transform_conics().items()):
        fam = []
        for conic in orb:
            base = class_of(conic)
            strict.append(base)
            pts = conic.nodes
            for r in range(len(pts) + 1):
                for subset in combinations(pts, r):
                    cls = list(base)
                    for p in subset:
                        e = class_of(p)
                        for i in range(RANK):
                            cls[i] += e[i]
                    fam.append(tuple(cls))
        families[nodes] = sorted(fam)
        everything.update(fam)
    return {
        "families": families,
        "strict_transforms": sorted(strict),
        "all": sorted(everything),
        "matches_enumeration": set(enumerate_classes(2, 0)) == everything,
    }


# -- fibers of the pencil -------------------------------------------------------


def _fiber_form(place):
    if place == INFINITE_PLACE:
        return (0, 0, 0, 1, 0, 0)
    return (1, 0, 0, -Fraction(place), 0, 0)


def reconstruct_fiber_classes():
    """Components of the six reducible fibers with multiplicities and
    classes: a map from place label to tuples (label, mult, class).

    Conic components are the catalogued conics whose plane lies in the
    fiber hyperplane; exceptional components sit over the double points
    in the fiber; a star fiber's conic components get multiplicity two.
    Component classes are forced by the geometry, so no choices are made
    here; the companion certificate checks that each decomposition sums
    to the fiber class and has the dual graph of its Kodaira type (for a
    star fiber, one central component of multiplicity two).
    """
    labels = _labels()
    out = {}
    for fib in tate_classify(family_model()):
        place = fib.place
        form = _fiber_form(place)
        comps = []
        base = base_conic()
        for nodes, orb in sorted(strict_transform_conics().items()):
            for conic in orb:
                # the base conic of the pencil lies in every member of
                # the pencil of hyperplanes but in no fiber
                if conic == base:
                    continue
                if conic.contains_form(form):
                    mult = 2 if fib.kind == "I*" else 1
                    comps.append((labels[conic], mult, class_of(conic)))
        for p in singular_points():
            if vec_dot(form, p) == 0:
                comps.append((labels[p], 1, class_of(p)))
        out[str(place)] = tuple(sorted(comps))
    return out


def fiber_class_certificate() -> Certificate:
    """Each reducible fiber decomposes into catalogued components whose
    weighted class sum is the fiber class, with the dual graph forced by
    the pairings.  ok checks both and the component count of each fiber."""
    decomp = reconstruct_fiber_classes()
    fiber_cls = _unit(_FIBER)
    facts = []
    closed = counted = True
    total_components = 0
    for fib in tate_classify(family_model()):
        key = str(fib.place)
        comps = decomp[key]
        total_components += len(comps)
        sums = [0] * RANK
        for _, mult, cls in comps:
            for i in range(RANK):
                sums[i] += mult * cls[i]
        closes = tuple(sums) == fiber_cls
        graph_ok = _dual_graph_matches(fib, comps)
        closed = closed and closes and graph_ok
        counted = counted and len(comps) == fib.components
        facts.append(("fiber.%s" % key,
                      {"symbol": fib.symbol,
                       "components": len(comps),
                       "sums_to_fiber_class": closes,
                       "dual_graph": graph_ok}))
    facts.append(("fiber.total_components", total_components))
    facts.append(("fiber.all_closed", closed))
    return Certificate("fiber.decompositions", facts, ok=closed and counted)


def _dual_graph_matches(fib, comps) -> bool:
    """Whether the components, with multiplicities, have the dual graph of
    the fiber's Kodaira type.

    By Zariski's lemma the pairings of the components of a fiber are
    negative semidefinite with kernel spanned by the fiber.  Curves of
    self-pairing -2 that meet nonnegatively, with such pairings and a
    kernel vector of positive multiplicities, are an affine Dynkin
    diagram, connected because a finite-type part would carry no kernel
    vector; the multiplicities are its null vector and tell its type, so
    sorted they must be the fiber's, fib.multiplicities (Kodaira's table).
    """
    classes = [cls for _, _, cls in comps]
    mult = [m for _, m, _ in comps]
    n = len(classes)
    pair = _gram_of(classes)
    return (all(pair[i][i] == -2 for i in range(n))
            and all(x >= 0 for i, row in enumerate(pair)
                    for j, x in enumerate(row) if i != j)
            and tuple(sorted(mult)) == fib.multiplicities
            and signature(pair) == (0, n - 1, 1)
            and not any(vec_dot(row, mult) for row in pair))


# -- structure certificates -------------------------------------------------------


def decomposition_certificate() -> Certificate:
    """Facts of the splitting by the witness vectors: the discriminant and
    signature of the lattice, the Gram data of each block, orthogonality
    across blocks and the index of their direct sum, all read off one
    Gram matrix of the stacked blocks.  ok checks that both E8 blocks are
    even, definite and unimodular."""
    G = [list(r) for r in ns_lattice()]
    disc, sig = det(G), signature(G)
    facts = [("lattice.disc", disc), ("lattice.signature", sig)]

    # the blocks stacked in order, 8 + 8 + 1 + 1 + 2 vectors; at[name] is
    # the range of the stack that a block occupies
    groups = [("e8_1", [_unit(i) for i in _E8_BLOCKS[0]]),
              ("e8_2", [_unit(i) for i in _E8_BLOCKS[1]]),
              ("neg2", [_GLUE_NEG2]), ("neg24", [_GLUE_NEG24]),
              ("hyperbolic", _HYPERBOLIC_PAIR)]
    stack, at = [], {}
    for name, vs in groups:
        at[name] = range(len(stack), len(stack) + len(vs))
        stack += vs
    sub = _gram_of(stack)
    block = {name: [[sub[i][j] for j in r] for i in r]
             for name, r in at.items()}

    ok = True
    for name in ("e8_1", "e8_2"):
        neg = [[-x for x in row] for row in block[name]]
        even = all(neg[i][i] % 2 == 0 for i in range(len(neg)))
        posdef = is_positive_definite(neg)
        unimod = det(neg) == 1
        roots = len(vectors_with_norm(neg, 2)) * 2  # counted with sign
        ok = ok and even and posdef and unimod
        facts.append(("block." + name,
                      {"even": even, "definite": posdef,
                       "unimodular": unimod, "roots": roots}))
    facts.append(("block.neg2", block["neg2"][0][0]))
    facts.append(("block.neg24", block["neg24"][0][0]))
    facts.append(("block.hyperbolic",
                  tuple(tuple(row) for row in block["hyperbolic"])))

    # cross-block orthogonality, naming any offending pair of blocks
    offenders = sorted((a, b) for a, b in combinations(at, 2)
                       if any(sub[i][j] for i in at[a] for j in at[b]))
    facts.append(("blocks.orthogonal", offenders or "yes"))

    # the squared index of the direct sum is the quotient of discriminants;
    # the index is None unless that is a positive integer square (zero
    # when the blocks are dependent, as with a broken witness)
    subdisc = det(sub)
    index_sq = Fraction(subdisc, disc)
    root = isqrt(max(index_sq.numerator, 0))
    index = root if root and root * root == index_sq else None
    facts.append(("sublattice.disc", subdisc))
    facts.append(("sublattice.index", index))
    return Certificate("lattice.decomposition", facts, ok=ok)


def hyperplane_certificate() -> Certificate:
    h = hyperplane_class()
    fiber_degree = pairing(h, _unit(_FIBER))
    basis17_degree = pairing(h, _unit(_E17))
    facts = [("hyperplane.class", h),
             ("hyperplane.self_intersection", pairing(h, h)),
             ("hyperplane.degree", degree(h)),
             ("hyperplane.fiber_degree", fiber_degree),
             ("hyperplane.basis17_degree", basis17_degree)]
    return Certificate("lattice.hyperplane", facts,
                       ok=fiber_degree == 4 and basis17_degree == 2)


# The reduced positive even binary forms of determinant 48, and the value
# of a discriminant form that the fact match.attains_1_24 looks for.
_DET48_FORMS = [((2, 0), (0, 24)), ((4, 0), (0, 12)), ((6, 0), (0, 8)),
                ((8, 4), (4, 8))]
_ATTAINED_Q = Fraction(1, 24)


def transcendental_certificate() -> Certificate:
    """Facts that single out the transcendental lattice among the reduced
    even forms whose determinant is |NS*/NS|, the order of the discriminant
    group computed here: the candidates whose discriminant form opposes
    the one of NS, those attaining _ATTAINED_Q, and whether the opposing
    one, when unique, passes the evenness-after-halving test a Kummer
    surface would pass.  ok checks the list of candidates."""
    ns = _discriminant_group()
    forms = reduced_binary_even_forms(prod(ns.orders))
    facts = [("candidates.count", len(forms)),
             ("candidates.forms", forms)]

    target = sorted((-q) % 2 for q in ns.all_q_values())
    matches = []
    attains = []
    for f in forms:
        dg = DiscriminantGroup([list(f[0]), list(f[1])])
        vals = dg.all_q_values()
        if sorted(vals) == target:
            matches.append(f)
        if _ATTAINED_Q in vals:
            attains.append(f)
    facts.append(("match.opposite_disc_form", matches))
    facts.append(("match.attains_1_24", attains))
    facts.append(("kummer.condition", kummer_condition(matches[0])
                  if len(matches) == 1 else None))
    return Certificate("lattice.transcendental", facts,
                       ok=forms == _DET48_FORMS)


# -- the degree identity ----------------------------------------------------------


def _identity_form():
    """Integer matrix of 112 k^2 - 168 c.c in the coordinates (z, k) of
    c = k e17 + sum_j z_j col_j, col_j the kernel basis: the kernel form
    A bordered as [[168 A, -168 b], [-168 b^T, 112 - 168 e17.e17]], with
    b_j = col_j.e17.

    Stated per class of genus g, 112(3 - 3g + k^2) = 112 k^2 - 168 c.c.
    By the split c = (k/3) H + y, y in the degree kernel over Q, it is
    168 Q(y), Q the kernel form, so its LDL^T has nineteen positive
    pivots and a final zero.
    """
    e17 = _unit(_E17)
    b = [pairing(col, e17) for col in _degree_kernel_basis()]
    M = [[168 * a for a in row] + [-168 * bj]
         for row, bj in zip(_kernel_form(), b)]
    M.append([-168 * bj for bj in b] + [112 - 168 * pairing(e17, e17)])
    return M


def degree_identity_certificate() -> Certificate:
    """The sum-of-squares identity backing the class enumeration: the
    fraction-free LDL^T of 112 k^2 - 168 c.c, sum_k (U_k . x)^2 /
    (d_{k-1} d_k) from lattice._ldl, is multiplied back out and compared
    with the form, in integers: m times the form against the sum of
    (m / (d_{k-1} d_k)) U_k U_k^T, m the lcm of the d_{k-1} d_k.  ok
    checks that all weights are positive."""
    lhs = _identity_form()
    n = len(lhs)
    _, rows = _ldl(lhs)
    minors = [1] + [row[0] for row in rows]
    dens = [minors[k] * minors[k + 1] for k in range(len(rows))]
    m = lcm(*dens)
    squares = [(m // den, [0] * k + rows[k]) for k, den in enumerate(dens)]
    rhs = _gram_of(range(n), lambda a, b: sum(
        wt * f[a] * f[b] for wt, f in squares if f[a] and f[b]))
    agree = [[m * x for x in row] for row in lhs] == rhs
    positive = all(den > 0 for den in dens)
    facts = [("identity.forms", len(squares)),
             ("identity.matrices_agree", agree),
             ("identity.weights_positive", positive)]
    return Certificate("degree.identity", facts, ok=positive)


def count_certificate() -> Certificate:
    """The number of classes of degree 2 and genus 0, by family of conics
    with their node subsets, and the number of conics.  ok checks that the
    classes built from the conics are those the lattice enumeration finds."""
    cat = catalogue_441()
    return Certificate("count.441", [
        ("count.total", len(cat["all"])),
        ("count.families", {k: len(v) for k, v in cat["families"].items()}),
        ("count.strict_transforms", len(cat["strict_transforms"])),
        ("count.matches_enumeration", cat["matches_enumeration"])],
        ok=cat["matches_enumeration"])
