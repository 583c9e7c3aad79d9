"""The Neron-Severi lattice of the resolved surface.

The twenty basis classes are: twelve plane conics (among them the five
sections of the fibration), seven exceptional curves over double points,
and the fiber class.  Their Gram matrix is certified here in three
independent ways:

  * every pairing is computed by the conic intersection engine (see
    conics) from both sides, and the two are cross-checked by symmetry;
  * the lattice decomposes as E8(-1) + E8(-1) + <-2> + <-24> + U after a
    change of basis by the shipped structure vectors, which pins the
    discriminant to -48 and the embedding index to 1;
  * 112 k^2 - 168 c.c, for classes c of degree 2k, is a weighted sum of
    nineteen squares, derived here from its LDL^T decomposition rather
    than shipped, which bounds class enumeration.

Classes are plain 20-tuples of integers in the fixed basis.  Enumeration
of classes with given degree and arithmetic genus reduces, via the
integral kernel of the degree form, to a definite quadratic equation
solved by lattice point search.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from functools import lru_cache

from . import conics
from .curve import family_model, tate_classify
from .lattice import (
    DiscriminantGroup,
    _fp_coefficients,
    det,
    gram_pairing,
    is_positive_definite,
    kummer_condition,
    mat_inverse,
    mat_vec,
    reduced_binary_even_forms,
    signature,
    vec_dot,
    vectors_with_norm,
)
from .mwlat import Certificate

RANK = 20
_FIBER = 20  # basis index of the fiber class
# enumeration radius of the classes of degree 4 and genus 0, the largest
# enumerate_classes accepts; it yields 50616 classes
_MAX_RADIUS = Fraction(14, 3)

_DATA_CHECKSUMS = {
    "structure_vectors.json":
        "7881f8bd2b2139b4a5b4c56409cc500aa5b744130dc063fefd1ce59e421b7923",
}


def _load_data(name):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, "rb") as f:
        obj = json.load(f)
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(canon).hexdigest()
    if digest != _DATA_CHECKSUMS[name]:
        raise RuntimeError("data file %s fails checksum (%s)" % (name, digest))
    return obj


@lru_cache(maxsize=1)
def ns_lattice():
    """Gram matrix of the twenty basis classes, rows as tuples: the
    intersection vectors of the nineteen basis curves, then the fiber
    row read off their fiber column, with F.F = 0."""
    cs, pts = conics.basis_conics(), conics.basis_points()
    rows = [conics.intersection_vector(("conic", cs[i]) if i in cs
                                       else ("point", pts[i]))
            for i in range(1, RANK)]
    rows.append([row[_FIBER - 1] for row in rows] + [0])
    gram = tuple(tuple(row) for row in rows)
    if any(gram[i][j] != gram[j][i] for i in range(RANK) for j in range(RANK)):
        raise RuntimeError("gram matrix is not symmetric")
    if det(gram) != -48:
        raise RuntimeError("gram matrix has wrong discriminant")
    return gram


@lru_cache(maxsize=1)
def _structure():
    obj = _load_data("structure_vectors.json")
    return {
        "e8_blocks": tuple(tuple(b) for b in obj["e8_blocks"]),
        "glue_neg2": tuple(obj["glue_neg2"]),
        "glue_neg24": tuple(obj["glue_neg24"]),
        "hyperbolic_pair": tuple(tuple(v) for v in obj["hyperbolic_pair"]),
    }


@lru_cache(maxsize=1)
def _degree_pairings():
    """Pairings of the basis with the hyperplane class H = F + C0, for
    the base conic C0 of the pencil."""
    c0 = conics.intersection_vector(("conic", conics.base_conic()))
    return tuple(f + c for f, c in zip(ns_lattice()[_FIBER - 1], c0))


@lru_cache(maxsize=1)
def _gram_inverse():
    return mat_inverse([list(r) for r in ns_lattice()])


def pairing(u, v) -> int:
    return gram_pairing(ns_lattice(), u, v)


def degree(c) -> int:
    """Degree of a class against the hyperplane section."""
    w = _degree_pairings()
    return sum(wi * ci for wi, ci in zip(w, c))


def genus(c) -> Fraction:
    """Arithmetic genus from adjunction: c.c = 2g - 2."""
    return Fraction(pairing(c, c), 2) + 1


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
    return tuple(1 if j == i - 1 else 0 for j in range(RANK))


# -- classes of curves ----------------------------------------------------------


@lru_cache(maxsize=128)
def class_of_conic(conic) -> tuple:
    """Class of the strict transform of a plane conic on the surface."""
    vec = conics.intersection_vector(("conic", conic))
    return _solve_class(vec)


def exceptional_class(point) -> tuple:
    """Class of the exceptional curve over a double point."""
    from .surface import normalize_projective

    p = normalize_projective(point)
    if p not in conics.double_points():
        raise ValueError("not a double point: %r" % (point,))
    vec = conics.intersection_vector(("point", p))
    return _solve_class(vec)


def _solve_class(vec):
    m = mat_vec(_gram_inverse(), [Fraction(x) for x in vec])
    out = []
    for x in m:
        if x.denominator != 1:
            raise ArithmeticError(
                "intersection vector %r is not integral in the basis" % (vec,))
        out.append(int(x))
    return tuple(out)


@lru_cache(maxsize=1)
def strict_transform_conics():
    """All 63 plane conics on the surface, as three symmetry orbits keyed
    by the number of double points on each conic."""
    cs = conics.basis_conics()
    orbits = {
        0: conics.conic_orbit(cs[17]),
        2: conics.conic_orbit(cs[16]),
        4: conics.conic_orbit(cs[10]),
    }
    sizes = {0: 9, 2: 36, 4: 18}
    for nodes, orb in orbits.items():
        if len(orb) != sizes[nodes]:
            raise RuntimeError("orbit of %d-node conics has size %d"
                               % (nodes, len(orb)))
        for c in orb:
            if len(c.double_points_on()) != nodes:
                raise RuntimeError("conic has wrong node count")
    return orbits


@lru_cache(maxsize=1)
def _conic_labels():
    labels = {}
    for i, c in conics.basis_conics().items():
        labels[c] = "basis_%d" % i
    for nodes, orb in strict_transform_conics().items():
        for k, c in enumerate(orb):
            labels.setdefault(c, "conic_%dn_%d" % (nodes, k))
    return labels


def _point_label(p):
    pts = conics.basis_points()
    for i, q in pts.items():
        if q == p:
            return "basis_%d" % i
    return "node(%s)" % ",".join(str(x) for x in p)


@lru_cache(maxsize=1)
def _exceptional_classes():
    return {p: exceptional_class(p) for p in conics.double_points()}


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
    for j in range(1, RANK + 1):
        if j == 17:
            continue
        v = [0] * RANK
        v[j - 1] = 1
        v[16] = -(w[j - 1] // 2)
        cols.append(tuple(v))
    for c in cols:
        if sum(wi * ci for wi, ci in zip(w, c)) != 0:
            raise AssertionError("kernel basis vector has nonzero degree")
    return tuple(cols)


@lru_cache(maxsize=1)
def _kernel_form():
    """The negative of the Gram matrix on the degree kernel; positive
    definite by the index theorem."""
    G = ns_lattice()
    cols = _degree_kernel_basis()
    gv = [mat_vec([list(r) for r in G], list(c)) for c in cols]
    A = [[-vec_dot(list(cols[i]), gv[j]) for j in range(len(cols))]
         for i in range(len(cols))]
    if not is_positive_definite(A):
        raise RuntimeError("degree kernel is not negative definite")
    return tuple(tuple(int(x) for x in row) for row in A)


def enumerate_classes(d: int, g: int):
    """All integral classes of degree d and arithmetic genus g.

    Every class of degree d differs from (d/2) e17 by an element of the
    degree kernel, so the genus condition becomes a definite quadratic
    equation there, solved exactly.  Returns a sorted list of 20-tuples.
    Raises ValueError, before enumerating, when the radius of that
    equation exceeds _MAX_RADIUS.
    """
    if d % 2:
        raise ValueError("degree must be even")
    G = [list(r) for r in ns_lattice()]
    cols = _degree_kernel_basis()
    A = [list(r) for r in _kernel_form()]

    m0 = [0] * RANK
    m0[16] = d // 2
    gm0 = mat_vec(G, m0)
    b = [vec_dot(list(c), gm0) for c in cols]
    beta = vec_dot(m0, gm0) - (2 * g - 2)
    c0 = mat_vec(mat_inverse(A), b)
    radius = beta + vec_dot(c0, mat_vec(A, c0))
    if radius > _MAX_RADIUS:
        raise ValueError("enumeration radius %s for degree %d and genus %d "
                         "exceeds %s, that of degree 4 and genus 0"
                         % (radius, d, g, _MAX_RADIUS))
    if radius < 0:
        return []

    out = []
    for z in vectors_with_norm(A, radius, center=[-x for x in c0]):
        c = list(m0)
        for zi, col in zip(z, cols):
            for i in range(RANK):
                c[i] += zi * col[i]
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
    records the three families, the 63 strict transforms themselves, and
    the full set; it is checked against the lattice enumeration.
    """
    from itertools import combinations

    exc = _exceptional_classes()
    families = {}
    strict = []
    everything = set()
    for nodes, orb in sorted(strict_transform_conics().items()):
        fam = []
        for conic in orb:
            base = class_of_conic(conic)
            strict.append(base)
            pts = conic.double_points_on()
            for r in range(len(pts) + 1):
                for subset in combinations(pts, r):
                    cls = list(base)
                    for p in subset:
                        e = exc[p]
                        for i in range(RANK):
                            cls[i] += e[i]
                    fam.append(tuple(cls))
        families[nodes] = sorted(fam)
        everything.update(fam)
    if sorted(len(f) for f in families.values()) != [9, 144, 288]:
        raise RuntimeError("family sizes are off: %r"
                           % {k: len(v) for k, v in families.items()})
    if len(everything) != 441:
        raise RuntimeError("catalogue classes are not distinct")
    for cls in everything:
        if degree(cls) != 2 or pairing(cls, cls) != -2:
            raise RuntimeError("catalogue class fails degree or genus")
    if set(enumerate_classes(2, 0)) != everything:
        raise RuntimeError("catalogue disagrees with lattice enumeration")
    return {
        "families": families,
        "strict_transforms": sorted(strict),
        "all": sorted(everything),
    }


# -- fibers of the pencil -------------------------------------------------------


def _fiber_form(place):
    if place == "inf":
        return (0, 0, 0, 1, 0, 0)
    return (1, 0, 0, -Fraction(place), 0, 0)


def reconstruct_fiber_classes():
    """Components of the six reducible fibers with multiplicities and
    classes: a map from place label to tuples (label, mult, class).

    Conic components are the catalogued conics whose plane lies in the
    fiber hyperplane; exceptional components sit over the double points
    in the fiber.  The only multiplicity above one is the central
    component of a star fiber.  Component classes are forced by the
    geometry, so no choices are made here; the companion certificate
    checks each decomposition sums to the fiber class.
    """
    labels = _conic_labels()
    exc = _exceptional_classes()
    out = {}
    for fib in tate_classify(family_model()):
        place = fib.place
        key = str(place)
        form = _fiber_form(place)
        comps = []
        base = conics.base_conic()
        for nodes, orb in sorted(strict_transform_conics().items()):
            for conic in orb:
                # the base conic of the pencil lies in every member of
                # the pencil of hyperplanes but in no fiber
                if conic == base:
                    continue
                if conic.contains_form(form):
                    mult = 2 if fib.kind == "I*" else 1
                    comps.append((labels[conic], mult, class_of_conic(conic)))
        for p in conics.double_points():
            if vec_dot(form, p) == 0:
                comps.append((_point_label(p), 1, exc[p]))
        if fib.kind == "I*":
            central = [c for c in comps if c[1] == 2]
            if len(central) != 1:
                raise RuntimeError("star fiber at %s has %d central "
                                   "components" % (key, len(central)))
        out[key] = tuple(sorted(comps))
    return out


def fiber_class_certificate() -> Certificate:
    """Each reducible fiber decomposes into catalogued components whose
    weighted class sum is the fiber class, with the dual graph forced by
    the pairings."""
    decomp = reconstruct_fiber_classes()
    fiber_cls = _unit(_FIBER)
    facts = []
    ok = True
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
        ok = ok and closes
        count_ok = len(comps) == fib.components
        ok = ok and count_ok
        graph_ok = _dual_graph_matches(fib, comps)
        ok = ok and graph_ok
        facts.append(("fiber.%s" % key,
                      {"symbol": fib.symbol,
                       "components": len(comps),
                       "sums_to_fiber_class": closes,
                       "dual_graph": graph_ok}))
    facts.append(("fiber.total_components", total_components))
    ok = ok and total_components == 22
    return Certificate("fiber.decompositions", facts, ok=ok)


def _dual_graph_matches(fib, comps) -> bool:
    classes = [cls for _, _, cls in comps]
    n = len(classes)
    pair = [[pairing(classes[i], classes[j]) for j in range(n)]
            for i in range(n)]
    if any(pair[i][i] != -2 for i in range(n)):
        return False
    if fib.kind == "I" and fib.n == 2:
        return n == 2 and pair[0][1] == 2
    if fib.kind == "I":
        # a single cycle: every component meets exactly two others once
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


# -- structure certificates -------------------------------------------------------


def _submatrix(G, idx):
    return [[G[i - 1][j - 1] for j in idx] for i in idx]


def decomposition_certificate() -> Certificate:
    """Change of basis splitting the lattice as E8(-1) + E8(-1) + <-2> +
    <-24> + U, with the embedding of the direct sum having index one."""
    G = [list(r) for r in ns_lattice()]
    st = _structure()
    disc, sig = det(G), signature(G)
    facts = [("lattice.disc", disc), ("lattice.signature", sig)]
    ok = disc == -48 and sig == (1, 19, 0)

    for which, idx in enumerate(st["e8_blocks"]):
        B = _submatrix(G, idx)
        neg = [[-x for x in row] for row in B]
        even = all(B[i][i] % 2 == 0 for i in range(8))
        posdef = is_positive_definite(neg)
        unimod = det(neg) == 1
        roots = len(vectors_with_norm(neg, 2)) * 2  # counted with sign
        block_ok = even and posdef and unimod and roots == 240
        ok = ok and block_ok
        facts.append(("block.e8_%d" % (which + 1),
                      {"even": even, "definite": posdef,
                       "unimodular": unimod, "roots": roots}))

    c1, c2 = st["glue_neg2"], st["glue_neg24"]
    c3, c4 = st["hyperbolic_pair"]
    n1 = pairing(c1, c1)
    n2 = pairing(c2, c2)
    ugram = ((pairing(c3, c3), pairing(c3, c4)),
             (pairing(c3, c4), pairing(c4, c4)))
    ok = ok and n1 == -2 and n2 == -24 and ugram == ((0, 1), (1, 0))
    facts.append(("block.neg2", n1))
    facts.append(("block.neg24", n2))
    facts.append(("block.hyperbolic", ugram))

    # cross-block orthogonality, naming any offending pair
    groups = [("e8_1", [_unit(i) for i in st["e8_blocks"][0]]),
              ("e8_2", [_unit(i) for i in st["e8_blocks"][1]]),
              ("neg2", [c1]), ("neg24", [c2]), ("hyperbolic", [c3, c4])]
    offenders = []
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            for u in groups[gi][1]:
                for v in groups[gj][1]:
                    if pairing(u, v) != 0:
                        offenders.append((groups[gi][0], groups[gj][0]))
    ok = ok and not offenders
    facts.append(("blocks.orthogonal", "yes" if not offenders
                  else sorted(set(offenders))))

    # index of the direct sum: discriminants already match, so it is one
    stack = [list(v) for _, vs in groups for v in vs]
    sub = [[gram_pairing(G, u, v) for v in stack] for u in stack]
    subdisc = det(sub)
    index_sq = Fraction(subdisc, det(G))
    ok = ok and index_sq == 1
    facts.append(("sublattice.disc", subdisc))
    facts.append(("sublattice.index", 1 if index_sq == 1 else index_sq))
    return Certificate("lattice.decomposition", facts, ok=ok)


def hyperplane_certificate() -> Certificate:
    h = hyperplane_class()
    facts = [("hyperplane.class", h),
             ("hyperplane.self_intersection", pairing(h, h)),
             ("hyperplane.degree", degree(h)),
             ("hyperplane.fiber_degree", pairing(h, _unit(_FIBER))),
             ("hyperplane.basis17_degree", pairing(h, _unit(17)))]
    ok = (pairing(h, h) == 6 and degree(h) == 6
          and pairing(h, _unit(_FIBER)) == 4
          and pairing(h, _unit(17)) == 2)
    return Certificate("lattice.hyperplane", facts, ok=ok)


def transcendental_certificate() -> Certificate:
    """The transcendental lattice is the unique reduced candidate whose
    discriminant form opposes the one computed here, and it fails the
    evenness-after-halving test a Kummer surface would pass."""
    forms = reduced_binary_even_forms(48)
    expected = [((2, 0), (0, 24)), ((4, 0), (0, 12)),
                ((6, 0), (0, 8)), ((8, 4), (4, 8))]
    facts = [("candidates.count", len(forms)),
             ("candidates.forms", forms)]
    ok = forms == sorted(expected)

    ns_q = DiscriminantGroup([list(r) for r in ns_lattice()]).all_q_values()
    target = sorted((-q) % 2 for q in ns_q)
    matches = []
    attains = []
    for f in forms:
        dg = DiscriminantGroup([list(f[0]), list(f[1])])
        vals = dg.all_q_values()
        if sorted(vals) == target:
            matches.append(f)
        if Fraction(1, 24) in vals:
            attains.append(f)
    ok = ok and matches == [((2, 0), (0, 24))]
    ok = ok and attains == [((2, 0), (0, 24))]
    facts.append(("match.opposite_disc_form", matches))
    facts.append(("match.attains_1_24", attains))

    kum = kummer_condition(((2, 0), (0, 24)))
    facts.append(("kummer.condition", kum))
    ok = ok and kum is False
    return Certificate("lattice.transcendental", facts, imported=(), ok=ok)


# -- the degree identity ----------------------------------------------------------


def _lhs_matrix():
    """Symmetric matrix of 112 k^2 - 168 c.c after eliminating m1, in the
    variables (m2, ..., m20, k).

    The degree relation 2k = deg(c) gives m1 = k - sum_{j>=2} w_j m_j / 2
    (w_1 = 2); substituting it into the Gram form leaves a quadratic form
    in the other coordinates and k.  Stated per class of genus g,
    112(3 - 3g + k^2) = 112 k^2 - 168 c.c.  In this variable order the
    LDL^T of the form has nineteen positive pivots and a final zero.
    """
    w = _degree_pairings()
    G = ns_lattice()
    u = [Fraction(-x, 2) for x in w[1:]] + [Fraction(1)]  # m1
    g = list(G[0][1:]) + [0]  # e1.e_j
    rest = [list(row[1:]) + [0] for row in G[1:]] + [[0] * RANK]
    M = [[-168 * (G[0][0] * u[a] * u[b] + u[a] * g[b] + g[a] * u[b]
                  + rest[a][b]) for b in range(RANK)] for a in range(RANK)]
    M[-1][-1] += 112
    return M


def degree_identity_certificate() -> Certificate:
    """Exact verification of the sum-of-squares identity backing the
    class enumeration: the LDL^T decomposition of 112 k^2 - 168 c.c is
    multiplied back out as a weighted sum of squares of linear forms and
    compared with the form, and all weights are positive."""
    lhs = _lhs_matrix()
    n = len(lhs)
    q = _fp_coefficients(lhs)
    squares = [(q[i][i], [Fraction(0)] * i + [Fraction(1)] + q[i][i + 1:])
               for i in range(n) if q[i][i]]
    rhs = [[sum(wt * f[a] * f[b] for wt, f in squares if f[a] and f[b])
            for b in range(n)] for a in range(n)]
    agree = lhs == rhs
    positive = all(wt > 0 for wt, _ in squares)
    facts = [("identity.forms", len(squares)),
             ("identity.matrices_agree", agree),
             ("identity.weights_positive", positive)]
    return Certificate("degree.identity", facts, ok=agree and positive)


def count_certificate() -> Certificate:
    """The lattice holds exactly 441 classes of degree 2 and genus 0,
    realized by the 63 conics with their node subsets."""
    cat = catalogue_441()
    sizes = {k: len(v) for k, v in cat["families"].items()}
    facts = [("count.total", len(cat["all"])),
             ("count.families", sizes),
             ("count.strict_transforms", len(cat["strict_transforms"]))]
    ok = (len(cat["all"]) == 441 and sizes == {0: 9, 2: 144, 4: 288}
          and len(cat["strict_transforms"]) == 63)
    return Certificate("count.441", facts, ok=ok)
