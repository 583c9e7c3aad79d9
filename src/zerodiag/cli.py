"""Command line interface.

Every subcommand prints one table in the selected format; numbers are
rendered exactly (integers, fractions, polynomials), never as floats,
and row order is fixed, so output is byte-identical across runs.
Check-style tables carry claim/computed/expected/status columns; the
exit status is 0 when everything passed, 1 when a check failed and 2
for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from fractions import Fraction

from . import mwlat, nscat, surface
from .curve import (
    euler_number,
    family_model,
    named_sections,
    param_to_point,
    point_to_param,
    tate_classify,
)
from .exactnum import Certificate, Polynomial, RationalFunction
from .lattice import (
    FORMS_MAX_DET,
    kummer_condition,
    reduced_binary_even_forms,
    smith_normal_form,
)

CHECK_COLUMNS = ("claim", "computed", "expected", "status")

# largest |n| that mult accepts; four runs each on a 2-core host, Python
# 3.11: mult --n +-16 takes 0.9-1.5 s, and mult --emit-param 1.7-2.2 s at
# n = -8 and 0.9-1.3 s at n = 8
MULT_MAX = 16
MULT_PARAM_MAX = 8


class Report:
    """One table: column names, rows of strings, count of failed checks."""

    def __init__(self, columns, rows, failed=0):
        self.columns = tuple(columns)
        self.rows = [tuple(str(x) for x in row) for row in rows]
        self.failed = failed


def _render(value) -> str:
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return str(value)


def _emit(report: Report, fmt: str, out) -> None:
    if fmt == "json":
        payload = {
            "columns": list(report.columns),
            "rows": [list(r) for r in report.rows],
            "failed": report.failed,
        }
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow(row)
        return
    widths = [len(c) for c in report.columns]
    for row in report.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out.write(line(report.columns) + "\n")
    out.write(line(["-" * w for w in widths]) + "\n")
    for row in report.rows:
        out.write(line(row) + "\n")
    if report.columns == CHECK_COLUMNS:
        checks = [r for r in report.rows if r[-1] in ("pass", "fail")]
        out.write("%d checks, %d failed\n" % (len(checks), report.failed))


# -- subcommands -------------------------------------------------------------


def cmd_search(args) -> Report:
    try:
        found = surface.search(args.max)
    except ValueError as e:
        raise UsageError(str(e))
    rows = [(a, b, c, e1, e2, e3) for (a, b, c), (e1, e2, e3) in found]
    return Report(("a", "b", "c", "eig1", "eig2", "eig3"), rows)


def cmd_param(args) -> Report:
    par = surface.low_degree_parametrization()
    if args.at is not None:
        if "e" in args.at.lower():
            # Fraction would expand an exponent like 1e100000000 in full
            raise UsageError("--at takes no exponent, got %r" % args.at)
        try:
            t0 = Fraction(args.at)
        except (ValueError, ZeroDivisionError):
            raise UsageError("--at must be a rational number, got %r"
                             % args.at)
        pt = par.evaluate_projective(t0)
        rows = [
            ("t", str(t0)),
            ("point", "[" + " : ".join(str(v) for v in pt) + "]"),
            ("triple", _render(pt[3:])),
            ("eigenvalues", _render(pt[:3])),
        ]
        return Report(("field", "value"), rows)
    rows = [(name, str(comp))
            for name, comp in zip("xyzabc", par.components())]
    rows.append(("degree", str(par.degree())))
    rows.append(("trivial integer parameters",
                 " ".join(str(v) for v in surface.integer_trivial_locus(par))))
    return Report(("field", "value"), rows)


def cmd_mult(args) -> Report:
    limit = MULT_PARAM_MAX if args.emit_param else MULT_MAX
    if abs(args.n) > limit:
        raise UsageError("|--n| must be at most %d%s, got %d"
                         % (limit, " with --emit-param" if args.emit_param
                            else "", args.n))
    secs = named_sections()
    if args.section not in secs:
        raise UsageError("unknown section %r; choose from %s"
                         % (args.section, ", ".join(sorted(secs))))
    pt = param_to_point(secs[args.section])
    npt = args.n * pt
    rows = [("n", str(args.n)), ("section", args.section)]
    if npt.is_infinity:
        rows.append(("result", "point at infinity"))
        return Report(("field", "value"), rows)
    rows.append(("u", str(npt.u)))
    rows.append(("v", str(npt.v)))
    if args.emit_param:
        par = point_to_param(npt)
        for name, comp in zip("xyzabc", par.components()):
            rows.append((name, str(comp)))
        rows.append(("degree", str(par.degree())))
    return Report(("field", "value"), rows)


def _fiber_rows():
    return tuple((str(f.place), f.symbol, f.components, f.simple)
                 for f in tate_classify(family_model()))


def cmd_fibers(_args) -> Report:
    return Report(("place", "type", "components", "simple"), _fiber_rows())


def cmd_height(args) -> Report:
    names = [n.strip() for n in args.sections.split(",") if n.strip()]
    secs = named_sections()
    if not names or len(set(names)) < len(names) or not secs.keys() >= set(names):
        raise UsageError("--sections takes distinct names from %s, got %r"
                         % (", ".join(sorted(secs)), args.sections))
    points = [param_to_point(secs[n]) for n in names]
    gram = mwlat.height_gram(points)
    rows = [(names[i],) + tuple(str(v) for v in gram[i])
            for i in range(len(names))]
    return Report(("section",) + tuple(names), rows)


def cmd_lattice_forms(args) -> Report:
    try:
        forms = reduced_binary_even_forms(args.det)
    except ValueError as e:
        raise UsageError(str(e))
    annotate = args.det == 48
    if annotate:
        cert = nscat.transcendental_certificate()
        matches = set(cert.fact("match.opposite_disc_form"))
        attains = set(cert.fact("match.attains_1_24"))
    rows = []
    for f in forms:
        (a, b), (_, c) = f
        row = ["[[%d, %d], [%d, %d]]" % (a, b, b, c)]
        if annotate:
            row.append("yes" if f in attains else "no")
            row.append("yes" if f in matches else "no")
            row.append("yes" if kummer_condition(f) else "no")
        rows.append(tuple(row))
    columns = ("gram",)
    if annotate:
        columns = ("gram", "attains 1/24", "opposite of surface lattice",
                   "twice an even form")
    return Report(columns, rows)


def cmd_count_classes(args) -> Report:
    try:
        classes = nscat.enumerate_classes(args.degree, args.genus)
    except ValueError as e:
        raise UsageError(str(e))
    rows = [("degree", str(args.degree)), ("genus", str(args.genus)),
            ("count", str(len(classes)))]
    if args.list:
        for i, c in enumerate(classes):
            rows.append(("class %d" % i, " ".join(str(x) for x in c)))
    return Report(("field", "value"), rows)


def cmd_catalogue(args) -> Report:
    cat = nscat.catalogue_441()
    matches = cat["matches_enumeration"]
    rows = [
        ("conics without double points", str(len(cat["families"][0]))),
        ("conics through two, with node subsets", str(len(cat["families"][2]))),
        ("conics through four, with node subsets", str(len(cat["families"][4]))),
        ("strict transforms", str(len(cat["strict_transforms"]))),
        ("total", str(len(cat["all"]))),
        ("matches lattice enumeration", "yes" if matches else "no"),
    ]
    return Report(("family", "size"), rows, failed=0 if matches else 1)


def cmd_checks(args) -> Report:
    """descent, ns verify and orbits: the claims tagged with the command."""
    return claims_report(args.command)


# -- the claims registry -----------------------------------------------------

# The certificates the claims read, by short name.  Each is looked up in its
# module when a run first needs it, so a test can substitute one.
_CERTS = {
    "sat": (mwlat, "saturation_certificate"),
    "tor": (mwlat, "torsion_certificate"),
    "rank": (mwlat, "rank_formula_certificate"),
    "dec": (nscat, "decomposition_certificate"),
    "hyp": (nscat, "hyperplane_certificate"),
    "ident": (nscat, "degree_identity_certificate"),
    "fib": (nscat, "fiber_class_certificate"),
    "tra": (nscat, "transcendental_certificate"),
    "count": (nscat, "count_certificate"),
}


class _Run:
    """One evaluation of the claims.  `built` keeps every value fetched
    through `get`, each certificate among them, in the order they were
    built, so each is built once.  `failed` keeps the exception of each
    build that raised, so each claim that needs it fails with that
    exception, and nothing is built again."""

    def __init__(self):
        self.built, self.failed = {}, {}

    def get(self, fn):
        if fn in self.failed:
            raise self.failed[fn]
        if fn not in self.built:
            try:
                self.built[fn] = fn()
            except Exception as e:
                self.failed[fn] = e
                raise
        return self.built[fn]

    def cert(self, name):
        module, attr = _CERTS[name]
        return self.get(getattr(module, attr))


def _fact(cert, key, part=None):
    """compute(run) of a claim read from a certificate: the fact `key`, or
    the entry `part` of that fact.  Its tag `source` = (cert, key, part)
    lets the certificate's own row judge the claim too."""
    def compute(run):
        value = run.cert(cert).fact(key)
        return value if part is None else value[part]
    compute.source = (cert, key, part)
    return compute


def _certified(cert):
    """compute(run) of a certificate row: True when the certificate's own
    checks hold and so does every claim read from it, printed or not."""
    def compute(run):
        return run.cert(cert).ok and all(
            fn(run) == expected for _, _, fn, expected in CLAIMS
            if getattr(fn, "source", (None,))[0] == cert)
    return compute


def _point(name):
    return param_to_point(named_sections()[name])


def _orbits():
    return surface.partition_orbits(surface.singular_points())


_T = Polynomial.gen()

# Every claim once, in the order verify-all prints them: (claim id, the
# check command that also prints it or None, compute(run), expected).  The
# claims of `ns verify` carry the tag "ns".  A claim read from a certificate
# computes through _fact, and the certificate's row, made by _certified,
# fails when any of them fails.
CLAIMS = (
    ("eig.125_99_57", None,
     lambda r: surface.integral_eigenvalues(125, 99, 57), (190, -55, -135)),
    ("eig.param_at_3", None,
     lambda r: r.get(surface.low_degree_parametrization)
     .evaluate_projective(3), (190, -55, -135, 125, 99, 57)),
    ("search.114", None, lambda r: surface.search(114),
     [((26, 51, 114), (136, -19, -117))]),
    ("locus.trivial_integers", None, lambda r: surface.integer_trivial_locus(
        r.get(surface.low_degree_parametrization)), [-2, -1, 0, 1, 2, 4, 10]),
    ("curve.discriminant", None,
     lambda r: family_model().discriminant() == RationalFunction(
         1024 * _T ** 2 * (_T ** 2 - 1) ** 6 * (_T ** 2 - 4) ** 4), True),
    ("curve.j", None,
     lambda r: family_model().j_invariant() == RationalFunction(
         4 * (_T ** 4 + 56 * _T ** 2 + 16) ** 3, _T ** 2 * (_T ** 2 - 4) ** 4),
     True),
    ("fibers.table", None, lambda r: _fiber_rows(), (
        ("-2", "I4", 4, 4), ("-1", "I0*", 5, 4), ("0", "I2", 2, 2),
        ("1", "I0*", 5, 4), ("2", "I4", 4, 4), ("inf", "I2", 2, 2))),
    ("fibers.euler", None, lambda r: euler_number(family_model()), 24),
    ("height.PP", "descent", _fact("sat", "height.PP"), Fraction(3, 2)),
    ("height.QQ", "descent", _fact("sat", "height.QQ"), Fraction(1, 2)),
    ("height.PQ", "descent", _fact("sat", "height.PQ"), Fraction(0)),
    ("height.T1", None, _fact("tor", "height.T1"), Fraction(0)),
    ("height.T2", None, _fact("tor", "height.T2"), Fraction(0)),
    ("height.2P", None, lambda r: mwlat.height_pairing(2 * _point("P")),
     Fraction(6)),
    ("descent.scaled_gram", "descent", _fact("sat", "lattice.scaled_gram"),
     ((6, 0), (0, 2))),
    ("descent.scaled_disc", "descent", _fact("sat", "lattice.scaled_disc"),
     12),
    ("descent.halving_blocked", "descent",
     _fact("sat", "halving.sum_blocked_for"), ("O", "T1", "T1+T2", "T2")),
    ("descent.index", "descent", _fact("sat", "lattice.index"), 1),
    ("descent.rank", "descent", _fact("sat", "lattice.rank"), 2),
    ("torsion.order", "descent", _fact("tor", "torsion.order"), 4),
    ("torsion.structure", "descent", _fact("tor", "torsion.structure"),
     "(Z/2)^2"),
    ("rank.euler", "descent", _fact("rank", "euler.number"), 24),
    ("rank.components", "descent",
     _fact("rank", "fibers.component_excess"), 16),
    ("rank.picard", "descent", _fact("rank", "picard.number"), 20),
    ("certificate.saturation", "descent", _certified("sat"), True),
    ("certificate.torsion", "descent", _certified("tor"), True),
    ("certificate.rank-formula", "descent", _certified("rank"), True),
    ("ns.disc", "ns", _fact("dec", "lattice.disc"), -48),
    ("ns.signature", "ns", _fact("dec", "lattice.signature"), (1, 19, 0)),
    ("ns.neg2", "ns", _fact("dec", "block.neg2"), -2),
    ("ns.neg24", "ns", _fact("dec", "block.neg24"), -24),
    ("ns.hyperbolic", "ns", _fact("dec", "block.hyperbolic"),
     ((0, 1), (1, 0))),
    ("ns.orthogonal", "ns", _fact("dec", "blocks.orthogonal"), "yes"),
    ("ns.index", "ns", _fact("dec", "sublattice.index"), 1),
    ("ns.e8_1.roots", "ns", _fact("dec", "block.e8_1", "roots"), 240),
    ("ns.e8_2.roots", "ns", _fact("dec", "block.e8_2", "roots"), 240),
    ("ns.hyperplane.square", "ns",
     _fact("hyp", "hyperplane.self_intersection"), 6),
    ("ns.hyperplane.degree", "ns", _fact("hyp", "hyperplane.degree"), 6),
    ("ns.identity.squares", "ns", _fact("ident", "identity.forms"), 19),
    ("ns.identity.agree", "ns", _fact("ident", "identity.matrices_agree"),
     True),
    ("ns.fibers.components", "ns", _fact("fib", "fiber.total_components"),
     22),
    ("ns.fibers.closed", "ns", _fact("fib", "fiber.all_closed"), True),
    ("certificate.lattice.decomposition", "ns", _certified("dec"), True),
    ("certificate.lattice.hyperplane", "ns", _certified("hyp"), True),
    ("certificate.degree.identity", "ns", _certified("ident"), True),
    ("certificate.fiber.decompositions", "ns", _certified("fib"), True),
    ("forms.count", None, _fact("tra", "candidates.count"), 4),
    ("forms.opposite", None, _fact("tra", "match.opposite_disc_form"),
     [((2, 0), (0, 24))]),
    ("forms.attains_1_24", None, _fact("tra", "match.attains_1_24"),
     [((2, 0), (0, 24))]),
    ("forms.kummer", None, _fact("tra", "kummer.condition"), False),
    ("certificate.lattice.transcendental", None, _certified("tra"), True),
    ("count.441", None, _fact("count", "count.total"), 441),
    ("count.families", None, _fact("count", "count.families"),
     {0: 9, 2: 144, 4: 288}),
    ("count.strict", None, _fact("count", "count.strict_transforms"), 63),
    ("certificate.count.441", None, _certified("count"), True),
    ("orbit.group_order", "orbits", lambda r: len(surface.group_elements()),
     144),
    ("orbit.double_points", "orbits",
     lambda r: len(r.get(surface.singular_points)), 12),
    ("orbit.count", "orbits", lambda r: len(r.get(_orbits)), 1),
    ("orbit.sizes", "orbits",
     lambda r: tuple(sorted(len(o) for o in r.get(_orbits))), (12,)),
    ("orbit.jacobian_rank", "orbits", lambda r: tuple(sorted(
        {len(smith_normal_form(surface.jacobian(p)))
         for p in r.get(surface.singular_points)})), (2,)),
)


def claims_report(command) -> Report:
    """Check rows of the claims `command` prints, or of every claim when it
    is None, then one row per imported fact of the certificates they used,
    in the order the certificates were built.  A claim whose computation
    raises fails, with "<Type>: <message>" as its computed value; each
    exception's traceback goes to stderr once, however many claims it
    fails."""
    run = _Run()
    rows, shown = [], []
    for claim, cmd, compute, expected in CLAIMS:
        if command is None or cmd == command:
            try:
                value = compute(run)
                computed = _render(value)
                status = "pass" if value == expected else "fail"
            except Exception as e:
                if e not in shown:
                    traceback.print_exc()
                    shown.append(e)
                computed, status = "%s: %s" % (type(e).__name__, e), "fail"
            rows.append((claim, computed, _render(expected), status))
    failed = sum(row[-1] == "fail" for row in rows)
    imported = [text for value in run.built.values()
                if isinstance(value, Certificate)
                for text in value.imported]
    rows += [("assumed", text, "", "assumed")
             for text in dict.fromkeys(imported)]
    return Report(CHECK_COLUMNS, rows, failed)


# -- wiring ------------------------------------------------------------------


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerodiag",
        description="Exact computations for integral zero-diagonal "
                    "symmetric matrices and the surface behind them.")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="triples with all-integral spectrum")
    p.add_argument("--max", type=int, required=True,
                   help="upper bound for the largest entry, at most %d"
                        % surface.SEARCH_MAX)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("param", help="the degree four parametrization")
    p.add_argument("--at", default=None,
                   help="evaluate at a rational parameter value")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("mult", help="multiples of a section")
    p.add_argument("--n", type=int, required=True,
                   help="the multiple, |n| at most %d (%d with --emit-param)"
                        % (MULT_MAX, MULT_PARAM_MAX))
    p.add_argument("--section", default="P")
    p.add_argument("--emit-param", action="store_true",
                   help="also print the projective parametrization")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("fibers", help="reducible fibers of the fibration")
    p.set_defaults(func=cmd_fibers)

    p = sub.add_parser("height", help="height pairing of named sections")
    p.add_argument("--sections", default="O,P,Q,T1,T2",
                   help="comma separated section names")
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("descent", help="rank two descent certificate")
    p.set_defaults(func=cmd_checks)

    p = sub.add_parser("lattice-forms",
                       help="reduced positive even binary forms")
    p.add_argument("--det", type=int, default=48,
                   help="the determinant, at most %d (default 48)"
                        % FORMS_MAX_DET)
    p.set_defaults(func=cmd_lattice_forms)

    p = sub.add_parser("ns", help="Neron-Severi lattice operations")
    ns_sub = p.add_subparsers(dest="ns_cmd", required=True)
    q = ns_sub.add_parser("verify", help="structure certificates")
    q.set_defaults(func=cmd_checks)
    q = ns_sub.add_parser("count-classes", help="classes by degree and genus")
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--genus", type=int, required=True)
    q.add_argument("--list", action="store_true",
                   help="print every class vector")
    q.set_defaults(func=cmd_count_classes)
    q = ns_sub.add_parser("catalogue", help="the 441 conic classes")
    q.set_defaults(func=cmd_catalogue)
    # a missing command is reported by its metavar, else by its dest; this
    # one is the text argparse already prints for the choices
    ns_sub.metavar = "{%s}" % ",".join(ns_sub.choices)

    p = sub.add_parser("orbits", help="symmetry action on double points")
    p.set_defaults(func=cmd_checks)

    p = sub.add_parser("verify-all", help="run every check")
    p.set_defaults(func=lambda args: claims_report(None))

    sub.metavar = "{%s}" % ",".join(sub.choices)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    _emit(report, args.format, sys.stdout)
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
