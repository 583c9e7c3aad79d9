"""Command line interface.

Every subcommand prints one table in the selected format; numbers are
rendered exactly (integers, fractions, polynomials), never as floats,
and row order is fixed, so output is byte-identical across runs.
Check-style tables carry claim/computed/expected/status columns; the
exit status is 0 when everything passed, 1 when a check failed and 2
for usage errors.  The worker count for the triple search is taken from
--workers, falling back to the ZERODIAG_WORKERS environment variable,
and capped at the CPU count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
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
from .exactnum import Polynomial, RationalFunction
from .lattice import reduced_binary_even_forms

CHECK_COLUMNS = ("claim", "computed", "expected", "status")

SECTION_NAMES = ("O", "P", "Q", "T1", "T2")


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


def _check(claim, computed, expected):
    status = "pass" if computed == expected else "fail"
    return (claim, _render(computed), _render(expected), status)


def _assumed(text):
    return ("assumed", text, "", "assumed")


def _failed(rows):
    return sum(1 for r in rows if r[-1] == "fail")


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
    rows = []
    for (a, b, c), (e1, e2, e3) in surface.search(args.max, workers=args.workers):
        rows.append((a, b, c, e1, e2, e3))
    return Report(("a", "b", "c", "eig1", "eig2", "eig3"), rows)


def cmd_param(args) -> Report:
    par = surface.low_degree_parametrization()
    if args.at is not None:
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


def cmd_fibers(_args) -> Report:
    rows = []
    for fib in tate_classify(family_model()):
        place = "inf" if fib.place == "inf" else str(Fraction(fib.place))
        rows.append((place, fib.symbol, fib.components, fib.simple))
    return Report(("place", "type", "components", "simple"), rows)


def cmd_height(args) -> Report:
    names = [n.strip() for n in args.sections.split(",") if n.strip()]
    secs = named_sections()
    for n in names:
        if n not in secs:
            raise UsageError("unknown section %r; choose from %s"
                             % (n, ", ".join(sorted(secs))))
    points = [param_to_point(secs[n]) for n in names]
    gram = mwlat.height_gram(points)
    rows = [(names[i],) + tuple(str(v) for v in gram[i])
            for i in range(len(names))]
    return Report(("section",) + tuple(names), rows)


def _fact_checks(cert, pairs):
    """Check rows comparing certificate facts against expected values."""
    return [_check(claim, cert.fact(key), expected)
            for claim, key, expected in pairs]


def cmd_descent(_args) -> Report:
    sat = mwlat.saturation_certificate()
    tor = mwlat.torsion_certificate()
    rank = mwlat.rank_formula_certificate()
    rows = _fact_checks(sat, (
        ("height.PP", "height.PP", Fraction(3, 2)),
        ("height.QQ", "height.QQ", Fraction(1, 2)),
        ("height.PQ", "height.PQ", Fraction(0)),
        ("descent.scaled_gram", "lattice.scaled_gram", ((6, 0), (0, 2))),
        ("descent.scaled_disc", "lattice.scaled_disc", 12),
        ("descent.halving_blocked", "halving.sum_blocked_for",
         ("O", "T1", "T1+T2", "T2")),
        ("descent.index", "lattice.index", 1),
        ("descent.rank", "lattice.rank", 2),
    ))
    rows += _fact_checks(tor, (
        ("torsion.order", "torsion.order", 4),
        ("torsion.structure", "torsion.structure", "(Z/2)^2"),
    ))
    rows += _fact_checks(rank, (
        ("rank.euler", "euler.number", 24),
        ("rank.components", "fibers.component_excess", 16),
        ("rank.picard", "picard.number", 20),
    ))
    for cert in (sat, tor, rank):
        rows.append(_check("certificate.%s" % cert.name, cert.ok, True))
    seen = []
    for cert in (sat, tor, rank):
        for text in cert.imported:
            if text not in seen:
                seen.append(text)
                rows.append(_assumed(text))
    return Report(CHECK_COLUMNS, rows, _failed(rows))


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
            row.append("yes" if (a % 4 == 0 and c % 4 == 0 and b % 2 == 0)
                       else "no")
        rows.append(tuple(row))
    columns = ("gram",)
    if annotate:
        columns = ("gram", "attains 1/24", "opposite of surface lattice",
                   "twice an even form")
    return Report(columns, rows)


def _ns_verify_rows():
    dec = nscat.decomposition_certificate()
    hyp = nscat.hyperplane_certificate()
    ident = nscat.degree_identity_certificate()
    fib = nscat.fiber_class_certificate()
    rows = _fact_checks(dec, (
        ("ns.disc", "lattice.disc", -48),
        ("ns.signature", "lattice.signature", (1, 19, 0)),
        ("ns.neg2", "block.neg2", -2),
        ("ns.neg24", "block.neg24", -24),
        ("ns.hyperbolic", "block.hyperbolic", ((0, 1), (1, 0))),
        ("ns.orthogonal", "blocks.orthogonal", "yes"),
        ("ns.index", "sublattice.index", 1),
    ))
    rows.append(_check("ns.e8_1.roots", dec.fact("block.e8_1")["roots"], 240))
    rows.append(_check("ns.e8_2.roots", dec.fact("block.e8_2")["roots"], 240))
    rows += _fact_checks(hyp, (
        ("ns.hyperplane.square", "hyperplane.self_intersection", 6),
        ("ns.hyperplane.degree", "hyperplane.degree", 6),
    ))
    rows.append(_check("ns.identity.squares", ident.fact("identity.forms"), 19))
    rows.append(_check("ns.identity.agree",
                       ident.fact("identity.matrices_agree"), True))
    rows.append(_check("ns.fibers.components",
                       fib.fact("fiber.total_components"), 22))
    closed = all(v["sums_to_fiber_class"] and v["dual_graph"]
                 for k, v in fib.facts if k.startswith("fiber.") and
                 isinstance(v, dict))
    rows.append(_check("ns.fibers.closed", closed, True))
    for cert in (dec, hyp, ident, fib):
        rows.append(_check("certificate.%s" % cert.name, cert.ok, True))
    return rows


def cmd_ns(args) -> Report:
    if args.ns_cmd == "verify":
        rows = _ns_verify_rows()
        return Report(CHECK_COLUMNS, rows, _failed(rows))
    if args.ns_cmd == "count-classes":
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
    # catalogue
    cat = nscat.catalogue_441()
    rows = [
        ("conics without double points", str(len(cat["families"][0]))),
        ("conics through two, with node subsets", str(len(cat["families"][2]))),
        ("conics through four, with node subsets", str(len(cat["families"][4]))),
        ("strict transforms", str(len(cat["strict_transforms"]))),
        ("total", str(len(cat["all"]))),
        ("matches lattice enumeration", "yes"),
    ]
    return Report(("family", "size"), rows)


def cmd_orbits(_args) -> Report:
    group = surface.group_elements()
    points = surface.singular_points()
    orbits = surface.partition_orbits(points)
    ranks = {surface.matrix_rank(surface.jacobian(p)) for p in points}
    rows = [
        _check("orbit.group_order", len(group), 144),
        _check("orbit.double_points", len(points), 12),
        _check("orbit.count", len(orbits), 1),
        _check("orbit.sizes", tuple(sorted(len(o) for o in orbits)), (12,)),
        _check("orbit.jacobian_rank", tuple(sorted(ranks)), (2,)),
    ]
    return Report(CHECK_COLUMNS, rows, _failed(rows))


def _verify_all_rows(workers):
    t = Polynomial.gen()
    rows = []

    triple = surface.integral_eigenvalues(125, 99, 57)
    rows.append(_check("eig.125_99_57", triple, (190, -55, -135)))
    par = surface.low_degree_parametrization()
    rows.append(_check("eig.param_at_3", par.evaluate_projective(3),
                       (190, -55, -135, 125, 99, 57)))
    rows.append(_check("search.114", surface.search(114, workers=workers),
                       [((26, 51, 114), (136, -19, -117))]))
    rows.append(_check("locus.trivial_integers",
                       surface.integer_trivial_locus(par),
                       [-2, -1, 0, 1, 2, 4, 10]))

    model = family_model()
    disc_expected = 1024 * t ** 2 * (t ** 2 - 1) ** 6 * (t ** 2 - 4) ** 4
    rows.append(_check("curve.discriminant",
                       RationalFunction(disc_expected) == model.discriminant(),
                       True))
    j_expected = RationalFunction(4 * (t ** 4 + 56 * t ** 2 + 16) ** 3,
                                  t ** 2 * (t ** 2 - 4) ** 4)
    rows.append(_check("curve.j", model.j_invariant() == j_expected, True))
    table = tuple(
        ("inf" if f.place == "inf" else str(Fraction(f.place)),
         f.symbol, f.components, f.simple)
        for f in tate_classify(model))
    rows.append(_check("fibers.table", table, (
        ("-2", "I4", 4, 4), ("-1", "I0*", 5, 4), ("0", "I2", 2, 2),
        ("1", "I0*", 5, 4), ("2", "I4", 4, 4), ("inf", "I2", 2, 2))))
    rows.append(_check("fibers.euler", euler_number(model), 24))

    secs = named_sections()
    pts = {n: param_to_point(secs[n]) for n in SECTION_NAMES}
    rows.append(_check("height.PP", mwlat.height_pairing(pts["P"]),
                       Fraction(3, 2)))
    rows.append(_check("height.QQ", mwlat.height_pairing(pts["Q"]),
                       Fraction(1, 2)))
    rows.append(_check("height.PQ",
                       mwlat.height_pairing(pts["P"], pts["Q"]), Fraction(0)))
    rows.append(_check("height.T1", mwlat.height_pairing(pts["T1"]),
                       Fraction(0)))
    rows.append(_check("height.T2", mwlat.height_pairing(pts["T2"]),
                       Fraction(0)))
    rows.append(_check("height.2P", mwlat.height_pairing(2 * pts["P"]),
                       Fraction(6)))

    sat = mwlat.saturation_certificate()
    tor = mwlat.torsion_certificate()
    rank = mwlat.rank_formula_certificate()
    rows.append(_check("descent.scaled_disc",
                       sat.fact("lattice.scaled_disc"), 12))
    rows.append(_check("descent.halving_blocked",
                       sat.fact("halving.sum_blocked_for"),
                       ("O", "T1", "T1+T2", "T2")))
    rows.append(_check("descent.index", sat.fact("lattice.index"), 1))
    rows.append(_check("torsion.order", tor.fact("torsion.order"), 4))
    rows.append(_check("rank.components",
                       rank.fact("fibers.component_excess"), 16))
    rows.append(_check("rank.picard", rank.fact("picard.number"), 20))

    rows.extend(_ns_verify_rows())

    forms = reduced_binary_even_forms(48)
    rows.append(_check("forms.count", len(forms), 4))
    tra = nscat.transcendental_certificate()
    rows.append(_check("forms.opposite",
                       tra.fact("match.opposite_disc_form"),
                       [((2, 0), (0, 24))]))
    rows.append(_check("forms.attains_1_24",
                       tra.fact("match.attains_1_24"), [((2, 0), (0, 24))]))
    rows.append(_check("forms.kummer", tra.fact("kummer.condition"), False))

    count = nscat.count_certificate()
    rows.append(_check("count.441", count.fact("count.total"), 441))
    rows.append(_check("count.families", count.fact("count.families"),
                       {0: 9, 2: 144, 4: 288}))
    rows.append(_check("count.strict", count.fact("count.strict_transforms"),
                       63))

    rows.extend(cmd_orbits(None).rows)

    seen = []
    for cert in (sat, tor, rank):
        for text in cert.imported:
            if text not in seen:
                seen.append(text)
                rows.append(_assumed(text))
    return rows


def cmd_verify_all(args) -> Report:
    rows = _verify_all_rows(args.workers)
    return Report(CHECK_COLUMNS, rows, _failed(rows))


# -- wiring ------------------------------------------------------------------


class UsageError(Exception):
    pass


def _worker_count(args_value):
    """The worker count from --workers or ZERODIAG_WORKERS (default 1),
    validated and capped at the CPU count."""
    if args_value is not None:
        value, source = args_value, "--workers"
    else:
        env = os.environ.get("ZERODIAG_WORKERS")
        if env is None:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise UsageError("ZERODIAG_WORKERS must be an integer, got %r"
                             % env)
        source = "ZERODIAG_WORKERS"
    if value < 1:
        raise UsageError("%s must be positive, got %d" % (source, value))
    return min(value, os.cpu_count() or 1)


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
                   help="upper bound for the largest entry")
    p.add_argument("--workers", type=int, default=None,
                   help="process count (default: ZERODIAG_WORKERS or 1)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("param", help="the degree four parametrization")
    p.add_argument("--at", default=None,
                   help="evaluate at a rational parameter value")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("mult", help="multiples of a section")
    p.add_argument("--n", type=int, required=True)
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
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("lattice-forms",
                       help="reduced positive even binary forms")
    p.add_argument("--det", type=int, default=48)
    p.set_defaults(func=cmd_lattice_forms)

    p = sub.add_parser("ns", help="Neron-Severi lattice operations")
    ns_sub = p.add_subparsers(dest="ns_cmd", required=True)
    q = ns_sub.add_parser("verify", help="structure certificates")
    q.set_defaults(func=cmd_ns)
    q = ns_sub.add_parser("count-classes", help="classes by degree and genus")
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--genus", type=int, required=True)
    q.add_argument("--list", action="store_true",
                   help="print every class vector")
    q.set_defaults(func=cmd_ns)
    q = ns_sub.add_parser("catalogue", help="the 441 conic classes")
    q.set_defaults(func=cmd_ns)

    p = sub.add_parser("orbits", help="symmetry action on double points")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify-all", help="run every check")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "workers"):
            args.workers = _worker_count(args.workers)
        report = args.func(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    _emit(report, args.format, sys.stdout)
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
