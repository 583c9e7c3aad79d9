"""Inputs, expected outputs and output checks of the three workloads.

Everything here runs in the benchmark's parent process, which never
imports zerodiag: inputs are built from the seed alone and handed to a
child as plain data, and the child's outputs are checked against values
fixed here (the paper's claims), not against the code under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

# -- certify: `zerodiag --format json verify-all` ----------------------------

CERTIFY_ARGV = ("--format", "json", "verify-all")

# The 51 check rows of verify-all at the baseline commit, plus its 2 rows of
# imported facts: 53 rows in all.
CERTIFY_CLAIMS = (
    "eig.125_99_57", "eig.param_at_3", "search.114", "locus.trivial_integers",
    "curve.discriminant", "curve.j", "fibers.table", "fibers.euler",
    "height.PP", "height.QQ", "height.PQ", "height.T1", "height.T2",
    "height.2P", "descent.scaled_disc", "descent.halving_blocked",
    "descent.index", "torsion.order", "rank.components", "rank.picard",
    "ns.disc", "ns.signature", "ns.neg2", "ns.neg24", "ns.hyperbolic",
    "ns.orthogonal", "ns.index", "ns.e8_1.roots", "ns.e8_2.roots",
    "ns.hyperplane.square", "ns.hyperplane.degree", "ns.identity.squares",
    "ns.identity.agree", "ns.fibers.components", "ns.fibers.closed",
    "certificate.lattice.decomposition", "certificate.lattice.hyperplane",
    "certificate.degree.identity", "certificate.fiber.decompositions",
    "forms.count", "forms.opposite", "forms.attains_1_24", "forms.kummer",
    "count.441", "count.families", "count.strict", "orbit.group_order",
    "orbit.double_points", "orbit.count", "orbit.sizes", "orbit.jacobian_rank",
)
CERTIFY_ASSUMED = ("the torsion order divides 4",
                   "quarter-integrality of the height pairing")

# Smoke size: `orbits` prints check rows the same way in a fraction of a second.
SMOKE_CERTIFY_ARGV = ("--format", "json", "orbits")
SMOKE_CERTIFY_CLAIMS = ("orbit.group_order", "orbit.double_points",
                        "orbit.count", "orbit.sizes", "orbit.jacobian_rank")


def check_certify(out, expect):
    if "error" in out:
        return [out["error"]]
    if out["exit"] != 0:
        return ["exit code %d" % out["exit"]]
    report = json.loads(out["stdout"])
    problems = []
    if report["failed"] != 0:
        problems.append("failed = %d" % report["failed"])
    status = {row[0]: row[-1] for row in report["rows"] if row[0] != "assumed"}
    for claim in expect["claims"]:
        if status.get(claim) != "pass":
            problems.append("%s: %s" % (claim, status.get(claim, "missing")))
    assumed = [row[1] for row in report["rows"] if row[0] == "assumed"]
    if sorted(assumed) != sorted(expect["assumed"]):
        problems.append("assumed rows %r" % assumed)
    return problems


# -- sections: m*P + n*Q + T ------------------------------------------------

# The 56 sections with 0 < 3m^2 + n^2 <= 7 (height <= 7/2), in increasing
# order of their mean rescaled time over 10 runs of this workload on the
# baseline commit (140 section runs, with either mixed-pairing partner;
# 0.8 s to 10.2 s).  Only the order is used: it cuts the list into 14
# strata of 4 sections of similar cost.
SECTIONS_BY_COST = (
    (-1, 0, "T1+T2"), (1, 0, "T1"), (1, 0, "O"), (1, 0, "T1+T2"),
    (-1, 0, "O"), (1, 0, "T2"), (-1, 0, "T1"), (-1, 0, "T2"), (0, 1, "O"),
    (0, 1, "T2"), (0, -1, "O"), (1, 1, "O"), (0, 1, "T1+T2"), (0, 1, "T1"),
    (0, -1, "T1"), (0, -1, "T2"), (1, -1, "O"), (0, -1, "T1+T2"),
    (0, 2, "T1"), (0, -2, "O"), (0, -2, "T1"), (0, 2, "O"), (1, 1, "T1"),
    (-1, 1, "O"), (1, 1, "T2"), (1, 1, "T1+T2"), (1, -1, "T1"),
    (1, -1, "T1+T2"), (1, -1, "T2"), (-1, -1, "O"), (1, 2, "T2"),
    (0, 2, "T1+T2"), (0, 2, "T2"), (0, -2, "T2"), (1, 2, "O"),
    (1, -2, "T1"), (1, -2, "O"), (1, 2, "T1"), (-1, 1, "T1"),
    (0, -2, "T1+T2"), (1, -2, "T2"), (-1, 1, "T1+T2"), (-1, -1, "T1+T2"),
    (-1, -1, "T2"), (-1, 1, "T2"), (-1, -1, "T1"), (1, -2, "T1+T2"),
    (1, 2, "T1+T2"), (-1, -2, "T2"), (-1, 2, "T1+T2"), (-1, 2, "T2"),
    (-1, -2, "T1+T2"), (-1, -2, "O"), (-1, 2, "O"), (-1, 2, "T1"),
    (-1, -2, "T1"),
)
STRATUM = 4

# +-P + T1 + T2 lie outside the chart point_to_param inverts.
OUT_OF_CHART = {(1, 0, "T1+T2"), (-1, 0, "T1+T2")}
OUT_OF_CHART_MESSAGE = "outside the chart"

SMOKE_SECTIONS = ((1, 0, "O", "P"), (0, 1, "T1", "Q"), (1, 0, "T1+T2", "Q"))


def section_groups():
    """Four groups of 14 sections, each holding one section of every
    cost stratum: group j takes rank (i + j) mod 4 of stratum i, so the
    groups have the same cost profile and together hold all 56."""
    strata = [SECTIONS_BY_COST[i:i + STRATUM]
              for i in range(0, len(SECTIONS_BY_COST), STRATUM)]
    return [[s[(i + j) % STRATUM] for i, s in enumerate(strata)]
            for j in range(STRATUM)]


def section_height(m, n):
    return Fraction(3 * m * m + n * n, 2)


def check_section(op, out, expect_shift=0):
    m, n, t, partner = op
    problems = []
    if out.get("error") and "height" not in out:
        return [out["error"]]
    if Fraction(out["height"]) != section_height(m, n) + expect_shift:
        problems.append("height %s" % out["height"])
    mixed = Fraction(3 * m, 2) if partner == "P" else Fraction(n, 2)
    if Fraction(out["mixed"]) != mixed:
        problems.append("pairing with %s: %s" % (partner, out["mixed"]))
    if (m, n, t) in OUT_OF_CHART:
        err = out.get("error", "")
        if not (err.startswith("ValueError") and OUT_OF_CHART_MESSAGE in err):
            problems.append("expected the out-of-chart ValueError, got %r" % err)
    elif out.get("error"):
        problems.append(out["error"])
    elif out.get("verified") is not True:
        problems.append("parametrization fails verify()")
    return problems


# -- search: surface.search(N, workers=1) -----------------------------------

SEARCH_LIMIT = 250
SMOKE_SEARCH_LIMIT = 120

# Every nontrivial triple 0 < a < b < c <= 250 with integral spectrum.
SEARCH_TRIPLES = (
    ((26, 51, 114), (136, -19, -117)),
    ((57, 99, 125), (190, -55, -135)),
    ((34, 99, 174), (216, -29, -187)),
    ((154, 171, 186), (341, -152, -189)),
    ((52, 102, 228), (272, -38, -234)),
    ((23, 77, 247), (266, -13, -253)),
    ((114, 198, 250), (380, -110, -270)),
)


def spectrum_ok(abc, eig):
    """(l - e1)(l - e2)(l - e3) == l^3 - p l - q, p = a^2+b^2+c^2, q = 2abc."""
    a, b, c = abc
    e1, e2, e3 = eig
    return (e1 + e2 + e3 == 0
            and e1 * e2 + e2 * e3 + e3 * e1 == -(a * a + b * b + c * c)
            and e1 * e2 * e3 == 2 * a * b * c)


def check_search(out, expect):
    if "error" in out:
        return [out["error"]]
    found = [(tuple(abc), tuple(eig)) for abc, eig in out["triples"]]
    problems = ["spectrum of %s is not %s" % (abc, eig)
                for abc, eig in found if not spectrum_ok(abc, eig)]
    if sorted(found) != sorted(expect["triples"]):
        problems.append("triples %r" % found)
    return problems


# -- jobs --------------------------------------------------------------------


def make_job(workload, seed, smoke=False):
    """The child's job (plain data), what to expect, provenance, and how
    many work items one operation counts for in `items_per_s`.

    `group` is the number of operations a child runs before it may stop
    for the time budget.
    """
    rng = random.Random(seed)
    if workload == "certify":
        argv = SMOKE_CERTIFY_ARGV if smoke else CERTIFY_ARGV
        job = {"argv": list(argv), "ops": [None], "group": 1}
        expect = {"claims": list(SMOKE_CERTIFY_CLAIMS if smoke else CERTIFY_CLAIMS),
                  "assumed": [] if smoke else list(CERTIFY_ASSUMED)}
        return job, expect, {"argv": list(argv)}, len(expect["claims"])
    if workload == "sections":
        if smoke:
            ops = [list(op) for op in SMOKE_SECTIONS]
            group = len(ops)
        else:
            groups = section_groups()
            rng.shuffle(groups)
            ops = []
            for g in groups:
                ops += [[m, n, t, rng.choice("PQ")]
                        for m, n, t in rng.sample(g, len(g))]
            group = len(groups[0])
        return {"ops": ops, "group": group}, {"height_shift": 0}, {}, 1
    if workload == "search":
        limit = SMOKE_SEARCH_LIMIT if smoke else SEARCH_LIMIT
        triples = [t for t in SEARCH_TRIPLES if t[0][2] <= limit]
        job = {"ops": [limit] * 1000, "group": 1}
        return job, {"triples": triples}, {"limit": limit}, comb(limit, 3)
    raise ValueError("unknown workload %r" % workload)


def sections_provenance(ops):
    """The sections a run processed, with heights and the Q(sqrt 3) share."""
    drawn = [{"m": m, "n": n, "T": t, "partner": p,
              "height": str(section_height(m, n))} for m, n, t, p in ops]
    return {"drawn": drawn,
            "sqrt3_share": sum(1 for d in drawn if d["n"]) / max(1, len(drawn))}


def check(workload, op, out, expect):
    """Problems found in one operation's output; empty when it is right."""
    try:
        if workload == "certify":
            return check_certify(out, expect)
        if workload == "sections":
            return check_section(op, out, expect["height_shift"])
        return check_search(out, expect)
    except (KeyError, TypeError, ValueError) as e:
        return ["malformed output: %s: %s" % (type(e).__name__, e)]


def tamper(workload, expect):
    """Make one expected value wrong, for the smoke test of the checks."""
    if workload == "certify":
        expect["claims"].append("smoke.injected")
    elif workload == "sections":
        expect["height_shift"] = 1
    else:
        expect["triples"] = expect["triples"][1:]
