"""CLI behaviour: exact output, stable formatting, exit codes."""

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from zerodiag import cli
from zerodiag.exactnum import Certificate


DESCENT_CLAIMS = [
    "height.PP", "height.QQ", "height.PQ", "descent.scaled_gram",
    "descent.scaled_disc", "descent.halving_blocked", "descent.index",
    "descent.rank", "torsion.order", "torsion.structure", "rank.euler",
    "rank.components", "rank.picard", "certificate.saturation",
    "certificate.torsion", "certificate.rank-formula"]
NS_VERIFY_CLAIMS = [
    "ns.disc", "ns.signature", "ns.neg2", "ns.neg24", "ns.hyperbolic",
    "ns.orthogonal", "ns.index", "ns.e8_1.roots", "ns.e8_2.roots",
    "ns.hyperplane.square", "ns.hyperplane.degree", "ns.identity.squares",
    "ns.identity.agree", "ns.fibers.components", "ns.fibers.closed",
    "certificate.lattice.decomposition", "certificate.lattice.hyperplane",
    "certificate.degree.identity", "certificate.fiber.decompositions"]
ORBIT_CLAIMS = ["orbit.group_order", "orbit.double_points", "orbit.count",
                "orbit.sizes", "orbit.jacobian_rank"]
# every claim of descent, ns verify and orbits, plus verify-all's own
VERIFY_ALL_CLAIMS = (
    ["eig.125_99_57", "eig.param_at_3", "search.114", "locus.trivial_integers",
     "curve.discriminant", "curve.j", "fibers.table", "fibers.euler",
     "height.PP", "height.QQ", "height.PQ", "height.T1", "height.T2",
     "height.2P"]
    + DESCENT_CLAIMS[3:]
    + NS_VERIFY_CLAIMS
    + ["forms.count", "forms.opposite", "forms.attains_1_24", "forms.kummer",
       "certificate.lattice.transcendental", "count.441", "count.families",
       "count.strict", "certificate.count.441"]
    + ORBIT_CLAIMS)
IMPORTED = ["the torsion order divides 4",
            "quarter-integrality of the height pairing"]
# sha256 of the stdout of each command: the output contract, which a
# change to the exact arithmetic underneath must keep byte for byte
GOLDEN_STDOUT = {
    "verify-all":
        "86beaa6683abf07d4e8f62dd2a2f432d55617d4db9a48937a66a4852ce1bea26",
    "descent":
        "2cd158a71aef5579e66cfa47883890e8019c5f876276ad6d87a07d21b8c15900",
    "height":
        "16df963a270d2c2e612217e152d1b7f9dd4ca7aac33d427e80d535ea3879e084",
    "fibers":
        "564ef286f5cdcb1921885f5195ce9235dc7d8df1f2aa8a6e60c5eb1992370c8b",
    "ns verify":
        "cfd2bd156f2b90cd87771969583e2a34eadb38a10aa3de4c0f634a47a1f30bbb",
    "mult --n 4":
        "f38c0cf7da9807dcb20701f168045d029a7bffe176979fa46a9302a53a73c81a",
    "mult --n 3 --emit-param":
        "8047cbbf8e33ebfa85a1be3ef5faad90285dfa367c172b97de2079f249e2b83a",
    "mult --n 2 --section Q --emit-param":
        "354ea2404636128340a3f1f15eb45bafc05f6b674dca29a1f0a945b8d3d16756",
    "mult --n 5 --emit-param":
        "0d11067c98ce1031eeba9e3263cfa13b2c30d71f0ff4a3c5f2d877aa8212dd63",
    "mult --n -3 --section Q --emit-param":
        "549761ff44766e31f38caf139a040224c037ebfab8f662050bb9b467c70db57d",
    "--format json verify-all":
        "c6c314245cc0e65ae5c062e772a52862cd13afdec82e0d76389ad86f9dac2140",
    "ns catalogue":
        "f53bbe1d200f0b83129a92f6750c914af02b91f7574da6723e83079f703c8cdf",
    "height --sections P,Q,T1":
        "3d335285adfceb755fa1b9784ca0f010e6de83c004013a294c895f6c68c1f08d",
    "mult --n 6 --section Q --emit-param":
        "d6ada5f67b0fc36eaa82cc67e2887d284f5e854af9401021b4a912881bd35c2e",
    "search --max 250":
        "1f2614383fe2c822e20295c24fa16fc3cfa2f5ae33c3c9ec88e007d5c5a452f6",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, ["--format", "json"] + argv)
    return code, json.loads(out)


def test_search_finds_the_smallest_triple(capsys):
    code, out = run(capsys, ["search", "--max", "114"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["a", "b", "c", "eig1", "eig2", "eig3"]
    assert lines[2].split() == ["26", "51", "114", "136", "-19", "-117"]
    assert len(lines) == 3


def test_search_json_is_deterministic(capsys):
    code1, out1 = run(capsys, ["--format", "json", "search", "--max", "114"])
    code2, out2 = run(capsys, ["--format", "json", "search", "--max", "114"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["rows"] == [["26", "51", "114", "136", "-19", "-117"]]
    assert payload["failed"] == 0


def test_param_table_and_evaluation(capsys):
    code, payload = run_json(capsys, ["param"])
    assert code == 0
    fields = dict(payload["rows"])
    assert fields["degree"] == "4"
    assert fields["trivial integer parameters"] == "-2 -1 0 1 2 4 10"

    code, payload = run_json(capsys, ["param", "--at", "3"])
    assert code == 0
    fields = dict(payload["rows"])
    assert fields["point"] == "[190 : -55 : -135 : 125 : 99 : 57]"
    assert fields["eigenvalues"] == "(190, -55, -135)"


def test_param_at_rational_value(capsys):
    code, payload = run_json(capsys, ["param", "--at", "1/2"])
    assert code == 0
    fields = dict(payload["rows"])
    assert fields["t"] == "1/2"
    # the image point is projective with integral coprime coordinates
    coords = fields["point"].strip("[]").split(" : ")
    assert all(int(c) or True for c in coords)


def test_mult_two_emits_degree_eight_parametrization(capsys):
    code, payload = run_json(capsys, ["mult", "--n", "2", "--emit-param"])
    assert code == 0
    fields = dict(payload["rows"])
    assert fields["degree"] == "8"
    assert fields["x"] == "-12*t^2 + 20*t^4 + -8*t^6 + 1*t^8"
    assert fields["u"].startswith("(4 + -8*t^2")


def test_mult_zero_is_infinity(capsys):
    code, payload = run_json(capsys, ["mult", "--n", "0"])
    assert code == 0
    assert ["result", "point at infinity"] in payload["rows"]


def test_fibers_csv_round_trips(capsys):
    code, out = run(capsys, ["--format", "csv", "fibers"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["place", "type", "components", "simple"]
    assert rows[1:] == [
        ["-2", "I4", "4", "4"],
        ["-1", "I0*", "5", "4"],
        ["0", "I2", "2", "2"],
        ["1", "I0*", "5", "4"],
        ["2", "I4", "4", "4"],
        ["inf", "I2", "2", "2"],
    ]


def test_height_gram_default_sections(capsys):
    code, payload = run_json(capsys, ["height"])
    assert code == 0
    assert payload["columns"] == ["section", "O", "P", "Q", "T1", "T2"]
    gram = {row[0]: row[1:] for row in payload["rows"]}
    assert gram["P"] == ["0", "3/2", "0", "0", "0"]
    assert gram["Q"] == ["0", "0", "1/2", "0", "0"]
    assert gram["O"] == ["0"] * 5


def test_height_subset(capsys):
    code, payload = run_json(capsys, ["height", "--sections", "P,Q"])
    assert code == 0
    assert payload["rows"] == [["P", "3/2", "0"], ["Q", "0", "1/2"]]


def test_descent_certificate_passes(capsys):
    code, payload = run_json(capsys, ["descent"])
    assert code == 0
    assert payload["failed"] == 0
    statuses = {row[3] for row in payload["rows"]}
    assert statuses == {"pass", "assumed"}
    claims = [row[0] for row in payload["rows"]]
    assert claims == DESCENT_CLAIMS + ["assumed"] * 2
    assert [row[1] for row in payload["rows"][-2:]] == IMPORTED


def test_descent_failure_sets_exit_code(capsys, monkeypatch):
    bad = Certificate("torsion",
                      [("torsion.order", 8),
                       ("torsion.structure", "(Z/2)^2")],
                      ok=False)
    monkeypatch.setattr(cli.mwlat, "torsion_certificate", lambda: bad)
    code, payload = run_json(capsys, ["descent"])
    assert code == 1
    assert payload["failed"] == 2  # wrong order and cert flag
    failing = [row[0] for row in payload["rows"] if row[3] == "fail"]
    assert "torsion.order" in failing


def test_lattice_forms_annotated_for_det_48(capsys):
    code, payload = run_json(capsys, ["lattice-forms"])
    assert code == 0
    rows = payload["rows"]
    assert [r[0] for r in rows] == [
        "[[2, 0], [0, 24]]", "[[4, 0], [0, 12]]",
        "[[6, 0], [0, 8]]", "[[8, 4], [4, 8]]"]
    assert rows[0][1:3] == ["yes", "yes"]
    assert all(r[1:3] == ["no", "no"] for r in rows[1:])
    assert [r[3] for r in rows] == ["no", "yes", "no", "yes"]


def test_lattice_forms_other_determinant(capsys):
    code, payload = run_json(capsys, ["lattice-forms", "--det", "8"])
    assert code == 0
    assert payload["columns"] == ["gram"]
    assert payload["rows"] == [["[[2, 0], [0, 4]]"]]


def test_ns_verify_passes(capsys):
    code, payload = run_json(capsys, ["ns", "verify"])
    assert code == 0
    assert payload["failed"] == 0
    claims = dict((row[0], row[1]) for row in payload["rows"])
    assert claims["ns.disc"] == "-48"
    assert claims["ns.fibers.components"] == "22"
    assert [row[0] for row in payload["rows"]] == NS_VERIFY_CLAIMS


def test_ns_count_classes(capsys):
    code, payload = run_json(capsys, ["ns", "count-classes",
                                      "--degree", "2", "--genus", "0"])
    assert code == 0
    assert ["count", "441"] in payload["rows"]
    code, out = run(capsys, ["ns", "count-classes", "--degree", "4",
                             "--genus", "0"])
    assert code == 0
    assert "count   50616" in out.splitlines()


def test_ns_catalogue(capsys):
    code, payload = run_json(capsys, ["ns", "catalogue"])
    assert code == 0
    sizes = dict(payload["rows"])
    assert sizes["total"] == "441"
    assert sizes["strict transforms"] == "63"
    assert sizes["matches lattice enumeration"] == "yes"


def test_orbits(capsys):
    code, payload = run_json(capsys, ["orbits"])
    assert code == 0
    claims = dict((row[0], row[1]) for row in payload["rows"])
    assert claims["orbit.group_order"] == "144"
    assert claims["orbit.double_points"] == "12"
    assert claims["orbit.jacobian_rank"] == "(2)"
    assert [row[0] for row in payload["rows"]] == ORBIT_CLAIMS


def test_verify_all_green(capsys):
    code, out = run(capsys, ["verify-all"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "60 checks, 0 failed"
    assert "fail\n" not in out
    assert [line.split()[0] for line in lines[2:-1]] == (
        VERIFY_ALL_CLAIMS + ["assumed"] * 2)
    assert sha256(out) == GOLDEN_STDOUT["verify-all"]


@pytest.mark.parametrize("command", [c for c in GOLDEN_STDOUT
                                     if c != "verify-all"])
def test_stdout_matches_the_recorded_digest(capsys, command):
    code, out = run(capsys, command.split())
    assert code == 0
    assert sha256(out) == GOLDEN_STDOUT[command]


def test_claim_ids_are_unique():
    ids = [claim[0] for claim in cli.CLAIMS]
    assert len(ids) == len(set(ids)) == 60


def test_verify_all_fails_on_a_failed_certificate(capsys, monkeypatch):
    # right facts, failed flag: only the certificate row can catch it
    bad = Certificate("torsion",
                      [("torsion.order", 4),
                       ("torsion.structure", "(Z/2)^2"),
                       ("height.T1", 0), ("height.T2", 0),
                       ("height.T1+T2", 0)],
                      imported=["the torsion order divides 4"], ok=False)
    monkeypatch.setattr(cli.mwlat, "torsion_certificate", lambda: bad)
    code, payload = run_json(capsys, ["verify-all"])
    assert code == 1
    assert payload["failed"] == 1
    failing = [row[0] for row in payload["rows"] if row[3] == "fail"]
    assert failing == ["certificate.torsion"]


def test_torsion_heights_are_read_from_the_certificate(monkeypatch):
    real = cli.mwlat.section_component
    calls = []

    def counted(pt, fib):
        calls.append((pt, fib.place))
        return real(pt, fib)

    monkeypatch.setattr(cli.mwlat, "section_component", counted)
    run = cli._Run()
    run.cert("tor")
    # T1, T2 and T1 + T2, once per bad fiber
    assert len(calls) == len(set(calls)) == 3 * 6
    compute = {claim: fn for claim, _, fn, _ in cli.CLAIMS}
    assert compute["height.T1"](run) == compute["height.T2"](run) == 0
    assert len(calls) == 3 * 6


def test_square_sum_fails_descent_and_verify_all(capsys, monkeypatch):
    # if u(P + Q + T) were a square, P + Q + T could be halved
    monkeypatch.setattr(cli.mwlat, "is_square_in_function_field",
                        lambda rf: True)
    for argv in (["descent"], ["verify-all"]):
        code, payload = run_json(capsys, argv)
        assert code == 1, argv
        rows = {row[0]: row for row in payload["rows"]}
        assert rows["descent.halving_blocked"][1:] == [
            "()", "(O, T1, T1+T2, T2)", "fail"], argv
        assert rows["certificate.saturation"][3] == "fail", argv
        assert payload["failed"] == 2, argv


def test_bad_usage_exits_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as e:
        cli.main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["--format", "xml", "fibers"])
    assert e.value.code == 2
    # search and verify-all run in one process and take no worker count
    for argv in (["verify-all", "--workers", "0"],
                 ["search", "--max", "30", "--workers", "0"],
                 ["search", "--max", "30", "--workers", "-3"],
                 ["search", "--max", "30", "--workers", "2"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2, argv
    capsys.readouterr()

    for argv in (["ns", "count-classes", "--degree", "3", "--genus", "0"],
                 ["ns", "count-classes", "--degree", "6", "--genus", "0"],
                 ["ns", "count-classes", "--degree", "2", "--genus", "-5"],
                 ["height", "--sections", "P,R"],
                 ["height", "--sections", "P,P"],
                 ["height", "--sections", ","],
                 ["mult", "--n", "2", "--section", "R"],
                 ["mult", "--n", "17"],
                 ["mult", "--n", "-17"],
                 ["mult", "--n", "9", "--emit-param"],
                 ["param", "--at", "abc"],
                 ["param", "--at", "1/0"],
                 ["param", "--at", "1e100000000"],
                 ["lattice-forms", "--det", "0"],
                 ["lattice-forms", "--det", "-5"],
                 ["lattice-forms", "--det", "100000001"],
                 ["search", "--max", "2001"],
                 ["search", "--max", "-1"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert captured.out == "", argv

    # the environment does not reach search
    assert cli.main(["search", "--max", "30"]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("ZERODIAG_WORKERS", "zero")
    assert cli.main(["search", "--max", "30"]) == 0
    assert capsys.readouterr().out == plain


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zerodiag.cli", "param"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "degree" in proc.stdout
