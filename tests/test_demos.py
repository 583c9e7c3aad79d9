"""Each demo script runs to its end in-process and prints what it
printed when its output was pinned."""

import hashlib
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))
# sha256 of each demo's stdout; demo 05 prints the conic labels, whose
# numbering follows the order of the conic orbits
STDOUT_SHA256 = {
    "01_matrix_search":
        "dcc1b9b1a2029f60210920687139fdcb640f1fdd8d7fcbedc37e339377ea8f47",
    "02_elliptic_fibration":
        "4128f3ade3386360e0c8753daa5a6b0b3f1224ac24271c3069061cf25e57f1aa",
    "03_heights_and_descent":
        "9e30073725c13ff958a84424f32b753556d6fcb7aec98b8c52732231a4649381",
    "04_multiples_parametrize":
        "5f87e674e7c0f8b79dc7ee55494a7cfbef0c546eb8da5da91b7ed686e65b66a9",
    "05_neron_severi":
        "ea62bdebae7dcdb8581546eafc8d9aa4a3723790f4c3fa7680722a3fa22d2d31",
}


def test_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]
