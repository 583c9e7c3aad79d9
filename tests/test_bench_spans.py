"""The benchmark's layer tracer names zerodiag functions by module and
attribute path; every one of them must still resolve, so that moving a
function fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_spans()
    targets = [(t[1], t[2]) for t in spans.TRACED]
    targets += [(c[1], c[2]) for c in spans.COUNTED]
    assert targets
    for module, path in targets:
        owner, attr = spans._resolve(
            importlib.import_module("zerodiag." + module), path)
        # install() wraps owner.__dict__[attr]: the name must be bound in
        # that namespace itself, not only reachable through inheritance
        assert callable(owner.__dict__.get(attr)), (module, path)
