"""The benchmark's tracer wraps the program at its module bindings.

`perfbench/tracing.py` replaces functions such as `wgb.fglm.reduce_poly`
and `wgb.structure.buchberger` by timed wrappers.  Some of those bindings
are imported into a module only for the tracer, so removing one breaks
`perfbench/run.py --trace 1`; this test names each of them.
"""

import importlib.util
from pathlib import Path

import wgb.fglm
import wgb.structure

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_binding_and_restore_puts_them_back():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for module, attr, original in patched:
            wrapper = getattr(module, attr)
            assert wrapper is not original
            assert wrapper.__wrapped__ is original, (module.__name__, attr)
        bindings = {(module.__name__, attr) for module, attr, _ in patched}
        # kept in src/ for the tracer only
        assert {("wgb.fglm", "reduce_poly"), ("wgb.structure", "buchberger")} <= bindings
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
    assert wgb.fglm.reduce_poly is wgb.poly.reduce_poly
    assert wgb.structure.buchberger is wgb.engine.buchberger
