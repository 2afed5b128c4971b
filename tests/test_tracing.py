"""The benchmark's tracer wraps the program at its module bindings.

`perfbench/tracing.py` replaces functions such as `wgb.fglm.reduce_poly`
and `wgb.structure.buchberger` by timed wrappers.  Some of those bindings
are imported into a module only for the tracer, so removing one breaks
`perfbench/run.py --trace 1`; this test names each of them.
"""

import importlib.util
from pathlib import Path

import wgb.engine
import wgb.fglm
import wgb.series
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
        assert {
            ("wgb.fglm", "reduce_poly"),
            ("wgb.structure", "buchberger"),
            ("wgb.engine", "semiregular_truncation_degree"),
            ("wgb.structure", "staircase_census"),
            # the layers of a count-only signature run
            ("wgb.structure", "prefix_ideal_dims"),
            ("wgb.engine", "monomials_of_wdeg"),
            ("wgb.engine", "staircase_census"),
        } <= bindings
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
    assert wgb.fglm.reduce_poly is wgb.poly.reduce_poly
    assert wgb.structure.buchberger is wgb.engine.buchberger
    assert wgb.engine.semiregular_truncation_degree is wgb.series.semiregular_truncation_degree
    assert wgb.engine.staircase_census is wgb.series.staircase_census
    assert wgb.structure.staircase_census is wgb.series.staircase_census


def test_a_monomial_table_miss_goes_through_the_traced_binding():
    # the monomial tables are shared between runs; each one made is still
    # one call of wgb.engine.monomials_of_wdeg, one monomial.enumerate span
    from wgb import PolyRing, PolySystem

    tracing = _tracing()
    tracer = tracing.Tracer()
    W = (5, 3, 1)
    try:
        tracing.install(tracer)
        wgb.engine._monomial_table.cache_clear()
        wgb.engine._monomial_table(W, 11)
        wgb.engine._monomial_table(W, 11)
        assert [span[0] for span in tracer.take()] == ["monomial.enumerate"]
        R = PolyRing(7, W)
        x, y, z = R.gens()
        # f_1 has two terms, so the run builds its rows on a table
        wgb.structure.is_semiregular(PolySystem(R, [x * y + z**8, z**4], (8, 4)))
        names = [span[0] for span in tracer.take()]
    finally:
        tracer.restore()
        wgb.engine._monomial_table.cache_clear()
    assert names.count("engine.prefix_dims") == 1
    assert "monomial.enumerate" in names


def test_a_reduced_fglm_records_one_lex_span_and_nests_no_name():
    # x_3 occurs only as x_3^2, so fglm_lex walks the preimage: through an
    # inner function, never re-entering the traced fglm_lex binding
    from wgb import buchberger
    from wgb.structure import random_w_homogeneous_system

    gb = buchberger(random_w_homogeneous_system((2, 2, 1), (6, 6, 6), seed=1))
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        _, stats = wgb.fglm.fglm_lex(gb, return_stats=True)
        spans = tracer.take()
    finally:
        tracer.restore()
    assert stats.walk_staircase < stats.degree
    names = [span[0] for span in spans]
    assert names.count("fglm.lex") == 1
    assert names.count("fglm.staircase") == names.count("fglm.mult_matrices") == 1
    for name, _, _, parent, _ in spans:
        while parent >= 0:
            assert spans[parent][0] != name
            parent = spans[parent][3]
