"""The benchmark tracer against the names it wraps or reads.

``bench/spans.py`` finds the functions and methods it wraps, and the
attributes its counters read, by name.  Installing it in-process around one
element build fails here, in well under a second, when one of those names
is gone; otherwise only a traced benchmark run would find it.  ``bench/``
is read and never changed.
"""

import importlib.util
from pathlib import Path

from helmdpg import assembly, dispersion, localforms, refelem
from helmdpg.localforms import NormalizedParams

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
MODULES = {"dispersion": dispersion, "assembly": assembly}


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _methods(spans):
    """``(class dict, method name) -> bound function`` for every wrapped method."""
    return {
        (layer, cls, meth): vars(getattr(MODULES[layer], cls))[meth]
        for (layer, cls), names in spans.METHODS.items()
        for meth in names
    }


def test_tracer_finds_every_name_it_wraps_or_reads():
    spans = _spans()
    before = _methods(spans)  # a KeyError here: a wrapped method is gone
    assert {("dispersion", "SymbolMatrix", "det_and_derivative"),
            ("assembly", "Mesh", "element_trace_dofs")} <= set(before)
    tabulate = refelem.tabulate_test_basis
    # parameters no other test builds, so the kit call below is a cache miss,
    # which makes the tracer read params.precision
    params = NormalizedParams(0.6180339887498949, 0.2718281828459045, 2)
    # the kits of one r share one test tabulation: drop it, so the kit
    # build below tabulates whichever tests ran before
    refelem.tabulated_test_basis.cache_clear()
    tracer = spans.Tracer().install()
    try:
        wrapped = _methods(spans)
        assert all(wrapped[k] is not f for k, f in before.items())
        assert refelem.tabulate_test_basis is not tabulate
        kit = localforms.element_kit(params)
        elem = localforms.dpg_element(params)  # the tracer reads precision_used.is_extended
    finally:
        tracer.uninstall()
    assert _methods(spans) == before and refelem.tabulate_test_basis is tabulate
    assert not kit.precision_used.is_extended and elem.precision_used.is_extended
    m = tracer.metrics()
    assert m["localforms.element_kit.calls"] == 1 and m["localforms.element_kit.builds"] == 1
    assert m["localforms.dpg_element.extended"] == 1
    for name in ("refelem.tabulate_test_basis.s", "localforms.dpg_element.s", "localforms.condense.s"):
        assert m[name] > 0, name
