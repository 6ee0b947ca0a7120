"""perfbench/tracer.py looks piwb's layer entry points up by name; a
refactor that renames one must fail here, not silently in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import piwb
from piwb.decompose import BehaviorIndex
from piwb.semantics import NameUniverse

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = _tracer()
    for _span, modname, attr, _recursive in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for _span, clsname, attr in tracer.METHODS:
        assert getattr(piwb.decompose, clsname) is BehaviorIndex
        assert attr in BehaviorIndex.__dict__, attr
    # Read directly by the tracer's hooks and harvest.
    assert "__init__" in BehaviorIndex.__dict__
    index = BehaviorIndex(NameUniverse.for_terms(piwb.parse("a!b.0")))
    for attr in ("_class_of", "signatures", "_weak_sigs"):
        assert hasattr(index, attr), attr
    for modname, attr in (
        ("piwb.semantics", "_steps_cached"),
        ("piwb.semantics", "_cache"),
        ("piwb.syntax", "_hashcons_table"),
        ("piwb.decompose", "TermUniverse"),
    ):
        assert hasattr(importlib.import_module(modname), attr), (modname, attr)


def test_traced_calls_are_recorded():
    tracing = _tracer()
    tracer = tracing.Tracer()
    p = piwb.parse("tau.a!b.0")
    with tracer.installed():
        piwb.upd_sweep(["a"], 3, piwb.WEAK)
        assert piwb.weak_bisim(p, piwb.parse("a!b.0"))[0]
        piwb.stutter_free(p)
        assert piwb.has_stuttering(p)[0]
        # No verdict path goes through refine any more; it stays the
        # graph reference of the tests, and the tracer still wraps it.
        piwb.refine(piwb.build_lts(p), piwb.WEAK)
    values = tracer.layer_values(tracing.PER_LAYER)
    assert values["decompose.class_of.calls"] > 0
    assert values["decompose.classes_interned"] > 0
    assert values["equivalence.refine.calls"] >= 1
    assert values["normalize.stutter_free.calls"] == 1
    # Restored on exit.
    assert not hasattr(piwb.stutter_free, "__wrapped__")
