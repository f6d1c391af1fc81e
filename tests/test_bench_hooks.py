"""The benchmark's tracer (bench/tracing.py) wraps package functions by
name.  A renamed function would make the harness fail only in a long
benchmark run, so every name it lists is resolved here, and so are the
memo attributes the harness reads off each module."""

import importlib
import importlib.util
import os

from raviolo.catalog import heisenberg
from raviolo.engine import IDENTITIES, PBWModule


def _trace_targets():
    path = os.path.join(os.path.dirname(__file__), "..", "bench",
                        "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_bench_trace_targets_resolve():
    identities = set()
    for modname, attr, metric, kind in _trace_targets():
        owner = importlib.import_module("raviolo." + modname)
        if "." in attr:
            # the tracer reads methods off the class dict
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr, None)), (modname, attr)
        if kind == "identity":
            identities.add(metric[len("engine.check."):])
    # one identity span per row of the suite
    assert identities == set(IDENTITIES)


def test_bench_memo_attributes_exist():
    # bench/run.py sums the sizes of these memos into engine.memo_entries
    mod = PBWModule(heisenberg())
    for attr in ("_act_memo", "_mono_memo", "_kg_memo"):
        assert isinstance(getattr(mod, attr, None), dict), attr
