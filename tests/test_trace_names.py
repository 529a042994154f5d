"""Every per-layer metric of the benchmark names a function its tracer wraps.

The benchmark (bench/run.py --trace 1) reads its metrics off the names that
bench/tracer.py gives the functions it wraps; a renamed or deleted function
would only surface there, as a BenchError.  These tests read the layer map
and the tracer's own target list, so the same rename fails here instead.
"""

import importlib
import importlib.util
import json
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names(tracer):
    names = set()
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"arcat.{layer}")
        for qual, _, _, fn in tracer._targets(module, layer):
            assert callable(fn)
            names.add(f"{layer}.{tracer.ALIASES.get(qual, qual)}")
    return names


def _layer_map():
    with open(os.path.join(BENCH, "layer_map.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def test_every_named_function_is_traced():
    traced = _traced_names(_load("tracer"))
    for spec in _layer_map():
        func, _, _ = spec["name"].rpartition(".")
        if "." in func:  # <layer>.<function>.<field>; the rest are layer totals
            assert func in traced, f"{spec['name']}: {func} is not traced"


def test_derived_metrics_find_their_operands():
    run = _load("run")
    traced = _traced_names(_load("tracer"))
    specs = _layer_map()
    # one call, one hit and one second for every traced function: each count
    # ratio is 1 exactly when both of its operands are traced
    totals = {name: (1, 1.0, 1.0, 1) for name in traced}
    values = run.layer_metrics(specs, {"totals": totals, "latencies": [1.0],
                                       "rref_entries": 1, "top_s": 1.0}, 1.0, 0.0)
    for spec in specs:
        name = spec["name"]
        if spec["unit"] == "ratio" and not name.endswith("share") \
                and not name.startswith("trace."):
            assert values[name] == 1.0, name
