"""Fast checks of the benchmark's own logic (python3 -m pytest -q perfbench)."""

import importlib
import json
import os
import sys
import types

import bootstrap
import numpy as np
import pytest

import run
import tracing
import workloads


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generator_builds_valid_inputs(name, seed):
    inputs = workloads.make_inputs(name, seed, n=24)
    chi = inputs.chi0
    assert chi.domain.dims == (24, 24)
    assert set(np.unique(chi.values)) == {0.0, 1.0}
    assert 0.0 < chi.integral() < chi.domain.volume
    assert inputs.spec.n_steps == (0 if name == "flow_verify" else 1)
    if name == "flow_verify":
        assert inputs.B_raw.tangential
    else:
        assert inputs.B_raw is None
    again = workloads.make_inputs(name, seed, n=24)
    assert np.array_equal(again.chi0.values, chi.values)
    assert again.spec == inputs.spec


def test_seed_drives_cap_geometry_only():
    a = workloads.make_inputs("cap_stiff", 1, n=24).spec
    b = workloads.make_inputs("cap_stiff", 2, n=24).spec
    assert a != b
    for spec in (a, b):
        assert np.pi / 4 <= spec.angle <= np.pi / 2
        assert 0.22 <= spec.radii[0] <= 0.28
    for name in ("ripening_degiorgi", "flow_verify"):
        assert workloads.SPECS[name](1) == workloads.SPECS[name](2)


def _span(name, start, end, parent, op=1):
    return tracing.Span(name, start, end, parent, op)


def test_self_time_subtracts_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 2.5, 1),
        _span("c", 5.0, 9.0, 0),
        _span("d", 6.0, 7.0, 3),
        _span("e", 7.5, 8.0, 3),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([4.0, 1.5, 0.5, 2.5, 1.0, 0.5])


def test_self_time_merges_overlapping_children():
    spans = [
        _span("root", 0.0, 4.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_summarize_groups_by_operation_and_name():
    spans = [
        _span("root", 0.0, 4.0, -1, op=1),
        _span("k", 1.0, 2.0, 0, op=1),
        _span("k", 2.0, 3.0, 0, op=1),
        _span("root", 5.0, 6.0, -1, op=2),
    ]
    ops = tracing.summarize(spans)
    assert ops[1]["k"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert ops[1]["root"]["self_s"] == pytest.approx(2.0)
    assert ops[2]["root"]["calls"] == 1


def test_tracer_records_nesting_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    names = (("fake_layer", "outer", "l.outer"), ("fake_layer", "inner", "l.inner"))
    tracer = tracing.Tracer(names=names).install()
    try:
        assert mod.outer(1) == 4
    finally:
        tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("l.outer", -1), ("l.inner", 0),
    ]


def test_missing_public_name_is_absent(monkeypatch):
    from mskit import diagnostics, minmov

    monkeypatch.delattr(minmov, "poisson_apply_raw")
    # energy.interface_measure keeps its other bindings, so it is not absent
    monkeypatch.delattr(diagnostics, "interface_measure")
    tracer = tracing.Tracer().install()
    try:
        assert tracer.absent == ["fields.poisson_apply_raw"]
    finally:
        tracer.uninstall()
    assert not hasattr(minmov, "poisson_apply_raw")
    assert not hasattr(diagnostics, "interface_measure")
    absent = run.absent_metrics(tracer.absent)
    assert absent == [
        "fields.poisson_apply_raw.calls",
        "fields.poisson_apply_raw.self_s",
    ]


def test_layer_functions_wrapped_where_callers_look_them_up():
    from mskit import diagnostics, energy, flows, minmov

    # kernels and `energy` are traced only where the solver looks them up
    own_layer = {
        span: getattr(importlib.import_module(module), attr)
        for module, attr, span in tracing.PUBLIC_NAMES
        if span.split(".")[0] in ("energy", "diagnostics", "flows")
    }
    bindings = [
        (module, attr)
        for module in (minmov, energy, diagnostics, flows)
        for attr, value in vars(module).items()
        if any(value is fn for fn in own_layer.values())
    ]
    assert (diagnostics, "interface_measure") in bindings
    assert (flows, "construct_xi") in bindings
    tracer = tracing.Tracer().install()
    try:
        unwrapped = [
            "%s.%s" % (module.__name__, attr)
            for module, attr in bindings
            if any(getattr(module, attr) is fn for fn in own_layer.values())
        ]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert tracer.absent == []


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _spans in run.PER_LAYER
    ]
