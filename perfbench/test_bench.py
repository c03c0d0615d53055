"""Smoke test of the benchmark's own code; needs no quantocds.

    python3 -m pytest -q perfbench/test_bench.py
"""
import json
import re
import sys
import types
from pathlib import Path

import pytest

import run
from spans import Hook, Span, Tracer, op_layers, self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 7.0, parent=0),
        Span("a1", 2.0, 3.0, parent=1),
        Span("a2", 2.5, 3.5, parent=1),     # overlaps a1: covered once
        Span("c", 6.5, 8.0, parent=2),      # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2, 3 - 1.5, 2 - 0.5, 1, 1, 1.5])


def test_op_layers_groups_by_op_and_name():
    spans = [Span("run", 0.0, 4.0, op=1), Span("sweep", 1.0, 2.0, parent=0, op=1,
                                                 attrs={"steps": 3}),
             Span("sweep", 2.0, 3.5, parent=0, op=1, attrs={"steps": 4}),
             Span("run", 5.0, 6.0, op=2)]
    layers = op_layers(spans)
    assert layers[1]["run"]["self_s"] == pytest.approx(1.5)
    assert layers[1]["sweep"]["calls"] == 2
    assert layers[1]["sweep"]["total_s"] == pytest.approx(2.5)
    assert [a["steps"] for a in layers[1]["sweep"]["attrs"]] == [3, 4]
    assert layers[2]["run"]["calls"] == 1


def test_missing_hook_is_recorded_absent_and_hooks_come_off():
    mod = types.ModuleType("fake_engine")

    class Pricer:
        def spread(self, x):
            return 2 * x

    def sweep(n):
        return n + 1

    mod.Pricer, mod.sweep = Pricer, sweep
    sys.modules["fake_engine"] = mod
    try:
        tracer = Tracer()
        tracer.install([Hook("fake_engine:sweep", "pde.sweep", lambda a, r: {"n": a["n"]}),
                        Hook("fake_engine:Pricer.spread", "pricing.spread"),
                        Hook("fake_engine:rk4_march", "pde.rk4_march"),
                        Hook("fake_engine:Pricer.solve_w", "pricing.solve_w"),
                        Hook("no_such_module:f", "x.f")])
        with tracer.span("cli.run"):
            assert mod.sweep(2) == 3
            assert Pricer().spread(3) == 6
        tracer.uninstall()
        assert mod.sweep is sweep and "spread" in vars(Pricer)
        assert Pricer.spread(None, 1) == 2
    finally:
        del sys.modules["fake_engine"]
    assert tracer.absent == ["fake_engine:rk4_march", "fake_engine:Pricer.solve_w",
                             "no_such_module:f"]
    names = [s.name for s in tracer.spans]
    assert names == ["cli.run", "pde.sweep", "pricing.spread"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].attrs == {"n": 2}


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == pytest.approx(75.0)


def _worker(traced: bool) -> dict:
    ops = [{"index": 0, "traced": False, "seconds": 1.0, "error": None,
            "outputs": {"pde_bps": 100.0, "mc_bps": 102.0, "mc_se_bps": 1.0}}]
    tracer = Tracer()
    for i in range(1, 5):
        tracer.op = i
        with tracer.span("cli.run"):
            with tracer.span("pde.rk4_sweep") as s:
                s.attrs.update(steps=120, spmv=480, spmv_flop=1, spmv_bytes=1)
            with tracer.span("pricing.domestic_spread") as s:
                s.attrs.update(method="pde4d", contract="k")
            with tracer.span("oracles.mc_spread") as s:
                s.attrs.update(paths=10, path_steps=2400, normals_bytes_per_block=8)
        ops.append({"index": i, "traced": traced and i % 2 == 1, "seconds": 0.5 + i,
                    "error": None,
                    "outputs": {"pde_bps": 100.0, "mc_bps": 102.0, "mc_se_bps": 1.0}})
    layers = op_layers(tracer.spans)
    for op in ops:
        op["layers"] = layers.get(op["index"]) if op["traced"] else None
    return {"setup_s": 1.5, "ops": ops, "wall_s": 10.0, "rss_mb": 90.0, "absent": []}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(trace):
    if trace:
        values, _ = run.per_layer(_worker(True))
        spec, units = SPEC["per_layer"], run.PER_LAYER
    else:
        values, notes = run.end_to_end([_worker(False)] * 3)
        spec, units = SPEC["end_to_end"], run.END_TO_END
        assert any(n.startswith("mc_time_to_1bp_s = ") for n in notes)
    line = json.loads(json.dumps(run.result_line(values, units, _worker(False)["ops"])))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    if trace:
        assert line["metrics"]["pricing.domestic_unique_frac"]["value"] == 0.5
        assert line["metrics"]["pde.spmv"]["value"] == 480
        assert line["metrics"]["oracles.mc_pde_gap_se"]["value"] == 2.0


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
