"""Tests of the benchmark itself: the tracer, the checks and the metric list."""

import json
import math
from pathlib import Path

import pytest

from openmaps import cli_io
from perfbench import layers, run
from perfbench.tracer import Tracer
from perfbench.workloads import D_H, REPRODUCE, Pass, WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_tracer_sees_calls_made_through_cli_main(tmp_path):
    config = tmp_path / "dimension.ini"
    config.write_text("[map]\na = 3\nalphabet = 0,2\n[dimension]\ndepths = 2,3,4\n")
    original = cli_io.main
    tracer = Tracer(keys=layers.KEYS)
    with tracer.installed():
        assert cli_io.main is not original
        code = cli_io.main(["dimension", "--config", str(config),
                            "--out", str(tmp_path / "out"), "--format", "all"])
    assert code == 0
    assert cli_io.main is original

    names = [s.name for s in tracer.spans]
    main = names.index("cli_io.main")
    assert tracer.spans[main].key == "dimension"
    assert tracer.spans[main].parent == -1

    def under_main(span):
        while span.parent >= 0:
            if span.parent == main:
                return True
            span = tracer.spans[span.parent]
        return False

    # cli_io binds both by `from ... import`, so only wrapping every
    # namespace catches these calls
    for name in ("symbolic_pressure.bowen_dimension", "baker_classical.cylinder_table"):
        assert any(s.name == name and under_main(s) for s in tracer.spans), name
    # bowen_dimension's own calls to pressure go through its module globals
    assert "symbolic_pressure.pressure" in names
    assert sum(tracer.self_times()) == pytest.approx(tracer.top_level_s())

    metrics = layers.layer_metrics(tracer, 1.0, 1.0, 1.0, 0)
    assert metrics["cli_io.main.dimension.self_s"] > 0
    assert metrics["baker_classical.cylinder_table.self_s"] > 0


def _good_values(workload):
    h = 1.0 / (2.0 * math.pi * 3 ** 7)
    if workload == "reproduce":
        values = {f"{sub}.exit": 0 for _, _, sub in REPRODUCE}
        values.update(dimension=D_H, weyl_05_slope=D_H - 0.05,
                      weyl_09_slope=D_H - 0.10, trace_exponent=D_H,
                      spectrum_N=243, spectrum_count=243)
        return values
    if workload == "damped_2187":
        return {"h": h, "edge_distance": 0.0,
                "edge_w": [math.exp(-0.5 * n) for n in range(4)],
                "far_distance": 2.0 * h ** 0.4,
                "far_w": [1.0] * 8 + [h ** 3]}
    return {"gamma_cl": 0.40, "mc_rate": 0.41, "bowen": 0.62, "box": 0.60}


# (workload, value, corrupted value, operation whose check must fail)
CORRUPTIONS = [
    ("reproduce", "trace.exit", 1, "trace"),
    ("reproduce", "dimension", D_H + 1e-3, "dimension"),
    ("reproduce", "weyl_05_slope", D_H + 0.2, "weyl_nu_05"),
    ("reproduce", "weyl_09_slope", D_H + 0.2, "weyl_nu_09"),
    ("reproduce", "trace_exponent", D_H + 0.2, "trace"),
    ("reproduce", "spectrum_count", 242, "spectrum"),
    ("reproduce", "dimension", None, "dimension"),
    ("damped_2187", "edge_distance", 1e-3, "edge"),
    ("damped_2187", "edge_w", [1.0, 1.0, 1.0, 1.0], "edge"),
    ("damped_2187", "far_distance", 1e-3, "far"),
    ("damped_2187", "far_w", [1.0] * 9, "far"),
    ("billiard_3disk", "mc_rate", 0.44, "escape_rate_mc"),
    ("billiard_3disk", "box", 0.70, "trapped_box_dimension"),
    ("billiard_3disk", "mc_rate", None, "escape_rate_mc"),
]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_pass_on_good_values(workload):
    checks = WORKLOADS[workload].check(_good_values(workload))
    assert checks and all(ok for _, _, ok in checks)


@pytest.mark.parametrize("workload,key,bad,op", CORRUPTIONS)
def test_checks_fail_on_a_corrupted_value(workload, key, bad, op):
    values = _good_values(workload)
    values[key] = bad
    checks = WORKLOADS[workload].check(values)
    assert Pass().failed(checks) == {op}


def test_a_raising_call_is_a_failed_operation():
    p = Pass()
    assert p.op("boom", lambda: 1 / 0) is None
    assert p.op("fine", lambda: 1) == 1
    assert p.ops == ["boom", "fine"]
    assert p.failed([("fine", "ok", True)]) == {"boom"}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]
