"""Tests of the benchmark's own instruments: spans, layer metrics, digests, seeds.

    python3 -m pytest perfbench -q
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hmfx.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Spans of a small traced pass: a shooting solve and a GL sweep."""
    out = tmp_path_factory.mktemp("traced")
    original_main = hmfx.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "solve-corot"
        assert hmfx.cli.main(["solve-corot", "--out", str(out / "corot"),
                              "--set", "run.h_inf=0.2", "--set", "grid.r_max=20",
                              "--set", "tol.shoot=1e-4"]) == 0
        tracer.op = "sweep"
        assert hmfx.cli.main(["sweep", "--jobs", "1", "--out", str(out / "sweep"),
                              "--set", "run.sweep_command=solve-gl",
                              "--set", "run.K_ladder=1,10", "--set", "run.h_inf=0.1",
                              "--set", "grid.r_max=20"]) == 0
    finally:
        tracer.uninstall()
    assert hmfx.cli.main is original_main
    return tracer


def test_span_schema(traced):
    spans = traced.spans
    assert spans
    for i, s in enumerate(spans):
        assert tuple(s) == tracing.SPAN_KEYS
        assert s["id"] == i
        assert isinstance(s["name"], str) and s["op"] in ("solve-corot", "sweep")
        assert s["ok"] is True
        assert s["end"] >= s["start"]
        assert all(isinstance(v, (int, float)) for v in s["counters"].values())
    json.dumps(spans)  # the pass writes spans as JSON
    assert traced.overhead_s > 0.0


def test_parent_links_and_nesting(traced):
    spans = traced.spans
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main", "cli.main"]
    for s in spans:
        if s["parent"] is None:
            continue
        parent = spans[s["parent"]]
        assert parent["id"] < s["id"]
        assert parent["op"] == s["op"]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    # sweep children run in a worker thread and hang under the sweep's root
    gl = [s for s in spans if s["name"] == "corotational.solve_gl_corot"]
    assert len(gl) == 2
    assert all(spans[s["parent"]]["name"] == "cli.main" for s in gl)
    shots = [s for s in spans if s["name"] == "corotational.shoot_hm"]
    assert shots and all(spans[s["parent"]]["name"] == "corotational.solve_corot"
                         for s in shots)


def test_layer_metrics_cover_every_name(traced):
    metrics = tracing.layer_metrics(traced.spans, traced.overhead_s)
    assert list(metrics) == tracing.metric_names()
    assert metrics["cli.main.calls"] == 2
    assert metrics["corotational.solve_corot.calls"] == 1
    assert metrics["corotational.shots_per_solve"] == metrics["corotational.shoot_hm.calls"]
    assert metrics["corotational.gl_newton_iters"] >= 2
    assert metrics["corotational.solve_ivp.nfev"] > metrics["corotational.solve_ivp.steps"] > 0
    assert metrics["fields.csv_bytes"] > 0
    assert metrics["fixedpoint.8x16.op_s"] == 0.0
    assert all(v >= -1e-9 for v in tracing.self_times(traced.spans))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "c", "start": 3.0, "end": 6.0, "parent": 0},
        {"id": 3, "name": "d", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_benchmark_json_matches_the_instruments():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, *tracing.metric_unit(name)) for name in tracing.metric_names()]


def test_seed_draws_only_set_values():
    for workload in WORKLOADS:
        a, b = build_ops(workload, 1), build_ops(workload, 2)
        assert a == build_ops(workload, 1)
        assert [(op.id, op.command, op.limit_s) for op in a] == \
            [(op.id, op.command, op.limit_s) for op in b]
        assert [[s.split("=")[0] for s in op.sets] for op in a] == \
            [[s.split("=")[0] for s in op.sets] for op in b]


def test_digest_record_keys_on_op_arguments(tmp_path):
    a, b = build_ops("diagnose", 1)[0], build_ops("diagnose", 2)[0]
    record = run.DigestRecord(tmp_path / "digests.json", "code")
    assert record.check(a, {"x.csv": "1"})
    assert record.check(b, {"x.csv": "2"})
    record.save()
    again = run.DigestRecord(tmp_path / "digests.json", "code")
    assert again.check(a, {"x.csv": "1"})
    assert not again.check(a, {"x.csv": "3"})
    assert run.DigestRecord(tmp_path / "digests.json", "other code").check(a, {"x.csv": "3"})
