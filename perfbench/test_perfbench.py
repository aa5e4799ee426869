"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from kdual import exact_abelian, graded_algebra, suites, tduality  # noqa: E402


@pytest.fixture(scope="module")
def rewrite_context():
    return workloads.make_context("rewrite")


def _sequence(workload, seed, index, context):
    return [repr(op) for op in workloads.generate(workload, seed, index, context)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_op_sequence(workload, rewrite_context):
    context = rewrite_context if workload == "rewrite" else None
    first = _sequence(workload, 7, 1, context)
    assert first == _sequence(workload, 7, 1, context)
    assert first != _sequence(workload, 8, 1, context)
    assert first != _sequence(workload, 7, 2, context)


def _ancestors(spans, index):
    names = []
    parent = spans[index][3]
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


def _traced(call):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.start_op(0, "test")
        call()
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    return tracer.spans


def test_tracer_sees_smith_normal_form_through_suites():
    # suites -> paper_rings.verify_f_injective, which binds
    # smith_normal_form with `from .exact_abelian import ...`
    spans = _traced(lambda: suites.run_suite("oracle"))
    assert any(name == "exact_abelian.smith_normal_form"
               and "suites.run_suite" in _ancestors(spans, i)
               for i, (name, *_) in enumerate(spans))


def test_tracer_sees_smith_normal_form_through_tduality():
    # tdual calls solve through tduality's own `from .exact_abelian import`
    pair = tduality.pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    spans = _traced(lambda: tduality.tdual(pair))
    assert any(name == "exact_abelian.smith_normal_form"
               and {"exact_abelian.solve", "tduality.tdual"} <= set(_ancestors(spans, i))
               for i, (name, *_) in enumerate(spans))


def test_uninstall_restores_every_binding():
    originals = (exact_abelian.smith_normal_form, tduality.solve,
                 graded_algebra.RingElement.__dict__["__rmul__"])
    tracer = tracing.Tracer()
    tracer.install()
    assert tduality.solve is not originals[1]
    assert graded_algebra.RingElement.__dict__["__rmul__"] is not originals[2]
    tracer.uninstall()
    assert (exact_abelian.smith_normal_form, tduality.solve,
            graded_algebra.RingElement.__dict__["__rmul__"]) == originals


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
             ["b", 5.0, 6.0, 0, 0]]
    assert tracing.layer_totals(spans) == {"a": [1, 6.0], "b": [2, 3.0], "c": [1, 1.0]}
    assert tracing.inclusive_seconds(spans, {"b", "c"}, 0) == 4.0


def _failed(ops, context=None):
    checker = workloads.Checker(context)
    workloads.run_pass(ops, checker)
    return checker.failed


def test_wrong_smith_form_is_a_failed_op(monkeypatch):
    ops = [op for op in workloads.lattice_pass(3, 0) if op.kind == "smith_normal_form"]
    assert _failed(ops) == 0
    original = exact_abelian.smith_normal_form

    def off_by_one(m):
        s = original(m)
        d = exact_abelian.IntegerMatrix(s.d.rows, s.d.cols, (s.d.entries[0] + 1,) + s.d.entries[1:])
        return exact_abelian.SmithDecomposition(s.u, d, s.v)

    monkeypatch.setattr(exact_abelian, "smith_normal_form", off_by_one)
    assert _failed(ops) == len(ops)


def test_wrong_product_is_a_failed_op(monkeypatch, rewrite_context):
    ops = [op for op in workloads.rewrite_pass(3, 0, rewrite_context)
           if op.kind in ("mul", "t_transform")]
    assert _failed(ops, rewrite_context) == 0
    original = graded_algebra.RingElement.__mul__
    monkeypatch.setattr(graded_algebra.RingElement, "__mul__",
                        lambda a, b: original(a, b) + original(a, a))
    assert _failed(ops, rewrite_context) > 0


def test_verify_report_check():
    ids = ["a", "b"]
    good = '{"checks": [{"id": "a", "status": "pass"}, {"id": "b", "status": "paper-asserted"}]}'
    assert workloads.verify_report_ok(0, good, ids)
    assert not workloads.verify_report_ok(1, good, ids)
    assert not workloads.verify_report_ok(0, good.replace('"b"', '"c"'), ids)
    assert not workloads.verify_report_ok(0, good.replace("paper-asserted", "fail"), ids)
    assert not workloads.verify_report_ok(0, "not json", ids)


def test_benchmark_json_lists_what_the_driver_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    per_layer = {f"{name}.{kind}" for name in tracing.span_names() for kind in ("calls", "self_s")}
    per_layer |= set(tracing.Tracer().stats) | {"trace.ops_per_s", "trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


class _FixedSpeed:
    """A speed.Speed stand-in: factors 2, 3, 4, ... and a segment start
    that is either always due (at = -inf) or never due (at = +inf)."""

    def __init__(self, at):
        self.at = at
        self.calls = 0

    def factor(self):
        self.calls += 1
        return 1.0 + self.calls


@pytest.mark.parametrize("at, expected", [(float("-inf"), [2.0, 3.0, 4.0]),
                                          (float("inf"), [2.0, 2.0, 2.0])])
def test_run_pass_scales_each_segment(monkeypatch, at, expected):
    ops = [op for op in workloads.lattice_pass(3, 0) if op.kind == "RModule"][:3]
    ticks = iter(range(10**6))  # each op takes one tick of this clock
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: float(next(ticks)))
    assert workloads.run_pass(ops, workloads.Checker(), speed=_FixedSpeed(at)) == expected
