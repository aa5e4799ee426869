"""Fresh-process roles of the benchmark; run.py starts these.

    python3 perfbench/child.py setup
        Imports kdual, then builds and certifies every ring in
        paper_rings.RING_NAMES.  Prints the seconds that took.

    python3 perfbench/child.py pass WORKLOAD SEED INDEX SPAWNED SPANS TRACE
        Runs `kdual --format json verify all` in-process through
        kdual.cli.main, cold, then pass INDEX of the workload.  SPAWNED is the parent's time.perf_counter() just
        before it started this process (the clock is system-wide).  With
        TRACE = 1 both run under the span tracer and the spans are written
        to the file SPANS.  Prints one JSON summary line.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup():
    start = time.perf_counter()
    from kdual import paper_rings

    for name in paper_rings.RING_NAMES:
        paper_rings.build_ring(name)
    print(repr(time.perf_counter() - start))


def one_pass(workload, seed, index, spawned, spans_path, trace):
    import kdual.cli

    imported = time.perf_counter()
    import contextlib
    import gzip
    import io
    import json

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.record(tracing.STARTUP, spawned, imported, "verify")
        span = tracer.start_op("verify", "verify")
    report = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(report):
        code = kdual.cli.main(["--format", "json", "verify", "all"])
    verify_s = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(span)
    verify_ok = workloads.verify_report_ok(code, report.getvalue(),
                                           workloads.expected_check_ids())
    context = workloads.make_context(workload)
    ops = workloads.generate(workload, seed, index, context)
    checker = workloads.Checker(context)
    op_seconds = workloads.run_pass(ops, checker, tracer)
    summary = {"attempted": 1 + len(ops), "failed": (not verify_ok) + checker.failed,
               "op_seconds": op_seconds}
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans
        summary["layers"] = tracing.layer_totals(spans)
        summary["stats"] = tracer.stats
        summary["op_shares"] = tracing.self_shares(spans, set(range(len(ops))))
        summary["verify_share"] = tracing.inclusive_seconds(
            spans, {"paper_rings", "tduality"}, "verify") / verify_s
        with gzip.open(spans_path, "wt") as out:
            json.dump(spans, out)
    print(json.dumps(summary))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup()
    else:
        workload, seed, index, spawned, spans_path, trace = sys.argv[2:8]
        one_pass(workload, int(seed), int(index), float(spawned), spans_path, trace == "1")
