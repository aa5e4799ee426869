"""kdual benchmark: time to a checked answer, end to end and per layer.

    python3 perfbench/run.py --workload {lattice,rewrite} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports kdual from ./src.
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full record of the run, which is
also written to perfbench/out/.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up processes and cold `verify all` processes are spread evenly over
# the run, so that their medians see the same machine as the ops do.
PROBE_SAMPLES = 15
CHILD_TIMEOUT = 60  # seconds before a child process is killed

# exactly what the `kdual` console script runs
VERIFY_ARGV = ["-c", "import sys\nfrom kdual.cli import main\nsys.exit(main())",
               "--format", "json", "verify", "all"]

WORKLOADS = ("lattice", "rewrite")
UNITS = {"setup_s": "s", "verify_all_s": "s", "ops_per_s": "1/s",
         "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def spawn(args):
    """Run the interpreter on args in a fresh process; (wall seconds, result)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("KDUAL_GOLDEN_DIR", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child {args[:2]} ran over {CHILD_TIMEOUT} s") from None
    return time.perf_counter() - start, proc


def child_json(args):
    _, proc = spawn(args)
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[:2]} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds():
    """import kdual plus build_ring for every built-in ring, in a fresh process."""
    return child_json([str(HERE / "child.py"), "setup"])


def cold_verify(expected_ids):
    """One cold `kdual --format json verify all`: (wall seconds, answer ok)."""
    import workloads

    seconds, proc = spawn(VERIFY_ARGV)
    return seconds, workloads.verify_report_ok(proc.returncode, proc.stdout, expected_ids)


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics


def measure(workload, seed, seconds):
    """Every timing is scaled to the reference speed (see speed.py); the
    record keeps the unscaled medians and the scale factors too."""
    import speed as speeds
    import workloads

    expected_ids = workloads.expected_check_ids()
    context = workloads.make_context(workload)
    setup, verify, passes = [], [], []
    raw_setup, raw_verify = [], []
    attempted = failed = 0
    speed = speeds.Speed()
    start = time.perf_counter()

    def probe(due):
        while len(setup) < due:
            speed.mark()
            raw_setup.append(setup_seconds())
            setup.append(raw_setup[-1] * speed.factor())
        while len(verify) < due:
            speed.mark()
            raw, ok = cold_verify(expected_ids)
            raw_verify.append(raw)
            verify.append((raw * speed.factor(), ok))

    while not passes or time.perf_counter() - start < seconds:
        probe(min(PROBE_SAMPLES, 1 + int(PROBE_SAMPLES * (time.perf_counter() - start) / seconds)))
        ops = workloads.generate(workload, seed, len(passes), context)
        checker = workloads.Checker(context)
        speed.mark()
        passes.append(workloads.run_pass(ops, checker, speed=speed))
        attempted += len(ops)
        failed += checker.failed
    probe(PROBE_SAMPLES)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted += len(verify)
    failed += sum(1 for _, ok in verify if not ok)

    latencies = [s for p in passes for s in p]
    values = {
        "setup_s": statistics.median(setup),
        "verify_all_s": statistics.median(s for s, _ in verify),
        "ops_per_s": statistics.median(len(p) / sum(p) for p in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_mb,
    }
    samples = {"setup_s": len(setup), "verify_all_s": len(verify), "ops_per_s": len(passes),
               "op_p50_ms": len(latencies), "op_p90_ms": len(latencies), "peak_rss_mb": 1}
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    factors = speed.factors
    detail = {"samples": samples, "passes": len(passes),
              "speed": {"nominal_s": speeds.NOMINAL_S, "factors": len(factors),
                        "factor_p25_p50_p75": statistics.quantiles(factors, n=4),
                        "unscaled_setup_s": statistics.median(raw_setup),
                        "unscaled_verify_all_s": statistics.median(raw_verify)}}
    return metrics, attempted, failed, detail


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics


def trace(workload, seed, seconds):
    """Fresh workers, alternately traced and untraced, each running a cold
    in-process `verify all` and then one pass of the workload.  The cold
    `verify all` gives every layer spans on every workload."""
    import tracer as tracing

    for old in OUT.glob(f"spans-{workload}-{seed}-*.json.gz"):
        old.unlink()
    traced, untraced = [], []
    start = time.perf_counter()
    index = 0
    while index < 2 or index % 2 or time.perf_counter() - start < seconds:
        is_traced = index % 2 == 0
        spans = OUT / f"spans-{workload}-{seed}-{index}.json.gz"
        summary = child_json([str(HERE / "child.py"), "pass", workload, str(seed), str(index),
                              repr(time.perf_counter()), str(spans), str(int(is_traced))])
        (traced if is_traced else untraced).append(summary)
        index += 1

    def median(values):
        return statistics.median(list(values))

    def ops_per_s(summary):
        return len(summary["op_seconds"]) / sum(summary["op_seconds"])

    values = {}
    for name in tracing.span_names():
        values[f"{name}.calls"] = (median(s["layers"].get(name, [0])[0] for s in traced), "count")
        values[f"{name}.self_s"] = (median(s["layers"].get(name, [0, 0.0])[1] for s in traced), "s")
    for key in traced[0]["stats"]:
        unit = "s" if key.endswith("_s") else "count"
        values[key] = (median(s["stats"][key] for s in traced), unit)
    traced_rate = median(ops_per_s(s) for s in traced)
    values["trace.ops_per_s"] = (traced_rate, "1/s")
    values["trace.overhead_frac"] = (median(ops_per_s(s) for s in untraced) / traced_rate - 1,
                                     "ratio")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    modules = sorted({m for s in traced for m in s["op_shares"]})
    detail = {
        "workers": {"traced": len(traced), "untraced": len(untraced)},
        "op_self_share": {m: median(s["op_shares"].get(m, 0.0) for s in traced)
                          for m in modules},
        "verify_paper_rings_tduality_share": median(s["verify_share"] for s in traced),
        "spans": sorted(str(p.relative_to(ROOT)) for p in OUT.glob(f"spans-{workload}-{seed}-*")),
    }
    runs = traced + untraced
    return (metrics, sum(s["attempted"] for s in runs), sum(s["failed"] for s in runs), detail)


# ---------------------------------------------------------------------------
# provenance


def git_revision():
    """HEAD of the checkout, or None where the checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of every file under src/kdual, so a run names the code it timed
    even where there is no git revision."""
    digest = hashlib.sha256()
    package = SRC / "kdual"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kdual" / "__init__.py").is_file():
        print(f"no kdual sources under {SRC}; run from a kdual checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    import kdual

    if Path(kdual.__file__).resolve().parent != SRC / "kdual":
        print(f"imported kdual from {kdual.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    run = trace if args.trace else measure
    try:
        metrics, attempted, failed, detail = run(args.workload, args.seed, args.seconds)
    except BenchmarkError as err:
        print(err, file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "source_sha256": source_sha256(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "ops": attempted,
        "failed_frac": failed / attempted, **detail, "metrics": metrics,
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
