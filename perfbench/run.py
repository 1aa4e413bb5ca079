#!/usr/bin/env python3
"""qmoments benchmark runner.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a qmoments checkout.  Workloads (closed loop, one
client, one child process at a time):

  verify-symbolic  the 13 symbolic-exact manifest cases through identities.verify
  verify-series    the 29 truncated-series and random-point manifest cases
  oracle           a seeded draw of brute-force group queries vs closed forms
  cli-cold         about 100 `python -m qmoments.cli` calls, one process each

With --trace 0 the run repeats batches of the workload, each in a fresh
interpreter, for about --seconds seconds and reports the end-to-end metrics,
every time at reference speed (see speed.py): measured seconds scaled by a
reference timed alongside, so that the host's changing speed cancels out.
With --trace 1 it runs one untraced and one traced batch of the same
operations and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it show
every metric by name and unit, with its sample count, and the machine facts.
A full report and the spans of traced runs are written to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = SRC / "qmoments" / "data" / "manifest.json"
OUT = HERE / "out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

DEADLINE_S = 170.0  # the whole invocation ends well inside 180 s
CHILD_LIMIT_S = 120.0  # one batch process
CLI_CALL_LIMIT_S = 30.0  # one cli-cold call
SETUP_PROBES = 4  # set-up-only processes before each batch and after the last
CLI_REF_SAMPLES = 2  # reference-kernel samples of a child that left none
CLI_REF_WINDOW = 2  # a cli-cold call is scaled by the references of the calls 2 either side
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, q=90, beyond=10):
    """The q-th percentile if at least `beyond` samples lie above it, else the
    highest percentile that has that many above it, else the median."""
    highest = 100.0 * (1 - beyond / len(values)) if values else 0.0
    return percentile(values, max(50.0, min(q, highest)))


def fail_frac(attempted, failed):
    """Failed operations over attempted ones; a run that attempted nothing failed."""
    return failed / attempted if attempted else 1.0


def describe(values, unit):
    """Median with quartiles and the sample count behind it."""
    return {
        "value": percentile(values, 50),
        "unit": unit,
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "samples": len(values),
    }


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    timed_out: bool


def run_process(argv, stdout_path, stderr_path, limit_s):
    """Run one child to completion or kill it at limit_s; always reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QMOMENTS_MAX_GROUP_ORDER", None)
    expired = []
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)

        def expire():
            expired.append(True)
            proc.kill()

        timer = threading.Timer(max(limit_s, 0.1), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, bool(expired))


def read_records(path):
    records = []
    if not path.exists():
        return records
    for line in path.read_text().splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            break  # a line cut off by a killed process
    return records


def stderr_tail(path, lines=3):
    text = path.read_text(errors="replace").strip() if path.exists() else ""
    return " | ".join(text.splitlines()[-lines:])


@dataclass
class Batch:
    wall_s: float  # the timed region, as measured
    calls: list = field(default_factory=list)  # wall time of each process, start to exit
    ref: list = field(default_factory=list)  # reference times taken during the batch
    ref_nominal: float = speed.REF_NOMINAL_S  # the reference's usual time
    ref_per_call: bool = False  # ref[i] was taken just before calls[i]
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)  # as measured
    setup_ref_s: list = field(default_factory=list)  # setup_s at reference speed
    cli_import_s: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def run_child(spec, tag, trace, limit_s):
    """Run one child over spec["ops"]; unfinished operations count as failed."""
    ops_path = OUT / ("ops-%s.json" % tag)
    out_path = OUT / ("child-%s.jsonl" % tag)
    spans_path = OUT / ("spans-%s.json" % tag)
    ops_path.write_text(json.dumps(spec))
    for p in (out_path, spans_path):
        if p.exists():
            p.unlink()
    argv = [sys.executable, str(CHILD), "--ops", str(ops_path), "--out", str(out_path),
            "--trace", "1" if trace else "0", "--spans", str(spans_path)]
    proc = run_process(argv, OUT / ("stdout-%s.txt" % tag), OUT / ("stderr-%s.txt" % tag),
                       limit_s)
    records = read_records(out_path)
    done = [r for r in records if r["kind"] == "done"]
    batch = Batch(wall_s=done[0]["wall_s"] if done else proc.wall_s,
                  ref=done[0]["ref"] if done else [])
    batch.calls.append(proc.wall_s)
    batch.rss_mb.append(proc.rss_mb)
    finished = {r["i"]: r for r in records if r["kind"] == "op"}
    for r in records:
        if r["kind"] == "setup":
            batch.setup_s.append(r["setup_s"])
            batch.setup_ref_s.append(r["setup_s"] * speed.factor(r["ref"]))
            batch.cli_import_s.append(r["cli_import_s"])
        elif r["kind"] == "trace":
            batch.traces.append(r)
    if spans_path.exists():
        batch.spans.append(json.loads(spans_path.read_text()))
        spans_path.unlink()
    if proc.timed_out:
        why = "timed out after %.0f s" % limit_s
    else:
        why = "process exited %d: %s" % (proc.code, stderr_tail(OUT / ("stderr-%s.txt" % tag)))
    tally(batch, len(spec["ops"]), finished, why)
    return batch


def tally(batch, n_ops, finished, unfinished_why):
    """Count n_ops attempts; an op with no record, or a wrong answer, failed."""
    for i in range(n_ops):
        batch.attempted += 1
        r = finished.get(i)
        if r is None:
            batch.failed += 1
            batch.reasons.append("op %d unfinished: %s" % (i, unfinished_why))
        elif not r["ok"]:
            batch.failed += 1
            batch.reasons.append("op %d: %s" % (i, r["why"]))


def run_cli_batch(ops, trace, pinned, deadline):
    """cli-cold: every call is its own process; the timed region is the sum
    of the calls' wall times, start-up included."""
    batch = Batch(wall_s=0.0, ref_nominal=speed.REF_PROCESS_NOMINAL_S, ref_per_call=not trace)
    for i, op in enumerate(ops):
        batch.attempted += 1
        limit = min(CLI_CALL_LIMIT_S, deadline - time.monotonic())
        if limit <= 1.0:
            batch.failed += 1
            batch.reasons.append("call %d not started: out of time" % i)
            continue
        if trace:
            sub = run_child({"workload": "cli-cold", "ops": [op]}, "cli-traced", True, limit)
            batch.wall_s += sum(sub.calls)
            batch.calls.extend(sub.calls)
            batch.failed += sub.failed
            batch.reasons.extend(sub.reasons)
            batch.cli_import_s.extend(sub.cli_import_s)
            batch.traces.extend(sub.traces)
            batch.spans.extend(sub.spans)
            batch.rss_mb.extend(sub.rss_mb)
            continue
        stdout_path = OUT / "cli-call.out"
        stderr_path = OUT / "cli-call.err"
        ref = run_process([sys.executable, "-c", speed.REF_PROCESS_CODE], stdout_path,
                          stderr_path, limit)
        if ref.code == 0:
            batch.ref.append(ref.wall_s)
        else:
            batch.ref_per_call = False
        proc = run_process([sys.executable, "-m", "qmoments.cli"] + op["argv"],
                           stdout_path, stderr_path, limit)
        batch.wall_s += proc.wall_s
        batch.calls.append(proc.wall_s)
        batch.rss_mb.append(proc.rss_mb)
        if proc.timed_out:
            ok, why = False, "timed out after %.0f s" % limit
        else:
            ok, why = wl.check_cli(op["argv"], proc.code, stdout_path.read_text(), pinned)
        if not ok:
            batch.failed += 1
            batch.reasons.append("call %s: %s" % (" ".join(op["argv"]), why))
    return batch


def run_batch(workload, seed, index, trace, pinned, deadline):
    ops = wl.build_ops(workload, seed, index, MANIFEST)
    if workload == "cli-cold":
        return run_cli_batch(ops, trace, pinned, deadline)
    limit = min(CHILD_LIMIT_S, deadline - time.monotonic())
    tag = "%s-%s" % (workload, "traced" if trace else "plain")
    return run_child({"workload": workload, "ops": ops}, tag, trace, limit)


# ---------------------------------------------------------------------------
# machine facts


def machine_facts():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmoments").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,  # None in a checkout that is not a git repository
        "source_sha256": digest.hexdigest(),  # identifies the sources without git
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# runs


def preflight():
    """The checkout must hold the package sources; byte-compile them once."""
    if not (SRC / "qmoments" / "__init__.py").is_file() or not MANIFEST.is_file():
        sys.stderr.write("error: no qmoments sources under %s\n" % SRC)
        sys.exit(EXIT_USAGE)
    OUT.mkdir(exist_ok=True)
    built = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "qmoments")],
                           cwd=ROOT, capture_output=True, text=True, timeout=120)
    if built.returncode != 0:
        sys.stderr.write("error: byte-compiling qmoments failed\n%s" % built.stdout)
        sys.exit(EXIT_USAGE)


def setup_probes(deadline):
    """Set-up times at reference speed, and as measured."""
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        limit = min(CLI_CALL_LIMIT_S, deadline - time.monotonic())
        probe = run_child({"workload": "setup", "ops": []}, "setup", False, limit)
        times.extend(probe.setup_ref_s)
        raw.extend(probe.setup_s)
    return times, raw


def at_reference_speed(b):
    """The batch's timed region and call times at reference speed.

    A cli-cold call is scaled by the references taken around it, which
    follow the host through the batch; a batch child by all its samples."""
    if b.ref_per_call and len(b.ref) == len(b.calls):
        w = CLI_REF_WINDOW
        calls = [t * speed.factor(b.ref[max(0, i - w): i + w + 1], b.ref_nominal)
                 for i, t in enumerate(b.calls)]
        return sum(calls), calls
    f = speed.factor(b.ref, b.ref_nominal)
    return b.wall_s * f, [t * f for t in b.calls]


def e2e_run(workload, seed, seconds, pinned, deadline):
    # set-up probes run before every batch and after the last one, so they
    # sample the host over the whole run
    setups, setups_raw = [], []
    batches = []
    start = time.monotonic()
    while True:
        probed = setup_probes(deadline)
        setups += probed[0]
        setups_raw += probed[1]
        b = run_batch(workload, seed, len(batches), False, pinned, deadline)
        if not b.ref:  # no reference ran alongside, e.g. a child that died early
            b.ref, b.ref_nominal = speed.sample(CLI_REF_SAMPLES), speed.REF_NOMINAL_S
        batches.append(b)
        elapsed = time.monotonic() - start
        took = sum(b.calls)  # the next batch is expected to take as long
        if elapsed + took > seconds or time.monotonic() + took > deadline - 5:
            break
    probed = setup_probes(deadline)
    setups += probed[0] + [s for b in batches for s in b.setup_ref_s]
    setups_raw += probed[1] + [s for b in batches for s in b.setup_s]
    walls, calls = [], []
    for b in batches:
        wall, scaled = at_reference_speed(b)
        walls.append(wall)
        calls.extend(scaled)
    raw_calls = [t for b in batches for t in b.calls]
    metrics = {
        "wall_s": describe(walls, "s"),
        "setup_s": describe(setups, "s"),
        "peak_rss_mb": describe([r for b in batches for r in b.rss_mb], "MB"),
        "call_p50_s": {"value": percentile(calls, 50), "unit": "s", "samples": len(calls)},
        "call_p90_s": {"value": tail_percentile(calls), "unit": "s", "samples": len(calls)},
    }
    metrics["wall_s"]["measured"] = percentile([b.wall_s for b in batches], 50)
    metrics["setup_s"]["measured"] = percentile(setups_raw, 50)
    metrics["call_p50_s"]["measured"] = percentile(raw_calls, 50)
    metrics["call_p90_s"]["measured"] = tail_percentile(raw_calls)
    ref = [t for b in batches for t in b.ref]
    metrics["ref_s"] = {"value": statistics.fmean(ref), "unit": "s", "samples": len(ref),
                        "report_only": True, "per_batch": [b.ref for b in batches],
                        "calls_per_batch": [b.calls for b in batches]}
    return batches, metrics


def trace_run(workload, seed, pinned, deadline):
    plain = run_batch(workload, seed, 0, False, pinned, deadline)
    traced = run_batch(workload, seed, 0, True, pinned, deadline)
    merged = tracing.merge_summaries(traced.traces)
    cli_import = traced.cli_import_s or plain.cli_import_s or [0.0]
    values = tracing.layer_metrics(merged, statistics.median(cli_import),
                                   traced.wall_s, plain.wall_s)
    spans_path = OUT / ("spans-%s-seed%d.json" % (workload, seed))
    spans_path.write_text(json.dumps({"processes": traced.spans}))
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        metrics[name] = {"value": values[name], "unit": unit}
    metrics["cli.import_s"]["samples"] = len(cli_import)
    info = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": merged["spans"],
            "spans_dropped": merged["dropped"], "traced_processes": len(traced.traces)}
    (OUT / ("trace-%s.json" % workload)).write_text(json.dumps(
        {"seed": seed, "overhead_s": values["trace.overhead_s"],
         "traced_wall_s": traced.wall_s, "untraced_wall_s": plain.wall_s}))
    return [plain, traced], metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    preflight()
    pinned = wl.load_pinned()

    if args.trace:
        batches, metrics, info = trace_run(args.workload, args.seed, pinned, deadline)
    else:
        batches, metrics = e2e_run(args.workload, args.seed, args.seconds, pinned, deadline)
        info = {}
        last_trace = OUT / ("trace-%s.json" % args.workload)
        info["trace_overhead_s"] = (json.loads(last_trace.read_text())["overhead_s"]
                                    if last_trace.exists() else None)

    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "batches": len(batches),
        "machine": machine_facts(),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac(attempted, failed),
        "failures": [r for b in batches for r in b.reasons][:20],
        "metrics": metrics,
        **info,
    }
    tag = "%s-trace%d-seed%d" % (args.workload, args.trace, args.seed)
    (OUT / ("result-%s.json" % tag)).write_text(json.dumps(report, indent=2))

    for name, m in metrics.items():
        extra = " (n=%d)" % m["samples"] if "samples" in m else ""
        if "q1" in m:
            extra = " [q1 %.6g, q3 %.6g]%s" % (m["q1"], m["q3"], extra)
        if "measured" in m:
            extra += " measured %.6g" % m["measured"]
        print("%-40s %14.6g %-6s%s" % (name, m["value"], m["unit"], extra))
    print("%-40s %14.6g %-6s (%d of %d operations)" % (
        "fail_frac", report["fail_frac"], "1", failed, attempted))
    for reason in report["failures"]:
        print("FAILED " + reason)
    print(json.dumps({k: v for k, v in report.items() if k not in ("metrics",)}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()
                    if not m.get("report_only")},
    }))


if __name__ == "__main__":
    main()
