"""One benchmark process.

Imports qmoments from the checkout's src/ in a fresh interpreter (so every
lru_cache starts empty), runs the operations listed in an ops file, and
appends one JSON line per event to the --out file:

  {"kind": "setup", "setup_s": ..., "cli_import_s": ..., "ref": [...]}
  {"kind": "op", "i": 0, "ok": true, "s": ..., "why": ""}   one per operation
  {"kind": "done", "wall_s": ..., "ref": [...]}
  {"kind": "trace", ...}                                     with --trace 1

"ref" holds times of the reference kernel (speed.py): right after set-up,
and every 0.1 s of the timed region, whose wall_s leaves out the time those
samples took.  Lines are flushed as they are written, so a process that is killed or dies
still leaves the operations it finished.

Usage: python3 child.py --ops OPS.json --out OUT.jsonl --trace 0|1 [--spans SPANS.json]
"""

import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REF_SAMPLES = 10


def parse_args(argv):
    opts = {"--trace": "0", "--spans": None}
    it = iter(argv)
    for flag in it:
        if flag not in ("--ops", "--out", "--trace", "--spans"):
            raise SystemExit("unknown argument %r" % (flag,))
        opts[flag] = next(it)
    if "--ops" not in opts or "--out" not in opts:
        raise SystemExit(__doc__)
    return opts


def main(argv):
    opts = parse_args(argv)
    spec = json.loads(Path(opts["--ops"]).read_text())
    with open(opts["--out"], "a", buffering=1) as out:
        run(spec, opts, lambda record: out.write(json.dumps(record) + "\n"))


def run(spec, opts, emit):
    """Import qmoments from SRC, run spec["ops"] and report each event through emit."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qmoments

    t1 = time.perf_counter()
    if not Path(qmoments.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("qmoments was imported from %s, not %s" % (qmoments.__file__, SRC))
    from qmoments.identities import load_manifest

    load_manifest()
    t2 = time.perf_counter()
    import qmoments.cli  # noqa: F401  (timed for cli.import_s)

    t3 = time.perf_counter()
    import speed

    emit({"kind": "setup", "setup_s": t2 - t0, "cli_import_s": (t1 - t0) + (t3 - t2),
          "ref": speed.sample(SETUP_REF_SAMPLES)})

    import workloads

    pinned = workloads.load_pinned()
    tracer = None
    if opts["--trace"] == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install_layers(tracer)

    workload = spec["workload"]
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        for i, op in enumerate(spec["ops"]):
            began = time.perf_counter()
            try:
                ok, why = workloads.run_op(workload, op, pinned)
            except Exception:  # one failed operation must not stop the batch
                ok, why = False, traceback.format_exc(limit=3)
            emit({"kind": "op", "i": i, "ok": ok, "s": time.perf_counter() - began,
                  "why": why})
        wall = time.perf_counter() - start
    emit({"kind": "done", "wall_s": wall - sampler.spent, "ref": sampler.samples})

    if tracer is not None:
        tracer.restore()
        if opts["--spans"]:
            Path(opts["--spans"]).write_text(json.dumps(tracer.spans))
        emit({"kind": "trace", **tracer.summary()})


if __name__ == "__main__":
    main(sys.argv[1:])
