"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --mode M \
        --outdir DIR --result FILE

Modes: ``full`` runs the workload and checks its outputs; ``setup`` stops
at the first call into the workload's solve entry point; ``traced`` is
``full`` with every layer wrapped by the tracer, and also writes the spans.
The result (a JSON object) goes to FILE; times are CLOCK_MONOTONIC
readings so the parent can measure from before it started this process.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("full", "setup", "traced"))
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import galns.cli  # noqa: F401  (imports every galns module)
    import numpy
    import scipy

    pkg_dir = os.path.dirname(os.path.abspath(sys.modules["galns"].__file__))
    if pkg_dir != os.path.join(src, "galns"):
        raise SystemExit("galns imported from %s, not from %s"
                         % (pkg_dir, src))

    make_jobs, (entry_mod, entry_fn), _ = WORKLOADS[args.workload]
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(run_id=os.getpid())
        tracing.install(tracer)

    # probe the solve entry point: the first call ends set-up
    mod = importlib.import_module(entry_mod)
    entry = getattr(mod, entry_fn)
    state = {"t_entry": None}

    def probe(*a, **kw):
        if state["t_entry"] is None:
            state["t_entry"] = time.monotonic()
            if args.mode == "setup":
                result["t_entry"] = state["t_entry"]
                _write(args.result, result)
                sys.stdout.flush()
                os._exit(0)
        return entry(*a, **kw)

    tracing.rebind(entry, probe)

    os.makedirs(args.outdir, exist_ok=True)
    jobs = make_jobs(args.seed, args.outdir)
    handles = []
    errors = []
    for job in jobs:
        try:
            handles.append(job.run())
        except Exception:
            handles.append(None)
            errors.append("%s raised:\n%s"
                          % (job.name, traceback.format_exc()))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = failed = 0
    digests = {}
    notes = []
    for job, handle in zip(jobs, handles):
        if handle is None:
            attempted += job.nominal
            failed += job.nominal
            continue
        try:
            a, f, digest, job_notes = job.check(handle)
        except Exception:
            attempted += job.nominal
            failed += job.nominal
            errors.append("%s check raised:\n%s"
                          % (job.name, traceback.format_exc()))
            continue
        attempted += a
        failed += f
        digests[job.name] = digest
        notes += ["%s: %s" % (job.name, n) for n in job_notes]
    t_done = time.monotonic()

    result.update({
        "t_entry": state["t_entry"], "t_done": t_done,
        "peak_rss_kb": peak_kb, "attempted": attempted, "failed": failed,
        "digests": digests, "notes": notes, "errors": errors,
    })
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        spans = os.path.join(args.outdir, "spans.npz")
        tracer.write(spans)
        result["spans"] = spans
        result["n_spans"] = len(tracer.span_name)
    _write(args.result, result)


if __name__ == "__main__":
    main()
