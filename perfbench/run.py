"""galns benchmark: time to a verified answer, set-up time and memory per
workload, and a traced run that breaks the time down by layer.

    python3 perfbench/run.py --workload covering --seed 1 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes
    python3 perfbench/run.py --self-check       # seed-1 counts, fidelity

Each repetition runs in a fresh single process (``perfbench/worker.py``)
that imports galns from ``src/`` of this checkout.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import NOMINAL_OPS, WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".bench_out")
SEED_COUNTS = os.path.join(HERE, "seed_counts.json")
RUN_LIMIT_S = 170.0      # every run must end within 180 s
SETUP_PROBES = 2         # set-up-only repetitions per untraced run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "failed_frac": "1", "trace.overhead_s": "s",
         "dynamics.rhs_per_accepted_step": "1",
         "control.endpoint_map.p50_ms": "ms",
         "control.endpoint_map.p99_ms": "ms",
         "cli.output_bytes": "bytes", "dynamics.write_csv.bytes": "bytes"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def child_env():
    env = dict(os.environ)
    # GALERKIN_STEER_JOBS silently overrides --jobs in the CLI
    env.pop("GALERKIN_STEER_JOBS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    return env


class Runner:
    """Starts worker repetitions, each bounded by the run's deadline."""

    def __init__(self, workload, seed, tag):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(OUT, tag)
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def rep(self, mode):
        self.count += 1
        rep_dir = os.path.join(self.dir, "rep%d" % self.count)
        result_path = rep_dir + ".json"
        os.makedirs(rep_dir)
        log = open(rep_dir + ".log", "w")
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER, "--workload", self.workload,
             "--seed", str(self.seed), "--mode", mode, "--outdir", rep_dir,
             "--result", result_path],
            env=self.env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            log.close()
        rep = {"mode": mode, "exit": code}
        if code == 0 and os.path.exists(result_path):
            with open(result_path) as fh:
                rep.update(json.load(fh))
            rep["setup_s"] = rep["t_entry"] - t0 \
                if rep.get("t_entry") is not None else None
            if mode != "setup":
                rep["wall_s"] = rep["t_done"] - t0
                rep["peak_rss_mb"] = rep["peak_rss_kb"] / 1024.0
        else:
            with open(rep_dir + ".log") as fh:
                tail = fh.read()[-4000:]
            rep["errors"] = ["worker exited %d:\n%s" % (code, tail)]
            if mode != "setup":
                rep["attempted"] = rep["failed"] = NOMINAL_OPS[self.workload]
        if mode == "traced" and rep.get("spans"):
            keep = os.path.join(OUT, "spans-%s-seed%d.npz"
                                % (self.workload, self.seed))
            os.replace(rep["spans"], keep)
            rep["spans"] = os.path.relpath(keep, ROOT)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return rep

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def repeat_full(runner, until):
    """Full repetitions until the next one would end after ``until``
    (at least one)."""
    reps = []
    while True:
        reps.append(runner.rep("full"))
        longest = max(r.get("wall_s") or 0.0 for r in reps)
        now = time.monotonic()
        if now + longest > min(until, runner.deadline):
            return reps


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "galns")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload, seed, reps, env):
    versions = next((r["versions"] for r in reps if "versions" in r), None)
    return {
        "seed": seed, "seed_used": WORKLOADS[workload][2],
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "versions": versions, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {v: env.get(v) for v in BLAS_VARS},
        "GALERKIN_STEER_JOBS": env.get("GALERKIN_STEER_JOBS"),
    }


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns the full record."""
    start = time.monotonic()
    runner = Runner(workload, seed, "%s-seed%d-trace%d-%d"
                    % (workload, seed, trace, os.getpid()))
    try:
        if trace:
            # untraced repetitions for the overhead baseline, then one traced
            reps = repeat_full(runner, start + seconds / 2)
            traced = runner.rep("traced")
            probes = []
        else:
            probes = [runner.rep("setup") for _ in range(SETUP_PROBES)]
            reps = repeat_full(runner, start + seconds)
            traced = None
    finally:
        runner.close()

    full = reps + ([traced] if traced else [])
    errors = [e for r in probes + full for e in r.get("errors", [])]
    notes = [n for r in full for n in r.get("notes", [])]
    attempted = sum(r["attempted"] for r in full)
    failed = sum(r["failed"] for r in full)
    digests = {json.dumps(r.get("digests"), sort_keys=True) for r in full}
    if len(digests) != 1:
        notes.append("outputs differ between repetitions (traced vs "
                     "untraced or run to run)")

    stats = {}
    for key, samples in (
            ("wall_s", [r.get("wall_s") for r in reps]),
            ("setup_s", [r.get("setup_s") for r in probes + reps]),
            ("peak_rss_mb", [r.get("peak_rss_mb") for r in reps])):
        samples = [s for s in samples if s is not None]
        if samples:
            q1, med, q3 = quartiles(samples)
            stats[key] = {"median": med, "q1": q1, "q3": q3,
                          "min": min(samples), "n": len(samples),
                          "samples": samples}

    metrics = {k: v["median"] for k, v in stats.items()}
    if traced is not None:
        metrics = dict(traced.get("layers", {}))
        if "wall_s" in traced and "wall_s" in stats:
            metrics["trace.overhead_s"] = \
                traced["wall_s"] - stats["wall_s"]["median"]
        metrics["failed_frac"] = failed / attempted if attempted else 1.0

    return {
        "workload": workload, "trace": trace, "seconds": seconds,
        "elapsed_s": time.monotonic() - start,
        "correct": not errors and not notes and failed == 0,
        "attempted": attempted, "failed": failed,
        "stats": stats, "metrics": metrics, "errors": errors, "notes": notes,
        "counts": traced.get("layers") if traced else None,
        "spans": traced.get("spans") if traced else None,
        "env": environment(workload, seed, full, runner.env),
    }


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def result_line(record, declared):
    """The final JSON object, or an error if a declared metric is missing
    or has another unit."""
    missing = [n for n in declared if n not in record["metrics"]]
    wrong = [n for n, u in declared.items() if unit_of(n) != u]
    if missing or wrong:
        raise SystemExit("benchmark self-check failed: missing metrics %s, "
                         "unit mismatch %s" % (missing, wrong))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": record["metrics"][n], "unit": u}
                        for n, u in declared.items()}}


def summary(record):
    lines = ["# workload=%s trace=%d elapsed=%.1fs correct=%s attempted=%d "
             "failed=%d" % (record["workload"], record["trace"],
                            record["elapsed_s"], record["correct"],
                            record["attempted"], record["failed"]),
             "# env " + json.dumps(record["env"], sort_keys=True)]
    for key, s in record["stats"].items():
        lines.append("# %-12s median %.4f %s  q1 %.4f  q3 %.4f  n=%d"
                     % (key, s["median"], unit_of(key), s["q1"], s["q3"],
                        s["n"]))
    if record["trace"]:
        for name in sorted(record["metrics"]):
            lines.append("# %-44s %14.6g %s" % (name, record["metrics"][name],
                                                unit_of(name)))
    for text in record["notes"] + record["errors"]:
        lines.append("# FAIL " + text.replace("\n", "\n#   "))
    return "\n".join(lines)


def save(record):
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                        % (record["workload"], record["env"]["seed"],
                           record["trace"]))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def self_check(workloads, declared, record=False):
    """Seed-1 traced counts must equal the stored ones (valid at the commit
    that recorded them), traced and untraced outputs must agree, and every
    declared metric must be produced.  With ``record`` the counts are
    stored instead of compared (the other workloads' counts are kept)."""
    with open(SEED_COUNTS) as fh:
        expected = json.load(fh)
    ok = True
    for wl in workloads:
        rec = measure(wl, 1, 0.0, 1)
        save(rec)
        print(summary(rec))
        result_line(rec, declared)
        ok &= rec["correct"]
        counts = {n: v for n, v in (rec["counts"] or {}).items()
                  if unit_of(n) == "count"}
        if record:
            expected[wl] = counts
            continue
        for name, want in expected[wl].items():
            got = counts.get(name)
            ok &= got == want
            print("%-10s %-44s expected %10s got %10s %s"
                  % (wl, name, want, got, "ok" if got == want else "MISMATCH"))
    if record and ok:
        with open(SEED_COUNTS, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="with --self-check: store the seed-1 counts")
    args = ap.parse_args()
    # turn SIGTERM into SystemExit so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "galns", "__init__.py")):
        print("error: no galns source tree at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = args.seconds if args.seconds is not None \
            else json.load(fh)["run_seconds"]
    end_to_end, per_layer = declared_metrics()
    os.makedirs(OUT, exist_ok=True)
    workloads = sorted(WORKLOADS) if args.workload == "all" \
        else [args.workload]

    if args.self_check:
        return self_check(workloads, per_layer, args.record)

    if args.workload != "all":
        rec = measure(args.workload, args.seed, seconds, args.trace)
        save(rec)
        line = result_line(rec, per_layer if args.trace else end_to_end)
        print(summary(rec))
        print(json.dumps(line))
        return 0 if rec["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in workloads:
        for trace in (0, 1):
            rec = measure(wl, args.seed, seconds, trace)
            save(rec)
            line = result_line(rec, per_layer if trace else end_to_end)
            print(summary(rec))
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            for name, m in line["metrics"].items():
                combined["metrics"]["%s/%s" % (wl, name)] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
