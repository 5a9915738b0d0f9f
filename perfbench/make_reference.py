"""Regenerate perfbench/highdim_reference.json.

    python3 perfbench/make_reference.py

For every highdim seed class it runs ``galns simulate`` on the benchmark's
config and stores the end state.  It also integrates each case again at a
tenth of the tolerance and records the H distance between the two end
states, the scale against which workloads.HIGHDIM_REL_TOL is set.  Run it
only on a commit whose simulate output is trusted; the benchmark then
checks later commits against it.
"""

import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from galns import cli  # noqa: E402


def end_state(cfg, outdir):
    path = os.path.join(outdir, "simulate.json")
    os.makedirs(outdir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(outdir, "out")
    if cli.main(["--out", out, "simulate", "--config", path]) != 0:
        raise SystemExit("simulate failed for %s" % path)
    modes, _, states = wl.load_trajectory(out)
    return modes, states[-1]


def main():
    work = os.path.join(ROOT, ".bench_out", "reference")
    ref = {"modes": None, "end_states": {}, "tighter_tol_rel_distance": {}}
    for v in range(wl.N_VARIANTS):
        cfg = wl.highdim_config(v)
        modes, y = end_state(cfg, os.path.join(work, str(v)))
        cfg["tol"] = cfg["tol"] / 10
        _, y_fine = end_state(cfg, os.path.join(work, "%d-fine" % v))
        w = wl._h_weights(modes)
        rel = math.sqrt(float((y - y_fine) ** 2 @ w)) \
            / math.sqrt(float(y ** 2 @ w))
        ref["modes"] = [list(k) for k in modes]
        ref["end_states"][str(v)] = [float(x) for x in y]
        ref["tighter_tol_rel_distance"][str(v)] = rel
        print("variant %d: |y(T)|_H = %.6g, rel distance to tol/10 run %.3g"
              % (v, math.sqrt(float(y ** 2 @ w)), rel), flush=True)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    print("wrote %s (max rel distance %.3g, allowed %.3g)"
          % (wl.REFERENCE, max(ref["tighter_tol_rel_distance"].values()),
             wl.HIGHDIM_REL_TOL))


if __name__ == "__main__":
    main()
