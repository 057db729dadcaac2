"""Alternating benchmark pairs of two checkouts, and the BENCH_<n>.json record built from them.

    python3 tools/bench_pairs.py run PARENT WORKLOAD SEED SECONDS PAIRS DIR
    python3 tools/bench_pairs.py record RESULT DIR [DIR ...] > BENCH_<n>.json

`run` makes PAIRS pairs of untraced benchmark runs of WORKLOAD, each pair
one run of the checkout PARENT and one of this checkout, the parent's first
in odd pairs and second in even ones.  Both checkouts are first copied to
fresh directories of paths of one length, <tmp>/parent and <tmp>/change,
without their .git, __pycache__, runs/ and perfbench/out/, so that neither
side's numbers depend on where or in what state its checkout lies (peak RSS
follows the directory a run starts in).  Each run is perfbench/run.py with
the workload, seed and seconds given and tracing off, started from its
copy's root under the caller's environment (its BLAS thread variables
included).  The run's result file, perfbench/out/WORKLOAD-seedSEED-trace0.json,
is copied to DIR as parent-<i>.json or change-<i>.json for pair i.

`record` prints one JSON document.  From RESULT, an untraced perfbench
result file of this checkout, it keeps the environment, end_to_end,
ops_detail, setup_samples_s and tail_percentile.  Under "pairs" it adds one
entry per DIR: the workload, seed and seconds, the number of pairs, the
failed ops per side, and per end-to-end metric each side's median and
quartiles (statistics.quantiles, inclusive method) and the number of pairs
in which this checkout reads lower.  Its "outputs" entry checks byte
identity from the runs' ops_detail: the number of frames compared, and the
frames whose ops' output hashes and CG iteration counts take more than one
value over both sides' runs, so that a frame whose outputs vary within a
side or differ between the sides is listed.  A DIR of fewer than two pairs
exits with a message that names it.
"""

import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("op_s.p50", "op_s.tail", "setup_s", "peak_rss_mb")
KEPT = ("environment", "end_to_end", "ops_detail", "setup_samples_s", "tail_percentile")


def copy_checkout(root, dest):
    """Copy the checkout `root` to `dest`, leaving out what runs and git leave in it."""
    left_out = {os.path.join(root, ".git"), os.path.join(root, "runs"),
                os.path.join(root, "perfbench", "out")}
    shutil.copytree(root, dest, ignore=lambda directory, names: [
        name for name in names
        if name == "__pycache__" or os.path.join(directory, name) in left_out])


def run(parent, workload, seed, seconds, pairs, dest):
    os.makedirs(dest, exist_ok=True)
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", seed, "--seconds", seconds, "--trace", "0"]
    with tempfile.TemporaryDirectory() as tmp:
        copy_checkout(os.path.abspath(parent), os.path.join(tmp, "parent"))
        copy_checkout(ROOT, os.path.join(tmp, "change"))
        for i in range(1, int(pairs) + 1):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                copy = os.path.join(tmp, side)
                subprocess.run(argv, cwd=copy, check=True, stdout=subprocess.DEVNULL)
                shutil.copyfile(os.path.join(copy, "perfbench", "out",
                                             f"{workload}-seed{seed}-trace0.json"),
                                os.path.join(dest, f"{side}-{i}.json"))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def output_identity(runs):
    """The frames compared and those whose ops' (hashes, cg_iters) take more than one value."""
    outputs = {}
    for side_runs in runs.values():
        for result in side_runs:
            for op in result["ops_detail"]:  # a failed op has neither, and reads (None, None)
                outputs.setdefault(op["frame"], set()).add(
                    json.dumps([op.get("hashes"), op.get("cg_iters")], sort_keys=True))
    return {"frames": len(outputs),
            "differing_frames": sorted(frame for frame, seen in outputs.items() if len(seen) > 1)}


def pair_stats(dest):
    count = len(glob.glob(os.path.join(dest, "parent-*.json")))
    if count < 2:  # no quartiles of fewer values
        sys.exit(f"{dest}: {count} pair(s) found; record needs at least two, "
                 f"parent-1.json, change-1.json, parent-2.json and change-2.json")
    runs = {side: [load(os.path.join(dest, f"{side}-{i}.json")) for i in range(1, count + 1)]
            for side in ("parent", "change")}
    first = runs["change"][0]
    stats = {"workload": first["workload"], "seed": first["seed"], "seconds": first["seconds"],
             "pairs": count,
             "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
             "outputs": output_identity(runs)}
    for metric in METRICS:
        values = {side: [r["end_to_end"][metric] for r in rs] for side, rs in runs.items()}
        stats[metric] = {**{side: spread(v) for side, v in values.items()},
                         "change_lower_in": sum(c < p for p, c in zip(values["parent"],
                                                                      values["change"]))}
    return stats


def record(result, *dests):
    doc = load(result)
    out = {key: doc[key] for key in KEPT}
    out["pairs"] = [pair_stats(dest) for dest in dests]
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    if len(sys.argv) == 8 and sys.argv[1] == "run":
        run(*sys.argv[2:])
    elif len(sys.argv) >= 4 and sys.argv[1] == "record":
        record(*sys.argv[2:])
    else:
        sys.exit(__doc__)
