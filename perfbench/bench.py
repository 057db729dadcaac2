"""Measurement loop, traced re-run and report for perfbench/run.py."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy
import scipy
import tofdefog

import scenes
import spans
from workloads import WORKLOADS, frame_dir

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

# fresh processes timed per run for setup_s; the median is reported
SETUP_PROBES = 5

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed but not gated: quality depends on the frames the seed draws, and
# fail_ratio is 0 on a correct program; failed ops are gated through
# the result's `failed` count
QUALITY = {
    "depth_err_mm": "mm",
    "mask_iou": "1",
    "fail_ratio": "1",
}
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TOFDEFOG_THREADS")


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.dirname(tofdefog.__file__)):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k, "unset") for k in ENV_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it; the max below 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def probe_setup(workload_name: str, frame: str, out: str):
    """Body of a setup probe process: one warm-up op on the tiny frame."""
    if WORKLOADS[workload_name].tiny().op(frame, out) != 0:
        raise BenchError("warm-up op failed")


def setup_seconds(workload, tiny_frame: str, work: str) -> list[float]:
    """Package import plus one warm-up op, each timed in a fresh interpreter."""
    samples = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload.name,
             "--setup-probe", tiny_frame, os.path.join(work, f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe exited with {proc.returncode}:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_ops(workload, frames, work, count=None, seconds=None, tracer=None) -> list[dict]:
    """Closed loop over the frames: `count` ops, or until `seconds` have passed."""
    records = []
    out = os.path.join(work, "result")
    started = time.perf_counter()
    while True:
        i = len(records)
        frame = frames[i % len(frames)]
        path = frame_dir(os.path.join(work, "frames"), i % len(frames))
        shutil.rmtree(out, ignore_errors=True)
        record = {"op": i, "frame": i % len(frames)}
        check = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = workload.op(path, out)
            else:
                with tracer.operation(i):
                    code = workload.op(path, out)
            record["s"] = time.perf_counter() - t0
            record["exit"] = code
            if code == 0:
                check = workload.check(frame, out)
        except Exception:  # a failed op is counted, and the loop goes on
            record.setdefault("s", time.perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
        record["ok"] = check is not None and check.ok
        if check is not None:
            record.update(hashes=check.hashes, quality=check.quality, cg_iters=check.cg_iters)
        records.append(record)
        if count is not None and len(records) >= count:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
    return records


def traced_phase(workload, frames, work, untraced: list[dict]):
    """Repeat the untraced ops with every layer wrapped.

    Returns the records, the per-layer metrics (medians over ops), the
    per-layer self-time table and the tracer.  A traced op fails when its
    outputs hash differently from its untraced twin, or when the traced
    CG count differs from the manifest's.
    """
    tracer = spans.Tracer()
    tracer.install()
    tracer.wrap(scenes, "cli_main", "cli.main")
    try:
        records = run_ops(workload, frames, work, count=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    per_op = [[s for s in tracer.spans if s.op == r["op"]] for r in records]
    values = [spans.op_layer_metrics(op_spans) for op_spans in per_op]
    for rec, twin, v in zip(records, untraced, values):
        problems = []
        if rec.get("hashes") != twin.get("hashes"):
            problems.append("traced outputs differ from untraced outputs")
        if rec.get("cg_iters") is not None and rec["cg_iters"] != v["irls.cg_iters"]:
            problems.append(f"traced CG {v['irls.cg_iters']} != manifest {rec['cg_iters']}")
        if problems:
            rec["ok"] = False
            rec["problems"] = problems
            print(f"traced op {rec['op']}: " + "; ".join(problems), file=sys.stderr)
    metrics = {name: statistics.median(v[name] for v in values)
               for name in spans.PER_LAYER if name != "trace.overhead"}
    metrics["trace.overhead"] = (statistics.median(r["s"] for r in records)
                                 / statistics.median(r["s"] for r in untraced) - 1.0)
    return records, metrics, spans.layer_self_table(per_op), tracer


def measure(workload, seed: int, seconds: float, trace: bool, work: str):
    """Run one workload; returns the result document and the tracer (or None)."""
    frames = workload.prepare(os.path.join(work, "frames"), seed)
    tiny = workload.tiny()
    tiny.prepare(os.path.join(work, "tiny"), seed)
    tiny_frame = frame_dir(os.path.join(work, "tiny"), 0)
    setup_samples = setup_seconds(workload, tiny_frame, work)
    if tiny.op(tiny_frame, os.path.join(work, "warmup")) != 0:
        raise BenchError("warm-up op failed")

    records = run_ops(workload, frames, work, seconds=seconds)
    times = [r["s"] for r in records]
    tail_s, tail_pct = tail(times)
    e2e = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "setup_s": statistics.median(setup_samples),
        "fail_ratio": sum(not r["ok"] for r in records) / len(records),
    }
    quality = [r["quality"] for r in records if "depth_err_mm" in r.get("quality", {})]
    if quality:
        for key in ("depth_err_mm", "mask_iou"):
            e2e[key] = statistics.fmean(q[key] for q in quality)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "loop": "closed, 1 client", "ops": len(records),
        "tail_percentile": tail_pct, "setup_samples_s": setup_samples,
        "end_to_end": e2e, "ops_detail": records,
    }
    attempted = list(records)
    tracer = None
    if trace:
        traced, per_layer, layer_self, tracer = traced_phase(workload, frames, work, records)
        attempted += traced
        result.update(per_layer=per_layer, layer_self_s=layer_self, traced_ops_detail=traced,
                      traced_op_s_p50=statistics.median(r["s"] for r in traced))
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = len(attempted)
    result["failed"] = sum(not r["ok"] for r in attempted)
    return result, tracer


def print_tables(result: dict):
    e2e = result["end_to_end"]
    print(f"workload {result['workload']}  seed {result['seed']}  {result['loop']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, unit in {**END_TO_END, **QUALITY}.items():
        if name in e2e:
            note = {"op_s.p50": f"  (ops={result['ops']})",
                    "op_s.tail": f"  (p{result['tail_percentile']:.0f})"}.get(name, "")
            print(f"  {name:<14} {e2e[name]:>12.6g} {unit}{note}")
    if "per_layer" not in result:
        return
    for name, unit in spans.PER_LAYER.items():
        print(f"  {name:<32} {result['per_layer'][name]:>12.6g} {unit}")
    layer_self = result["layer_self_s"]
    total = sum(layer_self.values())
    print(f"  layer self time, median per traced op: {total:.4g} thread-s in "
          f"{result['traced_op_s_p50']:.4g} s wall (traced op_s.p50)")
    for layer, value in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<10} {value:>10.4f} s  {100.0 * value / total:6.1f}%")


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if workload_name not in WORKLOADS:
        print(f"benchmark error: unknown workload {workload_name!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    origin = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        result, tracer = measure(WORKLOADS[workload_name], seed, seconds, trace, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print_tables(result)
    print("environment " + json.dumps(env, sort_keys=True))
    stem = os.path.join(OUT, f"{workload_name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_jsonl(stem + ".spans.jsonl", origin)
    print(json.dumps(summary(result, trace), sort_keys=True))
    return 0


def summary(result: dict, trace: bool) -> dict:
    """The final JSON line: end-to-end metrics, or per-layer ones when traced."""
    if trace:
        metrics = {n: {"value": result["per_layer"][n], "unit": u}
                   for n, u in spans.PER_LAYER.items()}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": u}
                   for n, u in END_TO_END.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
