#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spincover CLI.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 1

``--trace 0`` times whole passes over the workload's op list with no
wrappers installed and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of stdout is the JSON result; the lines above it are a
readable summary.  End-to-end times are rescaled to a reference speed
measured next to each op (README.md, "Machine speed"); the raw times are
kept in the summary and the run record.  See perfbench/README.md for the
workloads and metrics.

Load model: a closed loop with one client.  Ops run back to back in this
process, with no threads.  Set-up time and peak memory are measured in
fresh child processes (this script with ``--child``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# Time metrics are rescaled to a machine on which reference_loop() takes
# this long; see "Machine speed" in README.md.
REFERENCE_LOOP_S = 0.02
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "apply", "doublegroup", "iso"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "rss"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reference_loop() -> int:
    """Fixed pure-Python work (Fraction arithmetic, dict and str) whose
    time tracks the speed this process is getting from the machine."""
    seen = {}
    for k in range(1, 2000):
        a = Fraction(k % 7 - 3, k % 5 + 1)
        b = Fraction(k % 11 - 5, k % 3 + 2)
        c = a * b + a - b
        seen[(k % 101, c)] = f"{c.numerator}/{c.denominator}"
    return len(seen)


def reference_s() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, *reference: float) -> float:
    """Rescale a measured time to a machine where the reference loop takes
    REFERENCE_LOOP_S, using the loop times measured around it."""
    return seconds * REFERENCE_LOOP_S / statistics.fmean(reference)


def run_pass(ops) -> dict:
    """One pass over the op list: per-op seconds and failure reasons.

    Only ``op.run`` is timed; checks run after it.  ``gc.collect()`` before
    each op keeps one op's garbage out of the next op's time.  The reference
    loop runs before the first op and after every op, so each op is
    bracketed by two speed readings.
    """
    raw, scaled, failures, checked = [], [], [], 0
    before = reference_s()
    readings = [before]
    for op in ops:
        gc.collect()
        start = time.perf_counter()
        try:
            code, out = op.run()
        except SystemExit as exc:
            code, out = exc.code, None
        except Exception:  # a crashing op is a failed op; the run goes on
            code, out = None, traceback.format_exc(limit=3)
        raw.append(time.perf_counter() - start)
        after = reference_s()
        readings.append(after)
        scaled.append(at_reference_speed(raw[-1], before, after))
        before = after
        if op.check is None:
            continue
        checked += 1
        try:
            reason = op.check(code, out)
        except Exception as exc:  # malformed output fails the check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return {"raw_op_s": raw, "op_s": scaled, "raw_wall_s": sum(raw), "wall_s": sum(scaled),
            "reference_s": readings, "checked": checked, "failures": failures}


def run_child(args: argparse.Namespace) -> int:
    """Set-up timing (and, for ``rss``, one unchecked pass) in a fresh process."""
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference_s()  # first call warms the loop up
        before = reference_s()
        start = time.perf_counter()
        import workloads  # imports spincover

        ops = workloads.WORKLOADS[args.workload](args.seed, workdir, False)
        raw = time.perf_counter() - start
        result = {"raw_setup_s": raw, "setup_s": at_reference_speed(raw, before, reference_s())}
        if args.child == "rss":
            run_pass(ops)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def child_result(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def spawn_child(kind: str, args: argparse.Namespace) -> subprocess.Popen:
    command = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args: argparse.Namespace) -> dict:
    from spincover import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
    }


def timed_passes(ops, seconds: float) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops))
    return passes


def end_to_end(args: argparse.Namespace, build: Callable[[], list]) -> tuple:
    setups = [child_result(spawn_child("setup", args)) for _ in range(SETUP_REPEATS)]
    setup = [c["setup_s"] for c in setups]
    # The memory child runs beside the untimed input build and warm-up.
    rss_child = spawn_child("rss", args)
    try:
        ops = build()
        warmup = run_pass(ops)
    finally:
        rss = child_result(rss_child)["peak_rss_mb"]
    passes = timed_passes(ops, args.seconds)
    runs = [warmup] + passes
    attempted = sum(p["checked"] for p in runs)
    failed = sum(len(p["failures"]) for p in runs)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "slowest_op_s": (slowest_op(passes, "op_s"), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    samples = {
        "setup_s": setup,
        "wall_s": [p["wall_s"] for p in passes],
        "raw_setup_s": [c["raw_setup_s"] for c in setups],
        "raw_wall_s": [p["raw_wall_s"] for p in passes],
    }
    return ops, metrics, runs, samples


def slowest_op(passes: list[dict], key: str) -> float:
    """The largest per-op median: the op a CLI user waits longest for."""
    return max(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def per_layer(args: argparse.Namespace, build: Callable[[], list]) -> tuple:
    import tracer as tracing

    tracer = tracing.Tracer()
    ops = build()
    runs = [run_pass(ops)]  # warm-up; also fills the checks' caches
    untraced, traced, deltas = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        if len(untraced) <= len(traced):
            untraced.append(run_pass(ops))
            continue
        tracer.pass_id = len(traced)
        before = tracer.snapshot()
        tracer.install()
        try:
            traced.append(run_pass(ops))
        finally:
            tracer.remove()
        after = tracer.snapshot()
        deltas.append({key: after[key] - before[key] for key in after})
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}")

    def median(key: str) -> float:
        # median_low keeps a value one traced pass really had.
        return statistics.median_low(d[key] for d in deltas)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name, unit in tracing.per_layer_metric_names():
        if name in deltas[0]:
            metrics[name] = (median(name), unit)
    products = sum(d["closure_products"] for d in deltas)
    elements = sum(d["closure_elements"] for d in deltas)
    searches = sum(d[f"{tracing.SEARCH}.calls"] for d in deltas)
    found = sum(d["search_found"] for d in deltas)
    metrics[f"{tracing.CLOSURE[0]}.exact.products_per_element"] = (ratio(products, elements), "count")
    metrics[f"{tracing.SEARCH}.found"] = (ratio(found, searches), "ratio")
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    runs += untraced + traced
    samples = {
        "untraced_wall_s": [p["wall_s"] for p in untraced],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "raw_untraced_wall_s": [p["raw_wall_s"] for p in untraced],
        "raw_traced_wall_s": [p["raw_wall_s"] for p in traced],
    }
    return ops, metrics, runs, samples


def summarize(args, record, metrics, runs, samples, ops, attempted, failures) -> None:
    print(f"spincover benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} backend={record['backend']} python={record['python']} "
          f"nproc={record['nproc']}")
    for name, values in samples.items():
        print(f"  {name}: n={len(values)} median={statistics.median(values):.4f} "
              f"min={min(values):.4f} max={max(values):.4f}")
    timed = runs[1:]
    for i, op in enumerate(ops):
        scaled = statistics.median(p["op_s"][i] for p in timed)
        raw = statistics.median(p["raw_op_s"][i] for p in timed)
        print(f"  op {op.label}: median {scaled:.4f} s (raw {raw:.4f} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for failure in dict.fromkeys(failures):
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "spincover" / "__init__.py").is_file():
        print(f"error: {SRC / 'spincover'} not found; run from a spincover checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return run_child(args)

    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        ops, metrics, runs, samples = measure(
            args, lambda: workloads.WORKLOADS[args.workload](args.seed, workdir, True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["checked"] for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    record = run_record(args)
    summarize(args, record, metrics, runs, samples, ops, attempted, failures)
    record.update(
        samples=samples,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        failures=failures,
        op_s={op.label: [p["op_s"][i] for p in runs[1:]] for i, op in enumerate(ops)},
        raw_op_s={op.label: [p["raw_op_s"][i] for p in runs[1:]] for i, op in enumerate(ops)},
        reference_s=[p["reference_s"] for p in runs[1:]],
    )
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
