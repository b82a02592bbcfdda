"""sarsizer benchmark: sizing, verification and refinement workloads.

    python3 bench/run.py --workload desk8 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py``):

  desk8     in-process ``sarsizer run`` of the 8-bit desk config
  verify12  one K=65536, M=8 noisy capture plus FFT metrics at 12 bits
  refine8   the blended local phase at lambda=1 from 16 random starts

Each run repeats the workload's operation, closed loop and serially, until
``--seconds`` have passed, checks every output outside the timed region,
and prints a table and, as its last line, one JSON object.  With
``--trace 0`` the metrics are the end-to-end metrics listed in
BENCHMARK.json:

  op_s_p50        median wall seconds per operation
  setup_s         median, over fresh processes, of importing numpy and
                  sarsizer plus the workload's set-up
  peak_rss_mb     peak resident memory of the benchmark process
  design_power_w  coarse power of the final design(s)
  enob            ENOB of the final design(s)
  feasible_frac   share of final designs meeting every coarse constraint
  ok_frac         operations that passed their checks, over those run

``failed_frac`` is ``failed / attempted`` in the result line; it is 0 when
the code is right, so it is reported as ``ok_frac`` = 1 - failed_frac.  A
tail percentile is not reported: no workload runs enough operations in a
run to leave ten beyond any percentile.

With ``--trace 1`` the run alternates untraced and traced operations.  The
traced ones give the per-layer metrics, from spans recorded around the
layers in ``tracing.LAYERS`` and from the operations' results, and
``trace.overhead_s`` is the traced median minus the untraced one.  The
spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Per-layer metrics read from span statistics:
# (metric, layer, numerator field, denominator, scale).  The denominator
# "op" means per traced operation.
SPAN_METRICS = (
    ("rng.noise_matrix.us_per_sample", "rng.noise_matrix", "self_s", "samples", 1e6),
    ("rng.noise_matrix.self_s", "rng.noise_matrix", "self_s", "op", 1.0),
    ("adc.convert.calls", "adc.convert", "calls", "op", 1.0),
    ("adc.convert.us_per_call", "adc.convert", "total_s", "calls", 1e6),
    ("adc.convert_batch.us_per_sample", "adc.convert_batch", "self_s", "samples", 1e6),
    ("coarse.evaluate_coarse.calls", "coarse.evaluate_coarse", "calls", "op", 1.0),
    ("coarse.evaluate_coarse.ms_per_call", "coarse.evaluate_coarse", "total_s", "calls", 1e3),
    ("global_opt.run_global.self_s", "global_opt.run_global", "self_s", "op", 1.0),
    ("global_opt.IdwSurrogate.predict.self_s", "global_opt.IdwSurrogate.predict",
     "self_s", "op", 1.0),
    ("global_opt.de_offspring.self_s", "global_opt.de_offspring", "self_s", "op", 1.0),
    ("local_opt.run_local.self_s", "local_opt.run_local", "self_s", "op", 1.0),
    ("problem.ExpensiveObjective.calls", "problem.ExpensiveObjective", "calls", "op", 1.0),
    ("problem.ExpensiveObjective.ms_per_call", "problem.ExpensiveObjective",
     "total_s", "calls", 1e3),
    ("sndr.run_segments.s", "sndr.run_segments", "total_s", "calls", 1.0),
    ("sndr.spectrum_metrics.ms_per_call", "sndr.spectrum_metrics", "total_s", "calls", 1e3),
    ("pipeline.persist_run.s", "pipeline.persist_run", "total_s", "calls", 1.0),
    ("pipeline.audit_run.s", "pipeline.audit_run", "total_s", "calls", 1.0),
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk8", "verify12", "refine8"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the workloads, and with them numpy and sarsizer from src/."""
    sys.path.insert(0, str(SRC))
    import sarsizer
    import workloads

    if not Path(sarsizer.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sarsizer imported from {sarsizer.__file__}, not {SRC}")
    return workloads


def setup_seconds(args: argparse.Namespace) -> float:
    """Set-up time of one fresh process: imports plus the workload's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_op(workload, i: int, tracer) -> tuple[float, dict]:
    """Time one operation, then check it outside the timed region.

    Returns the seconds and, for a traced operation, the per-layer values
    derived from its output.
    """
    if tracer is not None:
        tracer.install()
    try:
        scope = tracer.operation(i, workload.name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            out = workload.op(i)
        seconds = time.perf_counter() - t0
        workload.check(i, out)
        layers = {}
        if tracer is not None:
            try:
                layers = workload.layers(out)
            except (AttributeError, KeyError, TypeError) as exc:
                print(f"bench: per-layer values unavailable: {exc!r}", file=sys.stderr)
        return seconds, layers
    finally:
        if tracer is not None:
            tracer.uninstall()


def per_layer(stats: dict, n_ops: int, derived: list[dict], overhead_s: float) -> dict:
    values = {"trace.overhead_s": overhead_s}
    for metric, layer, field, denominator, scale in SPAN_METRICS:
        s = stats.get(layer)
        if s is None:
            continue
        base = n_ops if denominator == "op" else getattr(s, denominator)
        values[metric] = getattr(s, field) / base * scale if base else 0.0
    for name in {key for row in derived for key in row}:
        values[name] = statistics.fmean(row.get(name, 0.0) for row in derived)
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sarsizer" / "__init__.py").is_file():
        print(f"bench: no sarsizer sources in {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        t0 = time.perf_counter()
        import_workloads().WORKLOADS[args.workload](args.seed, OUT)
        print(time.perf_counter() - t0)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [setup_seconds(args) for _ in range(SETUP_REPEATS)]
    workloads = import_workloads()
    import tracing

    work_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = tracing.Tracer(workload.observers) if args.trace else None
    times: dict[bool, list[float]] = {False: [], True: []}
    derived: list[dict] = []
    failed = 0
    min_ops = 2 if args.trace else 1
    start = time.perf_counter()
    try:
        i = 0
        while i < min_ops or time.perf_counter() - start < args.seconds:
            traced = tracer is not None and i % 2 == 1
            t0 = time.perf_counter()
            try:
                seconds, layers = run_op(workload, i, tracer if traced else None)
                if traced:
                    derived.append(layers)
            except Exception:
                traceback.print_exc()
                failed += 1
                seconds = time.perf_counter() - t0
            times[traced].append(seconds)
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_ok = True
        try:
            workload.finish()
        except Exception:
            traceback.print_exc()
            run_ok = False

        if tracer is None:
            values = {
                "op_s_p50": statistics.median(times[False]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
                "ok_frac": 1.0 - failed / i,
                **workload.quality(),
            }
            wanted = spec["end_to_end"]
        else:
            values = per_layer(
                tracer.stats(), len(times[True]), derived,
                statistics.median(times[True]) - statistics.median(times[False]),
            )
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        print(f"{m['name']:<42} {metrics[m['name']]['value']:<14.6g} {m['unit']}")
    not_measured = sorted(m["name"] for m in wanted if m["name"] not in values)
    if not_measured:
        print(f"not exercised by {args.workload} (reported as 0): {', '.join(not_measured)}")
    if tracer is not None and tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}")
    print(f"operations: {i} ({len(times[True])} traced), failed: {failed}")
    print("operation seconds:", " ".join(f"{t:.3f}" for t in times[False] + times[True]))
    print("set-up seconds:", " ".join(f"{t:.3f}" for t in setups))
    print(json.dumps({
        "correct": failed == 0 and run_ok,
        "attempted": i,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
