"""Benchmark harness for morreylab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One run makes the workload's inputs
from the seed, times its set-up several times, then runs whole rounds of
its operations while one more still ends within `--seconds` (at least
one), and checks the outputs.  `run_s` and `setup_s` are medians of the
process's CPU time; wall times are printed beside them.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics untraced, the per-layer metrics with
`--trace 1`).  `--workload all` runs every workload in its own process,
one after another.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: with OpenBLAS's default of one thread per CPU the round
# times scattered about twice as widely (see bench/README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = {"verify-circle": 9, "oscillation-cloud": 9, "grand-large": 5}


def import_program():
    """Import morreylab from ./src of the checkout, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import morreylab
        import morreylab.cli
    except ImportError as exc:
        sys.exit(f"cannot import morreylab from {src}: {exc}")
    if Path(morreylab.__file__).resolve().parent != (src / "morreylab").resolve():
        sys.exit(f"morreylab was imported from {morreylab.__file__}, not from {src}")
    return morreylab


def _timed(fn):
    """fn(), its wall time and the CPU time of the whole process (all threads)."""
    t0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - t0, time.process_time() - c0


def _fmt(times) -> str:
    return ", ".join(f"{t:.3f}" for t in times)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    ml = import_program()
    bad = [f"oracle self-test: {case}" for case in workloads.oracles.self_test()]
    workdir = workloads.scratch_dir(ROOT, name)
    tracer = spans.Tracer() if traced else None
    try:
        wl = workloads.WORKLOADS[name](ml, seed, workdir)
        if tracer is not None:
            tracer.install(ml)

        setup_wall, setup_cpu = [], []
        for rep in range(SETUP_REPS[name]):
            if tracer is not None:
                tracer.phase = ("setup", rep)
            wall, cpu = _timed(wl.setup)[1:]  # the set-up's objects are freed here
            setup_wall.append(wall)
            setup_cpu.append(cpu)
            gc.collect()

        attempted = failed = 0
        round_wall, round_cpu = [], []
        start = time.perf_counter()
        # start a round only if one more of median length still ends in time
        while (not round_wall or time.perf_counter() - start
               + statistics.median(round_wall) <= seconds):
            if tracer is not None:
                tracer.phase = ("round", len(round_wall))
            (a, f), wall, cpu = _timed(wl.round)
            round_wall.append(wall)
            round_cpu.append(cpu)
            attempted += a
            failed += f
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer is not None:
            tracer.phase = ("check", 0)
        bad += wl.check()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for line in bad:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{name}: seed {seed}; {len(round_wall)} rounds, wall {_fmt(round_wall)} s, "
          f"CPU {_fmt(round_cpu)} s; {len(setup_wall)} set-ups, wall {_fmt(setup_wall)} s, "
          f"CPU {_fmt(setup_cpu)} s")
    run_s, setup_s = statistics.median(round_cpu), statistics.median(setup_cpu)
    if tracer is None:
        metrics = {"run_s": {"value": run_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    else:
        layer = spans.per_layer_metrics(tracer.spans, len(setup_wall), len(round_wall))
        # a layer this workload never calls reads 0
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        path = ROOT / "bench" / "out" / f"trace-{name}-seed{seed}.json"
        tracer.dump(path, {"workload": name, "seed": seed, "run_s": run_s, "setup_s": setup_s,
                           "round_wall_s": round_wall, "round_cpu_s": round_cpu,
                           "metrics": layer})
        print(f"traced run_s {run_s:.4f} s; {len(tracer.spans)} spans written to "
              f"{path.relative_to(ROOT)}")
    return {"correct": not bad, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            print(f"{name}: exited with code {proc.returncode}")
            code = 1
            continue
        code |= 0 if result["correct"] and not result["failed"] else 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
