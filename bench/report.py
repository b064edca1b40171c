"""Run every workload and print its metrics; run from the root of a checkout:

    python3 bench/report.py [--seeds 1 2 3] [--seconds 15] [--trace 0|1]
                            [--workload NAME ...]

Each (workload, seed) pair is one fresh `bench/run.py` process, run one after
another. The report prints every metric of every run by name with its unit.
With two or more seeds it also prints, per workload and metric, the median and
the spread (distance between the first and third quartile over the median).
For end-to-end metrics it marks a spread that exceeds the metric's bound in
BENCHMARK.json. With --trace 1 the metrics are the per-layer ones, including
the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])["provenance"], elapsed, proc.stderr


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workload:
        results = []
        for seed in args.seeds:
            result, prov, elapsed, stderr = run_one(workload, seed, args.seconds, args.trace)
            results.append(result)
            ok &= result["correct"]
            print(f"{workload} seed={seed} elapsed={elapsed:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} passes={prov['passes']}", flush=True)
            if stderr:
                print(stderr, file=sys.stderr)
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        if len(results) < 2:
            continue
        print(f"{workload}: median and spread over seeds {args.seeds}")
        for name, m in results[0]["metrics"].items():
            med, s = spread([r["metrics"][name]["value"] for r in results])
            flag = ""
            if name in bounds:
                within = s <= bounds[name]
                ok &= within
                flag = f" bound {bounds[name]} {'ok' if within else 'EXCEEDED'}"
            print(f"  {name}: median {med:.6g} {m['unit']}, spread {s:.3f}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
