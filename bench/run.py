"""Closed-loop benchmark of the stargraded library.

Run from the root of a checkout:

    python3 bench/run.py --workload codim-rank --seed 1 --seconds 25 --trace 0

One client runs the workload's fixed, seeded job list; each job starts when
the previous one ends, and its answer is checked against an oracle that does
not use the library (bench/jobs.py). Passes over the list repeat while one
more pass brings the run closer to --seconds; there is always at least one.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
bench/tracer.py and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Earlier lines give each metric by name with its
unit, and the run's provenance.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9

# Times are in seconds at the reference speed (speed.py); raw seconds are in
# the provenance line.
END_TO_END = {
    "wall_s": ("s", "median time of one pass over the whole job list, every answer checked"),
    "job_p50_s": ("s", "median over the job list of each job's median latency"),
    "job_max_s": ("s", "median over passes of the slowest job in the pass"),
    "setup_s": ("s", "process start to first job (import + seeded inputs), median of fresh processes"),
    "peak_rss_mb": ("MB", "ru_maxrss of the run's process"),
    "ok_share": ("ratio", "1 - failed_share: jobs answered and matching their oracle / jobs attempted"),
}

# Which end-to-end metric each layer metric should move, and on which workloads.
LAYER_MAP = {
    "linalg.rank_insert": ("wall_s, job_max_s", "codim-rank (no change on threshold-dp)"),
    "analysis.codim": ("wall_s", "codim-rank, paper-suite"),
    "core.sparse_mul": ("wall_s", "all"),
    "polynomials.dp_extend": ("wall_s", "threshold-dp"),
    "analysis.sweep": ("wall_s", "threshold-dp"),
    "polynomials.capelli_member": ("job_max_s, peak_rss_mb", "threshold-dp"),
    "polynomials.naive_replay": ("job_max_s, peak_rss_mb", "threshold-dp"),
    "core.validate": ("wall_s", "construct, paper-suite"),
    "core.jacobson_radical": ("wall_s", "construct, paper-suite"),
    "core.hom_components": ("wall_s", "construct, paper-suite"),
    "linalg.subspace": ("wall_s", "construct, paper-suite"),
    "linalg.elim": ("wall_s", "construct, paper-suite"),
    "triangular.ut_star": ("wall_s", "construct"),
    "families.build_family": ("wall_s", "construct"),
    "extensions": ("wall_s", "construct"),
    "checks.suite": ("wall_s, job_p50_s", "paper-suite"),
    "checks.parse": ("wall_s, job_p50_s", "paper-suite"),
    "analysis.size_cap_refusals": ("ok_share", "all"),
}


def commit_of(root):
    """The checked-out commit when root is a git work tree, else None."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "stargraded").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import stargraded and the job lists from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "stargraded" / "__init__.py").is_file():
        print(f"bench: no stargraded sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import stargraded  # noqa: F401
    import jobs

    return jobs


def measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter to its being ready for the
    first job, over SETUP_PROBES processes run one after another, at the
    reference speed; also the raw seconds of each probe. Each probe samples
    its own speed and reports it with the time its samples took."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        word, _, report = line.partition(" ")
        if word != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        report = json.loads(report)
        seconds -= report["sampled_s"]
        scaled.append(seconds * report["speed"])
        raw.append(seconds)
    return statistics.median(scaled), raw


def run_pass(order, workload, errors, meter, tracer=None):
    """One pass over the job list; returns [(job id, seconds, ok, refused, raw
    seconds)], where seconds are at the reference speed (speed.py). Samples
    are taken during untraced jobs only: under the tracer they would be
    charged to whichever span was open."""
    from stargraded import SizeCapError

    out = []
    for job in order:

        def call(job=job):
            ok = refused = False
            try:
                answer = job.run() if tracer is None else tracer.job(job.id, job.run)
                ok = answer == job.expected
                if not ok:
                    errors.append(f"{job.id}: answer {answer!r}, oracle {job.expected!r}")
            except SizeCapError as e:
                refused = True
                errors.append(f"{job.id}: refused: {e}")
            except Exception:  # a failing job is counted, and the run goes on
                errors.append(f"{job.id}: raised\n{traceback.format_exc()}")
            return ok, refused

        gc.collect()  # each CLI invocation starts on a fresh heap
        (ok, refused), seconds, raw = meter.timed(call, periodic=tracer is None)
        out.append((job.id, seconds, ok, refused, raw))
    if workload.pass_check is not None:
        problem = workload.pass_check()
        if problem:
            errors.append(problem)
    return out


def past_deadline(start, passes, seconds):
    """True when one more pass would end farther past `seconds` than stopping
    now falls short of it, judged by the mean pass so far. Run length then
    stays near `seconds` whatever a pass takes, and every run makes at least
    one pass."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes / 2 > seconds


def pass_wall(p):
    return sum(seconds for _, seconds, *_ in p)


def raw_wall(p):
    return sum(raw for *_, raw in p)


def untraced_metrics(passes, setup_s):
    # Per job first: a median over all latencies would fall in the gap between
    # two jobs whenever the list is even, and read the extremes of both.
    latencies = {}
    for p in passes:
        for job_id, seconds, *_ in p:
            latencies.setdefault(job_id, []).append(seconds)
    return {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "job_p50_s": statistics.median(statistics.median(v) for v in latencies.values()),
        "job_max_s": statistics.median(max(seconds for _, seconds, *_ in p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer_mod, jobs, traced, untraced, refusals):
    """Per-layer metrics of a traced run.

    traced holds (per-function snapshot, pass) for each traced pass and
    untraced holds the untraced passes. Counts come from the first traced pass.
    A layer's self time is given as its share of the traced pass in raw
    seconds, the median over traced passes; the tracer inflates absolute
    times, and a layer that a workload never enters reads 0 as a share, not as
    a time."""
    totals = [(tracer_mod.layer_totals(snap), raw_wall(p)) for snap, p in traced]
    first = totals[0][0]
    m = {}
    for layer in list(tracer_mod.LAYERS) + [tracer_mod.JOB]:
        m[f"{layer}.calls"] = (first.get(layer, (0, 0.0, 0))[0], "count")
        m[f"{layer}.self_share"] = (
            statistics.median(t.get(layer, (0, 0.0, 0))[1] / wall for t, wall in totals),
            "ratio",
        )
    sm = first["core.sparse_mul"]
    m["core.sparse_mul.nonzero_ratio"] = (sm[2] / sm[0] if sm[0] else 0.0, "ratio")
    ri = first["linalg.rank_insert"]
    m["linalg.rank_insert.accepted"] = (ri[2], "count")
    m["linalg.rank_insert.accept_ratio"] = (ri[2] / ri[0] if ri[0] else 0.0, "ratio")
    m["polynomials.dp_extend.states"] = (first["polynomials.dp_extend"][2], "count")
    cm = first["polynomials.capelli_member"]
    m["polynomials.capelli_member.terms"] = (cm[2], "count")
    replays = first["polynomials.naive_replay"][0]
    m["polynomials.capelli_member.replay_ratio"] = (replays / cm[0] if cm[0] else 0.0, "ratio")
    m["analysis.size_cap_refusals"] = (refusals, "count")
    # suite times from the untraced passes, as shares of their pass
    for name in jobs.SUITE_ROWS:
        job_id = jobs.suite_job_id(name)
        shares = [sum(s for j, s, *_ in p if j == job_id) / pass_wall(p) for p in untraced]
        m[f"checks.suite.{name}.share"] = (statistics.median(shares), "ratio")
    t_wall = statistics.median(pass_wall(p) for _, p in traced)
    u_wall = statistics.median(pass_wall(p) for p in untraced)
    m["trace.wall_s"] = (t_wall, "s")
    m["trace.untraced_wall_s"] = (u_wall, "s")
    m["trace.overhead_s"] = (t_wall - u_wall, "s")
    m["trace.overhead_ratio"] = (t_wall / u_wall, "ratio")
    return m, {layer: statistics.median(t.get(layer, (0, 0.0, 0))[1] for t, _ in totals) for layer in first}


def main(argv=None):
    args = parse_args(argv)
    meter = speed.SpeedMeter()
    if args.setup_probe:
        meter.start()
        meter.periodic = True
        meter.sample()
    jobs = import_library()
    if args.workload not in jobs.JOB_LISTS:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(jobs.JOB_LISTS)}", file=sys.stderr)
        return 2
    workload = jobs.JOB_LISTS[args.workload](args.seed)
    if args.setup_probe:
        meter.periodic = False
        meter.sample()
        meter.stop()
        report = {"speed": meter.speed(), "sampled_s": meter.sampled_s(0, time.perf_counter())}
        print("ready", json.dumps(report), flush=True)
        return 0

    order = list(workload.jobs)
    random.Random(f"{args.seed}|order").shuffle(order)
    job_list_sha256 = hashlib.sha256(
        json.dumps([[j.id, j.key, repr(j.expected)] for j in order]).encode()
    ).hexdigest()

    errors = []
    passes = []
    provenance = {}
    meter.start()
    try:
        if args.trace == 0:
            setup_s, provenance["setup_samples_s"] = measure_setup(args.workload, args.seed)
            start = time.perf_counter()
            while not passes or not past_deadline(start, len(passes), args.seconds):
                passes.append(run_pass(order, workload, errors, meter))
            values = untraced_metrics(passes, setup_s)
            metrics = {name: (values[name], END_TO_END[name][0]) for name in values}
            slowest = [max(p, key=lambda r: r[1])[0] for p in passes]
            provenance["slowest_job"] = statistics.mode(slowest)
        else:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            untraced, traced = [], []
            start = time.perf_counter()
            while not traced or not past_deadline(start, len(traced), args.seconds):
                p = run_pass(order, workload, errors, meter)
                passes.append(p)
                untraced.append(p)
                tracer.install()
                tracer.reset()
                try:
                    p = run_pass(order, workload, errors, meter, tracer)
                finally:
                    tracer.uninstall()
                passes.append(p)
                traced.append((tracer.snapshot(), p))
            refused = sum(r for _, _, _, r, _ in passes[1])  # the first traced pass
            counts = [{k: (v[0], v[2]) for k, v in snap.items()} for snap, _ in traced]
            if any(c != counts[0] for c in counts[1:]):
                errors.append("traced passes of one run gave different call counts")
            metrics, provenance["layer_self_s"] = layer_metrics(tracer_mod, jobs, traced, untraced, refused)
            out_dir = ROOT / "bench" / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        meter.stop()

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for _, _, ok, *_ in p if not ok)
    if args.trace == 0:
        metrics["ok_share"] = (1 - failed / attempted, "ratio")

    for e in errors:
        print(f"bench: FAILED {e}", file=sys.stderr)
    provenance.update({
        "workload": args.workload,
        "why": jobs.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(ROOT),
        "source_sha256": source_digest(ROOT / "src"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "job_list_sha256": job_list_sha256,
        "jobs": [j.id for j in order],
        "closed_loop": "one client, one job at a time",
        "passes": len(passes),
        "job_samples": attempted,
        "pass_s": [pass_wall(p) for p in passes],
        "raw_pass_s": [raw_wall(p) for p in passes],
        "failed_share": failed / attempted,
    })
    if args.trace == 1:
        provenance["layer_map"] = {k: {"moves": v[0], "on": v[1]} for k, v in LAYER_MAP.items()}
    else:
        provenance["metric_meaning"] = {k: v[1] for k, v in END_TO_END.items()}
    print(json.dumps({"provenance": provenance}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
