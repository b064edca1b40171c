"""Checks of the benchmark itself; run from the root of a checkout:

    python3 bench/selfcheck.py [--seeds 1 2 3] [--workload NAME ...]

For each workload, every job runs once per seed under the tracer, in the
listed order. The script then checks that

1. answers are identical across seeds (the relabeling changes no answer) and
   equal the oracles;
2. every job makes identical call counts on every seed, the full sweeps
   (codimension ranks, barred identity proofs that come out true) and the
   searches that stop at a first witness alike;
3. a second traced run of the first seed gives identical counts (calls, DP
   states, rank insertions and acceptances, nonzero products);
4. untraced answers equal the traced ones;
5. for one or two jobs per workload, the traced call count of every wrapped function
   equals cProfile's ncalls for it, so no binding was missed.

Exits 1 when a check fails.
"""

import argparse
import cProfile
import pstats
import sys

import run

# Jobs run under cProfile, small ones that reach the workload's layers.
PROFILE_JOBS = {
    "codim-rank": ("codim_ordinary(M11,5)", "codim_graded(star2t,4)"),
    "threshold-dp": ("capelli_threshold(M21,y+)",),
    "construct": ("ut(mn_cmn_dagger:2,s+m_hl_transpose:1,1)",),
    "paper-suite": ("run_suite(counterexamples)",),
}


def full_sweep(job):
    return job.id.startswith("codim_") or (job.id.startswith("barred_rank_is_identity") and job.expected is True)


def traced_jobs(tracer_mod, make_workload, seed):
    """{job id: (answer, {function: (calls, tally)})} with every job run traced."""
    tracer = tracer_mod.Tracer().install()
    out = {}
    try:
        for job in make_workload(seed).jobs:
            tracer.reset()
            answer = tracer.job(job.id, job.run)
            counts = {fn: (calls, tally) for (_, fn), (calls, _, tally) in tracer.snapshot().items()}
            out[job.id] = (answer, counts)
    finally:
        tracer.uninstall()
    return out


def profiled_calls(tracer_mod, job):
    """cProfile ncalls of every wrapped function while `job` runs untraced."""
    prof = cProfile.Profile()
    prof.runcall(job.run)
    st = pstats.Stats(prof).stats
    by_code = {(f, line, name): nc for (f, line, name), (_, nc, _, _, _) in st.items()}
    out = {}
    for modname, names in ((m, n) for m, n, _, _ in tracer_mod.LAYERS.values()):
        module = sys.modules[f"stargraded.{modname}"]
        for qualname in names:
            owner, attr = module, qualname
            if "." in qualname:
                cls, attr = qualname.split(".")
                owner = getattr(module, cls)
            code = owner.__dict__[attr].__code__
            out[f"{modname}.{qualname}"] = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
    return out


def check_workload(name, seeds, jobs, tracer_mod):
    make_workload = jobs.JOB_LISTS[name]
    problems = []
    notes = []
    runs = {s: traced_jobs(tracer_mod, make_workload, s) for s in seeds}
    ref = runs[seeds[0]]
    job_list = make_workload(seeds[0]).jobs

    for job in job_list:
        answers = {s: runs[s][job.id][0] for s in seeds}
        if any(a != job.expected for a in answers.values()):
            problems.append(f"{job.id}: answers {answers} vs oracle {job.expected!r}")
        counts = {s: runs[s][job.id][1] for s in seeds}
        differing = sorted(fn for fn in counts[seeds[0]] if len({counts[s].get(fn) for s in seeds}) > 1)
        if differing:
            detail = "; ".join(f"{fn} {[counts[s].get(fn) for s in seeds]}" for fn in differing)
            problems.append(f"{job.id}: counts differ across seeds: {detail}")
        sweep = " (full sweep)" if full_sweep(job) else ""
        notes.append(f"{job.id}: sparse_mul calls {counts[seeds[0]]['core.sparse_mul'][0]}{sweep}")

    again = traced_jobs(tracer_mod, make_workload, seeds[0])
    for job_id, (answer, counts) in again.items():
        if counts != ref[job_id][1]:
            problems.append(f"{job_id}: counts differ between two traced runs of seed {seeds[0]}")

    for job in job_list:
        answer = job.run()
        if answer != ref[job.id][0]:
            problems.append(f"{job.id}: untraced answer {answer!r} != traced {ref[job.id][0]!r}")

    for job in (j for j in job_list if j.id in PROFILE_JOBS[name]):
        profiled = profiled_calls(tracer_mod, job)
        traced = {fn: c for fn, (c, _) in ref[job.id][1].items()}
        mismatch = {fn: (traced.get(fn, 0), n) for fn, n in profiled.items() if traced.get(fn, 0) != n}
        if mismatch:
            problems.append(f"{job.id}: traced calls != cProfile ncalls: {mismatch}")
        covered = sum(1 for n in profiled.values() if n)
        notes.append(f"cProfile on {job.id}: {covered} wrapped functions called, traced counts equal ncalls: {not mismatch}")
    return problems, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workload", nargs="+", default=None)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("give at least two seeds")
    jobs = run.import_library()
    import tracer as tracer_mod

    failed = False
    for name in args.workload or list(jobs.JOB_LISTS):
        problems, notes = check_workload(name, args.seeds, jobs, tracer_mod)
        for n in notes:
            print(f"{name}: {n}")
        for pr in problems:
            print(f"{name}: FAIL {pr}")
        print(f"{name}: {'FAIL' if problems else 'ok'} (seeds {args.seeds})", flush=True)
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
