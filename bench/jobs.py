"""Seeded job lists and their oracles, one list per workload.

A job makes the library calls one CLI invocation would make, minus interpreter
start: algebras arrive as interchange documents (the CLI `--input` path, i.e.
`from_interchange` followed by `validate`), and paper-suite jobs are
`verify-paper --suite NAME`. In threshold-dp and construct, every document is
relabeled by seeded signs on its basis, and every oracle below is invariant
under that relabeling. Oracles are closed forms or values frozen from the
library's first benchmarked commit; none of them calls the code under test.
"""

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import stargraded as sg

WORKLOADS = {
    "codim-rank": "codimension sweeps, n = 4 to 6: word products and exact rank (RankTracker), which the other workloads barely use",
    "threshold-dp": "subset DP, sparse_mul on accumulated vectors and witness building; linalg is idle",
    "construct": "building, validating and taking radicals of big glueings and grid families, work that dominates only here",
    "paper-suite": "the six verify-paper suites on small algebras touch every layer lightly, so per-call overhead shows",
}

# Barred identity proofs on three M_{1,1} blocks: the nominal count (5.8e9) is
# refused by the default cap, while the real sweep takes seconds.
UNCAPPED = sg.RunConfig(cap_evals=10**12)


@dataclass(frozen=True)
class Job:
    """One closed-loop request: `run()` returns an answer that must equal
    `expected`. `key` names the job in the job-list digest."""

    id: str
    key: str
    run: object
    expected: object


# ---------------------------------------------------------------- relabeling


def relabel(doc, rng):
    """Apply a seeded signed relabeling to an interchange document: basis element
    i becomes s_i e_i with a random sign s_i, so a structure constant c_ijk
    becomes s_i s_j s_k c_ijk and an involution entry (r, k) becomes s_r s_k
    times the old one.

    The basis order is kept. The cost of exact rank and of the witness searches
    depends on it: under random signed permutations of the basis,
    codim_ordinary(M_{1,1}, 6) took from 5.6 s to 41 s (2-core x86 VM), so a
    reordering seed would decide the measurement."""
    sign = [rng.choice((1, -1)) for _ in range(doc["dim"])]

    def scaled(s, x):
        f = s * Fraction(x)
        return f"{f.numerator}/{f.denominator}"

    out = dict(doc)
    out["structure"] = [
        [i, j, k, scaled(sign[i] * sign[j] * sign[k], c)] for i, j, k, c in doc["structure"]
    ]
    out["involution"] = [[r, k, scaled(sign[r] * sign[k], c)] for r, k, c in doc["involution"]]
    return out


def relabeled_text(A, rng):
    return json.dumps(relabel(sg.to_interchange(A), rng))


def load(text):
    """What `--input FILE` does after reading the file."""
    A = sg.from_interchange(json.loads(text))
    problems = sg.validate(A)
    if problems:
        raise ValueError(f"loaded algebra is inconsistent: {problems[0]}")
    return A


# ---------------------------------------------------------------- closed forms


def family_dims(name, p):
    """(even sym, even skew, odd sym, odd skew) of a classified simple family."""
    if name == "m_hl_transpose":
        h, l = p
        return (h * (h + 1) // 2 + l * (l + 1) // 2, h * (h - 1) // 2 + l * (l - 1) // 2, h * l, h * l)
    if name == "m_hh_symplectic":
        (h,) = p
        return (h * h, h * h, h * (h - 1), h * (h + 1))
    if name == "m_hl_exchange":
        h, l = p
        return (h * h + l * l, h * h + l * l, 2 * h * l, 2 * h * l)
    if name in ("mn_cmn_star", "mn_cmn_dagger"):
        n, diamond = p
        sym, skew = n * (n + 1) // 2, n * (n - 1) // 2
        plus, minus = (sym, skew) if diamond == "t" else (skew, sym)
        return (plus, minus, plus, minus) if name == "mn_cmn_dagger" else (plus, minus, minus, plus)
    (n,) = p
    return (n * n,) * 4


def corner_size(name, p):
    """Side of the diagonal corner a component fills in a block triangular glueing."""
    if name in ("m_hl_transpose", "m_hl_exchange"):
        return p[0] + p[1]
    return 2 * p[0]


def token(text):
    name, _, args = text.partition(":")
    return name, tuple(int(a) if a.isdigit() else a for a in args.split(","))


def glueing_oracle(components):
    """(dim, radical dim, exponent) of the block triangular algebra: the radical
    is the strict upper part, 2 * sum_{i<j} s_i s_j, and the exponent is the
    sum of the block dimensions."""
    toks = [token(t) for t in components.split("+")]
    blocks = sum(sum(family_dims(*t)) for t in toks)
    s = [corner_size(*t) for t in toks]
    radical = 2 * sum(s[i] * s[j] for i in range(len(s)) for j in range(i + 1, len(s)))
    return blocks + radical, radical, blocks


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def codim_m2(n):
    """Procesi/Drensky: c_n(M_2) = Cat(n+1) - C(n,3) + 1 - 2^n."""
    return catalan(n + 1) - comb(n, 3) + 1 - 2**n


def codim_m11_graded(n):
    """Graded codimensions of M_{1,1}: 4^n - 2^n + 1 (measured pattern, n <= 6)."""
    return 4**n - 2**n + 1


# Frozen at the benchmark's first commit: graded codimensions of mn_cmn_star:2,t
# and the homogeneous dimensions of algebras outside the classified families.
CODIM_STAR2T = {4: 1776, 5: 13792}
FROZEN_DIMS = {
    "mn_cmn_star:2,t+m_hl_transpose:2,1": (13, 8, 9, 11),
    "m_hl_transpose:1,1+m_hl_transpose:1,1+m_hl_transpose:1,1": (12, 6, 9, 9),
    "m_hh_symplectic:1+mn_cmn_exchange:1+m_hl_exchange:1,1": (10, 10, 9, 11),
    "mn_cmn_dagger:2,s+m_hl_transpose:1,1": (7, 7, 6, 8),
    "one_sided[m_hl_transpose:2,1]": (9, 6, 6, 6),
    "tensor[m_hl_transpose:1,1|noncommutative_nilpotent]": (8, 2, 5, 5),
}

# verify-paper --suite all at the benchmark's first commit: rows and sha256 of
# the CSV rows of each suite, and sha256 of the whole report with its header.
SUITE_ROWS = {
    "dims": (108, "d395b282348a3df461b7fa6d1625148e2e938ebfdb2ec0abb3c2bc8970deb1fd"),
    "thresholds": (112, "f02f320136789d4570ddcbb760ffef72321661826edeb184118ac0fee280ccd2"),
    "sandwich": (24, "640282e9be4b371171d9d1902705db37de35b5ee345f2e26d9aa86119ad37f74"),
    "peirce": (6, "fe89c3a38dea1d999506b990367898ab908bbedc997ac76b74511ce3268034c1"),
    "exponent": (13, "5002a4ba90a8b12997cd895a1630688c7f1c58073085c092ad71805eec0a2e11"),
    "counterexamples": (10, "26b0bab0f2e8e4be8bdb1921ce2ce0a0621b112fddbfb56dcb01fbdd2d4c8dd6"),
}
REPORT_ROWS = 273
REPORT_SHA256 = "ec9e87a4070f5a49da2a7c5d0b7673b18a1b210b19cde54e988943ad324899ed"


# ---------------------------------------------------------------- workloads


@dataclass
class Workload:
    """A fixed job list plus, optionally, a check over one whole pass of it."""

    jobs: list
    pass_check: object = None


def _codim_docs():
    # Not relabeled: _assignment_rank drops repeated columns by exact tuple, so
    # basis signs decide how many columns reach RankTracker (1653 or 3306 at
    # ordinary n = 6, 17 s or 27 s). The seed sets the job order only.
    m11 = json.dumps(sg.to_interchange(sg.parse_algebra_spec("m_hl_transpose:1,1")))
    star = json.dumps(sg.to_interchange(sg.parse_algebra_spec("mn_cmn_star:2,t")))
    return m11, star


def codim_rank(seed):
    m11, star = _codim_docs()
    jobs = []
    for n in (4, 5):
        jobs.append(Job(f"codim_ordinary(M11,{n})", m11,
                        lambda n=n: sg.codim_ordinary(load(m11), n).value, codim_m2(n)))
    for n in (5, 6):
        jobs.append(Job(f"codim_graded(M11,{n})", m11,
                        lambda n=n: sg.codim_graded(load(m11), n).value, codim_m11_graded(n)))
    for n in (4, 5):
        jobs.append(Job(f"codim_graded(star2t,{n})", star,
                        lambda n=n: sg.codim_graded(load(star), n).value, CODIM_STAR2T[n]))
    return Workload(jobs)


def threshold_dp(seed):
    rng = random.Random(f"{seed}|docs")
    m21 = relabeled_text(sg.parse_algebra_spec("m_hl_transpose:2,1"), rng)
    u3 = relabeled_text(sg.ut_star(sg.parse_ut_spec("+".join(["m_hl_transpose:1,1"] * 3), "")), rng)
    dims = family_dims("m_hl_transpose", (2, 1))
    jobs = [Job("ordinary_capelli_threshold(M21)", m21,
                lambda: sg.ordinary_capelli_threshold(load(m21)).threshold, sum(dims) + 1)]
    for kind, d in zip(sg.KINDS, dims):
        jobs.append(Job(f"capelli_threshold(M21,{kind})", m21,
                        lambda kind=kind: sg.capelli_threshold(load(m21), kind).threshold, d + 1))
    # Block law: three blocks are identities from rank (sum of component dims) + 3
    # on. z- is left out: it makes exactly the calls z+ makes, so it would double
    # the pass and halve the samples per run without measuring anything new.
    law = 3 * family_dims("m_hl_transpose", (1, 1))[2] + 3
    for m in (law, law - 1):
        jobs.append(Job(f"barred_rank_is_identity(UT3,z+,{m})", u3,
                        lambda m=m: sg.barred_rank_is_identity(load(u3), "z+", m, UNCAPPED), m >= law))
    return Workload(jobs)


def _construct(build, spec, rng_key):
    """Build from the spec string, round-trip through a relabeled document,
    validate, then measure what the oracle predicts."""
    A = build(spec)
    B = load(json.dumps(relabel(sg.to_interchange(A), random.Random(rng_key))))
    return sg.hom_dims(B), sg.jacobson_radical(B).dim, sg.admissible_exponent(B)


def _ut(spec):
    return sg.ut_star(sg.parse_ut_spec(spec, ""))


def construct(seed):
    cases = []
    for spec in (
        "mn_cmn_star:2,t+m_hl_transpose:2,1",
        "m_hl_transpose:1,1+m_hl_transpose:1,1+m_hl_transpose:1,1",
        "m_hh_symplectic:1+mn_cmn_exchange:1+m_hl_exchange:1,1",
        "mn_cmn_dagger:2,s+m_hl_transpose:1,1",
    ):
        _, radical, blocks = glueing_oracle(spec)
        cases.append((_ut, spec, (FROZEN_DIMS[spec], radical, blocks)))
    for spec in ("m_hl_exchange:2,2", "m_hh_symplectic:2", "mn_cmn_exchange:2", "m_hl_transpose:2,2"):
        dims = family_dims(*token(spec))
        cases.append((sg.parse_algebra_spec, spec, (dims, 0, sum(dims))))
    # one_sided[A]: radical V + V* of dim 2 dim A; tensor[A|N]: radical A (x) N
    base = sum(family_dims("m_hl_transpose", (2, 1)))
    spec = "one_sided[m_hl_transpose:2,1]"
    cases.append((sg.parse_algebra_spec, spec, (FROZEN_DIMS[spec], 2 * base, base)))
    base = sum(family_dims("m_hl_transpose", (1, 1)))
    spec = "tensor[m_hl_transpose:1,1|noncommutative_nilpotent]"
    cases.append((sg.parse_algebra_spec, spec, (FROZEN_DIMS[spec], 4 * base, base)))
    return Workload([
        Job(f"{'ut' if build is _ut else 'build'}({spec})", spec,
            lambda b=build, s=spec: _construct(b, s, f"{seed}|{s}"), expected)
        for build, spec, expected in cases
    ])


def suite_job_id(name):
    return f"run_suite({name})"


def csv_text(rows, header=()):
    """The verify-paper CSV report (`cli.emit_rows`) of the given rows."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(header)
    for r in rows:
        w.writerow([r.check, r.subject, r.kind, r.n, r.expected, r.actual, r.status])
    return buf.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def paper_suite(seed):
    """The six verify-paper suites; every pass must reproduce the frozen report."""
    from stargraded.cli import CSV_FIELDS

    last = {}

    def run(name):
        rows = sg.run_suite(name)
        last[name] = rows
        return len(rows), all(r.status == "ok" for r in rows), sha256(csv_text(rows))

    def pass_check():
        # the whole report, suites in verify-paper order, must match the frozen one
        rows = [r for name in SUITE_ROWS for r in last.pop(name, ())]
        report = csv_text(rows, CSV_FIELDS)
        if len(rows) != REPORT_ROWS or sha256(report) != REPORT_SHA256:
            return f"verify-paper all report differs: {len(rows)} rows, sha256 {sha256(report)}"
        return None

    suites = [
        Job(suite_job_id(name), name, lambda name=name: run(name), (count, True, sha))
        for name, (count, sha) in SUITE_ROWS.items()
    ]
    return Workload(suites, pass_check)


JOB_LISTS = {
    "codim-rank": codim_rank,
    "threshold-dp": threshold_dp,
    "construct": construct,
    "paper-suite": paper_suite,
}
