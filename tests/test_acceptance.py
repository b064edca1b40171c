"""Acceptance battery: every advertised result, one pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py`; each test prints its own
verdict line as well so the log reads as a checklist."""

import random
from fractions import Fraction

from test_codim_orbits import both, rescaled

import stargraded as sg
from stargraded.checks import (
    DIMS_GRID,
    SMALL_SIMPLE_GRID,
    parse_algebra_spec,
    parse_family_token,
    parse_ut_spec,
    run_suite,
)
from stargraded.core import to_sparse
from stargraded.polynomials import (
    ANY,
    KINDS,
    CapelliShape,
    capelli_member,
    evaluate_alternating_fast,
    evaluate_sparse,
    generator_family,
)


def verdict(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def suite_ok(name):
    rows = run_suite(name)
    bad = [r for r in rows if r.status != "ok"]
    return len(rows), bad


def test_criterion_01_dimension_grid():
    """Measured homogeneous dimensions match the frozen grid and closed forms."""
    n, bad = suite_ok("dims")
    verdict("criterion-01 dimension grid", not bad, f"{n} rows")


def test_criterion_02_simple_thresholds():
    """On every small simple algebra the alternating threshold is dim+1 per kind,
    with an explicit witness one rank below."""
    failures = []
    for token in SMALL_SIMPLE_GRID:
        A = parse_algebra_spec(token)
        dims = sg.hom_dims(A)
        for i, kind in enumerate(KINDS):
            rep = sg.capelli_threshold(A, kind)
            if rep.threshold != dims[i] + 1 or (rep.witness is not None) != (dims[i] > 0):
                failures.append((token, kind, rep.threshold))
    verdict("criterion-02 simple thresholds", not failures, f"{len(SMALL_SIMPLE_GRID)} algebras x 4 kinds")


def test_criterion_03_generator_containment_on_simples():
    """Simple algebras satisfy the whole generator family at ranks dims+1."""
    failures = []
    for token in SMALL_SIMPLE_GRID:
        A = parse_algebra_spec(token)
        polys = generator_family(*(d + 1 for d in sg.hom_dims(A)))
        rep = sg.satisfies_generator_set(A, polys)
        if not rep.satisfied:
            failures.append(token)
    verdict("criterion-03 generator containment", not failures)


def test_criterion_04_triangular_thresholds():
    """For two glued blocks with nontrivial gradings the thresholds are the
    componentwise dimension sums plus the number of blocks, exactly."""
    A = sg.ut_star(parse_ut_spec("m_hl_transpose:1,1+m_hl_transpose:1,1", ""))
    sums = (4, 0, 2, 2)
    ok = True
    for i, kind in enumerate(KINDS):
        rep = sg.capelli_threshold(A, kind)
        ok = ok and rep.threshold == sums[i] + 2
    verdict("criterion-04 triangular thresholds", ok, "sums+2 on all four kinds")


def test_criterion_05_shift_offsets():
    """Trivially graded blocks spread the correction between even and odd kinds
    depending on the grading shifts."""
    a = sg.threshold_offsets(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,0"))
    b = sg.threshold_offsets(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,1"))
    ok = (a.offset_even, a.offset_odd) == (1, 0) and (b.offset_even, b.offset_odd) == (0, 1)
    verdict("criterion-05 shift offsets", ok, f"{(a.offset_even, a.offset_odd)} / {(b.offset_even, b.offset_odd)}")


def test_criterion_06_codimension_sandwich():
    """Ordinary and typed codimensions bracket each other up to the 4^n factor."""
    n, bad = suite_ok("sandwich")
    verdict("criterion-06 codimension sandwich", not bad, f"{n} rows")


def test_criterion_07_codimension_cross_check():
    """Content-wise typed codimension equals the direct sum over all kind vectors."""
    failures = []
    for spec in (
        "m_hl_transpose:1,1",
        "m_hl_exchange:1,0",
        "mn_cmn_star:1,t",
        "noncommutative_nilpotent",
        "tensor[m_hl_transpose:1,0|commutative_nilpotent:1]",
    ):
        A = parse_algebra_spec(spec)
        assert A.dim <= 8
        for n in (1, 2, 3):
            if sg.codim_graded(A, n).value != sg.codim_graded_bruteforce(A, n):
                failures.append((spec, n))
    verdict("criterion-07 codimension cross check", not failures, "5 algebras, degrees 1..3")


def test_criterion_08_exponents():
    """Block exponents: simples give their dimension, glued and extended
    algebras give the frozen reference values, reducedness flags agree."""
    n, bad = suite_ok("exponent")
    verdict("criterion-08 exponents", not bad, f"{n} rows")


def test_criterion_09_peirce_pieces():
    """Radical placement in the Peirce grid matches the frozen references."""
    n, bad = suite_ok("peirce")
    verdict("criterion-09 peirce pieces", not bad, f"{n} rows")


def test_criterion_10_counterexamples():
    """One sided and tensor extensions break the generator containment that
    their simple bases satisfy."""
    n, bad = suite_ok("counterexamples")
    verdict("criterion-10 counterexamples", not bad, f"{n} rows")


def test_criterion_11_ordinary_coherence():
    """The untyped threshold never exceeds the sum of the four typed ones
    (checked as an identity statement at the summed rank), and the exact
    untyped threshold is reproduced where the search is feasible."""
    failures = []
    for token, _ in DIMS_GRID:
        A = parse_algebra_spec(token)
        S = sum(d + 1 for d in sg.hom_dims(A))
        if not sg.barred_rank_is_identity(A, ANY, S):
            failures.append(token)
    exact = {"m_hl_transpose:1,0": 2, "m_hl_transpose:1,1": 5}
    for token, want in exact.items():
        rep = sg.ordinary_capelli_threshold(parse_algebra_spec(token))
        if rep.threshold != want:
            failures.append((token, rep.threshold))
    verdict("criterion-11 ordinary coherence", not failures, "18 bounds + 2 exact values")


def test_criterion_12_evaluator_equivalence(monkeypatch):
    """The subset dynamic program agrees with naive term evaluation on 1000
    seeded random assignments, and the spun codimension ranks of M_{1,1} and
    of its 1/5-rescaled basis equal those of the product-order enumeration on
    the Fraction tracker (test_codim_orbits.reference_assignment_rank)."""
    algebras = [
        sg.m_hl_transpose(1, 1),
        sg.m_hl_exchange(1, 0),
        sg.mn_cmn(1, "t", "-"),
    ]
    rng = random.Random(20260818)
    mismatches = 0
    for trial in range(1000):
        A = algebras[trial % len(algebras)]
        m = rng.randint(1, 5)
        deleted = frozenset(g for g in range(m - 1) if rng.random() < 0.35)
        shape = CapelliShape(m, ANY, deleted)
        p = capelli_member(m, ANY, deleted)

        def rand_vec():
            v = [0] * A.dim
            for k in rng.sample(range(A.dim), min(3, A.dim)):
                v[k] = rng.randint(-2, 2)
            return to_sparse(v)

        alt = [rand_vec() for _ in range(m)]
        conn = [rand_vec() for _ in shape.kept_gaps]
        if evaluate_sparse(A, p, alt + conn) != evaluate_alternating_fast(A, shape, alt, conn):
            mismatches += 1
    m2 = algebras[0]
    reports = (both(monkeypatch, sg.codim_graded, B, 3) for B in (m2, rescaled(m2, [Fraction(1, 5)] * 4)))
    ranks_ok = all(got == want for got, want in reports)
    verdict(
        "criterion-12 evaluator equivalence",
        mismatches == 0 and ranks_ok,
        "1000 assignments; codim_graded(M_{1,1}, 3) and its 1/5 rescaling against the product-order Fraction reference",
    )
