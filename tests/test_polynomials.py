"""Barred Capelli members: construction, signs, and the two evaluators."""

import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st
from test_codim_orbits import rescaled

import stargraded as sg
from stargraded.core import to_sparse
from stargraded.polynomials import (
    ANY,
    CapelliShape,
    barred_capelli_set,
    capelli_member,
    evaluate_alternating_fast,
    evaluate_sparse,
    generator_family,
)


def reference_sign(p):
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_capelli_member_shape():
    p = capelli_member(3, "y+")
    assert p.nslots == 3 + 2
    assert p.slot_kinds == ("y+", "y+", "y+", ANY, ANY)
    assert len(p.terms) == factorial(3)
    assert p.terms[(0, 3, 1, 4, 2)] == 1
    assert p.terms[(1, 3, 0, 4, 2)] == -1


def test_capelli_member_with_deletions():
    p = capelli_member(3, "z-", deleted=(0,))
    assert p.slot_kinds == ("z-", "z-", "z-", ANY)
    assert (0, 1, 3, 2) in p.terms
    full = capelli_member(3, "z-", deleted=(0, 1))
    assert full.slot_kinds == ("z-", "z-", "z-")
    assert full.terms[(0, 1, 2)] == 1


def test_barred_set_enumerates_deletion_patterns():
    fam = barred_capelli_set(4, "y-")
    assert len(fam) == 8
    assert fam[0].deleted == frozenset()
    assert {p.deleted for p in fam} == {
        frozenset(s) for s in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])
    }


def test_generator_family_counts():
    polys = generator_family(2, 1, 1, 3)
    assert len(polys) == 2 + 1 + 1 + 4
    kinds = [p.kind for p in polys]
    assert kinds == ["y+", "y+", "y-", "z+", "z-", "z-", "z-", "z-"]


def test_member_is_its_shape_with_lazy_terms():
    p = capelli_member(3, "y+", {0})
    assert p == CapelliShape(3, "y+", frozenset({0}))
    assert "terms" not in vars(p)
    assert len(p.terms) == factorial(3) and "terms" in vars(p)


def test_ordinary_member_is_untyped():
    p = capelli_member(2, ANY)
    assert p.slot_kinds == (ANY, ANY, ANY)
    assert p.kind == ANY


def test_evaluate_standard_polynomial_on_matrix_units(m2):
    p = capelli_member(2, "any", deleted=(0,))
    e12 = {1: 1}
    e21 = {2: 1}
    # x1 x2 - x2 x1 on (e12, e21) = e11 - e22
    assert evaluate_sparse(m2, p, [e12, e21]) == {0: 1, 3: -1}
    assert evaluate_sparse(m2, p, [e12, e12]) == {}


def test_alternating_in_equal_arguments_gives_zero(m2):
    p = capelli_member(3, "any")
    rng = random.Random(5)
    v = [rng.randint(-2, 2) for _ in range(4)]
    w = [rng.randint(-2, 2) for _ in range(4)]
    c = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
    assert evaluate_sparse(m2, p, [to_sparse(x) for x in [v, w, v] + c]) == {}


def naive_fast_pair(A, m, deleted, rng, entries=range(-2, 3)):
    shape = CapelliShape(m, ANY, frozenset(deleted))
    p = capelli_member(m, ANY, deleted)
    alt = [to_sparse([rng.choice(entries) for _ in range(A.dim)]) for _ in range(m)]
    conn = [to_sparse([rng.choice(entries) for _ in range(A.dim)]) for _ in shape.kept_gaps]
    slow = evaluate_sparse(A, p, alt + conn)
    fast = evaluate_alternating_fast(A, shape, alt, conn)
    return slow, fast


MIXED = (-2, -1, 0, 0, 1, 2, Fraction(1, 3), Fraction(-3, 2))


@cache
def fast_algebras():
    """M_{1,1} on int vectors; then the flat DP's keys at dim 9, and M_{1,1}
    with every basis vector times 1/5, where sums of Fraction products can be
    integral. Both take vectors with some Fraction entries."""
    M11 = sg.m_hl_transpose(1, 1)
    return (
        (M11, range(-2, 3)),
        (sg.m_hl_transpose(2, 1), MIXED),
        (rescaled(M11, [Fraction(1, 5)] * 4), MIXED),
    )


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_fast_evaluator_matches_naive(seed):
    rng = random.Random(seed)
    for A, entries in fast_algebras():
        m = rng.randint(1, 4)
        deleted = [g for g in range(m - 1) if rng.random() < 0.4]
        slow, fast = naive_fast_pair(A, m, deleted, rng, entries)
        assert slow == fast
        # integral values come out as ints, as the term evaluator leaves them
        assert all(isinstance(c, int) or c.denominator != 1 for c in fast.values())


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_fast_evaluator_matches_naive_on_exchange(seed):
    rng = random.Random(seed)
    A = sg.m_hl_exchange(1, 1)
    m = rng.randint(1, 3)
    deleted = [g for g in range(m - 1) if rng.random() < 0.4]
    slow, fast = naive_fast_pair(A, m, deleted, rng)
    assert slow == fast
