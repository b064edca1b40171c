"""Exact rational linear algebra: ranks, solving, subspaces, rank trackers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stargraded.linalg import (
    RankTracker,
    RankTrackerModP,
    Subspace,
    PRIME_TEST_BOUND,
    coordinate_span,
    is_prime,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rref,
    solve,
)

entries = st.integers(min_value=-6, max_value=6)


def matrices(max_side=5):
    return st.integers(1, max_side).flatmap(
        lambda n: st.integers(1, max_side).flatmap(
            lambda m: st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)
        )
    )


def test_rank_basics():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 4
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[Fraction(1, 2), 1], [0, 3]]) == 2


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent(rows):
    reduced, pivots = rref(rows)
    again, pivots2 = rref([r for r in reduced if any(r)])
    assert again == [r for r in reduced if any(r)] and pivots2 == pivots
    assert rank(reduced) == rank(rows) == len(pivots)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_dimension_and_membership(rows):
    ncols = len(rows[0])
    null = nullspace(rows, ncols)
    assert rank(rows) + len(null) == ncols
    for v in null:
        assert all(c == 0 for c in mat_vec(rows, v))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_solve_recovers_a_consistent_rhs(rows):
    x = [Fraction(i + 1, 2) for i in range(len(rows[0]))]
    b = mat_vec(rows, x)
    y = solve(rows, b)
    assert y is not None
    assert mat_vec(rows, y) == b


def test_solve_detects_inconsistency():
    assert solve([[1, 0], [1, 0]], [1, 2]) is None


def test_mat_mul_against_identity():
    m = [[1, 2], [3, 4]]
    assert mat_mul(m, [[1, 0], [0, 1]]) == [[1, 2], [3, 4]]


@given(matrices(4))
@settings(max_examples=40, deadline=None)
def test_rank_mod_large_prime_matches(rows):
    tr = RankTrackerModP(2147483647)
    for r in rows:
        tr.add(r)
    assert tr.rank == rank(rows)


def test_rank_mod_small_prime_can_drop():
    assert rank([[2]]) == 1
    tr = RankTrackerModP(2)
    assert not tr.add([2]) and tr.rank == 0


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rank_tracker_matches_batch_rank(rows):
    tr = RankTracker()
    grew = sum(1 for r in rows if tr.add(r))
    assert tr.rank == rank(rows) == grew


fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, 1, 2, 3, 5, 7]),
)


@st.composite
def rational_low_rank(draw):
    """B @ C with columns rescaled by fractions: rank at most k, mixed denominators."""
    n, m, k = draw(st.integers(1, 7)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    b = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    c = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    scale = draw(st.lists(fractions.filter(bool), min_size=m, max_size=m))
    return [[scale[j] * sum(b[i][t] * c[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


@given(st.one_of(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(st.lists(fractions, min_size=m, max_size=m), min_size=1, max_size=7)
    ),
    rational_low_rank(),
))
@settings(max_examples=150, deadline=None)
def test_rank_tracker_with_fractions_matches_rref(rows):
    tr = RankTracker()
    grew = sum(1 for r in rows if tr.add(r))
    assert tr.rank == len(rref(rows)[0]) == grew


def test_rank_tracker_rows_are_primitive_echelon():
    tr = RankTracker()
    for r in ([0, Fraction(2, 3), Fraction(4, 3)], [Fraction(-1, 2), 1, 0], [0, 3, 6], [1, 1, 1]):
        tr.add(r)
    assert tr.rank == 3 and tr.pivots == [0, 1, 2]
    for c, (cols, vals) in tr.rows.items():
        assert cols[0] == c and vals[0] > 0 and all(isinstance(v, int) for v in vals)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == trial_division(n) for n in range(-3, 5000))


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to every prime base up to 7, 23 and 37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for p in (2147483647, 2**61 - 1, 10**24 + 7):
        assert is_prime(p)
        assert not is_prime(p * 3)
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_BOUND)


@given(matrices(4))
@settings(max_examples=40, deadline=None)
def test_rank_tracker_mod_p_never_exceeds_exact(rows):
    tr = RankTrackerModP(2147483629)
    for r in rows:
        tr.add(r)
    assert tr.rank <= rank(rows)


def test_subspace_operations():
    u = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    assert u.dim == v.dim == 2
    assert u.add(v).dim == 3
    assert u.contains([0, 5, 0]) and v.contains([0, 5, 0])
    assert u.add(v).contains_subspace(u) and not u.contains_subspace(v)
    assert not u.contains([0, 0, 1])
    assert Subspace(3).is_zero()


def test_subspace_equality_is_canonical():
    a = Subspace(2, [[1, 1], [1, 0]])
    b = Subspace(2, [[0, 1], [1, 0]])
    assert a == b and hash(a) == hash(b)


def test_coordinate_span():
    s = coordinate_span(4, [1, 3])
    assert s.dim == 2
    assert s.contains([0, 7, 0, -1])
    assert not s.contains([1, 0, 0, 0])
