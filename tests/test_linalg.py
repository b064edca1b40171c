"""Exact rational linear algebra: ranks, solving, subspaces, rank trackers, and
the integer elimination against the dense Fraction Gauss-Jordan it replaced."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stargraded as sg
from stargraded import core
from stargraded.checks import DIMS_GRID, parse_algebra_spec
from stargraded.linalg import (
    RankTracker,
    Subspace,
    _as_num,
    _kernel,
    coordinate_span,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rref,
    solve,
)


def reference_rref(rows):
    """The dense Fraction Gauss-Jordan that rref() used before it read RankTracker."""
    m = [[_as_num(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        # entries are already normalized by _as_num, so zeros pass through unchanged
        if pv != 1:
            m[r] = [_as_num(Fraction(x, 1) / pv) if x else 0 for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [_as_num(a - f * b) if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reference_nullspace(rows, ncols):
    """nullspace() on the reference reduction."""
    if rows:
        ncols = len(rows[0])
    red, pivots = reference_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(v)
    return reference_rref(basis)[0]


def reference_solve(rows, rhs):
    """solve() on the reference reduction."""
    red, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    n = len(rows[0]) if rows else 0
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = Fraction(red[i][-1])
    return [_as_num(v) for v in x]

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
    assert tr.rank == len(reference_rref(rows)[0]) == grew


@st.composite
def shaped_matrices(draw):
    """Empty, wide, tall, zero-row and rank-deficient matrices over Q with
    mixed denominators, and a right-hand side that is consistent or random."""
    kind = draw(st.sampled_from(["empty", "random", "low_rank", "with_zero_rows"]))
    m = draw(st.integers(0, 8))
    if kind == "empty":
        rows = []
    elif kind == "low_rank":
        rows = draw(rational_low_rank())
        m = len(rows[0])
    else:
        rows = draw(st.lists(st.lists(fractions, min_size=m, max_size=m), min_size=1, max_size=8))
        if kind == "with_zero_rows":
            for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
                rows[i] = [0] * m
    if draw(st.booleans()):
        x = draw(st.lists(fractions, min_size=m, max_size=m))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(fractions, min_size=len(rows), max_size=len(rows)))
    return rows, m, rhs


@given(shaped_matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_the_dense_reference(case):
    rows, m, rhs = case
    red, pivots = rref(rows)
    assert (red, pivots) == reference_rref(rows)
    assert all(type(x) is int or x.denominator != 1 for r in red for x in r)
    assert rank(rows) == len(pivots)
    assert nullspace(rows, m) == reference_nullspace(rows, m)
    assert solve(rows, rhs) == reference_solve(rows, rhs)
    S = Subspace(m, rows)
    assert [core.to_dense(r, m) for r in S.sparse_basis] == red
    assert S.sparse_basis == tuple({j: x for j, x in enumerate(r) if x} for r in red)


GRID_AND_GLUEINGS = [s for s, _ in DIMS_GRID] + [
    "one_sided[m_hl_transpose:1,1]",
    "tensor[m_hl_transpose:1,1|noncommutative_nilpotent]",
    "m_hl_transpose:1,1+commutative_nilpotent:2",
]


@pytest.mark.parametrize("spec", GRID_AND_GLUEINGS)
def test_component_and_radical_bases_match_the_dense_reference(spec):
    A = parse_algebra_spec(spec)
    d = A.dim
    comp = sg.hom_components(A)
    for g, sign, kind in ((0, 1, "y+"), (0, -1, "y-"), (1, 1, "z+"), (1, -1, "z-")):
        vecs = []
        for k in (k for k in range(d) if A.grading[k] == g):
            v = [0] * d
            v[k] = 1
            for r, x in A.star_sparse(k).items():
                v[r] += sign * x
            vecs.append(v)
        assert [core.to_dense(r, d) for r in comp.by_kind(kind).sparse_basis] == reference_rref(vecs)[0]
    # the trace-form Gram matrix of jacobson_radical, reduced the old way
    T = core._left_trace_weights(A)
    G = [[0] * (d + 1) for _ in range(d + 1)]
    for i, row in enumerate(A.rows):
        for j, ij in row.items():
            G[i][j] = _as_num(sum(c * T[k] for k, c in ij))
    for i in range(d):
        G[i][d] = G[d][i] = T[i]
    G[d][d] = d + 1
    kernel = [v[:d] for v in reference_nullspace(G, d + 1)]
    assert [core.to_dense(r, d) for r in sg.jacobson_radical(A).sparse_basis] == reference_rref(kernel)[0]


def test_reduced_rows_are_the_canonical_rref():
    tr = RankTracker()
    for r in ([0, 2, 4, 0], [1, 0, 0, 3], [1, 1, 2, 3], [3, Fraction(1, 2), 1, 9]):
        tr.add(r)
    assert tr.reduced() == [{0: 1, 3: 3}, {1: 1, 2: 2}]
    rows = [[0, 2, 4, 0], [1, 0, 0, 3], [1, 1, 2, 3], [3, Fraction(1, 2), 1, 9]]
    assert nullspace(rows, 4) == [[1, 0, 0, Fraction(-1, 3)], [0, 1, Fraction(-1, 2), 0]]


def test_bad_shapes_raise_value_errors():
    with pytest.raises(ValueError, match="needs ncols"):
        nullspace([])
    with pytest.raises(ValueError, match="length 1"):
        mat_vec([[1, 2]], [1])
    with pytest.raises(ValueError, match="length 2 where 3"):
        Subspace(3, [[1, 2]])
    with pytest.raises(ValueError, match="outside range"):
        Subspace(2, [{2: 1}])
    with pytest.raises(ValueError, match="F\\^3"):
        Subspace(3).contains([1, 0])
    with pytest.raises(ValueError, match="F\\^2 and F\\^3"):
        Subspace(2).add(Subspace(3))


@pytest.mark.parametrize("call", [
    rank,
    rref,
    nullspace,
    lambda rows: solve(rows, [0] * len(rows)),
], ids=["rank", "rref", "nullspace", "solve"])
@pytest.mark.parametrize("rows", [[[1], [1, 2]], [[1, 2], [1]]], ids=["longer", "shorter"])
def test_ragged_rows_raise_value_errors(call, rows):
    with pytest.raises(ValueError, match=f"length {len(rows[1])} where {len(rows[0])}"):
        call(rows)


@st.composite
def kernel_cases(draw):
    """Sparse images keyed by ints or by tuples, with int and Fraction entries,
    explicit zeros and all-zero images, over a basis of random sparse vectors
    or of the unit vectors; the image list may be empty."""
    m = draw(st.integers(0, 6))
    keys = draw(st.sampled_from([
        st.integers(0, 4),
        st.tuples(st.integers(0, 1), st.integers(0, 2)),
    ]))
    values = st.one_of(st.sampled_from([0, 0, 1, -2, 3]), fractions)
    images = draw(st.lists(st.dictionaries(keys, values, max_size=4), min_size=m, max_size=m))
    dim = draw(st.integers(1, 5))
    if draw(st.booleans()):
        dim = max(dim, m)
        basis = [{a: 1} for a in range(m)]
    else:
        vec = st.dictionaries(st.integers(0, dim - 1), st.one_of(entries, fractions), max_size=3)
        basis = draw(st.lists(vec, min_size=m, max_size=m))
    return dim, basis, images


@given(kernel_cases())
@example((3, [], []))
@example((2, [{0: 1}, {1: 1}], [{}, {(0, 1): 0}]))
@example((2, [{0: 1, 1: 1}, {1: Fraction(1, 2)}], [{(1, 0): Fraction(2, 3)}, {(1, 0): -1, (0, 2): 0}]))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_dense_reference(case):
    dim, basis, images = case
    support = sorted(set().union(*images))
    M = [[img.get(r, 0) for img in images] for r in support]
    spans = [
        [sum(c * basis[a].get(k, 0) for a, c in enumerate(coeffs)) for k in range(dim)]
        for coeffs in reference_nullspace(M, len(images))
    ]
    K = _kernel(dim, basis, images)
    assert K.ambient_dim == dim
    assert [core.to_dense(r, dim) for r in K.sparse_basis] == reference_rref(spans)[0]


def test_rank_tracker_rows_are_primitive_echelon():
    tr = RankTracker()
    for r in ([0, Fraction(2, 3), Fraction(4, 3)], [Fraction(-1, 2), 1, 0], [0, 3, 6], [1, 1, 1]):
        tr.add(r)
    assert tr.rank == 3 and tr.pivots == [0, 1, 2]
    for c, (cols, vals) in tr.rows.items():
        assert cols[0] == c and vals[0] > 0 and all(isinstance(v, int) for v in vals)


@st.composite
def rows_with_dicts(draw):
    """Rational rows, and each row again as a dict in shuffled key order that
    keeps some of the row's zeros. Mostly zero rows put non-pivot entries left
    of a later pivot, the case where the reduced entries are scaled too.

    One-entry vectors {j: x} are mixed in: x zero, an int or a Fraction, at a
    column with no pivot (which stores the unit row e_j), at a unit row and at
    a pivot whose row has more entries. The few columns make repeats common."""
    mostly_zero = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -4, Fraction(1, 2), Fraction(-2, 3)])
    rows = draw(st.one_of(
        matrices(6),
        st.integers(1, 6).flatmap(
            lambda m: st.lists(st.lists(mostly_zero, min_size=m, max_size=m), min_size=1, max_size=7)
        ),
        st.integers(1, 6).flatmap(
            lambda m: st.lists(st.lists(fractions, min_size=m, max_size=m), min_size=1, max_size=7)
        ),
        rational_low_rank(),
    ))
    dicts = []
    for row in rows:
        kept = [(j, x) for j, x in enumerate(row) if x or draw(st.booleans())]
        dicts.append(dict(draw(st.permutations(kept))))
    m = len(rows[0])
    values = st.sampled_from([0, Fraction(0), 1, -3, Fraction(2, 3), Fraction(-5, 7)])
    single = st.tuples(st.integers(0, m - 1), values)
    for j, x in draw(st.lists(single, max_size=8)):
        at = draw(st.integers(0, len(rows)))
        row = [0] * m
        row[j] = x
        rows.insert(at, row)
        dicts.insert(at, {j: x})
    return rows, dicts


def tracker_state(tr):
    return tr.pivots, tr.rows, tr.reduced()


@given(rows_with_dicts())
@example((
    [[1, 0, 2], [0, 1, 0], [0, 3, 0], [0, Fraction(2, 3), 0], [0, 0, 0], [5, 0, 0]],
    [{0: 1, 2: 2}, {1: 1}, {1: 3}, {1: Fraction(2, 3)}, {1: 0}, {0: 5}],
))
@example((
    [[0, 0, -3, 0], [0, 0, 0, Fraction(3, 4)], [0, Fraction(-2, 5), 0, 0], [2, 0, 6, 0]],
    [{2: -3}, {3: Fraction(3, 4)}, {1: Fraction(-2, 5)}, {0: 2, 2: 6}],
))
@example((
    [[2, 0, -4, 6], [2, 0, Fraction(-4, 1), 6], [0, 3, 0, 9]],
    [{0: 2, 2: -4, 3: 6}, {3: 6, 0: 2, 2: Fraction(-4, 1)}, {1: 3, 3: 9, 0: 0}],
))
@example((
    [[2, 0, Fraction(-4, 1), 6], [2, 0, -4, 6], [0, 3, 0, 9]],
    [{0: 2, 2: Fraction(-4, 1), 3: 6}, {3: 6, 0: 2, 2: -4}, {1: 3, 3: 9, 0: 0}],
))
@settings(max_examples=200, deadline=None)
def test_rank_tracker_reads_a_dict_as_its_dense_row(case):
    # the first example adds, after a row with pivot 0 and the unit row e_1:
    # one-entry vectors at the unit row (int, then Fraction), one with a zero
    # value, and one at pivot 0, whose row is not a unit row. The second adds
    # one-entry vectors at free columns: a negative int, a Fraction, and a
    # negative Fraction left of the stored pivots; then a row that reaches a
    # stored unit row. The last two add an all-int dict and the same dict with
    # one value written as Fraction(n, 1), each of the two first once
    rows, dicts = case
    dense, sparse = RankTracker(), RankTracker()
    for row, vec in zip(rows, dicts):
        assert dense.add(row) == sparse.add(vec)
        assert tracker_state(dense) == tracker_state(sparse)


def test_rank_tracker_takes_an_int_sequence_as_it_is():
    # an all-int sequence is copied without the denominator scan; with one
    # entry written as Fraction(n, 1), or as the equal sparse dict, it gives
    # the same rows, and the caller's list is not changed by the elimination
    ints = [2, 8, -4, 0, 10]
    states = []
    for vec in (ints, [2, 8, Fraction(-4, 1), 0, 10], {0: 2, 1: 8, 2: -4, 4: 10}):
        tr = RankTracker([[1, 1, 0, 0, 0]])
        assert tr.add(vec)
        states.append(tr.rows)
    assert states[0] == states[1] == states[2]
    assert states[0][1] == ([1, 2, 4], [3, -2, 5])
    assert ints == [2, 8, -4, 0, 10]
    # a Fraction(1, 2) entry still scales the sequence by the lcm of its denominators
    tr = RankTracker()
    assert tr.add([0, Fraction(1, 2), 1, 0, Fraction(3, 2)])
    assert tr.rows == {1: ([1, 2, 4], [1, 2, 3])}
    assert all(type(x) is int for x in tr.rows[1][1])


def test_rank_tracker_dict_keys_are_indices():
    for vec, pivots in (({3: 1}, [3]), ({2: 7, 0: 5}, [0]), ({}, []), ({0: 0, 2: Fraction(0)}, [])):
        tr = RankTracker()
        assert tr.add(vec) is bool(pivots)
        assert tr.pivots == pivots
    tr = RankTracker([{0: 5, 2: 7}])
    assert tr.rows == {0: ([0, 2], [5, 7])}
    assert not tr.add([Fraction(5, 3), 0, Fraction(7, 3)])


def test_subspace_operations():
    u = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    assert u.dim == v.dim == 2
    assert u.add(v).dim == 3
    assert u.contains([0, 5, 0]) and v.contains([0, 5, 0])
    assert all(u.add(v).contains(r) for r in u.sparse_basis)
    assert not all(u.contains(r) for r in v.sparse_basis)
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
