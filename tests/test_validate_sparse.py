"""The axiom checks that walk nonzero products only, against the all-triples
and dense versions they replace: validate() on planted faults, sparse subspace
membership, the radical self-checks, subspace products and the powers of the
radical, and the call count of validate()."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stargraded as sg
from stargraded import core
from stargraded.checks import DIMS_GRID, parse_algebra_spec, parse_ut_spec
from stargraded.errors import InternalInconsistencyError
from stargraded.linalg import Subspace, _as_num, coordinate_span, mat_mul
from test_sweep_pruning import rescaled_by_index


def reference_validate(A):
    """validate() before it walked nonzero products: 2 d^3 basis products for
    associativity, the dense square of the star matrix, and d^2 products for
    the antiautomorphism."""
    report = []
    d = A.dim
    mul = core.sparse_mul
    prods = [[mul(A, {j: 1}, {k: 1}) for k in range(d)] for j in range(d)]
    for i in range(d):
        for j in range(d):
            ij = prods[i][j]
            for k in range(d):
                if mul(A, ij, {k: 1}) != mul(A, {i: 1}, prods[j][k]):
                    report.append(f"associativity fails at basis triple ({i},{j},{k})")
    for i, row in enumerate(A.rows):
        for j, ij in row.items():
            deg = (A.grading[i] + A.grading[j]) % 2
            for k, _ in ij:
                if A.grading[k] != deg:
                    report.append(f"grading compatibility fails at product ({i},{j})->{k}")
    m = [[A.star_sparse(k).get(r, 0) for k in range(d)] for r in range(d)]
    sq = mat_mul(m, m)
    for k in range(d):
        if [sq[r][k] for r in range(d)] != [1 if r == k else 0 for r in range(d)]:
            report.append(f"involution order: square is not identity at column {k}")
            break
    for k in range(d):
        for r, x in A.star_sparse(k).items():
            if x != 0 and A.grading[r] != A.grading[k]:
                report.append(f"involution grading preservation fails at basis {k}")
                break
    stars = [core.sparse_star(A, {k: 1}) for k in range(d)]
    for i in range(d):
        for j in range(d):
            if core.sparse_star(A, prods[i][j]) != mul(A, stars[j], stars[i]):
                report.append(f"antiautomorphism fails at basis pair ({i},{j})")
    return report


def reference_contains(S, v):
    """Subspace membership on a dense copy, finding each row's pivot by a scan."""
    w = [_as_num(x) for x in v]
    for row in (core.to_dense(r, S.ambient_dim) for r in S.sparse_basis):
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is not None and w[c] != 0:
            f = w[c]
            w = [_as_num(a - f * b) for a, b in zip(w, row)]
    return all(x == 0 for x in w)


BASES = {
    "M_{1,1}": lambda: sg.m_hl_transpose(1, 1),
    "ut[M_{1,1}+M_{1,0}]": lambda: sg.ut_star(parse_ut_spec("m_hl_transpose:1,1+m_hl_transpose:1,0", "")),
    "one_sided[M_{1,1}]": lambda: parse_algebra_spec("one_sided[m_hl_transpose:1,1]"),
}


def plant(doc, kind, rng):
    """A copy of the interchange document with one structure constant, one
    involution entry or one grading bit changed."""
    doc = copy.deepcopy(doc)
    d = doc["dim"]
    if kind == "grading":
        k = rng.randrange(d)
        doc["grading"][k] = 1 - doc["grading"][k]
        return doc
    # an existing entry or a random position, shifted by a nonzero amount
    entries = doc[kind]
    width = 3 if kind == "structure" else 2
    if entries and rng.random() < 0.5:
        position = rng.choice(entries)[:width]
    else:
        position = [rng.randrange(d) for _ in range(width)]
    shift = rng.choice([1, -1, Fraction(1, 2)])
    for entry in entries:
        if entry[:width] == position:
            entry[-1] = str(Fraction(entry[-1]) + shift)
            break
    else:
        entries.append(position + [str(shift)])
    return doc


@pytest.mark.parametrize("name", sorted(BASES))
def test_well_formed_algebras_pass_both_checks(name):
    A = BASES[name]()
    assert sg.validate(A) == reference_validate(A) == []


@pytest.mark.parametrize("kind", ["structure", "involution", "grading"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_planted_fault_reports_match_the_reference(name, kind):
    doc = sg.to_interchange(BASES[name]())
    for seed in range(8):
        rng = random.Random(f"{name}|{kind}|{seed}")
        bad = sg.from_interchange(plant(doc, kind, rng))
        expected = reference_validate(bad)
        assert expected, (kind, seed)
        assert sg.validate(bad) == expected


@pytest.mark.parametrize("name", sorted(BASES))
def test_several_planted_faults_keep_the_reference_order(name):
    doc = sg.to_interchange(BASES[name]())
    for seed in range(6):
        rng = random.Random(f"{name}|mixed|{seed}")
        for kind in ("structure", "involution", "structure", "grading"):
            doc = plant(doc, kind, rng)
        bad = sg.from_interchange(doc)
        assert sg.validate(bad) == reference_validate(bad)


fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def subspace_and_vector(draw):
    """Random rows over Q and a vector: a random one, or a combination of the
    rows with possibly one coordinate disturbed."""
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(fractions, min_size=m, max_size=m), max_size=5))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(fractions, min_size=len(rows), max_size=len(rows)))
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(m)]
        if draw(st.booleans()):
            v[draw(st.integers(0, m - 1))] += draw(fractions)
    else:
        v = draw(st.lists(fractions, min_size=m, max_size=m))
    return Subspace(m, rows), v


@given(subspace_and_vector())
@settings(max_examples=300, deadline=None)
def test_sparse_membership_matches_the_dense_reduction(case):
    S, v = case
    expected = reference_contains(S, v)
    assert S.contains(v) == expected
    assert S.contains({j: x for j, x in enumerate(v) if x != 0}) == expected
    assert S.contains({}) is True


def test_pivots_index_the_canonical_basis():
    S = Subspace(4, [[0, 2, 4, 0], [1, 0, 0, 3], [1, 1, 2, 3]])
    assert [core.to_dense(r, 4) for r in S.sparse_basis] == [[1, 0, 0, 3], [0, 1, 2, 0]]
    assert S.sparse_basis == ({0: 1, 3: 3}, {1: 1, 2: 2})
    assert S.pivots == {0: {0: 1, 3: 3}, 1: {1: 1, 2: 2}}


# M_{1,1}: e11, e22 even; e12, e21 odd; the involution is the transpose
M11_PLANTED = [
    ([[0, 1, 0, 0]], "not star-stable"),  # e12
    ([[1, 1, 1, 0]], "not grading-stable"),  # e11 + e12 + e21
    ([[1, 0, 0, 1]], "not a left ideal"),  # the unit
    ([[1 if r == c else 0 for c in range(4)] for r in range(4)], "not nilpotent"),  # all of M_{1,1}
    ([[1, 0, 0, 0], [0, 0, 1, 0]], "not a right ideal"),  # e11, e21: a left ideal; e11 e12 = e12
]


@pytest.mark.parametrize("rows, message", M11_PLANTED)
def test_planted_radicals_fail_their_self_check(rows, message):
    A = sg.m_hl_transpose(1, 1)
    with pytest.raises(InternalInconsistencyError, match=message):
        core._verify_radical(A, Subspace(4, rows))


def test_planted_non_ideal_in_a_glueing_fails():
    A = sg.ut_star(parse_ut_spec("m_hl_transpose:1,1+m_hl_transpose:1,0", ""))
    J = sg.jacobson_radical(A)
    core._verify_radical(A, J)
    # the radical plus the even, star-fixed unit of the first block is star-
    # and grading-stable, but e12 of that block times the unit is e12, outside it
    unit = core.block_unit(A, A.wedderburn.blocks[0].indices)
    planted = J.add(Subspace(A.dim, [core.to_dense(unit, A.dim)]))
    with pytest.raises(InternalInconsistencyError, match="not a left ideal"):
        core._verify_radical(A, planted)


def test_hom_components_from_integer_vectors_keep_the_halved_basis():
    for A in (sg.m_hl_transpose(2, 1), sg.m_hh_symplectic(2), sg.mn_cmn(2, "t", "+"),
              sg.mn_cmn_exchange(1), parse_algebra_spec("one_sided[m_hl_transpose:1,1]")):
        parts = {(0, 1): [], (0, -1): [], (1, 1): [], (1, -1): []}
        for k in range(A.dim):
            for sign in (1, -1):
                v = [0] * A.dim
                v[k] = Fraction(1, 2)
                for r, x in A.star_sparse(k).items():
                    v[r] += sign * Fraction(x) / 2
                parts[A.grading[k], sign].append(v)
        comp = sg.hom_components(A)
        assert comp.even_sym == Subspace(A.dim, parts[0, 1])
        assert comp.even_skew == Subspace(A.dim, parts[0, -1])
        assert comp.odd_sym == Subspace(A.dim, parts[1, 1])
        assert comp.odd_skew == Subspace(A.dim, parts[1, -1])


def test_validate_cost_follows_the_nonzero_products(monkeypatch):
    A = sg.ut_star(parse_ut_spec("mn_cmn_star:2,t+m_hl_transpose:2,1", ""))
    assert A.dim == 41
    calls = [0]
    mul = core.sparse_mul

    def counted(*args):
        calls[0] += 1
        return mul(*args)

    monkeypatch.setattr(core, "sparse_mul", counted)
    assert sg.validate(A) == []
    assert calls[0] < 20_000
    calls[0] = 0
    assert reference_validate(A) == []
    assert calls[0] > 2 * 41**3



def test_radical_ideal_checks_make_no_products(monkeypatch):
    # the ideal checks sum e_i v and v e_i from the structure table, and the
    # nilpotency check sums each power of J from the product rows too; pairwise
    # products made 24 x 24 = 576 calls for J^2, and one call per basis element
    # and side in the ideal checks added 2 * 41 * 24 = 1968 more
    A = sg.ut_star(parse_ut_spec("mn_cmn_star:2,t+m_hl_transpose:2,1", ""))
    J = sg.jacobson_radical(A)
    assert (A.dim, J.dim) == (41, 24)
    calls = [0]
    mul = core.sparse_mul

    def counted(*args):
        calls[0] += 1
        return mul(*args)

    monkeypatch.setattr(core, "sparse_mul", counted)
    core._verify_radical(A, J)
    assert calls[0] == 0


def reference_subspace_product(A, U, V):
    """subspace_product before it summed from the product rows: one sparse_mul
    per pair of basis vectors, every result held in a list."""
    if U.ambient_dim != A.dim or V.ambient_dim != A.dim:
        raise ValueError(f"subspaces of F^{U.ambient_dim} and F^{V.ambient_dim} in dimension {A.dim}")
    vecs = [core.sparse_mul(A, su, sv) for su in U.sparse_basis for sv in V.sparse_basis]
    return Subspace(A.dim, [w for w in vecs if w])


def reference_nilpotency_index(A, J):
    """nilpotency_index on the pairwise products."""
    power = J
    for p in range(1, A.dim + 2):
        if power.is_zero():
            return p
        power = reference_subspace_product(A, power, J)
    return None


def ut_of(n):
    return sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * n), ""))


EXTENSIONS = (
    "one_sided[m_hl_transpose:1,1]",
    "one_sided[mn_cmn_star:1,t]",
    "tensor[m_hl_transpose:1,1|noncommutative_nilpotent]",
    "tensor[m_hl_transpose:1,1|commutative_nilpotent:2]",
    "commutative_nilpotent:3",
    "noncommutative_nilpotent",
)

PRODUCT_CASES = {
    **{spec: (lambda spec=spec: parse_algebra_spec(spec)) for spec, _ in DIMS_GRID},
    **{spec: (lambda spec=spec: parse_algebra_spec(spec)) for spec in EXTENSIONS},
    "UT2": lambda: ut_of(2),
    "UT3": lambda: ut_of(3),
    "UT4": lambda: ut_of(4),
    "ut[mn_cmn_star:2,t+m_hl_transpose:2,1]": lambda: sg.ut_star(parse_ut_spec("mn_cmn_star:2,t+m_hl_transpose:2,1", "")),
    "rescaled UT3": lambda: rescaled_by_index(ut_of(3)),
    "rescaled one_sided[m_hl_transpose:1,1]": lambda: rescaled_by_index(
        parse_algebra_spec("one_sided[m_hl_transpose:1,1]")
    ),
    "rescaled tensor": lambda: rescaled_by_index(
        parse_algebra_spec("tensor[m_hl_transpose:1,1|noncommutative_nilpotent]")
    ),
}


def product_subspaces(A):
    """The radical, the four homogeneous components, the whole algebra, the
    zero subspace and each Wedderburn block's span."""
    comp = sg.hom_components(A)
    spaces = [sg.jacobson_radical(A), *(comp.by_kind(kind) for kind in ("y+", "y-", "z+", "z-"))]
    spaces += [coordinate_span(A.dim, range(A.dim)), Subspace(A.dim)]
    if A.wedderburn is not None:
        spaces += [coordinate_span(A.dim, b.indices) for b in A.wedderburn.blocks]
    return spaces


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_subspace_products_match_the_pairwise_reference(name):
    A = PRODUCT_CASES[name]()
    spaces = product_subspaces(A)
    for U in spaces:
        for V in spaces:  # both orders of every pair, the zero subspace included
            assert core.subspace_product(A, U, V) == reference_subspace_product(A, U, V)
    J = sg.jacobson_radical(A)
    power = J
    while not power.is_zero():
        nxt = core.subspace_product(A, power, J)
        assert nxt == reference_subspace_product(A, power, J)
        assert core.subspace_product(A, J, power) == reference_subspace_product(A, J, power)
        power = nxt
    # on UT2, UT3 and UT4, p = 2, 3 and 4 (test_radical_bound_on_ut_glueings)
    assert core.nilpotency_index(A, J) == reference_nilpotency_index(A, J) == A._nilpotency
    whole = coordinate_span(A.dim, range(A.dim))
    assert core.nilpotency_index(A, whole) == reference_nilpotency_index(A, whole)
    assert core.nilpotency_index(A, Subspace(A.dim)) == 1


def test_subspace_product_refuses_a_mismatched_dimension():
    A = ut_of(2)
    J = sg.jacobson_radical(A)
    other = coordinate_span(A.dim + 1, range(A.dim + 1))
    for U, V in ((other, J), (J, other)):
        with pytest.raises(ValueError, match=r"subspaces of F\^1[67] and F\^1[67] in dimension 16"):
            core.subspace_product(A, U, V)


@st.composite
def spanning_rows(draw, dim):
    """Up to four random rows over Q in F^dim, each with a few nonzeros."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        keys = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=4, unique=True))
        rows.append({k: draw(fractions) for k in keys})
    return rows


UT2 = ut_of(2)


@given(spanning_rows(UT2.dim), spanning_rows(UT2.dim))
@settings(max_examples=150, deadline=None)
def test_products_of_random_subspaces_match_the_reference(us, vs):
    U, V = Subspace(UT2.dim, us), Subspace(UT2.dim, vs)
    assert core.subspace_product(UT2, U, V) == reference_subspace_product(UT2, U, V)
    assert core.subspace_product(UT2, V, U) == reference_subspace_product(UT2, V, U)
