"""Core algebra type: validation, homogeneous parts, radical, Peirce pieces,
simplicity, serialization."""

import json
import sys
from fractions import Fraction

import pytest

import stargraded as sg
from stargraded import core
from stargraded.checks import DIMS_GRID, parse_ut_spec
from stargraded.core import (
    StarSuperAlgebra,
    _frac_str,
    block_unit,
    semisimple_unit,
    sparse_mul,
    sparse_star,
)
from stargraded.errors import InternalInconsistencyError
from stargraded.linalg import Subspace, _as_num, solve


def test_validate_accepts_well_formed_algebras():
    for a in (sg.m_hl_transpose(2, 1), sg.m_hh_symplectic(1), sg.mn_cmn(2, "t", "-")):
        assert sg.validate(a) == []


def test_validate_catches_broken_associativity():
    bad = StarSuperAlgebra(
        dim=2,
        labels=("a", "b"),
        structure=[(0, 0, 1, 1), (0, 1, 0, 1)],
        grading=(0, 0),
        involution=[(0, 0, 1), (1, 1, 1)],
    )
    assert any("associat" in p for p in sg.validate(bad))


def test_involution_triples_keep_the_last_entry_and_drop_zeros():
    A = StarSuperAlgebra(2, ("a", "b"), [], (0, 0), [(1, 0, 5), (0, 0, 1), (1, 0, 0), (1, 1, "1/1"), (0, 1, 0)])
    assert [A.star_sparse(k) for k in range(2)] == [{0: 1}, {1: 1}]
    with pytest.raises(ValueError, match="outside range"):
        StarSuperAlgebra(2, ("a", "b"), [], (0, 0), [(0, 2, 1)])


def test_structure_entries_are_summed_and_zeros_dropped():
    entries = [(0, 0, 0, 1), (0, 0, 1, 2), (0, 0, 0, "1/2"), (0, 1, 1, 3), (0, 1, 1, -3),
               (1, 0, 1, 1), (1, 0, 0, 0), (0, 0, 1, -2), (1, 0, 1, Fraction(1, 3))]
    star = [(0, 0, 1), (1, 1, 1)]
    A = StarSuperAlgebra(2, ("a", "b"), entries, (0, 0), star)
    # repeated (i, j, k) entries are summed, a zero sum is dropped, and the
    # pair (0, 1), whose terms all cancel, has no key
    assert A.rows == [{0: ((0, Fraction(3, 2)),)}, {0: ((1, Fraction(4, 3)),)}]
    cancelled = StarSuperAlgebra(2, ("a", "b"), [(0, 1, 1, 3), (0, 1, 1, -3)], (0, 0), star)
    assert cancelled.rows == [{}, {}]
    assert not sg.is_star_graded_simple(cancelled)
    with pytest.raises(ValueError, match="outside range"):
        StarSuperAlgebra(2, ("a", "b"), [(0, 1, 2, 1)], (0, 0), star)
    # the same entries in another order hold the same products and serialize alike
    shuffled = StarSuperAlgebra(2, ("a", "b"), entries[::-1], (0, 0), star)
    assert shuffled.rows == A.rows
    assert json.dumps(sg.to_interchange(shuffled)) == json.dumps(sg.to_interchange(A))


@pytest.mark.parametrize("c,value", [
    (3, 3), (-2, -2), (Fraction(4, 2), 2), (Fraction(-1, 3), Fraction(-1, 3)),
    ("-3/2", Fraction(-3, 2)), ("+7", 7), ("10/5", 2), ("0", 0), ("007/014", Fraction(1, 2)),
])
def test_coefficients_read_as_exact_rationals(c, value):
    got = core._coeff(c)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("c", [
    "1e999999999", "1e3", "0.5", " 3", "3 ", "1_000", "\uff13", "-3/-2", "3/", "/2", "", "+", "1/0",
    "9" * 5000, "1/" + "7" * 5000, 1.5, 1.0, True, None, [1], {"n": 1}, "1/00", " 1",
    pytest.param("1.5", id="string 1.5"),
])
def test_coefficients_outside_the_grammar_are_refused(c):
    with pytest.raises(ValueError, match="bad coefficient"):
        core._coeff(c)


@pytest.mark.parametrize("c", ["6/3", "-6/3", "+4/2", "-0/5", "7/2", "-7/14", "5", "00/1"])
def test_string_coefficients_match_the_fraction_route(c):
    # "n/d" is read in integers, as n // d when d divides n: the value and the
    # type are those of the Fraction it used to build and normalise
    num, _, den = c.partition("/")
    want = _as_num(Fraction(int(num), int(den or 1)))
    got = core._coeff(c)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("c", ["9" * 5000, "1/" + "7" * 5000, "-" + "3" * 4301 + "/2"])
def test_an_over_long_coefficient_names_the_digit_limit(c):
    with pytest.raises(ValueError) as info:
        core._coeff(c)
    msg = str(info.value)
    assert msg.startswith("bad coefficient " + repr(c)[:40] + "...")
    assert f"({len(c) + 2} characters)" in msg
    assert f"more than {sys.get_int_max_str_digits()} digits" in msg
    assert len(msg) < 200


def test_validate_catches_non_involutive_star(m2):
    doc = sg.to_interchange(m2)
    doc["involution"][0] = [0, 1, "2/1"]
    broken = sg.from_interchange(doc)
    assert sg.validate(broken) != []


def test_multiply_and_star_on_matrix_units(m2):
    e12, e21 = {1: 1}, {2: 1}
    assert sparse_mul(m2, e12, e21) == {0: 1}
    assert sparse_mul(m2, e21, e12) == {3: 1}
    assert sparse_star(m2, e12) == e21


def test_star_is_graded_antiautomorphism(m2):
    import itertools

    for i, j in itertools.product(range(4), repeat=2):
        lhs = sparse_star(m2, sparse_mul(m2, {i: 1}, {j: 1}))
        rhs = sparse_mul(m2, sparse_star(m2, {j: 1}), sparse_star(m2, {i: 1}))
        assert lhs == rhs


def test_hom_components_split_the_whole_space(m2):
    comp = sg.hom_components(m2)
    assert sum(comp.by_kind(k).dim for k in ("y+", "y-", "z+", "z-")) == m2.dim
    assert sg.hom_dims(m2) == (2, 0, 1, 1)


def test_hom_members_have_the_right_symmetry(m2):
    space = sg.hom_components(m2).by_kind("z-")
    assert space.dim > 0
    for sv in space.sparse_basis:
        assert sparse_star(m2, sv) == {k: -c for k, c in sv.items()}


def test_radical_of_simple_is_zero(m2):
    assert sg.jacobson_radical(m2).is_zero


def test_radical_of_triangular_is_the_strictly_upper_part(ut2):
    rad = sg.jacobson_radical(ut2)
    assert rad.dim == 8
    want = set(ut2.wedderburn.radical)
    for k in want:
        assert rad.contains([1 if i == k else 0 for i in range(ut2.dim)])


def test_block_unit_and_semisimple_unit(ut2):
    blocks = ut2.wedderburn.blocks
    u0 = block_unit(ut2, blocks[0].indices)
    assert sparse_mul(ut2, u0, u0) == u0
    e = semisimple_unit(ut2)
    assert sparse_mul(ut2, e, e) == e
    assert sparse_star(ut2, e) == e


def test_block_unit_requires_a_unital_subalgebra(small_ut):
    with pytest.raises(ValueError):
        block_unit(small_ut, small_ut.wedderburn.radical)


def reference_block_unit(A, indices):
    """The reference for block_unit: a dense solve of x e_s = e_s x = e_s over the
    index set, 2·|idx|·dim rows of |idx| entries."""
    idx = list(indices)
    rows, rhs = [], []
    for s in idx:
        for side in ("left", "right"):
            prods = [
                sparse_mul(A, {t: 1}, {s: 1}) if side == "left" else sparse_mul(A, {s: 1}, {t: 1})
                for t in idx
            ]
            for r in range(A.dim):
                rows.append([p.get(r, 0) for p in prods])
                rhs.append(1 if r == s else 0)
    x = solve(rows, rhs)
    if x is None:
        raise ValueError("subalgebra has no identity element")
    return {t: c for t, c in zip(idx, x) if c != 0}


def reference_is_star_graded_simple(A):
    """The reference for is_star_graded_simple over every proper subset of the
    blocks e A: simple when no subset's span is closed under star and grading."""
    if not any(A.rows):
        return False
    if not sg.jacobson_radical(A).is_zero():
        return False
    blocks = [
        Subspace(A.dim, [sparse_mul(A, e, {k: 1}) for k in range(A.dim)])
        for e in sg.central_primitive_idempotents(A)
    ]
    n = len(blocks)
    for mask in range(1, (1 << n) - 1):
        span = Subspace(A.dim, [v for b in range(n) if mask >> b & 1 for v in blocks[b].sparse_basis])
        if all(
            span.contains(sparse_star(A, sv)) and span.contains(core.grading_projection(A, sv, 0))
            for sv in span.sparse_basis
        ):
            return False
    return True


def rescaled(A, scales):
    """A on the basis f_i = scales[i] e_i, so its structure constants are Fractions."""
    structure = [
        (i, j, k, Fraction(c) * scales[i] * scales[j] / scales[k])
        for i, row in enumerate(A.rows) for j, ij in row.items() for k, c in ij
    ]
    star = [(r, k, Fraction(c) * scales[k] / scales[r]) for k in range(A.dim) for r, c in A.star_sparse(k).items()]
    return StarSuperAlgebra(A.dim, A.labels, structure, A.grading, star, wedderburn=A.wedderburn)


def _typed(v):
    # a sparse vector's entries with their coefficient types, in key order
    return [(k, c, type(c)) for k, c in v.items()]


def _outcome(f, *args):
    try:
        return _typed(f(*args))
    except ValueError:
        return ValueError


REFERENCE_SPECS = [s for s, _ in DIMS_GRID] + [
    "m_hl_transpose:1,1+m_hl_transpose:1,1",
    # two orbits of two exchanged blocks, and an orbit of four beside a block of its own
    "m_hl_exchange:1,0+m_hl_exchange:1,0",
    "mn_cmn_exchange:1+m_hl_transpose:1,0",
    "mn_cmn_exchange:1+mn_cmn_exchange:1",
    "mn_cmn_star:1,t+m_hh_symplectic:1",
    "one_sided[m_hl_transpose:1,1]",
    "tensor[m_hl_transpose:1,1|noncommutative_nilpotent]",
    "m_hl_transpose:1,1+commutative_nilpotent:2",
    "ut m_hl_transpose:1,1+m_hl_transpose:1,1",
    "ut m_hl_transpose:1,0+m_hl_transpose:1,0 0,1",
    "ut mn_cmn_star:1,t+m_hl_exchange:1,0",
    "ut m_hl_transpose:1,1+m_hl_transpose:1,1+m_hl_transpose:1,1",
    "rescaled m_hl_transpose:1,1",
    "rescaled mn_cmn_exchange:1+m_hl_transpose:1,1",
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_units_and_simplicity_match_the_dense_references(spec):
    kind, *args = spec.split()
    if kind == "ut":
        A = sg.ut_star(parse_ut_spec(args[0], args[1] if len(args) > 1 else ""))
    elif kind == "rescaled":
        base = sg.parse_algebra_spec(args[0])
        A = rescaled(base, [Fraction(k + 2, 3) * (-1) ** k for k in range(base.dim)])
    else:
        A = sg.parse_algebra_spec(spec)
    assert sg.is_star_graded_simple(A) == reference_is_star_graded_simple(A)
    blocks = [b.indices for b in A.wedderburn.blocks]
    # a repeated index names the same basis vector again
    index_sets = [range(A.dim), A.wedderburn.radical, blocks[0] * 2] + blocks
    for idx in index_sets:
        assert _outcome(block_unit, A, idx) == _outcome(reference_block_unit, A, idx)
    if A.wedderburn.radical:
        assert _outcome(block_unit, A, A.wedderburn.radical) is ValueError
    want = {}
    for b in A.wedderburn.blocks:
        for k, c in reference_block_unit(A, b.indices).items():
            want[k] = want.get(k, 0) + c
    assert _typed(semisimple_unit(A)) == _typed({k: c for k, c in want.items() if c})


def test_peirce_pieces_partition_the_radical(ut2):
    p = sg.peirce_decompose(ut2)
    assert (p.j00.dim, p.j01.dim, p.j10.dim, p.j11.dim) == (0, 0, 0, 8)


def test_is_star_graded_simple(m2, ut2):
    assert sg.is_star_graded_simple(m2)
    assert not sg.is_star_graded_simple(ut2)
    two = sg.direct_sum(m2, m2)
    assert not sg.is_star_graded_simple(two)


def test_an_orbit_image_outside_the_idempotents_is_an_inconsistency(monkeypatch):
    # the exchange involution swaps the two central primitive idempotents, so with
    # only the first listed, its star image is outside the list
    A = sg.parse_algebra_spec("m_hl_exchange:1,0")
    first = sg.central_primitive_idempotents(A)[:1]
    monkeypatch.setattr(core, "central_primitive_idempotents", lambda A: first)
    with pytest.raises(InternalInconsistencyError, match="is not one"):
        sg.is_star_graded_simple(A)


def test_direct_sum_adds_dimensions(m2, ground):
    s = sg.direct_sum(m2, ground)
    assert s.dim == 5
    assert sg.validate(s) == []
    assert sg.hom_dims(s) == (3, 0, 1, 1)
    assert len(s.wedderburn.blocks) == 2


def test_central_primitive_idempotents(m2, ground):
    s = sg.direct_sum(m2, ground)
    idems = sg.central_primitive_idempotents(s)
    assert len(idems) == 2
    for e in idems:
        assert sparse_mul(s, e, e) == e


def test_interchange_round_trip(ut2):
    doc = sg.to_interchange(ut2)
    back = sg.from_interchange(doc)
    assert back.dim == ut2.dim
    assert back.labels == ut2.labels
    assert back.grading == ut2.grading
    assert [back.star_sparse(k) for k in range(back.dim)] == [ut2.star_sparse(k) for k in range(ut2.dim)]
    assert sg.to_interchange(back) == doc


def test_save_and_load(tmp_path, m2):
    path = tmp_path / "m2.json"
    sg.save_algebra(m2, path)
    back = sg.load_algebra(path)
    assert sg.to_interchange(back) == sg.to_interchange(m2)


def test_frac_str_lowest_terms():
    assert _frac_str(Fraction(2, 4)) == "1/2"
    assert _frac_str(3) == "3/1"
    assert _frac_str(Fraction(-1, 3)) == "-1/3"


@pytest.mark.parametrize("x", [0, 1, -1, -7, 2**64 + 1, -(2**70), Fraction(6, -4), Fraction(5), Fraction(0)])
def test_frac_str_matches_the_fraction_formatting(x):
    # ints skip the Fraction; the text is the one Fraction(x) gives
    f = Fraction(x)
    assert _frac_str(x) == f"{f.numerator}/{f.denominator}"


def test_radical_centralizer_sizes(ut2):
    assert sg.radical_centralizer(ut2).dim == 0


def reference_peirce(A):
    """The four pieces J_pq = {v in J : e v = p v, v e = q v}, each from its own
    e v and v e, as peirce_decompose computed them before it shared them."""
    e = semisimple_unit(A)
    J = sg.jacobson_radical(A)
    pieces = []
    for p in (0, 1):
        for q in (0, 1):
            cols = []
            for sv in J.sparse_basis:
                lv, rv = sparse_mul(A, e, sv), sparse_mul(A, sv, e)
                col = ([lv.get(r, 0) - p * sv.get(r, 0) for r in range(A.dim)]
                       + [rv.get(r, 0) - q * sv.get(r, 0) for r in range(A.dim)])
                cols.append(core.to_sparse(col))
            pieces.append(core._kernel(A.dim, J.sparse_basis, cols))
    return pieces


@pytest.mark.parametrize("spec, dims, products", [
    # e v and v e once per radical basis vector v, the block unit being read from
    # the product rows with no product call; four passes that each recompute
    # them would make 128, 64 and 16
    ("tensor[m_hl_transpose:1,1|noncommutative_nilpotent]", (0, 0, 0, 16), 32),
    ("one_sided[m_hl_transpose:1,1]", (0, 4, 4, 0), 16),
    ("m_hl_transpose:1,1+commutative_nilpotent:2", (2, 0, 0, 0), 4),
])
def test_peirce_computes_each_action_once(spec, dims, products, monkeypatch):
    A = sg.parse_algebra_spec(spec)
    sg.jacobson_radical(A)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return sparse_mul(*args)

    monkeypatch.setattr(core, "sparse_mul", counted)
    dec = sg.peirce_decompose(A)
    monkeypatch.undo()
    assert calls[0] == products
    pieces = [dec.j00, dec.j01, dec.j10, dec.j11]
    assert tuple(p.dim for p in pieces) == dims
    assert pieces == reference_peirce(A)
