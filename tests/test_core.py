"""Core algebra type: validation, homogeneous parts, radical, Peirce pieces,
simplicity, serialization."""

import json
from fractions import Fraction

import pytest

import stargraded as sg
from stargraded import core
from stargraded.core import (
    StarSuperAlgebra,
    _frac_str,
    block_unit,
    semisimple_unit,
    sparse_mul,
    sparse_star,
)


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
    "9" * 5000, "1/" + "7" * 5000, 1.5, 1.0, True, None, [1], {"n": 1},
])
def test_coefficients_outside_the_grammar_are_refused(c):
    with pytest.raises(ValueError, match="bad coefficient"):
        core._coeff(c)


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


def test_peirce_pieces_partition_the_radical(ut2):
    p = sg.peirce_decompose(ut2)
    assert (p.j00.dim, p.j01.dim, p.j10.dim, p.j11.dim) == (0, 0, 0, 8)


def test_is_star_graded_simple(m2, ut2):
    assert sg.is_star_graded_simple(m2)
    assert not sg.is_star_graded_simple(ut2)
    two = sg.direct_sum(m2, m2)
    assert not sg.is_star_graded_simple(two)


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
    # 32 products for the block unit of M_{1,1}, then e v and v e once per radical
    # basis vector v; four passes that each recompute them would make 160, 96 and 48
    ("tensor[m_hl_transpose:1,1|noncommutative_nilpotent]", (0, 0, 0, 16), 64),
    ("one_sided[m_hl_transpose:1,1]", (0, 4, 4, 0), 48),
    ("m_hl_transpose:1,1+commutative_nilpotent:2", (2, 0, 0, 0), 36),
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
