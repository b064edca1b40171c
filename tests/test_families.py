"""The classified simple families: construction from matrices, frozen
dimension grid, closed forms, tag validation."""

import pytest

import stargraded as sg
from stargraded.core import sparse_mul, sparse_star
from stargraded.checks import DIMS_GRID, parse_family_token
from stargraded.families import FamilyTag, family_matrices, from_matrices, validate_tag
from stargraded.triangular import component_corner_size, is_trivially_graded


@pytest.mark.parametrize("token,expected", DIMS_GRID, ids=[t for t, _ in DIMS_GRID])
def test_frozen_dimension_grid(token, expected):
    tag = parse_family_token(token)
    A = sg.build_family(tag)
    assert sg.validate(A) == []
    assert sg.hom_dims(A) == expected
    assert sg.classified_hom_dims(tag) == expected


@pytest.mark.parametrize("token", [t for t, _ in DIMS_GRID])
def test_every_grid_algebra_is_simple(token):
    A = sg.build_family(parse_family_token(token))
    assert sg.is_star_graded_simple(A)
    assert sg.jacobson_radical(A).is_zero()


def test_closed_forms_beyond_the_grid():
    assert sg.classified_hom_dims(FamilyTag(sg.MHL_T, (3, 1))) == (7, 3, 3, 3)
    assert sg.classified_hom_dims(FamilyTag(sg.MHL_EXC, (3, 2))) == (13, 13, 12, 12)
    assert sg.classified_hom_dims(FamilyTag(sg.MN_CMN_STAR, (3, "t"))) == (6, 3, 3, 6)
    assert sg.classified_hom_dims(FamilyTag(sg.MN_CMN_DAGGER, (3, "t"))) == (6, 3, 6, 3)
    assert sg.classified_hom_dims(FamilyTag(sg.MN_CMN_EXC, (3,))) == (9, 9, 9, 9)


def test_symplectic_star_squares_to_identity():
    A = sg.m_hh_symplectic(2)
    for k in range(A.dim):
        assert sparse_star(A, sparse_star(A, {k: 1})) == {k: 1}


def test_exchange_families_swap_summands():
    A = sg.m_hl_exchange(1, 0)
    assert A.dim == 2
    assert sparse_star(A, {0: 1}) == {1: 1}


def test_central_element_is_really_central():
    A = sg.mn_cmn(2, "t", "-")
    c = {4: 1, 7: 1}
    for k in range(A.dim):
        assert sparse_mul(A, c, {k: 1}) == sparse_mul(A, {k: 1}, c)
    assert sparse_mul(A, c, c) == {0: 1, 3: 1}


def test_dagger_and_star_differ_only_on_the_central_part():
    minus = sg.mn_cmn(2, "t", "-")
    plus = sg.mn_cmn(2, "t", "+")
    k = 4
    sm = sparse_star(minus, {k: 1})
    sp = sparse_star(plus, {k: 1})
    assert sm and sm == {r: -x for r, x in sp.items()}


def test_tag_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FamilyTag(sg.MHL_T, (0, 0))
    with pytest.raises(ValueError):
        FamilyTag(sg.MHL_T, (1, 2))
    with pytest.raises(ValueError):
        FamilyTag(sg.MN_CMN_STAR, (3, "s"))
    with pytest.raises(ValueError):
        FamilyTag(sg.MN_CMN_STAR, (2, "q"))
    with pytest.raises(ValueError):
        FamilyTag("no_such_family", (1,))
    # the constructors check their parameters too
    for build, args in (
        (sg.m_hl_transpose, (0, 0)),
        (sg.m_hl_transpose, (1, 2)),
        (sg.m_hh_symplectic, (0,)),
        (sg.m_hl_exchange, (1, 2)),
        (sg.m_hl_exchange, (0, 0)),
        (sg.mn_cmn, (3, "s", "-")),
        (sg.mn_cmn, (2, "q", "+")),
        (sg.mn_cmn, (0, "t", "+")),
        (sg.mn_cmn, (1, "t", "x")),
        (sg.mn_cmn_exchange, (0,)),
        (sg.mn_cmn_exchange, ("a",)),
    ):
        with pytest.raises(ValueError):
            build(*args)


def test_parse_family_token_errors():
    with pytest.raises(ValueError):
        parse_family_token("m_hl_transpose")
    with pytest.raises(ValueError):
        parse_family_token("m_hl_transpose:1,2,3")
    with pytest.raises(ValueError):
        parse_family_token("unknown:1")


def test_wedderburn_data_marks_one_simple_block():
    A = sg.m_hl_transpose(2, 1)
    assert len(A.wedderburn.blocks) == 1
    assert A.wedderburn.blocks[0].indices == tuple(range(A.dim))
    assert A.wedderburn.radical == ()


TRANSPOSE_2 = ([0, 1], [1, 1])


@pytest.mark.parametrize(
    "mats,degrees,message",
    [
        # e12 is in the span but its transpose e21 is not
        ([{(0, 0): 1}, {(0, 1): 1}], [0, 0], "leaves the span"),
        # (e11 + 2 e22)^2 = e11 + 4 e22 is no multiple of it
        ([{(0, 0): 1, (1, 1): 2}], [0, 0], "not in the span"),
        ([{(0, 0): 1, (0, 1): 1}], [0, 1], "not homogeneous"),
        ([{(0, 0): 1}, {(0, 0): 1, (1, 1): 1}], [0, 0], "claimed twice"),
    ],
)
def test_from_matrices_refuses_what_is_not_an_algebra(mats, degrees, message):
    labels = [f"b{t}" for t in range(len(mats))]
    with pytest.raises(sg.InternalInconsistencyError, match=message):
        from_matrices(labels, mats, degrees, TRANSPOSE_2, None)


@pytest.mark.parametrize("token", [t for t, _ in DIMS_GRID])
def test_corner_closed_forms_agree_with_the_family_matrices(token):
    # the dimension pre-check of parse_ut_spec reads the corner size and the
    # trivial grading from closed forms, before any matrix is built
    tag = parse_family_token(token)
    _, mats, degrees, _ = family_matrices(tag)
    size = component_corner_size(tag)
    inside = [m for m in mats if all(r < size and c < size for r, c in m)]
    outside = [m for m in mats if all(r >= size and c >= size for r, c in m)]
    assert len(inside) + len(outside) == len(mats)
    assert {r for m in inside for r, _ in m} == set(range(size))
    assert is_trivially_graded(tag) == (set(degrees[:size]) == {0})
