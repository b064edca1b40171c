"""Block triangular construction: layout, grading shifts, component
restriction, mirror involution, radical placement."""

import pytest

import stargraded as sg
from stargraded import core
from stargraded.checks import parse_ut_spec
from stargraded.core import sparse_mul, sparse_star
from stargraded.triangular import UtSpec, component_corner_size, is_trivially_graded


def test_ut2_shape(ut2):
    assert ut2.dim == 16
    assert sg.validate(ut2) == []
    assert ut2.layout.sizes == (2, 2)
    assert ut2.layout.bounds == (2, 4)
    assert ut2.layout.degrees == (0, 1, 0, 1, 1, 0, 1, 0)
    assert sg.hom_dims(ut2) == (6, 2, 4, 4)


def test_ut2_radical_is_the_connecting_part(ut2):
    rad = set(ut2.wedderburn.radical)
    assert len(rad) == 8
    for k in rad:
        assert ut2.labels[k].startswith("r[")
    diag = [k for k in range(ut2.dim) if k not in rad]
    assert all(ut2.labels[k].startswith("D") for k in diag)


def test_ut2_products_respect_the_flag(ut2):
    lab = {name: k for k, name in enumerate(ut2.labels)}
    # strictly upper elements multiply to zero among themselves
    for a in ("r[1,3]", "r[2,4]"):
        for b in ("r[1,3]", "r[2,4]"):
            assert sparse_mul(ut2, {lab[a]: 1}, {lab[b]: 1}) == {}
    # second block acts on the right of the connector
    prod = sparse_mul(ut2, {lab["r[1,3]"]: 1}, {lab["D2.e1,2"]: 1})
    assert prod != {}


def test_ut2_star_swaps_mirror_units(ut2):
    lab = {name: k for k, name in enumerate(ut2.labels)}
    v = sparse_star(ut2, {lab["r[1,3]"]: 1})
    assert v == {lab["r[6,8]"]: 1}


def test_component_restriction_is_exact(ut2):
    lab = {name: k for k, name in enumerate(ut2.labels)}
    m2 = sg.m_hl_transpose(1, 1)
    for prefix in ("D1.", "D2."):
        for i in range(4):
            for j in range(4):
                li = lab[prefix + m2.labels[i]]
                lj = lab[prefix + m2.labels[j]]
                prod = sparse_mul(ut2, {li: 1}, {lj: 1})
                want = sparse_mul(m2, {i: 1}, {j: 1})
                assert prod == {lab[prefix + m2.labels[k]]: c for k, c in want.items()}


def test_shift_flips_the_grading():
    a = sg.ut_star(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,0"))
    b = sg.ut_star(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,1"))
    assert a.layout.degrees == (0, 0, 0, 0)
    assert b.layout.degrees == (0, 1, 1, 0)
    assert sg.hom_dims(a) == (3, 1, 0, 0)
    assert sg.hom_dims(b) == (2, 0, 1, 1)


def test_mixed_component_families():
    A = sg.ut_star(parse_ut_spec("mn_cmn_star:1,t+m_hl_transpose:1,1", ""))
    assert sg.validate(A) == []
    assert len(A.wedderburn.blocks) == 2
    b0 = A.wedderburn.blocks[0]
    assert component_corner_size(sg.FamilyTag(b0.family, b0.params)) == 2
    assert sg.jacobson_radical(A).dim == len(A.wedderburn.radical)


def test_three_components():
    A = sg.ut_star(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0+m_hl_transpose:1,0", ""))
    assert sg.validate(A) == []
    assert A.dim == 3 + 2 * 3
    assert sg.jacobson_radical(A).dim == 6


def test_trivial_grading_detector():
    assert is_trivially_graded(sg.FamilyTag(sg.MHL_T, (1, 0)))
    assert is_trivially_graded(sg.FamilyTag(sg.MHL_T, (3, 0)))
    assert not is_trivially_graded(sg.FamilyTag(sg.MHL_T, (1, 1)))
    assert not is_trivially_graded(sg.FamilyTag(sg.MN_CMN_STAR, (1, "t")))
    assert not is_trivially_graded(sg.FamilyTag(sg.MHH_S, (1,)))


def test_spec_validation():
    with pytest.raises((AssertionError, ValueError)):
        parse_ut_spec("", "")
    with pytest.raises((AssertionError, ValueError)):
        parse_ut_spec("m_hl_transpose:1,0", "0,1")
    with pytest.raises((AssertionError, ValueError)):
        parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,2")


def test_single_component_ut_is_the_component_itself():
    A = sg.ut_star(parse_ut_spec("m_hl_transpose:1,1", ""))
    assert A.dim == 4
    assert sg.hom_dims(A) == (2, 0, 1, 1)
    assert sg.jacobson_radical(A).is_zero()
    assert sg.is_star_graded_simple(A)


def test_failed_self_checks_are_internal_inconsistencies(monkeypatch, m2):
    # a construction's self-check raises a typed error, also under python -O
    monkeypatch.setattr(core, "validate", lambda A: ["planted violation"])
    with pytest.raises(sg.InternalInconsistencyError, match="planted violation"):
        sg.ut_star(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,0"))
    with pytest.raises(sg.InternalInconsistencyError, match="planted violation"):
        sg.one_sided_radical_extension(m2)
    with pytest.raises(sg.InternalInconsistencyError, match="planted violation"):
        sg.commutative_nilpotent(1)


def test_ut_star_takes_only_a_ut_spec():
    spec = parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "")
    with pytest.raises(ValueError, match="UtSpec"):
        sg.ut_star((spec.components, spec.shifts))
