"""Nilpotent building blocks and the two radical extension constructions."""

import pytest

import stargraded as sg
from stargraded.core import sparse_mul, sparse_star


def test_commutative_nilpotent_squares_to_zero():
    N = sg.commutative_nilpotent(2)
    assert N.dim == 2
    assert sg.validate(N) == []
    for i in range(2):
        for j in range(2):
            assert sparse_mul(N, {i: 1}, {j: 1}) == {}
    assert sg.jacobson_radical(N).dim == 2


def test_noncommutative_nilpotent_relations():
    N = sg.noncommutative_nilpotent()
    assert N.dim == 4
    assert sg.validate(N) == []
    n1, n2, n12, n21 = range(4)
    assert sparse_mul(N, {n1: 1}, {n2: 1}) == {n12: 1}
    assert sparse_mul(N, {n2: 1}, {n1: 1}) == {n21: 1}
    assert sparse_mul(N, {n12: 1}, {n21: 1}) == {}
    assert sparse_star(N, {n1: 1}) == {n1: 1}
    assert sparse_star(N, {n12: 1}) == {n21: 1}


def test_one_sided_extension_shape(m2):
    E = sg.one_sided_radical_extension(m2)
    assert E.dim == 3 * m2.dim
    assert sg.validate(E) == []
    assert sg.jacobson_radical(E).dim == 2 * m2.dim
    assert not sg.is_star_graded_simple(E)


def test_one_sided_extension_module_actions(m2):
    E = sg.one_sided_radical_extension(m2)
    d = m2.dim
    lab = {name: k for k, name in enumerate(E.labels)}
    e11, e12 = lab["e1,1"], lab["e1,2"]
    v11 = lab["v.e1,1"]
    w11 = lab["w.e1,1"]
    # right module: a * v follows the algebra product, v * a dies
    assert sparse_mul(E, {e12: 1}, {lab["v.e2,1"]: 1}) == {v11: 1}
    assert sparse_mul(E, {v11: 1}, {e11: 1}) == {}
    # left module mirror
    assert sparse_mul(E, {lab["w.e1,2"]: 1}, {lab["e2,1"]: 1}) == {w11: 1}
    assert sparse_mul(E, {e11: 1}, {w11: 1}) == {}
    # the two radical halves multiply to zero
    assert sparse_mul(E, {v11: 1}, {w11: 1}) == {}
    # star exchanges the halves through the base involution
    assert sparse_star(E, {lab["v.e1,2"]: 1}) == {lab["w.e2,1"]: 1}


def test_tensor_extension_shape(m2):
    E = sg.tensor_nilpotent_extension(m2, sg.commutative_nilpotent(1))
    assert E.dim == 2 * m2.dim
    assert sg.validate(E) == []
    assert sg.jacobson_radical(E).dim == m2.dim
    assert not sg.is_star_graded_simple(E)


def test_tensor_extension_multiplies_componentwise(m2):
    E = sg.tensor_nilpotent_extension(m2, sg.noncommutative_nilpotent())
    lab = {name: k for k, name in enumerate(E.labels)}
    a = lab["e1,2@n1"]
    b = lab["e2,1@n2"]
    assert sparse_mul(E, {a: 1}, {b: 1}) == {lab["e1,1@n1n2"]: 1}
    assert sparse_mul(E, {b: 1}, {a: 1}) == {lab["e2,2@n2n1"]: 1}
    # star acts on both factors
    assert sparse_star(E, {lab["e1,2@n1n2"]: 1}) == {lab["e2,1@n2n1"]: 1}


def test_extensions_require_a_simple_unital_base(small_ut):
    with pytest.raises(ValueError, match="simple"):
        sg.one_sided_radical_extension(small_ut)
    with pytest.raises(ValueError, match="simple"):
        sg.tensor_nilpotent_extension(small_ut, sg.commutative_nilpotent(1))


def test_wedderburn_block_survives_in_extensions(m2):
    E = sg.one_sided_radical_extension(m2)
    assert len(E.wedderburn.blocks) == 1
    assert E.wedderburn.blocks[0].indices == tuple(range(m2.dim))
    assert E.wedderburn.blocks[0].family == sg.MHL_T


@pytest.mark.parametrize("k", [0, -1, "a"])
def test_commutative_nilpotent_needs_a_positive_count(k):
    with pytest.raises(ValueError, match="k >= 1"):
        sg.commutative_nilpotent(k)


def test_tensor_factor_must_be_trivially_graded_and_nilpotent(m2):
    with pytest.raises(ValueError, match="not nilpotent"):
        sg.tensor_nilpotent_extension(m2, sg.m_hl_transpose(1, 0))
    with pytest.raises(ValueError, match="trivially graded"):
        sg.tensor_nilpotent_extension(m2, sg.m_hl_transpose(1, 1))

