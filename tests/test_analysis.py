"""Identity decisions, thresholds, codimension sequences, block exponents."""

import pytest

import stargraded as sg
from stargraded import analysis
from stargraded.analysis import (
    RunConfig,
    _assignment_rank,
    kind_basis,
)
from stargraded.checks import parse_algebra_spec, parse_ut_spec
from stargraded.errors import SizeCapError
from stargraded.polynomials import KINDS, capelli_member, evaluate_sparse


def test_kind_basis_sizes(m2):
    dims = sg.hom_dims(m2)
    for i, k in enumerate(KINDS):
        assert len(kind_basis(m2, k)) == dims[i]
    assert len(kind_basis(m2, "any")) == m2.dim


def test_identity_decision_with_witness(m2):
    rep = sg.is_graded_identity(m2, capelli_member(2, "y+"))
    assert not rep.is_identity
    w = rep.witness
    value = evaluate_sparse(m2, w.poly, [dict(enumerate(v)) for v in w.assignment])
    dense = [0] * m2.dim
    for k, c in value.items():
        dense[k] = c
    assert list(w.value) == dense and any(dense)


def test_identity_decision_positive(m2):
    rep = sg.is_graded_identity(m2, capelli_member(3, "y+"))
    assert rep.is_identity and rep.witness is None


def test_identity_decision_refuses_a_shapeless_argument(m2):
    with pytest.raises(ValueError, match="capelli_member"):
        sg.is_graded_identity(m2, object())


def test_thresholds_on_small_simples():
    for token in ("m_hl_transpose:1,1", "mn_cmn_star:1,t", "m_hl_exchange:1,0"):
        A = parse_algebra_spec(token)
        dims = sg.hom_dims(A)
        for i, k in enumerate(KINDS):
            rep = sg.capelli_threshold(A, k)
            assert rep.threshold == dims[i] + 1
            assert (rep.witness is not None) == (dims[i] > 0)


def test_threshold_for_unbarred_matches_on_simples(m2):
    for k in KINDS:
        full = sg.capelli_threshold(m2, k, barred=False)
        barred = sg.capelli_threshold(m2, k, barred=True)
        assert full.threshold <= barred.threshold


def test_ordinary_threshold_of_the_ground_field(ground):
    rep = sg.ordinary_capelli_threshold(ground)
    assert rep.threshold == 2


def test_ordinary_threshold_of_full_matrices(m2):
    rep = sg.ordinary_capelli_threshold(m2)
    assert rep.threshold == 5


def test_barred_rank_identity_query(m2):
    assert sg.barred_rank_is_identity(m2, "y+", 3)
    assert not sg.barred_rank_is_identity(m2, "y+", 2)


def test_generator_set_containment(m2):
    dims = sg.hom_dims(m2)
    polys = sg.generator_family(*(d + 1 for d in dims))
    rep = sg.satisfies_generator_set(m2, polys)
    assert rep.satisfied and rep.failing_index is None


def test_generator_set_violation():
    base = sg.m_hl_transpose(1, 1)
    E = sg.one_sided_radical_extension(base)
    dims = sg.hom_dims(base)
    polys = sg.generator_family(*(d + 1 for d in dims))
    rep = sg.satisfies_generator_set(E, polys)
    assert not rep.satisfied
    assert rep.witness is not None
    w = rep.witness
    value = evaluate_sparse(E, w.poly, [dict(enumerate(v)) for v in w.assignment])
    assert value == {k: c for k, c in enumerate(w.value) if c != 0}


def test_threshold_offsets_for_the_two_shift_patterns():
    r = sg.threshold_offsets(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,0"))
    assert (r.offset_even, r.offset_odd) == (1, 0)
    assert r.thresholds == {"y+": 4, "y-": 2, "z+": 1, "z-": 1}
    assert (r.m, r.m_trivial, r.m_runs) == (2, 2, 1)

    r = sg.threshold_offsets(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,1"))
    assert (r.offset_even, r.offset_odd) == (0, 1)
    assert r.thresholds == {"y+": 3, "y-": 1, "z+": 2, "z-": 2}


def test_threshold_offsets_vanish_without_trivially_graded_blocks():
    r = sg.threshold_offsets(parse_ut_spec("m_hl_transpose:1,1+m_hl_transpose:1,1", ""))
    assert r.m_trivial == 0
    assert (r.offset_even, r.offset_odd) == (0, 0)
    assert r.thresholds == {k: d + 2 for k, d in zip(KINDS, (4, 0, 2, 2))}


def test_codim_on_the_ground_field(ground):
    for n in (1, 2, 3):
        assert sg.codim_graded(ground, n).value == 1
        assert sg.codim_ordinary(ground, n).value == 1


def test_codim_known_matrix_values(m2):
    assert sg.codim_ordinary(m2, 1).value == 1
    assert sg.codim_ordinary(m2, 2).value == 2
    assert sg.codim_ordinary(m2, 3).value == 6
    # degree-4 multilinear identities of 2x2 matrices are exactly the span of
    # the rank-4 standard polynomial, so the codimension is 24 - 1
    assert sg.codim_ordinary(m2, 4).value == 23


def test_codim_of_square_zero_nilpotent():
    N = sg.commutative_nilpotent(1)
    assert sg.codim_ordinary(N, 1).value == 1
    assert sg.codim_ordinary(N, 2).value == 0


def test_codim_graded_matches_bruteforce(m2):
    for n in (1, 2, 3):
        assert sg.codim_graded(m2, n).value == sg.codim_graded_bruteforce(m2, n)


def test_codim_graded_matches_bruteforce_on_an_extension():
    E = sg.tensor_nilpotent_extension(sg.m_hl_transpose(1, 0), sg.commutative_nilpotent(1))
    for n in (1, 2, 3):
        assert sg.codim_graded(E, n).value == sg.codim_graded_bruteforce(E, n)


def test_codim_ordinary_never_exceeds_graded(m2):
    for n in (1, 2, 3):
        assert sg.codim_ordinary(m2, n).value <= sg.codim_graded(m2, n).value
        assert sg.codim_graded(m2, n).value <= 4**n * sg.codim_ordinary(m2, n).value


def test_codim_respects_the_degree_cap(ground):
    with pytest.raises(SizeCapError):
        sg.codim_graded(ground, 7)
    cfg = RunConfig(cap_n=8)
    assert sg.codim_graded(ground, 7, cfg).value == 1


@pytest.mark.parametrize("n", [True, False, 2.0])
@pytest.mark.parametrize("f", [sg.codim_graded, sg.codim_graded_bruteforce, sg.codim_ordinary, sg.codim_table])
def test_codim_degree_is_exactly_a_positive_int(ground, f, n):
    # a bool is an int subclass, and True used to be taken as degree 1
    with pytest.raises(ValueError, match="codimension degree must be a positive integer"):
        f(ground, n)


def test_codim_table_roots(ground):
    rows = sg.codim_table(ground, 3)
    assert [(n, v) for n, v, _ in rows] == [(1, 1), (2, 1), (3, 1)]
    assert all(abs(r - 1.0) < 1e-12 for _, _, r in rows)


def test_assignment_rank_empty_domain(m2):
    assert _assignment_rank(m2, [[]], {}) == 0


def test_exponent_of_simples():
    for token in ("m_hl_transpose:1,1", "mn_cmn_star:2,t", "m_hh_symplectic:1"):
        A = parse_algebra_spec(token)
        assert sg.admissible_exponent(A) == A.dim
        assert sg.is_reduced(A)


def test_exponent_of_triangular(ut2, small_ut):
    assert sg.admissible_exponent(ut2) == 8
    assert sg.is_reduced(ut2)
    assert sg.admissible_exponent(small_ut) == 2
    assert sg.is_reduced(small_ut)


def test_exponent_of_direct_sum_takes_the_best_block(m2, ground):
    S = sg.direct_sum(m2, ground)
    assert sg.admissible_exponent(S) == 4
    assert not sg.is_reduced(S)


def test_exponent_of_extensions(m2):
    assert sg.admissible_exponent(sg.one_sided_radical_extension(m2)) == 4
    N = sg.commutative_nilpotent(1)
    assert sg.admissible_exponent(sg.tensor_nilpotent_extension(m2, N)) == 4


def test_block_ordering_search_is_capped(monkeypatch):
    A = parse_algebra_spec("+".join(["m_hl_transpose:1,0"] * 12))

    def no_chain(*args):
        raise AssertionError("a radical chain was started before the refusal")

    # 12 blocks: 1,302,061,344 orderings of subsets and 479,001,600 of all blocks
    monkeypatch.setattr(analysis, "jacobson_radical", no_chain)
    with pytest.raises(SizeCapError, match="1302061344 orderings"):
        sg.admissible_exponent(A)
    with pytest.raises(SizeCapError, match="479001600 orderings"):
        sg.is_reduced(A)


def test_block_ordering_cap_is_exact():
    # three blocks: 3 + 6 + 6 = 15 orderings of subsets, 3! = 6 of all blocks
    A = parse_algebra_spec("m_hl_transpose:1,1+m_hl_transpose:1,0+m_hl_transpose:1,0")
    assert sg.admissible_exponent(A, RunConfig(cap_evals=15)) == 4
    assert not sg.is_reduced(A, RunConfig(cap_evals=6))
    with pytest.raises(SizeCapError):
        sg.admissible_exponent(A, RunConfig(cap_evals=14))
    with pytest.raises(SizeCapError):
        sg.is_reduced(A, RunConfig(cap_evals=5))


def test_codim_contents_share_one_budget(m2):
    # M_{1,1} has kind dims (2, 0, 1, 1): the contents with a y- slot cost
    # nothing, the others 2^(y+ slots) * 3! evaluations each, 156 in all
    assert sg.codim_graded(m2, 3, RunConfig(cap_evals=156)).value == 57
    with pytest.raises(SizeCapError, match="156 units of work in this call, over the cap 155"):
        sg.codim_graded(m2, 3, RunConfig(cap_evals=155))


def test_codim_refusal_comes_before_any_column(monkeypatch, m2):
    # the 4^3 kind vectors of M_{1,1} cost 4^3 * 3! = 384 in all, charged up front
    calls = [0]
    original = analysis._word_columns

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(analysis, "_word_columns", counted)
    with pytest.raises(SizeCapError, match="384 units of work in this call, over the cap 383"):
        sg.codim_graded_bruteforce(m2, 3, RunConfig(cap_evals=383))
    assert calls[0] == 0
    assert sg.codim_graded_bruteforce(m2, 3, RunConfig(cap_evals=384)) == 57
    assert calls[0] > 0


def test_eval_cap_is_enforced(m2):
    tiny = RunConfig(cap_evals=1)
    with pytest.raises(SizeCapError):
        sg.codim_graded(m2, 3, tiny)
