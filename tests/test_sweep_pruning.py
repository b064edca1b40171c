"""The pruned barred sweep against the plain one, lazily built Capelli terms,
and deterministic counts of the work the sweep does."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from test_codim_orbits import rescaled, scales_for
from test_polynomials import reference_sign

import stargraded as sg
from stargraded import analysis
from stargraded.analysis import (
    Meter,
    RunConfig,
    _build_witness,
    _first_nonzero,
    _is_automorphism,
    _raw_witness,
    _signed_automorphisms,
    kind_basis,
)
from stargraded.checks import parse_algebra_spec, parse_ut_spec
from stargraded.core import sparse_mul
from stargraded.errors import SizeCapError
from stargraded.linalg import RankTracker, _as_num
from stargraded.polynomials import ANY, KINDS, CapelliShape, capelli_member

UNCAPPED = RunConfig(cap_evals=10**12)


def ut3():
    """UT3, built afresh: the sweep caches the automorphisms it finds on the algebra."""
    return sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * 3), ""))


# ------------------------------------------------- reference: the plain sweep


def reference_extend(A, joined, alt_vecs, m):
    new = {}
    for mask, v in joined.items():
        for t in range(m):
            if mask >> t & 1:
                continue
            w = sparse_mul(A, v, alt_vecs[t])
            if not w:
                continue
            sign = -1 if bin(mask >> (t + 1)).count("1") % 2 else 1
            tgt = new.setdefault(mask | (1 << t), {})
            for k, c in w.items():
                nc = _as_num(tgt.get(k, 0) + sign * c)
                if nc == 0:
                    tgt.pop(k, None)
                else:
                    tgt[k] = nc
    return {mask: v for mask, v in new.items() if v}


def reference_first_nonzero(A, m, kind, deleted, config):
    """The sweep before pruning: every connector at every gap, no memo."""
    alt_dom = kind_basis(A, kind)
    conn_dom = kind_basis(A, ANY)
    if m > len(alt_dom):
        return None
    per_gap = len(conn_dom) + 1 if deleted is None else len(conn_dom)
    gaps = m - 1 if deleted is None else m - 1 - len(deleted)
    nominal = comb(len(alt_dom), m) * (per_gap**gaps if m > 1 else 1)
    if nominal > config.cap_evals:
        raise SizeCapError(f"rank {m}: {nominal} evaluations")
    full = (1 << m) - 1

    def rec(g, states, choices):
        if g == m - 1:
            v = states.get(full)
            if v:
                dels = frozenset(i for i, c in enumerate(choices) if c is None)
                conn = [conn_dom[c] for c in choices if c is not None]
                return dels, conn, v
            return None
        if deleted is None:
            options = list(range(len(conn_dom))) + [None]
        elif g in deleted:
            options = [None]
        else:
            options = list(range(len(conn_dom)))
        for opt in options:
            if opt is None:
                joined = states
            else:
                joined = {}
                x = conn_dom[opt]
                for mask, v in states.items():
                    w = sparse_mul(A, v, x)
                    if w:
                        joined[mask] = w
                if not joined:
                    continue
            nxt = reference_extend(A, joined, alt_vecs, m)
            if not nxt:
                continue
            hit = rec(g + 1, nxt, choices + [opt])
            if hit:
                return hit
        return None

    for alt_idx in combinations(range(len(alt_dom)), m):
        alt_vecs = [alt_dom[t] for t in alt_idx]
        states = {1 << t: alt_vecs[t] for t in range(m)}
        hit = rec(0, states, [])
        if hit:
            dels, conn, value = hit
            return _raw_witness(CapelliShape(m, kind, dels), alt_vecs, conn, value)
    return None


# ------------------------------------------------------------- equivalence


def same_sweep(A, m, kind, deleted, config=RunConfig()):
    got = _first_nonzero(A, m, kind, deleted, Meter(config))
    want = reference_first_nonzero(A, m, kind, deleted, config)
    assert got == want, (m, kind, deleted)
    return got


def pinned_patterns(m):
    return (frozenset(), frozenset(range(0, m - 1, 2)))


def test_sweep_matches_reference_on_m21():
    A = parse_algebra_spec("m_hl_transpose:2,1")
    witnesses = 0
    for kind in KINDS + (ANY,):
        for m in range(1, len(kind_basis(A, kind)) + 2):
            witnesses += same_sweep(A, m, kind, None) is not None
            for deleted in pinned_patterns(m):
                same_sweep(A, m, kind, deleted)
    # thresholds sit at component dimension + 1, so every lower rank has a witness
    assert witnesses == A.dim + sum(sg.hom_dims(A))


@pytest.mark.parametrize("salt", [None, 1])
def test_sweep_matches_reference_on_fraction_structure_constants(salt):
    # every basis vector times 1/5 makes every structure constant a Fraction, so
    # the sums read from the right-product table are Fractions. Mixed scales
    # (1, -1, 2, -2, 1/5, -1/5) make some of those sums integral, and these must
    # come out as ints, as sparse_mul leaves them
    scales = [Fraction(1, 5)] * 9 if salt is None else scales_for(9, salt)
    A = rescaled(parse_algebra_spec("m_hl_transpose:2,1"), scales)
    values = []
    for kind in KINDS + (ANY,):
        for m in range(1, len(kind_basis(A, kind)) + 2):
            raw = same_sweep(A, m, kind, None)
            if raw is not None:
                values.extend(raw[-1].values())
            # pinned untyped members from rank 6 on take the reference seconds
            if kind != ANY or m < 6:
                same_sweep(A, m, kind, pinned_patterns(m)[1])
    assert any(isinstance(c, Fraction) for c in values) and any(isinstance(c, int) for c in values)
    assert all(isinstance(c, int) or c.denominator != 1 for c in values)


@pytest.mark.parametrize("spec", ["mn_cmn_star:2,t", "m_hl_exchange:1,1"])
def test_sweep_matches_reference_on_simples(spec):
    A = parse_algebra_spec(spec)
    for kind in KINDS:
        for m in range(1, len(kind_basis(A, kind)) + 2):
            same_sweep(A, m, kind, None)
    # untyped ranks 5 to 8 are identity proofs that take the reference seconds each
    for m in range(1, 5):
        same_sweep(A, m, ANY, None)


def relabel(A, seed):
    """The same algebra on the basis s_i e_i with seeded signs s_i: a structure
    constant c_ijk becomes s_i s_j s_k c_ijk and an involution entry (r, k)
    becomes s_r s_k times the old one. The basis order is kept."""
    doc = sg.to_interchange(A)
    rng = random.Random(seed)
    sign = [rng.choice((1, -1)) for _ in range(doc["dim"])]

    def scaled(s, x):
        f = s * Fraction(x)
        return f"{f.numerator}/{f.denominator}"

    doc["structure"] = [[i, j, k, scaled(sign[i] * sign[j] * sign[k], c)] for i, j, k, c in doc["structure"]]
    doc["involution"] = [[r, k, scaled(sign[r] * sign[k], c)] for r, k, c in doc["involution"]]
    B = sg.from_interchange(doc)
    assert sg.validate(B) == []
    return B


@pytest.mark.parametrize("spec,seed", [("m_hl_transpose:2,1", 3), ("mn_cmn_star:2,t", 5)])
def test_sweep_matches_reference_on_relabeled_simples(spec, seed):
    # signs on the basis change which joined states repeat exactly, but no
    # span, and the first witness must still be the plain sweep's
    A = relabel(parse_algebra_spec(spec), seed)
    for kind in KINDS:
        for m in range(1, len(kind_basis(A, kind)) + 2):
            same_sweep(A, m, kind, None)
            for deleted in pinned_patterns(m):
                same_sweep(A, m, kind, deleted)
    for m in range(1, 5):
        same_sweep(A, m, ANY, None)


def test_sweep_matches_reference_on_three_blocks():
    A = sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * 3), ""))
    assert same_sweep(A, 5, "z+", None, UNCAPPED) is not None


# -------------------------------------------------------------- lazy terms


def signed_terms(m, deleted):
    """The term table as built before: every permutation signed by its cycle parity."""
    kept = [g for g in range(m - 1) if g not in deleted]
    conn_slot = {g: m + r for r, g in enumerate(kept)}
    terms = {}
    for perm in permutations(range(m)):
        word = [perm[0]]
        for g in range(m - 1):
            if g in conn_slot:
                word.append(conn_slot[g])
            word.append(perm[g + 1])
        terms[tuple(word)] = reference_sign(perm)
    return terms


def test_lazy_terms_equal_perm_sign_terms():
    for m in range(1, 7):
        for mask in range(1 << (m - 1)):
            deleted = frozenset(g for g in range(m - 1) if mask >> g & 1)
            p = capelli_member(m, "z-", deleted)
            want = signed_terms(m, deleted)
            assert p.terms == want
            assert list(p.terms) == list(want)


def test_shaped_equality_ignores_whether_terms_were_built():
    built, lazy = capelli_member(4, "y+", (1,)), capelli_member(4, "y+", (1,))
    assert len(built.terms) == 24
    assert built == lazy and hash(built) == hash(lazy)
    assert built != capelli_member(4, "y+", (2,))
    assert len({built, lazy, capelli_member(4, "y-", (1,))}) == 2


def test_high_rank_member_builds_no_terms():
    p = capelli_member(12, ANY)
    assert isinstance(p, CapelliShape) and "terms" not in vars(p)
    assert sg.is_graded_identity(parse_algebra_spec("m_hl_transpose:1,1"), p).is_identity
    assert "terms" not in vars(p)


# --------------------------------------------------------------- work count


@pytest.fixture
def sweep_work(monkeypatch, sparse_mul_calls):
    """A callable that zeroes and then reads the work counts (sparse_mul,
    RankTracker.add and _extend_alternating calls) of the code run in between."""
    counts = {"add": 0, "extend": 0}
    add, extend = RankTracker.add, analysis._extend_alternating

    def counted_add(self, vec):
        counts["add"] += 1
        return add(self, vec)

    def counted_extend(*args):
        counts["extend"] += 1
        return extend(*args)

    monkeypatch.setattr(RankTracker, "add", counted_add)
    monkeypatch.setattr(analysis, "_extend_alternating", counted_extend)

    def read():
        work = (sparse_mul_calls[0], counts["add"], counts["extend"])
        sparse_mul_calls[0] = counts["add"] = counts["extend"] = 0
        return work

    return read


def test_rank6_zplus_proof_product_count(sweep_work):
    A = sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * 3), ""))
    # the kind bases are eliminated with RankTracker too; count only the sweep
    kind_basis(A, "z+"), kind_basis(A, ANY)
    sweep_work()
    assert sg.barred_rank_is_identity(A, "z+", 6, RunConfig(cap_evals=10**12))
    products, adds, extends = sweep_work()
    # every product is read from the right-product table, whose 36 x 36 entries
    # (coordinates by homogeneous basis vectors) take 1,296 products. Before the
    # table the span-pruned sweep made 54,532, a sweep that skips only exact
    # repeats of the joined states about 96,500 and the unpruned one 1,671,136
    assert 0 < products < 2_000
    # the automorphism search starts once the sweep has charged 36^2 units and
    # then 27 of the 84 alternating tuples are swept: 40,528 adds -> 13,703 and
    # 12,596 extends -> 4,238. The per-tuple sweep alone is pinned below
    assert adds == 13_703
    assert extends == 4_238


def test_rank6_zplus_proof_budget_is_its_counted_work():
    # one unit per alternating tuple, C(9, 6) = 84, skipped or not, one per
    # option tried at a gap, the 13,703 insertions pinned above, and the
    # automorphism search's 36^2 = 1,296: 15,083 in all (40,612 before the
    # search, with 40,528 insertions and no search). The search's result is
    # cached on the algebra, so each call gets a fresh one
    assert sg.barred_rank_is_identity(ut3(), "z+", 6, RunConfig(cap_evals=15_083))
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 6: 15083 units of work in this call, over the cap 15082"):
        sg.barred_rank_is_identity(ut3(), "z+", 6, RunConfig(cap_evals=15_082))


def test_threshold_ranks_share_one_budget():
    # UT3's z+ threshold is 6: witnesses at ranks 1-5, the rank-6 proof, and the
    # re-sweep of ranks 7-10, where rank 10 is over the dimension and costs
    # nothing. The call's budget is the sum of every rank's units, 32,212, far
    # above the largest rank's 13,020. Rank 5 starts the automorphism search
    # (1,913 + 1,296 units) and the later ranks skip tuples by it: before the
    # search the ranks cost [1, 34, 49, 57, 1,913, 40,612, 26,982, 10,150,
    # 1,656, 0], 81,454 in all
    A = ut3()
    meter = Meter(UNCAPPED)
    units = []
    for m in range(1, 11):
        before = meter.work
        _first_nonzero(A, m, "z+", None, meter)
        units.append(meter.work - before)
    assert units == [1, 34, 49, 57, 3_209, 13_020, 9_921, 4_265, 1_656, 0]
    assert sg.capelli_threshold(ut3(), "z+", RunConfig(cap_evals=32_212)).threshold == 6
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 9: 32212 units of work in this call, over the cap 32211"):
        sg.capelli_threshold(ut3(), "z+", RunConfig(cap_evals=32_211))


def test_generator_set_members_share_one_budget():
    # the 32 members of the rank-6 barred z+ set on UT3 are identities; swept
    # one by one, the largest costs 13,198 units and all of them 109,181, the
    # automorphism search's 1,296 among them (35,122 and 331,816 before it)
    members = sg.barred_capelli_set(6, "z+")
    assert sg.satisfies_generator_set(ut3(), members, RunConfig(cap_evals=109_181)).satisfied
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 6: 109181 units of work in this call, over the cap 109180"):
        sg.satisfies_generator_set(ut3(), members, RunConfig(cap_evals=109_180))


def test_exchange_thresholds_carry_the_sweeps_witnesses_at_default_caps():
    # 8 dimensions per kind; the counted work of every rank fits the default
    # cap, so the rank-8 witness is the sweep's canonical first one
    A = parse_algebra_spec("m_hl_exchange:2,2")
    for kind in KINDS:
        rep = sg.capelli_threshold(A, kind)
        assert rep.threshold == 9
        assert rep.witness == _build_witness(A, _first_nonzero(A, 8, kind, None, Meter(UNCAPPED)))


def test_sweep_work_is_the_same_on_every_signed_relabeling(sweep_work):
    # a signed relabeling rescales the joined states' coordinates by +-1, which
    # changes no span, so the span-pruned sweep does the same work on each
    UT3 = sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * 3), ""))
    counts = {}
    for seed in (1, 2, 3):
        A = relabel(UT3, seed)
        for m, identity in ((5, False), (6, True)):
            sweep_work()
            assert sg.barred_rank_is_identity(A, "z+", m, UNCAPPED) is identity
            counts.setdefault(m, set()).add(sweep_work())
    assert all(len(seen) == 1 for seen in counts.values()), counts


# ------------------------------------------------- skipping by automorphisms


def without_automorphisms(A):
    """A with its automorphism cache pre-seeded as searched with none found,
    so that the sweep visits every alternating tuple."""
    A._automorphisms = ()
    return A


def test_rank6_zplus_proof_without_automorphisms_keeps_its_counts(sweep_work):
    # the per-tuple sweep is untouched: with no automorphism known it makes the
    # counts pinned before the search existed
    A = without_automorphisms(ut3())
    kind_basis(A, "z+"), kind_basis(A, ANY)
    sweep_work()
    meter = Meter(UNCAPPED)
    assert _first_nonzero(A, 6, "z+", None, meter) is None
    _, adds, extends = sweep_work()
    assert (adds, extends, meter.work) == (40_528, 12_596, 40_612)


def test_rank6_zplus_proof_sweeps_one_tuple_per_orbit(monkeypatch):
    # the 84 alternating tuples fall into 27 orbits under UT3's automorphisms,
    # and each tuple swept starts one RankTracker per gap, 5 at rank 6
    A = ut3()
    _signed_automorphisms(A, A.dim**2)
    trackers = []

    class Counted(RankTracker):
        def __init__(self):
            trackers.append(self)
            super().__init__()

    monkeypatch.setattr(analysis, "RankTracker", Counted)
    meter = Meter(UNCAPPED)
    assert _first_nonzero(A, 6, "z+", None, meter) is None
    assert len(trackers) == 5 * 27
    # every tuple charges its unit, skipped or not, and the 27 swept try
    # 12,936 options
    assert meter.work == 84 + 12_936


def test_skipping_by_automorphisms_keeps_every_answer():
    # witnesses below each threshold and identities from it on, with every
    # deletion pattern and with one pinned pattern, against the sweep that
    # knows no automorphism
    searched, plain = ut3(), without_automorphisms(ut3())
    for kind, ranks in (("z+", (5, 6, 7)), ("y+", (8, 9, 10))):
        for m in ranks:
            for deleted in (None, pinned_patterns(m)[1]):
                got = _first_nonzero(searched, m, kind, deleted, Meter(UNCAPPED))
                assert got == _first_nonzero(plain, m, kind, deleted, Meter(UNCAPPED)), (kind, m, deleted)
    assert len({p for p, _ in searched._automorphisms}) == 4


def test_automorphisms_found_on_ut3_pass_the_check():
    A = ut3()
    autos = _signed_automorphisms(A, A.dim**2)
    assert all(_is_automorphism(A, p, s) for p, s in autos)
    assert len({p for p, _ in autos}) == 4
    assert _signed_automorphisms(A, 0) is autos
    # signs are solved, not branched on, so a signed relabeling has the same
    # permutation parts and the sweep skips the same tuples on it
    for seed in (1, 2):
        B = relabel(A, seed)
        assert {p for p, _ in _signed_automorphisms(B, B.dim**2)} == {p for p, _ in autos}


def test_automorphism_check_refuses_a_broken_product_or_star():
    M11, SP = parse_algebra_spec("m_hl_transpose:1,1"), parse_algebra_spec("m_hh_symplectic:1")
    swap, plus = (4, 5, 6, 7, 0, 1, 2, 3), (1,) * 8

    def keeps_grading_and_star(A, p):
        return all(A.grading[p[i]] == A.grading[i] for i in range(A.dim)) and all(
            A.star_sparse(p[k]) == {p[r]: c for r, c in A.star_sparse(k).items()} for k in range(A.dim)
        )

    A = sg.direct_sum(M11, M11)
    assert _is_automorphism(A, swap, plus)
    # e11 and e22 of the first summand have the same degree and are their own
    # star images, but e11 e12 = e12 while e22 e12 = 0
    p = (3, 1, 2, 0, 4, 5, 6, 7)
    assert keeps_grading_and_star(A, p)
    assert not _is_automorphism(A, p, plus)
    # the transpose and the symplectic star on M_{1,1} share products and
    # degrees, so swapping the summands keeps every product and breaks the star
    B = sg.direct_sum(M11, SP)
    assert M11.rows == SP.rows and M11.grading == SP.grading
    assert B.rows == A.rows
    assert not keeps_grading_and_star(B, swap)
    assert not _is_automorphism(B, swap, plus)
