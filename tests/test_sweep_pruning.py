"""The pruned barred sweep against the plain one, lazily built Capelli terms,
and deterministic counts of the work the sweep does."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from test_codim_orbits import rescaled, scales_for

import stargraded as sg
from stargraded import analysis
from stargraded.analysis import Meter, RunConfig, _build_witness, _first_nonzero, _raw_witness, kind_basis
from stargraded.checks import parse_algebra_spec, parse_ut_spec
from stargraded.core import sparse_mul
from stargraded.errors import SizeCapError
from stargraded.linalg import RankTracker, _as_num
from stargraded.polynomials import ANY, KINDS, CapelliShape, capelli_member, perm_sign

UNCAPPED = RunConfig(cap_evals=10**12)


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
    """The term table as built before: every permutation signed by perm_sign."""
    kept = [g for g in range(m - 1) if g not in deleted]
    conn_slot = {g: m + r for r, g in enumerate(kept)}
    terms = {}
    for perm in permutations(range(m)):
        word = [perm[0]]
        for g in range(m - 1):
            if g in conn_slot:
                word.append(conn_slot[g])
            word.append(perm[g + 1])
        terms[tuple(word)] = perm_sign(perm)
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
    assert adds == 40_528
    assert extends == 12_596


def test_rank6_zplus_proof_budget_is_its_counted_work():
    # one unit per alternating tuple, C(9, 6) = 84, and one per option tried at a
    # gap, the 40,528 insertions pinned above: 40,612 in all
    A = sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * 3), ""))
    assert sg.barred_rank_is_identity(A, "z+", 6, RunConfig(cap_evals=40_612))
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 6: 40612 units of work in this call, over the cap 40611"):
        sg.barred_rank_is_identity(A, "z+", 6, RunConfig(cap_evals=40_611))


def test_threshold_ranks_share_one_budget():
    # UT3's z+ threshold is 6: witnesses at ranks 1-5, the rank-6 proof, and the
    # re-sweep of ranks 7-10, where rank 10 is over the dimension and costs
    # nothing. The call's budget is the sum of every rank's units, 81,454, far
    # above the largest rank's 40,612
    A = sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * 3), ""))
    meter = Meter(UNCAPPED)
    units = []
    for m in range(1, 11):
        before = meter.work
        _first_nonzero(A, m, "z+", None, meter)
        units.append(meter.work - before)
    assert units == [1, 34, 49, 57, 1_913, 40_612, 26_982, 10_150, 1_656, 0]
    assert sg.capelli_threshold(A, "z+", RunConfig(cap_evals=81_454)).threshold == 6
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 9: 81454 units of work in this call, over the cap 81453"):
        sg.capelli_threshold(A, "z+", RunConfig(cap_evals=81_453))


def test_generator_set_members_share_one_budget():
    # the 32 members of the rank-6 barred z+ set on UT3 are identities; swept
    # one by one, the largest costs 35,122 units and all of them 331,816
    A = sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * 3), ""))
    members = sg.barred_capelli_set(6, "z+")
    assert sg.satisfies_generator_set(A, members, RunConfig(cap_evals=331_816)).satisfied
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 6: 331816 units of work in this call, over the cap 331815"):
        sg.satisfies_generator_set(A, members, RunConfig(cap_evals=331_815))


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
