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
    ThresholdReport,
    _build_witness,
    _first_nonzero,
    _is_automorphism,
    _raw_witness,
    _signed_automorphisms,
    _span_sweep,
    kind_basis,
    radical_bound,
    right_products,
)
from stargraded.checks import DIMS_GRID, SMALL_SIMPLE_GRID, parse_algebra_spec, parse_ut_spec
from stargraded.core import grading_projection, sparse_mul, sparse_star
from stargraded.errors import InternalInconsistencyError, SizeCapError
from stargraded.linalg import RankTracker, _as_num
from stargraded.polynomials import ANY, KINDS, CapelliShape, capelli_member, right_row

UNCAPPED = RunConfig(cap_evals=10**12)


def ut(blocks):
    """UT of that many M_{1,1} blocks, built afresh, so that no test reads
    what another cached on the algebra."""
    return sg.ut_star(parse_ut_spec("+".join(["m_hl_transpose:1,1"] * blocks), ""))


def ut3():
    return ut(3)


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


# ------------------------------------------------- the right-product table


TABLE_SPECS = [s for s, _ in DIMS_GRID] + [
    "one_sided[m_hl_transpose:1,1]",
    "tensor[m_hl_transpose:1,1|noncommutative_nilpotent]",
    "mn_cmn_exchange:1+m_hl_transpose:1,1",
    "ut m_hl_transpose:1,1+m_hl_transpose:1,1",
    "ut m_hl_transpose:1,1+m_hl_transpose:1,1+m_hl_transpose:1,1",
    "ut mn_cmn_star:2,t+m_hl_transpose:2,1",
]


def rescaled_by_index(A):
    """The same algebra on the basis f_i = (i + 2)/(i + 1) e_i, whose structure
    constants and basis vectors are Fractions."""
    doc = sg.to_interchange(A)
    s = [Fraction(i + 2, i + 1) for i in range(doc["dim"])]
    doc["structure"] = [[i, j, k, str(Fraction(c) * s[i] * s[j] / s[k])] for i, j, k, c in doc["structure"]]
    doc["involution"] = [[r, k, str(Fraction(c) * s[k] / s[r])] for r, k, c in doc["involution"]]
    B = sg.from_interchange(doc)
    assert sg.validate(B) == []
    return B


def table_algebra(spec, change):
    kind, *args = spec.split()
    A = sg.ut_star(parse_ut_spec(args[0], "")) if kind == "ut" else parse_algebra_spec(spec)
    if change == "signed":
        return relabel(A, 7)
    if change == "reversed":
        # the rows list each e_i e_j in the order (i, j) first appears, not by j
        doc = sg.to_interchange(A)
        doc["structure"].reverse()
        return sg.from_interchange(doc)
    return rescaled_by_index(A) if change == "rescaled" else A


@pytest.mark.parametrize("change", ["plain", "signed", "rescaled", "reversed"])
@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_right_product_table_is_right_row_of_each_coordinate(spec, change):
    # the table is built by columns from the product rows; each entry must be
    # the sparse_mul product of the coordinate with the basis vector, with the
    # same values, types and order
    A = table_algebra(spec, change)
    basis = kind_basis(A, ANY)
    want = [right_row(A, i, basis) for i in range(A.dim)]
    got = right_products(A)
    assert got == want
    assert repr(got) == repr(want)


def test_rescaled_tables_hold_fraction_entries():
    A = table_algebra("ut m_hl_transpose:1,1+m_hl_transpose:1,1+m_hl_transpose:1,1", "rescaled")
    entries = [c for row in right_products(A) for _, items in row for _, c in items]
    assert any(type(c) is Fraction for c in entries)
    assert any(type(c) is int for c in entries)


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
    # every product is read from the right-product table, which is built by
    # columns from the product rows with no sparse_mul call. Built with one
    # call per coordinate and homogeneous basis vector it took 1,296; before
    # the table the span-pruned sweep made 54,532, a sweep that skips only
    # exact repeats of the joined states about 96,500 and the unpruned one
    # 1,671,136
    assert products == 0
    # one sweep on the whole kind basis decides all 84 alternating tuples at
    # once, sharing each prefix product and each gap's span: 1,655 adds and 488
    # extends
    assert adds == 1_655
    assert extends == 488


def test_rank6_zplus_proof_budget_is_its_counted_work():
    # the whole-basis sweep alone: at each gap the entries of the states it
    # multiplies plus its options, 2,133 in all
    assert sg.barred_rank_is_identity(ut3(), "z+", 6, RunConfig(cap_evals=2_133))
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 6: 2133 units of work in this call, over the cap 2132"):
        sg.barred_rank_is_identity(ut3(), "z+", 6, RunConfig(cap_evals=2_132))


def test_threshold_ranks_share_one_budget():
    # UT3's z+ threshold is 6, and so is its radical bound 9 - 6 + 3: the
    # search sweeps rank 5 for the witness and then rank 6, which must vanish.
    # The ranks it no longer sweeps are counted here too: ranks 7-9 each sweep
    # their first tuple and then the whole kind basis, and rank 10 is over the
    # dimension and costs nothing. The call's budget is the sum of its ranks'
    # units, 2,452 + 3,089 = 5,541, above rank 6's 3,089 alone
    A = ut3()
    meter = Meter(UNCAPPED)
    units = []
    for m in range(1, 11):
        before = meter.work
        _first_nonzero(A, m, "z+", None, meter)
        units.append(meter.work - before)
    assert units == [1, 38, 57, 68, 2_452, 3_089, 3_167, 3_709, 2_134, 0]
    assert sg.capelli_threshold(ut3(), "z+", RunConfig(cap_evals=5_541)).threshold == 6
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 6: 5541 units of work in this call, over the cap 5540"):
        sg.capelli_threshold(ut3(), "z+", RunConfig(cap_evals=5_540))


def test_generator_set_members_share_one_budget():
    # the 32 members of the rank-6 barred z+ set on UT3 are identities; swept
    # one by one, each its first tuple and then the whole kind basis, the
    # largest costs 2,708 units and all of them 22,476
    members = sg.barred_capelli_set(6, "z+")
    assert sg.satisfies_generator_set(ut3(), members, RunConfig(cap_evals=22_476)).satisfied
    with pytest.raises(SizeCapError, match=r"kind z\+ at rank 6: 22476 units of work in this call, over the cap 22475"):
        sg.satisfies_generator_set(ut3(), members, RunConfig(cap_evals=22_475))


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


# ------------------------------------ automorphisms, which the sweep ignores


def without_automorphisms(A):
    """A with its automorphism cache pre-seeded as searched with none found."""
    A._automorphisms = ()
    return A


def test_the_sweep_ignores_automorphisms():
    # a threshold search never starts the automorphism search, and an algebra
    # whose cache is pre-seeded, searched or empty, gives the same reports for
    # the same work
    A = ut3()
    reports = [sg.capelli_threshold(A, kind) for kind in ("z+", "y-")]
    assert A._automorphisms is None
    searched = ut3()
    assert len(_signed_automorphisms(searched)) > 1
    works = []
    for B in (ut3(), searched, without_automorphisms(ut3())):
        assert [sg.capelli_threshold(B, kind) for kind in ("z+", "y-")] == reports
        meter = Meter(UNCAPPED)
        for m in range(1, 11):
            _first_nonzero(B, m, "z+", None, meter)
        works.append(meter.work)
    assert works == [14_715] * 3


def test_rank6_zplus_proof_without_automorphisms_keeps_its_counts(sweep_work):
    # a proof sweeps its first tuple and then the whole kind basis, with the
    # same counts whether or not an automorphism is known
    searched = ut3()
    _signed_automorphisms(searched)
    counts = []
    for A in (without_automorphisms(ut3()), searched):
        kind_basis(A, "z+"), kind_basis(A, ANY)
        sweep_work()
        meter = Meter(UNCAPPED)
        assert _first_nonzero(A, 6, "z+", None, meter) is None
        _, adds, extends = sweep_work()
        counts.append((adds, extends, meter.work))
    assert counts == [(2_422, 694, 3_089)] * 2


def test_rank6_zplus_proof_sweeps_the_first_tuple_and_then_the_whole_basis(monkeypatch):
    # each sweep starts one RankTracker per gap, 5 at rank 6. The first tuple
    # vanishes, and one sweep of the whole kind basis then decides the other
    # 83 at once
    A = ut3()
    trackers = []

    class Counted(RankTracker):
        def __init__(self):
            trackers.append(self)
            super().__init__()

    monkeypatch.setattr(analysis, "RankTracker", Counted)
    meter = Meter(UNCAPPED)
    assert _first_nonzero(A, 6, "z+", None, meter) is None
    assert len(trackers) == 5 * 2
    # the first tuple's unit, its sweep's 955 and the whole-basis sweep's 2,133
    assert meter.work == 1 + 955 + 2_133


def test_automorphisms_found_on_ut3_pass_the_check():
    A = ut3()
    autos = _signed_automorphisms(A)
    assert all(_is_automorphism(A, p, s) for p, s in autos)
    assert len({p for p, _ in autos}) == 4
    assert _signed_automorphisms(A) is autos
    # signs are solved, not branched on, so a signed relabeling has the same
    # permutation parts, and its codimension seeds fall into the same orbits
    for seed in (1, 2):
        B = relabel(A, seed)
        assert {p for p, _ in _signed_automorphisms(B)} == {p for p, _ in autos}


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


# ---------------------------------------------------- the whole-basis sweep


@pytest.mark.parametrize("blocks", [2, 3])
def test_whole_basis_sweep_decides_each_tuple_as_its_own_sweep_does(blocks):
    # the thresholds of UT2 and UT3 are the blocks' component dimension sums
    # plus the block count; at each rank around them, the whole-basis sweep
    # vanishes exactly when the sweep of every alternating tuple does
    A = ut(blocks)
    law = dict(zip(KINDS, (3 * blocks, blocks, 2 * blocks, 2 * blocks)))
    decided = []
    for kind in KINDS:
        n = len(kind_basis(A, kind))
        for m in range(law[kind] - 1, min(law[kind] + 1, n) + 1):
            for deleted in pinned_patterns(m):
                tuples = combinations(range(n), m)
                each = all(_span_sweep(A, m, kind, t, deleted, Meter(UNCAPPED)) is None for t in tuples)
                whole = _span_sweep(A, m, kind, range(n), deleted, Meter(UNCAPPED)) is None
                assert whole is each, (kind, m, deleted)
                decided.append(each)
    assert True in decided and False in decided


@pytest.mark.parametrize("blocks,kind,ranks", [
    (2, "y+", (5, 6)),
    (2, "y-", (1, 2)),
    (2, "z+", (3, 4)),
    (2, "z-", (3, 4)),
    (3, "y-", (2, 3, 4)),
])
def test_whole_basis_sweep_matches_the_reference(blocks, kind, ranks):
    # barred_rank_is_identity is one whole-basis sweep
    A = ut(blocks)
    for m in ranks:
        want = reference_first_nonzero(A, m, kind, None, UNCAPPED) is None
        assert sg.barred_rank_is_identity(A, kind, m, UNCAPPED) is want, m


def test_whole_basis_sweep_is_bounded_by_its_charge():
    # UT3's rank-15 untyped proof runs for minutes uncapped; the charge at each
    # gap, the entries of the states it multiplies and its options, refuses
    # it as it works
    with pytest.raises(SizeCapError, match=r"^barred Capelli sweep of kind any at rank 15: 10013 units of work in this call, over the cap 10000$"):
        sg.barred_rank_is_identity(ut(3), ANY, 15, RunConfig(cap_evals=10_000))


# ------------------------------- the threshold search from the radical bound


def reference_capelli_threshold(A, kind, config=UNCAPPED, barred=True):
    """The search before the radical bound, verbatim: every rank from 1 up to
    the first identity, a witness built at each, then every rank above it up
    to search_cap swept again. Returns the report and the units charged."""
    meter = Meter(config)
    cap = len(kind_basis(A, kind)) + 1
    deleted = None if barred else frozenset()
    witness = None
    for threshold in range(1, cap + 1):
        raw = _first_nonzero(A, threshold, kind, deleted, meter)
        if raw is None:
            break
        witness = _build_witness(A, raw)
    for m in range(threshold + 1, cap + 1):
        if _first_nonzero(A, m, kind, deleted, meter) is not None:
            raise InternalInconsistencyError(f"identity at rank {threshold} but not at {m}")
    return ThresholdReport(kind, threshold, cap, witness), meter.work


@pytest.fixture
def metered(monkeypatch):
    """Runs capelli_threshold and returns its report and the units it charged."""
    meters = []

    class Recorded(Meter):
        def __init__(self, config):
            meters.append(self)
            super().__init__(config)

    monkeypatch.setattr(analysis, "Meter", Recorded)

    def call(A, kind, barred=True):
        meters.clear()
        rep = sg.capelli_threshold(A, kind, UNCAPPED, barred=barred)
        (meter,) = meters
        return rep, meter.work

    return call


def projected_radical_dim(A, kind):
    """dim(J ∩ V_k) as the rank of J's basis projected onto V_k: J is verified
    star-stable and graded, so the projection of J is J ∩ V_k."""
    J = sg.jacobson_radical(A)
    if kind == ANY:
        return J.dim
    degree, sign = {"y+": (0, 1), "y-": (0, -1), "z+": (1, 1), "z-": (1, -1)}[kind]
    rows = []
    for v in J.sparse_basis:
        w = grading_projection(A, v, degree)
        star = sparse_star(A, w)
        rows.append({k: w.get(k, 0) + sign * star.get(k, 0) for k in w.keys() | star.keys()})
    return RankTracker(rows).rank


def glueing(components, shifts=""):
    return sg.ut_star(parse_ut_spec(components, shifts))


def shift_glueings():
    """The two glueings of threshold_offsets. On each kind min(u, search_cap)
    equals the threshold, so the search sweeps no identity rank."""
    return [glueing("m_hl_transpose:1,0+m_hl_transpose:1,0", s) for s in ("0,0", "0,1")]


def above_threshold():
    """(algebra, kind, u, threshold) with threshold < u <= search_cap: the
    search starts at an identity rank and sweeps down through it."""
    return [
        (glueing("m_hl_transpose:1,0+m_hl_transpose:1,0+m_hl_transpose:1,0", "0,0,1"), "z+", 3, 2),
        (glueing("mn_cmn_star:1,t+m_hl_transpose:1,0"), ANY, 5, 4),
        (parse_algebra_spec("tensor[m_hl_transpose:1,1|commutative_nilpotent:2]"), "y+", 4, 3),
    ]


@pytest.mark.parametrize("blocks, bounds", [
    (2, (6, 2, 4, 4, 10)),
    (3, (9, 3, 6, 6, 15)),
    (4, (12, 4, 8, 8, 20)),
])
def test_radical_bound_on_ut_glueings(blocks, bounds):
    # the block law: the component dimension sums plus the block count
    A = ut(blocks)
    assert tuple(radical_bound(A, kind) for kind in KINDS + (ANY,)) == bounds
    assert A._nilpotency == blocks
    for kind, u in zip(KINDS + (ANY,), bounds):
        assert u == len(kind_basis(A, kind)) - projected_radical_dim(A, kind) + blocks


@pytest.mark.parametrize("spec", [s for s, _ in DIMS_GRID])
def test_radical_bound_of_a_simple_family_is_its_dimension_plus_one(spec):
    A = parse_algebra_spec(spec)
    for kind in KINDS + (ANY,):
        assert projected_radical_dim(A, kind) == 0
        assert radical_bound(A, kind) == len(kind_basis(A, kind)) + 1
    assert A._nilpotency == 1


def test_radical_bound_is_never_below_the_threshold(monkeypatch):
    for A in shift_glueings():
        for kind in KINDS + (ANY,):
            assert radical_bound(A, kind) >= sg.capelli_threshold(A, kind).threshold
    swept = []
    first = analysis._first_nonzero

    def recorded(A, m, *args):
        hit = first(A, m, *args)
        swept.append((m, hit is None))
        return hit

    monkeypatch.setattr(analysis, "_first_nonzero", recorded)
    for A, kind, bound, threshold in above_threshold():
        assert radical_bound(A, kind) == bound <= len(kind_basis(A, kind)) + 1
        swept.clear()
        assert sg.capelli_threshold(A, kind).threshold == threshold
        assert swept == [(bound - 1, True), (threshold - 1, False)]


@pytest.mark.parametrize("barred", [True, False])
def test_threshold_search_matches_the_bottom_up_reference(metered, barred):
    # same threshold, search_cap and witness, for no more work: the search
    # sweeps a subset of the reference's ranks
    cases = (
        [(parse_algebra_spec(s), kind) for s in SMALL_SIMPLE_GRID for kind in KINDS + (ANY,)]
        + [(ut(blocks), kind) for blocks in (2, 3) for kind in KINDS]
        + [(A, kind) for A in shift_glueings() for kind in KINDS + (ANY,)]
        + [(A, kind) for A, kind, _, _ in above_threshold()]
    )
    for A, kind in cases:
        want, want_units = reference_capelli_threshold(A, kind, barred=barred)
        got, got_units = metered(A, kind, barred)
        assert got == want, (A, kind)
        assert got_units <= want_units, (A, kind)


def test_a_radical_bound_below_the_threshold_is_an_inconsistency(monkeypatch):
    # UT3's z+ threshold is 6. With the bound planted at 5, rank 4 gives the
    # witness and the threshold 5, and the check of rank 5 finds it nonzero
    monkeypatch.setattr(analysis, "radical_bound", lambda A, kind: 5)
    with pytest.raises(InternalInconsistencyError, match=r"^rank 5 is not an identity"):
        sg.capelli_threshold(ut3(), "z+")
