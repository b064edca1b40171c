"""Codimension ranks from orbit representatives and the integer rank tracker,
against the plain product enumeration on the Fraction tracker, closed forms,
and pinned work counts."""

from collections import deque
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stargraded as sg
from stargraded import analysis
from stargraded.analysis import DEFAULT_CONFIG, _odd_central_unit, _word_columns, kind_basis
from stargraded.checks import parse_algebra_spec, parse_ut_spec
from stargraded.core import sparse_mul, sparse_star
from stargraded.errors import SizeCapError
from stargraded.linalg import RankTracker, _as_num
from stargraded.polynomials import KINDS

# one small member of each classified family, both flavors of mn_cmn_star
FAMILIES = (
    "m_hl_transpose:1,1",
    "m_hh_symplectic:1",
    "m_hl_exchange:1,1",
    "mn_cmn_star:1,t",
    "mn_cmn_star:2,s",
    "mn_cmn_dagger:2,t",
    "mn_cmn_exchange:1",
)
SCALES = (1, -1, 2, -2, Fraction(1, 5), Fraction(-1, 5))


# --------------------------------------- reference: the plain product enumeration


def reference_word_values(A, vecs):
    """Left-to-right products over all permutations of vecs, lex order, sparse.

    Every word is multiplied out, with no block shared between slots."""
    n = len(vecs)
    out = [None] * factorial(n)

    def rec(prefix, remaining, pos):
        block = factorial(len(remaining) - 1)
        for a, t in enumerate(remaining):
            child = vecs[t] if prefix is None else sparse_mul(A, prefix, vecs[t])
            if not child:
                continue
            rest = remaining[:a] + remaining[a + 1 :]
            if rest:
                rec(child, rest, pos + a * block)
            else:
                out[pos + a * block] = child

    rec(None, tuple(range(n)), 0)
    return [w if w is not None else {} for w in out]


class ReferenceRankTracker:
    """The Fraction tracker: reduced rows, back-substitution on every insert."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        w = list(vec)
        for row, c in zip(self.rows, self.pivots):
            if w[c] != 0:
                f = w[c]
                w = [_as_num(a - f * b) for a, b in zip(w, row)]
        c = next((j for j, x in enumerate(w) if x != 0), None)
        if c is None:
            return False
        pv = w[c]
        if pv != 1:
            w = [_as_num(Fraction(x, 1) / pv) for x in w]
        for i, row in enumerate(self.rows):
            if row[c] != 0:
                f = row[c]
                self.rows[i] = [_as_num(a - f * b) for a, b in zip(row, w)]
        self.rows.append(w)
        self.pivots.append(c)
        return True


def reference_assignment_rank(A, domains, trie):
    """Every assignment in product order, its n! words computed directly. The
    library's prefix memo, trie, is not used."""
    n = len(domains)
    nfact = factorial(n)
    if any(not d for d in domains):
        return 0
    nominal = prod(len(d) for d in domains) * nfact
    if nominal > DEFAULT_CONFIG.cap_evals:
        raise SizeCapError(f"codimension sweep needs {nominal} evaluations")
    tracker = ReferenceRankTracker()
    seen = set()
    for combo in product(*(range(len(d)) for d in domains)):
        words = reference_word_values(A, [domains[s][combo[s]] for s in range(n)])
        for r in sorted({r for w in words for r in w}):
            col = tuple(_as_num(w.get(r, 0)) for w in words)
            if col in seen:
                continue
            seen.add(col)
            tracker.add(list(col))
        if tracker.rank == nfact:
            break
    return tracker.rank


def both(monkeypatch, f, *args):
    """f(*args) with the library sweep, then with the reference sweep."""
    got = f(*args)
    with monkeypatch.context() as m:
        m.setattr(analysis, "_assignment_rank", reference_assignment_rank)
        want = f(*args)
    return got, want


def rescaled(A, scales):
    """The same algebra on the basis f_i = s_i e_i."""
    doc = sg.to_interchange(A)
    s = [Fraction(x) for x in scales]
    doc["structure"] = [
        [i, j, k, str(Fraction(c) * s[i] * s[j] / s[k])] for i, j, k, c in doc["structure"]
    ]
    doc["involution"] = [[r, c, str(Fraction(v) * s[c] / s[r])] for r, c, v in doc["involution"]]
    B = sg.from_interchange(doc)
    assert sg.validate(B) == []
    # the point of rescaling: Fraction structure constants, hence Fraction columns
    assert any(isinstance(c, Fraction) for row in B.rows for ij in row.values() for _, c in ij)
    return B


def scales_for(dim, salt):
    return [SCALES[(i + salt) % len(SCALES)] for i in range(dim)]


def ordinary_degrees(A, n_max):
    return [n for n in range(1, n_max + 1) if A.dim**n * factorial(n) <= 10**6]


# ------------------------------------------------------------------ equivalence


@pytest.mark.parametrize("spec", FAMILIES)
def test_families_match_the_product_enumeration(monkeypatch, spec):
    A = parse_algebra_spec(spec)
    for n in range(1, 5):
        got, want = both(monkeypatch, sg.codim_graded, A, n)
        assert got == want
    for n in ordinary_degrees(A, 4):
        got, want = both(monkeypatch, sg.codim_ordinary, A, n)
        assert got == want
    for n in range(1, 4):
        got, want = both(monkeypatch, sg.codim_graded_bruteforce, A, n)
        assert got == want


@pytest.mark.parametrize("spec,n_max", [
    ("m_hl_transpose:1,1", 4),
    ("m_hl_transpose:2,1", 3),
    ("mn_cmn_star:2,t", 3),
])
@pytest.mark.parametrize("salt", [1, 4])
def test_rescaled_bases_match_the_product_enumeration(monkeypatch, spec, n_max, salt):
    A = parse_algebra_spec(spec)
    A = rescaled(A, scales_for(A.dim, salt))
    for n in range(1, n_max + 1):
        got, want = both(monkeypatch, sg.codim_graded, A, n)
        assert got == want
    for n in ordinary_degrees(A, n_max):
        got, want = both(monkeypatch, sg.codim_ordinary, A, n)
        assert got == want
    for n in range(1, 3):
        got, want = both(monkeypatch, sg.codim_graded_bruteforce, A, n)
        assert got == want


# words: each slot's vector is drawn from a small pool, as the pool's own object
# or as an equal but distinct dict, so equal vectors repeat in adjacent and in
# separated slots both ways. The pool holds zero products (e11 e22 in M_2, the
# radical squared in the glueing), a zero vector and Fraction coefficients.
# One example is several calls of up to five slots each on one algebra, so
# later calls read the prefixes that earlier calls left in the shared trie.
WORD_ALGEBRAS = {
    "m2": sg.m_hl_transpose(1, 1),
    "ut": sg.ut_star(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "")),
}
WORD_POOLS = {
    "m2": ({0: 1}, {3: 1}, {1: 1}, {2: -1}, {0: 1, 3: Fraction(1, 2)}, {}),
    "ut": ({0: 1}, {1: 1}, {2: 1}, {3: 2}, {2: 1, 3: Fraction(-1, 3)}, {}),
}


@st.composite
def word_inputs(draw):
    name = draw(st.sampled_from(sorted(WORD_POOLS)))
    pool = WORD_POOLS[name]
    slots = st.tuples(st.integers(0, len(pool) - 1), st.booleans())
    calls = draw(st.lists(st.lists(slots, min_size=1, max_size=5), min_size=1, max_size=4))
    return name, [[dict(pool[i]) if copy else pool[i] for i, copy in picks] for picks in calls]


def reference_columns(A, vecs):
    """reference_word_values transposed: one tuple per coordinate, ascending."""
    words = reference_word_values(A, vecs)
    return [tuple(w.get(r, 0) for w in words) for r in sorted({r for w in words for r in w})]


M2_POOL, UT_POOL = WORD_POOLS["m2"], WORD_POOLS["ut"]
# on M_2 with basis (e11, e12, e21, e22): in CANCEL_UV the word (e11 + e12)(e21 -
# e11) sums e12 e21 - e11 e11 = 0 at e11, which the reverse word reaches; and
# SQUARE^2 sums e11 e11 - e12 e21 = 0 at e11 in every order
CANCEL_UV = ({0: 1, 1: 1}, {2: 1, 0: -1})
SQUARE = {0: 1, 1: 1, 2: -1}


@given(word_inputs())
@example(("m2", [[M2_POOL[0]] * 5]))
@example(("m2", [[M2_POOL[i] for i in (0, 0, 2, 0, 2)], [M2_POOL[i] for i in (0, 0, 2, 0)]]))
@example(("m2", [[M2_POOL[0], dict(M2_POOL[0]), M2_POOL[1]], [M2_POOL[0], M2_POOL[0], M2_POOL[1]]]))
@example(("ut", [[UT_POOL[i] for i in (2, 0, 2, 2, 5)], [UT_POOL[i] for i in (2, 0, 2, 2, 1)]]))
@example(("m2", [list(CANCEL_UV), [M2_POOL[0], *CANCEL_UV]]))
@example(("m2", [[SQUARE, dict(SQUARE)], [M2_POOL[0], SQUARE, dict(SQUARE)]]))
@settings(max_examples=300, deadline=None)
def test_word_values_match_the_full_walk(case):
    name, calls = case
    A = WORD_ALGEBRAS[name]
    trie = {}
    for vecs in calls:
        assert list(_word_columns(A, vecs, trie)) == reference_columns(A, vecs)


@pytest.mark.parametrize("spec", FAMILIES[:3])
def test_prefix_memo_is_scoped_to_one_call(spec):
    """Each public call builds its own prefix memo: the sum over all 4^n kind
    vectors, made on one memo, equals the sum over contents, and a second call
    on the same algebra gives the same ranks as the first."""
    A = parse_algebra_spec(spec)
    for n in range(1, 4):
        first = sg.codim_graded(A, n)
        assert sg.codim_graded_bruteforce(A, n) == first.value
        assert sg.codim_graded(A, n).content_ranks == first.content_ranks


# ------------------------------------------------------------------ odd central unit


def content_domains(A, content):
    return [d for c, k in zip(content, KINDS) for d in [kind_basis(A, k)] * c]


def count_sweeps(monkeypatch):
    calls = [0]
    original = analysis._assignment_rank

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(analysis, "_assignment_rank", counted)
    return calls


def left_mul_is_injective(A, c):
    return RankTracker(sparse_mul(A, c, {i: 1}) for i in range(A.dim)).rank == A.dim


# the members of FAMILIES with an odd central unit, a direct sum whose unit is the
# sum of the odd center's basis vectors, and a relabeled basis with Fraction constants
ODD_UNIT_CASES = [
    *((spec, 0, 4) for spec in FAMILIES if spec.startswith("mn_cmn")),
    ("mn_cmn_star:1,t+mn_cmn_star:1,t", 0, 4),
    ("mn_cmn_star:2,t", 1, 4),
]


@pytest.mark.parametrize("spec,salt,n_max", ODD_UNIT_CASES)
def test_classes_give_every_content_its_unreduced_rank(monkeypatch, spec, salt, n_max):
    """Each content's reported rank against the direct enumeration of that
    content's own slots, with no codim_graded call on the reference side."""
    A = parse_algebra_spec(spec)
    if salt:
        A = rescaled(A, scales_for(A.dim, salt))
    eps, c = _odd_central_unit(A)
    assert left_mul_is_injective(A, c)
    assert all(A.grading[k] == 1 for k in c)
    assert sparse_star(A, c) == {k: eps * x for k, x in c.items()}
    calls = count_sweeps(monkeypatch)
    for n in range(1, n_max + 1):
        calls[0] = 0
        rep = sg.codim_graded(A, n)
        assert calls[0] == n + 1
        assert len(rep.content_ranks) == comb(n + 3, 3)
        for content, r in rep.content_ranks.items():
            assert reference_assignment_rank(A, content_domains(A, content), {}) == r, content


def test_the_unit_of_a_direct_sum_is_its_odd_center_summed():
    A = parse_algebra_spec("mn_cmn_star:1,t+mn_cmn_star:1,t")
    _, c = _odd_central_unit(A)
    half = A.dim // 2
    assert any(k < half for k in c) and any(k >= half for k in c)
    assert _odd_central_unit(A) is _odd_central_unit(A)


def central(A, v):
    return all(sparse_mul(A, v, {i: 1}) == sparse_mul(A, {i: 1}, v) for i in range(A.dim))


@pytest.mark.parametrize("spec,odd_center", [
    ("m_hl_transpose:1,1", 0),
    ("mn_cmn_star:1,t+m_hl_transpose:1,0", 1),
])
def test_no_odd_unit_sweeps_every_content(monkeypatch, spec, odd_center):
    """(c, 0) in a direct sum is odd and central but kills the other summand,
    so it is no unit and every content is swept on its own."""
    A = parse_algebra_spec(spec)
    odd = [v for k in ("z+", "z-") for v in kind_basis(A, k) if central(A, v)]
    assert len(odd) == odd_center
    assert not any(left_mul_is_injective(A, v) for v in odd)
    assert _odd_central_unit(A) is None
    calls = count_sweeps(monkeypatch)
    for n in range(1, 5):
        calls[0] = 0
        rep = sg.codim_graded(A, n)
        assert calls[0] == len(rep.content_ranks) == comb(n + 3, 3)
        for content, r in rep.content_ranks.items():
            assert reference_assignment_rank(A, content_domains(A, content), {}) == r, content


def test_bruteforce_checks_the_classes():
    A = parse_algebra_spec("mn_cmn_exchange:1")
    assert _odd_central_unit(A) is not None
    assert sg.codim_graded_bruteforce(A, 4) == sg.codim_graded(A, 4).value == 256


# ------------------------------------------------------------------ closed forms


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_m2_closed_forms():
    A = parse_algebra_spec("m_hl_transpose:1,1")
    for n in range(1, 6):
        assert sg.codim_ordinary(A, n).value == catalan(n + 1) - comb(n, 3) + 1 - 2**n
        assert sg.codim_graded(A, n).value == 4**n - 2**n + 1


# ------------------------------------------------------------------ work counts


def count_words(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _word_columns(*args)

    monkeypatch.setattr(analysis, "_word_columns", counted)
    return calls


# one word walk per orbit of Aut x H; comments: the orbits of H alone, then
# the assignments in product order
@pytest.mark.parametrize("spec,graded,n,value,words", [
    ("m_hl_transpose:1,1", False, 5, 91, 28),  # 56; 1024
    ("m_hl_transpose:1,1", True, 6, 4033, 50),  # 84; 247
    ("mn_cmn_star:2,t", True, 5, 13792, 34),  # 56; 364 over its 6 classes
])
def test_words_are_computed_once_per_orbit(monkeypatch, spec, graded, n, value, words):
    A = parse_algebra_spec(spec)
    calls = count_words(monkeypatch)
    f = sg.codim_graded if graded else sg.codim_ordinary
    assert f(A, n).value == value
    assert calls[0] == words


# comments: the products made, sparse_mul calls and last products summed from
# the pair table, counted by patching sparse_mul; then, as counted with one
# seed per H-orbit before the automorphisms reduced the seeds, those made when
# each representative multiplies its own prefixes and those of the same sweep
# with every word multiplied out and the columns inserted in orbit order.
# mn_cmn_star:2,t sweeps its 6 classes of contents here and below, and its odd
# unit search adds 8 products and 8 rank insertions to the counts that the
# tests read
@pytest.mark.parametrize("spec,graded,n,value,bound", [
    ("m_hl_transpose:1,1", False, 5, 91, 300),  # 154; 1,024; 5,584
    ("m_hl_transpose:1,1", False, 6, 346, 600),  # 345; 2,608; 29,736
    ("m_hl_transpose:1,1", True, 6, 4033, 3_000),  # 1,837; 7,672; 106,920
    ("mn_cmn_star:2,t", True, 5, 13792, 25_000),  # 587; 2,200; 13,648
])
def test_equal_slots_share_their_products(sparse_mul_calls, spec, graded, n, value, bound):
    A = parse_algebra_spec(spec)
    f = sg.codim_graded if graded else sg.codim_ordinary
    assert f(A, n).value == value
    if not graded:
        # the Procesi/Drensky closed form for c_n(M_2)
        assert value == catalan(n + 1) - comb(n, 3) + 1 - 2**n
    assert 0 < sparse_mul_calls[0] < bound


# comments: the sparse_mul calls made, which multiply proper prefixes only, as
# each word's last product is summed from the pair table, then the last
# products so summed
@pytest.mark.parametrize("spec,graded,n,value,bound", [
    ("m_hl_transpose:1,1", False, 5, 91, 150),  # 90; 64
    ("m_hl_transpose:1,1", False, 6, 346, 300),  # 201; 144
    ("m_hl_transpose:1,1", True, 6, 4033, 1_000),  # 729; 1,108
    ("mn_cmn_star:2,t", True, 5, 13792, 4_000),  # 227; 360
])
def test_last_products_skip_sparse_mul(sparse_mul_calls, spec, graded, n, value, bound):
    A = parse_algebra_spec(spec)
    f = sg.codim_graded if graded else sg.codim_ordinary
    assert f(A, n).value == value
    assert 0 < sparse_mul_calls[0] < bound


# ------------------------------------------------- seeds reduced by automorphisms


UT2 = "m_hl_transpose:1,1+m_hl_transpose:1,1"


def build(spec):
    return sg.ut_star(parse_ut_spec(spec, "")) if spec == UT2 else parse_algebra_spec(spec)


def signed(A, salt):
    """The same algebra on the basis s_i e_i with signs s_i = +-1, so the
    automorphisms found carry other signs and the seeds' images other signs."""
    sign = [1 if (i * i + salt) % 3 else -1 for i in range(A.dim)]
    doc = sg.to_interchange(A)
    doc["structure"] = [[i, j, k, str(Fraction(c) * sign[i] * sign[j] * sign[k])] for i, j, k, c in doc["structure"]]
    doc["involution"] = [[r, c, str(Fraction(v) * sign[r] * sign[c])] for r, c, v in doc["involution"]]
    B = sg.from_interchange(doc)
    assert sg.validate(B) == []
    return B


@pytest.mark.parametrize("spec", FAMILIES + (UT2,))
@pytest.mark.parametrize("salt", [None, 1])
def test_seeds_reduced_by_automorphisms_keep_every_rank(monkeypatch, spec, salt):
    """Every content's rank with the seeds reduced by the automorphisms found
    against the same sweep with the identity only, on the family's own basis
    and on a signed relabeling of it."""
    A, plain = build(spec), build(spec)
    if salt is not None:
        A, plain = signed(A, salt), signed(plain, salt)
    plain._automorphisms = ()
    calls = count_words(monkeypatch)
    reduced = walked = 0
    for n in range(1, 5):
        calls[0] = 0
        got = sg.codim_graded(A, n).content_ranks
        reduced += calls[0]
        calls[0] = 0
        assert got == sg.codim_graded(plain, n).content_ranks, n
        walked += calls[0]
    for n in ordinary_degrees(A, 4):
        assert sg.codim_ordinary(A, n) == sg.codim_ordinary(plain, n), n
    assert plain._automorphisms == ()
    # mn_cmn_exchange:1 sweeps only its y+ and y- classes, each kind of dim 1,
    # so no slot group has two vectors to exchange
    if len(A._automorphisms) > 1 and spec != "mn_cmn_exchange:1":
        assert reduced < walked
    else:
        assert reduced == walked


def test_the_search_waits_for_a_nominal_total_of_dim_squared_and_two_vectors():
    # M_{1,1} has dim 4: degree 1 costs 4 < 16, in both codimensions
    A = parse_algebra_spec("m_hl_transpose:1,1")
    assert sg.codim_graded(A, 1).value == 3
    assert sg.codim_ordinary(A, 1).value == 1
    assert A._automorphisms is None
    # the brute sum is the independent check, and neither searches nor reduces
    assert sg.codim_graded_bruteforce(A, 3) == 57
    assert A._automorphisms is None
    # every kind of mn_cmn_exchange:1 has dim 1, so no graded slot group has
    # two vectors to exchange; its ordinary slots range over all 4
    B = parse_algebra_spec("mn_cmn_exchange:1")
    assert sg.codim_graded(B, 4).value == 256
    assert B._automorphisms is None
    sg.codim_ordinary(B, 2)
    assert B._automorphisms is not None


def test_the_search_is_charged_only_where_the_cap_has_room(monkeypatch):
    # codim_graded(M_{1,1}, 3) has the nominal total 156 (test_analysis), and
    # the search 4^2 = 16 more; without room the call answers unreduced, so
    # whether it is refused depends on its nominal total alone
    calls = count_words(monkeypatch)
    A = parse_algebra_spec("m_hl_transpose:1,1")
    with pytest.raises(SizeCapError, match="156 units of work in this call, over the cap 155"):
        sg.codim_graded(A, 3, sg.RunConfig(cap_evals=155))
    assert sg.codim_graded(A, 3, sg.RunConfig(cap_evals=171)).value == 57
    assert A._automorphisms is None
    unreduced, calls[0] = calls[0], 0
    assert sg.codim_graded(A, 3, sg.RunConfig(cap_evals=172)).value == 57
    assert len(A._automorphisms) == 2
    assert calls[0] < unreduced


@pytest.mark.parametrize("f,n", [
    (sg.codim_graded, 5),
    (sg.codim_ordinary, 5),
    (sg.codim_graded_bruteforce, 3),
])
def test_one_codimension_call_builds_one_lex_index(monkeypatch, f, n):
    built = []
    original = analysis._lex_index

    def counted(k):
        built.append(k)
        return original(k)

    monkeypatch.setattr(analysis, "_lex_index", counted)
    A = parse_algebra_spec("m_hl_transpose:1,1")
    for _ in range(2):
        del built[:]
        f(A, n)
        assert built == [n]


# ------------------------------------------------------------------ spinning


class RecordingTracker(RankTracker):
    """The library tracker, keeping its insertion count and accepted vectors."""

    made = []

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.accepted = []
        RecordingTracker.made.append(self)

    def add(self, vec):
        self.calls += 1
        raised = super().add(vec)
        if raised:
            self.accepted.append(tuple(vec))
        return raised


@pytest.fixture
def recording(monkeypatch):
    RecordingTracker.made = []
    monkeypatch.setattr(analysis, "RankTracker", RecordingTracker)
    return RecordingTracker.made


# comments: the insertions made, then those of the same sweep inserting every
# distinct orbit column sparsest first
@pytest.mark.parametrize("spec,graded,n,value,bound", [
    ("m_hl_transpose:1,1", False, 6, 346, 500),  # 435; 1,653
    ("mn_cmn_star:2,t", True, 5, 13792, 2_200),  # 181; 423
])
def test_spinning_bounds_the_rank_insertions(recording, spec, graded, n, value, bound):
    A = parse_algebra_spec(spec)
    f = sg.codim_graded if graded else sg.codim_ordinary
    assert f(A, n).value == value
    assert 0 < sum(t.calls for t in recording) <= bound


def young_subgroup(domains):
    """Every permutation tau of the slots that maps each slot to one with an
    equal domain, as a tuple tau[s]."""
    n = len(domains)
    return [tau for tau in permutations(range(n)) if all(domains[tau[s]] == domains[s] for s in range(n))]


def reindexed(col, tau):
    """The column of a o tau from the column of a: entry sigma is entry tau o sigma."""
    perms = list(permutations(range(len(tau))))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(col[index[tuple(tau[x] for x in sigma)]] for sigma in perms)


@pytest.mark.parametrize("spec", FAMILIES)
def test_spun_span_is_stable_under_every_slot_permutation(monkeypatch, recording, spec):
    A = parse_algebra_spec(spec)
    original = analysis._assignment_rank
    checked = [0]

    def checking(A, domains, trie):
        del recording[:]
        r = original(A, domains, trie)
        if r:
            (tracker,) = recording
            span = RankTracker(tracker.accepted)
            assert span.rank == r
            for tau in young_subgroup(domains):
                for col in tracker.accepted:
                    assert not span.add(reindexed(col, tau))
            checked[0] += 1
        return r

    monkeypatch.setattr(analysis, "_assignment_rank", checking)
    for n in range(1, 5):
        sg.codim_graded(A, n)
    for n in ordinary_degrees(A, 4):
        sg.codim_ordinary(A, n)
    assert checked[0] > 0


# ------------------------------------------------------------------ labels


def value_spin(A, domains, trie):
    """The spin keyed by values alone: every generator image is built and
    hashed, and queued when its value is new."""
    n = len(domains)
    nfact = factorial(n)
    if any(not d for d in domains):
        return 0
    groups = analysis._slot_groups(domains)
    seeds = dict.fromkeys(col for col, _ in analysis._representative_columns(A, domains, groups, trie))
    grouping = tuple(tuple(slots) for _, slots in groups)
    gens = [g for g, _ in analysis._generator_maps(grouping, n, trie)]
    seen = set(seeds)
    tracker = analysis.RankTracker()
    queue = deque()
    for seed in sorted(seeds, key=lambda col: len(col) - col.count(0)):
        queue.append(seed)
        while queue:
            col = queue.popleft()
            if tracker.add(col):
                if tracker.rank == nfact:
                    return nfact
                for image in (g(col) for g in gens):
                    if image not in seen:
                        seen.add(image)
                        queue.append(image)
    return tracker.rank


class LoggingTracker(RankTracker):
    """The library tracker, logging every vector it is handed."""

    log = []

    def add(self, vec):
        LoggingTracker.log.append(vec)
        return super().add(vec)


def count_images(monkeypatch):
    """Patch _generator_maps so that every column image built is counted."""
    built = [0]
    original = analysis._generator_maps

    def counted(grouping, n, trie):
        def counting(g):
            def image(col):
                built[0] += 1
                return g(col)

            return image

        return [(counting(g), relabel) for g, relabel in original(grouping, n, trie)]

    monkeypatch.setattr(analysis, "_generator_maps", counted)
    return built


def tracker_inputs(monkeypatch, f, A, n, spin):
    """f(A, n) with spin as _assignment_rank: its value, the vectors handed to
    RankTracker within spin, in order, and the column images built. The odd
    unit and automorphism searches, which use RankTracker too, are not logged."""
    LoggingTracker.log = []

    def logged(*args):
        with monkeypatch.context() as m:
            m.setattr(analysis, "RankTracker", LoggingTracker)
            return spin(*args)

    with monkeypatch.context() as m:
        m.setattr(analysis, "_assignment_rank", logged)
        built = count_images(m)
        value = f(A, n).value
    return value, LoggingTracker.log, built[0]


def rescaled_m2():
    A = parse_algebra_spec("m_hl_transpose:1,1")
    return rescaled(A, scales_for(A.dim, 1))


LABEL_CASES = [
    *((spec, sg.codim_graded, n) for spec in FAMILIES for n in range(1, 5)),
    *((spec, sg.codim_ordinary, n) for spec in FAMILIES for n in ordinary_degrees(parse_algebra_spec(spec), 4)),
    ("m_hl_transpose:1,1", sg.codim_graded, 6),
    ("m_hl_transpose:1,1", sg.codim_ordinary, 6),
    ("mn_cmn_star:2,t", sg.codim_graded, 5),
    (UT2, sg.codim_graded, 4),
    ("rescaled m_hl_transpose:1,1", sg.codim_graded, 4),
    ("rescaled m_hl_transpose:1,1", sg.codim_ordinary, 4),
]


@pytest.mark.parametrize("spec,f,n", LABEL_CASES)
def test_labels_hand_the_tracker_the_columns_of_the_value_spin(monkeypatch, spec, f, n):
    A = rescaled_m2() if spec.startswith("rescaled") else build(spec)
    got = tracker_inputs(monkeypatch, f, A, n, analysis._assignment_rank)
    want = tracker_inputs(monkeypatch, f, A, n, value_spin)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] <= want[2]


def test_labels_skip_most_images_of_graded_m2_at_degree_6(monkeypatch):
    # of the 476 generator images the value spin builds, 365 have a label met
    # before; 10 of the 111 built are equal to a column met before
    A = parse_algebra_spec("m_hl_transpose:1,1")
    got = tracker_inputs(monkeypatch, sg.codim_graded, A, 6, analysis._assignment_rank)
    want = tracker_inputs(monkeypatch, sg.codim_graded, A, 6, value_spin)
    assert got[0] == want[0] == 4033
    assert (got[2], want[2]) == (111, 476)


def assignment_columns(A, domains, label):
    vecs = [domains[s][t] for s, t in enumerate(label[:-1])]
    return list(_word_columns(A, vecs, {}))


@pytest.mark.parametrize("spec", FAMILIES + (UT2,))
def test_a_label_names_its_column_and_the_image_label_names_the_image(spec):
    """Every label _representative_columns gives names the column it comes
    with. For every assignment a, column k and generator g, the label map takes
    (a, k) to a label whose assignment's column is g(col), the column of a o tau
    (reindexed)."""
    A = build(spec)
    checked = 0
    contents = [c for n in range(2, 5) for c in analysis._contents(n)]
    for domains in [content_domains(A, c) for c in contents] + [[kind_basis(A, None)] * 3]:
        if any(not d for d in domains) or prod(map(len, domains)) > 256:
            continue
        n = len(domains)
        groups = analysis._slot_groups(domains)
        trie = {}
        for col, label in analysis._representative_columns(A, domains, groups, trie):
            assert assignment_columns(A, domains, label)[label[-1]] == col
        grouping = tuple(tuple(slots) for _, slots in groups)
        gens = analysis._generator_maps(grouping, n, trie)
        for combo in product(*(range(len(d)) for d in domains)):
            for k, col in enumerate(assignment_columns(A, domains, (*combo, 0))):
                for g, relabel in gens:
                    tau = relabel(tuple(range(n + 1)))[:-1]
                    image = relabel((*combo, k))
                    assert image == (*(combo[t] for t in tau), k)
                    assert assignment_columns(A, domains, image)[k] == g(col) == reindexed(col, tau)
                    checked += 1
    assert checked > 0


# ------------------------------------------------------------------ least images


def old_image_below(g, moved, rep):
    """g(rep) < rep as first written: every moved group's image built, then
    the tuples of groups compared."""
    least = tuple(rep[k] for k in moved)
    return tuple(tuple(sorted(map(m.__getitem__, rep[k]))) for m, k in zip(g, moved)) < least


@st.composite
def least_image_cases(draw):
    """A representative, one non-decreasing index tuple per slot group; the
    groups whose domain has two vectors or more; and index permutations of
    those domains, one per moved group for each g."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rep = tuple(
        tuple(sorted(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=3)))) for d in sizes
    )
    moved = [k for k, d in enumerate(sizes) if d > 1]
    group_maps = st.tuples(*(st.permutations(range(sizes[k])).map(tuple) for k in moved))
    return rep, moved, draw(st.lists(group_maps, max_size=6))


@given(least_image_cases())
@example((((1, 1), (0, 0)), [0, 1], [((0, 1), (1, 0)), ((1, 0), (0, 1))]))
@settings(max_examples=300, deadline=None)
def test_the_least_image_test_decides_as_the_whole_tuple_compare(case):
    # the example's first g fixes group 0 and moves group 1 up; its second
    # moves group 0 down: group 1's image is never built
    rep, moved, maps = case
    for g in maps:
        assert analysis._image_below(g, moved, rep) is old_image_below(g, moved, rep)


@pytest.mark.parametrize("spec", ("m_hl_transpose:1,1", "mn_cmn_star:2,t", UT2))
def test_the_least_image_test_keeps_the_seeds_of_the_whole_tuple_compare(monkeypatch, spec):
    A = build(spec)
    analysis._signed_automorphisms(A)
    assert len(A._automorphisms) > 1
    compared = 0
    for content in [c for n in range(2, 5) for c in analysis._contents(n)]:
        domains = content_domains(A, content)
        if any(not d for d in domains):
            continue
        groups = analysis._slot_groups(domains)
        got = list(analysis._representative_columns(A, domains, groups, {analysis._AUTOMORPHISMS: True}))
        with monkeypatch.context() as m:
            m.setattr(analysis, "_image_below", old_image_below)
            want = list(analysis._representative_columns(A, domains, groups, {analysis._AUTOMORPHISMS: True}))
        assert got == want
        compared += 1
    assert compared > 0
