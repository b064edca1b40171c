"""Codimension ranks from orbit representatives and the integer rank tracker,
against the plain product enumeration on the Fraction tracker, closed forms,
and pinned work counts."""

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

import stargraded as sg
from stargraded import analysis
from stargraded.analysis import RunConfig, _mod_frac, _word_values
from stargraded.checks import parse_algebra_spec
from stargraded.errors import InternalInconsistencyError, SizeCapError
from stargraded.linalg import RankTrackerModP, _as_num

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


def reference_assignment_rank(A, domains, config, primes):
    """Every assignment in product order, its n! words computed directly."""
    n = len(domains)
    nfact = factorial(n)
    if any(not d for d in domains):
        return 0
    nominal = prod(len(d) for d in domains) * nfact
    if nominal > config.cap_evals:
        raise SizeCapError(f"codimension sweep needs {nominal} evaluations")
    tracker = ReferenceRankTracker()
    ptrackers = [RankTrackerModP(p) for p in primes]
    seen = set()
    for combo in product(*(range(len(d)) for d in domains)):
        words = _word_values(A, [domains[s][combo[s]] for s in range(n)])
        for r in sorted({r for w in words for r in w}):
            col = tuple(_as_num(w.get(r, 0)) for w in words)
            if col in seen:
                continue
            seen.add(col)
            tracker.add(list(col))
            for pt, p in zip(ptrackers, primes):
                pt.add([_mod_frac(c, p) for c in col])
        if tracker.rank == nfact and all(pt.rank == nfact for pt in ptrackers):
            break
    for pt, p in zip(ptrackers, primes):
        if pt.rank != tracker.rank:
            raise InternalInconsistencyError(f"rank {tracker.rank} but {pt.rank} mod {p}")
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
    assert any(isinstance(c, Fraction) for row in B.structure.values() for c in row.values())
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


def test_mod_p_screen_matches_on_a_rescaled_basis(monkeypatch):
    A = rescaled(parse_algebra_spec("m_hl_transpose:1,1"), scales_for(4, 1))
    cfg = RunConfig(mod_p=2147483647)
    got, want = both(monkeypatch, sg.codim_graded, A, 3, cfg)
    assert got == want == sg.codim_graded(A, 3)


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
        return _word_values(*args)

    monkeypatch.setattr(analysis, "_word_values", counted)
    return calls


@pytest.mark.parametrize("spec,graded,n,value,words", [
    ("m_hl_transpose:1,1", False, 5, 91, 56),  # product order: 1024
    ("m_hl_transpose:1,1", True, 6, 4033, 84),  # 247
    ("mn_cmn_star:2,t", True, 5, 13792, 792),  # 2736
])
def test_words_are_computed_once_per_orbit(monkeypatch, spec, graded, n, value, words):
    A = parse_algebra_spec(spec)
    calls = count_words(monkeypatch)
    f = sg.codim_graded if graded else sg.codim_ordinary
    assert f(A, n).value == value
    assert calls[0] == words
