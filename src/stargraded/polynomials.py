"""Barred Capelli family members and their two evaluators."""

from dataclasses import dataclass
from functools import cached_property

from .core import sparse_mul
from .linalg import _as_num

YPLUS = "y+"
YMINUS = "y-"
ZPLUS = "z+"
ZMINUS = "z-"
ANY = "any"
KINDS = (YPLUS, YMINUS, ZPLUS, ZMINUS)


@dataclass(frozen=True)
class CapelliShape:
    """A member of the barred Capelli family: its alternating rank, slot kind,
    and which connector gaps were deleted.

    The first rank slots alternate and have the kind; one untyped connector
    slot follows for each kept gap. Its m! terms, words over slot indices with
    signs, are built the first time `terms` is read; equality and hashing go
    by (rank, kind, deleted) alone."""

    rank: int
    kind: str
    deleted: frozenset

    def __post_init__(self):
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError(f"Capelli rank must be a positive integer, got {self.rank!r}")
        if self.kind not in KINDS and self.kind != ANY:
            raise ValueError(f"unknown slot kind {self.kind!r}, expected one of {KINDS + (ANY,)}")
        bad = sorted(g for g in self.deleted if not 0 <= g < self.rank - 1)
        if bad:
            raise ValueError(f"deleted gaps {bad} out of range for rank {self.rank}")

    @property
    def kept_gaps(self):
        return tuple(g for g in range(self.rank - 1) if g not in self.deleted)

    @property
    def slot_kinds(self):
        return (self.kind,) * self.rank + (ANY,) * len(self.kept_gaps)

    @property
    def nslots(self):
        return self.rank + len(self.kept_gaps)

    @cached_property
    def terms(self):
        return dict(_walk(self, (), lambda word, s: word + (s,)))


def _walk(shape, start, extend):
    """Depth-first walk of the lexicographic permutation tree of the m! words
    of a Capelli member, yielding (value, sign) at each leaf in lexicographic
    order. A node's value is extend(parent's value, slot), made once and shared
    by the node's subtree; a connector slot is appended at the node before its
    children, and a falsy value prunes the subtree. Picking the index at
    position a among the remaining ones adds a inversions, so each pick
    multiplies the sign by (-1)^a."""
    m = shape.rank
    link = [None] * m
    for r, g in enumerate(shape.kept_gaps):
        link[g + 1] = m + r

    def walk(acc, remaining, sign):
        if not remaining:
            yield acc, sign
            return
        c = link[m - len(remaining)]
        if c is not None and not (acc := extend(acc, c)):
            return
        for a, t in enumerate(remaining):
            if nxt := extend(acc, t):
                yield from walk(nxt, remaining[:a] + remaining[a + 1 :], -sign if a & 1 else sign)

    return walk(start, tuple(range(m)), 1)


def capelli_member(m, kind, deleted=()):
    """One member of the barred Capelli family: m alternating slots of the given
    kind with connector slots in the non-deleted gaps. Its terms are built
    only when read."""
    return CapelliShape(m, kind, frozenset(deleted))


def barred_capelli_set(m, kind):
    """All 2^(m-1) members over connector deletion patterns, mask ascending."""
    out = []
    for mask in range(1 << (m - 1)):
        deleted = frozenset(g for g in range(m - 1) if mask >> g & 1)
        out.append(capelli_member(m, kind, deleted))
    return out


def generator_family(rank_yp, rank_ym, rank_zp, rank_zm):
    """The generator family at the four given ranks: concatenated barred sets in
    kind order y+, y-, z+, z-."""
    out = []
    for rank, kind in ((rank_yp, YPLUS), (rank_ym, YMINUS), (rank_zp, ZPLUS), (rank_zm, ZMINUS)):
        if rank < 1:
            raise ValueError(f"generator rank for {kind} must be at least 1, got {rank}")
        out.extend(barred_capelli_set(rank, kind))
    return out


def evaluate_sparse(A, p, assignment):
    """Value of p on sparse vectors, one per slot, as the signed sum of its
    words' left-to-right products. The words are walked as a tree, so a shared
    prefix is multiplied once and a zero prefix skips every word it begins."""
    if not isinstance(p, CapelliShape):
        raise ValueError(f"barred Capelli members come from capelli_member, got {type(p).__name__}")
    if len(assignment) != p.nslots:
        raise ValueError(f"{len(assignment)} vectors for {p.nslots} slots")

    def extend(cur, s):
        return assignment[s] if cur is None else sparse_mul(A, cur, assignment[s])

    out = {}
    for cur, sign in _walk(p, None, extend):
        for k, c in cur.items():
            out[k] = out.get(k, 0) + sign * c
    return {k: _as_num(c) for k, c in out.items() if c != 0}


def evaluate_alternating_fast(A, shape, alt_vecs, conn_vecs):
    """Value of one Capelli member via the subset dynamic program.

    The states are one flat dict {mask * dim + k: coeff}: the coordinate k of
    the sum over orderings of the index subset mask with the connectors seen
    so far interleaved. Appending index t last costs the sign of moving t past
    the larger members."""
    m = shape.rank
    kept = shape.kept_gaps
    if len(alt_vecs) != m or len(conn_vecs) != len(kept):
        raise ValueError(
            f"rank {m} with {len(kept)} connectors got {len(alt_vecs)} and {len(conn_vecs)} vectors"
        )
    dim = A.dim
    rows = {}  # right_row of alt_vecs at each coordinate the states reach
    states = {(dim << t) + k: c for t, v in enumerate(alt_vecs) for k, c in v.items() if c}
    conn_at = dict(zip(kept, conn_vecs))
    for g in range(m - 1):
        x = conn_at.get(g)
        if x is not None:
            prods = {}  # e_i x at each coordinate i the states reach
            joined = {}
            for key, a in states.items():
                i = key % dim
                w = prods.get(i)
                if w is None:
                    w = prods[i] = sparse_mul(A, {i: 1}, x)
                base = key - i
                for k, c in w.items():
                    k += base
                    joined[k] = joined.get(k, 0) + a * c
            states = {key: c for key, c in joined.items() if c}
        for key in states:
            i = key % dim
            if i not in rows:
                rows[i] = right_row(A, i, alt_vecs)
        states = _extend_alternating(states, rows, dim)
        if not states:
            return {}
    top = ((1 << m) - 1) * dim
    return {key - top: c for key, c in states.items() if key >= top}


def right_row(A, i, vecs):
    """The nonzero products e_i x of coordinate i with the vectors x of vecs, as
    (index in vecs, items of e_i x) pairs in the order of vecs. A state v has
    v x = sum over i of v_i e_i x."""
    return [(t, tuple(w.items())) for t, x in enumerate(vecs) if (w := sparse_mul(A, {i: 1}, x))]


def _extend_alternating(states, rows, dim):
    """Append each missing alternating index to every state.

    states and the result are flat dicts {mask * dim + k: coeff} without zero
    entries: the entry at key is coordinate i = key % dim of the state of the
    index subset mask = key // dim. rows[i] is the right_row of coordinate i
    over the alternating vectors, for every coordinate the states reach; one
    with no nonzero product adds nothing. Appending t to mask multiplies by
    (-1)^(members of mask above t), and coordinate k of the product lands at
    the key of mask | 2^t, key - i + (dim << t) + k."""
    new = {}
    for key, a in states.items():
        i = key % dim
        mask = key // dim
        base = key - i
        for t, items in rows[i]:
            if mask >> t & 1:
                continue
            f = -a if (mask >> t).bit_count() & 1 else a
            tb = base + (dim << t)
            for k, c in items:
                k += tb
                new[k] = new.get(k, 0) + f * c
    return {key: c if isinstance(c, int) else _as_num(c) for key, c in new.items() if c}
