"""Identity checking, Capelli thresholds, codimension sequences, and exponents."""

from collections import deque
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, perm, prod
from operator import itemgetter

from .core import (
    commutator_images,
    hom_components,
    jacobson_radical,
    sparse_mul,
    subspace_product,
    to_dense,
)
from .errors import InternalInconsistencyError, SizeCapError
from .families import classified_hom_dims
from .linalg import RankTracker, _as_num, _kernel, coordinate_span
from .polynomials import (
    ANY,
    KINDS,
    YMINUS,
    YPLUS,
    ZMINUS,
    ZPLUS,
    CapelliShape,
    _extend_alternating,
    evaluate_alternating_fast,
    evaluate_sparse,
)
from .triangular import is_trivially_graded, ut_star


@dataclass(frozen=True)
class RunConfig:
    """Caps shared by the checking routines; both are ints of at least 1.

    cap_n bounds codimension degrees. cap_evals is the work budget of one
    public call, kept by a Meter: the sweep's work is charged as it is done,
    and the codimension, block ordering and dimension enumerations charge
    their nominal sizes up front. threshold_offsets, codim_table and the
    verify-paper suites call public functions, each with a budget of its own."""

    cap_n: int = 6
    cap_evals: int = 10**8

    def __post_init__(self):
        for name in ("cap_n", "cap_evals"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an int of at least 1, got {value!r}")


DEFAULT_CONFIG = RunConfig()


class Meter:
    """The work budget of one public call, and the only comparison against
    cap_evals: charge raises SizeCapError once the call's total passes it."""

    def __init__(self, config):
        self.cap = config.cap_evals
        self.work = 0

    def charge(self, units, stage):
        self.work += units
        if self.work > self.cap:
            raise SizeCapError(f"{stage}: {self.work} units of work in this call, over the cap {self.cap}")

    def affords(self, units):
        return self.work + units <= self.cap


@dataclass(frozen=True)
class Witness:
    """A reproducible non-identity certificate: evaluate_sparse(A, poly,
    assignment) on the sparse forms of the dense vectors must equal value."""

    poly: CapelliShape
    assignment: tuple
    value: tuple


@dataclass(frozen=True)
class WitnessReport:
    is_identity: bool
    witness: Witness | None


@dataclass(frozen=True)
class ThresholdReport:
    kind: str
    threshold: int
    search_cap: int
    witness: Witness | None


@dataclass(frozen=True)
class GeneratorSetReport:
    satisfied: bool
    failing_index: int | None
    witness: Witness | None


@dataclass(frozen=True)
class CodimReport:
    n: int
    value: int
    content_ranks: dict


@dataclass(frozen=True)
class ThresholdOffsetReport:
    """Measured identity thresholds of a block triangular algebra against the
    componentwise dimension sums, with the trivial-grading corrections."""

    m: int
    m_trivial: int
    m_runs: int
    dim_sums: tuple
    thresholds: dict
    offset_even: int
    offset_odd: int


def kind_basis(A, kind):
    """Canonical sparse basis of one homogeneous component, or their union;
    kind None gives the algebra's own basis e_0, ..., e_{dim-1}.

    Cached on the algebra as a tuple; callers must not mutate the vectors."""
    basis = A._kind_bases.get(kind)
    if basis is None and kind is None:
        basis = A._kind_bases[kind] = tuple({k: 1} for k in range(A.dim))
    elif basis is None:
        comp = hom_components(A)
        kinds = KINDS if kind == ANY else (kind,)
        basis = A._kind_bases[kind] = tuple(v for k in kinds for v in comp.by_kind(k).sparse_basis)
    return basis


def right_products(A):
    """The right_row of each coordinate over kind_basis(A, ANY): for each i, the
    nonzero products e_i x over the homogeneous basis vectors x as (index,
    items) pairs in basis order. Cached on the algebra like kind_basis. The
    left support {i : e_i x != 0} of x is the set of i whose row lists x.

    Built by columns from the product rows: e_i x is the sum of x_j (e_i e_j)
    over the nonzero e_i e_j in ascending j, added into each x with coordinate
    j. The basis vectors are RREF rows, ascending in j, so each e_i x holds the
    same entries, in the same order, as sparse_mul(A, {i: 1}, x)."""
    if A._right_products is None:
        basis = kind_basis(A, ANY)
        having = [[] for _ in range(A.dim)]  # having[j]: (t, x_j) for each basis[t] with x_j != 0
        for t, x in enumerate(basis):
            for j, c in x.items():
                having[j].append((t, c))
        table = []
        for row in A.rows:
            acc = {}  # acc[t]: e_i basis[t] so far
            for j, pr in sorted(row.items()):
                for t, xj in having[j]:
                    w = acc.get(t)
                    if w is None:
                        w = acc[t] = {}
                    for k, c in pr:
                        w[k] = w.get(k, 0) + xj * c
            table.append([
                (t, items)
                for t in sorted(acc)
                if (items := tuple((k, c if isinstance(c, int) else _as_num(c)) for k, c in acc[t].items() if c))
            ])
        A._right_products = table
    return A._right_products


def _dense(A, sv):
    return tuple(to_dense(sv, A.dim))


def _raw_witness(shape, alt_vecs, conn_vecs, value):
    return (shape, tuple(dict(v) for v in alt_vecs), tuple(dict(v) for v in conn_vecs), dict(value))


def _span_sweep(A, m, kind, picked, deleted, meter):
    """Search the rank-m barred family over every m-subset of the vectors
    kind_basis(A, kind)[a], a in picked (ascending), at once; deleted is as
    in _first_nonzero. Returns None when every evaluation vanishes, or the
    first nonzero one found as (choices, states): the connector index per
    gap, None where deleted, and the states of the last gap, whose keys all
    lie on masks of m vectors. On m vectors this is the sweep of one
    alternating tuple, and every key lies on the full mask.

    The search holds one flat form from start to end: the states, each gap's
    option vectors and the subset DP's input and output are all dicts
    {mask * dim + k: coeff} without zero entries, the mask ranging over
    subsets of picked. After gap g every mask has g + 2 members, so the states
    of the last gap are the values on the m-subsets of picked, and the
    search stops at the first nonempty one.

    Only work that can change the answer is done. Every product is read from
    right_products: at each gap one pass over the states' coordinates sums
    each connector's joined states, and a connector that no coordinate
    reaches is not tried. The DP reads the picked vectors' rows of the same
    table. The subtree below a gap depends only on the gap and the joined
    states, and every value it reaches, on every m-subset at once, is a
    linear function of them: each step multiplies every state by a fixed
    vector and sums. The joined states of each option searched at a gap go
    into that gap's RankTracker first; the deleted-gap option is the states
    themselves. The search is depth first and returns at its first nonzero
    value, so every earlier entry of a tracker belongs to a subtree that was
    searched in full and vanished on every m-subset. An option whose states
    lie in their span therefore vanishes too, and it is skipped when `add`
    finds it dependent; an accepted one goes straight into the DP. This
    covers equal states in any order and their multiples. A pinned deleted
    gap has one option and its states are the extension of the parent's, so
    it is not recorded. Skipped options are exactly ones the plain search
    finds empty or vanishing, so the first nonzero found is the plain
    search's. Each prefix product and each tracker is shared by every
    m-subset, so a tree that searches them all is searched once.

    Charge: at each gap, before its connector sums, the entries of the states
    it multiplies plus its options, all of which may be tried."""
    if m > len(picked):
        return None
    stage = f"barred Capelli sweep of kind {kind} at rank {m}"
    alt_dom = kind_basis(A, kind)
    table = right_products(A)
    # kind_basis(A, ANY) lists the kinds in KINDS order, so alt_dom starts at offset
    offset = 0 if kind == ANY else sum(len(kind_basis(A, k)) for k in KINDS[: KINDS.index(kind)])
    dim = A.dim
    slot = {offset + a: t for t, a in enumerate(picked)}
    alt_rows = [[(slot[x], items) for x, items in row if x in slot] for row in table]
    spans = [RankTracker() for _ in range(m - 1)]

    def rec(g, states, choices):
        if g == m - 1:
            return choices, states
        if deleted is not None and g in deleted:
            nxt = _extend_alternating(states, alt_rows, dim)
            return rec(g + 1, nxt, choices + [None]) if nxt else None
        sums = {}
        for key, a in states.items():
            i = key % dim
            base = key - i
            for c, items in table[i]:
                flat = sums.get(c)
                if flat is None:
                    flat = sums[c] = {}
                for k, x in items:
                    k += base
                    flat[k] = flat.get(k, 0) + a * x
        options = [(c, sums[c]) for c in sorted(sums)]
        if deleted is None:
            options.append((None, states))
        meter.charge(len(states) + len(options), stage)
        for opt, flat in options:
            if opt is not None:
                flat = {key: x for key, x in flat.items() if x}
            if not spans[g].add(flat):
                continue
            nxt = _extend_alternating(flat, alt_rows, dim)
            hit = rec(g + 1, nxt, choices + [opt]) if nxt else None
            if hit:
                return hit
        return None

    states = {(dim << t) + k: c for t, a in enumerate(picked) for k, c in alt_dom[a].items()}
    return rec(0, states, [])


def _first_nonzero(A, m, kind, deleted, meter):
    """First nonzero evaluation of the rank-m barred family on basis assignments.

    deleted=None sweeps every deletion pattern in one shared-prefix search;
    a frozenset pins a single member. Canonical order: alternating tuples
    lexicographic, then per gap each connector index ascending, skip last.
    Returns a raw witness, or None when every evaluation vanishes, as it does
    at once when m exceeds the kind's dimension.

    Each tuple is swept by _span_sweep on its m vectors. Once the first tuple
    has vanished and more remain, _span_sweep decides every tuple at once on
    the whole kind basis, and None is returned if that vanishes; otherwise
    the tuples are swept on in order, so the first witness is the canonical
    one. The search is bounded by the work it does, not by a nominal count:
    it charges meter, the calling public function's budget, one unit per
    alternating tuple, which covers the member with every gap deleted, and
    _span_sweep's charge at each gap."""
    alt_dom = kind_basis(A, kind)
    if m > len(alt_dom):
        return None
    stage = f"barred Capelli sweep of kind {kind} at rank {m}"
    conn_dom = kind_basis(A, ANY)
    top = ((1 << m) - 1) * A.dim  # the full mask's first key
    for alt_idx in combinations(range(len(alt_dom)), m):
        meter.charge(1, stage)
        hit = _span_sweep(A, m, kind, alt_idx, deleted, meter)
        if hit:
            choices, states = hit
            dels = frozenset(i for i, c in enumerate(choices) if c is None)
            conn = [conn_dom[c] for c in choices if c is not None]
            value = {key - top: c for key, c in states.items()}
            return _raw_witness(CapelliShape(m, kind, dels), [alt_dom[t] for t in alt_idx], conn, value)
        if alt_idx[-1] == m - 1 < len(alt_dom) - 1:  # the first tuple, and more remain
            if _span_sweep(A, m, kind, range(len(alt_dom)), deleted, meter) is None:
                return None
    return None


def _is_automorphism(A, p, s):
    """True when e_i -> s[i] e_{p[i]} is an automorphism of A: p permutes
    range(dim), each s[i] is 1 or -1, and the map keeps the grading, the
    involution and every structure constant. Each row of products goes to a
    row with as many nonzero products, so zero products go to zero products."""
    dim = A.dim
    if sorted(p) != list(range(dim)) or len(s) != dim or any(x not in (1, -1) for x in s):
        return False
    if any(A.grading[p[i]] != A.grading[i] for i in range(dim)):
        return False
    rows = A.rows
    for i, row in enumerate(rows):
        image = rows[p[i]]
        if len(image) != len(row):
            return False
        for j, terms in row.items():
            if dict(image.get(p[j], ())) != {p[k]: s[i] * s[j] * s[k] * c for k, c in terms}:
                return False
    return all(
        A.star_sparse(p[k]) == {p[r]: s[k] * s[r] * c for r, c in A.star_sparse(k).items()} for k in range(dim)
    )


def _solve_signs(A, p, rows, stars):
    """Signs s, free ones +1, for which e_i -> s[i] e_{p[i]} matches every
    structure constant and star entry of A up to the permutation, or None.
    Each entry c of e_i e_j at e_k, against c' of the image, is the equation
    s_i s_j s_k = c'/c over GF(2), and a star entry the equation s_k s_r = c'/c;
    they are eliminated as bit masks."""
    pivots = {}

    def equation(mask, c, image):
        if image not in (c, -c):
            return False
        bit = int(image != c)
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = (mask, bit)
                return True
            pmask, pbit = pivots[low]
            mask ^= pmask
            bit ^= pbit
        return bit == 0

    for i, row in enumerate(rows):
        image = rows[p[i]]
        for j, terms in row.items():
            want = dict(image.get(p[j], ()))
            for k, c in terms:
                if not equation((1 << i) ^ (1 << j) ^ (1 << k), c, want.get(p[k], 0)):
                    return None
    for k, col in enumerate(stars):
        want = stars[p[k]]
        for r, c in col.items():
            if not equation((1 << k) ^ (1 << r), c, want.get(p[r], 0)):
                return None
    negative = 0
    for low in sorted(pivots, reverse=True):
        mask, bit = pivots[low]
        if bit ^ (bin(mask & negative).count("1") & 1):
            negative |= low
    return tuple(-1 if negative >> i & 1 else 1 for i in range(A.dim))


def _search_steps(A):
    # the step budget of _signed_automorphisms, which _codim_memo charges
    return A.dim * A.dim


def _signed_automorphisms(A):
    """The signed permutations (p, s) of the basis found to be automorphisms
    of A, closed under composition with one sign vector per permutation;
    cached on the algebra beside the odd central unit.

    The search reads only A.rows and the star images, so it needs no
    layout and works on any relabeled document. It assigns permutation
    images by individualization and propagation. An element may only go to
    one of equal colour, a tuple of invariants under signed automorphisms.
    Each branch fixes the image of the next unassigned element in a
    breadth-first order through the one-term products, and each assignment
    forces what it determines: the image of a one-term star image, and that
    of e_l for a one-term product e_i e_k = c e_l once e_i and e_k are
    assigned. Signs are not branched on: at a full assignment they are
    solved (_solve_signs), so what is found does not depend on the signs of
    the basis.

    Invariant: an element other than the identity is kept only after
    _is_automorphism has checked it against every structure constant, the
    grading and the involution, and a composition of kept elements is an
    automorphism. So the result holds automorphisms only; it may miss some,
    which only leaves more codimension seeds. Charge: the caller charges
    _search_steps(A), dim A squared, to its Meter before calling, and the
    search stops once it has taken that many steps, one per assignment it
    propagates, dim per full assignment it checks and one per composition,
    and keeps what it has found."""
    if A._automorphisms is not None:
        return A._automorphisms
    dim = A.dim
    rows = A.rows
    stars = [A.star_sparse(k) for k in range(dim)]
    # invariants of e_i under signed automorphisms: its degree, its star
    # image's shape and its coefficient at e_i, and how many e_i e_j and
    # e_j e_i are nonzero
    lefts = [0] * dim
    for row in rows:
        for j in row:
            lefts[j] += 1
    colour = [(A.grading[i], stars[i].get(i, 0), len(stars[i]), len(rows[i]), lefts[i]) for i in range(dim)]
    cells = {}
    for j in range(dim):
        cells.setdefault(colour[j], []).append(j)
    # one-term products e_i e_k = c e_l as triples (i, k, l), listed under
    # both factors: once both are assigned, the image of l is forced
    triples = [[] for _ in range(dim)]
    for i, row in enumerate(rows):
        for k, terms in row.items():
            if len(terms) == 1:
                for x in {i, k}:
                    triples[x].append((i, k, terms[0][0]))
    # branch in breadth-first order through the triples, from the elements
    # of the smallest cells, so that each branch meets assigned neighbours
    order, seen = [], [False] * dim
    for root in sorted(range(dim), key=lambda y: len(cells[colour[y]])):
        if not seen[root]:
            seen[root] = True
            order.append(root)
            for x in order[len(order) - 1 :]:
                for t in triples[x]:
                    for y in t:
                        if not seen[y]:
                            seen[y] = True
                            order.append(y)
    # p is the partial permutation and inv its inverse, -1 where unassigned;
    # trail lists the assigned elements in order, so a branch is undone by
    # cutting it back, and the search needs no recursion
    p, inv, trail = [-1] * dim, [-1] * dim, []
    budget = _search_steps(A)
    found = {}

    def assign(i, j):
        if p[i] >= 0:
            return p[i] == j
        if j < 0 or inv[j] >= 0 or colour[i] != colour[j]:
            return False
        p[i], inv[j] = j, i
        trail.append(i)
        return True

    def propagate(pos):
        nonlocal budget
        while pos < len(trail):
            budget -= 1
            if budget < 0:
                return False
            x = trail[pos]
            pos += 1
            if len(stars[x]) == 1:
                (r,), (image,) = stars[x], stars[p[x]]
                if not assign(r, image):
                    return False
            for i, k, l in triples[x]:
                if p[i] >= 0 and p[k] >= 0:
                    image = rows[p[i]].get(p[k], ())
                    if not assign(l, image[0][0] if len(image) == 1 else -1):
                        return False
        return True

    # a frame is [position in order, next candidate, trail length before it]
    frames = [[0, 0, 0]] if dim else []
    while frames and budget >= 0:
        frame = frames[-1]
        at, c, size = frame
        while len(trail) > size:
            x = trail.pop()
            inv[p[x]] = -1
            p[x] = -1
        i = order[at]
        if c == len(cells[colour[i]]):
            frames.pop()
            continue
        frame[1] += 1
        if not (assign(i, cells[colour[i]][c]) and propagate(size)):
            continue
        at = next((t for t in range(at + 1, dim) if p[order[t]] < 0), dim)
        if at < dim:
            frames.append([at, 0, len(trail)])
            continue
        budget -= dim
        if p == sorted(p):  # the identity, which _solve_signs and the check pass with signs all +1
            found[tuple(p)] = (1,) * dim
            continue
        signs = _solve_signs(A, p, rows, stars)
        if signs is not None and _is_automorphism(A, p, signs):
            found[tuple(p)] = signs
    gens = list(found.items())
    frontier = gens
    while frontier:
        grown = []
        for (pa, sa), (pb, sb) in product(frontier, gens):
            budget -= 1
            if budget < 0:
                break
            pc = tuple(pa[x] for x in pb)
            if pc not in found:
                found[pc] = tuple(sb[i] * sa[x] for i, x in enumerate(pb))
                grown.append((pc, found[pc]))
        frontier = grown
    A._automorphisms = tuple(found.items())
    return A._automorphisms


def _index_maps(A, basis):
    """For each (p, s) in A._automorphisms, the permutation t -> u of the
    indices of basis with e_k -> s[k] e_{p[k]} mapping basis[t] to plus or
    minus basis[u], or None when there is none. Read by the codimension
    seeds; cached on the algebra per basis object, which the cache keeps
    alive so that its id is not reused."""
    autos = A._automorphisms
    hit = A._index_maps.get(id(basis))
    if hit is None or hit[0] is not autos:
        index = {}
        for t, v in enumerate(basis):
            index[frozenset(v.items())] = index[frozenset((k, -c) for k, c in v.items())] = t
        maps = []
        for p, s in autos:
            image = tuple(index.get(frozenset((p[k], s[k] * c) for k, c in v.items()), -1) for v in basis)
            maps.append(None if -1 in image else image)
        hit = A._index_maps[id(basis)] = (autos, basis, tuple(maps))
    return hit[2]


def _build_witness(A, raw):
    shape, alt_vecs, conn_vecs, value = raw
    replay = evaluate_alternating_fast(A, shape, list(alt_vecs), list(conn_vecs))
    if replay != value:
        raise InternalInconsistencyError("witness does not replay through the fast evaluator")
    assignment = [dict(v) for v in alt_vecs] + [dict(v) for v in conn_vecs]
    # term replay up to rank 7: the m! words' products, one tree walk over shared prefixes
    if factorial(shape.rank) <= 5040:
        naive = evaluate_sparse(A, shape, assignment)
        if naive != value:
            raise InternalInconsistencyError("witness does not replay through the term evaluator")
    return Witness(
        shape,
        tuple(_dense(A, v) for v in assignment),
        _dense(A, value),
    )


def is_graded_identity(A, p, config=DEFAULT_CONFIG):
    """Decide whether the barred Capelli member p, a CapelliShape, vanishes
    under every admissible substitution: the one-member case of
    satisfies_generator_set, with its replayed witness for a non-identity."""
    rep = satisfies_generator_set(A, [p], config)
    return WitnessReport(rep.satisfied, rep.witness)


def satisfies_generator_set(A, polys, config=DEFAULT_CONFIG):
    """Decide barred Capelli members, CapelliShapes, in order under one work
    budget; reports the first non-identity with a replayed witness."""
    meter = Meter(config)
    for i, p in enumerate(polys):
        if not isinstance(p, CapelliShape):
            raise ValueError(f"barred Capelli members come from capelli_member, got {type(p).__name__}")
        raw = _first_nonzero(A, p.rank, p.kind, p.deleted, meter)
        if raw is not None:
            return GeneratorSetReport(False, i, _build_witness(A, raw))
    return GeneratorSetReport(True, None, None)


def radical_bound(A, kind):
    """u = dim V_k - dim(J ∩ V_k) + p, with J the radical, J^p = 0, and V_k the
    kind's component, or the whole algebra for kind any: every rank from u on
    is an identity. Over Q, A = B + J with B a subalgebra stable under the
    grading and the involution (Wedderburn-Malcev), so V_k has a basis drawn
    from B ∩ V_k and J ∩ V_k. A member alternating in u variables of V_k
    vanishes when two of them are equal, so on that basis at least p of them
    lie in J, and a monomial with p factors in J is zero (Giambruno-Zaicev
    2005, Polynomial Identities and Asymptotic Methods). For a simple
    algebra J = 0 and p = 1, so u is dim V_k + 1."""
    J = jacobson_radical(A)
    if kind == ANY:
        meet = J.dim
    else:
        V = hom_components(A).by_kind(kind)
        meet = J.dim + V.dim - J.add(V).dim
    return len(kind_basis(A, kind)) - meet + A._nilpotency


def capelli_threshold(A, kind, config=DEFAULT_CONFIG, barred=True):
    """Smallest rank at which the whole (barred) Capelli family becomes identities.

    An identity at rank t is one at t + 1: expanding a rank-(t + 1) member
    along its last alternating slot gives rank-t members on the other slots
    times further letters. Alternating in more vectors than the component
    holds is identically zero, so the threshold is at most search_cap, the
    component dimension plus one, and at most radical_bound's u. The search
    sweeps down from rank min(u, search_cap) - 1, and the first rank m that is
    not an identity gives the threshold m + 1 and the witness the report
    keeps, the only one built and replayed. A threshold u up to the dimension
    rests on the bound alone, so rank u is swept too, after the witness, and
    a nonzero there is an InternalInconsistencyError. All ranks share one
    work budget."""
    meter = Meter(config)
    cap = len(kind_basis(A, kind)) + 1
    top = min(radical_bound(A, kind), cap)
    deleted = None if barred else frozenset()
    threshold, witness = 1, None
    for m in range(top - 1, 0, -1):
        raw = _first_nonzero(A, m, kind, deleted, meter)
        if raw is not None:
            threshold, witness = m + 1, _build_witness(A, raw)
            break
    if threshold == top < cap and _first_nonzero(A, top, kind, deleted, meter) is not None:
        raise InternalInconsistencyError(f"rank {top} is not an identity, though it is the radical bound")
    return ThresholdReport(kind, threshold, cap, witness)


def ordinary_capelli_threshold(A, config=DEFAULT_CONFIG, barred=True):
    """capelli_threshold with untyped alternating slots."""
    return capelli_threshold(A, ANY, config, barred)


def barred_rank_is_identity(A, kind, m, config=DEFAULT_CONFIG):
    """True when every deletion-pattern member at rank m is a graded identity:
    one _span_sweep on the whole kind basis, as no witness is reported."""
    return _span_sweep(A, m, kind, range(len(kind_basis(A, kind))), None, Meter(config)) is None


def threshold_offsets(spec, config=DEFAULT_CONFIG):
    """Measure the four thresholds of a block triangular algebra and express them
    through the componentwise dimension sums and trivial-grading corrections.

    With no trivially graded component the thresholds sit exactly at the sums
    plus the component count. Otherwise the even and odd corrections are read
    off two kinds each, cross-checked, and must split the excess of trivially
    graded components over their runs."""
    A = ut_star(spec)
    tags = spec.components
    m = len(tags)
    sums = [0, 0, 0, 0]
    for t in tags:
        for i, d in enumerate(classified_hom_dims(t)):
            sums[i] += d
    trivial = [is_trivially_graded(t) for t in tags]
    m_trivial = sum(trivial)
    m_runs = 0
    prev = False
    for f in trivial:
        if f and not prev:
            m_runs += 1
        prev = f
    thresholds = {}
    for kind in KINDS:
        thresholds[kind] = capelli_threshold(A, kind, config=config).threshold
    if m_trivial == 0:
        for i, kind in enumerate(KINDS):
            if thresholds[kind] != sums[i] + m:
                raise InternalInconsistencyError(
                    f"threshold for {kind} is {thresholds[kind]}, dimension count gives {sums[i] + m}"
                )
        return ThresholdOffsetReport(m, 0, 0, tuple(sums), thresholds, 0, 0)
    base = (m - m_trivial) + (m_runs - 1)
    off = {}
    for i, kind in enumerate(KINDS):
        off[kind] = thresholds[kind] - sums[i] - base - 1
    if off["y+"] != off["y-"] or off["z+"] != off["z-"]:
        raise InternalInconsistencyError(f"even/odd corrections disagree across kinds: {off}")
    r0, r1 = off["y+"], off["z+"]
    if r0 < 0 or r1 < 0 or r0 + r1 != m_trivial - m_runs:
        raise InternalInconsistencyError(
            f"corrections ({r0},{r1}) do not split {m_trivial} - {m_runs}"
        )
    return ThresholdOffsetReport(m, m_trivial, m_runs, tuple(sums), thresholds, r0, r1)


# the keys of a codimension call's memo beside the prefix trie's factor ids,
# the slot groupings and the cycle tuples of _generator_maps
_AUTOMORPHISMS, _LEX_INDEX = "automorphisms", "lex index"


def _word_columns(A, vecs, trie):
    """The columns of the left-to-right products over all permutations of vecs:
    one tuple per coordinate that some word reaches with a nonzero value,
    ascending, with one entry per word in lex order.

    Where a remaining slot holds the same object as the remaining slot just
    before it, taking either one first leaves the same sequence of vectors, so
    its block of words is a copy of the previous block and is not multiplied
    again. Only adjacent slots share a block: removing one of two equal but
    separated vectors leaves two different sequences. The walk visits
    positions in increasing order and a copy reads only finished positions,
    so the copies are replayed on each column in walk order after the last
    word has been summed into the columns.

    trie memoizes proper prefixes across calls: {id(factor): (factor, product,
    children)}, keyed by factor identity. A node keeps its factor alive, so no
    id is reused while the trie is. Full words are not stored: within one
    codim_graded or codim_ordinary call no two representatives share one. A
    word's last product is read from A.rows and summed straight into
    its columns, with no sparse_mul call and no dict of its own; a node with
    two slots left writes both orders itself. A column whose entries all
    cancel is not yielded."""
    n = len(vecs)
    if n == 1:
        for _, c in sorted(vecs[0].items()):
            yield (c,)
        return
    nfact = factorial(n)
    rows = A.rows
    cols = {}
    copies = []

    def rec(children, prefix, remaining, pos):
        block = factorial(len(remaining) - 1)
        prev = None
        for a, t in enumerate(remaining):
            lo = pos + a * block
            v = vecs[t]
            if v is prev:
                copies.append((lo, block))
                continue
            prev = v
            node = children.get(id(v))
            if node is None:
                node = children[id(v)] = (v, v if prefix is None else sparse_mul(A, prefix, v), {})
            _, value, grand = node
            if not value:
                continue
            if block > 1:
                rec(grand, value, remaining[:a] + remaining[a + 1 :], lo)
                continue
            # two slots left: the word is value times the other slot's vector
            other = vecs[remaining[1 - a]].items()
            for i, ci in value.items():
                row = rows[i]
                if not row:
                    continue
                for j, cj in other:
                    pr = row.get(j)
                    if pr:
                        cij = ci * cj
                        for r, c in pr:
                            col = cols.get(r)
                            if col is None:
                                col = cols[r] = [0] * nfact
                            col[lo] += cij * c

    rec(trie, None, tuple(range(n)), 0)
    for r in sorted(cols):
        col = cols.pop(r)
        if not any(col):
            continue
        if type(sum(col)) is not int:  # a Fraction entry makes the sum a Fraction
            col = list(map(_as_num, col))
        for lo, block in copies:
            col[lo : lo + block] = col[lo - block : lo]
        yield tuple(col)


def _slot_groups(domains):
    """Slots grouped by equal domain, in order of first appearance: (domain, slots)."""
    groups = []
    for s, d in enumerate(domains):
        for dom, slots in groups:
            if dom == d:
                slots.append(s)
                break
        else:
            groups.append((d, [s]))
    return groups


def _image_below(g, moved, rep):
    """Whether g(rep) < rep on the moved groups, lexicographically: the first
    group that g does not fix decides, and later groups' images are not built."""
    for m, k in zip(g, moved):
        image = tuple(sorted(map(m.__getitem__, rep[k])))
        if image != rep[k]:
            return image < rep[k]
    return False


def _representative_columns(A, domains, groups, trie):
    """The _word_columns of each orbit representative, sharing trie, each with
    its label: the representative's index into its domain at every slot, then
    the column's position among the representative's columns.

    A representative lists, per slot group, the indices of its vectors in the
    group's domain, non-decreasing: one per orbit of H. When trie holds
    _AUTOMORPHISMS, the g in Aut act on them too (_index_maps): g(a) is g o a
    with each group's indices sorted. a is dropped when some g gives g(a) <
    a lexicographically (_image_below), so the least element of each orbit
    of the group the g generate is kept (McKay 1998). Groups whose domain
    has fewer than 2 vectors are left out, since every g fixes them. The
    search for Aut, its gate and its charge are _codim_memo's (see
    _assignment_rank)."""
    moved = maps = ()
    if trie.get(_AUTOMORPHISMS):
        moved = [k for k, (d, _) in enumerate(groups) if len(d) > 1]
        maps = {g for g in zip(*(_index_maps(A, groups[k][0]) for k in moved)) if None not in g}
        maps.discard(tuple(tuple(range(len(groups[k][0]))) for k in moved))
    vecs = [None] * len(domains)
    index = [0] * len(domains)
    for rep in product(*(combinations_with_replacement(range(len(d)), len(slots)) for d, slots in groups)):
        if maps and any(_image_below(g, moved, rep) for g in maps):
            continue
        for (d, slots), picked in zip(groups, rep):
            for s, t in zip(slots, picked):
                vecs[s] = d[t]
                index[s] = t
        for k, col in enumerate(_word_columns(A, vecs, trie)):
            yield col, (*index, k)


def _lex_index(n):
    return {p: i for i, p in enumerate(permutations(range(n)))}


def _generator_maps(grouping, n, trie):
    """The reindexings sigma -> index(tau o sigma), as itemgetters on columns, of
    the transposition (s_0 s_1) and, for c > 2, the cycle (s_0 ... s_{c-1}) of
    each slot group s_0 < ... < s_{c-1} of grouping, a tuple of slot tuples,
    each paired with the map s -> tau(s) on labels (_representative_columns)
    that gives the label of the image. They generate the group H below. trie,
    the call's memo, keeps the lex index of the n! permutations under
    _LEX_INDEX, built once per call, and each cycle's pair under the cycle."""
    if _LEX_INDEX not in trie:
        trie[_LEX_INDEX] = _lex_index(n)
    maps = []
    for slots in grouping:
        for cycle in [slots[:2], slots][: len(slots) - 1]:
            if cycle not in trie:
                tau = list(range(n))
                for s, t in zip(cycle, cycle[1:] + cycle[:1]):
                    tau[s] = t
                # permutations(tau) lists tau o sigma for sigma in lex order
                trie[cycle] = (
                    itemgetter(*map(trie[_LEX_INDEX].__getitem__, permutations(tau))),
                    itemgetter(*tau, n),
                )
            maps.append(trie[cycle])
    return maps


def _assignment_rank(A, domains, trie):
    """Rank of the matrix whose rows are the n! products of one slot vector each
    in every order, with one column per (assignment, coordinate) pair.

    The column space V is spun, not enumerated. Let H be the group of
    permutations tau of slots with equal domains. As (a o tau)(s) = a(tau(s)),
    w_sigma(a o tau) = w_{tau o sigma}(a): the columns of a o tau are those of
    a reindexed by sigma -> index(tau o sigma). Every assignment is a o tau
    for an orbit representative a, so V is the smallest H-stable space that
    holds the representatives' columns, the seeds.

    The distinct seeds are inserted sparsest first (nonzero count, ties in
    orbit order). Each vector that raises the rank has its _generator_maps
    images queued, and the queue is inserted before the next seed; no vector
    is queued twice. So the span S of the accepted vectors holds the seeds and
    every generator image of an accepted vector: S is H-stable and contains V.
    Each image is the column of some a o tau, so S = V. Insertion stops as
    soon as the rank reaches n!, the number of rows.

    Every queued column carries a label, its assignment at each slot and its
    position k among that assignment's columns (_representative_columns). The
    image under tau is the column of a o tau at the same k, as reindexing keeps
    which coordinates are nonzero, so its label is the label mapped by tau and
    a label fixes its column. An image is built only when its label is new,
    and queued only when its value is new too, since equal columns can carry
    different labels: the tracker gets the columns it would get from values
    alone. seeds maps each value met to its first label and is the set of
    values seen.

    Fewer seeds suffice. For an automorphism g of A, w_sigma(g o a) =
    g(w_sigma(a)), so the columns of g o a span what those of a span, and g,
    acting on values, commutes with H, acting on slots. So V is the H-spin
    of the seeds of one representative per orbit of Aut x H, where Aut is
    the signed automorphisms found that map every slot domain to plus or
    minus itself (_representative_columns). Only the seeds change, not V.

    trie is the memo of one public codimension call, made by _codim_memo and
    dropped on return. It holds the prefix trie of _word_columns under factor
    ids; the lex index, the cycle maps and, per slot grouping, the generator
    maps of _generator_maps, each built once per call; and the key
    _AUTOMORPHISMS when the seeds are reduced by Aut. _codim_memo charges the
    call's nominal count, prod |domain| * n! summed over its sweeps, before
    any column is built. It searches for Aut only when some slot domain has
    two vectors, the count is at least dim A squared and the cap has room
    for dim A squared more, which it then charges: the search at most
    doubles the call's nominal work, and whether a call is refused depends
    on the count alone. The seeds are reduced when Aut holds more than the
    identity. codim_graded calls this once per class of contents, which is
    one content each unless the algebra has an odd central unit;
    codim_graded_bruteforce and codim_ordinary call it on their own slots,
    and the brute sum is never reduced, so it stays an independent check."""
    n = len(domains)
    nfact = factorial(n)
    if any(not d for d in domains):
        return 0
    groups = _slot_groups(domains)
    seeds, labels = {}, set()
    for col, label in _representative_columns(A, domains, groups, trie):
        seeds.setdefault(col, label)
        labels.add(label)
    grouping = tuple(tuple(slots) for _, slots in groups)
    gens = trie.get(grouping)
    if gens is None:
        gens = trie[grouping] = _generator_maps(grouping, n, trie)
    tracker = RankTracker()
    queue = deque()
    for seed in sorted(seeds.items(), key=lambda item: len(item[0]) - item[0].count(0)):
        queue.append(seed)
        while queue:
            col, label = queue.popleft()
            if tracker.add(col):
                if tracker.rank == nfact:
                    return nfact
                for g, relabel in gens:
                    image_label = relabel(label)
                    if image_label not in labels:
                        labels.add(image_label)
                        image = g(col)
                        # one hash: a new value keeps image_label itself
                        if seeds.setdefault(image, image_label) is image_label:
                            queue.append((image, image_label))
    return tracker.rank


def _contents(n):
    for n1 in range(n + 1):
        for n2 in range(n + 1 - n1):
            for n3 in range(n + 1 - n1 - n2):
                yield (n1, n2, n3, n - n1 - n2 - n3)


def _multinomial(n, content):
    v = factorial(n)
    for c in content:
        v //= factorial(c)
    return v


def _check_degree(n, config):
    if type(n) is not int or n < 1:
        raise ValueError(f"codimension degree must be a positive integer, got {n!r}")
    if n > config.cap_n:
        raise SizeCapError(f"codimension degree {n} over the cap {config.cap_n}")


def _codim_memo(A, config, n, assignments, reduce):
    # one codimension call's memo, after its nominal total, its assignments
    # times n!, is charged: a call bound to be refused is refused at once.
    # The search's gate and charge are in _assignment_rank's docstring
    nominal = assignments * factorial(n)
    meter = Meter(config)
    meter.charge(nominal, f"degree-{n} codimension sweep of {nominal} evaluations")
    search = _search_steps(A)
    if reduce and A._automorphisms is None and search <= nominal and meter.affords(search):
        meter.charge(search, f"automorphism search on {A.dim} basis vectors")
        _signed_automorphisms(A)
    return {_AUTOMORPHISMS: True} if reduce and len(A._automorphisms or ()) > 1 else {}


def _odd_central_unit(A):
    """An odd central c with c* = eps c whose left multiplication is injective,
    as (eps, c), or None; cached on the algebra beside the kind bases.

    For each eps, the central elements of the component z^eps are the kernel
    of z -> ([e_i, z])_i over kind_basis(A, z^eps). A candidate is accepted
    when its left multiplication has rank dim A; the kernel's basis vectors
    are tried in turn and then their sum, which is the unit of a direct sum
    of such algebras. c maps y+ onto z^eps and y- onto z^-eps, so an eps
    whose component dimensions do not match is not tried."""
    if A._odd_unit is not None:
        return A._odd_unit or None
    A._odd_unit = ()
    ys = (len(kind_basis(A, YPLUS)), len(kind_basis(A, YMINUS)))
    images = None
    for eps, kind, other in ((1, ZPLUS, ZMINUS), (-1, ZMINUS, ZPLUS)):
        basis = kind_basis(A, kind)
        if not basis or (len(basis), len(kind_basis(A, other))) != ys:
            continue
        if images is None:
            images = commutator_images(A)
        cols = []
        for v in basis:
            col = {}
            for j, a in v.items():
                for key, x in images[j].items():
                    col[key] = col.get(key, 0) + a * x
            cols.append(col)
        center = list(_kernel(A.dim, basis, cols).sparse_basis)
        if len(center) > 1:
            total = {}
            for v in center:
                for k, x in v.items():
                    total[k] = total.get(k, 0) + x
            center.append({k: x for k, x in total.items() if x})
        for c in center:
            tracker = RankTracker()
            if all(tracker.add(sparse_mul(A, c, {i: 1})) for i in range(A.dim)):
                A._odd_unit = (eps, c)
                return A._odd_unit
    return None


def codim_graded(A, n, config=DEFAULT_CONFIG):
    """The degree-n codimension of the typed multilinear identities: summed over
    kind contents, each content's evaluation rank times its multinomial weight.

    With an odd central unit c, c* = eps c (_odd_central_unit), the rank of a
    content depends only on its class (n1 + n_{z^eps}, n2 + n_{z^-eps}, 0, 0):
    a word whose k odd slots hold c b_s is c^k times the word in the b_s, and
    left multiplication by c^k is injective, so the odd slots' columns span
    what the even ones' do, and moving slots only permutes the rows. Each
    class is then swept once, as that content, and every content reports its
    class's rank. Without such a unit every content is its own class. The
    classes swept share one work budget, their nominal total charged in full
    before the first."""
    _check_degree(n, config)
    doms = {k: kind_basis(A, k) for k in KINDS}
    sizes = [len(doms[k]) for k in KINDS]
    unit = _odd_central_unit(A)
    classes = {}
    for content in _contents(n):
        if unit is not None:
            n1, n2, n3, n4 = content
            classes[content] = (n1 + n3, n2 + n4, 0, 0) if unit[0] == 1 else (n1 + n4, n2 + n3, 0, 0)
        else:
            classes[content] = content
    swept = dict.fromkeys(classes.values())
    trie = _codim_memo(A, config, n, sum(prod(map(pow, sizes, rep)) for rep in swept), max(sizes) > 1)
    for rep in swept:
        slot_doms = []
        for c, k in zip(rep, KINDS):
            slot_doms.extend([doms[k]] * c)
        swept[rep] = _assignment_rank(A, slot_doms, trie)
    ranks = {content: swept[rep] for content, rep in classes.items()}
    total = sum(_multinomial(n, content) * r for content, r in ranks.items())
    return CodimReport(n, total, ranks)


def codim_graded_bruteforce(A, n, config=DEFAULT_CONFIG):
    """Same value as codim_graded, summed over all 4^n kind vectors directly,
    with seeds not reduced by automorphisms. The kind vectors share one work
    budget, whose nominal total, dim^n * n!, is charged before the first."""
    _check_degree(n, config)
    doms = {k: kind_basis(A, k) for k in KINDS}
    trie = _codim_memo(A, config, n, A.dim**n, False)
    total = 0
    for vector in product(KINDS, repeat=n):
        total += _assignment_rank(A, [doms[k] for k in vector], trie)
    return total


def codim_ordinary(A, n, config=DEFAULT_CONFIG):
    """The untyped degree-n codimension over the algebra's own basis."""
    _check_degree(n, config)
    trie = _codim_memo(A, config, n, A.dim**n, A.dim > 1)
    r = _assignment_rank(A, [kind_basis(A, None)] * n, trie)
    return CodimReport(n, r, {("any",) * n: r})


def codim_table(A, n_max, config=DEFAULT_CONFIG):
    """Graded codimensions 1..n_max with their n-th roots."""
    _check_degree(n_max, config)
    rows = []
    for n in range(1, n_max + 1):
        rep = codim_graded(A, n, config)
        root = rep.value ** (1.0 / n) if rep.value else 0.0
        rows.append((n, rep.value, root))
    return rows


def _require_wedderburn(A):
    if A.wedderburn is None:
        raise ValueError("needs Wedderburn block data")


def admissible_exponent(A, config=DEFAULT_CONFIG):
    """Largest total block dimension over subsets of Wedderburn blocks that can
    be chained through the radical in some order without vanishing.

    The nominal number of orderings, the sum over subset sizes s of
    C(k, s) * s!, is charged before any chain is built."""
    _require_wedderburn(A)
    blocks = A.wedderburn.blocks
    if not blocks:
        return 0
    k = len(blocks)
    nominal = sum(perm(k, s) for s in range(1, k + 1))
    Meter(config).charge(nominal, f"block ordering search of {nominal} orderings")
    J = jacobson_radical(A)
    spans = [coordinate_span(A.dim, b.indices) for b in blocks]
    best = 0
    for size in range(1, len(blocks) + 1):
        for subset in combinations(range(len(blocks)), size):
            total = sum(spans[i].dim for i in subset)
            if total <= best:
                continue
            if any(_chain_nonzero(A, [spans[i] for i in perm], J) for perm in permutations(subset)):
                best = total
    return best


def is_reduced(A, config=DEFAULT_CONFIG):
    """True when the full block set admits a nonvanishing radical chain.

    The k! orderings of the k blocks are charged before any chain is built."""
    _require_wedderburn(A)
    blocks = A.wedderburn.blocks
    if not blocks:
        return False
    nominal = factorial(len(blocks))
    Meter(config).charge(nominal, f"block ordering search of {nominal} orderings")
    J = jacobson_radical(A)
    spans = [coordinate_span(A.dim, b.indices) for b in blocks]
    return any(
        _chain_nonzero(A, [spans[i] for i in perm], J)
        for perm in permutations(range(len(blocks)))
    )


def _chain_nonzero(A, block_spans, J):
    S = block_spans[0]
    for B in block_spans[1:]:
        S = subspace_product(A, S, J)
        if S.is_zero():
            return False
        S = subspace_product(A, S, B)
        if S.is_zero():
            return False
    return not S.is_zero()
