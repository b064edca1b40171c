"""Block upper triangular algebras of simple components, with the flip involution."""

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    StarSuperAlgebra,
    WedderburnBlock,
    WedderburnData,
    jacobson_radical,
    require_valid,
)
from .errors import InternalInconsistencyError
from .families import (
    MHL_T,
    MHH_S,
    MHL_EXC,
    MN_CMN_EXC,
    build_family,
    validate_tag,
)
from .linalg import _as_num, coordinate_span


@dataclass(frozen=True)
class UtSpec:
    """Components (inner to outer corner) and the component grading shifts."""

    components: tuple
    shifts: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("a block triangular algebra needs at least one component")
        if len(self.shifts) != len(self.components):
            raise ValueError(
                f"{len(self.components)} components but {len(self.shifts)} shifts"
            )
        for tag in self.components:
            validate_tag(tag)
        for g in self.shifts:
            if g not in (0, 1):
                raise ValueError(f"a grading shift is 0 or 1, got {g!r}")


@dataclass(frozen=True)
class UtLayout:
    """Where each piece of a block triangular algebra lives.

    sizes: corner size of each component; bounds: their partial sums; blocks:
    1-based ambient row ranges (lo, hi) per component, top-left corners only;
    degrees: ambient row degrees, length 2*bounds[-1].
    """

    sizes: tuple
    bounds: tuple
    blocks: tuple
    degrees: tuple


def component_corner_size(tag):
    """Ambient corner size a component occupies."""
    if tag.name in (MHL_T, MHL_EXC):
        return tag.params[0] + tag.params[1]
    return 2 * tag.params[0]


def component_even_size(tag):
    """How many leading local corner indices carry degree zero."""
    return tag.params[0]


def is_trivially_graded(tag):
    """True when the component's corner grading is identically zero."""
    return component_even_size(tag) == component_corner_size(tag)


def _local_gamma(s, entries):
    # flip across the antidiagonal of an s x s corner: e_uv -> e_{s-1-v, s-1-u}
    return {(s - 1 - v, s - 1 - u): c for (u, v), c in entries.items()}


def _corner_embedding(tag):
    """Local corner matrix of each component basis element.

    For matrix families this is the element itself; for the doubled families
    x + c y sits as [[x, y], [y, x]]; for the exchange families only the first
    summand lands in the corner (the second is recovered through the flip)."""
    if tag.name in (MHL_T, MHH_S, MHL_EXC):
        n = component_corner_size(tag)
        units = [{(i, j): 1} for i in range(n) for j in range(n)]
    else:
        n = tag.params[0]
        units = [{(i, j): 1, (n + i, n + j): 1} for i in range(n) for j in range(n)]
        units += [{(i, n + j): 1, (n + i, j): 1} for i in range(n) for j in range(n)]
    if tag.name in (MHL_EXC, MN_CMN_EXC):
        units += [{} for _ in units]
    return units


def _component_images(tag, comp):
    """Top-left and mirror-corner local matrices of each component basis element.

    The embedded copy is u -> corner(u) + flip(corner(star u)); the flip then
    restricts to the component's own involution, whatever its flavor."""
    s = component_corner_size(tag)
    a_side = _corner_embedding(tag)
    b_side = []
    for k in range(comp.dim):
        ent = {}
        for r, c in comp.star_sparse(k).items():
            for pos, v in a_side[r].items():
                ent[pos] = ent.get(pos, 0) + c * v
        b_side.append(_local_gamma(s, {p: v for p, v in ent.items() if v}))
    if len(a_side) != comp.dim:
        raise InternalInconsistencyError("corner embedding does not match the component dimension")
    if not all(a or b for a, b in zip(a_side, b_side)):
        raise InternalInconsistencyError("component basis element maps to zero")
    return a_side, b_side


def ut_star(spec):
    """Build the block triangular algebra of the given simple components inside
    a doubled matrix algebra, with the flip involution and shifted gradings."""
    if not isinstance(spec, UtSpec):
        raise ValueError(f"ut_star takes a UtSpec, got {type(spec).__name__}")
    tags = spec.components
    m = len(tags)
    comps = [build_family(t) for t in tags]
    sizes = tuple(component_corner_size(t) for t in tags)
    bounds = []
    run = 0
    for s in sizes:
        run += s
        bounds.append(run)
    bounds = tuple(bounds)
    half = bounds[-1]
    N = 2 * half

    # ambient degree of each of the N rows, mirror-symmetric by construction
    degrees = [0] * N
    for k, tag in enumerate(tags):
        lo = bounds[k - 1] if k else 0
        ev = component_even_size(tag)
        for p in range(sizes[k]):
            degrees[lo + p] = ((0 if p < ev else 1) + spec.shifts[k]) % 2
    for i in range(half, N):
        degrees[i] = degrees[N - 1 - i]
    degrees = tuple(degrees)

    basis_mats = []
    labels = []
    grading = []
    block_index_ranges = []
    for k, tag in enumerate(tags):
        comp = comps[k]
        off_a = bounds[k - 1] if k else 0
        off_b = N - bounds[k]
        a_side, b_side = _component_images(tag, comp)
        start = len(basis_mats)
        for t in range(comp.dim):
            mat = {}
            for (r, c), v in a_side[t].items():
                mat[(off_a + r, off_a + c)] = v
            for (r, c), v in b_side[t].items():
                pos = (off_b + r, off_b + c)
                mat[pos] = mat.get(pos, 0) + v
            mat = {p: v for p, v in mat.items() if v}
            degs = {(degrees[r] + degrees[c]) % 2 for (r, c) in mat}
            if degs != {comp.grading[t]}:
                raise InternalInconsistencyError("component image is not homogeneous")
            basis_mats.append(mat)
            labels.append(f"D{k + 1}.{comp.labels[t]}")
            grading.append(comp.grading[t])
        block_index_ranges.append(tuple(range(start, len(basis_mats))))

    radical_start = len(basis_mats)
    for i in range(m):
        lo_i = bounds[i - 1] if i else 0
        for j in range(i + 1, m):
            lo_j = bounds[j - 1] if j else 0
            for r in range(lo_i, bounds[i]):
                for c in range(lo_j, bounds[j]):
                    basis_mats.append({(r, c): 1})
                    labels.append(f"r[{r + 1},{c + 1}]")
                    grading.append((degrees[r] + degrees[c]) % 2)
                    rr, cc = N - 1 - c, N - 1 - r
                    basis_mats.append({(rr, cc): 1})
                    labels.append(f"r[{rr + 1},{cc + 1}]")
                    grading.append((degrees[rr] + degrees[cc]) % 2)
    dim = len(basis_mats)

    # every ambient unit position belongs to at most one basis element
    owner = {}
    for t, mat in enumerate(basis_mats):
        for pos in mat:
            if pos in owner:
                raise InternalInconsistencyError(f"ambient position {pos} claimed twice")
            owner[pos] = t

    def decompose(mat):
        coeffs = {}
        leftover = dict(mat)
        while leftover:
            pos, val = next(iter(leftover.items()))
            if pos not in owner:
                raise InternalInconsistencyError(f"product leaves the span at {pos}")
            t = owner[pos]
            lam = _as_num(Fraction(val) / Fraction(basis_mats[t][pos]))
            for p, c in basis_mats[t].items():
                got = leftover.pop(p, 0)
                if got != lam * c:
                    raise InternalInconsistencyError("product is not in the span")
            coeffs[t] = lam
        return coeffs

    structure = []
    for a, ma in enumerate(basis_mats):
        for b, mb in enumerate(basis_mats):
            prod = {}
            for (r1, c1), v1 in ma.items():
                for (r2, c2), v2 in mb.items():
                    if c1 == r2:
                        prod[(r1, c2)] = prod.get((r1, c2), 0) + v1 * v2
            prod = {p: v for p, v in prod.items() if v}
            for t, lam in decompose(prod).items():
                structure.append((a, b, t, lam))

    involution = []
    for t, mat in enumerate(basis_mats):
        flipped = {(N - 1 - c, N - 1 - r): v for (r, c), v in mat.items()}
        involution += [(r, t, lam) for r, lam in decompose(flipped).items()]

    blocks = tuple(
        WedderburnBlock(block_index_ranges[k], tags[k].name, tags[k].params) for k in range(m)
    )
    radical = tuple(range(radical_start, dim))
    layout = UtLayout(
        sizes,
        bounds,
        tuple(((bounds[k - 1] if k else 0) + 1, bounds[k]) for k in range(m)),
        degrees,
    )
    A = StarSuperAlgebra(
        dim,
        labels,
        structure,
        grading,
        involution,
        wedderburn=WedderburnData(blocks, radical),
        layout=layout,
    )
    _verify_ut(A, comps, block_index_ranges, radical)
    return A


def _verify_ut(A, comps, block_index_ranges, radical):
    require_valid(A)
    # each component embeds with its own products, star and grading intact
    for k, comp in enumerate(comps):
        idx = block_index_ranges[k]
        back = {g: t for t, g in enumerate(idx)}
        for t in range(comp.dim):
            if A.grading[idx[t]] != comp.grading[t]:
                raise InternalInconsistencyError(f"component {k} grading differs at {t}")
            star = A.star_sparse(idx[t])
            if not star.keys() <= back.keys():
                raise InternalInconsistencyError("component star leaves the component")
            if {back[g]: c for g, c in star.items()} != comp.star_sparse(t):
                raise InternalInconsistencyError(f"component {k} star differs at {t}")
        for a in range(comp.dim):
            for b in range(comp.dim):
                prod = A.mul_pairs(idx[a], idx[b])
                if not all(g in back for g, _ in prod):
                    raise InternalInconsistencyError("component product leaves the component")
                if {back[g]: c for g, c in prod} != dict(comp.mul_pairs(a, b)):
                    raise InternalInconsistencyError(f"component {k} products differ")
    if jacobson_radical(A) != coordinate_span(A.dim, radical):
        raise InternalInconsistencyError("radical is not the strict upper part")
