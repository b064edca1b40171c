"""Block upper triangular algebras of simple components, with the flip involution."""

from dataclasses import dataclass
from itertools import accumulate

from .core import (
    WedderburnBlock,
    WedderburnData,
    jacobson_radical,
    require_valid,
)
from .errors import InternalInconsistencyError
from .families import MHL_EXC, MHL_T, build_family, family_matrices, from_matrices, validate_tag
from .linalg import coordinate_span


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
    """Ambient corner size a component occupies: the leading rows of its
    family matrices, all of them but for an exchange family's B^op half."""
    if tag.name in (MHL_T, MHL_EXC):
        return tag.params[0] + tag.params[1]
    return 2 * tag.params[0]


def is_trivially_graded(tag):
    """True when the component's corner grading is identically zero."""
    return tag.name in (MHL_T, MHL_EXC) and tag.params[1] == 0


def ut_star(spec):
    """Build the block triangular algebra of the given simple components inside
    a doubled matrix algebra, with the flip involution and shifted gradings.

    A component element u sits as corner(u) + flip(corner(u*)): its family
    matrix and that of its star image, each cut to the component's corner, the
    second flipped across the antidiagonal into the mirror corner. The flip
    then restricts to the component's own involution, whatever its flavor."""
    if not isinstance(spec, UtSpec):
        raise ValueError(f"ut_star takes a UtSpec, got {type(spec).__name__}")
    tags = spec.components
    m = len(tags)
    comps = [build_family(t) for t in tags]
    data = [family_matrices(t) for t in tags]
    sizes = tuple(component_corner_size(t) for t in tags)
    bounds = tuple(accumulate(sizes))
    starts = [b - s for s, b in zip(sizes, bounds)]
    N = 2 * bounds[-1]

    # ambient degree of each of the N rows: the corners' shifted family degrees, then their mirror
    top = [
        (d + g) % 2 for (_, _, local, _), g, size in zip(data, spec.shifts, sizes) for d in local[:size]
    ]
    degrees = tuple(top + top[::-1])

    mats = []
    labels = []
    block_index_ranges = []
    for k, (names, units, _, (p, s)) in enumerate(data):
        size, off_a, off_b = sizes[k], starts[k], N - bounds[k]
        start = len(mats)
        for name, u in zip(names, units):
            mat = {(off_a + r, off_a + c): v for (r, c), v in u.items() if r < size and c < size}
            for (r, c), v in u.items():
                # u* has s_r s_c v at (p(c), p(r)), which the flip sends to (size-1-p(r), size-1-p(c))
                if p[r] < size and p[c] < size:
                    mat[off_b + size - 1 - p[r], off_b + size - 1 - p[c]] = s[r] * s[c] * v
            mats.append(mat)
            labels.append(f"D{k + 1}.{name}")
        block_index_ranges.append(tuple(range(start, len(mats))))

    radical_start = len(mats)
    for i in range(m):
        for j in range(i + 1, m):
            for r in range(starts[i], bounds[i]):
                for c in range(starts[j], bounds[j]):
                    for rr, cc in ((r, c), (N - 1 - c, N - 1 - r)):
                        mats.append({(rr, cc): 1})
                        labels.append(f"r[{rr + 1},{cc + 1}]")

    blocks = tuple(
        WedderburnBlock(block_index_ranges[k], tags[k].name, tags[k].params) for k in range(m)
    )
    radical = tuple(range(radical_start, len(mats)))
    layout = UtLayout(sizes, bounds, tuple((lo + 1, hi) for lo, hi in zip(starts, bounds)), degrees)
    flip = (list(range(N - 1, -1, -1)), [1] * N)
    A = from_matrices(labels, mats, degrees, flip, WedderburnData(blocks, radical), layout)
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
        for a, comp_row in enumerate(comp.rows):
            row = A.rows[idx[a]]
            for b in range(comp.dim):
                prod = row.get(idx[b], ())
                if not all(g in back for g, _ in prod):
                    raise InternalInconsistencyError("component product leaves the component")
                if {back[g]: c for g, c in prod} != dict(comp_row.get(b, ())):
                    raise InternalInconsistencyError(f"component {k} products differ")
    if jacobson_radical(A) != coordinate_span(A.dim, radical):
        raise InternalInconsistencyError("radical is not the strict upper part")
