"""Radical extensions of simple algebras, used as counterexamples to simplicity."""

from .core import (
    StarSuperAlgebra,
    WedderburnBlock,
    WedderburnData,
    block_unit,
    is_nilpotent,
    is_star_graded_simple,
    require_valid,
)
from .linalg import coordinate_span


def _require_nilpotent(N):
    """Reject a factor that is not trivially graded and nilpotent."""
    if any(N.grading):
        raise ValueError("nilpotent factor must be trivially graded")
    if not is_nilpotent(N, coordinate_span(N.dim, range(N.dim))):
        raise ValueError("nilpotent factor is not nilpotent")


def nilpotent_algebra(dim, labels, structure, involution):
    """A trivially graded nilpotent algebra with involution, checked on construction."""
    N = StarSuperAlgebra(dim, labels, structure, [0] * dim, involution,
                         wedderburn=WedderburnData((), tuple(range(dim))))
    require_valid(N)
    _require_nilpotent(N)
    return N


def commutative_nilpotent(k=1):
    """k commuting square-zero self-adjoint generators, all products zero."""
    if type(k) is not int or k < 1:
        raise ValueError(f"commutative_nilpotent needs an integer k >= 1, got {k!r}")
    labels = [f"n{i + 1}" for i in range(k)]
    return nilpotent_algebra(k, labels, [], [(i, i, 1) for i in range(k)])


def noncommutative_nilpotent():
    """Two self-adjoint generators with nonzero products both ways, cube zero."""
    labels = ["n1", "n2", "n1n2", "n2n1"]
    structure = [(0, 1, 2, 1), (1, 0, 3, 1)]
    involution = [(0, 0, 1), (1, 1, 1), (3, 2, 1), (2, 3, 1)]
    return nilpotent_algebra(4, labels, structure, involution)


def _require_simple_unital(A):
    if not is_star_graded_simple(A):
        raise ValueError("extension base must be simple")
    return block_unit(A, range(A.dim))


def one_sided_radical_extension(A):
    """Adjoin a copy of A as a left-only module plus its starred right-only twin.

    The radical splits as J = V + V* with e V = V, V e = 0, so the one-sided
    Peirce pieces are nonzero and the graded Capelli bounds of the base fail."""
    _require_simple_unital(A)
    d = A.dim
    structure = []
    for i, row in enumerate(A.rows):
        for j, ij in row.items():
            for k, c in ij:
                structure.append((i, j, k, c))
                structure.append((i, d + j, d + k, c))
                structure.append((2 * d + i, j, 2 * d + k, c))
    involution = []
    for k in range(d):
        for r, c in A.star_sparse(k).items():
            involution += [(r, k, c), (2 * d + r, d + k, c), (d + r, 2 * d + k, c)]
    labels = list(A.labels) + [f"v.{s}" for s in A.labels] + [f"w.{s}" for s in A.labels]
    grading = list(A.grading) * 3
    family = A.wedderburn.blocks[0].family if A.wedderburn and A.wedderburn.blocks else None
    params = A.wedderburn.blocks[0].params if A.wedderburn and A.wedderburn.blocks else ()
    wed = WedderburnData(
        (WedderburnBlock(tuple(range(d)), family, params),), tuple(range(d, 3 * d))
    )
    return require_valid(StarSuperAlgebra(3 * d, labels, structure, grading, involution, wedderburn=wed))


def tensor_nilpotent_extension(A, N):
    """Tensor a simple algebra with a nilpotent one after adjoining a unit to it.

    The A x unit corner is the semisimple part; everything tensored into N is
    radical, commutes with that corner, and is stable both ways."""
    _require_simple_unital(A)
    _require_nilpotent(N)
    d, dn = A.dim, N.dim
    dim = d * (dn + 1)

    def idx(j, i):
        # j = 0 is the adjoined unit of the nilpotent factor
        return j * d + i

    structure = []
    for j in range(dn + 1):
        for l in range(dn + 1):
            if j == 0:
                factor = ((l, 1),)
            elif l == 0:
                factor = ((j, 1),)
            else:
                factor = tuple((k + 1, c) for k, c in N.rows[j - 1].get(l - 1, ()))
            if not factor:
                continue
            for i, row in enumerate(A.rows):
                for i2, ii2 in row.items():
                    for k, c in ii2:
                        for jk, cn in factor:
                            structure.append((idx(j, i), idx(l, i2), idx(jk, k), c * cn))
    involution = []
    for k in range(d):
        for r, c in A.star_sparse(k).items():
            involution.append((idx(0, r), idx(0, k), c))
            for j in range(1, dn + 1):
                for rn, cn in N.star_sparse(j - 1).items():
                    involution.append((idx(rn + 1, r), idx(j, k), c * cn))
    labels = list(A.labels) + [f"{s}@{t}" for t in N.labels for s in A.labels]
    grading = list(A.grading) * (dn + 1)
    family = A.wedderburn.blocks[0].family if A.wedderburn and A.wedderburn.blocks else None
    params = A.wedderburn.blocks[0].params if A.wedderburn and A.wedderburn.blocks else ()
    wed = WedderburnData(
        (WedderburnBlock(tuple(range(d)), family, params),), tuple(range(d, dim))
    )
    return require_valid(StarSuperAlgebra(dim, labels, structure, grading, involution, wedderburn=wed))
