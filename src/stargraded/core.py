"""Structure-constant superalgebras with graded involution: validation, homogeneous
decomposition, radical, Peirce decomposition, simplicity, direct sums, serialization."""

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import CenterNotSplitError, InternalInconsistencyError
from .linalg import Subspace, _as_num, mat_mul, mat_vec, nullspace, rank, solve


@dataclass(frozen=True)
class WedderburnBlock:
    indices: tuple
    family: str | None = None
    params: tuple = ()


@dataclass(frozen=True)
class WedderburnData:
    blocks: tuple
    radical: tuple


@dataclass(frozen=True)
class HomComponents:
    even_sym: Subspace
    even_skew: Subspace
    odd_sym: Subspace
    odd_skew: Subspace

    @property
    def dims(self):
        return (self.even_sym.dim, self.even_skew.dim, self.odd_sym.dim, self.odd_skew.dim)

    def by_kind(self, kind):
        return {
            "y+": self.even_sym,
            "y-": self.even_skew,
            "z+": self.odd_sym,
            "z-": self.odd_skew,
        }[kind]


@dataclass(frozen=True)
class PeirceDecomposition:
    j00: Subspace
    j01: Subspace
    j10: Subspace
    j11: Subspace


class StarSuperAlgebra:
    """Finite-dimensional superalgebra over Q given by structure constants, a 0/1
    grading on the basis, and an involution matrix (column k = image of basis k)."""

    def __init__(self, dim, labels, structure, grading, involution, wedderburn=None, layout=None):
        assert len(labels) == dim and len(grading) == dim
        table = {}
        for i, j, k, c in structure:
            assert 0 <= i < dim and 0 <= j < dim and 0 <= k < dim
            c = _as_num(c)
            if c != 0:
                row = table.setdefault((i, j), {})
                row[k] = _as_num(row.get(k, 0) + c)
        self.dim = dim
        self.labels = tuple(labels)
        self.structure = {ij: {k: c for k, c in row.items() if c != 0} for ij, row in table.items()}
        self.structure = {ij: row for ij, row in self.structure.items() if row}
        self.grading = tuple(int(g) for g in grading)
        self.involution = tuple(tuple(_as_num(x) for x in row) for row in involution)
        assert len(self.involution) == dim and all(len(r) == dim for r in self.involution)
        self.wedderburn = wedderburn
        self.layout = layout
        self._pairs = None
        self._star_sparse = None
        self._hom = None
        self._radical = None
        self._kind_bases = {}
        self._left_supports = {}

    def pair_rows(self):
        """Row table of the products: pair_rows()[i][j] is mul_pairs(i, j) when nonzero."""
        if self._pairs is None:
            rows = [dict() for _ in range(self.dim)]
            for (i0, j0), row in self.structure.items():
                rows[i0][j0] = tuple(sorted(row.items()))
            self._pairs = rows
        return self._pairs

    def mul_pairs(self, i, j):
        """Sparse product of basis i and basis j as a tuple of (index, coeff) pairs."""
        return self.pair_rows()[i].get(j, ())

    def star_sparse(self, k):
        """Image of basis k under the involution, as a sparse dict."""
        if self._star_sparse is None:
            self._star_sparse = [
                {r: self.involution[r][k] for r in range(self.dim) if self.involution[r][k] != 0}
                for k in range(self.dim)
            ]
        return self._star_sparse[k]

    def basis_sparse(self, k):
        return {k: 1}

    def __repr__(self):
        return f"StarSuperAlgebra(dim={self.dim})"


def sparse_mul(A, u, v):
    """Product of two sparse vectors under A's structure table."""
    rows = A.pair_rows()
    out = {}
    for i, ci in u.items():
        row = rows[i]
        if not row:
            continue
        for j, cj in v.items():
            pr = row.get(j)
            if pr:
                cij = ci * cj
                for k, c in pr:
                    out[k] = out.get(k, 0) + cij * c
    return {k: c if isinstance(c, int) else _as_num(c) for k, c in out.items() if c != 0}


def sparse_star(A, u):
    """Involution applied to a sparse vector."""
    out = {}
    for k, c in u.items():
        for r, x in A.star_sparse(k).items():
            out[r] = out.get(r, 0) + c * x
    return {k: _as_num(c) for k, c in out.items() if c != 0}


def to_dense(u, dim):
    v = [0] * dim
    for k, c in u.items():
        v[k] = c
    return v


def to_sparse(v):
    return {k: _as_num(c) for k, c in enumerate(v) if c != 0}


def multiply(A, u, v):
    """Bilinear extension of the structure table to coordinate vectors."""
    assert len(u) == A.dim and len(v) == A.dim
    return to_dense(sparse_mul(A, to_sparse(u), to_sparse(v)), A.dim)


def star(A, u):
    """Involution applied to a coordinate vector."""
    assert len(u) == A.dim
    return mat_vec([list(r) for r in A.involution], list(u))


def grading_projection(A, u, degree):
    """Projection of a sparse vector onto the degree-0 or degree-1 graded part."""
    return {k: c for k, c in u.items() if A.grading[k] == degree}


def _failing(diff):
    # sorted keys, last coordinate dropped, of the nonzero entries of a difference
    return sorted({key[:-1] for key, x in diff.items() if x != 0})


def validate(A):
    """Check every structural invariant; returns a list of violation strings.

    Both sides of associativity and of the antiautomorphism law are summed from
    the nonzero structure constants only, so a basis triple or pair whose
    products all vanish costs nothing; it is still checked, as a zero difference."""
    report = []
    d = A.dim
    rows = A.pair_rows()
    # landing[m]: the (j, k, c) with c the e_m coefficient of e_j e_k
    landing = [[] for _ in range(d)]
    for (j, k), row in A.structure.items():
        for m, c in row.items():
            landing[m].append((j, k, c))
    # associativity on all basis triples, one left factor i at a time:
    # diff[(j, k, t)] is the e_t coefficient of (e_i e_j) e_k - e_i (e_j e_k)
    for i in range(d):
        diff = {}
        for j, ij in rows[i].items():
            for m, c in ij:
                for k, mk in rows[m].items():
                    for t, c2 in mk:
                        diff[j, k, t] = diff.get((j, k, t), 0) + c * c2
        for m, im in rows[i].items():
            for j, k, c in landing[m]:
                for t, c2 in im:
                    diff[j, k, t] = diff.get((j, k, t), 0) - c * c2
        for j, k in _failing(diff):
            report.append(f"associativity fails at basis triple ({i},{j},{k})")
    # grading compatibility of products
    for (i, j), row in A.structure.items():
        deg = (A.grading[i] + A.grading[j]) % 2
        for k in row:
            if A.grading[k] != deg:
                report.append(f"grading compatibility fails at product ({i},{j})->{k}")
    # involution order 2
    for k in range(d):
        if sparse_star(A, A.star_sparse(k)) != {k: 1}:
            report.append(f"involution order: square is not identity at column {k}")
            break
    # involution preserves grading
    for k in range(d):
        for r, x in A.star_sparse(k).items():
            if x != 0 and A.grading[r] != A.grading[k]:
                report.append(f"involution grading preservation fails at basis {k}")
                break
    # antiautomorphism on all basis pairs: diff[(i, j, t)] is the e_t coefficient
    # of (e_i e_j)* - e_j* e_i*, where e_j* = sum_a S[a][j] e_a
    inv_rows = [[] for _ in range(d)]
    for k in range(d):
        for a, x in A.star_sparse(k).items():
            inv_rows[a].append((k, x))
    diff = {}
    for (i, j), row in A.structure.items():
        for m, c in row.items():
            for t, x in A.star_sparse(m).items():
                diff[i, j, t] = diff.get((i, j, t), 0) + c * x
    for (a, b), row in A.structure.items():
        for j, x in inv_rows[a]:
            for i, y in inv_rows[b]:
                for t, c in row.items():
                    diff[i, j, t] = diff.get((i, j, t), 0) - x * y * c
    for i, j in _failing(diff):
        report.append(f"antiautomorphism fails at basis pair ({i},{j})")
    return report


def require_valid(A):
    """A itself; a violation of validate() is an InternalInconsistencyError."""
    problems = validate(A)
    if problems:
        raise InternalInconsistencyError("; ".join(problems[:3]))
    return A


def hom_components(A):
    """Split A into even/odd symmetric/skew parts, spanned by the e_k ± star(e_k)."""
    if A._hom is not None:
        return A._hom
    parts = {(0, 1): [], (0, -1): [], (1, 1): [], (1, -1): []}
    for k in range(A.dim):
        g = A.grading[k]
        sk = A.star_sparse(k)
        for sign in (1, -1):
            v = [0] * A.dim
            v[k] = 1
            for r, x in sk.items():
                v[r] += sign * x
            parts[(g, sign)].append(v)
    comp = HomComponents(
        even_sym=Subspace(A.dim, parts[(0, 1)]),
        even_skew=Subspace(A.dim, parts[(0, -1)]),
        odd_sym=Subspace(A.dim, parts[(1, 1)]),
        odd_skew=Subspace(A.dim, parts[(1, -1)]),
    )
    assert sum(comp.dims) == A.dim
    A._hom = comp
    return comp


def hom_dims(A):
    """The four dimensions (even sym, even skew, odd sym, odd skew)."""
    return hom_components(A).dims


def subspace_product(A, U, V):
    """Span of all pairwise products of the two subspaces' basis vectors."""
    assert U.ambient_dim == A.dim and V.ambient_dim == A.dim
    vecs = []
    for su in U.sparse_basis:
        for sv in V.sparse_basis:
            w = sparse_mul(A, su, sv)
            if w:
                vecs.append(to_dense(w, A.dim))
    return Subspace(A.dim, vecs)


def _left_trace_weights(A):
    # T[i] = trace of left multiplication by basis i on A
    T = [0] * A.dim
    for (i, j), row in A.structure.items():
        c = row.get(j)
        if c:
            T[i] = _as_num(T[i] + c)
    return T


def jacobson_radical(A):
    """Radical via the trace form of the regular representation on the unit extension."""
    if A._radical is not None:
        return A._radical
    d = A.dim
    T = _left_trace_weights(A)
    # Gram matrix of the trace form over the unit extension's basis (d algebra
    # vectors + adjoined unit): tr L_{e_i e_j} = sum_k c_ij^k T[k], zero when e_i e_j = 0
    G = [[0] * (d + 1) for _ in range(d + 1)]
    for (i, j), row in A.structure.items():
        G[i][j] = _as_num(sum(c * T[k] for k, c in row.items()))
    for i in range(d):
        G[i][d] = G[d][i] = T[i]
    G[d][d] = d + 1
    kernel = nullspace(G, d + 1)
    for v in kernel:
        if v[d] != 0:
            raise InternalInconsistencyError("radical kernel leaves the algebra")
    J = Subspace(d, [list(v[:d]) for v in kernel])
    if rank(G) != d + 1 - J.dim:
        raise InternalInconsistencyError("trace form rank does not match radical dimension")
    _verify_radical(A, J)
    A._radical = J
    return J


def _verify_radical(A, J):
    # two-sided ideal, star- and grading-stable, nilpotent
    for sv in J.sparse_basis:
        if not J.contains(sparse_star(A, sv)):
            raise InternalInconsistencyError("radical not star-stable")
        if not J.contains(grading_projection(A, sv, 0)):
            raise InternalInconsistencyError("radical not grading-stable")
        for i in range(A.dim):
            if not J.contains(sparse_mul(A, {i: 1}, sv)):
                raise InternalInconsistencyError("radical not a left ideal")
            if not J.contains(sparse_mul(A, sv, {i: 1})):
                raise InternalInconsistencyError("radical not a right ideal")
    if not is_nilpotent(A, J):
        raise InternalInconsistencyError("radical not nilpotent")


def is_nilpotent(A, J):
    """True when some power of the subspace J of A is zero."""
    power = J
    for _ in range(A.dim + 1):
        if power.is_zero():
            return True
        power = subspace_product(A, power, J)
    return False


def block_unit(A, indices):
    """The identity element of the subalgebra spanned by the given basis indices."""
    idx = list(indices)
    rows, rhs = [], []
    for s in idx:
        for side in ("left", "right"):
            prods = [
                sparse_mul(A, {t: 1}, {s: 1}) if side == "left" else sparse_mul(A, {s: 1}, {t: 1})
                for t in idx
            ]
            for r in range(A.dim):
                rows.append([p.get(r, 0) for p in prods])
                rhs.append(1 if r == s else 0)
    x = solve(rows, rhs)
    if x is None:
        raise ValueError("subalgebra has no identity element")
    return {t: c for t, c in zip(idx, x) if c != 0}


def semisimple_unit(A):
    """Sum of the Wedderburn block identities."""
    if A.wedderburn is None:
        raise ValueError("missing Wedderburn data")
    e = {}
    for b in A.wedderburn.blocks:
        for k, c in block_unit(A, b.indices).items():
            e[k] = _as_num(e.get(k, 0) + c)
    return {k: c for k, c in e.items() if c != 0}


def _kernel(dim, basis, images):
    """The Subspace of F^dim of the combinations sum c_a basis[a] whose images
    sum c_a images[a] vanish."""
    vecs = []
    for coeffs in nullspace([list(r) for r in zip(*images)], len(images)):
        w = [0] * dim
        for a, c in enumerate(coeffs):
            if c:
                for r in range(dim):
                    w[r] = _as_num(w[r] + c * basis[a][r])
        vecs.append(w)
    return Subspace(dim, vecs)


def peirce_decompose(A):
    """Split the radical by the left/right action of the semisimple unit."""
    e = semisimple_unit(A)
    J = jacobson_radical(A)
    # e v and v e for each radical basis vector v, shared by the four (p, q) pieces
    actions = [(sv, sparse_mul(A, e, sv), sparse_mul(A, sv, e)) for sv in J.sparse_basis]
    spaces = {}
    for p in (0, 1):
        for q in (0, 1):
            cols = []
            for sv, lv, rv in actions:
                col = [_as_num(lv.get(r, 0) - p * sv.get(r, 0)) for r in range(A.dim)]
                col += [_as_num(rv.get(r, 0) - q * sv.get(r, 0)) for r in range(A.dim)]
                cols.append(col)
            spaces[(p, q)] = _kernel(A.dim, J.basis, cols)
    dec = PeirceDecomposition(spaces[(0, 0)], spaces[(0, 1)], spaces[(1, 0)], spaces[(1, 1)])
    if dec.j00.dim + dec.j01.dim + dec.j10.dim + dec.j11.dim != J.dim:
        raise InternalInconsistencyError("Peirce pieces do not sum to the radical")
    return dec


def radical_centralizer(A):
    """Elements of the (1,1) Peirce piece commuting with the whole semisimple part."""
    dec = peirce_decompose(A)
    j11 = dec.j11
    if j11.is_zero():
        return j11
    semis = [t for b in A.wedderburn.blocks for t in b.indices]
    cols = []
    for v in j11.basis:
        sv = to_sparse(v)
        col = []
        for t in semis:
            xa = sparse_mul(A, sv, {t: 1})
            ax = sparse_mul(A, {t: 1}, sv)
            col += [_as_num(xa.get(r, 0) - ax.get(r, 0)) for r in range(A.dim)]
        cols.append(col)
    return _kernel(A.dim, j11.basis, cols)


def _min_poly(M):
    # coefficients (lowest degree first) of the monic minimal polynomial of M
    n = len(M)
    powers = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    flats = [[powers[i][j] for i in range(n) for j in range(n)]]
    current = powers
    for _ in range(n):
        current = mat_mul(current, M)
        flat = [current[i][j] for i in range(n) for j in range(n)]
        m = [[flats[r][c] for r in range(len(flats))] for c in range(n * n)]
        x = solve(m, flat)
        if x is not None:
            return [_as_num(-c) for c in x] + [1]
        flats.append(flat)
    raise InternalInconsistencyError("minimal polynomial not found")


def _rational_roots(coeffs):
    # distinct rational roots of a polynomial with rational coefficients
    from math import gcd

    dens = [Fraction(c).denominator for c in coeffs]
    scale = 1
    for d in dens:
        scale = scale * d // gcd(scale, d)
    ic = [int(Fraction(c) * scale) for c in coeffs]
    roots = []
    while ic and ic[0] == 0:
        if 0 not in roots:
            roots.append(Fraction(0))
        ic = ic[1:]
    if len(ic) <= 1:
        return roots
    a0, an = abs(ic[0]), abs(ic[-1])

    def divisors(x):
        out = []
        i = 1
        while i * i <= x:
            if x % i == 0:
                out += [i, x // i]
            i += 1
        return sorted(set(out))

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if sum(c * cand**k for k, c in enumerate(ic)) == 0:
                    roots.append(cand)
    return roots


def central_primitive_idempotents(A):
    """Central primitive idempotents of a semisimple algebra, found by splitting the center."""
    d = A.dim
    rows = []
    for i in range(d):
        li = [[0] * d for _ in range(d)]
        ri = [[0] * d for _ in range(d)]
        for j in range(d):
            for k, c in A.mul_pairs(i, j):
                li[k][j] = c
            for k, c in A.mul_pairs(j, i):
                ri[k][j] = c
        for r in range(d):
            rows.append([_as_num(li[r][c0] - ri[r][c0]) for c0 in range(d)])
    center = nullspace(rows, d)
    subspaces = [Subspace(d, [list(v) for v in center])]
    for z in center:
        sz = to_sparse(list(z))
        refined = []
        for S in subspaces:
            if S.dim <= 1:
                refined.append(S)
                continue
            # matrix of multiplication-by-z on S, in S's basis coordinates
            imgs = []
            for v in S.basis:
                w = to_dense(sparse_mul(A, sz, to_sparse(list(v))), d)
                m = [[S.basis[a][r] for a in range(S.dim)] for r in range(d)]
                coeffs = solve(m, w)
                if coeffs is None:
                    raise InternalInconsistencyError("center not closed under itself")
                imgs.append(coeffs)
            M = [[imgs[a][b] for a in range(S.dim)] for b in range(S.dim)]
            mp = _min_poly(M)
            roots = _rational_roots(mp)
            prod = [Fraction(1)]
            for r0 in roots:
                prod = [
                    _as_num((prod[k - 1] if k > 0 else 0) - r0 * (prod[k] if k < len(prod) else 0))
                    for k in range(len(prod) + 1)
                ]
            if len(prod) != len(mp) or any(Fraction(a) != Fraction(b) for a, b in zip(prod, mp)):
                raise CenterNotSplitError("center minimal polynomial does not split over Q")
            for r0 in roots:
                shifted = []
                for v in S.basis:
                    w = to_dense(sparse_mul(A, sz, to_sparse(list(v))), d)
                    shifted.append([_as_num(a - r0 * b) for a, b in zip(w, v)])
                eig = _kernel(d, S.basis, shifted)
                if not eig.is_zero():
                    refined.append(eig)
        subspaces = refined
    idempotents = []
    for S in subspaces:
        if S.dim != 1:
            raise CenterNotSplitError("center does not split into one-dimensional eigenspaces")
        v = to_sparse(list(S.basis[0]))
        vv = sparse_mul(A, v, v)
        t = None
        for k, c in v.items():
            t = Fraction(vv.get(k, 0)) / Fraction(c)
            break
        if t is None or t == 0 or vv != {k: _as_num(t * c) for k, c in v.items()}:
            raise InternalInconsistencyError("center eigenvector is not idempotent-scaled")
        idempotents.append({k: _as_num(Fraction(c) / t) for k, c in v.items()})
    return idempotents


def is_star_graded_simple(A):
    """Nonzero square, zero radical, and no proper block subset closed under star and grading."""
    if A.dim == 0 or not A.structure:
        return False
    if not jacobson_radical(A).is_zero():
        return False
    idems = central_primitive_idempotents(A)
    blocks = []
    for e in idems:
        vecs = [to_dense(sparse_mul(A, e, {k: 1}), A.dim) for k in range(A.dim)]
        blocks.append(Subspace(A.dim, vecs))
    if len(blocks) <= 1:
        return True
    n = len(blocks)
    for mask in range(1, (1 << n) - 1):
        span = Subspace(A.dim)
        for b in range(n):
            if mask >> b & 1:
                span = span.add(blocks[b])
        ok = True
        for sv in span.sparse_basis:
            if not span.contains(sparse_star(A, sv)):
                ok = False
                break
            if not span.contains(grading_projection(A, sv, 0)):
                ok = False
                break
        if ok:
            return False
    return True


def direct_sum(A, B, label_prefixes=("l.", "r.")):
    """Block-diagonal sum with concatenated grading, involution, and Wedderburn data."""
    dA = A.dim
    structure = [(i, j, k, c) for (i, j), row in A.structure.items() for k, c in row.items()]
    structure += [
        (i + dA, j + dA, k + dA, c) for (i, j), row in B.structure.items() for k, c in row.items()
    ]
    inv = [[0] * (dA + B.dim) for _ in range(dA + B.dim)]
    for r in range(dA):
        for c in range(dA):
            inv[r][c] = A.involution[r][c]
    for r in range(B.dim):
        for c in range(B.dim):
            inv[r + dA][c + dA] = B.involution[r][c]
    wed = None
    if A.wedderburn is not None and B.wedderburn is not None:
        blocks = list(A.wedderburn.blocks) + [
            WedderburnBlock(tuple(t + dA for t in b.indices), b.family, b.params)
            for b in B.wedderburn.blocks
        ]
        radical = tuple(A.wedderburn.radical) + tuple(t + dA for t in B.wedderburn.radical)
        wed = WedderburnData(tuple(blocks), radical)
    return StarSuperAlgebra(
        dA + B.dim,
        [label_prefixes[0] + s for s in A.labels] + [label_prefixes[1] + s for s in B.labels],
        structure,
        list(A.grading) + list(B.grading),
        inv,
        wedderburn=wed,
    )


def _frac_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def to_interchange(A):
    """Serialize to the interchange document (plain dict of JSON-ready values)."""
    structure = sorted(
        (i, j, k, _frac_str(c)) for (i, j), row in A.structure.items() for k, c in row.items()
    )
    involution = [
        [r, c, _frac_str(A.involution[r][c])]
        for r in range(A.dim)
        for c in range(A.dim)
        if A.involution[r][c] != 0
    ]
    doc = {
        "dim": A.dim,
        "labels": list(A.labels),
        "structure": [list(t) for t in structure],
        "grading": list(A.grading),
        "involution": involution,
    }
    if A.wedderburn is not None:
        doc["wedderburn"] = {
            "blocks": [
                {"indices": list(b.indices), "family": b.family, "params": list(b.params)}
                for b in A.wedderburn.blocks
            ],
            "radical": list(A.wedderburn.radical),
        }
    return doc


def from_interchange(doc):
    """Rebuild an algebra from an interchange document."""
    dim = doc["dim"]
    structure = [(i, j, k, Fraction(c)) for i, j, k, c in doc["structure"]]
    inv = [[0] * dim for _ in range(dim)]
    for r, c, val in doc["involution"]:
        inv[r][c] = _as_num(Fraction(val))
    wed = None
    if "wedderburn" in doc and doc["wedderburn"] is not None:
        w = doc["wedderburn"]
        wed = WedderburnData(
            tuple(
                WedderburnBlock(tuple(b["indices"]), b.get("family"), tuple(b.get("params", ())))
                for b in w["blocks"]
            ),
            tuple(w["radical"]),
        )
    return StarSuperAlgebra(dim, doc["labels"], structure, doc["grading"], inv, wedderburn=wed)


def save_algebra(A, path):
    with open(path, "w") as fh:
        json.dump(to_interchange(A), fh, indent=1)
        fh.write("\n")


def load_algebra(path):
    with open(path) as fh:
        return from_interchange(json.load(fh))
