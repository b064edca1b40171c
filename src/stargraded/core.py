"""Structure-constant superalgebras with graded involution: validation, homogeneous
decomposition, radical, Peirce decomposition, simplicity, direct sums, serialization."""

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .errors import CenterNotSplitError, InternalInconsistencyError
from .linalg import Subspace, _as_num, _kernel


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


def _check_indices(dim, *indices):
    for i in indices:
        if type(i) is not int or not 0 <= i < dim:
            raise ValueError(f"basis index {_shown(i)} is outside range({dim})")


# an optional sign, digits, and optionally "/" and digits; no exponent, point or space
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _shown(c):
    # repr(c), cut to its first 40 characters when longer
    r = repr(c)
    return r if len(r) <= 40 else f"{r[:40]}... ({len(r)} characters)"


def _coeff(c):
    """An exact rational from an int, a Fraction or a string such as "-3/2".

    A string "n/d" gives the int n // d when d divides n, and a Fraction only
    when it does not. Strings are read by int(), whose digit limit bounds the
    work; anything else, bools and floats included, is refused."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return _as_num(c)
    if type(c) is str and _RATIONAL.fullmatch(c):
        num, _, den = c.partition("/")
        try:
            n, d = int(num), int(den or 1)
        except ValueError:  # the grammar leaves only int()'s digit limit to fail
            raise ValueError(
                f"bad coefficient {_shown(c)}: a numerator or denominator of more than "
                f"{sys.get_int_max_str_digits()} digits, int()'s limit"
            ) from None
        if d:
            return n // d if n % d == 0 else Fraction(n, d)
    raise ValueError(f"bad coefficient {_shown(c)}: expected a rational such as \"-3/2\"")


_nonzero_coeff = itemgetter(1)  # truthy exactly when the (k, c) pair has c != 0


class StarSuperAlgebra:
    """Finite-dimensional superalgebra over Q given by structure constants, a 0/1
    grading on the basis, and an involution given as triples (r, k, c): the
    star image of basis k has coefficient c on basis r.

    The products are held once, in rows: rows[i][j] is e_i e_j as its (k, c)
    in ascending k, none with c = 0, and j is a key of rows[i] only when e_i e_j
    is nonzero, in the order the pair (i, j) first appears in the structure.
    Only the constructor builds rows, in one pass that checks every index and
    coefficient and sums repeated (i, j, k) entries."""

    def __init__(self, dim, labels, structure, grading, involution, wedderburn=None, layout=None):
        if len(labels) != dim or len(grading) != dim:
            raise ValueError(f"dim {dim} but {len(labels)} labels and {len(grading)} grading bits")
        for g in grading:
            if g not in (0, 1):
                raise ValueError(f"grading bit {_shown(g)} is not 0 or 1")
        rows = [{} for _ in range(dim)]
        for i, j, k, c in structure:
            _check_indices(dim, i, j, k)
            terms = rows[i].setdefault(j, {})
            terms[k] = _as_num(terms.get(k, 0) + _coeff(c))
        # a later involution entry for the same (r, k) replaces an earlier one
        columns = [{} for _ in range(dim)]
        for r, k, c in involution:
            _check_indices(dim, r, k)
            columns[k][r] = _coeff(c)
        self.dim = dim
        self.labels = tuple(labels)
        self.rows = [
            {j: pr for j, terms in row.items() if (pr := tuple(sorted(filter(_nonzero_coeff, terms.items()))))}
            for row in rows
        ]
        self.grading = tuple(int(g) for g in grading)
        self._star = tuple({r: c for r, c in col.items() if c != 0} for col in columns)
        self.wedderburn = wedderburn
        self.layout = layout
        self._hom = None
        self._radical = None
        self._nilpotency = None  # the least p with J^p = 0, recorded beside J by jacobson_radical
        self._kind_bases = {}
        self._odd_unit = None  # analysis._odd_central_unit: () when searched and none found
        self._automorphisms = None  # analysis._signed_automorphisms: () when searched and none found
        self._index_maps = {}  # analysis._index_maps, per basis object
        self._right_products = None

    def star_sparse(self, k):
        """Image of basis k under the involution, as a sparse dict."""
        return self._star[k]

    def __repr__(self):
        return f"StarSuperAlgebra(dim={self.dim})"


def sparse_mul(A, u, v):
    """Product of two sparse vectors under A's structure table."""
    rows = A.rows
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


def grading_projection(A, u, degree):
    """Projection of a sparse vector onto the degree-0 or degree-1 graded part."""
    return {k: c for k, c in u.items() if A.grading[k] == degree}


def _failing(diff, d):
    # the pairs (j, k), sorted, of the nonzero entries of a difference keyed by
    # (j*d + k)*d + t: sorting key // d sorts the pairs
    return [divmod(jk, d) for jk in sorted({key // d for key, x in diff.items() if x != 0})]


def validate(A):
    """Check every structural invariant; returns a list of violation strings.

    Both sides of associativity and of the antiautomorphism law are summed from
    the nonzero structure constants only, so a basis triple or pair whose
    products all vanish costs nothing; it is still checked, as a zero difference.
    The sums are keyed by one int per basis triple, (j*d + k)*d + t."""
    report = []
    d = A.dim
    rows = A.rows
    # landing[m]: the ((j*d + k)*d, c) with c the e_m coefficient of e_j e_k
    landing = [[] for _ in range(d)]
    for j, row in enumerate(rows):
        for k, jk in row.items():
            base = (j * d + k) * d
            for m, c in jk:
                landing[m].append((base, c))
    # associativity on all basis triples, one left factor i at a time:
    # diff[(j*d + k)*d + t] is the e_t coefficient of (e_i e_j) e_k - e_i (e_j e_k)
    for i in range(d):
        diff = {}
        for j, ij in rows[i].items():
            jd = j * d
            for m, c in ij:
                for k, mk in rows[m].items():
                    base = (jd + k) * d
                    for t, c2 in mk:
                        key = base + t
                        diff[key] = diff.get(key, 0) + c * c2
        for m, im in rows[i].items():
            for base, c in landing[m]:
                for t, c2 in im:
                    key = base + t
                    diff[key] = diff.get(key, 0) - c * c2
        for j, k in _failing(diff, d):
            report.append(f"associativity fails at basis triple ({i},{j},{k})")
    # grading compatibility of products
    for i, row in enumerate(rows):
        for j, ij in row.items():
            deg = (A.grading[i] + A.grading[j]) % 2
            for k, _ in ij:
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
    # antiautomorphism on all basis pairs: diff[(i*d + j)*d + t] is the e_t
    # coefficient of (e_i e_j)* - e_j* e_i*, where e_j* = sum_a S[a][j] e_a
    inv_rows = [[] for _ in range(d)]
    for k in range(d):
        for a, x in A.star_sparse(k).items():
            inv_rows[a].append((k, x))
    # each nonzero e_a e_b adds its star image at (a, b) and takes its share of
    # e_j* e_i* at every (i, j) with e_a in e_j* and e_b in e_i*
    diff = {}
    for a, row in enumerate(rows):
        for b, ab in row.items():
            base = (a * d + b) * d
            for m, c in ab:
                for t, x in A.star_sparse(m).items():
                    key = base + t
                    diff[key] = diff.get(key, 0) + c * x
            for j, x in inv_rows[a]:
                for i, y in inv_rows[b]:
                    base = (i * d + j) * d
                    for t, c in ab:
                        key = base + t
                        diff[key] = diff.get(key, 0) - x * y * c
    for i, j in _failing(diff, d):
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
        for sign in (1, -1):
            parts[(A.grading[k], sign)].append(_minus({k: 1}, A.star_sparse(k), -sign))
    comp = HomComponents(
        even_sym=Subspace(A.dim, parts[(0, 1)]),
        even_skew=Subspace(A.dim, parts[(0, -1)]),
        odd_sym=Subspace(A.dim, parts[(1, 1)]),
        odd_skew=Subspace(A.dim, parts[(1, -1)]),
    )
    if sum(comp.dims) != A.dim:
        raise InternalInconsistencyError("homogeneous components do not sum to the algebra")
    A._hom = comp
    return comp


def hom_dims(A):
    """The four dimensions (even sym, even skew, odd sym, odd skew)."""
    return hom_components(A).dims


def subspace_product(A, U, V):
    """Span of all pairwise products of the two subspaces' basis vectors.

    Summed from the product rows: V's basis vectors are indexed by coordinate,
    and for each u of U's basis, u x is the sum of u_i x_j (e_i e_j) over the
    nonzero e_i e_j of the rows u reaches, added into each x with x_j != 0.
    The products of one u go straight into the Subspace, so a pair whose
    product vanishes costs nothing and no list of all pairs is held."""
    if U.ambient_dim != A.dim or V.ambient_dim != A.dim:
        raise ValueError(f"subspaces of F^{U.ambient_dim} and F^{V.ambient_dim} in dimension {A.dim}")
    having = [[] for _ in range(A.dim)]  # having[j]: (t, x_j) for each V.sparse_basis[t] with x_j != 0
    for t, x in enumerate(V.sparse_basis):
        for j, c in x.items():
            having[j].append((t, c))
    return Subspace(A.dim, _products(A.rows, U.sparse_basis, having))


def _products(rows, us, having):
    # the products u x of subspace_product, one u at a time; a pair no nonzero
    # e_i e_j reaches is never made, and the tracker drops the entries that cancel
    for u in us:
        acc = {}  # acc[t]: u V.sparse_basis[t] so far
        for i, ui in u.items():
            for j, pr in rows[i].items():
                for t, xj in having[j]:
                    w = acc.get(t)
                    if w is None:
                        w = acc[t] = {}
                    cij = ui * xj
                    for k, c in pr:
                        w[k] = w.get(k, 0) + cij * c
        yield from acc.values()


def _left_trace_weights(A):
    # T[i] = trace of left multiplication by basis i on A
    return [_as_num(sum(c for j, ij in row.items() for k, c in ij if k == j)) for row in A.rows]


def jacobson_radical(A):
    """Radical via the trace form of the regular representation on the unit extension.

    Its self-check computes the powers J, J^2, ... until one vanishes; the
    least p with J^p = 0 is recorded beside J as A._nilpotency."""
    if A._radical is not None:
        return A._radical
    d = A.dim
    T = _left_trace_weights(A)
    # the trace form on the unit extension's basis (d algebra vectors + adjoined
    # unit), one sparse row each: tr L_{e_i e_j} = sum_k c_ij^k T[k], and tr L_1 = d + 1
    gram = [{} for _ in range(d + 1)]
    for i, row in enumerate(A.rows):
        for j, ij in row.items():
            gram[i][j] = _as_num(sum(c * T[k] for k, c in ij))
        gram[i][d] = gram[d][i] = T[i]
    gram[d][d] = d + 1
    kernel = _kernel(d + 1, [{a: 1} for a in range(d + 1)], gram)
    if any(d in v for v in kernel.sparse_basis):
        raise InternalInconsistencyError("radical kernel leaves the algebra")
    J = Subspace(d, kernel.sparse_basis)
    A._nilpotency = _verify_radical(A, J)
    A._radical = J
    return J


def _verify_radical(A, J):
    # two-sided ideal, star- and grading-stable, nilpotent, and returns the least p
    # with J^p = 0; the products e_i v and v e_i, and the powers of J, are summed
    # from the nonzero structure constants, so a vanishing one costs nothing and
    # no sparse_mul is made
    rows = A.rows
    by_right = [[] for _ in range(A.dim)]  # by_right[j]: (i, e_i e_j) when nonzero
    for i, row in enumerate(rows):
        for j, pr in row.items():
            by_right[j].append((i, pr))
    for sv in J.sparse_basis:
        if not J.contains(sparse_star(A, sv)):
            raise InternalInconsistencyError("radical not star-stable")
        if not J.contains(grading_projection(A, sv, 0)):
            raise InternalInconsistencyError("radical not grading-stable")
        left, right = {}, {}
        for j, x in sv.items():
            for products, pairs in ((left, by_right[j]), (right, rows[j].items())):
                for i, pr in pairs:
                    out = products.setdefault(i, {})
                    for k, c in pr:
                        out[k] = out.get(k, 0) + x * c
        for products, side in ((left, "left"), (right, "right")):
            for i in sorted(products):
                if not J.contains(products[i]):
                    raise InternalInconsistencyError(f"radical not a {side} ideal")
    p = nilpotency_index(A, J)
    if p is None:
        raise InternalInconsistencyError("radical not nilpotent")
    return p


def nilpotency_index(A, J):
    """The least p with J^p = 0 for the subspace J of A, 1 when J is zero, or
    None when no power up to J^(dim A + 1) is zero. Each power is one
    subspace_product, summed from the product rows."""
    power = J
    for p in range(1, A.dim + 2):
        if power.is_zero():
            return p
        power = subspace_product(A, power, J)
    return None


def block_unit(A, indices):
    """The identity element of the subalgebra spanned by the given basis indices:
    the kernel vector of (x, x0) -> (x e_s - x0 e_s, e_s x - x0 e_s)_s, s in the
    index set, that has x0 = 1, with x0 held at coordinate A.dim."""
    idx = list(dict.fromkeys(indices))
    position = {t: a for a, t in enumerate(idx)}
    images = [{} for _ in idx]
    for t, a in position.items():
        for s, pr in A.rows[t].items():
            b = position.get(s)
            if b is not None:
                for r, c in pr:
                    images[a][s, 0, r] = c  # e_t e_s in x e_s, x = e_t
                    images[b][t, 1, r] = c  # e_t e_s in e_t x, x = e_s
    images.append({(s, side, s): -1 for s in idx for side in (0, 1)})
    d = A.dim
    for v in _kernel(d + 1, [{t: 1} for t in idx] + [{d: 1}], images).sparse_basis:
        x0 = v.get(d)
        if x0:
            return {t: _as_num(Fraction(v[t]) / x0) for t in idx if t in v}
    raise ValueError("subalgebra has no identity element")


def semisimple_unit(A):
    """Sum of the Wedderburn block identities."""
    if A.wedderburn is None:
        raise ValueError("missing Wedderburn data")
    e = {}
    for b in A.wedderburn.blocks:
        for k, c in block_unit(A, b.indices).items():
            e[k] = _as_num(e.get(k, 0) + c)
    return {k: c for k, c in e.items() if c != 0}


def _minus(u, v, a):
    """The sparse vector u - a v."""
    w = dict(u)
    for k, x in v.items():
        w[k] = w.get(k, 0) - a * x
    return {k: x for k, x in w.items() if x}


def peirce_decompose(A):
    """Split the radical by the left/right action of the semisimple unit."""
    e = semisimple_unit(A)
    J = jacobson_radical(A)
    # e v and v e for each radical basis vector v, shared by the four (p, q) pieces
    actions = [(sv, sparse_mul(A, e, sv), sparse_mul(A, sv, e)) for sv in J.sparse_basis]
    spaces = {}
    for p in (0, 1):
        for q in (0, 1):
            cols = [
                {(0, r): x for r, x in _minus(lv, sv, p).items()}
                | {(1, r): x for r, x in _minus(rv, sv, q).items()}
                for sv, lv, rv in actions
            ]
            spaces[(p, q)] = _kernel(A.dim, J.sparse_basis, cols)
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
    for sv in j11.sparse_basis:
        col = {}
        for t in semis:
            for r, x in _minus(sparse_mul(A, sv, {t: 1}), sparse_mul(A, {t: 1}, sv), 1).items():
                col[t, r] = x
        cols.append(col)
    return _kernel(A.dim, j11.sparse_basis, cols)


def _rational_roots(coeffs):
    # distinct rational roots of a polynomial with rational coefficients
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
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


def commutator_images(A):
    """The images of the basis under z -> (e_i z - z e_i)_i, whose kernel is the
    center: images[j][i, k] is the e_k coefficient of e_i e_j - e_j e_i, with
    entries that cancel kept as zeros."""
    images = [{} for _ in range(A.dim)]
    for i, row in enumerate(A.rows):
        for j, ij in row.items():
            for k, c in ij:
                images[j][i, k] = images[j].get((i, k), 0) + c
                images[i][j, k] = images[i].get((j, k), 0) - c
    return images


def central_primitive_idempotents(A):
    """Central primitive idempotents of a semisimple algebra, found by splitting the center."""
    d = A.dim
    center = _kernel(d, [{j: 1} for j in range(d)], commutator_images(A))
    subspaces = [center]
    for sz in center.sparse_basis:
        refined = []
        for S in subspaces:
            if S.dim <= 1:
                refined.append(S)
                continue
            zS = [sparse_mul(A, sz, v) for v in S.sparse_basis]
            if not all(map(S.contains, zS)):
                raise InternalInconsistencyError("center not closed under itself")
            # the minimal polynomial of z on S is the first dependency among the
            # maps v -> z^j v, each flattened to the coordinates (a, r): the e_r
            # coefficient of z^j times the a-th basis vector of S
            power, flats = S.sparse_basis, []
            for j in range(S.dim + 1):
                flats.append({(a, r): x for a, w in enumerate(power) for r, x in w.items()})
                dep = _kernel(j + 1, [{i: 1} for i in range(j + 1)], flats).sparse_basis
                if dep:
                    break
                power = [sparse_mul(A, sz, w) for w in power] if j else zS
            else:
                raise InternalInconsistencyError("minimal polynomial not found")
            mp = [_as_num(Fraction(dep[0].get(i, 0)) / dep[0][j]) for i in range(j + 1)]
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
                shifted = [_minus(w, v, r0) for v, w in zip(S.sparse_basis, zS)]
                eig = _kernel(d, S.sparse_basis, shifted)
                if not eig.is_zero():
                    refined.append(eig)
        subspaces = refined
    idempotents = []
    for S in subspaces:
        if S.dim != 1:
            raise CenterNotSplitError("center does not split into one-dimensional eigenspaces")
        v = S.sparse_basis[0]
        vv = sparse_mul(A, v, v)
        t = vv.get(next(iter(v)), 0)  # an RREF row starts with its pivot entry 1
        if t == 0 or vv != {k: _as_num(t * c) for k, c in v.items()}:
            raise InternalInconsistencyError("center eigenvector is not idempotent-scaled")
        idempotents.append({k: _as_num(Fraction(c) / t) for k, c in v.items()})
    return idempotents


def is_star_graded_simple(A):
    """Nonzero square, zero radical, and one orbit {e, e*, theta e, theta(e*)},
    theta x = x_0 - x_1, holding every central primitive idempotent: the ideals
    stable under star and grading are the sums of such orbits of blocks."""
    if not any(A.rows):
        return False
    if not jacobson_radical(A).is_zero():
        return False
    idempotents = central_primitive_idempotents(A)
    orbit = []
    for x in (idempotents[0], sparse_star(A, idempotents[0])):
        for y in (x, {k: -c if A.grading[k] else c for k, c in x.items()}):
            if y not in idempotents:
                raise InternalInconsistencyError("an image of a central primitive idempotent is not one")
            if y not in orbit:
                orbit.append(y)
    return len(orbit) == len(idempotents)


def direct_sum(A, B):
    """Block-diagonal sum with concatenated grading, involution, and Wedderburn data."""
    dA = A.dim
    structure = [(i, j, k, c) for i, row in enumerate(A.rows) for j, ij in row.items() for k, c in ij]
    structure += [
        (i + dA, j + dA, k + dA, c) for i, row in enumerate(B.rows) for j, ij in row.items() for k, c in ij
    ]
    inv = [(r, k, c) for k in range(dA) for r, c in A.star_sparse(k).items()]
    inv += [(r + dA, k + dA, c) for k in range(B.dim) for r, c in B.star_sparse(k).items()]
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
        ["l." + s for s in A.labels] + ["r." + s for s in B.labels],
        structure,
        list(A.grading) + list(B.grading),
        inv,
        wedderburn=wed,
    )


def _frac_str(x):
    # "n/d" in lowest terms, from an int or a Fraction, which is kept reduced
    if type(x) is int:
        return f"{x}/1"
    return f"{x.numerator}/{x.denominator}"


def to_interchange(A):
    """Serialize to the interchange document (plain dict of JSON-ready values)."""
    structure = sorted(
        (i, j, k, _frac_str(c)) for i, row in enumerate(A.rows) for j, ij in row.items() for k, c in ij
    )
    involution = sorted([r, k, _frac_str(c)] for k in range(A.dim) for r, c in A.star_sparse(k).items())
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
    """Rebuild an algebra from an interchange document; a document of the wrong
    shape is refused with a ValueError that names the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"an interchange document is a JSON object, not {type(doc).__name__}")
    missing = [key for key in ("dim", "labels", "structure", "grading", "involution") if key not in doc]
    if missing:
        raise ValueError(f"the interchange document has no {', '.join(missing)}")
    dim = doc["dim"]
    if type(dim) is not int or dim < 0:
        raise ValueError(f"dim must be a nonnegative integer, not {_shown(dim)}")
    for key in ("labels", "grading", "structure", "involution"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list, not {type(doc[key]).__name__}")
    for key, arity in (("structure", 4), ("involution", 3)):
        for e in doc[key]:
            if not isinstance(e, list) or len(e) != arity:
                raise ValueError(f"{key} entry {_shown(e)} is not a list of {arity} items")
    wed = None
    if doc.get("wedderburn") is not None:
        w = doc["wedderburn"]
        if not (
            isinstance(w, dict)
            and isinstance(w.get("radical"), list)
            and isinstance(w.get("blocks"), list)
            and all(isinstance(b, dict) and isinstance(b.get("indices"), list) for b in w["blocks"])
            and all(isinstance(b.get("params", []), list) for b in w["blocks"])
        ):
            raise ValueError("wedderburn must hold a list radical and a list of blocks, each with a list of indices")
        _check_indices(dim, *w["radical"], *(t for b in w["blocks"] for t in b["indices"]))
        wed = WedderburnData(
            tuple(
                WedderburnBlock(tuple(b["indices"]), b.get("family"), tuple(b.get("params", ())))
                for b in w["blocks"]
            ),
            tuple(w["radical"]),
        )
    return StarSuperAlgebra(
        dim, doc["labels"], doc["structure"], doc["grading"], doc["involution"], wedderburn=wed
    )


def save_algebra(A, path):
    with open(path, "w") as fh:
        json.dump(to_interchange(A), fh, indent=1)
        fh.write("\n")


def load_algebra(path):
    with open(path) as fh:
        return from_interchange(json.load(fh))
