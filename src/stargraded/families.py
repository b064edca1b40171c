"""Constructors for the classified simple superalgebras with graded involution."""

from dataclasses import dataclass
from fractions import Fraction

from .core import StarSuperAlgebra, WedderburnBlock, WedderburnData
from .errors import InternalInconsistencyError
from .linalg import _as_num

MHL_T = "MHL_T"
MHH_S = "MHH_S"
MHL_EXC = "MHL_EXC"
MN_CMN_STAR = "MN_CMN_STAR"
MN_CMN_DAGGER = "MN_CMN_DAGGER"
MN_CMN_EXC = "MN_CMN_EXC"

FAMILY_NAMES = (MHL_T, MHH_S, MHL_EXC, MN_CMN_STAR, MN_CMN_DAGGER, MN_CMN_EXC)


@dataclass(frozen=True)
class FamilyTag:
    """A classified simple family with its parameters.

    params: (h, l) for MHL_T and MHL_EXC; (h,) for MHH_S; (n, diamond) for
    MN_CMN_STAR / MN_CMN_DAGGER with diamond in {"t", "s"}; (n,) for MN_CMN_EXC.
    """

    name: str
    params: tuple

    def __post_init__(self):
        validate_tag(self)


def validate_tag(tag):
    name, p = tag.name, tuple(tag.params)
    if name in (MHL_T, MHL_EXC):
        if len(p) != 2 or not all(isinstance(x, int) for x in p):
            raise ValueError(f"{name} takes two integer parameters, got {p}")
        h, l = p
        if not (h >= l >= 0 and h > 0):
            raise ValueError(f"{name} requires h >= l >= 0 and h != 0, got {p}")
    elif name == MHH_S:
        if len(p) != 1 or not isinstance(p[0], int):
            raise ValueError(f"{name} takes one integer parameter, got {p}")
        if p[0] < 1:
            raise ValueError(f"{name} requires h >= 1, got {p}")
    elif name in (MN_CMN_STAR, MN_CMN_DAGGER):
        if len(p) != 2 or not isinstance(p[0], int):
            raise ValueError(f"{name} takes a matrix size and a flavor, got {p}")
        n, diamond = p
        if n < 1 or diamond not in ("t", "s"):
            raise ValueError(f"{name} requires n >= 1 and diamond in 't','s', got {p}")
        if diamond == "s" and n % 2 != 0:
            raise ValueError("symplectic flavor requires an even matrix size")
    elif name == MN_CMN_EXC:
        if len(p) != 1 or not isinstance(p[0], int):
            raise ValueError(f"{name} takes one integer parameter, got {p}")
        if p[0] < 1:
            raise ValueError(f"{name} requires n >= 1, got {p}")
    else:
        raise ValueError(f"unknown family {name}")


def from_matrices(labels, mats, degrees, star, wedderburn, layout=None):
    """The algebra spanned by the sparse matrices mats, each {(r, c): v}.

    A basis matrix has degree degrees[r] + degrees[c] at each of its entries.
    star = (p, s) is a signed permutation P, and the involution is
    X -> P X^t P^-1: e_rc -> s_r s_c e_{p(c), p(r)}. Each product and each star
    image is read back through the basis matrix that owns each of its
    positions. A mixed degree, a position owned twice, or an image outside the
    span is an InternalInconsistencyError."""
    p, s = star
    owner = {}
    grading = []
    rows = {}  # rows[r]: (c, t, v) for each entry v at (r, c) of basis matrix t
    for t, mat in enumerate(mats):
        degs = {(degrees[r] + degrees[c]) % 2 for r, c in mat}
        if len(degs) != 1:
            raise InternalInconsistencyError(f"basis matrix {labels[t]} is empty or not homogeneous")
        grading.append(degs.pop())
        for (r, c), v in mat.items():
            if (r, c) in owner:
                raise InternalInconsistencyError(f"position {(r, c)} claimed twice")
            owner[r, c] = t
            rows.setdefault(r, []).append((c, t, v))

    def read_back(image, what):
        # consumes image; a zero entry is skipped, and the owner of a nonzero
        # one must find each of its other entries times the same coefficient
        coeffs = {}
        while image:
            pos, val = image.popitem()
            if not val:
                continue
            t = owner.get(pos)
            if t is None:
                raise InternalInconsistencyError(f"{what} leaves the span at {pos}")
            mat = mats[t]
            entry = mat[pos]
            lam = val * entry if entry in (1, -1) else _as_num(Fraction(val) / entry)
            for q, v in mat.items():
                if q != pos and image.pop(q, 0) != lam * v:
                    raise InternalInconsistencyError(f"{what} is not in the span")
            coeffs[t] = lam
        return coeffs.items()

    structure = []
    if all(list(mat.values()) == [1] for mat in mats):
        # a basis of matrix units: e_rc e_cd = e_rd is read back by its owner alone
        for a, ((r, c),) in enumerate(mats):
            for d, b, _ in rows.get(c, ()):
                t = owner.get((r, d))
                if t is None:
                    raise InternalInconsistencyError(f"product leaves the span at {(r, d)}")
                structure.append((a, b, t, 1))
    else:
        for a, mat in enumerate(mats):
            products = {}
            for (r, c), v in mat.items():
                for c2, b, v2 in rows.get(c, ()):
                    prod = products.setdefault(b, {})
                    prod[r, c2] = prod.get((r, c2), 0) + v * v2
            for b, prod in products.items():
                structure += [(a, b, t, lam) for t, lam in read_back(prod, "product")]
    involution = []
    for t, mat in enumerate(mats):
        image = {(p[c], p[r]): s[r] * s[c] * v for (r, c), v in mat.items()}
        involution += [(r, t, lam) for r, lam in read_back(image, "star image")]
    return StarSuperAlgebra(len(mats), labels, structure, grading, involution, wedderburn, layout)


def _signed_permutation(n, diamond):
    # (p, s) of the transpose ("t") or the symplectic ("s") involution of M_n
    if diamond == "t":
        return list(range(n)), [1] * n
    h = n // 2
    return [(i + h) % n for i in range(n)], [1] * h + [-1] * h


def family_matrices(tag):
    """(labels, basis matrices, row degrees, (p, s)) of the family a tag names,
    for from_matrices.

    The matrix families are M_n on its units, graded by the first h rows
    against the rest. a + cb in mn_cmn is [[a, b], [b, a]], with the flavor's
    (p, s) on each half and the sign on the second. The exchange families put
    (b, c) in B + B^op at diag(b, c^t), and P swaps the two blocks."""
    validate_tag(tag)
    name, params = tag.name, tag.params
    if name in (MHL_EXC, MN_CMN_EXC):
        inner = FamilyTag(MHL_T, params) if name == MHL_EXC else FamilyTag(MN_CMN_DAGGER, (params[0], "t"))
        labels, mats, degrees, _ = family_matrices(inner)
        N = len(degrees)
        ops = [{(N + c, N + r): v for (r, c), v in mat.items()} for mat in mats]
        swap = [(i + N) % (2 * N) for i in range(2 * N)]
        return labels + ["op." + x for x in labels], mats + ops, degrees * 2, (swap, [1] * 2 * N)
    n = params[0] + params[1] if name == MHL_T else 2 * params[0] if name == MHH_S else params[0]
    units = [(i, j) for i in range(n) for j in range(n)]
    labels = [f"e{i + 1},{j + 1}" for i, j in units]
    if name in (MHL_T, MHH_S):
        degrees = [0] * params[0] + [1] * (n - params[0])
        star = _signed_permutation(n, "t" if name == MHL_T else "s")
        return labels, [{u: 1} for u in units], degrees, star
    mats = [{(i, j): 1, (n + i, n + j): 1} for i, j in units]
    mats += [{(i, n + j): 1, (n + i, j): 1} for i, j in units]
    p, s = _signed_permutation(n, params[1])
    sign = 1 if name == MN_CMN_DAGGER else -1
    star = (p + [n + x for x in p], s + [sign * x for x in s])
    return labels + ["c*" + x for x in labels], mats, [0] * n + [1] * n, star


def build_family(tag):
    """Construct the algebra a FamilyTag describes."""
    labels, mats, degrees, star = family_matrices(tag)
    block = WedderburnBlock(tuple(range(len(mats))), tag.name, tag.params)
    return from_matrices(labels, mats, degrees, star, WedderburnData((block,), ()))


def m_hl_transpose(h, l):
    """Full matrix algebra with block grading (h, l) and transpose involution."""
    return build_family(FamilyTag(MHL_T, (h, l)))


def m_hh_symplectic(h):
    """Full matrix algebra of even size with half-half grading and symplectic involution."""
    return build_family(FamilyTag(MHH_S, (h,)))


def m_hl_exchange(h, l):
    """Matrix algebra plus its opposite, exchange involution, block grading on both."""
    return build_family(FamilyTag(MHL_EXC, (h, l)))


def mn_cmn(n, diamond, sign):
    """The superalgebra with even part M_n, odd part c*M_n, c^2 = 1, and the
    involution a + cb -> a^diamond + sign * c b^diamond."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return build_family(FamilyTag(MN_CMN_DAGGER if sign == "+" else MN_CMN_STAR, (n, diamond)))


def mn_cmn_exchange(n):
    """The mn_cmn superalgebra plus its opposite with the exchange involution."""
    return build_family(FamilyTag(MN_CMN_EXC, (n,)))


def classified_hom_dims(tag):
    """Closed-form (even sym, even skew, odd sym, odd skew) dims for a family tag."""
    name, p = tag.name, tuple(tag.params)
    if name == MHL_T:
        h, l = p
        return (h * (h + 1) // 2 + l * (l + 1) // 2, h * (h - 1) // 2 + l * (l - 1) // 2, h * l, h * l)
    if name == MHH_S:
        (h,) = p
        return (h * h, h * h, h * (h - 1), h * (h + 1))
    if name == MHL_EXC:
        h, l = p
        return (h * h + l * l, h * h + l * l, 2 * h * l, 2 * h * l)
    if name in (MN_CMN_STAR, MN_CMN_DAGGER):
        n, diamond = p
        sym, skew = n * (n + 1) // 2, n * (n - 1) // 2
        m_plus, m_minus = (sym, skew) if diamond == "t" else (skew, sym)
        if name == MN_CMN_DAGGER:
            return (m_plus, m_minus, m_plus, m_minus)
        return (m_plus, m_minus, m_minus, m_plus)
    (n,) = p
    return (n * n, n * n, n * n, n * n)
