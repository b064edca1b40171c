"""Constructors for the classified simple superalgebras with graded involution."""

from dataclasses import dataclass

from .core import StarSuperAlgebra, WedderburnBlock, WedderburnData

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


def _unit_idx(n, i, j):
    return i * n + j


def _unit_labels(n, prefix=""):
    return [f"{prefix}e{i + 1},{j + 1}" for i in range(n) for j in range(n)]


def _matrix_structure(n):
    # e_ij . e_jl = e_il
    return [
        (_unit_idx(n, i, j), _unit_idx(n, j, l), _unit_idx(n, i, l), 1)
        for i in range(n)
        for j in range(n)
        for l in range(n)
    ]


def _matrix_star(n, diamond):
    """Involution triples (r, k, c) of the transpose (diamond "t") or the
    symplectic (diamond "s") involution of M_n: e_k* = c e_r on the units."""
    if diamond == "t":
        return [(_unit_idx(n, j, i), _unit_idx(n, i, j), 1) for i in range(n) for j in range(n)]
    # star(X) = Omega X^t Omega^{-1} with Omega = [[0, I],[-I, 0]] in half-blocks:
    # swap the half-blocks, transpose, and negate the off-diagonal half-blocks
    h = n // 2
    return [
        (_unit_idx(n, (j + h) % n, (i + h) % n), _unit_idx(n, i, j), (-1) ** ((i < h) != (j < h)))
        for i in range(n)
        for j in range(n)
    ]


def _one_block(dim, tag):
    return WedderburnData((WedderburnBlock(tuple(range(dim)), tag.name, tag.params),), ())


def _block_grading(n, h):
    # elementary grading: 0 on the first h row/col indices, 1 on the rest
    alpha = [0 if i < h else 1 for i in range(n)]
    return [(alpha[i] + alpha[j]) % 2 for i in range(n) for j in range(n)]


def _matrix_family(tag, n, h, diamond):
    """M_n with block grading (h, n - h) and the involution the diamond names."""
    return StarSuperAlgebra(
        n * n,
        _unit_labels(n),
        _matrix_structure(n),
        _block_grading(n, h),
        _matrix_star(n, diamond),
        wedderburn=_one_block(n * n, tag),
    )


def m_hl_transpose(h, l):
    """Full matrix algebra with block grading (h, l) and transpose involution."""
    return _matrix_family(FamilyTag(MHL_T, (h, l)), h + l, h, "t")


def m_hh_symplectic(h):
    """Full matrix algebra of even size with half-half grading and symplectic involution."""
    return _matrix_family(FamilyTag(MHH_S, (h,)), 2 * h, h, "s")


def exchange(B, tag):
    """B plus its opposite B^op, whose product is b.c = cb, with the exchange
    involution (b, c) -> (c, b). Basis d + k of the result is basis k of B^op."""
    d = B.dim
    structure = [(i, j, k, c) for (i, j), row in B.structure.items() for k, c in row.items()]
    structure += [(d + j, d + i, d + k, c) for i, j, k, c in structure]
    involution = [(d + k, k, 1) for k in range(d)] + [(k, d + k, 1) for k in range(d)]
    return StarSuperAlgebra(
        2 * d,
        list(B.labels) + ["op." + s for s in B.labels],
        structure,
        list(B.grading) * 2,
        involution,
        wedderburn=_one_block(2 * d, tag),
    )


def m_hl_exchange(h, l):
    """Matrix algebra plus its opposite, exchange involution, block grading on both."""
    tag = FamilyTag(MHL_EXC, (h, l))
    return exchange(m_hl_transpose(h, l), tag)


def mn_cmn(n, diamond, sign):
    """The superalgebra with even part M_n, odd part c*M_n, c^2 = 1, and the
    involution a + cb -> a^diamond + sign * c b^diamond."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    tag = FamilyTag(MN_CMN_DAGGER if sign == "+" else MN_CMN_STAR, (n, diamond))
    nn = n * n
    structure = []
    for a, b, c0, _ in _matrix_structure(n):
        structure += [(a, b, c0, 1), (a, nn + b, nn + c0, 1)]
        structure += [(nn + a, b, nn + c0, 1), (nn + a, nn + b, c0, 1)]
    s = 1 if sign == "+" else -1
    star = _matrix_star(n, diamond)
    involution = star + [(nn + r, nn + k, s * c) for r, k, c in star]
    return StarSuperAlgebra(
        2 * nn,
        _unit_labels(n) + _unit_labels(n, "c*"),
        structure,
        [0] * nn + [1] * nn,
        involution,
        wedderburn=_one_block(2 * nn, tag),
    )


def mn_cmn_exchange(n):
    """The mn_cmn superalgebra plus its opposite with the exchange involution."""
    tag = FamilyTag(MN_CMN_EXC, (n,))
    return exchange(mn_cmn(n, "t", "+"), tag)


def build_family(tag):
    """Construct the algebra a FamilyTag describes."""
    validate_tag(tag)
    if tag.name == MHL_T:
        return m_hl_transpose(*tag.params)
    if tag.name == MHH_S:
        return m_hh_symplectic(*tag.params)
    if tag.name == MHL_EXC:
        return m_hl_exchange(*tag.params)
    if tag.name == MN_CMN_STAR:
        return mn_cmn(tag.params[0], tag.params[1], "-")
    if tag.name == MN_CMN_DAGGER:
        return mn_cmn(tag.params[0], tag.params[1], "+")
    return mn_cmn_exchange(*tag.params)


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
