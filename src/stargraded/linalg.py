"""Exact linear algebra over the rationals: RREF, rank, nullspace, canonical subspaces."""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm


def _as_num(x):
    # keep exact ints as ints, everything else as Fraction
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot_columns); input is not mutated."""
    m = [[_as_num(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        # entries are already normalized by _as_num, so zeros pass through unchanged
        if pv != 1:
            m[r] = [_as_num(Fraction(x, 1) / pv) if x else 0 for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [_as_num(a - f * b) if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows):
    """Exact rank over the rationals."""
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Canonical basis of {x : rows @ x = 0}; ncols needed when rows is empty."""
    if rows:
        ncols = len(rows[0])
    assert ncols is not None
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(v)
    return rref(basis)[0]


def solve(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    n = len(rows[0]) if rows else 0
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = Fraction(red[i][-1])
    return [_as_num(v) for v in x]


def mat_vec(m, v):
    """Matrix times column vector."""
    assert all(len(row) == len(v) for row in m)
    return [_as_num(sum(a * b for a, b in zip(row, v))) for row in m]


def mat_mul(a, b):
    """Matrix product."""
    bt = list(zip(*b))
    return [[_as_num(sum(x * y for x, y in zip(row, col))) for col in bt] for row in a]


def coordinate_span(ambient_dim, indices):
    """The subspace spanned by the given coordinate axes."""
    rows = []
    for k in indices:
        row = [0] * ambient_dim
        row[k] = 1
        rows.append(row)
    return Subspace(ambient_dim, rows)


class Subspace:
    """A linear subspace of F^ambient_dim held as a canonical RREF basis.

    `sparse_basis` holds the same rows as sparse dicts, and `pivots` maps each
    pivot column to its row there."""

    __slots__ = ("ambient_dim", "basis", "sparse_basis", "pivots")

    def __init__(self, ambient_dim, basis_rows=()):
        red, pivots = rref([list(r) for r in basis_rows])
        assert all(len(r) == ambient_dim for r in red)
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in red)
        self.sparse_basis = tuple({j: x for j, x in enumerate(r) if x != 0} for r in red)
        self.pivots = dict(zip(pivots, self.sparse_basis))

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def contains(self, v):
        """Membership of a coordinate sequence, or of a sparse dict {index: coeff}.

        In RREF every pivot column is zero outside its own row, so v is in the
        span exactly when v minus sum over pivots c of v[c] * row_c is zero."""
        if not isinstance(v, dict):
            assert len(v) == self.ambient_dim
            v = {j: x for j, x in enumerate(v) if x != 0}
        w = dict(v)
        for c, f in v.items():
            row = self.pivots.get(c)
            if row is not None:
                for j, x in row.items():
                    w[j] = w.get(j, 0) - f * x
        return all(x == 0 for x in w.values())

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.sparse_basis)

    def add(self, other):
        assert self.ambient_dim == other.ambient_dim
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


class RankTracker:
    """Incremental exact rank of a growing set of rational vectors, on integer rows.

    A vector is scaled by the lcm of its denominators and reduced against the
    stored rows in pivot order by fraction-free steps w <- p*w - f*row, with
    the pivot p and the entry f first divided by their gcd. Rows are kept
    primitive instead of dividing by the previous pivot as Bareiss (1968)
    does. The vector being reduced is held dense. Stored rows are sparse,
    primitive (gcd 1, positive pivot) and in echelon form: no row has an entry
    left of its pivot, so a reduced vector that is not zero starts at a new
    pivot. Rank needs no back-substitution. No floats, no modular step."""

    __slots__ = ("pivots", "rows")

    def __init__(self):
        self.pivots = []  # ascending
        self.rows = {}  # pivot -> (columns, values), columns ascending

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, vec):
        """Insert a vector of ints and Fractions; returns True if it increased the rank."""
        den = lcm(*{x.denominator for x in vec})
        if den == 1:
            w = [x.numerator for x in vec]
        else:
            w = [x.numerator * (den // x.denominator) for x in vec]
        rows = self.rows
        for c in self.pivots:
            f = w[c]
            if not f:
                continue
            cols, row = rows[c]
            p = row[0]
            g = gcd(p, f)
            if g != p:
                p //= g
                w = [p * x for x in w]
            f //= g
            for j, x in zip(cols, row):
                w[j] -= f * x
        cols = [j for j, x in enumerate(w) if x]
        if not cols:
            return False
        g = gcd(*(w[j] for j in cols))
        if w[cols[0]] < 0:
            g = -g
        insort(self.pivots, cols[0])
        rows[cols[0]] = (cols, [w[j] // g for j in cols])
        return True


# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson and Webster, 2015); larger moduli are refused.
PRIME_TEST_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic primality of an integer n < PRIME_TEST_BOUND."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is too large for the deterministic prime test (bound {PRIME_TEST_BOUND})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RankTrackerModP:
    """Incremental rank of a growing set of integer vectors modulo a prime."""

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p):
        self.p = p
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        p = self.p
        w = [x % p for x in vec]
        for row, c in zip(self.rows, self.pivots):
            if w[c]:
                f = w[c]
                w = [(a - f * b) % p for a, b in zip(w, row)]
        c = next((j for j, x in enumerate(w) if x), None)
        if c is None:
            return False
        inv = pow(w[c], p - 2, p)
        w = [(x * inv) % p for x in w]
        self.rows.append(w)
        self.pivots.append(c)
        return True
