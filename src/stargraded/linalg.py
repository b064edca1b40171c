"""Exact linear algebra over the rationals on one fraction-free integer elimination:
RREF, rank, kernels, solving, canonical subspaces."""

from bisect import bisect_left, insort
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import attrgetter

_denominator = attrgetter("denominator")
_is_int = int.__instancecheck__


def _primitive(cols, vals):
    # the sparse row divided by the gcd of its entries, with a positive first entry
    g = gcd(*vals)
    if vals[0] < 0:
        g = -g
    return cols, vals if g == 1 else [x // g for x in vals]


def _as_num(x):
    # keep exact ints as ints, everything else as Fraction
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _checked(row, n):
    # a coordinate sequence of length n, or a sparse dict {index: coeff} indexed in range(n)
    if not isinstance(row, dict):
        if len(row) != n:
            raise ValueError(f"a vector of length {len(row)} where {n} is expected")
    elif row and not 0 <= min(row) <= max(row) < n:
        raise ValueError(f"a sparse vector {row} has an index outside range({n})")
    return row


def _dense(sparse_rows, n):
    out = []
    for r in sparse_rows:
        v = [0] * n
        for j, x in r.items():
            v[j] = x
        out.append(v)
    return out


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot_columns); input is not mutated."""
    n = len(rows[0]) if rows else 0
    tr = RankTracker(_checked(r, n) for r in rows)
    return _dense(tr.reduced(), n), list(tr.pivots)


def rank(rows):
    """Exact rank over the rationals."""
    n = len(rows[0]) if rows else 0
    return RankTracker(_checked(r, n) for r in rows).rank


def nullspace(rows, ncols=None):
    """Canonical basis of {x : rows @ x = 0}, the `_kernel` of the columns of
    rows as RREF rows; ncols needed when rows is empty."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("nullspace of an empty matrix needs ncols")
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in enumerate(_checked(row, ncols)):
            cols[j][i] = x
    return _dense(_kernel(ncols, [{j: 1} for j in range(ncols)], cols).sparse_basis, ncols)


def _kernel(dim, basis, images):
    """The Subspace of F^dim of the combinations sum c_a basis[a] whose images
    sum c_a images[a] vanish; basis vectors and images are sparse dicts, the
    images keyed by any sortable coordinates.

    One RankTracker pass: row a is images[a], its n coordinates renumbered
    0..n-1 in ascending order, plus a 1 at n + a. The stored rows with pivot n
    or later are those with a zero image part; their coefficients span the kernel."""
    index = {r: i for i, r in enumerate(sorted(set().union(*images)))}
    n = len(index)
    tr = RankTracker()
    for a, img in enumerate(images):
        row = {index[r]: x for r, x in img.items()}
        row[n + a] = 1
        tr.add(row)
    vecs = []
    for c in tr.pivots[bisect_left(tr.pivots, n):]:
        w = {}
        for a, x in zip(*tr.rows[c]):
            for r, y in basis[a - n].items():
                w[r] = w.get(r, 0) + x * y
        vecs.append(w)
    return Subspace(dim, vecs)


def solve(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent."""
    if len(rhs) != len(rows):
        raise ValueError(f"a right-hand side of length {len(rhs)} where {len(rows)} is expected, one per row")
    n = len(rows[0]) if rows else 0
    tr = RankTracker([list(_checked(row, n)) + [b] for row, b in zip(rows, rhs)])
    if n in tr.rows:
        return None
    x = [0] * n
    for c, row in zip(tr.pivots, tr.reduced()):
        x[c] = row.get(n, 0)
    return x


def mat_vec(m, v):
    """Matrix times column vector."""
    if any(len(row) != len(v) for row in m):
        raise ValueError(f"matrix rows do not all have the vector's length {len(v)}")
    return [_as_num(sum(a * b for a, b in zip(row, v))) for row in m]


def mat_mul(a, b):
    """Matrix product."""
    bt = list(zip(*b))
    return [[_as_num(sum(x * y for x, y in zip(row, col))) for col in bt] for row in a]


def coordinate_span(ambient_dim, indices):
    """The subspace spanned by the given coordinate axes."""
    return Subspace(ambient_dim, [{k: 1} for k in indices])


class Subspace:
    """A linear subspace of F^ambient_dim held as a canonical RREF basis.

    `sparse_basis` holds the reduced rows as sparse dicts and `pivots` maps
    each pivot column to its row there. Spanning rows may be coordinate
    sequences or sparse dicts."""

    __slots__ = ("ambient_dim", "sparse_basis", "pivots")

    def __init__(self, ambient_dim, basis_rows=()):
        tr = RankTracker(_checked(r, ambient_dim) for r in basis_rows)
        self.ambient_dim = ambient_dim
        self.sparse_basis = tuple(tr.reduced())
        self.pivots = dict(zip(tr.pivots, self.sparse_basis))

    @property
    def dim(self):
        return len(self.sparse_basis)

    def is_zero(self):
        return not self.sparse_basis

    def contains(self, v):
        """Membership of a coordinate sequence, or of a sparse dict {index: coeff}.

        In RREF every pivot column is zero outside its own row, so v is in the
        span exactly when v minus sum over pivots c of v[c] * row_c is zero."""
        if not isinstance(v, dict):
            if len(v) != self.ambient_dim:
                raise ValueError(f"a vector of length {len(v)} tested in F^{self.ambient_dim}")
            v = {j: x for j, x in enumerate(v) if x != 0}
        w = dict(v)
        for c, f in v.items():
            row = self.pivots.get(c)
            if row is not None:
                for j, x in row.items():
                    w[j] = w.get(j, 0) - f * x
        return all(x == 0 for x in w.values())

    def add(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(f"sum of subspaces of F^{self.ambient_dim} and F^{other.ambient_dim}")
        return Subspace(self.ambient_dim, self.sparse_basis + other.sparse_basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.sparse_basis == other.sparse_basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(row.items()) for row in self.sparse_basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


class RankTracker:
    """Incremental exact rank of a growing set of rational vectors, on integer rows.

    A vector is scaled by the lcm of its denominators and reduced against the
    stored rows in pivot order by fraction-free steps w <- p*w - f*row, with
    the pivot p and the entry f first divided by their gcd. Rows are kept
    primitive instead of dividing by the previous pivot as Bareiss (1968)
    does. Stored rows are sparse, primitive (gcd 1, positive pivot) and in
    echelon form: no row has an entry left of its pivot, so a reduced vector
    that is not zero starts at a new pivot. Rank needs no back-substitution;
    `reduced` does it once for the canonical RREF. This is the only row
    reduction of the package: `rref`, `rank`, `_kernel`, `solve` and
    `Subspace` all read it. No floats, no modular step.

    `add` takes a coordinate sequence or a sparse dict {index: coeff}, and the
    two give the same stored rows. A sequence is reduced dense, walking every
    pivot: codimension columns fill in as they are reduced, and there a list
    beats a dict. A dict stays sparse: the next column is the least live
    index, so only pivots the vector reaches are visited and a vector with a
    few nonzeros of a long space costs a few steps. A one-entry dict at a free
    column or at a stored unit row is settled without elimination. A dict or
    a sequence of ints is not rescaled. A tuple of ints that is zero at every
    stored pivot, so that no row eliminates with it, is kept as given under
    its first nonzero index: most codimension columns are, and they are never
    scanned again unless used. Its sparse primitive row is built when an
    insert first eliminates with it or `reduced` reads it, and stored in its
    place. A list, a vector with a Fraction entry or one that was eliminated
    is stored sparse at once, so no caller can change a stored row.
    `Subspace` rows and the barred sweep's joined states take the dict path."""

    __slots__ = ("pivots", "rows", "_positions")

    def __init__(self, vectors=()):
        self.pivots = []  # ascending
        self.rows = {}  # pivot -> (columns, values), columns ascending, or a kept tuple (_row)
        self._positions = []  # 0, 1, 2, ...: compress over a list of ints beats compress over a range
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.pivots)

    def _support(self, seq):
        # the indices of seq's nonzero entries, ascending, as an iterator
        positions = self._positions
        if len(positions) < len(seq):
            positions = self._positions = list(range(len(seq)))
        return compress(positions, seq)

    def _row(self, c):
        """The stored row at pivot c as (columns, values), built from a kept
        tuple of ints, and stored, on first use."""
        entry = self.rows[c]
        if type(entry[0]) is int:
            entry = self.rows[c] = _primitive(list(self._support(entry)), list(filter(None, entry)))
        return entry

    def add(self, vec):
        """Insert a vector of ints and Fractions, a coordinate sequence or a
        sparse dict {index: coeff}; returns True if it increased the rank."""
        rows = self.rows
        if isinstance(vec, dict):
            if len(vec) == 1:
                # {j: x} at a free column is the new primitive row e_j, and
                # against a stored unit row e_j it is dependent: full
                # elimination would leave exactly that
                ((j, x),) = vec.items()
                if not x:
                    return False
                entry = rows.get(j)
                if entry is None:
                    insort(self.pivots, j)
                    rows[j] = ([j], [1])
                    return True
                if type(entry[0]) is int:
                    entry = self._row(j)
                if len(entry[0]) == 1:
                    return False
            if all(map(_is_int, vec.values())):
                w = {j: x for j, x in vec.items() if x}
            else:
                den = lcm(*{x.denominator for x in vec.values()})
                w = {j: x.numerator * (den // x.denominator) for j, x in vec.items() if x}
            out = {}  # final entries, each left of every live one, ascending
            last = self.pivots[-1] if self.pivots else -1
            while w:
                c = min(w)
                if c > last:
                    out.update(sorted(w.items()))
                    break
                entry = rows.get(c)
                if entry is None:
                    out[c] = w.pop(c)
                    continue
                if type(entry[0]) is int:
                    entry = self._row(c)
                f = w[c]
                cols, row = entry
                p = row[0]
                g = gcd(p, f)
                if g != p:
                    p //= g
                    w = {j: p * x for j, x in w.items()}
                    out = {j: p * x for j, x in out.items()}
                f //= g
                for j, x in zip(cols, row):
                    y = w.get(j, 0) - f * x
                    if y:
                        w[j] = y
                    else:
                        del w[j]
            cols, vals = list(out), list(out.values())
        else:
            if type(sum(vec)) is int:  # no Fraction entry, as one makes the sum a Fraction
                if type(vec) is tuple and not any(map(vec.__getitem__, self.pivots)):
                    c = next(self._support(vec), None)
                    if c is None:
                        return False
                    insort(self.pivots, c)
                    rows[c] = vec
                    return True
                w = list(vec)
            else:
                den = lcm(*set(map(_denominator, vec)))
                w = [x.numerator * (den // x.denominator) for x in vec]
            for c in self.pivots:
                f = w[c]
                if not f:
                    continue
                cols, row = self._row(c)
                p = row[0]
                g = gcd(p, f)
                if g != p:
                    p //= g
                    w = [p * x for x in w]
                f //= g
                for j, x in zip(cols, row):
                    w[j] -= f * x
            cols = list(self._support(w))
            vals = list(filter(None, w))
        if not cols:
            return False
        insort(self.pivots, cols[0])
        rows[cols[0]] = _primitive(cols, vals)
        return True

    def reduced(self):
        """The canonical RREF of the span, one sparse row {column: coeff} per
        pivot in pivot order.

        Back-substitution from the last pivot up: a stored row is cleared at
        each later pivot against that pivot's already reduced row, which is
        zero at every other pivot, and then divided by its own pivot entry: an
        int entry that the pivot divides stays an int."""
        out = {}
        for c in reversed(self.pivots):
            cols, vals = self._row(c)
            w = dict(zip(cols, vals))
            for j, f in zip(cols[1:], vals[1:]):
                red = out.get(j)
                if red is not None:
                    for k, x in red.items():
                        w[k] = w.get(k, 0) - f * x
            p = vals[0]
            out[c] = {
                k: (x // p if not x % p else Fraction(x, p)) if type(x) is int else _as_num(x / p)
                for k, x in sorted(w.items())
                if x
            }
        return [out[c] for c in self.pivots]
