"""Exact linear algebra over prime fields GF(p).

All arithmetic runs on sparse rows, one {column: residue} dict of
nonzero Python-int residues per row, so it is exact for every p
(_rref_rows).  Python ints are the only number format: every vector or
matrix passed in, of lists, tuples or numpy integers, is read once into
exact residues (_read), and every one handed out is a tuple of Python ints
or of such rows.  Every subspace holds its reduced row echelon basis as
dict rows, checked on construction, so equality, hashing and chain
comparisons are exact and deterministic.
The fixed coordinate convention everywhere in this package is

    x_1, y_1, x_2, y_2, ..., x_n, y_n  ->  coordinates 0, 1, ..., 2n-1

(x_i at 2(i-1), y_i at 2i-1 in 0-based indexing).  The standard form
GramMatrix(field, n) acts on dict rows in one place (_times_form).  The
rows spanning a subspace's perp are read off its basis in one place
(_perp_rows), and the vectors orthogonal to arbitrary rows are one
elimination (_keyed_orthogonal, which _orthogonal feeds rows it relabels).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "is_prime",
    "PrimeField",
    "nullspace",
    "Subspace",
    "subspace_intersect",
    "GramMatrix",
    "perp",
    "orthogonal",
]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field GF(p), for primes with p * (p - 1) < 2**63.

    Arithmetic runs on Python ints and is exact for every p; the bound,
    whose largest prime is 3037000493, is kept for compatibility, so the
    same field orders are accepted and refused as before.
    """

    p: int = 3

    def __post_init__(self):
        # checked first: trial division on such a p would take hours
        if self.p * (self.p - 1) >= 2**63:
            raise ValueError(
                f"field order {self.p} too large: the accepted primes have p * (p - 1) < 2**63"
            )
        if not is_prime(self.p):
            raise ValueError(f"field order must be prime, got {self.p}")

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def inv(self, a: int) -> int:
        """Inverse of a unit mod p; a non-integer raises ValueError (_residue)."""
        a = _residue(a, self.p)
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, -1, self.p)

    def reduce(self, data) -> tuple:
        """A vector's entries, or a matrix's rows, as residues mod p: a tuple
        of Python ints, or a tuple of such rows (_read).  A matrix is told
        apart by its first entry, a row."""
        try:
            items = list(data)
        except TypeError:
            raise ValueError(f"expected a vector or a matrix, got {data!r}") from None
        if items and hasattr(items[0], "__iter__"):
            return _read(items, self.p)
        return self.vector(items)

    def vector(self, values, length: int | None = None) -> tuple[int, ...]:
        """A vector of integers as a tuple of residues mod p (_read)."""
        return _read([values], self.p, length)[0]


def _residue(value, p: int) -> int:
    """The exact residue mod p of an outside integer, a Python int or a
    numpy integer of any dtype, read by operator.index; anything it refuses,
    such as a float or a string, raises ValueError."""
    try:
        return operator.index(value) % p
    except TypeError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def _read(data, p: int, width: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The rows of an outside matrix, such as a list of lists or a 2-D numpy
    array, as tuples of residues mod p (_residue): the one reader of outside
    vectors and matrices.  Every row must have width entries, or, for width
    None, as many as the first; a row that is not a sequence of integers, or
    of another width, raises ValueError."""
    try:
        rows = tuple(tuple(_residue(v, p) for v in row) for row in data)
    except TypeError:
        raise ValueError("expected a two-dimensional matrix: rows of integers") from None
    width = len(rows[0]) if width is None and rows else width
    if any(len(row) != width for row in rows):
        raise ValueError(f"expected rows of width {width}")
    return rows


def _clear(row: dict[int, int], c: int, pivot_row: dict[int, int], p: int) -> None:
    """row -= row[c] * pivot_row (mod p) on sparse rows, dropping zeros."""
    f = row[c]
    for j, v in pivot_row.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


def _combine(terms) -> dict[int, int]:
    """sum c * row over the (c, row) pairs of dict rows, unreduced."""
    out: dict[int, int] = {}
    for c, row in terms:
        for j, v in row.items():
            out[j] = out.get(j, 0) + c * v
    return out


def _reduced(row: dict[int, int], p: int) -> dict[int, int]:
    """A dict row reduced mod p, its zeros dropped."""
    return {j: r for j, x in row.items() if (r := x % p)}


def _rref_rows(rows, p: int) -> dict[int, dict[int, int]]:
    """Reduced row echelon form mod p of sparse rows: {pivot column: row}.

    rows is an iterable of {column: residue} dicts of nonzero residues of
    Python ints, which keeps every step exact for any p; the rows are
    consumed, and the basis is returned in increasing pivot order.  The
    inputs are sparse, a few nonzeros per row, so the rows are taken one
    at a time.  The basis found so far is in RREF, each of its rows zero on
    the other pivot columns, so clearing a row on the pivot columns where
    it has a nonzero leaves it zero on every pivot column.  A row that is
    not then zero brings a new pivot, its first nonzero: it is scaled to 1
    there and cleared from the basis rows with a nonzero in that column,
    found among the pivots holders[c] lists under each column a row gains.
    Each step thus touches only rows with a nonzero where it works, and a
    redundant row costs one clearing per nonzero pivot column it meets.
    RREF is unique, so the row order does not change the result.
    """
    basis: dict[int, dict[int, int]] = {}
    holders: dict[int, list[int]] = {}
    for row in rows:
        for c in [c for c in row if c in basis]:
            _clear(row, c, basis[c], p)
        if not row:
            continue
        c = min(row)
        inv = pow(row[c], -1, p)
        if inv != 1:
            for j, v in row.items():
                row[j] = v * inv % p
        columns = [j for j in row if j != c]
        for q in holders.pop(c, ()):
            if c in (other := basis[q]):
                _clear(other, c, row, p)
                for j in columns:
                    holders.setdefault(j, []).append(q)
        for j in columns:
            holders.setdefault(j, []).append(c)
        basis[c] = row
    return {c: basis[c] for c in sorted(basis)}


def _dict_rows(rows) -> list[dict[int, int]]:
    """The nonzero rows of a matrix of residues as {column: residue} dicts;
    zero rows are dropped."""
    return [d for row in rows if (d := {j: v for j, v in enumerate(row) if v})]


def _dense(row: dict[int, int], width: int) -> tuple[int, ...]:
    """A dict row written out as a tuple of width residues."""
    return tuple(row.get(j, 0) for j in range(width))


def _rref_array(a, p: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Reduced row echelon form of an integer matrix mod p.

    Returns (rref, pivot_columns): rref of the input's shape, in tuples of
    Python ints, its zero rows at the bottom.  The matrix is read once
    (_read) into dict rows, so zero rows cost nothing, for _rref_rows.
    """
    rows = _read(a, p)
    basis = _rref_rows(_dict_rows(rows), p)
    rref = [*basis.values()] + [{}] * (len(rows) - len(basis))
    return tuple(_dense(row, len(rows[0])) for row in rref), list(basis)


def _free_kernel(basis: dict[int, dict[int, int]], labels, p: int) -> list[dict[int, int]]:
    """Dict rows spanning the right kernel of an RREF {pivot: row} with
    len(labels) columns, the entry at column c written at key labels[c].

    One row per free column f, in increasing order: 1 at f, and minus the
    entry at f of the row with pivot q at q.  Each RREF row is zero on the
    other pivot columns, so its entries other than its pivot lie on free
    columns.
    """
    kernel = {f: {labels[f]: 1} for f in range(len(labels)) if f not in basis}
    for q, row in basis.items():
        for f, v in row.items():
            if f != q:
                kernel[f][labels[q]] = p - v
    return list(kernel.values())


def nullspace(rows, p: int, width: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Rows spanning the right kernel {x : rows @ x = 0 (mod p)}, in tuples
    of Python ints: one elimination, then the free-variable basis read off
    the RREF (_free_kernel).  width, the number of unknowns, is that of the
    first row unless given; a matrix with no rows needs it.
    """
    rows = _read(rows, p, width)
    width = len(rows[0]) if rows else width
    if width is None:
        raise ValueError("a matrix with no rows needs a width")
    kernel = _free_kernel(_rref_rows(_dict_rows(rows), p), range(width), p)
    return tuple(_dense(row, width) for row in kernel)


class Subspace:
    """A subspace of F^ambient_dim, held as its canonical RREF basis.

    rows holds the RREF as a tuple of {column: residue} dicts of nonzero
    Python-int residues, one per dimension, in increasing pivot order, and
    pivots holds each row's pivot column.  Every constructor checks that the
    rows are the RREF (_check_rref), and one that is not is refused; a basis
    passed directly must already be the RREF, and from_vectors computes
    it.  RREF is unique, so two subspaces are equal iff their rows agree,
    which makes them usable as dict keys and in chain comparisons.  The
    rows are shared by every reader and must not be changed.

    basis, the same RREF as a tuple of rows of Python ints, and _by_pivot,
    the rows as a {pivot: row} dict, are each built on first read and held,
    for outside callers and for the membership tests and kernels.  Instances
    are immutable and safe to share across threads: a race on a first read
    can at worst build the same value twice.
    """

    def __init__(self, field: PrimeField, ambient_dim: int, basis):
        basis = _read(basis, field.p, ambient_dim)
        # a zero row is kept, as {}, so that _check_rref refuses it
        rows = tuple({j: v for j, v in enumerate(row) if v} for row in basis)
        self._set(field, ambient_dim, rows)
        vars(self)["basis"] = basis

    @classmethod
    def _from_rows(cls, field: PrimeField, ambient_dim: int, rows) -> "Subspace":
        """The subspace whose RREF is the given dict rows, refused unless
        they are one (_check_rref).  The rows are held, not copied."""
        space = cls.__new__(cls)
        space._set(field, ambient_dim, tuple(rows))
        return space

    def _set(self, field, ambient_dim, rows) -> None:
        pivots = _check_rref(rows, ambient_dim, field.p)
        vars(self).update(field=field, ambient_dim=ambient_dim, rows=rows, pivots=pivots)

    def __setattr__(self, name, value):
        # cached_property writes to the instance dict, not through here
        raise AttributeError(f"Subspace is immutable: cannot set {name}")

    @classmethod
    def from_vectors(cls, field: PrimeField, ambient_dim: int, vectors) -> "Subspace":
        rows = _dict_rows(_read(vectors, field.p, ambient_dim))
        return cls._from_rows(field, ambient_dim, _rref_rows(rows, field.p).values())

    @classmethod
    def zero(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls._from_rows(field, ambient_dim, ())

    @classmethod
    def full(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls._from_rows(field, ambient_dim, ({c: 1} for c in range(ambient_dim)))

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The RREF as a tuple of rows of Python ints, built on first read."""
        return tuple(_dense(row, self.ambient_dim) for row in self.rows)

    @cached_property
    def _by_pivot(self) -> dict[int, dict[int, int]]:
        """The RREF as {pivot: row}, built on first read and held; the rows
        are shared and must not be changed."""
        return dict(zip(self.pivots, self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def _residuals(self, rows):
        """The residual row - row[pivots] @ rows of each dict row, reduced,
        one at a time.

        A row lies in the span of the RREF basis iff it equals its pivot
        entries times the basis, so iff its residual is empty.
        """
        p, by_pivot = self.field.p, self._by_pivot
        for row in rows:
            terms = [(-f, by_pivot[c]) for c, f in row.items() if c in by_pivot]
            yield _reduced(_combine([(1, row), *terms]), p)

    def _spans(self, rows) -> bool:
        """True iff every nonzero dict row lies in the subspace (see
        _residuals).

        A row equal to the basis row at its first column lies in the
        subspace with no residual to compute, so only the other rows are
        reduced.
        """
        by_pivot = self._by_pivot
        return not any(self._residuals(row for row in rows if by_pivot.get(min(row)) != row))

    def contains(self, vector) -> bool:
        return self._spans(_dict_rows([self.field.vector(vector, self.ambient_dim)]))

    def contains_subspace(self, other: "Subspace") -> bool:
        _require_same_ambient(self, other)
        return self._spans(other.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self.rows)
        return hash((self.field.p, self.ambient_dim, rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, {self.field!r})"


def _check_rref(rows, ambient_dim: int, p: int) -> tuple[int, ...]:
    """The pivot columns of dict rows that are an RREF of width ambient_dim
    mod p; anything else raises ValueError.

    Each row must be nonzero with residues in [1, p) on columns in
    [0, ambient_dim), its pivot, its first nonzero column, must hold 1, the
    pivots must increase, and no row may have an entry on another row's
    pivot column.  Each row meets its own pivot column, so the last holds
    iff the rows meet pivot columns exactly len(rows) times.
    """
    if not all(rows):
        raise ValueError("basis must be in reduced row echelon form, without zero rows")
    pivots = tuple(map(min, rows))
    columns = set(pivots)
    if not (
        all(map(operator.lt, pivots, pivots[1:]))
        and all(row[c] == 1 for row, c in zip(rows, pivots))
        and sum(len(columns & row.keys()) for row in rows) == len(rows)
    ):
        raise ValueError("basis must be in reduced row echelon form, without zero rows")
    if not rows:
        return pivots
    if pivots[0] < 0 or max(map(max, rows)) >= ambient_dim:
        raise ValueError(f"basis columns must lie in [0, {ambient_dim})")
    if min(min(row.values()) for row in rows) < 1 or max(max(row.values()) for row in rows) >= p:
        raise ValueError(f"basis entries must be residues mod {p}")
    return pivots


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient mismatch")


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of row spaces.

    A row space is the kernel of its annihilator, the rows spanning the
    right kernel of its RREF (_free_kernel), so a and b meet in the kernel
    of both annihilators stacked: one elimination, its free-variable
    basis, and one more elimination for the canonical basis.
    """
    _require_same_ambient(a, b)
    p, labels = a.field.p, range(a.ambient_dim)
    annihilators = [
        row for s in (a, b) for row in _free_kernel(s._by_pivot, labels, p)
    ]
    kernel = _free_kernel(_rref_rows(annihilators, p), labels, p)
    return Subspace._from_rows(a.field, a.ambient_dim, _rref_rows(kernel, p).values())


@dataclass(frozen=True)
class GramMatrix:
    """The standard symplectic form on 2n coordinates, held as field and n.

    Pairings on the standard basis: (x_i, y_i) = 1, (y_i, x_i) = -1 and all
    other basis pairings vanish; the form is non-degenerate by construction.
    The package applies it as a relabelling of dict rows (_times_form).
    """

    field: PrimeField
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("half-dimension n must be at least 1")

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """The matrix G as a tuple of rows of Python ints, built on each read
        and not held: the block [[0, 1], [-1, 0]] on the diagonal at x_i, y_i
        for each i."""
        p, dim = self.field.p, self.dim
        return tuple(_dense({i + 1: 1} if i % 2 == 0 else {i - 1: p - 1}, dim) for i in range(dim))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def pairing(self, u, v) -> int:
        """(u, v) = u G v^T, on u and v read as dict rows (_pairing_rows)."""
        u_rows, v_rows = (_dict_rows([self.field.vector(w, self.dim)]) for w in (u, v))
        if not (u_rows and v_rows):
            return 0
        return next(_pairing_rows(u_rows, v_rows, self.field.p)).get(0, 0)

    def __repr__(self) -> str:
        return f"GramMatrix(n={self.n}, {self.field!r})"


def _times_form(rows, p: int, key=None) -> list[dict[int, int]]:
    """Each dict row u times the standard form G, its entry at column j
    then written at key[j] when a key is given.

    G is a signed permutation: u G moves u's entry at c to c ^ 1, its sign
    flipped on odd c.  This is the one place the package applies the form;
    GramMatrix.data writes it out densely for independent checks.
    """
    if key is None:
        return [{c ^ 1: p - v if c & 1 else v for c, v in row.items()} for row in rows]
    return [{key[c ^ 1]: p - v if c & 1 else v for c, v in row.items()} for row in rows]


def _reversed_ranks(order) -> dict[int, int]:
    """The key that writes column order[t] at len(order) - 1 - t."""
    return dict(zip(order, reversed(range(len(order)))))


def _orthogonal(rows, order, p: int) -> list[dict[int, int]]:
    """The canonical RREF basis, as dict rows, of the vectors orthogonal to
    every dict row, with the columns ranked by order (order[0] first); one
    elimination.

    v is orthogonal to u iff (u G) v = 0, so the basis is the right kernel
    of the rows times G.  This layer relabels the rows, once, by
    _times_form with the reversed ranks as key (_reversed_ranks), and
    _keyed_orthogonal eliminates them; a caller that holds its rows already
    relabelled calls that layer directly.
    """
    return _keyed_orthogonal(_times_form(rows, p, _reversed_ranks(order)), order, p)


def _keyed_orthogonal(keyed, order, p: int) -> list[dict[int, int]]:
    """The basis of _orthogonal from dict rows already times G and keyed at
    the reversed ranks of order (_reversed_ranks); the rows are consumed.

    Keyed at reversed ranks, a kernel row (see _free_kernel) has its 1 at a
    free column and its other entries at the pivot columns of RREF rows that
    start before it, so read in rank order it leads with that 1 and is
    nonzero elsewhere only at pivot columns ranked after it.  Taken in
    increasing rank of their free columns, these rows are thus the RREF in
    that order, and no second elimination is needed.
    """
    return _free_kernel(_rref_rows(keyed, p), order[::-1], p)[::-1]


def _perp_rows(s: Subspace) -> list[dict[int, int]]:
    """Independent dict rows spanning perp(s): w G for the kernel rows w of
    s's RREF B (_free_kernel), since G^-1 = -G = G^T puts v in perp(s) iff
    v = w G with B w = 0.  This is the one place a perp is read off a
    basis."""
    kernel = _free_kernel(s._by_pivot, range(s.ambient_dim), s.field.p)
    return _times_form(kernel, s.field.p)


def perp(s: Subspace, g: GramMatrix) -> Subspace:
    """The orthogonal complement {v : (u, v) = 0 for all u in s}.

    dim s + dim perp(s) = 2n and perp(perp(s)) = s since the form is
    non-degenerate.  The 2n - dim s rows read off s's basis (_perp_rows)
    are reduced by one elimination to the canonical basis.
    """
    if s.ambient_dim != g.dim or s.field != g.field:
        raise ValueError("ambient mismatch")
    basis = _rref_rows(_perp_rows(s), s.field.p)
    return Subspace._from_rows(s.field, s.ambient_dim, basis.values())


def _pairing_rows(a_rows, b_rows, p: int):
    """The pairings (u, v) under the standard form, one dict row
    {t: (u, b_t)} of nonzero residues per dict row u of a_rows, with b_t
    the rows of b_rows, yielded one at a time, so a caller that stops at
    the first nonzero row computes no more.

    (u, v) = (u G) v^T, with u G read off _times_form.  b's entries are
    indexed by their column, and each pairing sums only the products of
    entries that meet, on Python ints, exact for any p.

    When b_rows is a_rows, the row of u_s holds (u_s, u_t) for t > s alone.
    The form is alternating, (u, u) = 0 and (v, u) = -(u, v), so these
    pairings decide every other one.  The rows are then taken from the last
    one down, each indexed after its own pairings are summed, so each
    pairing meets only the rows after it.
    """
    same = b_rows is a_rows
    meets: dict[int, list[tuple[int, int]]] = {}
    if not same:
        for t, v in enumerate(b_rows):
            for j, y in v.items():
                meets.setdefault(j, []).append((t, y))
    order = range(len(a_rows) - 1, -1, -1) if same else range(len(a_rows))
    for s, ug in zip(order, _times_form([a_rows[i] for i in order], p)):
        sums: dict[int, int] = {}
        for c, x in ug.items():
            for t, y in meets.get(c, ()):
                sums[t] = sums.get(t, 0) + x * y
        yield _reduced(sums, p)
        if same:
            for j, y in a_rows[s].items():
                meets.setdefault(j, []).append((s, y))


def orthogonal(a: Subspace, b: Subspace, g: GramMatrix) -> bool:
    """True iff every vector of a pairs to zero with every vector of b.

    That is, a lies in perp(b), read off the pairings of the two bases'
    dict rows (_pairing_rows) instead of building the perp, up to the first
    pairing row that is not zero.  For b = a, as for is_isotropic, each
    pair of basis rows is paired once (see _pairing_rows).  The form is
    non-degenerate, so dim perp(b) = 2n - dim b, and a = perp(b) holds
    exactly when dim a + dim b = 2n and orthogonal(a, b, g).
    """
    for s in (a, b):
        if s.ambient_dim != g.dim or s.field != g.field:
            raise ValueError("ambient mismatch")
    rows = a.rows
    return not any(_pairing_rows(rows, rows if a == b else b.rows, g.field.p))
