"""Exact linear algebra over prime fields GF(p).

Vectors and matrices are numpy int64 arrays of residues reduced mod p,
and every subspace holds its read-only reduced row echelon basis, so
equality, hashing and chain comparisons are exact and deterministic.
Eliminations run on sparse rows, one {column: residue} dict of Python
ints per row (_rref_rows).
The fixed coordinate convention everywhere in this package is

    x_1, y_1, x_2, y_2, ..., x_n, y_n  ->  coordinates 0, 1, ..., 2n-1

(x_i at 2(i-1), y_i at 2i-1 in 0-based indexing).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from dataclasses import field as dc_field

import numpy as np

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

    Residues live in int64, and every contraction (see _dot_mod) is exact
    only below that bound; the largest such prime is 3037000493.
    """

    p: int = 3

    def __post_init__(self):
        # checked first: trial division on such a p would take hours
        if self.p * (self.p - 1) >= 2**63:
            raise ValueError(
                f"field order {self.p} too large: exact int64 arithmetic needs p * (p - 1) < 2**63"
            )
        if not is_prime(self.p):
            raise ValueError(f"field order must be prime, got {self.p}")

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def inv(self, a: int) -> int:
        """Inverse of a unit mod p."""
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, -1, self.p)

    def reduce(self, data) -> np.ndarray:
        """Reduce arbitrary integer data to a read-only residue array."""
        arr = np.asarray(data, dtype=np.int64) % self.p
        arr.flags.writeable = False
        return arr

    def vector(self, values, length: int | None = None) -> np.ndarray:
        """Coerce a sequence of ints to a residue vector."""
        vec = self.reduce([int(v) for v in values])
        if vec.ndim != 1:
            raise ValueError("expected a one-dimensional vector")
        if length is not None and vec.shape[0] != length:
            raise ValueError(f"expected vector of length {length}, got {vec.shape[0]}")
        return vec


def _dot_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays, exact in int64 while p * (p - 1) < 2**63.

    The inner dimension is split into steps of s terms with
    s * (p - 1)**2 + (p - 1) < 2**63, and the running sum is reduced after
    each step, so no partial sum leaves int64.  b may carry leading batch
    axes, as in numpy's matmul.
    """
    inner = a.shape[-1]
    step = (2**63 - p) // (p - 1) ** 2
    if step == 0:
        raise ValueError(f"no exact int64 products mod {p}: needs p * (p - 1) < 2**63")
    if inner <= step:
        return a @ b % p
    out = a[..., :step] @ b[..., :step, :] % p
    for start in range(step, inner, step):
        out = (out + a[..., start : start + step] @ b[..., start : start + step, :]) % p
    return out


def _clear(row: dict[int, int], c: int, pivot_row: dict[int, int], p: int) -> None:
    """row -= row[c] * pivot_row (mod p) on sparse rows, dropping zeros."""
    f = row[c]
    for j, v in pivot_row.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


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
    there and cleared from the basis rows that have a nonzero in that
    column.  Each step thus touches only rows with a nonzero where it
    works, and a redundant row costs one clearing per nonzero pivot column
    it meets.  RREF is unique, so the row order does not change the result.
    """
    basis: dict[int, dict[int, int]] = {}
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
        for other in basis.values():
            if c in other:
                _clear(other, c, row, p)
        basis[c] = row
    return {c: basis[c] for c in sorted(basis)}


def _dict_rows(a: np.ndarray) -> list[dict[int, int]]:
    """The nonzero rows of a 2-D residue array as {column: residue} dicts
    of Python ints, read through one np.nonzero; zero rows are dropped."""
    ri, ci = np.nonzero(a)
    rows: dict[int, dict[int, int]] = {}
    for i, j, v in zip(ri.tolist(), ci.tolist(), a[ri, ci].tolist()):
        rows.setdefault(i, {})[j] = v
    return list(rows.values())


def _rows_array(rows: list[dict[int, int]], shape) -> np.ndarray:
    """A zero int64 array of the given shape with the dict rows written
    into its first rows by one fancy-index assignment."""
    out = np.zeros(shape, dtype=np.int64)
    out[
        [i for i, row in enumerate(rows) for _ in row],
        [j for row in rows for j in row],
    ] = [v for row in rows for v in row.values()]
    return out


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an integer array mod p.

    Returns (rref, pivot_columns): a new array of the input's shape, its
    zero rows at the bottom.  After one reduction mod p the nonzeros are
    read into dict rows (_dict_rows), so zero rows cost nothing, and
    eliminated by _rref_rows.
    """
    a = np.asarray(a, dtype=np.int64) % p
    basis = _rref_rows(_dict_rows(a), p)
    return _rows_array(list(basis.values()), a.shape), list(basis)


def _kernel_rows(rref: np.ndarray, pivots, p: int) -> np.ndarray:
    """Rows spanning the right kernel of an RREF array with the given pivots.

    One row per free column f, in increasing order: 1 at f, and minus
    rref[r, f] at the pivot column of row r.
    """
    free = np.ones(rref.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    ker = np.zeros((free.size, rref.shape[1]), dtype=np.int64)
    ker[np.arange(free.size), free] = 1
    ker[:, pivots] = -rref[: len(pivots), free].T % p
    return ker


def _reversed_kernel(
    rows, ncols: int, p: int
) -> tuple[np.ndarray, dict[int, dict[int, int]]]:
    """(K, R) from one elimination of dict rows whose columns come reversed,
    column c at key ncols - 1 - c: K the canonical RREF basis of the right
    kernel {x : rows @ x = 0 (mod p)} in the original column order, and R
    the RREF {pivot: row} of the reversed rows, which spans their row space.

    In the reversed order a kernel row (see _kernel_rows) has its 1 at a
    free column and its other entries at the pivot columns of RREF rows
    that start before it, so flipped back it leads with that 1 and is
    nonzero elsewhere only at pivot columns to its right.  Taken in
    increasing order of their flipped free columns, these rows are thus the
    RREF of the kernel, and no second elimination is needed.  Each RREF row
    is zero on the other pivot columns, so its entries other than its
    pivot lie on free columns.
    """
    basis = _rref_rows(rows, p)
    kernel = {f: {ncols - 1 - f: 1} for f in range(ncols - 1, -1, -1) if f not in basis}
    for q, row in basis.items():
        for f, v in row.items():
            if f != q:
                kernel[f][ncols - 1 - q] = p - v
    return _rows_array(list(kernel.values()), (len(kernel), ncols)), basis


def nullspace(rows: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning the right kernel {x : rows @ x = 0 (mod p)}.

    One elimination, then the free-variable basis read off the RREF
    (_kernel_rows).
    """
    a, pivots = _rref_array(rows, p)
    return _kernel_rows(a, pivots, p)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of F^ambient_dim, held as its canonical RREF basis.

    basis is a read-only int64 array of residues, one row per dimension
    and no zero rows.  A basis passed directly must already be the RREF,
    and one that is not is refused; from_vectors computes it.  Two
    subspaces are equal iff their canonical bases agree entrywise, which
    makes them usable as dict keys and in chain comparisons.
    """

    field: PrimeField
    ambient_dim: int
    basis: np.ndarray
    _pivot_columns: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        basis = self.field.reduce(self.basis)
        if basis.ndim != 2 or basis.shape[1] != self.ambient_dim:
            raise ValueError(
                f"basis must be two-dimensional of width {self.ambient_dim}, got {basis.shape}"
            )
        # argmax reads the first nonzero column of each row.  With increasing
        # pivots, basis[:, pivots] is upper triangular, and it is the identity
        # iff its diagonal is 1 and it has no other nonzero.  A zero row reads
        # column 0 and puts a zero on the diagonal (a zero-width basis reads
        # no pivots, so any row of it fails the count).
        pivots = (basis != 0).argmax(axis=1) if basis.size else np.zeros(0, dtype=np.intp)
        order = pivots.tolist()
        block = basis[:, pivots]
        if not (
            all(map(operator.lt, order, order[1:]))
            and np.count_nonzero(block) == len(basis)
            and (block.diagonal() == 1).all()
        ):
            raise ValueError("basis must be in reduced row echelon form, without zero rows")
        pivots.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivot_columns", pivots)

    @classmethod
    def from_vectors(cls, field: PrimeField, ambient_dim: int, vectors) -> "Subspace":
        rows = np.asarray(vectors, dtype=np.int64).reshape(-1, ambient_dim)
        arr, pivots = _rref_array(rows, field.p)
        return cls(field, ambient_dim, arr[: len(pivots)])

    @classmethod
    def zero(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64))

    @classmethod
    def full(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, np.eye(ambient_dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_zero(self) -> bool:
        return self.dim == 0

    def _residuals(self, rows: np.ndarray) -> np.ndarray:
        """The residual v - v[pivots] @ basis of each residue row v.

        A row lies in the span of the RREF basis iff it equals its pivot
        entries times the basis, so iff its residual vanishes.
        """
        p = self.field.p
        return (rows - _dot_mod(rows[:, self._pivot_columns], self.basis, p)) % p

    def _spans(self, rows: np.ndarray) -> bool:
        """True iff every residue row lies in the subspace (see _residuals)."""
        return not self._residuals(rows).any()

    def contains(self, vector) -> bool:
        vec = self.field.vector(vector, self.ambient_dim)
        return self._spans(vec[None, :])

    def contains_subspace(self, other: "Subspace") -> bool:
        _require_same_ambient(self, other)
        return self._spans(other.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ambient_dim, self.basis.shape, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, {self.field!r})"


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient mismatch")


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of row spaces.

    A vector lies in both spans iff it can be written c @ A = d @ B, so the
    kernel of [A^T | -B^T] yields the coefficient pairs.
    """
    _require_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.field, a.ambient_dim)
    p = a.field.p
    ker = nullspace(np.hstack([a.basis.T, -b.basis.T % p]), p)
    if ker.shape[0] == 0:
        return Subspace.zero(a.field, a.ambient_dim)
    vectors = _dot_mod(ker[:, : a.dim], a.basis, p)
    return Subspace.from_vectors(a.field, a.ambient_dim, vectors)


class GramMatrix:
    """The standard symplectic form on 2n coordinates.

    Pairings on the standard basis: (x_i, y_i) = 1, (y_i, x_i) = -1 and all
    other basis pairings vanish; the matrix is invertible by construction.
    """

    def __init__(self, field: PrimeField, n: int):
        if n < 1:
            raise ValueError("half-dimension n must be at least 1")
        self.field = field
        self.n = n
        data = np.zeros((2 * n, 2 * n), dtype=np.int64)
        for i in range(n):
            data[2 * i, 2 * i + 1] = 1
            data[2 * i + 1, 2 * i] = -1 % field.p
        data.flags.writeable = False
        self.data = data

    @property
    def dim(self) -> int:
        return 2 * self.n

    def pairing(self, u, v) -> int:
        """(u, v) = u @ G @ v, reduced after each contraction (see _dot_mod)."""
        p = self.field.p
        uu = self.field.vector(u, self.dim)
        vv = self.field.vector(v, self.dim)
        value = _dot_mod(_dot_mod(uu[None, :], self.data, p), vv[:, None], p)
        return int(value[0, 0])

    def __eq__(self, other) -> bool:
        return isinstance(other, GramMatrix) and self.field == other.field and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.field.p, self.n))

    def __repr__(self) -> str:
        return f"GramMatrix(n={self.n}, {self.field!r})"


def perp(s: Subspace, g: GramMatrix) -> Subspace:
    """The orthogonal complement {v : (u, v) = 0 for all u in s}.

    dim s + dim perp(s) = 2n and perp(perp(s)) = s since the form is
    non-degenerate.  With B the RREF basis of s and G the standard form,
    G^-1 = -G = G^T, so v lies in perp(s) iff v = w G with B w = 0.  The
    kernel rows w are read off B itself, and one elimination of w G gives
    the canonical basis.  G is a signed permutation, so each entry of w G
    is one product and stays exact in int64.
    """
    if s.ambient_dim != g.dim or s.field != g.field:
        raise ValueError("ambient mismatch")
    if s.dim == 0:
        return Subspace.full(s.field, s.ambient_dim)
    p = s.field.p
    ker = _kernel_rows(s.basis, s._pivot_columns, p)
    return Subspace.from_vectors(s.field, s.ambient_dim, ker @ g.data % p)


def _pairing_matrix(a: Subspace, b: Subspace, g: GramMatrix) -> np.ndarray:
    """The pairings (u, v) for u over a's basis rows and v over b's.

    One matmul, A G B^T mod p.  G is a signed permutation, so each entry
    of A G is one product of residues, and _dot_mod keeps the second
    product exact in int64 for every accepted p.
    """
    for s in (a, b):
        if s.ambient_dim != g.dim or s.field != g.field:
            raise ValueError("ambient mismatch")
    p = g.field.p
    return _dot_mod(a.basis @ g.data % p, b.basis.T, p)


def orthogonal(a: Subspace, b: Subspace, g: GramMatrix) -> bool:
    """True iff every vector of a pairs to zero with every vector of b.

    That is, a lies in perp(b), read off one pairing matrix of the two
    bases (see _pairing_matrix) instead of building the perp.  The form is
    non-degenerate, so dim perp(b) = 2n - dim b, and a = perp(b) holds
    exactly when dim a + dim b = 2n and orthogonal(a, b, g).
    """
    return not _pairing_matrix(a, b, g).any()

