"""Exact linear algebra over prime fields GF(p).

Matrices carry fully reduced numpy int64 residues together with their
field, and every subspace is stored in reduced row echelon form, so
equality, hashing and chain comparisons are exact and deterministic.
The fixed coordinate convention everywhere in this package is

    x_1, y_1, x_2, y_2, ..., x_n, y_n  ->  coordinates 0, 1, ..., 2n-1

(x_i at 2(i-1), y_i at 2i-1 in 0-based indexing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "is_prime",
    "PrimeField",
    "FieldElement",
    "Matrix",
    "rref",
    "nullspace",
    "Subspace",
    "subspace_sum",
    "subspace_intersect",
    "GramMatrix",
    "perp",
    "solve_against_form",
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

    def element(self, value) -> "FieldElement":
        return FieldElement(int(value) % self.p, self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1 % self.p, self)

    def inv(self, a: int) -> int:
        """Inverse of a unit mod p."""
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, -1, self.p)

    def units(self) -> range:
        return range(1, self.p)

    def reduce(self, data) -> np.ndarray:
        """Reduce arbitrary integer data to a read-only residue array."""
        arr = np.asarray(data, dtype=np.int64) % self.p
        arr.flags.writeable = False
        return arr

    def vector(self, values, length: int | None = None) -> np.ndarray:
        """Coerce a sequence of ints or FieldElements to a residue vector."""
        vals = [v.residue if isinstance(v, FieldElement) else int(v) for v in values]
        vec = self.reduce(vals)
        if vec.ndim != 1:
            raise ValueError("expected a one-dimensional vector")
        if length is not None and vec.shape[0] != length:
            raise ValueError(f"expected vector of length {length}, got {vec.shape[0]}")
        return vec


@dataclass(frozen=True)
class FieldElement:
    """A fully reduced residue in a prime field."""

    residue: int
    field: PrimeField

    def __post_init__(self):
        if not 0 <= self.residue < self.field.p:
            raise ValueError(f"residue {self.residue} not reduced mod {self.field.p}")

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other.residue
        return int(other)

    def __add__(self, other):
        return FieldElement((self.residue + self._coerce(other)) % self.field.p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement((self.residue - self._coerce(other)) % self.field.p, self.field)

    def __rsub__(self, other):
        return FieldElement((self._coerce(other) - self.residue) % self.field.p, self.field)

    def __mul__(self, other):
        return FieldElement((self.residue * self._coerce(other)) % self.field.p, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.residue % self.field.p, self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.residue), self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        return FieldElement(self.residue * self.field.inv(o) % self.field.p, self.field)

    def __bool__(self) -> bool:
        return self.residue != 0

    def __int__(self) -> int:
        return self.residue

    def __repr__(self) -> str:
        return f"{self.residue} (mod {self.field.p})"


@dataclass(frozen=True, eq=False)
class Matrix:
    """A dense matrix of residues over one prime field."""

    field: PrimeField
    data: np.ndarray

    def __post_init__(self):
        arr = self.field.reduce(self.data)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_rows(cls, field: PrimeField, rows) -> "Matrix":
        arr = np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
        if arr.ndim != 2:
            arr = arr.reshape(len(rows), -1)
        return cls(field, arr)

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(int(self.data[i, j]), self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.data.tolist()})"


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


def _eliminate(a: np.ndarray, p: int) -> list[int]:
    """Reduce the residue array a to RREF in place, one pivot at a time."""
    m, ncols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return pivots


def _merge_echelon(
    basis: np.ndarray, pivots: list[int], new: np.ndarray, new_pivots: list[int], p: int
) -> tuple[np.ndarray, list[int]]:
    """The RREF basis of span(basis) + span(new), and its pivot columns.

    basis and new are RREF row blocks with pivot columns pivots and
    new_pivots, and new vanishes on the columns pivots.  Clearing basis on
    the new pivot columns (one matmul) and interleaving the rows by pivot
    then gives the unique RREF, without eliminating again.
    """
    basis = (basis - _dot_mod(basis[:, new_pivots], new, p)) % p
    merged = list(pivots) + list(new_pivots)
    return np.vstack([basis, new])[np.argsort(merged)], sorted(merged)


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an integer array mod p.

    Returns (rref, pivot_columns). Rows of zeros sink to the bottom.

    Each pivot step of the elimination touches every row, which is waste on
    the tall, mostly redundant inputs the central series produce.  So only
    a head block of max(ncols, 2048 // ncols) rows, small enough that one
    step costs numpy call overhead rather than arithmetic, is eliminated
    pivot by pivot.  All remaining rows are then cleared against the head's
    basis in one residual round, rest - rest[:, pivots] @ basis (mod p),
    and the rows that became zero are dropped.  Rounds repeat on what is
    left; each new block's pivots are merged into the basis, which is
    first cleared on the new pivot columns, so the result is the unique
    RREF.  An input that fits in the head block runs the pivot loop alone.
    Exact in int64 while p * (p - 1) < 2**63 (see _dot_mod).
    """
    a = np.asarray(a, dtype=np.int64) % p
    m, ncols = a.shape
    head = max(ncols, 2048 // max(ncols, 1))
    if m <= head:
        return a, _eliminate(a, p)
    basis = a[:0]
    pivots: list[int] = []
    rest = a
    while rest.shape[0]:
        block = rest[:head].copy()
        new_pivots = _eliminate(block, p)
        basis, pivots = _merge_echelon(basis, pivots, block[: len(new_pivots)], new_pivots, p)
        rest = rest[head:]
        rest = (rest - _dot_mod(rest[:, pivots], basis, p)) % p
        rest = rest[rest.any(axis=1)]
    out = np.zeros_like(a)
    out[: len(pivots)] = basis
    return out, pivots


def rref(m: Matrix) -> Matrix:
    """The unique reduced row echelon form; row space is preserved."""
    arr, _ = _rref_array(m.data, m.field.p)
    return Matrix(m.field, arr)


def _free_columns(ncols: int, pivots) -> np.ndarray:
    """The columns 0 <= j < ncols that are not pivots, in increasing order."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def _kernel_rows(rref: np.ndarray, pivots, p: int) -> np.ndarray:
    """Rows spanning the right kernel of an RREF array with the given pivots.

    One row per free column f, in increasing order: 1 at f, and minus
    rref[r, f] at the pivot column of row r.
    """
    free = _free_columns(rref.shape[1], pivots)
    ker = np.zeros((free.size, rref.shape[1]), dtype=np.int64)
    ker[np.arange(free.size), free] = 1
    ker[:, pivots] = -rref[: len(pivots), free].T % p
    return ker


def nullspace(m: Matrix) -> Matrix:
    """Rows spanning the right kernel {x : m @ x = 0}.

    One elimination, then the free-variable basis read off the RREF
    (_kernel_rows).
    """
    a, pivots = _rref_array(m.data, m.field.p)
    return Matrix(m.field, _kernel_rows(a, pivots, m.field.p))


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of F^ambient_dim, stored as a canonical RREF basis.

    Two subspaces are equal iff their canonical bases agree entrywise,
    which makes them usable as dict keys and in chain comparisons.
    """

    field: PrimeField
    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width does not match ambient dimension")

    @classmethod
    def from_vectors(cls, field: PrimeField, ambient_dim: int, vectors) -> "Subspace":
        rows = np.asarray(vectors, dtype=np.int64).reshape(-1, ambient_dim)
        arr, pivots = _rref_array(rows, field.p)
        return cls(field, ambient_dim, Matrix(field, arr[: len(pivots)]))

    @classmethod
    def zero(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim))

    @classmethod
    def full(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def _spans(self, rows: np.ndarray) -> bool:
        """True iff every residue row lies in the subspace.

        A row v lies in the span of the RREF basis iff v equals its pivot
        entries times the basis, so the residual v - v[pivots] @ basis
        vanishes.
        """
        basis = self.basis.data
        pivots = self._pivots()
        p = self.field.p
        return not ((rows - _dot_mod(rows[:, pivots], basis, p)) % p).any()

    def _pivots(self) -> np.ndarray:
        """Pivot columns of the RREF basis, read off without eliminating."""
        return (self.basis.data != 0).argmax(axis=1)

    def contains(self, vector) -> bool:
        vec = self.field.vector(vector, self.ambient_dim)
        return self._spans(vec[None, :])

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise ValueError("ambient mismatch")
        return self._spans(other.basis.data)

    def basis_rows(self) -> np.ndarray:
        return self.basis.data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, {self.field!r})"


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient mismatch")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Canonical span of the union of the two bases."""
    _require_same_ambient(a, b)
    stacked = np.vstack([a.basis.data, b.basis.data])
    return Subspace.from_vectors(a.field, a.ambient_dim, stacked)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of row spaces.

    A vector lies in both spans iff it can be written c @ A = d @ B, so the
    kernel of [A^T | -B^T] yields the coefficient pairs.
    """
    _require_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.field, a.ambient_dim)
    stacked = np.hstack([a.basis.data.T, -b.basis.data.T % a.field.p])
    ker = nullspace(Matrix(a.field, stacked))
    if ker.rows == 0:
        return Subspace.zero(a.field, a.ambient_dim)
    coeffs = ker.data[:, : a.dim]
    vectors = _dot_mod(coeffs, a.basis.data, a.field.p)
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

    def pairing(self, u, v) -> FieldElement:
        """(u, v) = u @ G @ v, reduced after each contraction (see _dot_mod)."""
        p = self.field.p
        uu = self.field.vector(u, self.dim)
        vv = self.field.vector(v, self.dim)
        value = _dot_mod(_dot_mod(uu[None, :], self.data, p), vv[:, None], p)
        return self.field.element(int(value[0, 0]))

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
    ker = _kernel_rows(s.basis.data, s._pivots(), p)
    return Subspace.from_vectors(s.field, s.ambient_dim, ker @ g.data % p)


def solve_against_form(g: GramMatrix, rhs) -> np.ndarray:
    """The unique v with (v, u_k) = rhs[k] for every standard basis vector u_k.

    With the standard form this is closed-form: the x_k coefficient of v is
    the required pairing against y_k, and the y_k coefficient is minus the
    required pairing against x_k.
    """
    r = g.field.vector(rhs, g.dim)
    out = np.zeros(g.dim, dtype=np.int64)
    out[0::2] = r[1::2]
    out[1::2] = -r[0::2] % g.field.p
    return g.field.reduce(out)
