"""Symplectic alternating algebras: structure tensor, multiplication and
central-series analysis.

An algebra is determined by a presentation: the list of nonzero values
(u_i u_j, u_k) on triples of distinct standard basis vectors.  The product
is recovered through the non-degenerate form as

    u . v = sum_k (u v, y_k) x_k  -  sum_k (u v, x_k) y_k,

which is the one place a sign can silently go wrong: the y_k coefficient
carries the minus.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from functools import wraps

import numpy as np

from .linalg import (
    FieldElement,
    GramMatrix,
    Matrix,
    PrimeField,
    Subspace,
    _dot_mod,
    _free_columns,
    _kernel_rows,
    _merge_echelon,
    _rref_array,
    perp,
    solve_against_form,
    subspace_intersect,
)

__all__ = [
    "BasisVector",
    "PresentationTriple",
    "Presentation",
    "StructureTensor",
    "Algebra",
    "SeriesReport",
    "NotNilpotentError",
    "ChainError",
    "build_algebra",
    "multiply",
    "form",
    "product_space",
    "full_space",
    "zero_space",
    "lower_central_series",
    "upper_central_series",
    "series_report",
    "nilpotency_class",
    "rank",
    "is_ideal",
    "is_isotropic",
    "is_abelian",
    "isotropic_ideal_chain",
    "validate_nilpotent_presentation",
    "is_maximal_class_criterion",
    "maximal_class_structure_check",
]


class NotNilpotentError(ValueError):
    """Raised when an operation requires a nilpotent algebra."""


class ChainError(RuntimeError):
    """Raised when no isotropic ideal chain extension exists."""


@dataclass(frozen=True, order=True)
class BasisVector:
    """A standard basis vector x_i or y_i, with 1-based index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in ("x", "y"):
            raise ValueError(f"kind must be 'x' or 'y', got {self.kind!r}")
        if self.index < 1:
            raise ValueError(f"index must be positive, got {self.index}")

    @property
    def coordinate(self) -> int:
        """0-based coordinate under the x_1, y_1, ..., x_n, y_n order."""
        return 2 * (self.index - 1) + (1 if self.kind == "y" else 0)

    @classmethod
    def from_coordinate(cls, c: int) -> "BasisVector":
        return cls("y" if c % 2 else "x", c // 2 + 1)

    @classmethod
    def parse(cls, token: str) -> "BasisVector":
        if len(token) < 2 or token[0] not in "xy" or not token[1:].isdigit():
            raise ValueError(f"bad basis vector token {token!r}")
        return cls(token[0], int(token[1:]))

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class PresentationTriple:
    """One record (a b, c) = value of a presentation."""

    a: BasisVector
    b: BasisVector
    c: BasisVector
    value: FieldElement

    @property
    def vectors(self) -> tuple[BasisVector, BasisVector, BasisVector]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a} {self.b}, {self.c}) = {self.value.residue}"


def _triple_sort_key(t: PresentationTriple):
    return tuple((v.kind, v.index) for v in t.vectors)


@dataclass(frozen=True)
class Presentation:
    """A presentation of a 2n-dimensional algebra by nonzero triple values."""

    n: int
    field: PrimeField
    triples: tuple[PresentationTriple, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        seen: set[frozenset[BasisVector]] = set()
        for t in self.triples:
            for v in t.vectors:
                if v.index > self.n:
                    raise ValueError(f"basis vector {v} out of range for n={self.n}")
            if len({v.coordinate for v in t.vectors}) != 3:
                raise ValueError(f"repeated basis vector in triple {t}")
            key = frozenset(t.vectors)
            if key in seen:
                raise ValueError(f"duplicate triple on basis set {sorted(map(str, t.vectors))}")
            seen.add(key)
            if t.value.field != self.field:
                raise ValueError("triple value from a different field")
            if t.value.residue == 0:
                raise ValueError(f"zero value in triple {t}; omit zero triples")

    @classmethod
    def build(cls, n: int, field: PrimeField, items) -> "Presentation":
        """Convenience constructor from (a, b, c, value) tuples.

        Entries may be BasisVector instances or tokens like "x2"; values may
        be ints or FieldElements.
        """
        triples = []
        for a, b, c, value in items:
            va = a if isinstance(a, BasisVector) else BasisVector.parse(a)
            vb = b if isinstance(b, BasisVector) else BasisVector.parse(b)
            vc = c if isinstance(c, BasisVector) else BasisVector.parse(c)
            fv = value if isinstance(value, FieldElement) else field.element(value)
            triples.append(PresentationTriple(va, vb, vc, fv))
        return cls(n, field, tuple(triples))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def canonical_triples(self) -> tuple[PresentationTriple, ...]:
        """Triples with entries in coordinate order, sorted by (kind, indices)."""
        out = []
        for t in self.triples:
            vecs = list(t.vectors)
            order = sorted(range(3), key=lambda i: vecs[i].coordinate)
            sign = _permutation_sign(order)
            value = t.value if sign == 1 else -t.value
            a, b, c = (vecs[i] for i in order)
            out.append(PresentationTriple(a, b, c, value))
        return tuple(sorted(out, key=_triple_sort_key))


def _permutation_sign(order) -> int:
    inversions = sum(
        1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j]
    )
    return -1 if inversions % 2 else 1


class StructureTensor:
    """The fully alternating 3-form gamma on the standard basis.

    Values are stored on strictly increasing coordinate triples and
    extended by permutation sign; repeated arguments give zero.
    """

    def __init__(self, n: int, field: PrimeField, values: dict[tuple[int, int, int], int]):
        self.n = n
        self.field = field
        data: dict[tuple[int, int, int], int] = {}
        for key, value in values.items():
            if sorted(key) != list(key) or len(set(key)) != 3:
                raise ValueError(f"tensor keys must be strictly increasing, got {key}")
            if not all(0 <= c < 2 * n for c in key):
                raise ValueError(f"coordinate out of range in {key}")
            v = int(value) % field.p
            if v:
                data[key] = v
        self._data = data

    @classmethod
    def from_presentation(cls, pres: Presentation) -> "StructureTensor":
        values: dict[tuple[int, int, int], int] = {}
        for t in pres.triples:
            coords = [v.coordinate for v in t.vectors]
            order = sorted(range(3), key=lambda i: coords[i])
            sign = _permutation_sign(order)
            key = tuple(coords[i] for i in order)
            values[key] = sign * t.value.residue % pres.field.p
        return cls(pres.n, pres.field, values)

    def value_at(self, c1: int, c2: int, c3: int) -> int:
        if len({c1, c2, c3}) != 3:
            return 0
        coords = [c1, c2, c3]
        order = sorted(range(3), key=lambda i: coords[i])
        key = tuple(coords[i] for i in order)
        base = self._data.get(key, 0)
        return _permutation_sign(order) * base % self.field.p

    def items(self):
        """Sorted (coords, value) pairs on increasing coordinate triples."""
        return sorted(self._data.items())

    def support(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(self._data)

    def dense(self) -> np.ndarray:
        """The full (2n, 2n, 2n) array of values."""
        dim = 2 * self.n
        g = np.zeros((dim, dim, dim), dtype=np.int64)
        for (a, b, c), v in self._data.items():
            g[a, b, c] = g[b, c, a] = g[c, a, b] = v
            g[b, a, c] = g[a, c, b] = g[c, b, a] = -v % self.field.p
        return g

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureTensor)
            and self.n == other.n
            and self.field == other.field
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.n, self.field.p, tuple(sorted(self._data.items()))))


@dataclass(frozen=True, eq=False)
class Algebra:
    """An algebra: symplectic space, structure tensor and product table.

    table[i, j] holds the coordinates of e_i . e_j.  The lower central
    series, the centre Z_1 and the upper central series are each computed at
    most once per instance, on first use, and held in _series.  Instances
    are immutable after construction and safe to share across threads:
    every held value is deterministic and immutable, so a race can at worst
    compute the same value twice.
    """

    n: int
    field: PrimeField
    gram: GramMatrix
    tensor: StructureTensor
    table: np.ndarray
    presentation: Presentation | None = None
    _series: dict = dc_field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.n


def build_algebra(pres: Presentation) -> Algebra:
    """The unique algebra with (u_i u_j, u_k) equal to the given values.

    Every basis product is recovered from its pairings via the form.
    """
    field = pres.field
    gram = GramMatrix(field, pres.n)
    tensor = StructureTensor.from_presentation(pres)
    gamma = tensor.dense()
    dim = 2 * pres.n
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    # closed form of solve_against_form applied to every basis pair at once
    table[:, :, 0::2] = gamma[:, :, 1::2]
    table[:, :, 1::2] = -gamma[:, :, 0::2] % field.p
    table.flags.writeable = False
    return Algebra(pres.n, field, gram, tensor, table, pres)


def _check_vectors(alg: Algebra, *vectors) -> list[np.ndarray]:
    return [alg.field.vector(v, alg.dim) for v in vectors]


def multiply(alg: Algebra, u, v) -> np.ndarray:
    """Bilinear extension of the basis multiplication table."""
    uu, vv = _check_vectors(alg, u, v)
    p, dim = alg.field.p, alg.dim
    left = _dot_mod(uu[None, :], alg.table.reshape(dim, dim * dim), p).reshape(dim, dim)
    return _dot_mod(vv[None, :], left, p)[0]


def form(alg: Algebra, u, v) -> FieldElement:
    """Value of the alternating form (u, v), exact while p * (p - 1) < 2**63."""
    return alg.gram.pairing(u, v)


def full_space(alg: Algebra) -> Subspace:
    return Subspace.full(alg.field, alg.dim)


def zero_space(alg: Algebra) -> Subspace:
    return Subspace.zero(alg.field, alg.dim)


def _product_rows(alg: Algebra, a: Subspace, b: Subspace) -> np.ndarray:
    """The rows u . v for u in the basis of a and v in the basis of b.

    Two matmuls, each reduced mod p: the basis of a against the table, then
    the basis of b against that.  Both go through _dot_mod, so they are
    exact in int64 while p * (p - 1) < 2**63.
    """
    if a.ambient_dim != alg.dim or b.ambient_dim != alg.dim:
        raise ValueError("ambient mismatch")
    if a.field != alg.field or b.field != alg.field:
        raise ValueError("field mismatch")
    p, dim = alg.field.p, alg.dim
    left = _dot_mod(a.basis.data, alg.table.reshape(dim, dim * dim), p).reshape(a.dim, dim, dim)
    return _dot_mod(b.basis.data, left, p).reshape(-1, dim)


def product_space(alg: Algebra, a: Subspace, b: Subspace) -> Subspace:
    """Canonical span of {u . v : u in basis of a, v in basis of b}.

    The product rows (see _product_rows) reduced to RREF.  Callers that only
    ask whether the product lies in a subspace test the raw rows instead.
    """
    rows = _product_rows(alg, a, b)
    if a.dim == 0 or b.dim == 0:
        return zero_space(alg)
    return Subspace.from_vectors(alg.field, alg.dim, rows)


@dataclass(frozen=True)
class SeriesReport:
    """Computed central series data.

    lower holds L^1 >= L^2 >= ... and upper holds Z_0 <= Z_1 <= ..., each up
    to their first repeated term.  nilpotency_class is present iff the lower
    series reaches zero.
    """

    lower: tuple[Subspace, ...] = ()
    upper: tuple[Subspace, ...] = ()
    nilpotency_class: int | None = None
    rank: int | None = None

    @property
    def lower_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.lower)

    @property
    def upper_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.upper)


def _held(compute):
    """Compute compute(alg) once per algebra and hold the result on alg."""
    key = compute.__name__

    @wraps(compute)
    def held(alg: Algebra):
        try:
            return alg._series[key]
        except KeyError:
            value = alg._series[key] = compute(alg)
            return value

    return held


@_held
def lower_central_series(alg: Algebra) -> SeriesReport:
    """L^1 = L, L^{i+1} = L^i L, computed until stabilization.

    L^{i+1} lies in L^i, whose RREF basis B has pivot columns P, and a
    vector v of L^i equals v[P] @ B.  So each step reduces the products of
    B's rows with the basis vectors on the columns P alone, to an RREF C
    with pivots c, and L^{i+1} is spanned by C @ B.  That product is
    already the canonical basis, with pivots P[c]: on the columns P it is C,
    and a row of C starting at column c_t combines rows of B that vanish
    before column P[c_t].  The series has stabilized when C has full rank,
    and ends when no pivots remain.
    """
    p, dim = alg.field.p, alg.dim
    terms = [full_space(alg)]
    basis, pivots = terms[0].basis.data, list(range(dim))
    while pivots:
        on_pivots = alg.table[:, :, pivots].reshape(dim, dim * len(pivots))
        rows = _dot_mod(basis, on_pivots, p).reshape(-1, len(pivots))
        coeffs, coeff_pivots = _rref_array(rows, p)
        if len(coeff_pivots) == len(pivots):
            break
        basis = _dot_mod(coeffs[: len(coeff_pivots)], basis, p)
        pivots = [pivots[c] for c in coeff_pivots]
        terms.append(Subspace(alg.field, dim, Matrix(alg.field, basis)))
    cls = len(terms) - 1 if terms[-1].is_zero() else None
    return SeriesReport(lower=tuple(terms), nilpotency_class=cls)


def _centralizer_above(alg: Algebra, z: Subspace) -> Subspace:
    """{v : v . e_k lies in z for every basis vector e_k}, for an ideal z.

    z must be an ideal (z L <= z), as every upper-series term and every term
    of an isotropic ideal chain is.  Then z lies in the result, and with P
    the pivot columns of z's RREF basis B and N the others, the result is z
    plus the vectors u supported on N with every u . e_k in z.  A row x lies
    in z iff its residual x[N] - x[P] @ B[:, N] vanishes, so only |N|
    unknowns are solved for: one elimination of the residual conditions
    over all k, the kernel read off it, and one small elimination of that
    kernel.  Its rows vanish on P, so they merge into B by one matmul
    (_merge_echelon) into the canonical basis.  For z = 0 the conditions are
    the table itself and the kernel's RREF is the result.
    """
    p, dim = alg.field.p, alg.dim
    if z.dim == dim:
        return full_space(alg)
    if z.dim == 0:
        # u . e_k = u @ table[:, k, :]; one condition row per (k, coordinate)
        conditions = alg.table.reshape(dim, dim * dim).T
    else:
        basis, pivots = z.basis.data, z._pivots()
        free = _free_columns(dim, pivots)
        on_free = alg.table[free]
        residual = on_free[:, :, free] - _dot_mod(on_free[:, :, pivots], basis[:, free], p)
        conditions = residual.reshape(free.size, -1).T
    coeffs, coeff_pivots = _rref_array(conditions, p)
    new, new_pivots = _rref_array(_kernel_rows(coeffs, coeff_pivots, p), p)
    new = new[: len(new_pivots)]
    if z.dim:
        rows = np.zeros((len(new_pivots), dim), dtype=np.int64)
        rows[:, free] = new
        new, _ = _merge_echelon(basis, pivots, rows, free[new_pivots], p)
    return Subspace(alg.field, dim, Matrix(alg.field, new))


@_held
def _center(alg: Algebra) -> Subspace:
    """Z_1 = {v : v L = 0}."""
    return _centralizer_above(alg, zero_space(alg))


@_held
def upper_central_series(alg: Algebra) -> SeriesReport:
    """Z_0 = 0, Z_{i+1} = {v : v L <= Z_i}, computed as iterated kernels."""
    terms = [zero_space(alg), _center(alg)]
    while terms[-1] != terms[-2]:
        terms.append(_centralizer_above(alg, terms[-1]))
    return SeriesReport(upper=tuple(terms[:-1]))


def nilpotency_class(alg: Algebra) -> int | None:
    return lower_central_series(alg).nilpotency_class


def rank(alg: Algebra) -> int:
    """dim L - dim L^2 for nilpotent algebras, cross-checked against dim Z_1."""
    low = lower_central_series(alg)
    if low.nilpotency_class is None:
        raise NotNilpotentError("rank requires a nilpotent algebra")
    r = alg.dim - (low.lower[1].dim if len(low.lower) > 1 else alg.dim)
    z1 = _center(alg)
    if z1.dim != r:
        raise RuntimeError(f"rank cross-check failed: dim L - dim L^2 = {r}, dim Z_1 = {z1.dim}")
    return r


def series_report(alg: Algebra) -> SeriesReport:
    """Both central series plus class and rank in one report.

    Every series is held on alg, so repeated reports recompute nothing.
    """
    low = lower_central_series(alg)
    up = upper_central_series(alg)
    rk = None
    if low.nilpotency_class is not None:
        rk = rank(alg)
    return SeriesReport(
        lower=low.lower, upper=up.upper, nilpotency_class=low.nilpotency_class, rank=rk
    )


def is_ideal(alg: Algebra, s: Subspace) -> bool:
    return s._spans(_product_rows(alg, s, full_space(alg)))


def is_isotropic(alg: Algebra, s: Subspace) -> bool:
    return perp(s, alg.gram).contains_subspace(s)


def is_abelian(alg: Algebra, s: Subspace) -> bool:
    return product_space(alg, s, s).is_zero()


def _priority_permutation(n: int) -> list[int]:
    """Coordinate order x_n, x_{n-1}, ..., x_1, y_n, ..., y_1."""
    return [2 * (i - 1) for i in range(n, 0, -1)] + [2 * i - 1 for i in range(n, 0, -1)]


def _candidate_rows(w: Subspace, perm: list[int]) -> list[np.ndarray]:
    """Basis rows of w canonicalized in the priority coordinate order."""
    if w.dim == 0:
        return []
    p = w.field.p
    permuted = w.basis.data[:, perm]
    arr, pivots = _rref_array(permuted, p)
    inverse = np.argsort(perm)
    return [row[inverse] for row in arr[: len(pivots)]]


def isotropic_ideal_chain(alg: Algebra) -> list[Subspace]:
    """An ascending chain {0} = I_0 < I_1 < ... < I_n of isotropic ideals.

    Extension vectors are chosen greedily: at each step the first admissible
    canonical basis vector of the candidate space, in the priority coordinate
    order x_n, ..., x_1, y_n, ..., y_1.  The first two steps restrict to
    central vectors so that the doubled chain

        I_0 < I_2 < ... < I_{n-1} < perp(I_{n-1}) < ... < perp(I_2) < L

    comes out central; this is verified before returning, and the search
    backtracks over later candidates if the greedy choice ever fails.
    """
    n = alg.n
    g = alg.gram
    perm = _priority_permutation(n)
    center = _center(alg)
    budget = [5000]

    def extensions(chain: list[Subspace]) -> Iterator[Subspace]:
        current = chain[-1]
        depth = len(chain)  # next index to fill
        if depth <= 2:
            candidates_from = center
        else:
            candidates_from = _centralizer_above(alg, current)
        w = subspace_intersect(candidates_from, perp(current, g))
        for row in _candidate_rows(w, perm):
            if not current.contains(row):
                rows = np.vstack([current.basis.data, row])
                yield Subspace.from_vectors(alg.field, alg.dim, rows)

    def doubled_chain_central(chain: list[Subspace]) -> bool:
        if n < 3:
            return True
        terms = [chain[0]] + chain[2:n] + [perp(chain[r], g) for r in range(n - 1, 1, -1)]
        terms.append(full_space(alg))
        L = full_space(alg)
        for lower_term, upper_term in zip(terms, terms[1:]):
            if not lower_term._spans(_product_rows(alg, upper_term, L)):
                return False
        return True

    def search(chain: list[Subspace]) -> list[Subspace] | None:
        if len(chain) == n + 1:
            return chain if doubled_chain_central(chain) else None
        if budget[0] <= 0:
            return None
        for ext in extensions(chain):
            budget[0] -= 1
            result = search(chain + [ext])
            if result is not None:
                return result
        return None

    result = search([zero_space(alg)])
    if result is None:
        raise ChainError(
            "failed to build an isotropic ideal chain; the algebra may not be nilpotent"
        )
    return result


def validate_nilpotent_presentation(pres: Presentation) -> bool:
    """True iff every triple is (x_i y_j, y_k) or (y_i y_j, y_k) with i<j<k."""
    for t in pres.triples:
        a, b, c = t.vectors
        if b.kind != "y" or c.kind != "y":
            return False
        if not (a.index < b.index < c.index):
            return False
    return True


def is_maximal_class_criterion(alg: Algebra) -> bool:
    """Presentation-level test for class 2n-3.

    For an algebra of dimension 2n >= 8 given by a nilpotent presentation:
    x_i y_{i+1} != 0 for i = 2, ..., n-2, and x_1 y_2, y_1 y_2 are linearly
    independent.
    """
    if alg.dim < 8:
        raise ValueError("criterion requires dimension at least 8")
    if alg.presentation is None or not validate_nilpotent_presentation(alg.presentation):
        raise ValueError("criterion requires a nilpotent presentation")
    n = alg.n
    for i in range(2, n - 1):
        xi = BasisVector("x", i).coordinate
        yi1 = BasisVector("y", i + 1).coordinate
        if not alg.table[xi, yi1].any():
            return False
    u = alg.table[BasisVector("x", 1).coordinate, BasisVector("y", 2).coordinate]
    v = alg.table[BasisVector("y", 1).coordinate, BasisVector("y", 2).coordinate]
    span = Subspace.from_vectors(alg.field, alg.dim, np.vstack([u, v]))
    return span.dim == 2


def maximal_class_structure_check(alg: Algebra) -> bool:
    """Verify L^k = perp(Z_{k-1}) = Z_{2n-k-2} for 0 <= k <= 2n-3.

    Only defined for algebras of maximal class 2n-3 with 2n >= 8; the
    convention L^0 = L, Z_{-1} = 0 and Z_j = L for j past the class closes
    the index range.
    """
    if alg.dim < 8:
        raise ValueError("structure check requires dimension at least 8")
    report = series_report(alg)
    cls = report.nilpotency_class
    target = alg.dim - 3
    if cls != target:
        raise ValueError(f"not of maximal class: class is {cls}, expected {target}")

    def lower_term(k: int) -> Subspace:
        if k <= 1:
            return full_space(alg)
        idx = k - 1
        return report.lower[idx] if idx < len(report.lower) else zero_space(alg)

    def upper_term(j: int) -> Subspace:
        if j < 0:
            return zero_space(alg)
        return report.upper[j] if j < len(report.upper) else full_space(alg)

    for k in range(0, target + 1):
        lk = lower_term(k)
        if lk != perp(upper_term(k - 1), alg.gram):
            return False
        if lk != upper_term(alg.dim - k - 2):
            return False
    return True
