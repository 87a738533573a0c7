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

import operator
from dataclasses import dataclass, field as dc_field
from functools import cache, wraps
from itertools import combinations

import numpy as np

from .linalg import (
    GramMatrix,
    PrimeField,
    Subspace,
    _clear,
    _combine,
    _dict_rows,
    _orthogonal,
    _perp_rows,
    _reduced,
    _rows_array,
    _rref_rows,
    _times_form,
    orthogonal,
)

__all__ = [
    "BasisVector",
    "PresentationTriple",
    "Presentation",
    "StructureTensor",
    "Algebra",
    "SeriesReport",
    "NotApplicable",
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


class NotApplicable(ValueError):
    """Raised when a check's precondition fails, so the check does not apply."""


class NotNilpotentError(NotApplicable):
    """Raised when an operation requires a nilpotent algebra."""


class ChainError(RuntimeError):
    """Raised when no isotropic ideal chain exists: the algebra is not nilpotent."""


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
    @cache
    def from_coordinate(cls, c: int) -> "BasisVector":
        return cls("y" if c % 2 else "x", c // 2 + 1)

    @classmethod
    def parse(cls, token: str) -> "BasisVector":
        if len(token) < 2 or token[0] not in "xy" or not _is_decimal(token[1:]):
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
    value: int

    @property
    def vectors(self) -> tuple[BasisVector, BasisVector, BasisVector]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a} {self.b}, {self.c}) = {self.value}"


def _is_decimal(token: str) -> bool:
    """True iff token is a non-empty run of ASCII digits."""
    return token.isascii() and token.isdigit()


def _triple_sort_key(t: PresentationTriple):
    return tuple((v.kind, v.index) for v in t.vectors)


def _check_triple(t: PresentationTriple, n: int, p: int) -> None:
    """Refuse a triple that no presentation of dimension 2n over GF(p) holds."""
    for v in t.vectors:
        if v.index > n:
            raise ValueError(f"basis vector {v} out of range for n={n}")
    if len(set(t.vectors)) != 3:
        raise ValueError(f"repeated basis vector in triple {t}")
    try:
        operator.index(t.value)
    except TypeError:
        raise ValueError(f"value of triple {t} is not an integer") from None
    if not 0 < t.value < p:
        raise ValueError(f"value of triple {t} not in [1, {p}); omit zero triples")


def _nilpotent_shape(a: BasisVector, b: BasisVector, c: BasisVector) -> bool:
    """True iff (a b, c) is (x_i y_j, y_k) or (y_i y_j, y_k) with i < j < k."""
    return b.kind == c.kind == "y" and a.index < b.index < c.index


def _orient(coords) -> tuple[tuple[int, int, int], int]:
    """Three distinct coordinates in increasing order, and the sign of the
    permutation that sorts them."""
    c1, c2, c3 = coords
    inversions = (c1 > c2) + (c1 > c3) + (c2 > c3)
    return tuple(sorted(coords)), -1 if inversions % 2 else 1


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
            _check_triple(t, self.n, self.field.p)
            key = frozenset(t.vectors)
            if key in seen:
                raise ValueError(f"duplicate triple on basis set {sorted(map(str, t.vectors))}")
            seen.add(key)

    @classmethod
    def build(cls, n: int, field: PrimeField, items) -> "Presentation":
        """Convenience constructor from (a, b, c, value) tuples.

        Entries may be BasisVector instances or tokens like "x2"; values are
        integers, reduced mod p, and anything else is refused.
        """
        triples = []
        for a, b, c, value in items:
            va = a if isinstance(a, BasisVector) else BasisVector.parse(a)
            vb = b if isinstance(b, BasisVector) else BasisVector.parse(b)
            vc = c if isinstance(c, BasisVector) else BasisVector.parse(c)
            triples.append(PresentationTriple(va, vb, vc, value % field.p))
        return cls(n, field, tuple(triples))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def canonical_triples(self) -> tuple[PresentationTriple, ...]:
        """Triples with entries in coordinate order, sorted by (kind, indices)."""
        out = (
            PresentationTriple(*map(BasisVector.from_coordinate, key), value)
            for key, value in StructureTensor.from_presentation(self).items()
        )
        return tuple(sorted(out, key=_triple_sort_key))


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
            key, sign = _orient([v.coordinate for v in t.vectors])
            values[key] = sign * t.value % pres.field.p
        return cls(pres.n, pres.field, values)

    def value_at(self, c1: int, c2: int, c3: int) -> int:
        if len({c1, c2, c3}) != 3:
            return 0
        key, sign = _orient((c1, c2, c3))
        return sign * self._data.get(key, 0) % self.field.p

    def items(self):
        """Sorted (coords, value) pairs on increasing coordinate triples."""
        return sorted(self._data.items())

    def support(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(self._data)

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
    """An algebra: a structure tensor on the standard symplectic space, which
    determine every product (see _row_table).

    Its size is that of the tensor's stored triples; no dim**3 or dim**2
    array is built.  Its form, gram, is made from field and n on each read,
    so it is always the form the products use.  The row table of the
    nonzero basis products, the lower central series, the centre Z_1 (with
    read-only rows spanning its perp), the upper central series and the
    series report are each computed at most once per instance, on first
    use, and held in _series.  Instances are immutable after construction
    and safe to share across threads: every held value is deterministic and
    immutable, so a race can at worst compute the same value twice.
    """

    n: int
    field: PrimeField
    tensor: StructureTensor
    presentation: Presentation | None = None
    _series: dict = dc_field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def gram(self) -> GramMatrix:
        return GramMatrix(self.field, self.n)


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


def build_algebra(pres: Presentation) -> Algebra:
    """The unique algebra with (u_i u_j, u_k) equal to the given values.

    The algebra holds the structure tensor alone, in O(triples) space;
    every basis product is recovered from its pairings via the standard
    form when first asked for (_row_table).
    """
    return Algebra(pres.n, pres.field, StructureTensor.from_presentation(pres), pres)


def multiply(alg: Algebra, u, v) -> np.ndarray:
    """Bilinear extension of the basis multiplication table."""
    uu, vv = (_dict_rows(alg.field.vector(x, alg.dim)[None, :]) for x in (u, v))
    return _rows_array(_products(alg, uu, range(alg.dim), right=vv), (1, alg.dim))[0]


def form(alg: Algebra, u, v) -> int:
    """Value of the alternating form (u, v), exact on Python ints for every p."""
    return alg.gram.pairing(u, v)


def full_space(alg: Algebra) -> Subspace:
    return Subspace.full(alg.field, alg.dim)


def zero_space(alg: Algebra) -> Subspace:
    return Subspace.zero(alg.field, alg.dim)


@_held
def _row_table(alg: Algebra) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """T[i] = ((j, k, value), ...): the nonzero coordinates k of e_i . e_j,
    as Python ints, sorted by (j, k): the C order of a dense (i, j, k) table.

    Read off the tensor's stored triples by the module docstring's closed
    form: coordinate k of e_i . e_j is gamma(i, j, k ^ 1), negated for odd
    k.  Each stored triple with value v gives its six permutations
    (i, j, k') with sign s, and each puts (j, k' ^ 1, w) into T[i], with
    w = s v for odd k' and -s v for even k'.  Every (i, j, k') comes from
    one triple alone, so no entry is summed and none is zero.
    """
    p = alg.field.p
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(alg.dim)]
    for (a, b, c), v in alg.tensor.items():
        neg = p - v
        for i, j, k, w in (
            (a, b, c, v), (b, c, a, v), (c, a, b, v),
            (b, a, c, neg), (a, c, b, neg), (c, b, a, neg),
        ):
            rows[i].append((j, k ^ 1, w if k & 1 else p - w))
    return tuple(tuple(sorted(row)) for row in rows)


def _products(alg: Algebra, left, cols, right=None) -> list[dict[int, int]]:
    """The nonzero rows among the products (u . v)[cols], as dict rows
    {position in cols: residue}.

    u runs over the dict rows left and v over the dict rows right, or over
    every basis vector e_j when right is None.  left None stands for the
    basis vectors, and then only e_i . e_j with i < j is taken: the tensor
    is alternating, so _row_table gives e_j . e_i = -e_i . e_j (check_axioms
    tests it), and the pairs span the same space with half the rows.  Each
    u . e_j is summed from the row table T (_by_basis), entry (j, k, value)
    of T[i] adding u_i * value at k, and a right factor w then combines
    them, sum w_j (u . e_j).  The sums run on Python ints and are reduced once,
    exact for any p, and no dense array is built.  Zero rows are dropped,
    so callers that want a span never eliminate them.
    """
    p = alg.field.p
    table = _row_table(alg)
    position = {k: t for t, k in enumerate(cols)}
    if left is None:
        out = []
        for i, entries in enumerate(table):
            by_j: dict[int, dict[int, int]] = {}
            for j, k, v in entries:
                t = position.get(k)
                if j > i and t is not None:
                    by_j.setdefault(j, {})[t] = v
            out += by_j.values()
        return out
    out = []
    for u in left:
        by_j = _by_basis(table, u, position)
        if right is None:
            prods = (by_j[j] for j in sorted(by_j))
        else:
            prods = (_combine([(wj, by_j[j]) for j, wj in w.items() if j in by_j]) for w in right)
        out += filter(None, (_reduced(row, p) for row in prods))
    return out


def _by_basis(table, u: dict[int, int], position: dict[int, int]) -> dict[int, dict[int, int]]:
    """{j: u . e_j} over the basis vectors e_j with a product entry, each
    an unreduced dict row {position[k]: coordinate k}, read off the row
    table (_row_table) on the columns k that position holds."""
    by_j: dict[int, dict[int, int]] = {}
    for i, ui in u.items():
        for j, k, v in table[i]:
            t = position.get(k)
            if t is not None:
                row = by_j.setdefault(j, {})
                row[t] = row.get(t, 0) + ui * v
    return by_j


def _product_rows(alg: Algebra, a: Subspace, b: Subspace) -> list[dict[int, int]]:
    """Nonzero dict rows spanning a . b: the products u . v over the two bases.

    The bases are read as their dict rows.  The full space's canonical
    basis is the identity, so for b = L the products u . e_j are taken as
    they are (see _products).
    """
    if a.ambient_dim != alg.dim or b.ambient_dim != alg.dim:
        raise ValueError("ambient mismatch")
    if a.field != alg.field or b.field != alg.field:
        raise ValueError("field mismatch")
    right = None if b.dim == alg.dim else b.rows
    return _products(alg, a.rows, range(alg.dim), right)


def product_space(alg: Algebra, a: Subspace, b: Subspace) -> Subspace:
    """Canonical span of {u . v : u in basis of a, v in basis of b}.

    The product rows (see _product_rows) reduced to RREF.  Callers that only
    ask whether the product lies in a subspace test the raw rows instead.
    """
    basis = _rref_rows(_product_rows(alg, a, b), alg.field.p)
    return Subspace._from_rows(alg.field, alg.dim, basis.values())


@dataclass(frozen=True)
class SeriesReport:
    """Computed central series data.

    lower holds L^1 >= L^2 >= ... and upper holds Z_0 <= Z_1 <= ..., each up
    to their first repeated term, so past its end a series repeats its last
    term.  lower_term and upper_term read a series by that rule, with
    L^0 = L^1 = L and Z_{-1} = Z_0 = 0.  nilpotency_class is present iff
    the lower series reaches zero.
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

    def lower_term(self, i: int) -> Subspace:
        """L^i for any integer i."""
        return self.lower[min(max(i, 1), len(self.lower)) - 1]

    def upper_term(self, i: int) -> Subspace:
        """Z_i for any integer i."""
        return self.upper[min(max(i, 0), len(self.upper) - 1)]


@_held
def lower_central_series(alg: Algebra) -> SeriesReport:
    """L^1 = L, L^{i+1} = L^i L, computed until stabilization.

    L^{i+1} lies in L^i, whose RREF basis B, held as dict rows, has pivot
    columns P, and a vector v of L^i equals v[P] @ B.  So each step reduces
    the nonzero products of B's rows with the basis vectors on the columns
    P alone (_products; for L^1 = L, whose B is the identity, the products
    e_i . e_j with i < j), by one _rref_rows elimination, to an RREF C with
    pivots c, and L^{i+1} is spanned by C @ B, summed on the dict rows.
    That product is already the canonical basis, with pivots P[c]: on the
    columns P it is C, and a row of C starting at column c_t combines rows
    of B that vanish before column P[c_t].  The series has stabilized when
    C has full rank, and ends when no pivots remain.
    """
    p, dim = alg.field.p, alg.dim
    terms = [full_space(alg)]
    basis, pivots = None, list(range(dim))
    while pivots:
        coeffs = _rref_rows(_products(alg, basis, pivots), p)
        if len(coeffs) == len(pivots):
            break
        if basis is None:
            basis = list(coeffs.values())
        else:
            basis = [
                _reduced(_combine([(c, basis[t]) for t, c in row.items()]), p)
                for row in coeffs.values()
            ]
        pivots = [pivots[c] for c in coeffs]
        terms.append(Subspace._from_rows(alg.field, dim, basis))
    cls = len(terms) - 1 if terms[-1].is_zero() else None
    return SeriesReport(lower=tuple(terms), nilpotency_class=cls)


def _centralizer_step(
    alg: Algebra, spanning: tuple[dict[int, int], ...] | None
) -> tuple[Subspace, tuple[dict[int, int], ...]]:
    """C = {v : v . e_k lies in z for every basis vector e_k}, given dict
    rows spanning perp(z), and a tuple of dict rows spanning perp(C); one
    elimination.

    The form is non-degenerate, so z = perp(perp(z)), and it is invariant,
    (v e_k, w) = (v, e_k w).  So v . e_k lies in z for every k iff v is
    orthogonal to every product w . e_k with w in perp(z).  Those products
    span S, and their nonzero dict rows (_products), times the form, are
    the conditions on v, so C = perp(S).  One elimination (_orthogonal, in
    the natural order) yields both C's canonical basis and RREF rows
    spanning S G with reversed columns, j at dim - 1 - j.  The reversal
    after c -> c ^ 1 keeps the parity of c, so it is its own inverse, and
    _times_form with it as key takes those rows back to rows times
    G^T = G^-1, which span S = perp(C).  The identity holds for every
    subspace z, and for an ideal z (z L <= z), as every upper-series and
    chain term is, z lies in C.  spanning None stands for the identity
    rows, which span perp(0) = L.  No rows span perp(L) = 0, and then
    C = L without an elimination.
    """
    p, dim = alg.field.p, alg.dim
    if spanning is not None and not spanning:
        return full_space(alg), spanning
    kernel, row_space = _orthogonal(_products(alg, spanning, range(dim)), range(dim), p)
    back = _times_form(row_space.values(), p, range(dim - 1, -1, -1))
    return Subspace._from_rows(alg.field, dim, kernel), tuple(back)


def _centralizer_above(alg: Algebra, z: Subspace) -> Subspace:
    """{v : v . e_k lies in z for every basis vector e_k}: _centralizer_step
    from z's kernel rows times the form, which span perp(z) (_perp_rows).
    No package code calls it: the upper series and the chain build their
    rows spanning perp themselves."""
    return _centralizer_step(alg, tuple(_perp_rows(z)))[0]


@_held
def _center(alg: Algebra) -> tuple[Subspace, tuple[dict[int, int], ...]]:
    """Z_1 = {v : v L = 0}, and dict rows spanning perp(Z_1).

    One _centralizer_step from the identity rows, which span perp(0) = L.
    The rows are held for upper_central_series, so the centre is eliminated
    once whether rank, the chain or the upper series asks first.
    """
    return _centralizer_step(alg, None)


@_held
def upper_central_series(alg: Algebra) -> SeriesReport:
    """Z_0 = 0, Z_{i+1} = {v : v L <= Z_i}, computed until stabilization.

    Each term is one _centralizer_step, one elimination, from the rows
    spanning perp(Z_i) that the step before it returned, starting from
    the centre's.  The series reads nothing from the lower series, so
    check_duality compares two independent computations.
    """
    center, spanning = _center(alg)
    terms = [zero_space(alg), center]
    while terms[-1] != terms[-2]:
        term, spanning = _centralizer_step(alg, spanning)
        terms.append(term)
    return SeriesReport(upper=tuple(terms[:-1]))


def nilpotency_class(alg: Algebra) -> int | None:
    return lower_central_series(alg).nilpotency_class


def rank(alg: Algebra) -> int:
    """dim L - dim L^2 for nilpotent algebras, cross-checked against dim Z_1."""
    low = lower_central_series(alg)
    if low.nilpotency_class is None:
        raise NotNilpotentError("rank requires a nilpotent algebra")
    r = alg.dim - low.lower_term(2).dim
    z1 = _center(alg)[0]
    if z1.dim != r:
        raise RuntimeError(f"rank cross-check failed: dim L - dim L^2 = {r}, dim Z_1 = {z1.dim}")
    return r


@_held
def series_report(alg: Algebra) -> SeriesReport:
    """Both central series plus class and rank in one report.

    The report and every series are held on alg, so repeated reports
    recompute nothing.
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
    """True iff s lies in perp(s), that is orthogonal(s, s): the pairings
    of s's basis with itself, and no perp built."""
    return orthogonal(s, s, alg.gram)


def is_abelian(alg: Algebra, s: Subspace) -> bool:
    """True iff s s = 0: the product rows are nonzero by construction
    (see _products), so s is abelian iff there are none."""
    return len(_product_rows(alg, s, s)) == 0


def _priority_permutation(n: int) -> list[int]:
    """Coordinate order x_n, x_{n-1}, ..., x_1, y_n, ..., y_1."""
    return [2 * (i - 1) for i in range(n, 0, -1)] + [2 * i - 1 for i in range(n, 0, -1)]


def isotropic_ideal_chain(alg: Algebra) -> list[Subspace]:
    """An ascending chain {0} = I_0 < I_1 < ... < I_n of isotropic ideals
    whose doubled chain

        I_0 < I_2 < ... < I_{n-1} < perp(I_{n-1}) < ... < perp(I_2) < L

    is central, built in one greedy pass.  I_{k+1} is I_k plus the first
    canonical basis vector of w = C & perp(I_k) not in I_k, in the priority
    coordinate order x_n, ..., x_1, y_n, ..., y_1; C is the centre Z for
    k < 2 and {v : v L <= I_k} after that.  No choice needs revisiting:

    - k = 0: nothing has been chosen yet.
    - k = 1: w > I_1 iff dim Z >= 3, or dim Z = 2 and Z is isotropic,
      whichever I_1 <= Z was chosen.  A nilpotent L passes: dim Z >= 2,
      and Z & L^2 is orthogonal to Z and nonzero unless L is abelian.
    - k >= 2: a nilpotent L acts nilpotently on the module perp(I_k)/I_k,
      whose fixed vectors give w > I_k.
    - Any complete chain is central.  Each step keeps I_{k+1} in C and in
      perp(I_k), so the chain has (i) I_m L = 0 for m = min(n, 2),
      (ii) I_{k+1} L <= I_k for 2 <= k < n and (iii) I_n isotropic.  These
      make the doubled chain central by invariance, (xy, z) = (yz, x), which
      holds for every algebra build_algebra makes, its products being read
      off an alternating gamma (check_axioms tests it).  By (iii) the doubled
      chain ascends, and by (i) and (ii) its lower half is central.  (ii)
      gives perp(I_k) L <= perp(I_{k+1}), as (a l, b) = -(b l, a).  By
      (iii), perp(I_{n-1}) = I_n + <v>, and gamma(a, l, b) = (a l, b)
      vanishes for a, b in it by (ii) at k = n-1, (iii) and alternation, so
      perp(I_{n-1}) L <= I_{n-1}.  (i) gives L L <= perp(I_2), as
      (a l, b) = (l b, a).  For n <= 2 the doubled chain is 0 < L: by (i)
      and alternation, gamma vanishes once an argument lies in I_m, and
      dim L/I_m <= 2, so gamma = 0.

    So a chain exists iff L is nilpotent, and the greedy path finds one
    whenever any path does.  ChainError names the step k at which no
    candidate extends I_k.

    Each step is one kernel: C = perp(S), S spanned by the held rows
    spanning perp(Z) for k < 2 (_center) and by perp(I_k) L after that (by
    invariance, see _centralizer_step), so w is the set of vectors
    orthogonal to S and to I_k, in RREF in the priority order (_orthogonal).

    From k = 2 on, the loop holds rows spanning perp(I_k), made once by
    _perp_rows(I_2), each with its products by every basis vector e_j, read
    once off the row table (_perp_products).  When x joins the chain,
    perp(I_{k+1}) is the hyperplane of perp(I_k) on which (x, .) vanishes;
    x lies outside I_k = perp(perp(I_k)), so some held row pairs with it,
    and the held rows are replaced by a basis of the hyperplane
    (_hyperplane).  Products are bilinear, so no step after k = 2 goes back
    to the row table.

    The pick compares each candidate with I_k's RREF in the priority order,
    held and extended by one row per step (_extend_rref).  A candidate whose
    priority pivot is q lies in I_k iff it equals that RREF's row at q.  The
    candidate, a row of w's RREF, has 1 at q and 0 on w's other pivots,
    among which I_k <= w puts I_k's; so if it lies in I_k it is, like I_k's
    row at q, the one vector of I_k with 1 at q and 0 on I_k's other
    pivots.  Each new term is checked to have dimension k + 1, so a pick
    inside I_k, which this argument rules out, raises RuntimeError instead
    of repeating a term.  Every step runs on dict rows.  After the loop
    (i) and (ii) are checked on the product rows and (iii) on the pairings
    of I_n with itself; a failure, which the argument above rules out,
    raises RuntimeError naming the condition and k.
    """
    n, p = alg.n, alg.field.p
    perm = _priority_permutation(n)
    rank = {c: t for t, c in enumerate(perm)}
    chain = [zero_space(alg)]
    ordered: dict[int, dict[int, int]] = {}
    for k in range(n):
        current = chain[k]
        if k < 2:
            spanning = _center(alg)[1]
        else:
            if k == 2:
                held, holders = _perp_products(alg, current)
            spanning = [row for _, prods in held.values() for row in prods.values()]
        candidates, _ = _orthogonal((*spanning, *current.rows), perm, p)
        row = next(
            (c for c in candidates if ordered.get(min(c, key=rank.__getitem__)) != c), None
        )
        if row is None:
            raise ChainError(
                f"no isotropic ideal chain found for n={n} over {alg.field!r}: "
                f"no candidate extends I_{k}"
            )
        basis = _rref_rows([*map(dict, current.rows), dict(row)], p)
        if len(basis) != k + 1:
            raise RuntimeError(
                f"isotropic ideal chain step k={k} gives I_{k + 1} of dimension "
                f"{len(basis)}, not {k + 1}, for n={n}"
            )
        chain.append(Subspace._from_rows(alg.field, alg.dim, basis.values()))
        if k >= 2:
            _hyperplane(held, holders, row, p)
        _extend_rref(ordered, row, rank, p)
    L = full_space(alg)
    m = min(n, 2)
    if len(_product_rows(alg, chain[m], L)):
        raise RuntimeError(f"isotropic ideal chain fails (i) I_{m} L = 0 for n={n}")
    for k in range(2, n):
        if not chain[k]._spans(_product_rows(alg, chain[k + 1], L)):
            raise RuntimeError(
                f"isotropic ideal chain fails (ii) I_{k + 1} L <= I_{k} at k={k} for n={n}"
            )
    if not orthogonal(chain[n], chain[n], alg.gram):
        raise RuntimeError(f"isotropic ideal chain fails (iii) I_{n} isotropic for n={n}")
    return chain


def _perp_products(alg: Algebra, s: Subspace) -> tuple[dict, dict[int, set[int]]]:
    """(held, holders) for _hyperplane: held numbers the rows spanning
    perp(s) (_perp_rows), each paired with its nonzero products
    {j: row . e_j} read off the row table, and holders maps each column to
    the numbers of the rows with a nonzero there."""
    p, table, position = alg.field.p, _row_table(alg), {c: c for c in range(alg.dim)}
    held, holders = {}, {}
    for t, u in enumerate(_perp_rows(s)):
        prods = _by_basis(table, u, position).items()
        held[t] = u, {j: r for j, row in prods if (r := _reduced(row, p))}
        for c in u:
            holders.setdefault(c, set()).add(t)
    return held, holders


def _hyperplane(held: dict, holders: dict[int, set[int]], x: dict[int, int], p: int) -> None:
    """Cut the span of the held rows down to the hyperplane on which (x, .)
    vanishes, in place.

    held maps a number t to a pair (row, {j: row . e_j}), its rows
    independent, and holders maps each column to the numbers of the rows
    with a nonzero there (see _perp_products).  (x, r) is read off x G
    (_times_form), for the rows r that meet its columns alone.  The first
    row u with (x, u) != 0 is dropped, and every other row r with
    (x, r) != 0 becomes
    r - ((x, r)/(x, u)) u, its products the same combination of r's and
    u's.  The new rows and u span the old span, so the new rows are
    independent; they lie in the hyperplane, one dimension less, so they
    span it.  When no row pairs with x the old span lies in the hyperplane,
    and nothing changes.
    """
    xg = _times_form([x], p)[0]
    pairings = {}
    for t in sorted({t for c in xg for t in holders.get(c, ())}):
        r = held[t][0]
        if a := sum(v * r.get(c, 0) for c, v in xg.items()) % p:
            pairings[t] = a
    if not pairings:
        return
    first = next(iter(pairings))
    u, u_prods = held.pop(first)
    for c in u:
        holders[c].discard(first)
    inv = pow(pairings.pop(first), -1, p)
    for t, a in pairings.items():
        r, prods = held[t]
        f = p - a * inv % p
        new = _reduced(_combine([(1, r), (f, u)]), p)
        for c in r.keys() - new.keys():
            holders[c].discard(t)
        for c in new.keys() - r.keys():
            holders.setdefault(c, set()).add(t)
        held[t] = new, {
            j: row
            for j in prods.keys() | u_prods.keys()
            if (row := _reduced(_combine([(1, prods.get(j, {})), (f, u_prods.get(j, {}))]), p))
        }


def _extend_rref(basis: dict[int, dict[int, int]], row: dict[int, int], rank, p: int) -> None:
    """Add a dict row outside the span of basis, an RREF {pivot: row} with
    the columns ranked by rank, to it in place; the row is consumed.

    As in _rref_rows: the row is cleared on the pivot columns it meets,
    scaled to 1 at its first column by rank, its new pivot q, and cleared
    from the basis rows with a nonzero at q.
    """
    for c in [c for c in row if c in basis]:
        _clear(row, c, basis[c], p)
    q = min(row, key=rank.__getitem__)
    inv = pow(row[q], -1, p)
    for j, v in row.items():
        row[j] = v * inv % p
    for other in basis.values():
        if q in other:
            _clear(other, q, row, p)
    basis[q] = row


def _nilpotent_triple(t: PresentationTriple) -> bool:
    """True iff t, its vectors in coordinate order, is (x_i y_j, y_k) or
    (y_i y_j, y_k) with i<j<k.

    A triple value is alternating, so the order a triple is written in
    does not change the algebra it presents.  A triple of nilpotent shape
    is already in coordinate order, so only the others are sorted.
    """
    by_coordinate = operator.attrgetter("coordinate")
    return _nilpotent_shape(*t.vectors) or _nilpotent_shape(*sorted(t.vectors, key=by_coordinate))


def validate_nilpotent_presentation(pres: Presentation) -> bool:
    """True iff every triple is of nilpotent shape (see _nilpotent_triple)."""
    return all(map(_nilpotent_triple, pres.triples))


def is_maximal_class_criterion(alg: Algebra) -> bool:
    """Presentation-level test for class 2n-3.

    For an algebra of dimension 2n >= 8 given by a nilpotent presentation:
    x_i y_{i+1} != 0 for i = 2, ..., n-2, and x_1 y_2, y_1 y_2 are linearly
    independent.  Each product is read off the row table as a dict row.
    """
    if alg.dim < 8:
        raise NotApplicable("criterion requires dimension at least 8")
    if alg.presentation is None or not validate_nilpotent_presentation(alg.presentation):
        raise NotApplicable("criterion requires a nilpotent presentation")
    table = _row_table(alg)

    def product(a: BasisVector, b: BasisVector) -> dict[int, int]:
        j = b.coordinate
        return {k: v for jj, k, v in table[a.coordinate] if jj == j}

    for i in range(2, alg.n - 1):
        if not product(BasisVector("x", i), BasisVector("y", i + 1)):
            return False
    u = product(BasisVector("x", 1), BasisVector("y", 2))
    v = product(BasisVector("y", 1), BasisVector("y", 2))
    return _independent(u, v, alg.field.p)


def _independent(u: dict[int, int], v: dict[int, int], p: int) -> bool:
    """True iff the dict rows u and v are linearly independent mod p.

    They are iff their wedge u ^ v, with entries u_a v_b - u_b v_a for
    a < b, is not zero mod p; only columns where u or v is nonzero can
    give a nonzero entry.  The entries are Python ints, exact for any p.
    """
    columns = sorted(u.keys() | v.keys())
    return any(
        (u.get(a, 0) * v.get(b, 0) - u.get(b, 0) * v.get(a, 0)) % p
        for a, b in combinations(columns, 2)
    )


def maximal_class_structure_check(alg: Algebra) -> bool:
    """Verify L^k = perp(Z_{k-1}) = Z_{2n-k-2} for 0 <= k <= 2n-3.

    Only defined for algebras of maximal class 2n-3 with 2n >= 8; the
    series report's index rule (L^0 = L, Z_{-1} = 0 and Z_j = L for j past
    the class) closes the index range.  The form is non-degenerate, so
    L^k = perp(Z_{k-1}) iff dim L^k + dim Z_{k-1} = 2n and L^k is
    orthogonal to Z_{k-1}, which the pairings of their bases decide (see
    orthogonal); no perp is built.
    """
    if alg.dim < 8:
        raise NotApplicable("structure check requires dimension at least 8")
    report = series_report(alg)
    cls = report.nilpotency_class
    target = alg.dim - 3
    if cls != target:
        raise NotApplicable(f"not of maximal class: class is {cls}, expected {target}")
    for k in range(0, target + 1):
        lk, z = report.lower_term(k), report.upper_term(k - 1)
        if lk.dim + z.dim != alg.dim or not orthogonal(lk, z, alg.gram):
            return False
        if lk != report.upper_term(alg.dim - k - 2):
            return False
    return True
