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
from dataclasses import dataclass, field as dc_field, replace
from functools import cache, wraps
from itertools import combinations

from .linalg import (
    GramMatrix,
    PrimeField,
    Subspace,
    _clear,
    _combine,
    _dense,
    _dict_rows,
    _keyed_orthogonal,
    _orthogonal,
    _perp_rows,
    _reduced,
    _residue,
    _reversed_ranks,
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
    "monomial_series",
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
    def _from_checked(cls, n: int, field: PrimeField, triples) -> "Presentation":
        """The presentation of triples that the caller has checked as
        __post_init__ does, n >= 1, every triple passing _check_triple and
        no two on one basis set, made without checking them again."""
        pres = cls.__new__(cls)
        for name, value in (("n", n), ("field", field), ("triples", tuple(triples))):
            object.__setattr__(pres, name, value)
        return pres

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
            v = _residue(value, field.p)
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
    nonzero basis products, the lower central series, the centre Z_1, the
    upper central series, the series report, the coordinate view of a
    monomial algebra (_coordinate_targets) and the eliminated lower series
    and centre (_exact_lower, _exact_center) are each computed at most once
    per instance, on first use, and held in _series.  Instances are
    immutable after construction and safe to share across threads: every
    held value is deterministic and immutable, so a race can at worst
    compute the same value twice.
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


def multiply(alg: Algebra, u, v) -> tuple[int, ...]:
    """Bilinear extension of the basis multiplication table, as a tuple of
    Python ints."""
    uu, vv = (_dict_rows([alg.field.vector(x, alg.dim)]) for x in (u, v))
    return _dense((_products(alg, uu, right=vv) or [{}])[0], alg.dim)


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


def _products(alg: Algebra, left, right=None) -> list[dict[int, int]]:
    """The nonzero products u . v, each a dict row {k: coordinate k}.

    u runs over the dict rows left and v over the dict rows right, or over
    every basis vector e_j when right is None; left None stands for the
    basis vectors, which are only multiplied by themselves.  A factor
    multiplied by itself, right is left (both None for the basis vectors),
    gives only the products u_s . u_t of its rows with s < t: the tensor is
    alternating, so _row_table gives u . u = 0 and v . u = -u . v
    (check_axioms tests it), and the pairs span the same space with half
    the rows.  Each u . e_j is summed from the row table T (_by_basis),
    entry (j, k, value) of T[i] adding u_i * value at k, and a right factor
    w then combines them, sum w_j (u . e_j).  The sums run on Python ints
    and are reduced once, exact for any p, and no dense array is built.
    Zero rows are dropped, so callers that want a span never eliminate them.
    """
    p = alg.field.p
    table = _row_table(alg)
    if left is None:
        out = []
        for i, entries in enumerate(table):
            by_j: dict[int, dict[int, int]] = {}
            for j, k, v in entries:
                if j > i:
                    by_j.setdefault(j, {})[k] = v
            out += by_j.values()
        return out
    out = []
    for s, u in enumerate(left):
        by_j = _by_basis(table, u)
        if right is None:
            prods = (by_j[j] for j in sorted(by_j))
        else:
            others = right[s + 1 :] if right is left else right
            prods = (_combine([(wj, by_j[j]) for j, wj in w.items() if j in by_j]) for w in others)
        out += filter(None, (_reduced(row, p) for row in prods))
    return out


def _by_basis(table, u: dict[int, int]) -> dict[int, dict[int, int]]:
    """{j: u . e_j} over the basis vectors e_j with a product entry, each
    an unreduced dict row {k: coordinate k} read off the row table
    (_row_table)."""
    by_j: dict[int, dict[int, int]] = {}
    for i, ui in u.items():
        for j, k, v in table[i]:
            row = by_j.setdefault(j, {})
            row[k] = row.get(k, 0) + ui * v
    return by_j


def _product_rows(alg: Algebra, a: Subspace, b: Subspace) -> list[dict[int, int]]:
    """Nonzero dict rows spanning a . b: the products u . v over the two bases.

    The bases are read as their dict rows.  The full space's canonical
    basis is the identity, so for b = L the products u . e_j are taken as
    they are (see _products).  For b = a each pair of basis rows is
    multiplied once, u_s . u_t with s < t, by alternation (see _products).
    """
    if a.ambient_dim != alg.dim or b.ambient_dim != alg.dim:
        raise ValueError("ambient mismatch")
    if a.field != alg.field or b.field != alg.field:
        raise ValueError("field mismatch")
    if a == b:
        rows = None if a.dim == alg.dim else a.rows
        return _products(alg, rows, rows)
    right = None if b.dim == alg.dim else b.rows
    return _products(alg, a.rows, right)


def product_space(alg: Algebra, a: Subspace, b: Subspace) -> Subspace:
    """Canonical span of {u . v : u in basis of a, v in basis of b}.

    The product rows (see _product_rows) reduced to RREF; for b = a, as for
    L^2 L^2 in the fingerprint, those of the pairs s < t alone.  Callers
    that only ask whether the product lies in a subspace test the raw rows
    instead.
    """
    basis = _rref_rows(_product_rows(alg, a, b), alg.field.p)
    return Subspace._from_rows(alg.field, alg.dim, basis.values())


@dataclass(frozen=True)
class SeriesReport:
    """Computed central series data.

    lower holds L^1 >= L^2 >= ... and upper holds Z_0 <= Z_1 <= ..., each up
    to their first repeated term, so past its end a series repeats its last
    term.  lower_term and upper_term read a series by that rule, with
    L^0 = L^1 = L and Z_{-1} = Z_0 = 0, and raise ValueError on a report
    that does not hold that series.  nilpotency_class is present iff the
    lower series reaches zero.
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
        if not self.lower:
            raise ValueError("this report holds no lower series")
        return self.lower[min(max(i, 1), len(self.lower)) - 1]

    def upper_term(self, i: int) -> Subspace:
        """Z_i for any integer i."""
        if not self.upper:
            raise ValueError("this report holds no upper series")
        return self.upper[min(max(i, 0), len(self.upper) - 1)]


def _unit_span(alg: Algebra, coords) -> Subspace:
    """The span of the basis vectors e_c, c in coords: their unit rows, in
    increasing order, are its RREF."""
    return Subspace._from_rows(alg.field, alg.dim, ({c: 1} for c in sorted(coords)))


@_held
def lower_central_series(alg: Algebra) -> SeriesReport:
    """L^1 = L, L^{i+1} = L^i L, computed until stabilization.

    A monomial algebra (_coordinate_targets), as every construction and
    catalog entry is, has each term read off a set of coordinates
    (_coordinate_lower; see monomial_series for the argument) and built
    as its unit rows (_unit_span), with no elimination; any other takes
    the elimination loop (_exact_lower).  RREF is unique, so both give the
    same terms.
    """
    targets = _coordinate_targets(alg)
    if targets is None:
        return _exact_lower(alg)
    lower = _coordinate_lower(targets)
    cls = None if lower[-1] else len(lower) - 1
    return SeriesReport(lower=tuple(_unit_span(alg, s) for s in lower), nilpotency_class=cls)


@_held
def _exact_lower(alg: Algebra) -> SeriesReport:
    """lower_central_series on any algebra, by elimination.

    Each step is product_space(L^i, L): the nonzero products of L^i's RREF
    rows with the basis vectors (for L^1 = L, the products e_i . e_j with
    i < j alone, see _products), reduced by one _rref_rows elimination to
    the canonical basis on every column.  L^{i+1} lies in L^i, so the
    series has stabilized when the dimension repeats, and ends at 0.  Held
    so that lower_central_series and _exact_fingerprint, which reads it on
    every algebra, share it.
    """
    terms = [full_space(alg)]
    while terms[-1].dim:
        below = product_space(alg, terms[-1], terms[0])
        if below.dim == terms[-1].dim:
            break
        terms.append(below)
    cls = len(terms) - 1 if terms[-1].is_zero() else None
    return SeriesReport(lower=tuple(terms), nilpotency_class=cls)


def _centralizer_above(alg: Algebra, z: Subspace) -> Subspace:
    """{v : v . e_k lies in z for every basis vector e_k}; one elimination.

    The form is non-degenerate, so z = perp(perp(z)), and it is invariant,
    (v e_k, w) = (v, e_k w).  So v . e_k lies in z for every k iff v is
    orthogonal to every product w . e_k with w in perp(z).  Those products
    span S, and their nonzero dict rows (_products), times the form, are
    the conditions on v, so the centralizer is perp(S), eliminated once in
    the natural order (_orthogonal).  The rows spanning perp(z) are read off
    z's basis (_perp_rows); for z = 0 they are the basis vectors, so S is
    spanned by the products e_i . e_j with i < j alone (see _products).
    The identity holds for every subspace z, and for an ideal z (z L <= z),
    as every upper-series and chain term is, z lies in the centralizer.
    For z = L no rows span perp(L) = 0, and L is returned without an
    elimination.
    """
    p, dim = alg.field.p, alg.dim
    if z.dim == dim:
        return z
    spanning = _perp_rows(z) if z.dim else None
    kernel = _orthogonal(_products(alg, spanning), range(dim), p)
    return Subspace._from_rows(alg.field, dim, kernel)


@_held
def _center(alg: Algebra) -> Subspace:
    """Z_1 = {v : v L = 0}, which rank cross-checks, held.

    A monomial algebra has it spanned by the coordinates with no product
    target (see monomial_series), with no elimination; any other takes
    the centralizer above 0 (_exact_center), which the upper series
    starts from, so it is eliminated once whichever asks first.
    """
    targets = _coordinate_targets(alg)
    if targets is None:
        return _exact_center(alg)
    return _unit_span(alg, (c for c, reach in enumerate(targets) if not reach))


@_held
def _exact_center(alg: Algebra) -> Subspace:
    """Z_1 on any algebra: the centralizer above 0, one elimination.  Held
    so that _center, _exact_upper and the general chain (_general_chain),
    which reads it on every algebra, eliminate it once."""
    return _centralizer_above(alg, zero_space(alg))


@_held
def upper_central_series(alg: Algebra) -> SeriesReport:
    """Z_0 = 0, Z_{i+1} = {v : v L <= Z_i}, computed until stabilization.

    A monomial algebra has each term read off a set of coordinates, those
    whose product targets lie in the term before (_coordinate_upper; see
    monomial_series), with no elimination; any other takes the
    centralizer loop (_exact_upper).  Neither reads the lower series, so
    check_duality compares two separate computations: on a monomial
    algebra, the targets of L^i's coordinates with the coordinates whose
    targets lie in Z_i.
    """
    targets = _coordinate_targets(alg)
    if targets is None:
        return _exact_upper(alg)
    return SeriesReport(upper=tuple(_unit_span(alg, s) for s in _coordinate_upper(targets)))


def _exact_upper(alg: Algebra) -> SeriesReport:
    """upper_central_series on any algebra: each term after the centre is
    the centralizer above the one before it (_centralizer_above), one
    elimination."""
    terms = [zero_space(alg), _exact_center(alg)]
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
    r = alg.dim - low.lower_term(2).dim
    z1 = _center(alg)
    if z1.dim != r:
        raise RuntimeError(f"rank cross-check failed: dim L - dim L^2 = {r}, dim Z_1 = {z1.dim}")
    return r


@_held
def series_report(alg: Algebra) -> SeriesReport:
    """Both central series plus class and rank in one report.

    The report and every series are held on alg, so repeated reports
    recompute nothing.  A monomial algebra has every term, the centre that
    rank cross-checks included, read off sets of coordinates with no
    elimination (see monomial_series).
    """
    low = lower_central_series(alg)
    rk = None if low.nilpotency_class is None else rank(alg)
    return replace(low, upper=upper_central_series(alg).upper, rank=rk)


def is_ideal(alg: Algebra, s: Subspace) -> bool:
    return s._spans(_product_rows(alg, s, full_space(alg)))


def is_isotropic(alg: Algebra, s: Subspace) -> bool:
    """True iff s lies in perp(s), that is orthogonal(s, s): the pairings
    of s's basis rows u_s, u_t with s < t alone, since the form is
    alternating, up to the first nonzero one, and no perp built."""
    return orthogonal(s, s, alg.gram)


def is_abelian(alg: Algebra, s: Subspace) -> bool:
    """True iff s s = 0: the products u_s . u_t of s's basis rows with
    s < t span s s by alternation (see _product_rows), and they are
    nonzero by construction (see _products), so s is abelian iff there
    are none."""
    return not _product_rows(alg, s, s)


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

    Two loops build that chain.  A monomial algebra, one whose row table
    shows no two triples sharing two basis vectors (_coordinate_targets),
    takes the coordinate loop (_coordinate_chain), which eliminates
    nothing; any other takes the general loop (_general_chain), one kernel
    per step.  Every algebra minimal_algebra and the catalog build is
    monomial.  On one, each product e_a . e_b is 0 or a nonzero multiple of
    one basis vector e_t, and for a fixed b distinct a reach distinct t,
    since two triples with b and t^1 in common would share two vectors.  So
    for v = sum v_a e_a the terms of v . e_b lie on distinct coordinates,
    and v . e_b lies in a span I of basis vectors iff every e_a with
    v_a != 0 has e_a . e_b in I.  Hence C_k = {v : v L <= I_k} is spanned
    by the e_c whose product targets lie in I_k, the centre (I_k = 0) by
    those with none, and perp(I_k) by the e_c with c^1 outside I_k.  Their
    intersection, w, is the span of the e_c in both; its RREF in any order
    is those unit vectors, and the first not in I_k in the priority order
    is the general loop's pick.  So I_{k+1} = I_k + <e_c> is again a span
    of basis vectors, and by induction the two loops give the same chain,
    or fail at the same k.

    Each loop hands its picked vectors x_0..x_{n-1} to one check
    (_check_chain), which builds the terms from them, I_{k+1} = I_k + <x_k>,
    refusing a pick inside I_k, and checks them; a failure, which the
    argument above rules out, raises RuntimeError naming the condition and
    k.  (i) is read off the products of x_0 and x_1, which span I_m, and
    (iii) off the pairings of I_n with itself.  (ii) is checked on each new
    vector alone: for 2 <= k < n, x_k L <= I_k, with x_k's products read
    off the row table, not the general loop's carried ones, so the check
    rests on neither loop's state.  This proves (ii): I_{k+1} L = I_k L +
    x_k L.  At k = 2, I_2 L = 0 by (i), so I_3 L <= I_2.  For k > 2,
    I_k L <= I_{k-1} <= I_k by (ii) at k - 1, so I_{k+1} L <= I_k.  This
    multiplies one vector per step where I_{k+1}'s whole basis would take
    k + 1, and the coordinate loop is checked as the general one is.
    """
    targets = _coordinate_targets(alg)
    if targets is None:
        return _general_chain(alg)
    return _coordinate_chain(alg, targets)


@_held
def _coordinate_targets(alg: Algebra) -> tuple[frozenset[int], ...] | None:
    """For a monomial algebra, each coordinate's product targets: entry c
    holds the coordinates k with e_c . e_j nonzero at k for some j.  None
    unless every row-table row (_row_table) has distinct j entries.

    Each entry (j, k, v) of row c comes from the one stored triple holding
    c, j and k^1, so two entries with one j are two triples sharing c and
    j.  Distinct j entries in every row are therefore exactly "no two
    triples share two basis vectors", and each e_c . e_j is then 0 or a
    multiple of one e_k.  Held on first use, which the chain, the
    fingerprint and each held series make, so it is read off the row
    table once however many of them ask.
    """
    targets = []
    for row in _row_table(alg):
        if len({j for j, _, _ in row}) != len(row):
            return None
        targets.append(frozenset(k for _, k, _ in row))
    return tuple(targets)


def _coordinate_chain(alg: Algebra, targets: tuple[frozenset[int], ...]) -> list[Subspace]:
    """isotropic_ideal_chain on a monomial algebra, whose coordinate view
    is targets (_coordinate_targets), by its coordinate argument.

    I_k is held as a set of coordinates, and the coordinates that pair
    with one of them under the form (_times_form) as another, so that the
    rest span perp(I_k).  The candidates are the c in neither set whose
    targets are empty for k < 2 (e_c in the centre) and lie in I_k after
    that (e_c in C_k); the pick is the first in the priority order.  The
    picks e_c are handed to _check_chain, which builds the terms.
    """
    perm, p = _priority_permutation(alg.n), alg.field.p
    picks, inside, paired = [], set(), set()
    for k in range(alg.n):
        c = next(
            (
                c
                for c in perm
                if c not in inside
                and c not in paired
                and (targets[c] <= inside if k >= 2 else not targets[c])
            ),
            None,
        )
        if c is None:
            raise _no_candidate(alg, k)
        inside.add(c)
        paired.update(*_times_form([{c: 1}], p))
        picks.append({c: 1})
    return _check_chain(alg, picks)


def _coordinate_lower(targets: tuple[frozenset[int], ...]) -> list[frozenset[int]]:
    """The lower central series of a monomial algebra, whose coordinate
    view is targets (_coordinate_targets), as the sets of coordinates whose
    basis vectors span its terms, up to its first repeated term: L^1 holds
    every coordinate and L^{i+1} the targets of L^i's (see
    monomial_series)."""
    terms = [frozenset(range(len(targets)))]
    while terms[-1]:
        below = frozenset().union(*(targets[c] for c in terms[-1]))
        if below == terms[-1]:
            break
        terms.append(below)
    return terms


def _coordinate_upper(targets: tuple[frozenset[int], ...]) -> list[frozenset[int]]:
    """The upper central series of a monomial algebra, as _coordinate_lower
    gives the lower: Z_0 is empty and Z_{i+1} holds the coordinates whose
    targets lie in Z_i, so Z_1 those with none."""
    terms = [frozenset()]
    while True:
        above = frozenset(c for c, reach in enumerate(targets) if reach <= terms[-1])
        if above == terms[-1]:
            return terms
        terms.append(above)


def monomial_series(pres: Presentation) -> SeriesReport:
    """Both central series, the class and the rank of a monomial
    presentation, one in which no two triples share two basis vectors,
    read off sets of coordinates with no elimination; NotApplicable on any
    other presentation.

    On a monomial algebra each product e_a . e_b is 0 or a nonzero multiple
    of one basis vector e_t, a target of a (_coordinate_targets), and for a
    fixed b distinct a reach distinct t (see isotropic_ideal_chain).  Let I
    be spanned by the basis vectors of a coordinate set S.  Then I L is
    spanned by the products e_a . e_b with a in S, so by the e_t with t a
    target of S; and for v = sum v_a e_a the terms of v . e_b lie on
    distinct coordinates, so v L lies in I iff every e_a with v_a != 0 has
    its targets in S.  From L, spanned by every coordinate, and from 0, by
    induction every lower term L^{i+1} = L^i L is spanned by the targets
    of L^i's coordinates (_coordinate_lower), and every upper term
    Z_{i+1} = {v : v L <= Z_i} by the coordinates whose targets lie in Z_i
    (_coordinate_upper), the centre Z_1 by those with none.  The held
    series (lower_central_series, _center, upper_central_series) take
    these sets on every monomial algebra, each term as its unit rows,
    which are its RREF, so this is series_report on the presentation's
    algebra, its rank dim L - dim L^2 cross-checked against dim Z_1.
    Which products are nonzero depends only on which triples the
    presentation holds, not on their values, so the same sets, and the
    same dimensions, class and rank, come out over every prime field and
    for every choice of nonzero values.
    """
    alg = build_algebra(pres)
    if _coordinate_targets(alg) is None:
        raise NotApplicable(
            "monomial_series requires a presentation whose triples share no two basis vectors"
        )
    return series_report(alg)


def _no_candidate(alg: Algebra, k: int) -> ChainError:
    """The ChainError of a chain that no candidate extends at step k."""
    return ChainError(
        f"no isotropic ideal chain found for n={alg.n} over {alg.field!r}: "
        f"no candidate extends I_{k}"
    )


def _general_chain(alg: Algebra) -> list[Subspace]:
    """isotropic_ideal_chain on any algebra, one kernel per step.

    Each step is one kernel: C = perp(S), S spanned for k < 2 by the rows
    spanning perp(Z), read once off the centre's basis before the loop
    (_perp_rows), and by perp(I_k) L after that (by invariance, see
    _centralizer_above), so w is the set of vectors orthogonal to S and to
    I_k, in RREF in the priority order.  The rows of S and the picks
    x_0..x_{k-1}, which span I_k, times G and keyed at the reversed
    priority ranks, are eliminated once (_keyed_orthogonal, the layer under
    _orthogonal).

    The loop holds rows spanning perp(I_k) from k = 0, where they are the
    basis vectors of L = perp(I_0).  Each row carries its products by every
    basis vector e_j, read once off the row table before the loop and
    relabelled once into the kernel's key (_perp_products).  When x joins
    the chain, perp(I_{k+1}) is the hyperplane of perp(I_k) on which (x, .)
    vanishes; x lies outside I_k = perp(perp(I_k)), so some held row pairs
    with it, and after every pick the held rows are replaced by a basis of
    the hyperplane (_hyperplane), their products by the same combinations
    of the keyed rows: products are bilinear and the relabelling is linear.
    So no step goes back to the row table or relabels a product; each step
    k >= 2 hands the kernel copies of the keyed products, which it
    consumes, and the picks relabelled.  The steps k < 2 hand it the rows
    spanning perp(Z) instead, as C is the centre there, read off the
    exact centre (_exact_center) on every algebra, so the centre is
    eliminated once, whoever asks first.

    Which basis of perp(I_k) the cuts leave does not matter: the kernel
    reads only the row space of its rows, and its output, an RREF, is
    unique.  The held rows span perp(I_k) at every k, so their products
    span perp(I_k) L whatever basis they are in, and the candidates, the
    picks, the chain and every ChainError are those of any other basis of
    perp(I_k).

    The pick compares each candidate with I_k's RREF in the priority order,
    held and extended by one row per step (_extend_rref).  A candidate whose
    priority pivot is q lies in I_k iff it equals that RREF's row at q.  The
    candidate, a row of w's RREF, has 1 at q and 0 on w's other pivots,
    among which I_k <= w puts I_k's; so if it lies in I_k it is, like I_k's
    row at q, the one vector of I_k with 1 at q and 0 on I_k's other
    pivots.  A pick inside I_k, which this argument rules out, adds nothing
    to that RREF and raises RuntimeError.  Every step runs on dict rows, and
    the picks are handed to _check_chain, which builds the terms.
    """
    n, p = alg.n, alg.field.p
    perm = _priority_permutation(n)
    rank, key = {c: t for t, c in enumerate(perm)}, _reversed_ranks(perm)
    picks, ordered = [], {}
    centre = _perp_rows(_exact_center(alg))
    held, holders = _perp_products(alg, key)
    for k in range(n):
        if k < 2:
            carried = _times_form(centre, p, key)
        else:
            carried = [dict(row) for _, prods in held.values() for row in prods.values()]
        candidates = _keyed_orthogonal([*carried, *_times_form(picks, p, key)], perm, p)
        row = next(
            (c for c in candidates if ordered.get(min(c, key=rank.__getitem__)) != c), None
        )
        if row is None:
            raise _no_candidate(alg, k)
        picks.append(dict(row))
        if not _extend_rref(ordered, row, rank, p):
            raise RuntimeError(
                f"isotropic ideal chain step k={k} gives I_{k + 1} of dimension "
                f"{k}, not {k + 1}, for n={n}"
            )
        _hyperplane(held, holders, picks[k], p)
    return _check_chain(alg, picks)


def _check_chain(alg: Algebra, picks: list[dict[int, int]]) -> list[Subspace]:
    """The terms I_0..I_n, I_{k+1} = I_k + <x_k>, built from the picks
    x_0..x_{n-1} alone and checked as isotropic_ideal_chain argues; a
    failure raises RuntimeError naming the condition and k.  Each x_k is
    multiplied alone, on every column of the row table (_by_basis), and
    joins one RREF (_extend_rref), which a pick inside I_k leaves
    unchanged; each term copies its rows, which later picks change in
    place.
    """
    n, p, dim = alg.n, alg.field.p, alg.dim
    table, chain, basis = _row_table(alg), [zero_space(alg)], {}
    for k, x in enumerate(picks):
        prods = [r for row in _by_basis(table, x).values() if (r := _reduced(row, p))]
        if k < 2 and prods:
            raise RuntimeError(f"isotropic ideal chain fails (i) I_{min(n, 2)} L = 0 for n={n}")
        if k >= 2 and not chain[k]._spans(prods):
            raise RuntimeError(
                f"isotropic ideal chain fails (ii) I_{k + 1} L <= I_{k} at k={k} for n={n}"
            )
        if not _extend_rref(basis, dict(x), range(dim), p):
            raise RuntimeError(
                f"isotropic ideal chain fails (ii) x_{k} in I_{k + 1} and not in I_{k} "
                f"at k={k} for n={n}"
            )
        chain.append(Subspace._from_rows(alg.field, dim, (dict(basis[q]) for q in sorted(basis))))
    if not orthogonal(chain[n], chain[n], alg.gram):
        raise RuntimeError(f"isotropic ideal chain fails (iii) I_{n} isotropic for n={n}")
    return chain


def _perp_products(alg: Algebra, key: dict[int, int]) -> tuple[dict, dict[int, set[int]]]:
    """(held, holders) for _hyperplane on perp(I_0) = L: held maps each
    coordinate c to the unit row {c: 1} paired with its nonzero products
    {j: (e_c . e_j) G}, read off the row table (_by_basis) and relabelled
    by the form with key, by one _times_form call, and holders maps each
    column c to {c}, the one row with a nonzero there.  The relabelling is
    a signed permutation of the columns, so it commutes with the linear
    combinations _hyperplane makes, and the products stay relabelled as
    they are cut."""
    table = _row_table(alg)
    prods = [_by_basis(table, {c: 1}) for c in range(alg.dim)]
    keyed = iter(_times_form([row for by_j in prods for row in by_j.values()], alg.field.p, key))
    held = {c: ({c: 1}, {j: next(keyed) for j in by_j}) for c, by_j in enumerate(prods)}
    return held, {c: {c} for c in held}


def _hyperplane(held: dict, holders: dict[int, set[int]], x: dict[int, int], p: int) -> None:
    """Cut the span of the held rows down to the hyperplane on which (x, .)
    vanishes, in place.

    held maps a coordinate t to a pair (row, {j: product}), the row being
    e_t until a cut combines it, the rows independent, and holders maps
    each column to the coordinates of the rows with a nonzero there (see
    _perp_products).  (x, r) is read off x G
    (_times_form), for the rows r that meet its columns alone.  The first
    row u with (x, u) != 0 is dropped, and every other row r with
    (x, r) != 0 becomes
    r - ((x, r)/(x, u)) u, its products the same combination of r's and
    u's, combined as they are held: the products are the rows r . e_j
    relabelled by the form, a linear map, so the combination of the
    relabelled products is the relabelled product of the combination.  The
    new rows and u span the old span, so the new rows are independent;
    they lie in the hyperplane, one dimension less, so they span it.  When
    no row pairs with x the old span lies in the hyperplane, and nothing
    changes.
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


def _extend_rref(basis: dict[int, dict[int, int]], row: dict[int, int], rank, p: int) -> bool:
    """Add a dict row to basis, an RREF {pivot: row} with the columns
    ranked by rank, in place, and return True; the row is consumed.  A row
    in basis's span clears to zero: False, and nothing is added.

    As in _rref_rows: the row is cleared on the pivot columns it meets,
    scaled to 1 at its first column by rank, its new pivot q, and cleared
    from the basis rows with a nonzero at q.
    """
    for c in [c for c in row if c in basis]:
        _clear(row, c, basis[c], p)
    if not row:
        return False
    q = min(row, key=rank.__getitem__)
    inv = pow(row[q], -1, p)
    for j, v in row.items():
        row[j] = v * inv % p
    for other in basis.values():
        if q in other:
            _clear(other, q, row, p)
    basis[q] = row
    return True


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
