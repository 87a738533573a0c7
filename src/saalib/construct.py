"""Generative constructions: the omega threshold recursion, the minimal
class prediction, rank-2 algebras of predicted minimal class for
half-dimensions n >= 4 (n = 13, n = 69..81 and n = 2281..2832 are known
gaps: the low generators cannot cover the outer pair shell, and
ConstructionError is raised; n = 2833..3000 build with class 13), the
catalog of known minimal presentations up to dimension 16, and an exact
diagonal scaling-isomorphism solve.

The builder works with shells of the standard basis.  Writing W(r) for
omega(r), the top W(r) x-vectors form the r-th generator shell and the
pairs of the top W(r) y-vectors form the r-th pair shell.  Generators are
matched shell-by-shell to pair shells one level down; the leftover low
generators are injected into the outermost pair shell (case ONE) or, when
they no longer fit, the low y-vectors pair among themselves (case TWO),
which costs one extra step of nilpotency class.  Each step makes one
deterministic choice, and the result is checked: the triple set must
satisfy its structural properties and its algebra must come out nilpotent
of rank 2 with exactly the predicted class, otherwise ConstructionError
names the step that failed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    Algebra,
    BasisVector,
    Presentation,
    StructureTensor,
    _coordinate_lower,
    _coordinate_targets,
    _exact_lower,
    _nilpotent_shape,
    _row_table,
    build_algebra,
    is_isotropic,
    nilpotency_class,
    product_space,
    rank,
)
from .linalg import PrimeField, _times_form

__all__ = [
    "ConstructionError",
    "omega",
    "omega_table",
    "ClassPrediction",
    "predict_min_class",
    "TripleSet",
    "construct_minimal",
    "minimal_algebra",
    "CatalogEntry",
    "catalog",
    "catalog_entry",
    "ScalingWitness",
    "try_scaling_isomorphism",
    "verify_scaling_witness",
    "fingerprint",
]


class ConstructionError(RuntimeError):
    """Raised when the minimal construction cannot be built or fails its checks.

    The message names the step that failed.
    """


@lru_cache(maxsize=None)
def omega(m: int) -> int:
    """omega(0) = 0, omega(1) = 2, omega(m+1) = 2 + C(omega(m), 2)."""
    if m < 0:
        raise ValueError("omega is defined for m >= 0")
    if m == 0:
        return 0
    if m == 1:
        return 2
    prev = omega(m - 1)
    return 2 + prev * (prev - 1) // 2


def omega_table(m_max: int) -> list[int]:
    return [omega(m) for m in range(m_max + 1)]


@dataclass(frozen=True)
class ClassPrediction:
    """Predicted minimal class for rank-2 algebras of dimension 2n."""

    n: int
    m: int
    case: str
    predicted_class: int


def predict_min_class(n: int) -> ClassPrediction:
    """Locate n between omega thresholds and read off 2m+1 or 2m+2.

    Case ONE iff 2n <= omega(m) + omega(m+1); the comparison is exact
    integer arithmetic.
    """
    if n < 4:
        raise ValueError("prediction requires half-dimension n >= 4")
    m = 0
    while not (omega(m) < n <= omega(m + 1)):
        m += 1
    if 2 * n <= omega(m) + omega(m + 1):
        return ClassPrediction(n, m, "ONE", 2 * m + 1)
    return ClassPrediction(n, m, "TWO", 2 * m + 2)


# ---------------------------------------------------------------------------
# triple sets


def _pair_shell(n: int, r: int):
    """y-index pairs (i, j), i < j, of the top omega(r) block minus the block
    above, in lexicographic order: those whose smaller index i lies in the
    outer block.  Yielded one at a time; the shell at r = 6 has 2,595,782
    pairs."""
    for i in range(n - omega(r) + 1, n - omega(r - 1) + 1):
        for j in range(i + 1, n + 1):
            yield i, j


def _x_shell(n: int, r: int) -> list[int]:
    """x indices between the omega(r) and omega(r+1) blocks, descending."""
    return list(range(n - omega(r), n - omega(r + 1), -1))


@dataclass(frozen=True)
class TripleSet:
    """The triples (u, v, w) that receive value 1 in a minimal construction."""

    n: int
    m: int
    case: str
    triples: tuple[tuple[BasisVector, BasisVector, BasisVector], ...]

    def property_report(self) -> dict[str, bool]:
        """Structural properties of the triple set.

        generators: each triple is (u, y_j, y_k) with u among the admissible
        low generators, and pairs of x-generated triples lie in the outer
        pair shell; shell_bijection: shell-r+1 x-generators biject onto
        shell-r pairs below the outermost level; no_common_pair: no two
        triples share two entries; coverage: every basis vector except
        x_n and x_{n-1} occurs.
        """
        n, m = self.n, self.m
        k_low = n - omega(m)

        def generated(a, b, c) -> bool:
            if not _nilpotent_shape(a, b, c):
                return False
            if a.kind == "x":
                return a.index <= n - 2 and b.index > k_low
            return a.index <= k_low and (self.case != "ONE" or b.index > k_low)

        def bijects(r) -> bool:
            gens = set(_x_shell(n, r))
            pairs = sorted(
                (b.index, c.index) for a, b, c in self.triples if a.kind == "x" and a.index in gens
            )
            return len(pairs) == len(gens) and pairs == list(_pair_shell(n, r))

        report = {
            "generators": all(generated(*t) for t in self.triples),
            "shell_bijection": all(map(bijects, range(1, m))),
        }

        pairs = [q for t in self.triples for q in _pairs_within(t)]
        report["no_common_pair"] = len(pairs) == len(set(pairs))

        involved = {v for t in self.triples for v in t}
        required = {BasisVector("x", i) for i in range(1, n - 1)}
        required |= {BasisVector("y", i) for i in range(1, n + 1)}
        excluded = {BasisVector("x", n), BasisVector("x", n - 1)}
        report["coverage"] = required <= involved and not (involved & excluded)
        return report

    def satisfies_properties(self) -> bool:
        return all(self.property_report().values())

    def presentation(self, field: PrimeField) -> Presentation:
        items = [(a, b, c, 1) for a, b, c in self.triples]
        return Presentation.build(self.n, field, items)


def _as_triples(raw: list[tuple[tuple[str, int], int, int]]):
    out = [(BasisVector(*g), BasisVector("y", j), BasisVector("y", k)) for g, j, k in raw]
    return tuple(sorted(out))


def _base_assignment(n: int, m: int) -> list:
    """Shell-by-shell bijections below the outermost level: each shell's
    descending generators zipped with its pairs in lexicographic order."""
    return [
        (("x", g), i, j)
        for r in range(1, m)
        for g, (i, j) in zip(_x_shell(n, r), _pair_shell(n, r))
    ]


def _injection(gens, pairs, cover) -> list | None:
    """Give each generator, in order, the first unused pair after which the
    generators still to come, at two indices each, can cover the rest of
    cover.  None if some generator finds no such pair.

    A pair (i, j), i < j, may be taken when its count of uncovered entries
    reaches need = |uncovered| - 2 * rest, rest being the generators after
    this one.  Taking a pair removes at most two indices and lowers rest by
    one, so need never falls; and a pair's count never rises, since
    uncovered only shrinks.  So a pair passed over is never chosen later,
    and one forward walk over the pairs makes every choice.  No pair covers
    more than two indices, so a need above two returns None with no pair
    read.
    """
    uncovered, cursor, chosen = set(cover), iter(pairs), []
    for rest, g in zip(range(len(gens) - 1, -1, -1), gens):
        need = len(uncovered) - 2 * rest
        if need > 2:
            return None
        pair = next(((i, j) for i, j in cursor if (i in uncovered) + (j in uncovered) >= need), None)
        if pair is None:
            return None
        uncovered.difference_update(pair)
        chosen.append((g, *pair))
    return None if uncovered else chosen


def _pairs_within(entries) -> list[frozenset]:
    """The 2-subsets of a triple's entries (of a pair's: the pair itself).
    Two triples share two entries iff they share one of these."""
    return [frozenset(q) for q in itertools.combinations(set(entries), 2)]


def _w_completion(existing, lows, n: int) -> list | None:
    """All-y triples, chosen greedily, that involve every low y index.

    For the lowest uncovered index a the first triple is taken among
    (a, b, c) with b ascending and c descending, then (i, a, c) with i
    descending and c descending, that shares at most one y index with every
    triple chosen so far or index set in existing.  None if some a has no
    such triple.
    """
    used = {q for s in existing for q in _pairs_within(s)}
    chosen, uncovered = [], set(lows)
    while uncovered:
        a = min(uncovered)
        candidates = itertools.chain(
            ((a, b, c) for b in range(a + 1, n + 1) for c in range(n, b, -1)),
            ((i, a, c) for i in range(a - 1, 0, -1) for c in range(n, a, -1)),
        )
        tri = next((t for t in candidates if used.isdisjoint(_pairs_within(t))), None)
        if tri is None:
            return None
        used.update(_pairs_within(tri))
        chosen.append(tri)
        uncovered.difference_update(tri)
    return chosen


def _verified(tset: TripleSet, field: PrimeField, predicted: int) -> Algebra | None:
    """The algebra of tset if it is nilpotent of rank 2 and the predicted class.

    Only the lower series and the centre are computed, and the returned
    algebra holds both, so asking it for its class and rank again
    recomputes nothing.  A triple set that passes no_common_pair, as
    minimal_algebra checks first, is monomial, so both are read off sets
    of coordinates (see monomial_series), with no elimination.
    """
    alg = build_algebra(tset.presentation(field))
    if nilpotency_class(alg) != predicted or rank(alg) != 2:
        return None
    return alg


def minimal_algebra(n: int, field: PrimeField) -> tuple[TripleSet, Algebra]:
    """A rank-2 algebra of the predicted minimal class for dimension 2n.

    Deterministic: the shells are assigned in their pinned order, the low
    generators are injected into the outer pair shell and, in case TWO,
    the low y-vectors are completed by all-y triples.  The triple set must
    satisfy its properties and its algebra must verify; the algebra is
    returned with its triple set and holds the lower series and the centre
    its verification computed.  Raises ConstructionError naming the step
    that failed.  At n = 13, n = 69..81 and n = 2281..2832 the low
    generators cover at most two new indices each, too few for the outer
    pair shell; every other n up to 3000 builds.
    """
    pred = predict_min_class(n)
    m = pred.m
    k_low = n - omega(m)

    def failed(step: str) -> ConstructionError:
        return ConstructionError(f"no minimal construction found for n={n} over {field!r}: {step}")

    kinds = "xy" if pred.case == "ONE" else "x"
    low_gens = [(kind, k) for k in range(k_low, 0, -1) for kind in kinds]
    cover = range(k_low + 1, n - omega(m - 1) + 1)
    injected = _injection(low_gens, _pair_shell(n, m), cover)
    if injected is None:
        raise failed("the low generators cannot cover the outer pair shell")
    raw = _base_assignment(n, m) + injected
    if pred.case == "TWO":
        extra = _w_completion([{i, j} for _, i, j in raw], range(1, k_low + 1), n)
        if extra is None:
            raise failed("no all-y triples complete the low y-vectors")
        raw += [(("y", a), b, c) for a, b, c in extra]
    tset = TripleSet(n, m, pred.case, _as_triples(raw))
    broken = [name for name, ok in tset.property_report().items() if not ok]
    if broken:
        raise failed("the triple set fails " + ", ".join(broken))
    alg = _verified(tset, field, pred.predicted_class)
    if alg is None:
        raise failed(f"the algebra is not of rank 2 and class {pred.predicted_class}")
    return tset, alg


def construct_minimal(n: int, field: PrimeField) -> tuple[TripleSet, Presentation]:
    """Build a rank-2 algebra of the predicted minimal class for dimension 2n.

    Returns the triple set and the presentation that minimal_algebra finds,
    and raises ConstructionError where it does.
    """
    tset, alg = minimal_algebra(n, field)
    return tset, alg.presentation


# ---------------------------------------------------------------------------
# catalog of known minimal presentations


@dataclass(frozen=True)
class CatalogEntry:
    """A known minimal rank-2 presentation, optionally scaled by a unit r."""

    name: str
    n: int
    expected_class: int
    expected_rank: int
    parameterized: bool
    shape: tuple[tuple[str, str, str, object], ...]

    @property
    def dim(self) -> int:
        return 2 * self.n

    def presentation(self, field: PrimeField, r: int = 1) -> Presentation:
        rv = r % field.p
        if self.parameterized and rv == 0:
            raise ValueError(f"{self.name} requires a nonzero parameter r")
        items = []
        for a, b, c, value in self.shape:
            items.append((a, b, c, rv if value == "r" else int(value)))
        return Presentation.build(self.n, field, items)


_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "P8-2-1", 4, 5, 2, True,
        (("x2", "y3", "y4", "r"), ("x1", "y2", "y3", 1), ("y1", "y2", "y4", 1)),
    ),
    CatalogEntry(
        "P10-2-1", 5, 6, 2, False,
        (("x3", "y4", "y5", 1), ("x2", "y3", "y5", 1), ("x1", "y3", "y4", 1),
         ("y1", "y2", "y5", 1)),
    ),
    CatalogEntry(
        "P10-2-2", 5, 6, 2, True,
        (("x3", "y4", "y5", "r"), ("x2", "y3", "y5", 1), ("x1", "y3", "y4", 1),
         ("y1", "y2", "y3", 1)),
    ),
    CatalogEntry(
        "P12-2-1", 6, 7, 2, False,
        (("x4", "y5", "y6", 1), ("x3", "y4", "y6", 1), ("x2", "y4", "y5", 1),
         ("x1", "y2", "y4", 1), ("y1", "y2", "y3", 1)),
    ),
    CatalogEntry(
        "P14-2-1", 7, 7, 2, False,
        (("x5", "y6", "y7", 1), ("x4", "y5", "y6", 1), ("x3", "y5", "y7", 1),
         ("x2", "y3", "y5", 1), ("x1", "y3", "y6", 1), ("y1", "y4", "y5", 1),
         ("y2", "y4", "y6", 1)),
    ),
    CatalogEntry(
        "P16-2-1", 8, 7, 2, False,
        (("x6", "y7", "y8", 1), ("x5", "y6", "y8", 1), ("x4", "y6", "y7", 1),
         ("x3", "y5", "y8", 1), ("x2", "y5", "y7", 1), ("x1", "y5", "y6", 1),
         ("y1", "y4", "y8", 1), ("y2", "y4", "y7", 1), ("y3", "y4", "y6", 1)),
    ),
)


def catalog() -> list[CatalogEntry]:
    """All known minimal rank-2 presentations up to dimension 16."""
    return list(_CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    for entry in _CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown catalog entry {name!r}")


# ---------------------------------------------------------------------------
# scaling isomorphisms


@dataclass(frozen=True)
class ScalingWitness:
    """A symplectic monomial basis change x_i -> s_i x_i, y_i -> s_i^-1 y_i."""

    field: PrimeField
    scales: tuple[int, ...]

    def coordinate_scales(self) -> list[int]:
        out = []
        for s in self.scales:
            out.append(s % self.field.p)
            out.append(self.field.inv(s))
        return out


def _transform_values(tensor: StructureTensor, witness: ScalingWitness):
    scales = witness.coordinate_scales()
    p = witness.field.p
    return {
        key: value * scales[key[0]] * scales[key[1]] * scales[key[2]] % p
        for key, value in tensor.items()
    }


def verify_scaling_witness(a: Presentation, b: Presentation, witness: ScalingWitness) -> bool:
    """True iff the witness, n unit scales over a's and b's shared field,
    transforms a's full tensor exactly onto b's."""
    shared = a.n == b.n == len(witness.scales) and a.field == b.field == witness.field
    if not shared or not all(s % witness.field.p for s in witness.scales):
        return False
    ta = StructureTensor.from_presentation(a)
    tb = StructureTensor.from_presentation(b)
    return _transform_values(ta, witness) == dict(tb.items())


def _unit_group_generator(p: int) -> int:
    """The smallest generator g of the cyclic group GF(p)^x.

    g generates iff g^((p-1)/q) != 1 for every prime q dividing p - 1; the
    primes come from trial division.
    """
    m = p - 1
    primes, rest, q = [], m, 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(1, p) if all(pow(g, m // q, p) != 1 for q in primes))


def _discrete_logs(g: int, targets, p: int) -> dict[int, int]:
    """log_g of each target unit, in [0, p - 1), by baby-step giant-step.

    One table of k baby steps, k * k >= p - 1, serves every target.
    """
    k = math.isqrt(p - 2) + 1
    table: dict[int, int] = {}
    power = 1
    for j in range(k):
        table.setdefault(power, j)
        power = power * g % p
    giant = pow(g, -k, p)
    logs = {}
    for target in set(targets):
        y = target
        for i in range(k):
            j = table.get(y)
            if j is not None:
                logs[target] = i * k + j
                break
            y = y * giant % p
    return logs


def _solve_mod(rows: list[list[int]], rhs: list[int], ncols: int, m: int) -> list[int] | None:
    """One solution e of rows . e = rhs (mod m), or None if none exists.

    Row and column operations over Z bring the rows to a diagonal form
    U . rows . V = D with U and V unimodular.  With z = V^-1 e the system
    splits into d_t z_t = c_t (mod m), c = U . rhs, each solvable iff
    gcd(d_t, m) divides c_t, and the zero rows of D need c_t = 0 (mod m).
    Every free component of z is taken as 0, so rhs = 0 gives e = 0.
    """
    a = [list(row) for row in rows]
    c = [x % m for x in rhs]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    t = 0
    while True:
        entries = [(abs(x), i, j) for i in range(t, len(a)) for j, x in enumerate(a[i][t:], t) if x]
        if not entries:
            break
        _, i, j = min(entries)
        a[t], a[i] = a[i], a[t]
        c[t], c[i] = c[i], c[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        d = a[t][t]
        for i in range(t + 1, len(a)):
            q = a[i][t] // d
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                c[i] = (c[i] - q * c[t]) % m
        for j in range(t + 1, ncols):
            q = a[t][j] // d
            if q:
                for row in a[t:] + v:
                    row[j] -= q * row[t]
        # a remainder smaller than d is moved to the pivot on the next pass
        if not any(a[i][t] for i in range(t + 1, len(a))) and not any(a[t][t + 1:]):
            t += 1
    if any(c[t:]):
        return None
    z = [0] * ncols
    for i in range(t):
        d, g = a[i][i], math.gcd(a[i][i], m)
        if c[i] % g:
            return None
        z[i] = c[i] // g * pow(d // g, -1, m // g) % (m // g)
    return [sum(x * y for x, y in zip(row, z)) % m for row in v]


def try_scaling_isomorphism(a: Presentation, b: Presentation) -> ScalingWitness | None:
    """A diagonal symplectic scaling taking a to b, or None if none exists.

    A scaling multiplies the tensor value at (c1, c2, c3) by the product of
    the three coordinate scales, so the support is preserved; if the two
    supports differ no diagonal witness exists.  Otherwise GF(p)^x is
    cyclic with a generator g, and writing s_i = g^e_i turns each support
    triple into one linear congruence mod p - 1 in the exponents e_i, which
    is solved exactly.  A tensor mapped to itself gives the witness
    (1, ..., 1).  A returned witness is always re-verified on the full
    tensor.  None proves that no diagonal symplectic scaling takes a to b;
    it does not prove the algebras non-isomorphic.
    """
    if a.n != b.n or a.field != b.field:
        raise ValueError("presentations must share n and field")
    ta = StructureTensor.from_presentation(a)
    tb = StructureTensor.from_presentation(b)
    if ta.support() != tb.support():
        return None
    target = dict(tb.items())
    p = a.field.p
    rows, ratios = [], []
    for key, value in ta.items():
        row = [0] * a.n
        for c in key:  # coordinate 2i is x_i, scaled by s_i; 2i + 1 is y_i, by 1/s_i
            row[c // 2] += 1 if c % 2 == 0 else -1
        rows.append(row)
        ratios.append(target[key] * pow(value, -1, p) % p)
    g = _unit_group_generator(p)
    logs = _discrete_logs(g, ratios, p)
    exponents = _solve_mod(rows, [logs[r] for r in ratios], a.n, p - 1)
    if exponents is None:
        return None
    witness = ScalingWitness(a.field, tuple(pow(g, e, p) for e in exponents))
    if not verify_scaling_witness(a, b, witness):
        raise RuntimeError("the solved scaling fails verification on the full tensor")
    return witness


# ---------------------------------------------------------------------------
# fingerprints


def fingerprint(alg: Algebra) -> tuple:
    """Isomorphism invariants; unequal fingerprints certify non-isomorphism.

    The tuple holds the lower series' dims, the upper series' dims, dim
    L^2 L^2, whether each lower term is isotropic, the class and the rank
    (None unless nilpotent).  A monomial algebra, whose coordinate view
    _coordinate_targets holds, has it read off sets of coordinates
    (_coordinate_fingerprint); any other off the lower series eliminated
    (_exact_fingerprint).
    """
    targets = _coordinate_targets(alg)
    if targets is None:
        return _exact_fingerprint(alg)
    return _coordinate_fingerprint(alg, targets)


def _coordinate_fingerprint(alg: Algebra, targets: tuple[frozenset[int], ...]) -> tuple:
    """fingerprint on a monomial algebra, whose coordinate view is targets,
    with no elimination and no Subspace built.

    Every lower term is spanned by the basis vectors of a set of
    coordinates (_coordinate_lower; see monomial_series for the argument),
    and the upper dims come off it by duality, as in _exact_fingerprint.
    L^2 L^2 is spanned by the products e_a . e_j with a and j in L^2's set,
    each 0 or a multiple of e_k for the entry (j, k, v) of the row table's
    row a, so by those k.  (e_a, e_b) is nonzero iff b is a's form partner
    (_times_form), so a span of basis vectors is isotropic iff no member's
    partner lies in its set.
    """
    p, dim, table = alg.field.p, alg.dim, _row_table(alg)
    lower = _coordinate_lower(targets)
    lsq = lower[min(1, len(lower) - 1)]
    cls = None if lower[-1] else len(lower) - 1
    return (
        tuple(map(len, lower)),
        tuple(dim - len(s) for s in lower),
        len({k for a in lsq for j, k, _ in table[a] if j in lsq}),
        tuple(s.isdisjoint(_times_form([dict.fromkeys(s, 1)], p)[0]) for s in lower),
        cls,
        None if cls is None else dim - len(lsq),
    )


def _exact_fingerprint(alg: Algebra) -> tuple:
    """fingerprint on any algebra, off its lower series eliminated
    (_exact_lower), which a monomial algebra's held series does not read.

    Upper dims come off the lower series: by invariance Z_i = perp(L^{i+1}),
    nilpotent or not, with as many terms (see checks.check_duality).  So
    the rank of a nilpotent algebra, dim L - dim L^2 = dim Z_1, is read off
    them too, and no centre is computed (rank(alg) would eliminate one only
    to cross-check that value).
    L^2 L^2 multiplies each pair of L^2's basis rows once, by alternation
    (see product_space).

    The isotropy flags are decided from the smallest lower term upward.
    L^{i+1} <= L^i for every algebra, and a subspace of an isotropic space
    is isotropic, so once a term is not isotropic no larger term is: those
    flags are False without a test, and the tuple is that of testing every
    term."""
    low = _exact_lower(alg)
    lsq = low.lower_term(2)
    sq_product = product_space(alg, lsq, lsq)
    first = len(low.lower)  # low.lower[first:] are the isotropic terms
    while first and is_isotropic(alg, low.lower[first - 1]):
        first -= 1
    return (
        low.lower_dims,
        tuple(alg.dim - d for d in low.lower_dims),
        sq_product.dim,
        tuple(i >= first for i in range(len(low.lower))),
        low.nilpotency_class,
        None if low.nilpotency_class is None else alg.dim - lsq.dim,
    )
