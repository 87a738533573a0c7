"""Generative constructions: the omega threshold recursion, the minimal
class prediction, rank-2 algebras of predicted minimal class for
half-dimensions n >= 4 (n = 13 is a known gap: the search runs out of
candidates and raises ConstructionError), the catalog of known minimal
presentations up to dimension 16, and an exact diagonal
scaling-isomorphism solve.

The builders work with shells of the standard basis.  Writing W(r) for
omega(r), the top W(r) x-vectors form the r-th generator shell and the
pairs of the top W(r) y-vectors form the r-th pair shell.  Generators are
matched shell-by-shell to pair shells one level down; the leftover low
generators are injected into the outermost pair shell (case ONE) or, when
they no longer fit, the low y-vectors pair among themselves (case TWO),
which costs one extra step of nilpotency class.  Every produced
presentation is self-verified: it must come out nilpotent of rank 2 with
exactly the predicted class, otherwise the builder moves to the next
admissible assignment.
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
    _nilpotent_shape,
    build_algebra,
    is_isotropic,
    nilpotency_class,
    product_space,
    rank,
    series_report,
    validate_nilpotent_presentation,
)
from .linalg import PrimeField

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
    """Raised when no admissible triple assignment survives verification.

    The message says which ran out: the candidate space or the budget of
    verifications.
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


def _pair_shell(n: int, r: int) -> list[tuple[int, int]]:
    """y-index pairs from the top omega(r) block, minus the block above."""
    lo_outer = n - omega(r) + 1
    lo_inner = n - omega(r - 1) + 1
    pairs = []
    for i in range(lo_outer, n + 1):
        for j in range(i + 1, n + 1):
            if i >= lo_inner and j >= lo_inner:
                continue
            pairs.append((i, j))
    return pairs


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
        high_start = n - omega(m) + 1
        report = {}

        generators_ok = True
        for a, b, c in self.triples:
            if not _nilpotent_shape(a, b, c):
                generators_ok = False
                break
            if a.kind == "x":
                if a.index > n - 2 or b.index < high_start:
                    generators_ok = False
                    break
            else:
                if self.case == "ONE":
                    if a.index > k_low or b.index < high_start:
                        generators_ok = False
                        break
                else:
                    if a.index > k_low:
                        generators_ok = False
                        break
        report["generators"] = generators_ok

        bijection_ok = True
        for r in range(1, m):
            shell_gens = set(_x_shell(n, r))
            shell_pairs = set(_pair_shell(n, r))
            seen_pairs = []
            for a, b, c in self.triples:
                if a.kind == "x" and a.index in shell_gens:
                    seen_pairs.append((b.index, c.index))
            if sorted(seen_pairs) != sorted(shell_pairs) or len(seen_pairs) != len(shell_gens):
                bijection_ok = False
        report["shell_bijection"] = bijection_ok

        sets = [frozenset(t) for t in self.triples]
        report["no_common_pair"] = all(
            len(s & t) <= 1 for s, t in itertools.combinations(sets, 2)
        )

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
    out = []
    for (kind, gi), j, k in raw:
        out.append((BasisVector(kind, gi), BasisVector("y", j), BasisVector("y", k)))
    return tuple(sorted(out, key=lambda t: (t[0].kind, t[0].index, t[1].index, t[2].index)))


def _injections(gens, pairs, must_cover: set[int]):
    """Lazily yield injective assignments gen -> pair whose union of chosen
    pair entries covers must_cover; pairs are tried in the given order."""

    def feasible(uncovered: set[int], remaining: int) -> bool:
        return len(uncovered) <= 2 * remaining

    def rec(idx: int, used: set[tuple[int, int]], uncovered: set[int], acc):
        if idx == len(gens):
            if not uncovered:
                yield list(acc)
            return
        remaining = len(gens) - idx
        if not feasible(uncovered, remaining):
            return
        for pair in pairs:
            if pair in used:
                continue
            acc.append((gens[idx], pair))
            used.add(pair)
            yield from rec(idx + 1, used, uncovered - set(pair), acc)
            used.remove(pair)
            acc.pop()

    yield from rec(0, set(), set(must_cover), [])


def _base_assignments(n: int, m: int):
    """Shell-by-shell bijections below the outermost level.

    The first yield pairs descending generators with pairs in lexicographic
    order; later yields permute the pair order per shell, the outermost
    shell fastest.  Each level's permutations are drawn lazily, so the
    first yield costs memory linear in the shells even where a shell has
    dozens of pairs.
    """
    levels = []
    for r in range(1, m):
        gens = _x_shell(n, r)
        pairs = _pair_shell(n, r)
        if len(gens) != len(pairs):
            raise ConstructionError(f"shell size mismatch at level {r}")
        levels.append((gens, pairs))

    def rec(depth: int, acc: list):
        if depth == len(levels):
            yield list(acc)
            return
        gens, pairs = levels[depth]
        for perm in itertools.permutations(pairs):
            acc.extend((("x", g), i, j) for g, (i, j) in zip(gens, perm))
            yield from rec(depth + 1, acc)
            del acc[len(acc) - len(gens):]

    yield from rec(0, [])


def _w_completions(existing_sets: list[frozenset], lows: list[int], n: int):
    """Lazily yield all-y triples that involve every low y index.

    Candidates for the lowest uncovered index a are (a, b, c) with b
    ascending and c descending, then (i, a, c) with i descending and c
    descending; each must share at most one entry with every chosen triple.
    """

    def candidates(a: int):
        for b in range(a + 1, n + 1):
            for c in range(n, b, -1):
                yield (a, b, c)
        for i in range(a - 1, 0, -1):
            for c in range(n, a, -1):
                yield (i, a, c)

    def rec(chosen: list[tuple[int, int, int]], chosen_sets: list[frozenset], uncovered: set[int]):
        if not uncovered:
            yield list(chosen)
            return
        a = min(uncovered)
        for tri in candidates(a):
            tri_set = frozenset(BasisVector("y", i) for i in tri)
            if any(len(tri_set & s) > 1 for s in existing_sets):
                continue
            if any(len(tri_set & s) > 1 for s in chosen_sets):
                continue
            chosen.append(tri)
            chosen_sets.append(tri_set)
            yield from rec(chosen, chosen_sets, uncovered - set(tri))
            chosen_sets.pop()
            chosen.pop()

    yield from rec([], [], set(lows))


def _verified(tset: TripleSet, field: PrimeField, predicted: int) -> Algebra | None:
    """The algebra of tset if it is nilpotent of rank 2 and the predicted class.

    Only the lower series and the centre are computed, and the returned
    algebra holds both, so asking it for its class and rank again
    recomputes nothing.
    """
    pres = tset.presentation(field)
    if not validate_nilpotent_presentation(pres):
        return None
    alg = build_algebra(pres)
    if nilpotency_class(alg) != predicted or rank(alg) != 2:
        return None
    return alg


def minimal_algebra(n: int, field: PrimeField) -> tuple[TripleSet, Algebra]:
    """A rank-2 algebra of the predicted minimal class for dimension 2n.

    Deterministic: the first assignment in the pinned enumeration order that
    satisfies the triple-set properties and self-verifies is returned, with
    its triple set.  The algebra holds the lower series and the centre its
    verification computed.  Raises ConstructionError when the candidates run
    out, as they do at n = 13 for every p, or when 5000 candidates have
    failed verification.  Where the generators injected into the outer pair shell
    cover at most two new indices each, too few to cover the shell, no
    injection exists for any base assignment, and the candidates run out
    before a base assignment is drawn.
    """
    pred = predict_min_class(n)
    m = pred.m
    k_low = n - omega(m)
    pair_shell_m = _pair_shell(n, m)
    cover = set(range(n - omega(m) + 1, n - omega(m - 1) + 1))
    max_verifications = 5000

    if pred.case == "ONE":
        u_gens = []
        for k in range(k_low, 0, -1):
            u_gens.append(("x", k))
            u_gens.append(("y", k))
    else:
        u_gens = [("x", k) for k in range(k_low, 0, -1)]

    def candidates():
        # _injections' first feasibility test, which no base assignment changes
        if 2 * len(u_gens) < len(cover):
            return
        for base in _base_assignments(n, m):
            for inj in _injections(u_gens, pair_shell_m, cover):
                psi_triples = base + [(g, i, j) for g, (i, j) in inj]
                if pred.case == "ONE":
                    yield psi_triples
                else:
                    existing = [
                        frozenset(
                            (
                                BasisVector(g[0], g[1]),
                                BasisVector("y", i),
                                BasisVector("y", j),
                            )
                        )
                        for g, i, j in psi_triples
                    ]
                    lows = list(range(1, k_low + 1))
                    for extra in _w_completions(existing, lows, n):
                        yield psi_triples + [(("y", a), b, c) for a, b, c in extra]

    verifications = 0
    for raw in candidates():
        tset = TripleSet(n, m, pred.case, _as_triples(raw))
        if not tset.satisfies_properties():
            continue
        if verifications == max_verifications:
            raise ConstructionError(
                f"no minimal construction found for n={n} over {field!r}: "
                f"the budget of {max_verifications} verifications is exhausted"
            )
        verifications += 1
        alg = _verified(tset, field, pred.predicted_class)
        if alg is not None:
            return tset, alg
    raise ConstructionError(
        f"no minimal construction found for n={n} over {field!r}: the candidate "
        f"space is exhausted after {verifications} verifications"
    )


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

    def presentation(self, field: PrimeField | None = None, r: int = 1) -> Presentation:
        field = field or PrimeField(3)
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
    """True iff the witness transforms a's full tensor exactly onto b's."""
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
    """Isomorphism invariants; unequal fingerprints certify non-isomorphism."""
    report = series_report(alg)
    lsq = report.lower[1] if len(report.lower) > 1 else report.lower[0]
    sq_product = product_space(alg, lsq, lsq)
    return (
        report.lower_dims,
        report.upper_dims,
        sq_product.dim,
        tuple(is_isotropic(alg, term) for term in report.lower),
        report.nilpotency_class,
        report.rank,
    )
