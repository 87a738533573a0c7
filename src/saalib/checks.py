"""Batch verification suites and the randomized presentation scanner.

Each check returns a CheckResult carrying a pass flag and, on failure, a
reproducible witness.  The scanner draws nilpotent presentations with
independent uniform values on every admissible triple; each sample's
stream is derived from (seed, sample index) alone, so any sample a report
names can be drawn again from its index.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import (
    Algebra,
    BasisVector,
    NotApplicable,
    NotNilpotentError,
    Presentation,
    PresentationTriple,
    _row_table,
    build_algebra,
    is_maximal_class_criterion,
    lower_central_series,
    rank,
    series_report,
)
from .construct import predict_min_class
from .linalg import PrimeField, _reduced, _rref_rows, orthogonal
from .presfile import emit_presentation

__all__ = [
    "CheckResult",
    "check_axioms",
    "check_duality",
    "check_series_step_bounds",
    "check_rank_two_structure",
    "ScanConfig",
    "ScanReport",
    "Discovery",
    "random_nilpotent_presentation",
    "sample_presentation",
    "scan",
]


@dataclass(frozen=True)
class CheckResult:
    check_name: str
    subject: str
    passed: bool
    details: str = ""

    def __bool__(self) -> bool:
        return self.passed


def check_axioms(alg: Algebra, subject: str = "algebra") -> CheckResult:
    """Alternation, cyclic symmetry, self-adjointness and non-degeneracy.

    Verified on Python ints against the held row table of basis products
    (algebra._row_table), entry (j, k, v) of row i read as
    table[i, j, k] = v, over all basis triples, so a corrupted table is
    caught with the first witness triple (i, j, k) in C order.  The
    pairings (e_i e_j, e_k) recomputed from the table are checked against
    the tensor's gamma(i, j, k), the form read off the nonzeros of the dense
    GramMatrix.data, an encoding apart from the one the package computes
    with (_times_form).
    gamma is alternating and the form is the standard one, so once they
    agree, cyclic symmetry and self-adjointness, (e_i e_j, e_k) =
    (e_i, e_k e_j), hold as well; both are still checked, but no corruption
    of the table alone can reach their messages.
    """
    p = alg.field.p
    g = alg.gram.data
    # the nonzeros of G, read through one np.nonzero, by row and by column
    g_rows: list[dict[int, int]] = [{} for _ in range(alg.dim)]
    g_cols: list[dict[int, int]] = [{} for _ in range(alg.dim)]
    ri, ci = np.nonzero(g)
    for i, k, v in zip(ri.tolist(), ci.tolist(), g[ri, ci].tolist()):
        g_rows[i][k] = g_cols[k][i] = v
    table = {}
    for i, entries in enumerate(_row_table(alg)):
        for j, k, v in entries:
            if j == i and v % p:
                return CheckResult("axioms", subject, False, f"alternation fails at ({i}, {i})")
            table[i, j, k] = v

    def summed(terms) -> dict[tuple[int, int, int], int]:
        out: dict[tuple[int, int, int], int] = {}
        for key, v in terms:
            out[key] = out.get(key, 0) + v
        return out

    swapped = {(j, i, k): -v for (i, j, k), v in table.items()}
    # pairings (e_i e_j, e_k) recomputed from the table must match the tensor
    pair = summed(
        ((i, j, k), v * w) for (i, j, c), v in table.items() for k, w in g_rows[c].items()
    )
    gamma = {
        key: alg.tensor.value_at(*key)
        for triple, _ in alg.tensor.items()
        for key in itertools.permutations(triple)
    }
    rotated = {(k, i, j): v for (i, j, k), v in pair.items()}
    # self-adjointness: (e_i e_j, e_k) = (e_i, e_k e_j)
    right = summed(
        ((i, j, k), w * v) for (k, j, c), v in table.items() for i, w in g_cols[c].items()
    )
    for label, a, b in (
        ("anticommutativity", table, swapped),
        ("table/tensor consistency", pair, gamma),
        ("cyclic symmetry", pair, rotated),
        ("self-adjointness", pair, right),
    ):
        bad = [key for key in a.keys() | b.keys() if (a.get(key, 0) - b.get(key, 0)) % p]
        if bad:
            return CheckResult("axioms", subject, False, f"{label} fails at {min(bad)}")
    # _rref_rows consumes its rows, so it eliminates reduced copies
    if len(_rref_rows([_reduced(row, p) for row in g_rows], p)) != alg.dim:
        return CheckResult("axioms", subject, False, "degenerate form")
    return CheckResult("axioms", subject, True)


def check_duality(alg: Algebra, subject: str = "algebra") -> CheckResult:
    """Z_i equals perp(L^{i+1}) for every i up to the class.

    The form is non-degenerate, so Z_i = perp(L^{i+1}) iff
    dim Z_i + dim L^{i+1} = 2n and Z_i is orthogonal to L^{i+1}, which the
    pairings of their bases decide (see orthogonal); no perp is built.
    """
    rep = series_report(alg)
    if rep.nilpotency_class is None:
        raise NotNilpotentError("duality check requires a nilpotent algebra")
    for i, z in enumerate(rep.upper):
        lower = rep.lower[i]
        if z.dim + lower.dim != alg.dim or not orthogonal(z, lower, alg.gram):
            return CheckResult(
                "duality", subject, False, f"Z_{i} != perp(L^{i + 1}); dims {rep.lower_dims}"
            )
    return CheckResult("duality", subject, True, f"dims {rep.lower_dims}")


def check_series_step_bounds(alg: Algebra, subject: str = "algebra") -> CheckResult:
    """Step growth bound on the upper series plus the lower/upper mirror.

    dim Z_i - dim Z_{i-1} <= (dim Z_{i-1} - dim Z_{i-2})(dim Z_{i-1} +
    dim Z_{i-2} - 1)/2 for i >= 2, and dim L^i - dim L^{i+1} equals
    dim Z_i - dim Z_{i-1} throughout.
    """
    rep = series_report(alg)
    if rep.nilpotency_class is None:
        raise NotNilpotentError("series bounds require a nilpotent algebra")
    zd = rep.upper_dims
    ld = rep.lower_dims
    for i in range(2, len(zd)):
        step = zd[i] - zd[i - 1]
        bound = (zd[i - 1] - zd[i - 2]) * (zd[i - 1] + zd[i - 2] - 1)
        if 2 * step > bound:
            return CheckResult(
                "series-step-bounds", subject, False, f"step {i}: 2*{step} > {bound}"
            )
    for i in range(1, len(ld)):
        if ld[i - 1] - ld[i] != zd[i] - zd[i - 1]:
            return CheckResult(
                "series-step-bounds", subject, False,
                f"mirror fails at i={i}: lower {ld}, upper {zd}",
            )
    return CheckResult("series-step-bounds", subject, True)


def check_rank_two_structure(alg: Algebra, subject: str = "algebra") -> CheckResult:
    """Dimension facts forced on nilpotent algebras with a 2-dimensional center.

    For dimension 2n >= 8: dim L^2 = 2n-2, dim L^3 = 2n-3, dim L^4 is
    2n-4 or 2n-5, L^class equals the center, and 5 <= class <= 2n-3; for
    2n >= 12 additionally class >= 7.
    """
    rep = series_report(alg)
    if rep.nilpotency_class is None:
        raise NotNilpotentError("rank-two structure requires a nilpotent algebra")
    center = rep.upper_term(1)
    if center.dim != 2:
        raise NotApplicable("check requires a 2-dimensional center")
    if alg.dim < 8:
        raise NotApplicable("check requires dimension at least 8")
    d = alg.dim
    cls = rep.nilpotency_class
    ld = rep.lower_dims
    problems = []
    if ld[1] != d - 2:
        problems.append(f"dim L^2 = {ld[1]} != {d - 2}")
    if ld[2] != d - 3:
        problems.append(f"dim L^3 = {ld[2]} != {d - 3}")
    if ld[3] not in (d - 4, d - 5):
        problems.append(f"dim L^4 = {ld[3]} not in {{{d - 4}, {d - 5}}}")
    if rep.lower_term(cls) != center:
        problems.append("L^class != center")
    if not 5 <= cls <= d - 3:
        problems.append(f"class {cls} outside [5, {d - 3}]")
    if d >= 12 and cls < 7:
        problems.append(f"class {cls} < 7 at dimension {d}")
    if problems:
        return CheckResult("rank-two-structure", subject, False, "; ".join(problems))
    return CheckResult("rank-two-structure", subject, True, f"dims {ld}")


# ---------------------------------------------------------------------------
# randomized scanning


@functools.cache
def _triple_universe(n: int) -> tuple[tuple[BasisVector, BasisVector, BasisVector], ...]:
    """All admissible triples of a nilpotent presentation, in pinned order."""
    return tuple(
        (BasisVector(kind, i), BasisVector("y", j), BasisVector("y", k))
        for kind in ("x", "y")
        for i, j, k in itertools.combinations(range(1, n + 1), 3)
    )


def random_nilpotent_presentation(
    n: int, field: PrimeField, rng: np.random.Generator
) -> Presentation:
    """Independent uniform values over the full nilpotent triple shape."""
    universe = _triple_universe(n)
    values = rng.integers(0, field.p, size=len(universe))
    triples = tuple(
        PresentationTriple(a, b, c, int(v))
        for (a, b, c), v in zip(universe, values)
        if v
    )
    return Presentation(n, field, triples)


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters.

    Sample index i draws from numpy's PCG64 seeded with
    SeedSequence(entropy=seed, spawn_key=(i,)), so per-sample streams
    depend only on (seed, i), not on the number of samples or on which
    samples were drawn before.
    """

    n: int
    p: int
    samples: int
    seed: int
    rank_filter: int | None = None
    # built once here, so that no sample repeats the primality test
    field: PrimeField = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        # refuses composites and primes too large for int64
        object.__setattr__(self, "field", PrimeField(self.p))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        # numpy's SeedSequence refuses a negative entropy, mid-scan
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def sample_presentation(cfg: ScanConfig, index: int) -> Presentation:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,)))
    return random_nilpotent_presentation(cfg.n, cfg.field, rng)


@dataclass(frozen=True)
class Discovery:
    """A sample that breaks a conjectured bound; reproducible from the dump."""

    index: int
    rank: int
    nilpotency_class: int | None
    reason: str
    presentation_text: str


@dataclass
class ScanReport:
    config: ScanConfig
    classified: int = 0
    counts: dict = dc_field(default_factory=dict)
    min_class_rank2: int | None = None
    criterion_mismatches: int | None = None
    discoveries: tuple[Discovery, ...] = ()

    @property
    def predicted_min_class(self) -> int | None:
        if self.config.n >= 4:
            return predict_min_class(self.config.n).predicted_class
        return None

    def render(self) -> str:
        cfg = self.config
        rf = "none" if cfg.rank_filter is None else str(cfg.rank_filter)
        lines = [
            f"scan: n={cfg.n} p={cfg.p} samples={cfg.samples} seed={cfg.seed} rank-filter={rf}",
            f"classified: {self.classified}",
        ]
        for (rk, cls), count in sorted(
            self.counts.items(), key=lambda kv: (kv[0][0], kv[0][1] if kv[0][1] is not None else -1)
        ):
            cls_text = "none" if cls is None else str(cls)
            lines.append(f"count rank={rk} class={cls_text}: {count}")
        mc = "n/a" if self.min_class_rank2 is None else str(self.min_class_rank2)
        lines.append(f"min-class-rank2: {mc}")
        pc = "n/a" if self.predicted_min_class is None else str(self.predicted_min_class)
        lines.append(f"predicted-min-class: {pc}")
        cm = "n/a" if self.criterion_mismatches is None else str(self.criterion_mismatches)
        lines.append(f"criterion-mismatches: {cm}")
        lines.append(f"violations: {len(self.discoveries)}")
        if self.discoveries:
            lines.append("status: COUNTEREXAMPLE CANDIDATE FOUND (inspect dumps below)")
            for d in self.discoveries:
                cls_text = "none" if d.nilpotency_class is None else str(d.nilpotency_class)
                lines.append(
                    f"violation: index={d.index} rank={d.rank} class={cls_text} reason={d.reason}"
                )
                for text_line in d.presentation_text.splitlines():
                    lines.append(f"  | {text_line}")
        else:
            lines.append("status: no counterexample found")
        return "\n".join(lines) + "\n"


def scan(cfg: ScanConfig) -> ScanReport:
    """Classify random nilpotent presentations by (rank, class).

    Samples are folded in index order, so discoveries come out sorted by
    index.  The minimal rank-2 class, the criterion mismatches and the
    discoveries cover every sample; the rank filter only limits which
    samples are counted by (rank, class).
    """
    report = ScanReport(cfg, criterion_mismatches=0 if 2 * cfg.n >= 8 else None)
    predicted = report.predicted_min_class
    for index in range(cfg.samples):
        pres = sample_presentation(cfg, index)
        alg = build_algebra(pres)
        cls = lower_central_series(alg).nilpotency_class
        rk = rank(alg)
        if alg.dim >= 8 and is_maximal_class_criterion(alg) != (cls == alg.dim - 3):
            report.criterion_mismatches += 1
        if rk == 2 and cls is not None:
            if report.min_class_rank2 is None or cls < report.min_class_rank2:
                report.min_class_rank2 = cls
            reason = None
            if predicted is not None and cls < predicted:
                reason = "class below predicted minimum"
            elif alg.dim >= 8 and not 5 <= cls <= alg.dim - 3:
                reason = "class outside [5, 2n-3]"
            if reason is not None:
                discovery = Discovery(index, rk, cls, reason, emit_presentation(pres))
                report.discoveries += (discovery,)
        if cfg.rank_filter is None or rk == cfg.rank_filter:
            report.classified += 1
            report.counts[(rk, cls)] = report.counts.get((rk, cls), 0) + 1
    return report
