"""Verification suites and the seeded scanner."""

import dataclasses
import re

import numpy as np
import pytest

from saalib import linalg
from saalib.algebra import (
    NotNilpotentError,
    Presentation,
    _row_table,
    build_algebra,
    nilpotency_class,
    rank,
    series_report,
)
from saalib.checks import (
    ScanConfig,
    check_axioms,
    check_duality,
    check_rank_two_structure,
    check_series_step_bounds,
    random_nilpotent_presentation,
    sample_presentation,
    scan,
)
from saalib.cli import main
from saalib.construct import catalog, catalog_entry, predict_min_class
from saalib.linalg import PrimeField
from saalib.presfile import parse_presentation

F3 = PrimeField(3)


def corrupted(alg, changes):
    """alg with each change {(i, j, k): delta} added to table[i, j, k] in
    the row table it holds, which check_axioms reads."""
    p = alg.field.p
    rows = [{(j, k): v for j, k, v in entries} for entries in _row_table(alg)]
    for (i, j, k), delta in changes.items():
        rows[i][j, k] = (rows[i].get((j, k), 0) + delta) % p
    alg._series["_row_table"] = tuple(
        tuple(sorted((j, k, v) for (j, k), v in row.items() if v)) for row in rows
    )
    return alg


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_axioms_pass_on_catalog(p):
    field = PrimeField(p)
    for entry in catalog():
        result = check_axioms(build_algebra(entry.presentation(field, r=1)), entry.name)
        assert result.passed, result.details


@pytest.mark.parametrize(
    "changes, details",
    [
        # a one-sided entry: e_x1 . e_y2 changes and e_y2 . e_x1 does not
        ({(0, 3, 2): 1}, "anticommutativity fails at (0, 3, 2)"),
        # a diagonal entry: e_y3 . e_y3 != 0
        ({(5, 5, 2): 1}, "alternation fails at (5, 5)"),
        # an antisymmetric pair that disagrees with gamma at (x1, y2, y2)
        ({(0, 3, 2): 1, (3, 0, 2): -1}, "table/tensor consistency fails at (0, 3, 3)"),
    ],
    ids=["anticommutativity", "alternation", "consistency"],
)
def test_axioms_detect_corruption(changes, details):
    # consistency with an alternating gamma implies cyclic symmetry and
    # self-adjointness, so no table corruption reaches those messages
    alg = build_algebra(catalog_entry("P14-2-1").presentation(F3))
    assert check_axioms(alg).passed
    result = check_axioms(corrupted(alg, changes))
    assert not result.passed
    assert result.details == details


@pytest.mark.parametrize(
    "triples",
    [[], [("x1", "y2", "y3", 1), ("x2", "y3", "y1", 2)]],
    ids=["abelian", "nonabelian"],
)
def test_axioms_detect_degenerate_form(monkeypatch, triples):
    # no triple meets x_4 or y_4, so the table checks pass with their pair
    # zeroed in the form, and only its rank can refuse it; the form is
    # field and n alone, so the dense matrix check_axioms reads is patched
    # on the class
    alg = build_algebra(Presentation.build(4, F3, triples))
    data = [list(row) for row in alg.gram.data]
    data[6][7] = data[7][6] = 0
    data = tuple(map(tuple, data))
    monkeypatch.setattr(linalg.GramMatrix, "data", property(lambda g: data))
    result = check_axioms(alg)
    assert not result.passed
    assert result.details == "degenerate form"


def test_duality_on_catalog_and_randoms():
    rng = np.random.default_rng(101)
    for entry in catalog():
        assert check_duality(build_algebra(entry.presentation(F3, r=1))).passed
    for n in (4, 5):
        for _ in range(25):
            alg = build_algebra(random_nilpotent_presentation(n, F3, rng))
            assert check_duality(alg).passed
    abelian = build_algebra(Presentation.build(4, F3, []))
    assert check_duality(abelian).passed


@pytest.mark.parametrize("swap", ["same dim", "line inside"])
def test_duality_fails_on_a_tampered_centre(swap):
    # same dim: pairs nonzero with L^2; line inside Z_1: orthogonal to L^2
    # but of too small a dimension to be its perp
    alg = build_algebra(catalog_entry("P10-2-1").presentation(F3))
    rep = series_report(alg)
    z1 = rep.upper[1]
    rows = np.eye(alg.dim, dtype=np.int64)[: z1.dim] if swap == "same dim" else z1.basis[:1]
    other = linalg.Subspace.from_vectors(F3, alg.dim, rows)
    assert other != z1
    alg._series["series_report"] = dataclasses.replace(
        rep, upper=(rep.upper[0], other, *rep.upper[2:])
    )
    result = check_duality(alg)
    assert not result.passed
    assert result.details == f"Z_1 != perp(L^2); dims {rep.lower_dims}"


def test_duality_requires_nilpotent():
    alg = build_algebra(Presentation.build(2, F3, [("x1", "x2", "y2", 1)]))
    with pytest.raises(NotNilpotentError):
        check_duality(alg)


def test_series_step_bounds_on_catalog():
    for entry in catalog():
        result = check_series_step_bounds(build_algebra(entry.presentation(F3, r=1)))
        assert result.passed, result.details
    abelian = build_algebra(Presentation.build(3, F3, []))
    assert check_series_step_bounds(abelian).passed


def test_rank_two_structure_examples():
    for name in ("P10-2-1", "P12-2-1", "P16-2-1"):
        alg = build_algebra(catalog_entry(name).presentation(F3))
        result = check_rank_two_structure(alg, name)
        assert result.passed, result.details
    abelian8 = build_algebra(Presentation.build(4, F3, []))
    with pytest.raises(ValueError):
        check_rank_two_structure(abelian8)  # center is 8-dimensional


def test_rank_two_structure_p16_dims():
    from saalib.algebra import series_report

    alg = build_algebra(catalog_entry("P16-2-1").presentation(F3))
    dims = series_report(alg).lower_dims
    assert dims[0] == 16 and dims[1] == 14 and dims[2] == 13
    assert dims[3] in (12, 11)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_all_checks_on_catalog_other_primes(p):
    # mod 2 the parameterized entries only admit r = 1
    field = PrimeField(p)
    for entry in catalog():
        alg = build_algebra(entry.presentation(field, r=1))
        assert check_axioms(alg, entry.name).passed
        assert check_duality(alg, entry.name).passed
        assert check_series_step_bounds(alg, entry.name).passed
        assert check_rank_two_structure(alg, entry.name).passed


def test_rank_two_structure_on_random_samples():
    rng = np.random.default_rng(606)
    found = 0
    while found < 30:
        alg = build_algebra(random_nilpotent_presentation(5, F3, rng))
        if rank(alg) != 2:
            continue
        found += 1
        result = check_rank_two_structure(alg)
        assert result.passed, result.details


def test_sampling_is_deterministic():
    cfg = ScanConfig(n=5, p=3, samples=10, seed=77, rank_filter=None)
    first = [sample_presentation(cfg, i) for i in range(10)]
    second = [sample_presentation(cfg, i) for i in range(10)]
    assert first == second
    assert first[0] != first[1]


def test_sampling_depends_only_on_seed_and_index():
    cfg_a = ScanConfig(n=4, p=3, samples=100, seed=5)
    cfg_b = ScanConfig(n=4, p=3, samples=7, seed=5)
    assert sample_presentation(cfg_a, 3) == sample_presentation(cfg_b, 3)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(n=4, p=4, samples=10, seed=0)
    with pytest.raises(ValueError):
        ScanConfig(n=4, p=3, samples=0, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ScanConfig(n=4, p=3, samples=10, seed=-5)


def test_scan_tests_the_prime_once_per_config(monkeypatch):
    # the field is held on the config, so the sample count does not repeat is_prime
    calls = []
    is_prime = linalg.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(linalg, "is_prime", counted)
    counts = []
    for samples in (5, 20):
        calls.clear()
        report = scan(ScanConfig(n=4, p=2147483647, samples=samples, seed=3))
        assert report.classified == samples
        counts.append(len(calls))
    assert counts[0] == counts[1] >= 1


def test_scan_config_field_is_not_compared_or_shown():
    a = ScanConfig(n=4, p=3, samples=5, seed=1)
    b = ScanConfig(n=4, p=3, samples=5, seed=1)
    assert a.field == PrimeField(3)
    assert a == b and hash(a) == hash(b)
    assert "field" not in repr(a)


def test_scan_single_sample():
    report = scan(ScanConfig(n=4, p=3, samples=1, seed=9))
    assert report.classified == 1
    assert sum(report.counts.values()) == 1


def test_scan_deterministic_across_runs():
    cfg = ScanConfig(n=4, p=3, samples=60, seed=123, rank_filter=2)
    assert scan(cfg).render() == scan(cfg).render()


def test_scan_rank2_bounds_small():
    for n in (4, 5):
        cfg = ScanConfig(n=n, p=3, samples=80, seed=31, rank_filter=2)
        report = scan(cfg)
        assert not report.discoveries
        assert report.criterion_mismatches == 0
        for (rk, cls), count in report.counts.items():
            assert rk == 2
            assert 5 <= cls <= 2 * n - 3
        assert "no counterexample found" in report.render()


def test_scan_counts_match_direct_classification():
    cfg = ScanConfig(n=4, p=3, samples=30, seed=2)
    report = scan(cfg)
    direct = {}
    for i in range(30):
        alg = build_algebra(sample_presentation(cfg, i))
        key = (rank(alg), nilpotency_class(alg))
        direct[key] = direct.get(key, 0) + 1
    assert report.counts == direct
    assert report.classified == 30


def test_scan_reports_discoveries_in_index_order_with_parseable_dumps(monkeypatch, capsys):
    monkeypatch.setattr(
        "saalib.checks.predict_min_class",
        lambda n: dataclasses.replace(predict_min_class(n), predicted_class=99),
    )
    code = main(["scan", "--n", "4", "--p", "3", "--samples", "20", "--seed", "11", "--rank", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status: COUNTEREXAMPLE CANDIDATE FOUND (inspect dumps below)" in out
    # each violation line is followed by its dump, prefixed "  | "
    blocks = re.findall(r"^violation: index=(\d+) .*\n((?:  \| .*\n)+)", out, re.MULTILINE)
    assert len(blocks) == out.count("violation: index=") > 1
    indices = [int(index) for index, _ in blocks]
    assert indices == sorted(set(indices))
    cfg = ScanConfig(n=4, p=3, samples=20, seed=11, rank_filter=2)
    for index, (_, dump) in zip(indices, blocks):
        text = "".join(line[len("  | "):] + "\n" for line in dump.splitlines())
        assert parse_presentation(text) == sample_presentation(cfg, index)
