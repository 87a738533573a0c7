"""Omega recursion, class prediction, minimal constructions, catalog,
scaling isomorphisms and fingerprints."""

import itertools
import time
import tracemalloc

import pytest

from saalib import algebra as algebra_module
from saalib import linalg
from saalib.algebra import (
    BasisVector,
    build_algebra,
    nilpotency_class,
    rank,
    series_report,
    upper_central_series,
    validate_nilpotent_presentation,
)
from saalib import construct
from saalib.construct import (
    ConstructionError,
    ScalingWitness,
    TripleSet,
    catalog,
    catalog_entry,
    construct_minimal,
    fingerprint,
    minimal_algebra,
    omega,
    omega_table,
    predict_min_class,
    try_scaling_isomorphism,
    verify_scaling_witness,
)
from saalib.linalg import PrimeField

from references import outer_injection_inputs

F3 = PrimeField(3)
F7 = PrimeField(7)


def test_omega_values():
    assert omega_table(5) == [0, 2, 3, 5, 12, 68]


def test_omega_recursion_and_growth():
    for m in range(6):
        w = omega(m)
        assert omega(m + 1) == 2 + w * (w - 1) // 2
    for m in range(1, 6):
        assert omega(m + 1) > omega(m)
    with pytest.raises(ValueError):
        omega(-1)


def test_predict_table():
    assert [predict_min_class(n).predicted_class for n in range(4, 13)] == [
        5, 6, 7, 7, 7, 8, 8, 8, 8,
    ]


def test_predict_cases_and_boundaries():
    p4 = predict_min_class(4)
    assert (p4.m, p4.case) == (2, "ONE")  # 2n = omega(2) + omega(3) exactly
    p5 = predict_min_class(5)
    assert (p5.m, p5.case) == (2, "TWO")
    p9 = predict_min_class(9)
    assert (p9.m, p9.case, p9.predicted_class) == (3, "TWO", 8)
    with pytest.raises(ValueError):
        predict_min_class(3)


def test_predict_monotone_up_to_68():
    values = [predict_min_class(n).predicted_class for n in range(4, 69)]
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n,expected", [(4, 5), (5, 6), (8, 7)])
def test_construct_minimal_examples(n, expected):
    tset, pres = construct_minimal(n, F3)
    alg = build_algebra(pres)
    assert nilpotency_class(alg) == expected
    assert rank(alg) == 2
    assert upper_central_series(alg).upper[1].dim == 2
    assert validate_nilpotent_presentation(pres)
    assert tset.satisfies_properties(), tset.property_report()


def test_construct_minimal_reproduces_smallest_catalog_entry():
    # for n = 4 the pinned enumeration lands exactly on the known dim-8 family
    _, pres = construct_minimal(4, F3)
    expected = catalog_entry("P8-2-1").presentation(F3, r=1)
    assert pres.canonical_triples() == expected.canonical_triples()


def test_construct_minimal_rejects_small_n():
    with pytest.raises(ValueError):
        construct_minimal(3, F3)


def test_construction_error_names_what_ran_out(monkeypatch):
    with pytest.raises(
        ConstructionError, match="n=13 .*: the low generators cannot cover the outer pair shell$"
    ):
        construct_minimal(13, F3)
    monkeypatch.setattr(construct, "_verified", lambda *args: None)
    with pytest.raises(ConstructionError, match="n=6 .*: the algebra is not of rank 2 and class 7$"):
        construct_minimal(6, F3)


def test_futile_injection_is_refused_before_any_base_assignment(monkeypatch):
    # at n = 13 the low generators cover at most 4 of the 7 new outer-shell
    # indices, so no presentation is built; n = 12 builds exactly one
    built = []
    monkeypatch.setattr(construct, "build_algebra", lambda pres: built.append(pres) or build_algebra(pres))
    with pytest.raises(ConstructionError, match="cannot cover the outer pair shell"):
        construct_minimal(13, F3)
    assert built == []
    construct_minimal(12, F3)
    assert len(built) == 1


def test_injection_fails_exactly_at_the_gaps():
    # no algebra is built; the injection alone marks n = 13, 69..81 and
    # 2281..2832
    def injected(n):
        m, gens, cover = outer_injection_inputs(n)
        return construct._injection(gens, construct._pair_shell(n, m), cover)

    assert [n for n in range(4, 201) if injected(n) is None] == [13, *range(69, 82)]
    assert all(injected(n) is None for n in range(2281, 2833))


@pytest.mark.parametrize("n", [2281, 2832])
def test_injection_reads_no_pair_at_a_large_gap(monkeypatch, n):
    # the first generator already needs more than two new indices, which no
    # pair gives, so the 2.6 M-pair outer shell is refused unread
    read = []
    pair_shell = construct._pair_shell

    def counted(*args):
        for pair in pair_shell(*args):
            read.append(pair)
            yield pair

    monkeypatch.setattr(construct, "_pair_shell", counted)
    m, gens, cover = outer_injection_inputs(n)
    assert construct._injection(gens, construct._pair_shell(n, m), cover) is None
    with pytest.raises(
        ConstructionError, match=f"n={n} .*: the low generators cannot cover the outer pair shell$"
    ):
        minimal_algebra(n, F3)
    assert read == []


def test_base_assignment_at_n_69_stays_small():
    # the base assignment is one list that zips each shell r < m = 5 with
    # its pair shell, 1 + 2 + 7 + 56 triples, under 5 MiB to build
    tracemalloc.start()
    try:
        base = construct._base_assignment(69, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert len(base) == 1 + 2 + 7 + 56


def test_pair_shell_is_lazy():
    # the sixth pair shell has 2,595,782 pairs, about 239 MiB as a list of
    # tuples; its first pairs must come without holding the rest
    tracemalloc.start()
    try:
        first = list(itertools.islice(construct._pair_shell(2833, 6), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert first == [(554, j) for j in range(555, 565)]


def test_minimal_algebra_at_dimension_400_stays_small():
    # the algebra holds its tensor's 330 triples; a dense gamma and product
    # table, each of 400**3 int64 entries, would take about 1 GB
    tracemalloc.start()
    try:
        _, alg = minimal_algebra(200, F3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert (nilpotency_class(alg), rank(alg)) == (predict_min_class(200).predicted_class, 2)


def test_construct_sweep_self_verifies():
    for n in range(4, 41):
        predicted = predict_min_class(n).predicted_class
        for p in (2, 3, 5, 7):
            field = PrimeField(p)
            if n == 13:
                with pytest.raises(ConstructionError, match="cannot cover the outer pair shell"):
                    minimal_algebra(n, field)
                continue
            tset, alg = minimal_algebra(n, field)
            report = series_report(alg)
            assert (report.nilpotency_class, report.rank) == (predicted, 2), (n, p)
            assert validate_nilpotent_presentation(alg.presentation), (n, p)
            assert tset.satisfies_properties(), (n, p)


@pytest.mark.slow
def test_minimal_algebra_past_omega_6():
    # n = 2833 is the first n past omega(6) = 2280 outside the gap
    # 2281..2832; the outer pair shell there is walked once, lazily
    tracemalloc.start()
    try:
        tset, alg = minimal_algebra(2833, F3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert (nilpotency_class(alg), rank(alg), len(tset.triples)) == (13, 2, 3384)
    assert tset.satisfies_properties()
    # each gap is refused before the outer pair shell is read: well under a
    # millisecond of CPU time, so 1 s leaves a wide margin
    for n in (2281, 2832):
        start = time.process_time()
        with pytest.raises(
            ConstructionError, match=f"n={n} .*: the low generators cannot cover the outer pair shell$"
        ):
            minimal_algebra(n, F3)
        assert time.process_time() - start < 1


def test_construct_triple_set_shapes():
    for n in (5, 6, 9):
        tset, pres = construct_minimal(n, F3)
        report = tset.property_report()
        assert report["generators"]
        assert report["shell_bijection"]
        assert report["no_common_pair"]
        assert report["coverage"]
        assert len(pres.triples) == len(tset.triples)


def triple_set(n, case, text):
    """A TripleSet at n, at n's level m, of the triples written as
    "x1 y2 y3, y1 y2 y4"."""
    triples = tuple(
        tuple(BasisVector(v[0], int(v[1:])) for v in t.split()) for t in text.split(",")
    )
    return TripleSet(n, predict_min_class(n).m, case, triples)


@pytest.mark.parametrize(
    "broken,tset",
    [
        # the case-TWO construction at n = 5, labelled case ONE, where a
        # y-triple's pair must start in the top omega(m) block, y3..y5, and
        # the pair of y1 y2 y5 does not
        ("generators", triple_set(5, "ONE", "x1 y3 y5, x2 y3 y4, x3 y4 y5, y1 y2 y5")),
        # x1 and x4 trade pairs, so shell 2's generators x5 and x4 no longer
        # take its pairs (6, 7) and (6, 8)
        (
            "shell_bijection",
            triple_set(8, "ONE", "x4 y5 y6, x2 y4 y7, x3 y4 y5, x1 y6 y8, x5 y6 y7, x6 y7 y8, "
                       "y1 y5 y7, y2 y4 y8, y3 y4 y6"),
        ),
        ("no_common_pair", triple_set(4, "ONE", "x1 y2 y3, x2 y3 y4, y1 y3 y4")),
        # y3 occurs nowhere
        ("coverage", triple_set(6, "ONE", "x1 y2 y5, x2 y4 y6, x3 y4 y5, x4 y5 y6, y1 y2 y4")),
    ],
)
def test_each_property_fails_alone(broken, tset):
    # each set differs from the construction at its n in one or two triples
    # (for generators, in its case) and fails exactly the one property
    built, _ = minimal_algebra(tset.n, F3)
    assert built.property_report() == dict.fromkeys(built.property_report(), True)
    assert tset.property_report() == {**built.property_report(), broken: False}
    assert not tset.satisfies_properties()


def test_catalog_contents():
    entries = catalog()
    assert [e.name for e in entries] == [
        "P8-2-1", "P10-2-1", "P10-2-2", "P12-2-1", "P14-2-1", "P16-2-1",
    ]
    expected = {
        "P8-2-1": (5, 2), "P10-2-1": (6, 2), "P10-2-2": (6, 2),
        "P12-2-1": (7, 2), "P14-2-1": (7, 2), "P16-2-1": (7, 2),
    }
    for e in entries:
        assert (e.expected_class, e.expected_rank) == expected[e.name]


def test_catalog_specific_triples():
    p12 = catalog_entry("P12-2-1").presentation(F3)
    assert any(str(t) == "(x4 y5, y6) = 1" for t in p12.triples)
    p16 = catalog_entry("P16-2-1").presentation(F3)
    assert len(p16.triples) == 9
    p1022 = catalog_entry("P10-2-2").presentation(F3, r=1)
    assert any(str(t) == "(y1 y2, y3) = 1" for t in p1022.triples)


def test_catalog_parameter_validation():
    with pytest.raises(ValueError):
        catalog_entry("P8-2-1").presentation(F3, r=0)
    with pytest.raises(ValueError):
        catalog_entry("P10-2-2").presentation(F3, r=3)  # 3 = 0 mod 3
    with pytest.raises(KeyError):
        catalog_entry("P18-2-1")


@pytest.mark.parametrize("p", [3, 5])
def test_catalog_classes_over_gf3_and_gf5(p):
    from saalib.algebra import is_isotropic

    field = PrimeField(p)
    for entry in catalog():
        alg = build_algebra(entry.presentation(field, r=1))
        assert nilpotency_class(alg) == entry.expected_class, entry.name
        assert rank(alg) == entry.expected_rank, entry.name
        assert is_isotropic(alg, upper_central_series(alg).upper[1]), entry.name


def test_catalog_over_gf2():
    # mod 2 the parameter r only ranges over {1}
    field = PrimeField(2)
    for entry in catalog():
        alg = build_algebra(entry.presentation(field, r=1))
        assert nilpotency_class(alg) == entry.expected_class, entry.name
        assert rank(alg) == entry.expected_rank, entry.name


def test_scaling_identity_witness():
    a = catalog_entry("P8-2-1").presentation(F7, r=1)
    w = try_scaling_isomorphism(a, a)
    assert w is not None and w.scales == (1, 1, 1, 1)


def test_scaling_witness_cube_criterion_gf7():
    # diagonal scalings realize exactly the cube ratios; cubes mod 7 are {1, 6}
    assert sorted({pow(u, 3, 7) for u in range(1, 7)}) == [1, 6]
    p1 = catalog_entry("P8-2-1").presentation(F7, r=1)
    p6 = catalog_entry("P8-2-1").presentation(F7, r=6)
    p3 = catalog_entry("P8-2-1").presentation(F7, r=3)
    w = try_scaling_isomorphism(p1, p6)
    assert w is not None
    assert verify_scaling_witness(p1, p6, w)
    assert try_scaling_isomorphism(p1, p3) is None


def test_scaling_witness_roundtrip_random_targets():
    import numpy as np

    from saalib.algebra import BasisVector, Presentation, StructureTensor
    from saalib.construct import _transform_values

    rng = np.random.default_rng(31)
    src = catalog_entry("P8-2-1").presentation(F7, r=1)
    for _ in range(10):
        scales = tuple(int(s) for s in rng.integers(1, 7, size=4))
        witness = ScalingWitness(F7, scales)
        values = _transform_values(StructureTensor.from_presentation(src), witness)
        target_items = [
            tuple(BasisVector.from_coordinate(c) for c in key) + (v,)
            for key, v in sorted(values.items())
        ]
        target = Presentation.build(4, F7, target_items)
        found = try_scaling_isomorphism(src, target)
        assert found is not None
        assert verify_scaling_witness(src, target, found)


def test_scaling_no_witness_and_mismatch():
    # 3 is not a cube mod 7, so no diagonal scaling takes r = 1 to r = 3
    p1 = catalog_entry("P8-2-1").presentation(F7, r=1)
    p3 = catalog_entry("P8-2-1").presentation(F7, r=3)
    assert try_scaling_isomorphism(p1, p3) is None
    other = catalog_entry("P10-2-1").presentation(F7)
    with pytest.raises(ValueError):
        try_scaling_isomorphism(p1, other)


def test_scaling_witness_that_is_no_basis_change_is_refused():
    # the identity scaling verifies; with 9 scales for n = 4 it read True,
    # with 2 it raised IndexError and with a zero scale ZeroDivisionError
    from saalib.algebra import Presentation

    a = catalog_entry("P8-2-1").presentation(F7, r=1)
    assert verify_scaling_witness(a, a, ScalingWitness(F7, (1, 1, 1, 1)))
    for witness in (
        ScalingWitness(F7, (1,) * 9),
        ScalingWitness(F7, (1, 1)),
        ScalingWitness(F7, (0, 1, 1, 1)),
        ScalingWitness(F7, (1, 7, 1, 1)),
        ScalingWitness(PrimeField(5), (1, 1, 1, 1)),
    ):
        assert not verify_scaling_witness(a, a, witness), witness
    # a and b must present algebras of one space
    empty3, empty4 = Presentation(3, F7, ()), Presentation(4, F7, ())
    assert not verify_scaling_witness(empty3, empty4, ScalingWitness(F7, (1, 1, 1)))
    assert not verify_scaling_witness(a, Presentation(4, F3, ()), ScalingWitness(F7, (1,) * 4))


def test_scaling_over_gf2_is_the_identity():
    # GF(2)^x is trivial, so the only diagonal scaling is (1, ..., 1)
    for entry in catalog():
        a = entry.presentation(PrimeField(2))
        w = try_scaling_isomorphism(a, a)
        assert w is not None and w.scales == (1,) * entry.n, entry.name


def test_scaling_solve_at_the_largest_prime():
    # p - 1 = 4 * 1543 * 492061: a scaling multiplies the r-triple of
    # P10-2-2 by a fourth power and that of P8-2-1 by a cube, and every unit
    # is a cube since 3 does not divide p - 1
    p = 3037000493
    field = PrimeField(p)
    assert pow(2, (p - 1) // 4, p) != 1  # 2 is not a fourth power
    p10 = catalog_entry("P10-2-2")
    p8 = catalog_entry("P8-2-1")
    cases = [
        (p10.presentation(field, r=1), p10.presentation(field, r=pow(12345, 4, p)), True),
        (p10.presentation(field, r=1), p10.presentation(field, r=2), False),
        (p8.presentation(field, r=1), p8.presentation(field, r=2), True),
    ]
    for a, b, exists in cases:
        start = time.perf_counter()
        w = try_scaling_isomorphism(a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"scaling solve took {elapsed:.3f}s"
        assert (w is not None) == exists
        if exists:
            assert verify_scaling_witness(a, b, w)


def test_fingerprint_distinguishes_and_matches():
    from saalib.algebra import Presentation

    a1 = build_algebra(catalog_entry("P12-2-1").presentation(F3))
    a2 = build_algebra(catalog_entry("P12-2-1").presentation(F3))
    assert fingerprint(a1) == fingerprint(a2)
    ab = build_algebra(catalog_entry("P8-2-1").presentation(F3, r=1))
    abelian = build_algebra(Presentation.build(4, F3, []))
    assert fingerprint(ab) != fingerprint(abelian)


def test_fingerprint_separates_the_dim10_families():
    # same series dims, but dim(L^2 L^2) differs: 2 against 5
    f1 = fingerprint(build_algebra(catalog_entry("P10-2-1").presentation(F3)))
    f2 = fingerprint(build_algebra(catalog_entry("P10-2-2").presentation(F3, r=1)))
    assert f1[2] == 2
    assert f2[2] == 5
    assert f1 != f2


@pytest.mark.parametrize("name, r", [("P8-2-1", 1), ("P10-2-2", 2), ("P12-2-1", 1)])
def test_fingerprint_computes_no_centre(monkeypatch, name, r):
    # the rank entry is dim L - dim L^2, read off the lower series, so a
    # fresh algebra's fingerprint eliminates no centre; the same entry is
    # the rank that rank() cross-checks against dim Z_1
    calls = []
    for helper in ("_center", "_centralizer_above"):
        original = getattr(algebra_module, helper)

        def counted(*args, original=original, helper=helper):
            calls.append(helper)
            return original(*args)

        monkeypatch.setattr(algebra_module, helper, counted)
    alg = build_algebra(catalog_entry(name).presentation(F7, r=r))
    invariants = fingerprint(alg)
    assert calls == []
    monkeypatch.undo()
    assert invariants[5] == invariants[1][1] == rank(alg) == 2


@pytest.mark.parametrize("n", [8, 16, 40])
def test_fingerprint_of_a_construction_eliminates_nothing(monkeypatch, n):
    # a construction is monomial, so its fingerprint is read off sets of
    # coordinates: no elimination runs and no Subspace is built
    pres = construct_minimal(n, F3)[1]
    expected = construct._exact_fingerprint(build_algebra(pres))

    def refused(*args):
        raise AssertionError("the coordinate fingerprint eliminated or built a subspace")

    for module in (algebra_module, linalg):
        monkeypatch.setattr(module, "_rref_rows", refused)
    monkeypatch.setattr(linalg, "_check_rref", refused)
    assert fingerprint(build_algebra(pres)) == expected


def test_center_isotropic_on_catalog():
    from saalib.algebra import is_isotropic

    for entry in catalog():
        alg = build_algebra(entry.presentation(F3, r=1))
        rep = series_report(alg)
        assert is_isotropic(alg, rep.upper[1])
