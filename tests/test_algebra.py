"""Algebra construction, product axioms, central series, structure tests."""

import dataclasses
import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from saalib import algebra as algebra_module
from saalib import construct as construct_module
from saalib import linalg as linalg_module
from saalib.algebra import (
    BasisVector,
    ChainError,
    NotApplicable,
    NotNilpotentError,
    Presentation,
    PresentationTriple,
    StructureTensor,
    build_algebra,
    form,
    full_space,
    is_abelian,
    is_ideal,
    is_isotropic,
    is_maximal_class_criterion,
    isotropic_ideal_chain,
    lower_central_series,
    maximal_class_structure_check,
    monomial_series,
    multiply,
    nilpotency_class,
    product_space,
    rank,
    series_report,
    upper_central_series,
    validate_nilpotent_presentation,
    zero_space,
)
from saalib.checks import ScanConfig, random_nilpotent_presentation, sample_presentation
from saalib.cli import verify_report
from saalib.construct import (
    ConstructionError,
    catalog,
    catalog_entry,
    construct_minimal,
    fingerprint,
    minimal_algebra,
)
from saalib.linalg import PrimeField, Subspace, _dense, perp
from saalib.presfile import emit_presentation, parse_presentation_file

from references import EXACT_PRIMES, exact_series_report, reference_chain, reference_table

F3 = PrimeField(3)


def basis_vec(dim, coord):
    v = np.zeros(dim, dtype=np.int64)
    v[coord] = 1
    return v


def coord(token):
    return BasisVector.parse(token).coordinate


def abelian(n, field=F3):
    return build_algebra(Presentation.build(n, field, []))


# a small presentation whose lower series stabilizes above zero
NON_NILPOTENT = Presentation.build(2, F3, [("x1", "x2", "y2", 1)])


def test_basis_vector_parse_and_coordinates():
    assert BasisVector.parse("x3") == BasisVector("x", 3)
    assert BasisVector.parse("y12").coordinate == 23
    assert BasisVector.from_coordinate(0) == BasisVector("x", 1)
    assert BasisVector.from_coordinate(5) == BasisVector("y", 3)
    for bad in ("z1", "x", "x0", "1x"):
        with pytest.raises(ValueError):
            BasisVector.parse(bad)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation.build(4, F3, [("x1", "x1", "y2", 1)])
    with pytest.raises(ValueError):
        Presentation.build(4, F3, [("x1", "y2", "y3", 1), ("y3", "y2", "x1", 2)])
    with pytest.raises(ValueError):
        Presentation.build(2, F3, [("x1", "y2", "y3", 1)])
    with pytest.raises(ValueError):
        Presentation.build(4, F3, [("x1", "y2", "y3", 0)])
    # build reduces values mod p; a directly built triple must already lie in [1, p)
    assert Presentation.build(4, F3, [("x1", "y2", "y3", 4)]).triples[0].value == 1
    x1, y2, y3 = (BasisVector.parse(t) for t in ("x1", "y2", "y3"))
    for value in (0, 3, -1):
        with pytest.raises(ValueError, match=r"not in \[1, 3\)"):
            Presentation(4, F3, (PresentationTriple(x1, y2, y3, value),))
    # a value that is not an integer would be written to a file the parser refuses
    for value in (1.5, np.float64(1.0)):
        with pytest.raises(ValueError, match="not an integer"):
            Presentation(4, F3, (PresentationTriple(x1, y2, y3, value),))
        with pytest.raises(ValueError, match="not an integer"):
            Presentation.build(4, F3, [("x1", "y2", "y3", value)])
    numpy_int = Presentation(4, F3, (PresentationTriple(x1, y2, y3, np.int64(2)),))
    assert numpy_int.triples[0].value == 2


def test_structure_tensor_refuses_non_integer_values():
    # 2.5 was stored as 2; integers of any size and numpy dtype are reduced
    for value in (2.5, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="expected an integer"):
            StructureTensor(2, F3, {(0, 1, 2): value})
    for value, residue in ((2, 2), (np.int64(5), 2), (np.uint64(2**63), 2), (2**70, 1)):
        assert StructureTensor(2, F3, {(0, 1, 2): value}).items() == [((0, 1, 2), residue)]


def test_tensor_is_alternating():
    pres = catalog_entry("P14-2-1").presentation(F3)
    t = StructureTensor.from_presentation(pres)
    dim = 2 * pres.n
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                v = t.value_at(a, b, c)
                assert t.value_at(b, a, c) == -v % 3
                assert t.value_at(a, c, b) == -v % 3
                if len({a, b, c}) < 3:
                    assert v == 0


def test_abelian_algebra_products_vanish():
    alg = abelian(4)
    assert not any(v for plane in reference_table(alg) for row in plane for v in row)
    assert nilpotency_class(alg) == 1
    rep = series_report(alg)
    assert rep.lower_dims == (8, 0)
    assert rep.upper_dims == (0, 8)
    assert rank(alg) == 8


def test_build_p10_product_example():
    # (y_4 y_5, x_3) = (x_3 y_4, y_5) = 1 by cyclic symmetry, so y_4 y_5 = -y_3
    alg = build_algebra(catalog_entry("P10-2-1").presentation(F3))
    y4, y5 = basis_vec(10, coord("y4")), basis_vec(10, coord("y5"))
    expected = -basis_vec(10, coord("y3")) % 3
    assert multiply(alg, y4, y5) == tuple(expected.tolist())


def test_build_p8_pairing_example():
    alg = build_algebra(catalog_entry("P8-2-1").presentation(F3, r=1))
    x2y3 = multiply(alg, basis_vec(8, coord("x2")), basis_vec(8, coord("y3")))
    assert form(alg, x2y3, basis_vec(8, coord("y4"))) == 1


def test_multiply_alternating_on_random_vectors():
    alg = build_algebra(catalog_entry("P12-2-1").presentation(F3))
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = rng.integers(0, 3, size=12)
        v = rng.integers(0, 3, size=12)
        assert not any(multiply(alg, u, u))
        uv = multiply(alg, u, v)
        vu = multiply(alg, v, u)
        assert all((a + b) % 3 == 0 for a, b in zip(uv, vu))


def test_x_span_is_abelian_in_nilpotent_presentations():
    rng = np.random.default_rng(11)
    for n in (4, 5):
        pres = random_nilpotent_presentation(n, F3, rng)
        alg = build_algebra(pres)
        rows = [basis_vec(2 * n, 2 * i) for i in range(n)]
        xspan = Subspace.from_vectors(F3, 2 * n, np.array(rows))
        assert is_abelian(alg, xspan)


def test_form_examples():
    alg = abelian(2)
    x1, y1, x2 = basis_vec(4, 0), basis_vec(4, 1), basis_vec(4, 2)
    assert form(alg, x1, y1) == 1
    assert form(alg, y1, x1) == 2
    assert form(alg, x1, x2) == 0


def test_cyclic_and_self_adjoint_on_random_triples():
    rng = np.random.default_rng(123)
    for entry in catalog():
        alg = build_algebra(entry.presentation(F3, r=1))
        d = alg.dim
        for _ in range(500):
            u, v, w = (rng.integers(0, 3, size=d) for _ in range(3))
            uv_w = form(alg, multiply(alg, u, v), w)
            vw_u = form(alg, multiply(alg, v, w), u)
            assert uv_w == vw_u
            # (u w, v) = (u, v w): right multiplication is self-adjoint
            uw_v = form(alg, multiply(alg, u, w), v)
            u_vw = form(alg, u, multiply(alg, v, w))
            assert uw_v == u_vw


def test_product_space_examples():
    alg = build_algebra(catalog_entry("P16-2-1").presentation(F3))
    L = full_space(alg)
    assert product_space(alg, L, zero_space(alg)).is_zero()
    assert product_space(alg, L, L).dim == 14
    ab = abelian(4)
    assert product_space(ab, full_space(ab), full_space(ab)).is_zero()


def reference_product_rows(alg, us, vs):
    """u . v for every u in us and v in vs, summed in Python ints."""
    p, dim = alg.field.p, alg.dim
    table = reference_table(alg)
    rows = []
    for u in us:
        for v in vs:
            rows.append([
                sum(u[i] * v[j] * table[i][j][k] for i in range(dim) for j in range(dim)) % p
                for k in range(dim)
            ])
    return rows


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_product_space_exact_against_python_ints(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(20):
        n = int(rng.integers(3, 17))
        alg = build_algebra(random_nilpotent_presentation(n, field, rng))
        a, b = (
            Subspace.from_vectors(field, alg.dim, rng.integers(0, p, size=(int(k), alg.dim)))
            for k in rng.integers(1, 3, size=2)
        )
        rows = reference_product_rows(alg, a.basis, b.basis)
        expected = Subspace.from_vectors(field, alg.dim, rows)
        assert product_space(alg, a, b) == expected, (n, a.dim, b.dim)


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_multiply_exact_against_python_ints(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(20):
        n = int(rng.integers(3, 17))
        alg = build_algebra(random_nilpotent_presentation(n, field, rng))
        u, v = rng.integers(0, p, size=(2, alg.dim)).tolist()
        assert list(multiply(alg, u, v)) == reference_product_rows(alg, [u], [v])[0], n


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_form_exact_against_python_ints(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    for draw in range(24):
        n = int(rng.integers(3, 17))
        alg = build_algebra(random_nilpotent_presentation(n, field, rng))
        u, v = rng.integers(0, p, size=(2, alg.dim)).tolist()
        if draw == 20:
            u = [0] * alg.dim
        elif draw == 21:
            v = [0] * alg.dim
        elif draw >= 22:
            # entries that are not residues: negative, or p and above
            u, v = rng.integers(-2 * p, 3 * p, size=(2, alg.dim)).tolist()
        gram = alg.gram.data
        expected = sum(u[i] * gram[i][j] * v[j] for i in range(alg.dim) for j in range(alg.dim))
        assert form(alg, u, v) == expected % p, n
        assert alg.gram.pairing(u, v) == expected % p, n


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_entries_past_int64_give_the_results_of_their_residues(p):
    # Python ints past +-2**63 are read as their residues mod p, so vectors,
    # subspaces, products, pairings and membership give the results of
    # their residues
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    alg = build_algebra(random_nilpotent_presentation(5, field, rng))
    dim = alg.dim
    big = [
        [int(x) * 2**64 + int(y) for x, y in zip(*rng.integers(-(2**40), 2**40, size=(2, dim)))]
        for _ in range(3)
    ]
    big[0][0] = -(2**63) - 1
    residues = [[x % p for x in row] for row in big]
    assert PrimeField(3).vector([2**64, 1, 0]) == (1, 1, 0)
    assert field.vector(big[0], dim) == tuple(residues[0])
    assert field.reduce(big) == tuple(map(tuple, residues))
    space = Subspace.from_vectors(field, dim, big[:2])
    assert space == Subspace.from_vectors(field, dim, residues[:2])
    shifted = [[x + p * 2**64 for x in row] for row in space.basis]
    assert Subspace(field, dim, shifted) == space
    assert space.contains(big[1]) and space.contains(residues[0])
    assert space.contains(big[2]) == space.contains(residues[2])
    u, v = big[:2]
    assert multiply(alg, u, v) == multiply(alg, *residues[:2])
    assert form(alg, u, v) == form(alg, *residues[:2])


def test_build_algebra_holds_no_dense_form():
    # an algebra is its tensor, and its form is field and n, read on demand:
    # at n = 1000 a held 2000 x 2000 int64 Gram matrix took 30.5 MiB
    tracemalloc.start()
    try:
        alg = build_algebra(Presentation.build(1000, F3, []))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "gram" not in [f.name for f in dataclasses.fields(alg)]
    assert alg.gram == linalg_module.GramMatrix(F3, 1000)


def test_each_series_computed_once_per_algebra(monkeypatch):
    # on an algebra that is not monomial the upper series takes one
    # centralizer per term, each with exactly one elimination, on Z_1, ...,
    # Z_cls = L, and one more that returns the repeated L above L with none;
    # the lower series takes one elimination per step, and during
    # verify_report no other elimination runs in algebra, directly or
    # through linalg.  The inputs are the dense random n = 8 samples of the
    # verify-random-n8-p3 golden files, both of class 13
    steps, lower_steps, inside = [], [], []
    above, eliminate = algebra_module._centralizer_above, linalg_module._rref_rows

    def counted_above(alg, z):
        inside.append([])
        try:
            term = above(alg, z)
        finally:
            eliminations = inside.pop()
        steps.append((term.dim, len(eliminations)))
        return term

    def counted_eliminate(*args):
        (inside[-1] if inside else lower_steps).append(args)
        return eliminate(*args)

    monkeypatch.setattr(algebra_module, "_centralizer_above", counted_above)
    monkeypatch.setattr(algebra_module, "_rref_rows", counted_eliminate)
    monkeypatch.setattr(linalg_module, "_rref_rows", counted_eliminate)
    upper_dims = [2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 16]
    for index in (0, 1):
        pres = sample_presentation(ScanConfig(n=8, p=3, samples=1, seed=2023), index)
        assert algebra_module._coordinate_targets(build_algebra(pres)) is None
        steps.clear()
        lower_steps.clear()
        _, ok = verify_report(parse_presentation_file(emit_presentation(pres)))
        assert ok
        assert steps == [(d, 1) for d in upper_dims] + [(upper_dims[-1], 0)], index
        assert len(lower_steps) == 13, index

        rank_first = build_algebra(pres)
        r = rank(rank_first)
        report_first = build_algebra(pres)
        assert series_report(report_first) == series_report(rank_first)
        assert rank(report_first) == r == 2


def test_centre_is_held_and_each_upper_term_is_the_centralizer_above_the_last():
    # on an algebra that is not monomial, here P12-2-1 scrambled, the centre
    # is the centralizer above 0, computed once and held; the upper series
    # starts from that same object, and each later term is the centralizer
    # above the term before it, up to L, above which L repeats
    pres = catalog_entry("P12-2-1").presentation(F3)
    alg = scrambled(build_algebra(pres), np.random.default_rng(12))
    assert algebra_module._coordinate_targets(alg) is None
    center = algebra_module._center(alg)
    assert isinstance(center, Subspace)
    assert algebra_module._center(alg) is center
    upper = upper_central_series(alg).upper
    assert upper[1] is center
    assert center == algebra_module._centralizer_above(alg, zero_space(alg))
    for below, term in zip(upper, upper[1:]):
        assert algebra_module._centralizer_above(alg, below) == term
    assert upper[-1] == full_space(alg)
    assert algebra_module._centralizer_above(alg, upper[-1]) == full_space(alg)


def test_held_series_shared_across_threads():
    # then every thread reads each term's basis, which no one has read
    # before, at once: the first reads all agree with the rows
    pres = catalog_entry("P16-2-1").presentation(F3)
    expected = series_report(build_algebra(pres))
    shared = build_algebra(pres)

    def bases(rep):
        return [s.basis for s in rep.lower + rep.upper]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(series_report, shared) for _ in range(32)]
            reports = [f.result(timeout=60) for f in futures]
            futures = [pool.submit(bases, reports[0]) for _ in range(32)]
            read = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(rep == expected for rep in reports)
    terms = expected.lower + expected.upper
    for bases_read in read:
        for s, basis in zip(terms, bases_read):
            assert basis == tuple(_dense(row, s.ambient_dim) for row in s.rows)


def test_p8_series_dims():
    alg = build_algebra(catalog_entry("P8-2-1").presentation(F3, r=1))
    rep = series_report(alg)
    assert rep.lower_dims == (8, 6, 5, 3, 2, 0)
    assert rep.upper_dims == (0, 2, 3, 5, 6, 8)
    assert rep.nilpotency_class == 5
    assert rep.rank == 2
    assert rep.upper[1].dim == 2 and rep.upper[2].dim == 3


def test_catalog_classes_and_ranks():
    for entry in catalog():
        alg = build_algebra(entry.presentation(F3, r=1))
        assert nilpotency_class(alg) == entry.expected_class, entry.name
        assert rank(alg) == entry.expected_rank, entry.name


def test_upper_series_abelian():
    rep = upper_central_series(abelian(3))
    assert rep.upper_dims == (0, 6)


def test_duality_on_catalog_and_randoms():
    rng = np.random.default_rng(321)
    algebras = [build_algebra(e.presentation(F3, r=1)) for e in catalog()]
    for n in (4, 5):
        for _ in range(10):
            algebras.append(build_algebra(random_nilpotent_presentation(n, F3, rng)))
    for alg in algebras:
        rep = series_report(alg)
        assert rep.nilpotency_class is not None
        for i, z in enumerate(rep.upper):
            assert z == perp(rep.lower[i], alg.gram)


def test_center_dimension_at_least_two():
    rng = np.random.default_rng(55)
    for n in (3, 4, 5):
        for _ in range(20):
            alg = build_algebra(random_nilpotent_presentation(n, F3, rng))
            assert upper_central_series(alg).upper[1].dim >= 2


def test_nilpotent_presentations_always_nilpotent():
    rng = np.random.default_rng(999)
    for n in (3, 4, 5, 6):
        for _ in range(15):
            alg = build_algebra(random_nilpotent_presentation(n, F3, rng))
            assert nilpotency_class(alg) is not None


def test_non_nilpotent_input():
    alg = build_algebra(NON_NILPOTENT)
    assert nilpotency_class(alg) is None
    with pytest.raises(NotNilpotentError):
        rank(alg)


def test_rank_cross_check_on_constructed():
    alg = build_algebra(catalog_entry("P14-2-1").presentation(F3))
    assert rank(alg) == 2


def test_is_ideal_examples():
    alg = build_algebra(catalog_entry("P8-2-1").presentation(F3, r=1))
    assert is_ideal(alg, zero_space(alg))
    assert is_ideal(alg, full_space(alg))
    rep = series_report(alg)
    for term in rep.lower + rep.upper:
        assert is_ideal(alg, term)
    # y_1 y_2 has a nonzero pairing with y_4, so span{y_1} is not an ideal
    y1 = Subspace.from_vectors(F3, 8, [basis_vec(8, coord("y1"))])
    assert not is_ideal(alg, y1)


def test_perp_of_center_is_square_on_p12():
    alg = build_algebra(catalog_entry("P12-2-1").presentation(F3))
    rep = series_report(alg)
    center = rep.upper[1]
    assert center.dim == 2
    assert perp(center, alg.gram) == rep.lower[1]


def test_isotropic_and_abelian_examples():
    alg = build_algebra(catalog_entry("P12-2-1").presentation(F3))
    z = zero_space(alg)
    assert is_isotropic(alg, z) and is_abelian(alg, z)
    for entry in catalog():
        a = build_algebra(entry.presentation(F3, r=1))
        center = upper_central_series(a).upper[1]
        assert is_isotropic(a, center)
    assert not is_isotropic(alg, full_space(alg))


def test_isotropic_ideal_chain_abelian_dim4():
    chain = isotropic_ideal_chain(abelian(2))
    assert [s.dim for s in chain] == [0, 1, 2]
    x2 = Subspace.from_vectors(F3, 4, [[0, 0, 1, 0]])
    x2x1 = Subspace.from_vectors(F3, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert chain[1] == x2
    assert chain[2] == x2x1


def test_isotropic_ideal_chain_on_catalog():
    for entry in catalog():
        alg = build_algebra(entry.presentation(F3, r=1))
        chain = isotropic_ideal_chain(alg)
        assert [s.dim for s in chain] == list(range(entry.n + 1))
        for prev, cur in zip(chain, chain[1:]):
            assert cur.contains_subspace(prev)
        for s in chain:
            assert is_ideal(alg, s)
            assert is_isotropic(alg, s)


def test_chain_builds_no_perp(monkeypatch):
    # each step of the general loop reads the rows spanning perp(I_k) off
    # I_k's basis, the coordinate loop reads coordinates alone, and either
    # chain is checked by (i)-(iii); algebra holds no perp, and the patch
    # catches any call from inside linalg.  These algebras are monomial, so
    # the general loop is called through its own entry
    def refused(s, g):
        raise AssertionError("isotropic_ideal_chain built a perp")

    assert not hasattr(algebra_module, "perp")
    monkeypatch.setattr(linalg_module, "perp", refused)
    algebras = [build_algebra(e.presentation(F3, r=1)) for e in catalog()]
    algebras.append(build_algebra(construct_minimal(16, F3)[1]))
    for alg in algebras:
        for chain_of in (isotropic_ideal_chain, algebra_module._general_chain):
            assert [s.dim for s in chain_of(alg)] == list(range(alg.n + 1))


def test_chain_check_refuses_a_non_isotropic_chain(monkeypatch):
    # every kernel drops its rows, which on the abelian algebra are I_k's
    # rows alone (it has no products), and y_3 comes right after x_3, so the
    # loop takes I_2 = <x_3, y_3>; the abelian algebra makes every doubled
    # chain central, and only (iii), which reads the pairings through
    # orthogonal, sees that I_3 is not isotropic.  The abelian algebra is
    # monomial, so the general loop is called through its own entry
    kernel = algebra_module._keyed_orthogonal
    monkeypatch.setattr(
        algebra_module, "_keyed_orthogonal", lambda rows, order, p: kernel((), order, p)
    )
    monkeypatch.setattr(
        algebra_module,
        "_priority_permutation",
        lambda n: [2 * (i - 1) + t for i in range(n, 0, -1) for t in (0, 1)],
    )
    with pytest.raises(RuntimeError, match=r"fails \(iii\) I_3 isotropic for n=3") as info:
        algebra_module._general_chain(abelian(3))
    assert not isinstance(info.value, ChainError)


def relabelled(pres):
    """The same algebra with each index i renamed n + 1 - i."""
    n = pres.n
    items = [(*(f"{v.kind}{n + 1 - v.index}" for v in t.vectors), t.value) for t in pres.triples]
    return Presentation.build(n, pres.field, items)


@pytest.mark.parametrize(
    "above_zero, failing",
    [(False, r"fails \(i\) I_2 L = 0 for n="), (True, r"fails \(ii\) I_3 L <= I_2 at k=2 for n=")],
)
def test_chain_check_refuses_a_chain_outside_the_centralizers(monkeypatch, above_zero, failing):
    # the loop carries no rows spanning perp(I_k), so the steps k >= 2 take
    # no product rows and their candidates range over perp(I_k), not C;
    # unless above_zero keeps the centre, it is taken to be L, whose perp no
    # rows span, so the steps k < 2 range over perp(I_k) too; with the
    # indices reversed the priority order then takes vectors whose products
    # leave the chain.  The catalog is monomial, so the general loop is
    # called through its own entry
    monkeypatch.setattr(algebra_module, "_perp_products", lambda alg, key: ({}, {}))
    if not above_zero:
        monkeypatch.setattr(algebra_module, "_exact_center", full_space)
    for entry in catalog():
        alg = build_algebra(relabelled(entry.presentation(F3, r=1)))
        with pytest.raises(RuntimeError, match=failing) as info:
            algebra_module._general_chain(alg)
        assert not isinstance(info.value, ChainError)


def test_chain_witness_from_nilpotent_presentation():
    # span{x_n, ..., x_{n+1-r}} is always a valid chain for these shapes
    rng = np.random.default_rng(17)
    for n in (4, 5, 6):
        alg = build_algebra(random_nilpotent_presentation(n, F3, rng))
        rows = []
        for i in range(n, 0, -1):
            rows.append(basis_vec(2 * n, 2 * (i - 1)))
            s = Subspace.from_vectors(F3, 2 * n, np.array(rows))
            assert is_ideal(alg, s)
            assert is_isotropic(alg, s)


def test_chain_fails_on_non_nilpotent():
    # this dim-6 algebra has trivial center, so the chain cannot start
    pres = Presentation.build(
        3,
        F3,
        [
            ("x1", "x3", "y3", 1),
            ("x1", "x2", "x3", 2),
            ("x1", "x2", "y3", 2),
            ("y1", "x2", "y2", 2),
        ],
    )
    alg = build_algebra(pres)
    assert upper_central_series(alg).upper[-1].dim == 0
    with pytest.raises(ChainError, match="no candidate extends I_0"):
        isotropic_ideal_chain(alg)


def test_chain_reads_the_row_table_once_before_the_loop(monkeypatch):
    # from k = 0 on the rows spanning perp(I_k) carry their products, read
    # off the row table before the first kernel, so no step reads it again;
    # every product is read through _row_table, once per call, so the reads
    # made before each step's kernel count them (the exact centre, which the
    # construction's coordinate centre does not compute, is held first); the
    # construction is monomial, so the general loop is called through its
    # own entry
    alg = minimal_algebra(16, F3)[1]
    algebra_module._exact_center(alg)
    reads, per_step = [], []
    row_table, kernel = algebra_module._row_table, algebra_module._keyed_orthogonal

    def counted_table(a):
        reads.append(a)
        return row_table(a)

    def counted_kernel(rows, order, p):
        per_step.append(len(reads))
        return kernel(rows, order, p)

    monkeypatch.setattr(algebra_module, "_row_table", counted_table)
    monkeypatch.setattr(algebra_module, "_keyed_orthogonal", counted_kernel)
    assert [s.dim for s in algebra_module._general_chain(alg)] == list(range(17))
    assert per_step == [1] * 16


@pytest.mark.parametrize("p", [2, 3037000493])
@pytest.mark.parametrize("n", [8, 12, 24])
def test_chain_matches_reference_on_minimal_algebras(n, p):
    alg = minimal_algebra(n, PrimeField(p))[1]
    assert isotropic_ideal_chain(alg) == reference_chain(alg)


def scrambled(alg, rng, count=4):
    """The algebra alg read in the basis e_a A, A a product of count random
    symplectic transvections u -> u + c (u, v) v, so (e_a A, e_b A) is the
    standard form and the two algebras are isomorphic.

    gamma'(a, b, c) = gamma(e_a A, e_b A, e_c A): the dense gamma is
    contracted with A one index at a time, each contraction reduced mod p.
    The arrays are int64 when every sum of dim products of residues fits,
    and Python ints otherwise.  The chain of such an algebra is made of
    dense vectors, where a minimal construction's are basis vectors.
    """
    p, dim = alg.field.p, alg.dim
    dtype = np.int64 if dim * (p - 1) ** 2 < 2**63 else object
    g = np.array(alg.gram.data, dtype=dtype) % p
    a = np.eye(dim, dtype=np.int64).astype(dtype)
    for _ in range(count):
        v = rng.integers(0, p, dim).astype(dtype)
        c = int(rng.integers(1, p))
        a = (a + np.outer(a @ (g @ v % p) % p * c % p, v)) % p
    assert np.array_equal((a @ g % p) @ a.T % p, g)
    gamma = np.zeros((dim,) * 3, dtype=dtype)
    for triple, _ in alg.tensor.items():
        for key in itertools.permutations(triple):
            gamma[key] = alg.tensor.value_at(*key)
    for _ in range(3):
        gamma = np.tensordot(gamma, a, axes=(0, 1)) % p
    values = {key: int(gamma[key]) for key in itertools.combinations(range(dim), 3)}
    return algebra_module.Algebra(alg.n, alg.field, StructureTensor(alg.n, alg.field, values))


@pytest.mark.parametrize("p", [2, 3, 3037000493])
def test_chain_matches_reference_on_scrambled_minimal_algebras(monkeypatch, p):
    # the rows spanning perp(I_k) are combined whenever several pair with the
    # new vector, which the dense chains of scrambled algebras make happen;
    # the pairings are counted to show that they do
    paired = []
    hyperplane = algebra_module._hyperplane

    def counted(held, holders, x, q):
        xg = linalg_module._times_form([x], q)[0]
        paired.append(sum(any(r.get(c, 0) * v % q for c, v in xg.items()) for r, _ in held.values()))
        return hyperplane(held, holders, x, q)

    monkeypatch.setattr(algebra_module, "_hyperplane", counted)
    rng = np.random.default_rng(2024)
    for n in (4, 6, 8):
        alg = scrambled(minimal_algebra(n, PrimeField(p))[1], rng)
        assert isotropic_ideal_chain(alg) == reference_chain(alg)
    assert max(paired) >= 2


@pytest.mark.parametrize("n, p, dense", [(16, 3, False), (6, 3, True), (6, 3037000493, True)])
def test_general_chain_carries_perp_of_each_term(monkeypatch, n, p, dense):
    # the carried rows start at the basis vectors of L = perp(I_0) and are
    # cut after every pick, so after the cut by x_k they span perp(I_{k+1});
    # on the scrambled algebras the picks are dense and the cuts combine rows
    alg = minimal_algebra(n, PrimeField(p))[1]
    if dense:
        alg = scrambled(alg, np.random.default_rng(5))
    spans, widths, hyperplane = [], [], algebra_module._hyperplane

    def recorded(held, holders, x, q):
        hyperplane(held, holders, x, q)
        rows = [row for row, _ in held.values()]
        widths.extend(map(len, rows))
        dense = [_dense(row, alg.dim) for row in rows]
        spans.append(Subspace.from_vectors(alg.field, alg.dim, dense))
        assert len(rows) == spans[-1].dim

    monkeypatch.setattr(algebra_module, "_hyperplane", recorded)
    chain = algebra_module._general_chain(alg)
    assert len(spans) == n
    for k, span in enumerate(spans):
        assert span == perp(chain[k + 1], alg.gram), k
    assert (max(widths) > 1) == dense


def test_chain_refuses_a_pick_inside_the_chain(monkeypatch):
    # every candidate is doubled, so one that lies in I_k no longer equals
    # I_k's row at its pivot and is picked; the first candidate at k = 0,
    # which spans I_1, is again the first at k = 1, and the loop refuses it,
    # since it does not grow I_1's priority RREF, instead of repeating I_1;
    # the centre, whose kernel is _keyed_orthogonal too (through
    # _orthogonal), is held before the patch; the catalog entry is
    # monomial, so the general loop is called through its own entry
    kernel = algebra_module._keyed_orthogonal

    def doubled(rows, order, p):
        return [{c: 2 * v % p for c, v in row.items()} for row in kernel(rows, order, p)]

    alg = build_algebra(catalog_entry("P8-2-1").presentation(F3, r=1))
    algebra_module._exact_center(alg)
    monkeypatch.setattr(algebra_module, "_keyed_orthogonal", doubled)
    with pytest.raises(RuntimeError, match=r"k=1 gives I_2 of dimension 1, not 2, for n=4") as info:
        algebra_module._general_chain(alg)
    assert not isinstance(info.value, ChainError)


def _repeated_pick(alg, picks):
    picks[1] = dict(picks[0])


def _pick_inside_the_chain(alg, picks):
    # x_0 + x_1, the picks being distinct basis vectors: in I_2, and no pick
    picks[2] = {**picks[0], **picks[1]}


def _pick_outside_the_centralizer(alg, picks):
    # the first basis vector e_c whose products leave I_2
    low = Subspace.from_vectors(alg.field, alg.dim, [_dense(row, alg.dim) for row in picks[:2]])
    picks[2] = {
        next(
            c
            for c in range(alg.dim)
            if not low._spans(algebra_module._products(alg, [{c: 1}]))
        ): 1
    }


@pytest.mark.parametrize(
    "fault, failing",
    [
        (_repeated_pick, r"fails \(ii\) x_1 in I_2 and not in I_1 at k=1 for n=8"),
        (_pick_inside_the_chain, r"fails \(ii\) x_2 in I_3 and not in I_2 at k=2 for n=8"),
        (_pick_outside_the_centralizer, r"fails \(ii\) I_3 L <= I_2 at k=2 for n=8"),
    ],
)
def test_chain_check_refuses_each_fault_of_ii(monkeypatch, fault, failing):
    # each fault breaks one clause of the check on x_k, at k = 1 or 2, in the
    # picks the loop hands the check; the check reads nothing else
    check = algebra_module._check_chain

    def tampered(alg, picks):
        fault(alg, picks)
        return check(alg, picks)

    monkeypatch.setattr(algebra_module, "_check_chain", tampered)
    with pytest.raises(RuntimeError, match=failing) as info:
        isotropic_ideal_chain(minimal_algebra(8, F3)[1])
    assert not isinstance(info.value, ChainError)


def test_chain_check_multiplies_one_vector_per_step(monkeypatch):
    # (i) multiplies x_0 and x_1, which span I_2, and (ii) multiplies x_k
    # alone, not the k + 1 rows of I_{k+1}: the check, handed the picks of
    # the construction's chain, rebuilds that chain and multiplies each
    # pick once
    alg = minimal_algebra(16, F3)[1]
    chain = isotropic_ideal_chain(alg)
    picks = [{min(set(b.pivots) - set(a.pivots)): 1} for a, b in zip(chain, chain[1:])]
    calls, by_basis = [], algebra_module._by_basis

    def counted(table, u):
        calls.append(u)
        return by_basis(table, u)

    monkeypatch.setattr(algebra_module, "_by_basis", counted)
    assert algebra_module._check_chain(alg, picks) == chain
    assert calls == picks


def test_general_chain_reduces_nothing(monkeypatch):
    # the kernel takes the picks, which span I_k, the check builds the
    # terms, and the carried rows start at the basis vectors of L, so the
    # general loop never calls _rref_rows (the construction already holds
    # its centre, and is monomial, so the general loop is called through its
    # own entry)
    alg = minimal_algebra(16, F3)[1]
    sizes, eliminate = [], algebra_module._rref_rows

    def counted(rows, p):
        rows = list(rows)
        sizes.append(len(rows))
        return eliminate(rows, p)

    monkeypatch.setattr(algebra_module, "_rref_rows", counted)
    assert [s.dim for s in algebra_module._general_chain(alg)] == list(range(17))
    assert sizes == []


def general_chain(alg):
    """_general_chain on alg with the coordinate view and the held centre
    refused, so that on a monomial algebra it reads the exact centre
    (_exact_center) and nothing of the coordinate path."""

    def refused(*args):
        raise AssertionError("the general loop read the coordinate path")

    with pytest.MonkeyPatch.context() as m:
        for name in ("_coordinate_targets", "_center"):
            m.setattr(algebra_module, name, refused)
        return algebra_module._general_chain(alg)


def chains_of_both_loops_agree(sizes, p):
    """Assert that the chain equals the general loop's on minimal_algebra(n)
    over GF(p) for each n in sizes, and return the n that raise
    ConstructionError."""
    gaps = []
    for n in sizes:
        try:
            alg = minimal_algebra(n, PrimeField(p))[1]
        except ConstructionError:
            gaps.append(n)
            continue
        assert algebra_module._coordinate_targets(alg) is not None
        assert isotropic_ideal_chain(alg) == general_chain(alg), (n, p)
    return gaps


@pytest.mark.parametrize("p", [2, 3])
def test_chain_of_constructions_matches_the_general_loop(p):
    # every construction is monomial and takes the coordinate loop; the gap
    # at n = 13 still has no construction
    assert chains_of_both_loops_agree(range(4, 61), p) == [13]


@pytest.mark.slow
def test_chain_of_constructions_matches_the_general_loop_up_to_n_200():
    assert chains_of_both_loops_agree(range(61, 201), 3) == list(range(69, 82))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chain_of_the_catalog_matches_the_general_loop(p):
    for entry in catalog():
        for r in range(1, p) if entry.parameterized else (1,):
            alg = build_algebra(entry.presentation(PrimeField(p), r=r))
            assert algebra_module._coordinate_targets(alg) is not None
            assert isotropic_ideal_chain(alg) == general_chain(alg), (entry, r)


def assert_coordinate_series_match_the_exact_path(pres):
    """monomial_series, the held series of a monomial presentation, gives
    the series report of the elimination loops (exact_series_report), and
    the fingerprint, which takes the coordinate path, the one read off the
    eliminated lower series."""
    alg = build_algebra(pres)
    assert algebra_module._coordinate_targets(alg) is not None
    assert monomial_series(pres) == exact_series_report(alg)
    assert fingerprint(alg) == construct_module._exact_fingerprint(alg)


def series_of_constructions_match_the_exact_path(sizes, p):
    """Assert the coordinate series of construct_minimal(n) over GF(p) for
    each n in sizes, and return the n that raise ConstructionError."""
    gaps = []
    for n in sizes:
        try:
            pres = construct_minimal(n, PrimeField(p))[1]
        except ConstructionError:
            gaps.append(n)
            continue
        assert_coordinate_series_match_the_exact_path(pres)
    return gaps


@pytest.mark.parametrize("p", [3, 5, 7])
def test_series_of_constructions_match_the_exact_path(p):
    assert series_of_constructions_match_the_exact_path(range(4, 61), p) == [13]


@pytest.mark.slow
@pytest.mark.parametrize("p", [3, 5, 7])
def test_series_of_constructions_match_the_exact_path_up_to_n_200(p):
    gaps = series_of_constructions_match_the_exact_path(range(61, 201), p)
    assert gaps == list(range(69, 82))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_series_of_the_catalog_match_the_exact_path(p):
    for entry in catalog():
        for r in range(1, p) if entry.parameterized else (1,):
            assert_coordinate_series_match_the_exact_path(entry.presentation(PrimeField(p), r=r))


def test_monomial_series_refuses_a_shared_pair():
    # x1 y2 y3 and y1 y2 y3 share y2 and y3, so e_y2 . e_y3 has two terms
    pres = Presentation.build(4, F3, [("x1", "y2", "y3", 1), ("y1", "y2", "y3", 1)])
    with pytest.raises(NotApplicable, match="share no two basis vectors"):
        monomial_series(pres)
    dropped = Presentation.build(4, F3, [("x1", "y2", "y3", 1), ("y1", "y2", "y4", 1)])
    assert monomial_series(dropped) == exact_series_report(build_algebra(dropped))


def test_chain_of_a_construction_eliminates_nothing(monkeypatch):
    # the coordinate loop reads the row table alone: no kernel, no centre
    # and no RREF, on an algebra that holds nothing yet
    alg = build_algebra(construct_minimal(16, F3)[1])
    calls = []
    for name in ("_keyed_orthogonal", "_center", "_rref_rows"):
        original = getattr(algebra_module, name)

        def counted(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(algebra_module, name, counted)
    chain = isotropic_ideal_chain(alg)
    assert calls == []
    monkeypatch.undo()
    assert chain == reference_chain(alg)


def test_chain_with_a_shared_pair_takes_the_general_loop(monkeypatch):
    # the first two triples share y2 and y3, so row y2 of the row table
    # holds j = y3 twice: not monomial, and the general loop runs
    pres = Presentation.build(
        4, F3, [("x1", "y2", "y3", 1), ("y1", "y2", "y3", 1), ("x2", "y3", "y4", 1)]
    )
    alg = build_algebra(pres)
    assert algebra_module._coordinate_targets(alg) is None
    calls, general = [], algebra_module._general_chain

    def counted(a):
        calls.append(a)
        return general(a)

    monkeypatch.setattr(algebra_module, "_general_chain", counted)
    chain = isotropic_ideal_chain(alg)
    assert calls == [alg]
    assert chain == reference_chain(alg)
    assert [s.dim for s in chain] == list(range(5))


def test_chain_check_refuses_a_tampered_coordinate_view():
    # with the indices reversed, coordinate c has one product target outside
    # I_2 and comes before the true pick; with that target dropped from the
    # held view the coordinate loop picks c at k = 2, and _check_chain,
    # which reads the row table, refuses it
    alg = build_algebra(relabelled(construct_minimal(8, F3)[1]))
    chain = isotropic_ideal_chain(alg)
    targets = list(algebra_module._coordinate_targets(alg))
    inside = set(chain[2].pivots)
    c = next(
        c
        for c in algebra_module._priority_permutation(alg.n)
        if c not in inside and c ^ 1 not in inside and len(targets[c] - inside) == 1
    )
    assert chain[3] != Subspace._from_rows(F3, alg.dim, ({d: 1} for d in sorted(inside | {c})))
    targets[c] = targets[c] & inside
    alg._series["_coordinate_targets"] = tuple(targets)
    with pytest.raises(RuntimeError, match=r"fails \(ii\) I_3 L <= I_2 at k=2 for n=8") as info:
        isotropic_ideal_chain(alg)
    assert not isinstance(info.value, ChainError)


def test_chain_memory_stays_small():
    # the general loop's carried products must not grow unnoticed: about
    # 2.1 MiB at n = 120 (the construction is monomial, so the general loop
    # is called through its own entry)
    alg = minimal_algebra(120, F3)[1]
    tracemalloc.start()
    try:
        chain = algebra_module._general_chain(alg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [s.dim for s in chain] == list(range(121))
    assert peak < 8 * 2**20


def test_coordinate_chain_memory_stays_small():
    # the terms of a construction's chain share their unit rows, so they
    # hold n(n+1)/2 row and pivot entries but only n rows: about 9 MiB at
    # n = 1000, where a copy of every row per term took 135 MiB
    alg = minimal_algebra(1000, F3)[1]
    algebra_module._coordinate_targets(alg)
    tracemalloc.start()
    try:
        chain = isotropic_ideal_chain(alg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [s.dim for s in chain] == list(range(1001))
    assert peak < 24 * 2**20


@pytest.mark.parametrize("n", [8, 16, 40])
def test_series_and_chain_of_a_construction_check_no_rows(monkeypatch, n):
    # every series term, the centre and every chain term of a construction
    # is a span of basis vectors, checked by its coordinates alone; the
    # rows so held pass the row-by-row check, and the terms are the
    # elimination loops' and the reference chain's
    pres = construct_minimal(n, F3)[1]

    def refused(*args):
        raise AssertionError("a span of basis vectors was checked row by row")

    monkeypatch.setattr(linalg_module, "_check_rref", refused)
    alg = build_algebra(pres)
    report, chain = series_report(alg), isotropic_ideal_chain(alg)
    centre = algebra_module._center(alg)
    monkeypatch.undo()
    for s in (*report.lower, *report.upper, centre, *chain):
        assert Subspace._from_rows(F3, alg.dim, [dict(row) for row in s.rows]) == s
    exact = exact_series_report(alg)
    assert (report.lower, report.upper) == (exact.lower, exact.upper)
    assert chain == reference_chain(alg)


def test_other_subspaces_still_check_rows(monkeypatch):
    # product_space, the centralizer, perp, from_vectors and the terms of a
    # dense chain are not built as spans of basis vectors, and each still
    # reaches the row-by-row check; on the scrambled construction every
    # term after I_0 does (its centre is held before the patch)
    alg = minimal_algebra(8, F3)[1]
    dense = scrambled(alg, np.random.default_rng(3))
    algebra_module._exact_center(dense)
    calls, check = [], linalg_module._check_rref

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(linalg_module, "_check_rref", counted)
    space, zero = full_space(alg), zero_space(alg)
    for build in (
        lambda: product_space(alg, space, space),
        lambda: algebra_module._centralizer_above(alg, zero),
        lambda: perp(zero, alg.gram),
        lambda: Subspace.from_vectors(F3, alg.dim, [[1] * alg.dim]),
    ):
        calls.clear()
        build()
        assert len(calls) == 1
    calls.clear()
    chain = isotropic_ideal_chain(dense)
    assert len(calls) == dense.n
    monkeypatch.undo()
    assert chain == reference_chain(dense)


def test_chain_terms_share_unit_rows_that_no_reader_changes():
    # each term holds the unit rows of the term before it, the same dicts,
    # and is_ideal, is_isotropic, contains_subspace and product_space, run
    # on every term, leave every term's rows as they were
    alg = minimal_algebra(16, F3)[1]
    chain = isotropic_ideal_chain(alg)
    for below, above in zip(chain, chain[1:]):
        held = dict(zip(above.pivots, above.rows))
        assert all(held[c] is row for c, row in zip(below.pivots, below.rows))
    before = [[dict(row) for row in s.rows] for s in chain]
    space = full_space(alg)
    for s in chain:
        assert is_ideal(alg, s) and is_isotropic(alg, s)
        assert all(t.contains_subspace(s) for t in chain[s.dim :])
        product_space(alg, s, space)
        product_space(alg, s, s)
    assert [list(s.rows) for s in chain] == before


@pytest.mark.slow
def test_chain_completes_at_n_1000():
    # the general loop, called through its own entry (the construction is
    # monomial), gives the coordinate loop's chain term by term
    alg = minimal_algebra(1000, F3)[1]
    chain = algebra_module._general_chain(alg)
    assert [s.dim for s in chain] == list(range(1001))
    assert chain == isotropic_ideal_chain(alg)


@pytest.mark.slow
@pytest.mark.parametrize("n", [24, 40])
def test_general_chain_matches_reference_on_dense_algebras(n):
    # the scrambled constructions are dense and not monomial, so every cut
    # of the general loop combines rows; the reference eliminates each step
    # afresh
    alg = scrambled(minimal_algebra(n, F3)[1], np.random.default_rng(1))
    assert algebra_module._general_chain(alg) == reference_chain(alg)


@pytest.mark.parametrize("p", [3, 3037000493])
@pytest.mark.parametrize("n", [8, 12])
def test_exact_series_and_fingerprint_of_scrambled_minimal_algebras(n, p):
    # the scrambled construction is dense and isomorphic to the
    # construction by an isometry, so the exact series, class, rank and
    # fingerprint, which it takes through _exact_fingerprint, are the
    # construction's, read off coordinate sets
    field = PrimeField(p)
    construction = minimal_algebra(n, field)[1]
    alg = scrambled(construction, np.random.default_rng(n))
    assert algebra_module._coordinate_targets(alg) is None
    got, expected = series_report(alg), series_report(construction)
    assert (got.lower_dims, got.upper_dims) == (expected.lower_dims, expected.upper_dims)
    assert (got.nilpotency_class, got.rank) == (expected.nilpotency_class, expected.rank)
    assert fingerprint(alg) == construct_module._exact_fingerprint(alg) == fingerprint(construction)


def test_validate_nilpotent_presentation():
    for entry in catalog():
        assert validate_nilpotent_presentation(entry.presentation(F3, r=1))
    bad_order = Presentation.build(4, F3, [("x3", "y2", "y1", 1)])
    assert not validate_nilpotent_presentation(bad_order)
    two_x = Presentation.build(4, F3, [("x1", "x2", "y3", 1)])
    assert not validate_nilpotent_presentation(two_x)


def test_maximal_class_criterion_examples():
    alg = build_algebra(catalog_entry("P8-2-1").presentation(F3, r=1))
    assert is_maximal_class_criterion(alg)
    assert not is_maximal_class_criterion(abelian(4))
    with pytest.raises(ValueError):
        is_maximal_class_criterion(abelian(3))
    with pytest.raises(ValueError):
        is_maximal_class_criterion(build_algebra(NON_NILPOTENT))


def test_criterion_matches_class_on_random_samples():
    rng = np.random.default_rng(2718)
    for n in (4, 5):
        for _ in range(100):
            alg = build_algebra(random_nilpotent_presentation(n, F3, rng))
            crit = is_maximal_class_criterion(alg)
            assert crit == (nilpotency_class(alg) == 2 * n - 3)


def test_maximal_class_structure_check():
    for r in (1, 2):
        alg = build_algebra(catalog_entry("P8-2-1").presentation(F3, r=r))
        assert maximal_class_structure_check(alg)
    with pytest.raises(ValueError):
        maximal_class_structure_check(build_algebra(catalog_entry("P10-2-1").presentation(F3)))


def test_maximal_class_structure_check_fails_on_a_tampered_report():
    alg = build_algebra(catalog_entry("P8-2-1").presentation(F3))
    rep = series_report(alg)
    # a centre of the right dimension that pairs nonzero with L^2
    other = Subspace.from_vectors(F3, alg.dim, np.eye(alg.dim, dtype=np.int64)[:2])
    assert other != rep.upper[1]
    alg._series["series_report"] = dataclasses.replace(
        rep, upper=(rep.upper[0], other, *rep.upper[2:])
    )
    assert maximal_class_structure_check(alg) is False
    # L^2 = Z_{2n-4} both shrunk to a hyperplane of L^2: every term still
    # pairs to zero where it should, and only dim L^2 + dim Z_1 != 2n, or
    # dim L^{2n-3} + dim Z_{2n-4} != 2n, shows the tampering
    shrunk = Subspace.from_vectors(F3, alg.dim, rep.lower[1].basis[1:])
    upper = list(rep.upper)
    upper[alg.dim - 4] = shrunk
    alg._series["series_report"] = dataclasses.replace(
        rep, lower=(rep.lower[0], shrunk, *rep.lower[2:]), upper=tuple(upper)
    )
    assert maximal_class_structure_check(alg) is False
    alg._series["series_report"] = rep
    assert maximal_class_structure_check(alg) is True


def test_not_applicable_is_a_value_error():
    assert issubclass(NotNilpotentError, NotApplicable)
    assert issubclass(NotApplicable, ValueError)


@pytest.mark.parametrize(
    "pres, lower_dims, upper_dims",
    [
        # L^i and Z_i at i = -1, 0, 1, 2 and 9, past every held end
        (Presentation.build(3, F3, []), (6, 6, 6, 0, 0), (0, 0, 6, 6, 6)),
        (Presentation.build(2, F3, [("x1", "y1", "x2", 1)]), (4, 4, 4, 3, 3), (0, 0, 1, 1, 1)),
        (catalog_entry("P8-2-1").presentation(F3, r=1), (8, 8, 8, 6, 0), (0, 0, 2, 3, 8)),
    ],
    ids=["abelian-n3", "non-nilpotent-n2", "P8-2-1"],
)
def test_series_terms_follow_one_index_rule(pres, lower_dims, upper_dims):
    alg = build_algebra(pres)
    rep = series_report(alg)
    L = full_space(alg)
    indexes = (-1, 0, 1, 2, 9)
    assert tuple(rep.lower_term(i).dim for i in indexes) == lower_dims
    assert tuple(rep.upper_term(i).dim for i in indexes) == upper_dims
    assert rep.lower_term(-1) == rep.lower_term(0) == L
    assert rep.upper_term(-1) == rep.upper_term(0) == zero_space(alg)
    for i, term in enumerate(rep.lower, start=1):
        assert rep.lower_term(i) is term
    for i, term in enumerate(rep.upper):
        assert rep.upper_term(i) is term
    # each series is held up to its first repeated term, so the term past
    # its end, which the rule reads as the last one, is the true next term
    last = rep.lower[-1]
    assert product_space(alg, last, L) == last == rep.lower_term(len(rep.lower) + 1)
    last = rep.upper[-1]
    assert algebra_module._centralizer_above(alg, last) == last == rep.upper_term(len(rep.upper))


def test_a_report_of_one_series_refuses_a_read_of_the_other():
    alg = build_algebra(catalog_entry("P8-2-1").presentation(F3, r=1))
    with pytest.raises(ValueError, match="no upper series"):
        lower_central_series(alg).upper_term(1)
    with pytest.raises(ValueError, match="no lower series"):
        upper_central_series(alg).lower_term(1)


def test_series_mirror_equality():
    for entry in catalog():
        rep = series_report(build_algebra(entry.presentation(F3, r=1)))
        ld, zd = rep.lower_dims, rep.upper_dims
        for i in range(1, len(ld)):
            assert ld[i - 1] - ld[i] == zd[i] - zd[i - 1]


def test_multiply_rejects_mismatched_input():
    alg = abelian(2)
    with pytest.raises(ValueError):
        multiply(alg, [1, 0, 0], [0, 1, 0, 0])
    other = Subspace.full(PrimeField(5), 4)
    with pytest.raises(ValueError):
        product_space(alg, other, full_space(alg))
