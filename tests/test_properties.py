"""Property tests of the exact kernels against pure Python-int references."""

import itertools
import re
from functools import partial

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from saalib.algebra import (
    BasisVector,
    ChainError,
    Presentation,
    PresentationTriple,
    StructureTensor,
    _center,
    _centralizer_above,
    _coordinate_targets,
    _independent,
    _products,
    _row_table,
    build_algebra,
    full_space,
    is_abelian,
    is_isotropic,
    isotropic_ideal_chain,
    lower_central_series,
    monomial_series,
    nilpotency_class,
    product_space,
    series_report,
    upper_central_series,
    zero_space,
)
from saalib import construct as construct_module
from saalib.checks import random_nilpotent_presentation
from saalib.construct import (
    ScalingWitness,
    _transform_values,
    catalog,
    construct_minimal,
    fingerprint,
    TripleSet,
    minimal_algebra,
    omega,
    predict_min_class,
    try_scaling_isomorphism,
    verify_scaling_witness,
)
from saalib.linalg import (
    GramMatrix,
    PrimeField,
    Subspace,
    _dict_rows,
    _orthogonal,
    _pairing_rows,
    _rref_array,
    _rref_rows,
    nullspace,
    orthogonal,
    perp,
)
from saalib.presfile import emit_presentation, parse_presentation

from references import (
    EXACT_PRIMES,
    exact_series_report,
    outer_injection_inputs,
    reference_chain,
    reference_injection,
    reference_no_common_pair,
    reference_pair_shell,
    reference_pairings,
    reference_products,
    reference_property_report,
    reference_table,
    reference_w_completion,
)

# small primes, the largest prime below 2**28, 2**31 - 1, and the largest
# prime with p * (p - 1) < 2**63
PRIMES = (2, 3, 7, 268435399, 2147483647, 3037000493)

primes = st.sampled_from(PRIMES)
# two small primes, one odd prime above 3 and the largest accepted prime
small_and_largest = st.sampled_from((2, 3, 7, 3037000493))
seeds = st.integers(0, 2**32 - 1)


INT64 = (-(2**63), 2**63 - 1)
UINT64 = (0, 2**64 - 1)


@given(
    p=primes,
    values=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=8),
    form=st.sampled_from(["list", "tuple", "int64", "uint64", "object"]),
)
@example(p=3, values=[2**63], form="uint64")
@example(p=3, values=[2**64, -(2**63) - 1], form="list")
def test_reader_agrees_with_python_mod(p, values, form):
    # every container a vector or matrix can come in reads as x % p; an
    # int64 or uint64 array is drawn only for values it can hold
    bounds = {"int64": INT64, "uint64": UINT64}.get(form)
    if bounds:
        values = [min(max(x, bounds[0]), bounds[1]) for x in values]
    make = {
        "list": list,
        "tuple": tuple,
        "int64": lambda v: np.array(v, dtype=np.int64),
        "uint64": lambda v: np.array(v, dtype=np.uint64),
        "object": lambda v: np.array(v, dtype=object),
    }[form]
    field = PrimeField(p)
    expected = tuple(x % p for x in values)
    assert field.vector(make(values), len(values)) == expected
    assert field.reduce(make(values)) == expected
    assert field.reduce(make([values, values[::-1]])) == (expected, expected[::-1])
    assert all(type(x) is int for x in field.reduce(make(values)))


def reference_rref(rows, ncols, p):
    """Gauss-Jordan elimination on Python ints: (rows in RREF, pivots)."""
    a = [[x % p for x in row] for row in rows]
    r = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i, row in enumerate(a):
            if i != r and row[c]:
                f = row[c]
                a[i] = [(x - f * y) % p for x, y in zip(row, a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def reference_contains(basis_rows, rows, ncols, p):
    """The stacked rank test: rows lie in the span iff they add no pivot."""
    _, pivots = reference_rref(list(basis_rows) + list(rows), ncols, p)
    return len(pivots) == len(basis_rows)


def combinations(rng, count, gens, p):
    """count random combinations of the rows of gens, in Python ints."""
    coeffs = rng.integers(0, p, size=(count, len(gens)), dtype=np.uint64).astype(object)
    return ((coeffs @ np.asarray(gens, dtype=object)) % p).tolist()


def dense_rows(rows, width):
    """Dict rows written out as lists of width Python ints."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def banded_rows(p, ncols, seed, bands):
    """Tall rows in bands of nested spans: band (m, k) has m rows in span of k generators.

    Most rows are redundant, so the elimination sees tall inputs whose rows
    it clears to zero, and bands of growing rank make rows that bring new
    pivots late, after many redundant ones.
    """
    rng = np.random.default_rng(seed)
    gens = rng.integers(0, p, size=(ncols, ncols), dtype=np.uint64).astype(object).tolist()
    rows = []
    for m, k in bands:
        rows += combinations(rng, m, gens[:k], p) if k else [[0] * ncols] * m
    return rows


@settings(max_examples=80)
@given(
    p=primes,
    ncols=st.integers(8, 40),
    seed=seeds,
    bands=st.lists(st.tuples(st.integers(0, 150), st.integers(0, 12)), min_size=2, max_size=4),
)
@example(p=7, ncols=12, seed=1, bands=[(200, 2), (200, 4), (200, 6)])
@example(p=3037000493, ncols=32, seed=2, bands=[(150, 3), (150, 6), (150, 9), (150, 12)])
def test_rref_matches_python_int_reference(p, ncols, seed, bands):
    bands = [(m, min(k, ncols)) for m, k in sorted(bands, key=lambda band: band[1])]
    rows = banded_rows(p, ncols, seed, bands)
    expected, expected_pivots = reference_rref(rows, ncols, p)
    arr, pivots = _rref_array(np.array(rows, dtype=np.int64).reshape(-1, ncols), p)
    assert pivots == expected_pivots
    assert [list(row) for row in arr] == expected


def sparse_rows(p, nrows, ncols, seed, density, zero_rows, zero_cols):
    """Rows with about density nonzeros, most of them 1 or p - 1, as constructions produce.

    A share zero_rows of the rows and zero_cols of the columns is cleared.
    """
    rng = np.random.default_rng(seed)
    values = rng.choice(
        [1, p - 1, int(rng.integers(1, p))], size=(nrows, ncols), p=[0.45, 0.45, 0.1]
    )
    a = np.where(rng.random((nrows, ncols)) < density, values, 0).astype(np.int64)
    a[rng.random(nrows) < zero_rows] = 0
    a[:, rng.random(ncols) < zero_cols] = 0
    return a


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=50)
@given(
    shape=st.tuples(st.integers(0, 150), st.integers(0, 40)),
    seed=seeds,
    density=st.floats(0.01, 0.1),
    zero_rows=st.sampled_from([0.0, 0.2, 0.6]),
    zero_cols=st.sampled_from([0.0, 0.2, 0.6]),
)
@example(shape=(0, 12), seed=1, density=0.1, zero_rows=0.0, zero_cols=0.0)
@example(shape=(12, 0), seed=1, density=0.1, zero_rows=0.0, zero_cols=0.0)
@example(shape=(1, 32), seed=1, density=0.1, zero_rows=0.0, zero_cols=0.0)
@example(shape=(150, 12), seed=3, density=0.1, zero_rows=0.2, zero_cols=0.2)
def test_rref_of_sparse_rows_matches_python_int_reference(
    p, shape, seed, density, zero_rows, zero_cols
):
    a = sparse_rows(p, *shape, seed, density, zero_rows, zero_cols)
    expected, expected_pivots = reference_rref(a.tolist(), shape[1], p)
    arr, pivots = _rref_array(a, p)
    assert pivots == expected_pivots
    assert len(arr) == shape[0] and all(len(row) == shape[1] for row in arr)
    assert [list(row) for row in arr] == expected


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=50)
@given(
    shape=st.tuples(st.integers(0, 150), st.integers(1, 40)),
    seed=seeds,
    density=st.floats(0.01, 0.3),
    zero_rows=st.sampled_from([0.0, 0.2, 0.6]),
)
@example(shape=(0, 12), seed=1, density=0.1, zero_rows=0.0)
@example(shape=(150, 12), seed=3, density=0.3, zero_rows=0.2)
def test_rref_rows_matches_python_int_reference(p, shape, seed, density, zero_rows):
    # dict rows with their keys in random order, as products emit them; the
    # RREF comes keyed by increasing pivot
    a = sparse_rows(p, *shape, seed, density, zero_rows, 0.0)
    rng = np.random.default_rng(seed)
    rows = []
    for row in a.tolist():
        nonzero = [c for c, v in enumerate(row) if v]
        rows.append({c: row[c] % p for c in rng.permutation(nonzero).tolist()})
    expected, expected_pivots = reference_rref(a.tolist(), shape[1], p)
    basis = _rref_rows(rows, p)
    assert list(basis) == expected_pivots
    assert all(all(v for v in row.values()) for row in basis.values())
    got = [[row.get(c, 0) for c in range(shape[1])] for row in basis.values()]
    assert got == expected[: len(expected_pivots)]


@given(
    p=primes,
    ambient=st.integers(1, 16),
    seed=seeds,
    span=st.integers(0, 8),
    count=st.integers(1, 4),
    inside=st.booleans(),
)
def test_membership_matches_stacked_rank_test(p, ambient, seed, span, count, inside):
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    gens = rng.integers(0, p, size=(span, ambient), dtype=np.uint64).astype(object).tolist()
    s = Subspace.from_vectors(field, ambient, gens)
    candidates = (
        combinations(rng, count, gens, p)
        if inside and gens
        else rng.integers(0, p, size=(count, ambient), dtype=np.uint64).tolist()
    )
    basis_rows = s.basis
    assert s.contains(candidates[0]) == reference_contains(
        basis_rows, candidates[:1], ambient, p
    )
    t = Subspace.from_vectors(field, ambient, candidates)
    assert s.contains_subspace(t) == reference_contains(
        basis_rows, t.basis, ambient, p
    )


def random_presentation(n, field, rng):
    """Random values on a random set of coordinate triples, nilpotent or not.

    Dimension 2 has no triple of distinct coordinates, so n = 1 draws none.
    """
    dim = 2 * n
    seen = set()
    items = []
    for _ in range(int(rng.integers(0, 3 * n)) if n >= 2 else 0):
        coords = tuple(sorted(int(c) for c in rng.choice(dim, size=3, replace=False)))
        if coords in seen:
            continue
        seen.add(coords)
        tokens = [("y" if c % 2 else "x") + str(c // 2 + 1) for c in coords]
        items.append((*tokens, int(rng.integers(1, field.p))))
    return Presentation.build(n, field, items)


def sparse_nilpotent_presentation(n, field, rng):
    """Random unit values on 1..n-1 random nilpotent-shape triples.

    Few of the table's entries are then nonzero, as in a minimal
    construction; the scan's random nilpotent draw fills about a tenth.
    """
    items = {}
    for _ in range(int(rng.integers(1, n)) if n >= 3 else 0):
        i, j, k = sorted(int(c) for c in rng.choice(np.arange(1, n + 1), size=3, replace=False))
        items[(str(rng.choice(["x", "y"])), i, j, k)] = int(rng.integers(1, field.p))
    triples = [(f"{kind}{i}", f"y{j}", f"y{k}", v) for (kind, i, j, k), v in items.items()]
    return Presentation.build(n, field, triples)


# dense nilpotent (the scan's draw), general, and sparse nilpotent presentations
MAKERS = {
    "dense": random_nilpotent_presentation,
    "general": random_presentation,
    "sparse": sparse_nilpotent_presentation,
}
shapes = st.sampled_from(sorted(MAKERS))


def monomial_presentation(n, field, rng, nilpotent):
    """Random nonzero values on random triples, no two sharing two basis
    vectors: of nilpotent shape (x_i y_j, y_k) or (y_i y_j, y_k), i < j < k,
    or on any three coordinates.  A drawn triple that shares a pair with an
    earlier one is skipped."""
    items, pairs = [], set()
    for _ in range(int(rng.integers(0, 3 * n)) if n >= 3 else 0):
        if nilpotent:
            i, j, k = sorted(int(c) for c in rng.choice(n, size=3, replace=False) + 1)
            tokens = (f"{rng.choice(['x', 'y'])}{i}", f"y{j}", f"y{k}")
        else:
            coords = rng.choice(2 * n, size=3, replace=False)
            tokens = tuple(("y" if c % 2 else "x") + str(c // 2 + 1) for c in coords)
        sides = {frozenset(side) for side in itertools.combinations(tokens, 2)}
        if sides & pairs:
            continue
        pairs |= sides
        items.append((*tokens, int(rng.integers(1, field.p))))
    return Presentation.build(n, field, items)


# the Python-int oracles also draw monomial presentations, nilpotent or not,
# whose held series are read off sets of coordinates
ORACLE_MAKERS = {
    **MAKERS,
    "monomial": partial(monomial_presentation, nilpotent=False),
    "monomial-nilpotent": partial(monomial_presentation, nilpotent=True),
}


def reference_lower_series(alg):
    """L^{i+1} = product_space(L^i, L) until a term repeats."""
    terms = [full_space(alg)]
    while True:
        nxt = product_space(alg, terms[-1], full_space(alg))
        if nxt == terms[-1]:
            return tuple(terms)
        terms.append(nxt)


@given(p=primes, n=st.integers(2, 6), seed=seeds, shape=shapes)
def test_lower_series_matches_product_space_recurrence(p, n, seed, shape):
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    alg = build_algebra(MAKERS[shape](n, field, rng))
    terms = reference_lower_series(alg)
    low = lower_central_series(alg)
    assert low.lower == terms
    assert low.nilpotency_class == (len(terms) - 1 if terms[-1].is_zero() else None)


def python_int_lower_series(alg):
    """The lower series' RREF bases as lists of Python ints: L^{i+1} is
    spanned by u . e_j over L^i's basis rows u and every j, summed from
    reference_table and reduced by reference_rref, until the dimension
    repeats.  Nothing of the library's products or elimination is used."""
    p, dim = alg.field.p, alg.dim
    table = reference_table(alg)
    terms = [[[int(i == j) for j in range(dim)] for i in range(dim)]]
    while terms[-1]:
        products = [
            [sum(u[i] * table[i][j][k] for i in range(dim)) for k in range(dim)]
            for u in terms[-1]
            for j in range(dim)
        ]
        rows, pivots = reference_rref(products, dim, p)
        if len(pivots) == len(terms[-1]):
            break
        terms.append(rows[: len(pivots)])
    return terms


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", sorted(ORACLE_MAKERS))
@settings(max_examples=20)
@given(n=st.integers(2, 6), seed=seeds)
def test_lower_series_matches_python_int_reference(shape, p, n, seed):
    alg = build_algebra(ORACLE_MAKERS[shape](n, PrimeField(p), np.random.default_rng(seed)))
    if shape.startswith("monomial"):
        assert _coordinate_targets(alg) is not None
    low = lower_central_series(alg)
    assert [list(map(list, term.basis)) for term in low.lower] == python_int_lower_series(alg)


def python_int_centralizer(table, basis, p):
    """{v : v . e_j in span(basis) for every j}, as its RREF rows of Python
    ints, for basis an RREF given as lists: v . e_j = sum v_i table[i][j]
    must leave no residual against basis, one linear condition on v per
    (j, coordinate), and the kernel of those conditions (reference_kernel)
    is reduced by reference_rref."""
    dim = len(table)
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]

    def residual(x):
        out = list(x)
        for row, c in zip(basis, pivots):
            out = [(o - x[c] * b) % p for o, b in zip(out, row)]
        return out

    conditions = [[0] * dim for _ in range(dim * dim)]
    for i in range(dim):
        for j in range(dim):
            for k, value in enumerate(residual(table[i][j])):
                conditions[j * dim + k][i] = value
    rows, pivots = reference_rref(reference_kernel(conditions, dim, p), dim, p)
    return rows[: len(pivots)]


def python_int_upper_series(alg):
    """The upper series' RREF bases as lists of Python ints: Z_0 = 0 and
    Z_{i+1} = {v : v . e_j in Z_i for every j} (python_int_centralizer) on
    reference_table, until a term repeats.  Nothing of the library's
    products, elimination or subspaces is used."""
    p, table = alg.field.p, reference_table(alg)
    terms = [[]]
    while (above := python_int_centralizer(table, terms[-1], p)) != terms[-1]:
        terms.append(above)
    return terms


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", sorted(ORACLE_MAKERS))
@settings(max_examples=20)
@given(n=st.integers(2, 6), seed=seeds)
def test_upper_series_and_centre_match_python_int_reference(shape, p, n, seed):
    # the held centre and upper series, read off sets of coordinates on a
    # monomial algebra and by centralizers on any other
    alg = build_algebra(ORACLE_MAKERS[shape](n, PrimeField(p), np.random.default_rng(seed)))
    terms = python_int_upper_series(alg)
    assert list(map(list, _center(alg).basis)) == terms[min(1, len(terms) - 1)]
    up = upper_central_series(alg)
    assert [list(map(list, term.basis)) for term in up.upper] == terms


def reference_kernel(rows, ncols, p):
    """Free-variable basis of {x : rows @ x = 0}, from the Python-int RREF."""
    a, pivots = reference_rref(rows, ncols, p)
    kernel = []
    for f in (j for j in range(ncols) if j not in pivots):
        row = [0] * ncols
        row[f] = 1
        for r, c in enumerate(pivots):
            row[c] = -a[r][f] % p
        kernel.append(row)
    return kernel


def reference_span(field, ambient, rows):
    """The canonical subspace of rows, reduced by the Python-int reference."""
    a, pivots = reference_rref(rows, ambient, field.p)
    data = np.array(a[: len(pivots)], dtype=np.int64).reshape(-1, ambient)
    return Subspace(field, ambient, data)


@given(
    p=primes,
    ncols=st.integers(1, 24),
    seed=seeds,
    bands=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 12)), min_size=1, max_size=3),
)
def test_nullspace_matches_python_int_kernel(p, ncols, seed, bands):
    bands = [(m, min(k, ncols)) for m, k in sorted(bands, key=lambda band: band[1])]
    rows = banded_rows(p, ncols, seed, bands)
    ker = nullspace(np.array(rows, dtype=np.int64).reshape(-1, ncols), p, ncols)
    assert [list(row) for row in ker] == reference_kernel(rows, ncols, p)


@given(
    p=primes,
    order=st.integers(1, 12).flatmap(lambda n: st.permutations(range(2 * n))),
    seed=seeds,
    bands=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 12)), min_size=1, max_size=3),
)
@example(p=3037000493, order=list(range(10)), seed=1, bands=[(12, 0)])
@example(p=3037000493, order=[5, 4, 3, 2, 1, 0], seed=2, bands=[(4, 0), (30, 6)])
@example(p=2, order=list(range(12)), seed=3, bands=[(0, 0)])
def test_orthogonal_matches_python_int_kernel(p, order, seed, bands):
    # the kernel, read with its columns ranked by order, is already the
    # canonical basis (Subspace refuses any other); the examples are
    # all-zero rows (kernel = everything), zero rows then full rank (empty
    # kernel), and no rows at all
    ncols = len(order)
    bands = [(m, min(k, ncols)) for m, k in sorted(bands, key=lambda band: band[1])]
    rows = banded_rows(p, ncols, seed, bands)
    field = PrimeField(p)
    g = GramMatrix(field, ncols // 2)
    gram = np.array(g.data, dtype=object)
    twisted = (np.array(rows, dtype=object).reshape(-1, ncols) @ gram % p).tolist()
    kernel = _orthogonal([{c: v for c, v in enumerate(row) if v} for row in rows], order, p)
    rank = {c: t for t, c in enumerate(order)}
    ranked = [{rank[c]: v for c, v in row.items()} for row in kernel]
    by_rank = [[row[c] for c in order] for row in twisted]
    assert Subspace._from_rows(field, ncols, ranked) == reference_span(
        field, ncols, reference_kernel(by_rank, ncols, p)
    )


@given(p=primes, n=st.integers(1, 8), seed=seeds, span=st.integers(0, 16))
def test_perp_matches_two_elimination_reference(p, n, seed, span):
    # the reference solves (u, v) = 0 against the basis times the form, then
    # reduces the kernel again: the two eliminations perp used to run
    field = PrimeField(p)
    g = GramMatrix(field, n)
    rng = np.random.default_rng(seed)
    s = Subspace.from_vectors(field, 2 * n, rng.integers(0, p, size=(span, 2 * n)))
    gram = g.data
    constraints = [
        [sum(u[i] * gram[i][j] for i in range(2 * n)) % p for j in range(2 * n)]
        for u in s.basis
    ]
    expected = reference_span(field, 2 * n, reference_kernel(constraints, 2 * n, p))
    assert perp(s, g) == expected
    assert perp(expected, g) == s


@given(
    p=small_and_largest,
    n=st.integers(1, 6),
    seed=seeds,
    span=st.integers(0, 12),
    count=st.integers(0, 12),
    draw=st.sampled_from(["random", "inside", "perturbed"]),
)
def test_orthogonal_matches_perp(p, n, seed, span, count, draw):
    # a is drawn at random, inside perp(b), or inside it but for one row, so
    # both answers and both sides of dim a + dim b = 2n occur
    field = PrimeField(p)
    g = GramMatrix(field, n)
    rng = np.random.default_rng(seed)
    b = Subspace.from_vectors(field, 2 * n, rng.integers(0, p, size=(span, 2 * n)))
    b_perp = perp(b, g)
    if draw == "random":
        rows = rng.integers(0, p, size=(count, 2 * n)).tolist()
    else:
        rows = combinations(rng, count, b_perp.basis, p) if b_perp.dim else []
        if draw == "perturbed" and rows:
            rows[0] = [(x + int(y)) % p for x, y in zip(rows[0], rng.integers(0, p, 2 * n))]
    a = Subspace.from_vectors(field, 2 * n, rows)
    assert orthogonal(a, b, g) == b_perp.contains_subspace(a)
    assert orthogonal(b, a, g) == orthogonal(a, b, g)
    assert (a.dim + b.dim == 2 * n and orthogonal(a, b, g)) == (a == b_perp)


@given(p=primes, ambient=st.integers(1, 16), seed=seeds, span=st.integers(0, 16))
def test_subspace_from_rows_matches_subspace_from_array(p, ambient, seed, span):
    # the Python-int RREF of random rows, held once from its dict rows, their
    # keys in random order as eliminations leave them, and once from its array
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    gens = rng.integers(0, p, size=(span, ambient), dtype=np.uint64).astype(object).tolist()
    rref, pivots = reference_rref(gens, ambient, p)
    rref = rref[: len(pivots)]
    order = rng.permutation(ambient).tolist()
    from_rows = Subspace._from_rows(field, ambient, [{c: row[c] for c in order if row[c]} for row in rref])
    from_array = Subspace(field, ambient, np.array(rref, dtype=np.int64).reshape(-1, ambient))
    assert from_rows == from_array and hash(from_rows) == hash(from_array)
    assert from_rows.dim == from_array.dim == len(pivots)
    assert from_rows.pivots == from_array.pivots == tuple(pivots)
    assert from_rows.basis == from_array.basis
    assert from_rows.basis == tuple(map(tuple, rref))
    assert Subspace.from_vectors(field, ambient, gens) == from_rows


@given(
    p=primes,
    ambient=st.integers(2, 16),
    seed=seeds,
    span=st.integers(2, 16),
    broken=st.sampled_from(["empty row", "pivot not 1", "pivots not increasing", "pivot column"]),
)
def test_subspace_from_rows_refuses_each_broken_rref_condition(p, ambient, seed, span, broken):
    # one condition is broken in a valid RREF of at least two rows: a zero row
    # inserted, one row scaled by a unit other than 1, two rows swapped, or an
    # entry put on the pivot column of a later row, which keeps the pivots
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    s = Subspace.from_vectors(field, ambient, rng.integers(0, p, size=(span, ambient)))
    assume(s.dim >= 2 and (p > 2 or broken != "pivot not 1"))
    rows = [dict(row) for row in s.rows]
    i, j = sorted(rng.choice(len(rows), size=2, replace=False).tolist())
    if broken == "empty row":
        rows.insert(int(rng.integers(0, len(rows) + 1)), {})
    elif broken == "pivot not 1":
        unit = int(rng.integers(2, p))
        rows[i] = {c: v * unit % p for c, v in rows[i].items()}
    elif broken == "pivots not increasing":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        rows[i][s.pivots[j]] = int(rng.integers(1, p))
    with pytest.raises(ValueError, match="reduced row echelon form"):
        Subspace._from_rows(field, ambient, rows)
    assert Subspace._from_rows(field, ambient, [dict(row) for row in s.rows]) == s


@given(
    p=primes,
    ambient=st.integers(0, 16),
    seed=seeds,
    fault=st.sampled_from(["none", "unsorted", "repeated", "negative", "out of range"]),
)
@example(p=2, ambient=0, seed=0, fault="none")
@example(p=3, ambient=4, seed=0, fault="repeated")
def test_subspace_from_units_matches_subspace_from_rows(p, ambient, seed, fault):
    # a span of basis vectors checked by its coordinates against the same
    # unit rows checked row by row: a random increasing set of coordinates,
    # or one broken by a swap, a repeat, a negative or an out-of-range
    # coordinate; each is refused by both or by neither, and an accepted
    # one gives the same rows, pivots, equality, hash and basis
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, ambient + 1))
    coords = sorted(rng.choice(ambient, size=size, replace=False).tolist())
    if fault == "unsorted":
        assume(len(coords) >= 2)
        i = int(rng.integers(0, len(coords) - 1))
        coords[i], coords[i + 1] = coords[i + 1], coords[i]
    elif fault == "repeated":
        assume(coords)
        i = int(rng.integers(0, len(coords)))
        coords.insert(i, coords[i])
    elif fault == "negative":
        coords.insert(0, -int(rng.integers(1, 4)))
    elif fault == "out of range":
        coords.append(ambient + int(rng.integers(0, 3)))
    rows = [{c: 1} for c in coords]
    if fault != "none":
        with pytest.raises(ValueError):
            Subspace._from_rows(field, ambient, rows)
        with pytest.raises(ValueError):
            Subspace._from_units(field, ambient, coords)
        return
    from_rows = Subspace._from_rows(field, ambient, rows)
    from_units = Subspace._from_units(field, ambient, coords)
    assert from_units.rows == from_rows.rows and from_units.pivots == from_rows.pivots
    assert from_units == from_rows and hash(from_units) == hash(from_rows)
    assert from_units.basis == from_rows.basis
    assert from_units.pivots == tuple(coords) and from_units.dim == len(coords)


def pairing_matrix(a, b, g):
    """The pairings (u, v) for u over a's basis rows and v over b's, as one
    matmul A G B^T mod p of the bases and the form, on Python ints (object
    dtype)."""
    dim = g.dim
    basis_a, gram, basis_b = (
        np.array(m, dtype=object).reshape(-1, dim) for m in (a.basis, g.data, b.basis)
    )
    return basis_a @ gram @ basis_b.T % g.field.p


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=30)
@given(
    n=st.integers(1, 6),
    seed=seeds,
    spans=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    inside=st.booleans(),
)
def test_pairing_rows_match_pairing_matrix(p, n, seed, spans, inside):
    # a is drawn at random or inside perp(b), so both answers of orthogonal
    # occur; the dict-row pairings are the matrix's rows, zeros dropped
    field = PrimeField(p)
    g = GramMatrix(field, n)
    rng = np.random.default_rng(seed)
    b = Subspace.from_vectors(field, 2 * n, rng.integers(0, p, size=(spans[1], 2 * n)))
    rows = rng.integers(0, p, size=(spans[0], 2 * n)).tolist()
    b_perp = perp(b, g)
    if inside:
        rows = combinations(rng, spans[0], b_perp.basis, p) if b_perp.dim else []
    a = Subspace.from_vectors(field, 2 * n, rows)
    matrix = pairing_matrix(a, b, g)
    pairings = list(_pairing_rows(a.rows, b.rows, p))
    assert len(pairings) == a.dim
    assert all(all(v for v in row.values()) for row in pairings)
    assert dense_rows(pairings, matrix.shape[1]) == matrix.tolist()
    assert orthogonal(a, b, g) == (not matrix.any())
    # a paired with itself: the row of u_s, yielded from the last row down,
    # holds the nonzero pairings (u_s, u_t) with t > s alone
    square = pairing_matrix(a, a, g)
    own = list(_pairing_rows(a.rows, a.rows, p))
    assert own == [
        {t: int(square[s, t]) for t in range(s + 1, a.dim) if square[s, t]}
        for s in reversed(range(a.dim))
    ]
    assert orthogonal(a, a, g) == (not square.any())


@given(
    p=small_and_largest,
    dim=st.integers(1, 16),
    seed=seeds,
    draw=st.sampled_from(["random", "parallel", "zero first", "zero second"]),
)
def test_wedge_decides_independence(p, dim, seed, draw):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, p, size=dim)
    v = rng.integers(0, p, size=dim)
    if draw == "parallel":
        v = u * int(rng.integers(0, p)) % p
    elif draw == "zero first":
        u = np.zeros(dim, dtype=np.int64)
    elif draw == "zero second":
        v = np.zeros(dim, dtype=np.int64)
    span = Subspace.from_vectors(PrimeField(p), dim, np.vstack([u, v]))
    u_row, v_row = ({c: int(a) for c, a in enumerate(x) if a} for x in (u, v))
    assert _independent(u_row, v_row, p) == (span.dim == 2)


def reference_centralizer(alg, z):
    """{v : v . e_k in z for all k}, solved for all dim coordinates of v
    on Python ints (python_int_centralizer) against z's RREF basis."""
    rows = python_int_centralizer(reference_table(alg), z.basis, alg.field.p)
    return Subspace(alg.field, alg.dim, rows)


def assert_centralizers_match_reference(alg, ideals):
    """The upper series and the centralizer above each ideal match the reference."""
    terms = [zero_space(alg), reference_centralizer(alg, zero_space(alg))]
    while terms[-1] != terms[-2]:
        terms.append(reference_centralizer(alg, terms[-1]))
    assert upper_central_series(alg).upper == tuple(terms[:-1])
    for z in ideals:
        assert _centralizer_above(alg, z) == reference_centralizer(alg, z)


@settings(max_examples=40)
@given(p=primes, n=st.integers(2, 6), seed=seeds, shape=shapes)
def test_centralizer_matches_full_coordinate_reference(p, n, seed, shape):
    # ideals: every upper- and lower-series term, and every chain term
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    alg = build_algebra(MAKERS[shape](n, field, rng))
    ideals = list(lower_central_series(alg).lower)
    if shape != "general":
        ideals += isotropic_ideal_chain(alg)
    assert_centralizers_match_reference(alg, ideals)


@pytest.mark.parametrize("n, p", [(8, 3), (10, 3), (12, 3), (8, 3037000493)])
def test_centralizer_of_minimal_algebras_matches_reference(n, p):
    # sparse algebras of dim 16 to 24, past the dims the draws above reach,
    # with long upper series and chains
    _, alg = minimal_algebra(n, PrimeField(p))
    assert_centralizers_match_reference(alg, isotropic_ideal_chain(alg))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("entry", catalog(), ids=lambda entry: entry.name)
def test_centralizer_of_catalog_algebras_matches_reference(entry, p):
    alg = build_algebra(entry.presentation(PrimeField(p)))
    assert_centralizers_match_reference(alg, isotropic_ideal_chain(alg))


@given(p=primes, n=st.integers(1, 6), seed=seeds, shape=shapes)
def test_chain_exists_iff_nilpotent(p, n, seed, shape):
    # a complete chain has a central doubled chain, and a nilpotent algebra
    # always has a candidate, so the greedy pass fails exactly off nilpotency
    field = PrimeField(p)
    alg = build_algebra(MAKERS[shape](n, field, np.random.default_rng(seed)))
    if nilpotency_class(alg) is None:
        with pytest.raises(ChainError):
            isotropic_ideal_chain(alg)
        return
    chain = isotropic_ideal_chain(alg)
    assert [s.dim for s in chain] == list(range(n + 1))
    center = upper_central_series(alg).upper[1]
    assert center.contains_subspace(chain[min(n, 2)])
    for lower, upper in zip(chain, chain[1:]):
        assert lower.contains_subspace(product_space(alg, upper, full_space(alg)))
    for s in chain:
        assert perp(s, alg.gram).contains_subspace(s)
    # the reference: the doubled chain I_0 < I_2 < ... < perp(I_2) < L, built
    # with perp, is central, as the chain's own check (i)-(iii) implies
    L = full_space(alg)
    perps = [perp(s, alg.gram) for s in chain[2:n]]
    doubled = [chain[0], *chain[2:n], *reversed(perps), L]
    for lower, upper in zip(doubled, doubled[1:]):
        assert upper.contains_subspace(lower)
        assert lower.contains_subspace(product_space(alg, upper, L))


@pytest.mark.parametrize("p", EXACT_PRIMES)
@settings(max_examples=40)
@given(n=st.integers(1, 6), seed=seeds, shape=shapes)
def test_fingerprint_and_chain_match_references(p, n, seed, shape):
    # the fingerprint's upper dims, read off the lower series by duality,
    # are those of the upper series computed apart, nilpotent or not; the
    # chain's one kernel per step gives the chain, or the ChainError, that
    # solving each C_k apart gives
    alg = build_algebra(MAKERS[shape](n, PrimeField(p), np.random.default_rng(seed)))
    invariants = fingerprint(alg)
    series = (lower_central_series(alg).lower_dims, upper_central_series(alg).upper_dims)
    assert invariants[:2] == series
    report = series_report(alg)
    assert invariants[4:] == (report.nilpotency_class, report.rank)
    try:
        expected = reference_chain(alg)
    except ChainError as error:
        with pytest.raises(ChainError, match=re.escape(str(error))):
            isotropic_ideal_chain(alg)
        return
    assert isotropic_ideal_chain(alg) == expected


@pytest.mark.parametrize("p", EXACT_PRIMES)
@settings(max_examples=40)
@given(n=st.integers(1, 8), seed=seeds, nilpotent=st.booleans())
def test_chain_of_monomial_presentations_matches_reference(p, n, seed, nilpotent):
    # a presentation with no two triples sharing two basis vectors takes the
    # coordinate loop, which gives the chain, or the ChainError, that
    # solving each C_k apart gives
    rng = np.random.default_rng(seed)
    alg = build_algebra(monomial_presentation(n, PrimeField(p), rng, nilpotent))
    assert _coordinate_targets(alg) is not None
    try:
        expected = reference_chain(alg)
    except ChainError as error:
        with pytest.raises(ChainError, match=re.escape(str(error))):
            isotropic_ideal_chain(alg)
        return
    assert isotropic_ideal_chain(alg) == expected


@pytest.mark.parametrize("p", EXACT_PRIMES)
@settings(max_examples=40)
@given(n=st.integers(1, 8), seed=seeds, nilpotent=st.booleans())
def test_series_of_monomial_presentations_match_the_exact_path(p, n, seed, nilpotent):
    # with no two triples sharing two basis vectors every series term and
    # L^2 L^2 is spanned by basis vectors, so the sets of coordinates give
    # the series report and the fingerprint that elimination gives,
    # nilpotent or not
    pres = monomial_presentation(n, PrimeField(p), np.random.default_rng(seed), nilpotent)
    alg = build_algebra(pres)
    assert _coordinate_targets(alg) is not None
    assert monomial_series(pres) == exact_series_report(alg)
    assert fingerprint(alg) == construct_module._exact_fingerprint(alg)


@pytest.mark.parametrize("p", EXACT_PRIMES)
@settings(max_examples=25)
@given(n=st.integers(1, 6), seed=seeds, shape=shapes, span=st.integers(0, 8))
def test_self_products_and_pairings_match_every_ordered_pair(p, n, seed, shape, span):
    # product_space(s, s), is_abelian and is_isotropic take each pair of
    # basis rows once, by alternation; the references take every ordered
    # pair.  The subspaces are every lower-series term, nilpotent or not, a
    # random subspace and a random subspace of a random term, so isotropic,
    # abelian and neither all occur
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    alg = build_algebra(MAKERS[shape](n, field, rng))
    dim = alg.dim
    low = lower_central_series(alg).lower
    term = low[int(rng.integers(len(low)))]
    inside = combinations(rng, span, term.basis, p) if term.dim else []
    drawn = rng.integers(0, p, size=(span, dim)).tolist()
    for s in (*low, *(Subspace.from_vectors(field, dim, rows) for rows in (drawn, inside))):
        rows = s.basis
        products = reference_products(alg, rows)
        expected, pivots = reference_rref(products, dim, p)
        assert list(map(list, product_space(alg, s, s).basis)) == expected[: len(pivots)]
        assert is_abelian(alg, s) == (not pivots)
        assert is_isotropic(alg, s) == (not any(reference_pairings(alg, rows)))


def assert_isotropy_tested_up_to_first_failure(alg):
    """The exact fingerprint tests no lower term above the smallest
    non-isotropic one, and its flags are still those of testing every term.
    It is called through its own entry, since fingerprint sends a monomial
    algebra, every catalog entry among them, to the coordinate path, which
    tests no term."""
    low = lower_central_series(alg).lower
    flags = tuple(is_isotropic(alg, t) for t in low)
    tested = []

    def counted(alg, s):
        tested.append(low.index(s))
        return is_isotropic(alg, s)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(construct_module, "is_isotropic", counted)
        assert construct_module._exact_fingerprint(alg)[3] == flags
    failures = [i for i, flag in enumerate(flags) if not flag]
    assert sorted(tested) == list(range(failures[-1] if failures else 0, len(low)))


@pytest.mark.parametrize("p", EXACT_PRIMES)
@settings(max_examples=25)
@given(n=st.integers(1, 6), seed=seeds, shape=shapes)
def test_fingerprint_tests_isotropy_up_to_the_first_failure(p, n, seed, shape):
    alg = build_algebra(MAKERS[shape](n, PrimeField(p), np.random.default_rng(seed)))
    assert_isotropy_tested_up_to_first_failure(alg)


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("entry", catalog(), ids=lambda entry: entry.name)
def test_fingerprint_of_catalog_tests_isotropy_up_to_the_first_failure(entry, p):
    # every catalog algebra has at least three terms that are not isotropic
    alg = build_algebra(entry.presentation(PrimeField(p)))
    assert construct_module._exact_fingerprint(alg)[3][:3] == (False, False, False)
    assert_isotropy_tested_up_to_first_failure(alg)


def unit_coordinates(rows):
    """The coordinate c of each unit row of rows, one nonzero entry at c."""
    supports = ([j for j, v in enumerate(row) if v] for row in rows)
    return {s[0] for s in supports if len(s) == 1}


def skips_unit_pair(u, j, units):
    """True iff _products(alg, left) leaves out u . e_j: u is a unit row at
    c, and left holds a unit row at j < c too."""
    support = [i for i, v in enumerate(u) if v]
    return len(support) == 1 and j in units and j < support[0]


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=25)
@given(
    n=st.integers(2, 6),
    seed=seeds,
    sparse=st.booleans(),
    nrows=st.integers(0, 6),
    nunits=st.integers(0, 8),
)
def test_sparse_and_dense_products_agree(p, n, seed, sparse, nrows, nunits):
    # left holds a row of p - 1, unit rows at distinct coordinates, each
    # 1 or p - 1 as the rows spanning a perp are, and random residues, in
    # a random order.  The dict rows read off the row table, on sparse and
    # dense tables alike, are the nonzero rows of the reference table's
    # contraction on Python ints, in the same (u, j) order, with each pair
    # of unit coordinates multiplied once (skips_unit_pair)
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    make = sparse_nilpotent_presentation if sparse else random_nilpotent_presentation
    alg = build_algebra(make(n, field, rng))
    dim = alg.dim
    units = np.zeros((min(nunits, dim), dim), dtype=np.int64)
    for row, c in zip(units, rng.permutation(dim)):
        row[c] = rng.choice([1, p - 1])
    rows = np.vstack([np.full(dim, p - 1), units, rng.integers(0, p, size=(nrows, dim))])
    left = rows[rng.permutation(len(rows))].tolist()
    right = rng.integers(0, p, size=(int(rng.integers(1, 4)), dim))
    table = np.array(reference_table(alg), dtype=object)
    dense = np.tensordot(np.array(left, dtype=object), table, axes=(1, 0)) % p
    assert dense.shape == (len(left), dim, dim)
    coordinates = unit_coordinates(left)
    by_basis = [
        block[j] for u, block in zip(left, dense) for j in range(dim)
        if not skips_unit_pair(u, j, coordinates)
    ]
    pairs = table[np.triu_indices(dim, 1)]
    contracted = np.stack([right.astype(object) @ block % p for block in dense])
    # left times itself, right is left: u_s . u_t for s < t alone, over the
    # nonzero rows of left, which _dict_rows keeps
    kept = [(u, block) for u, block in zip(left, dense) if any(u)]
    pairs_st = itertools.combinations(kept, 2)
    own = [np.array(v, dtype=object) @ block % p for (_, block), (v, _) in pairs_st]
    left_rows = _dict_rows(left)
    for expected, rows in (
        (by_basis, _products(alg, _dict_rows(left))),
        (pairs, _products(alg, None)),
        (contracted, _products(alg, _dict_rows(left), _dict_rows(right.tolist()))),
        (own, _products(alg, left_rows, left_rows)),
    ):
        expected = [row for row in np.array(expected, dtype=object).reshape(-1, dim).tolist() if any(row)]
        assert all(type(v) is int for row in expected for v in row)
        assert all(all(v for v in row.values()) for row in rows)
        assert dense_rows(rows, dim) == expected


@pytest.mark.parametrize("p", EXACT_PRIMES)
@settings(max_examples=10)
@given(
    n=st.integers(1, 5),
    seed=seeds,
    shape=shapes,
    nunits=st.integers(0, 10),
    ndense=st.integers(0, 3),
)
def test_unit_rows_multiply_each_pair_of_units_once(p, n, seed, shape, nunits, ndense):
    # left mixes unit rows, each 1, p - 1 or a random residue, with random
    # rows.  Its products by the basis vectors span what every product
    # u . e_j of the reference does, and there is one nonzero row for each
    # nonzero reference product but the skipped pairs (skips_unit_pair)
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    alg = build_algebra(MAKERS[shape](n, field, rng))
    dim = alg.dim
    left = []
    for c in rng.permutation(dim)[:nunits]:
        left.append([0] * dim)
        left[-1][c] = int(rng.choice([1, p - 1, int(rng.integers(1, p))]))
    left += rng.integers(0, p, size=(ndense, dim)).tolist()
    left = [left[i] for i in rng.permutation(len(left))]
    basis = [[int(j == c) for j in range(dim)] for c in range(dim)]
    products = reference_products(alg, left + basis)
    width = len(left) + dim
    by_pair = {
        (s, j): products[s * width + len(left) + j] for s in range(len(left)) for j in range(dim)
    }
    units = unit_coordinates(left)
    count = sum(
        any(by_pair[s, j]) for s, u in enumerate(left) for j in range(dim)
        if not skips_unit_pair(u, j, units)
    )
    got = dense_rows(_products(alg, _dict_rows(left)), dim)
    assert len(got) == count
    span, pivots = reference_rref(got, dim, p)
    expected, expected_pivots = reference_rref(list(by_pair.values()), dim, p)
    assert (span[: len(pivots)], pivots) == (expected[: len(expected_pivots)], expected_pivots)


def reference_row_table(alg):
    """The nonzero entries (j, k, value) of each plane i of the reference
    table, in C order."""
    return tuple(
        tuple((j, k, v) for j, row in enumerate(plane) for k, v in enumerate(row) if v)
        for plane in reference_table(alg)
    )


@pytest.mark.parametrize("p", EXACT_PRIMES)
@settings(max_examples=20)
@given(n=st.integers(1, 6), seed=seeds, shape=shapes)
def test_row_table_is_the_reference_in_c_order(p, n, seed, shape):
    # random nilpotent (dense and sparse) and kind general presentations
    alg = build_algebra(MAKERS[shape](n, PrimeField(p), np.random.default_rng(seed)))
    assert _row_table(alg) == reference_row_table(alg)


@pytest.mark.parametrize("p", EXACT_PRIMES)
@pytest.mark.parametrize("n", [4, 9, 16, 24])
def test_row_table_of_constructions_is_the_reference_in_c_order(n, p):
    alg = build_algebra(construct_minimal(n, PrimeField(p))[1])
    assert _row_table(alg) == reference_row_table(alg)


def reference_scaling_search(a, b):
    """Try all (p - 1)^n unit tuples: the first scaling taking a to b, or None."""
    source = StructureTensor.from_presentation(a)
    target = dict(StructureTensor.from_presentation(b).items())
    for scales in itertools.product(range(1, a.field.p), repeat=a.n):
        witness = ScalingWitness(a.field, scales)
        if _transform_values(source, witness) == target:
            return witness
    return None


def presentation_with_values(pres, values):
    """A presentation with pres's n and field, and these values on increasing triples."""
    items = [
        tuple(BasisVector.from_coordinate(c) for c in key) + (value,)
        for key, value in sorted(values.items())
    ]
    return Presentation.build(pres.n, pres.field, items)


# the catalog entries small enough for the (p - 1)^n enumeration
small_entries = st.sampled_from([entry for entry in catalog() if entry.n <= 5])
small_primes = st.sampled_from((2, 3, 5, 7))


@settings(max_examples=40)
@given(p=small_primes, entry=small_entries, data=st.data())
def test_scaling_solve_finds_every_rescaling(p, entry, data):
    field = PrimeField(p)
    units = st.integers(1, p - 1)
    source = entry.presentation(field, r=data.draw(units))
    scales = tuple(data.draw(st.lists(units, min_size=entry.n, max_size=entry.n)))
    tensor = StructureTensor.from_presentation(source)
    values = _transform_values(tensor, ScalingWitness(field, scales))
    target = presentation_with_values(source, values)
    witness = try_scaling_isomorphism(source, target)
    assert witness is not None
    assert verify_scaling_witness(source, target, witness)


@settings(max_examples=40)
@given(p=small_primes, entry=small_entries, data=st.data())
def test_scaling_solve_agrees_with_enumeration(p, entry, data):
    # random nonzero values on the same support: a witness exists only for
    # some of them
    field = PrimeField(p)
    source = entry.presentation(field, r=1)
    keys = sorted(StructureTensor.from_presentation(source).support())
    drawn = data.draw(st.lists(st.integers(1, p - 1), min_size=len(keys), max_size=len(keys)))
    target = presentation_with_values(source, dict(zip(keys, drawn)))
    witness = try_scaling_isomorphism(source, target)
    assert (witness is None) == (reference_scaling_search(source, target) is None)
    if witness is not None:
        assert verify_scaling_witness(source, target, witness)


@settings(max_examples=40)
@given(p=small_primes, n=st.integers(2, 4), seed=seeds, perturb=st.booleans())
def test_scaling_solve_agrees_on_random_supports(p, n, seed, perturb):
    # random nilpotent supports hold more triples than scales, so their
    # congruences are dependent: a rescaled target is consistent, and one
    # value changed afterwards can make it inconsistent
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    source = random_nilpotent_presentation(n, field, rng)
    scales = tuple(int(s) for s in rng.integers(1, p, size=n))
    tensor = StructureTensor.from_presentation(source)
    values = _transform_values(tensor, ScalingWitness(field, scales))
    if perturb and values and p > 2:
        key = sorted(values)[int(rng.integers(len(values)))]
        values[key] = values[key] % (p - 1) + 1
    target = presentation_with_values(source, values)
    witness = try_scaling_isomorphism(source, target)
    assert (witness is None) == (reference_scaling_search(source, target) is None)
    if witness is not None:
        assert verify_scaling_witness(source, target, witness)


# the orderings of three entries that the cyclic identity
# (u v, w) = (v w, u) = (w u, v) leaves unchanged; the other three negate
CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def reference_canonical_triples(pres):
    """Each triple in the one of its six orderings with increasing coordinates."""
    p = pres.field.p
    out = []
    for t in pres.triples:
        for order in itertools.permutations(range(3)):
            a, b, c = (t.vectors[i] for i in order)
            if a.coordinate < b.coordinate < c.coordinate:
                value = t.value if order in CYCLIC else -t.value % p
                out.append(PresentationTriple(a, b, c, value))
    return tuple(sorted(out, key=lambda t: [(v.kind, v.index) for v in t.vectors]))


@st.composite
def general_presentations(draw):
    """Any mix of x and y entries, each triple's entries in a random order."""
    p = draw(primes)
    n = draw(st.integers(2, 6))
    basis = [BasisVector(kind, i) for i in range(1, n + 1) for kind in "xy"]
    supports = draw(
        st.lists(st.frozensets(st.sampled_from(basis), min_size=3, max_size=3), max_size=12,
                 unique=True)
    )
    triples = tuple(
        PresentationTriple(*draw(st.permutations(sorted(support))), draw(st.integers(1, p - 1)))
        for support in supports
    )
    return Presentation(n, PrimeField(p), triples)


@settings(max_examples=80)
@given(pres=general_presentations())
def test_orientation_of_general_presentations(pres):
    assert pres.canonical_triples() == reference_canonical_triples(pres)
    tensor = StructureTensor.from_presentation(pres)
    for t in pres.triples:
        assert tensor.value_at(*(v.coordinate for v in t.vectors)) == t.value
    text = emit_presentation(pres)
    again = parse_presentation(text)
    assert StructureTensor.from_presentation(again) == tensor
    assert emit_presentation(again) == text


def test_pair_shells_and_injection_match_the_references_up_to_300():
    # the gaps n = 13 and 69..81 are among these, where both return None
    for n in range(4, 301):
        m, gens, cover = outer_injection_inputs(n)
        for r in range(1, m + 1):
            assert list(construct_module._pair_shell(n, r)) == reference_pair_shell(n, r), (n, r)
        chosen = construct_module._injection(gens, construct_module._pair_shell(n, m), cover)
        assert chosen == reference_injection(gens, reference_pair_shell(n, m), cover), n


# pairs (i, j), i < j, as the shells hold them
index_pairs = st.lists(st.integers(1, 10), min_size=2, max_size=2, unique=True).map(
    lambda q: tuple(sorted(q))
)


@settings(max_examples=300)
@given(
    count=st.integers(0, 8),
    pairs=st.lists(index_pairs, max_size=30),
    cover=st.sets(st.integers(1, 10), max_size=10),
)
def test_injection_cursor_matches_the_rescanning_reference(count, pairs, cover):
    gens = [("x", k) for k in range(count, 0, -1)]
    assert construct_module._injection(gens, iter(pairs), cover) == reference_injection(
        gens, pairs, cover
    )


small_vectors = st.builds(BasisVector, st.sampled_from("xy"), st.integers(1, 4))


@settings(max_examples=300)
@given(triples=st.lists(st.tuples(small_vectors, small_vectors, small_vectors), max_size=8))
@example(triples=[(BasisVector("x", 1), BasisVector("y", 2), BasisVector("y", 3)),
                  (BasisVector("y", 1), BasisVector("y", 2), BasisVector("y", 3))])
@example(triples=[(BasisVector("x", 1), BasisVector("y", 2), BasisVector("y", 3)),
                  (BasisVector("y", 1), BasisVector("y", 2), BasisVector("y", 4))])
def test_no_common_pair_matches_the_pairwise_reference(triples):
    # a set of eight triples over eight basis vectors shares a pair more
    # often than not, so both answers are drawn; the examples pin one each
    tset = TripleSet(4, 2, "ONE", tuple(triples))
    assert tset.property_report()["no_common_pair"] == reference_no_common_pair(triples)


def drawn_triple_sets(n):
    """Lists of up to 12 triples over indices 1..n: half of nilpotent shape
    (u, y_j, y_k) with u's index below j < k, half any three vectors."""
    index = st.integers(1, n)
    vector = st.builds(BasisVector, st.sampled_from("xy"), index)
    shaped = st.tuples(st.sampled_from("xy"), st.sets(index, min_size=3, max_size=3)).map(
        lambda d: (BasisVector(d[0], min(d[1])), *(BasisVector("y", i) for i in sorted(d[1])[1:]))
    )
    return st.lists(st.one_of(shaped, st.tuples(vector, vector, vector)), max_size=12)


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(4, 12), case=st.sampled_from(["ONE", "TWO"]))
def test_property_report_matches_the_reference_on_drawn_sets(data, n, case):
    triples = data.draw(drawn_triple_sets(n))
    tset = TripleSet(n, predict_min_class(n).m, case, tuple(triples))
    assert tset.property_report() == reference_property_report(tset)


def perturbed(tset):
    """tset, the other case label on its triples, and for each triple in
    turn: the set without it, with one of its indices moved by one, and
    with the kind of its first vector swapped."""
    other = "TWO" if tset.case == "ONE" else "ONE"
    yield tset
    yield TripleSet(tset.n, tset.m, other, tset.triples)
    for t, triple in enumerate(tset.triples):
        variants = [()]
        for pos, v in enumerate(triple):
            for index in (v.index - 1, v.index + 1):
                if index >= 1:
                    moved = list(triple)
                    moved[pos] = BasisVector(v.kind, index)
                    variants.append((tuple(moved),))
        a, b, c = triple
        variants.append(((BasisVector("y" if a.kind == "x" else "x", a.index), b, c),))
        for v in variants:
            yield TripleSet(tset.n, tset.m, tset.case, tset.triples[:t] + v + tset.triples[t + 1:])


@pytest.mark.parametrize("n", [8, 9, 40, 41])
def test_property_report_matches_the_reference_on_perturbed_constructions(n):
    # n = 8 and 40 are case ONE, n = 9 and 41 case TWO; every property
    # comes out both true and false among the perturbed sets
    tset, _ = minimal_algebra(n, PrimeField(3))
    seen = set()
    for variant in perturbed(tset):
        report = variant.property_report()
        assert report == reference_property_report(variant), variant
        seen.update(report.items())
    assert seen == set(itertools.product(report, (True, False)))


def test_w_completion_matches_the_pairwise_reference_in_case_two():
    for n in range(41, 69):
        m, gens, cover = outer_injection_inputs(n)
        assert predict_min_class(n).case == "TWO"
        raw = construct_module._base_assignment(n, m) + construct_module._injection(
            gens, construct_module._pair_shell(n, m), cover
        )
        existing = [{i, j} for _, i, j in raw]
        lows = range(1, n - omega(m) + 1)
        completion = construct_module._w_completion(existing, lows, n)
        assert completion is not None
        assert completion == reference_w_completion(existing, lows, n), n


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(3, 9))
def test_w_completion_matches_the_pairwise_reference_on_drawn_sets(data, n):
    # index sets of two and three entries, as pairs and all-y triples; here
    # the completion's own triples also meet each other, which none of the
    # case-TWO constructions n = 41..68 tests
    indices = st.integers(1, n)
    existing = data.draw(st.lists(st.sets(indices, min_size=2, max_size=3), max_size=6))
    lows = sorted(data.draw(st.sets(indices, max_size=n)))
    assert construct_module._w_completion(existing, lows, n) == reference_w_completion(
        existing, lows, n
    )
