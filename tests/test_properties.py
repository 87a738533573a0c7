"""Property tests of the exact kernels against pure Python-int references."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saalib.algebra import (
    Presentation,
    build_algebra,
    full_space,
    lower_central_series,
    product_space,
)
from saalib.checks import random_nilpotent_presentation
from saalib.linalg import PrimeField, Subspace, _rref_array

# small primes, the largest prime below 2**28, 2**31 - 1, and the largest
# prime with p * (p - 1) < 2**63
PRIMES = (2, 3, 7, 268435399, 2147483647, 3037000493)

primes = st.sampled_from(PRIMES)
seeds = st.integers(0, 2**32 - 1)


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


def banded_rows(p, ncols, seed, bands):
    """Tall rows in bands of nested spans: band (m, k) has m rows in span of k generators.

    Bands of growing rank leave rows that the first blocks' bases cannot
    clear, so the blocked kernel needs several residual rounds.
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
    assert arr.tolist() == expected


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
    basis_rows = s.basis.data.tolist()
    assert s.contains(candidates[0]) == reference_contains(
        basis_rows, candidates[:1], ambient, p
    )
    t = Subspace.from_vectors(field, ambient, candidates)
    assert s.contains_subspace(t) == reference_contains(
        basis_rows, t.basis.data.tolist(), ambient, p
    )


def random_presentation(n, field, rng):
    """Random values on a random set of coordinate triples, nilpotent or not."""
    dim = 2 * n
    seen = set()
    items = []
    for _ in range(int(rng.integers(0, 3 * n))):
        coords = tuple(sorted(int(c) for c in rng.choice(dim, size=3, replace=False)))
        if coords in seen:
            continue
        seen.add(coords)
        tokens = [("y" if c % 2 else "x") + str(c // 2 + 1) for c in coords]
        items.append((*tokens, int(rng.integers(1, field.p))))
    return Presentation.build(n, field, items)


def reference_lower_series(alg):
    """L^{i+1} = product_space(L^i, L) until a term repeats."""
    terms = [full_space(alg)]
    while True:
        nxt = product_space(alg, terms[-1], full_space(alg))
        if nxt == terms[-1]:
            return tuple(terms)
        terms.append(nxt)


@given(p=primes, n=st.integers(2, 6), seed=seeds, nilpotent=st.booleans())
def test_lower_series_matches_product_space_recurrence(p, n, seed, nilpotent):
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    make = random_nilpotent_presentation if nilpotent else random_presentation
    alg = build_algebra(make(n, field, rng))
    terms = reference_lower_series(alg)
    low = lower_central_series(alg)
    assert low.lower == terms
    assert low.nilpotency_class == (len(terms) - 1 if terms[-1].is_zero() else None)
