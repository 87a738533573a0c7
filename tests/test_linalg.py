"""Exact linear algebra: the field, RREF, subspaces, the form."""

import dataclasses

import numpy as np
import pytest

from saalib import linalg
from saalib.linalg import (
    GramMatrix,
    PrimeField,
    Subspace,
    _rref_array,
    is_prime,
    nullspace,
    orthogonal,
    perp,
    subspace_intersect,
)

PRIMES = (2, 3, 5, 7)


def random_subspace(field, ambient, rng):
    k = int(rng.integers(0, ambient + 1))
    return Subspace.from_vectors(field, ambient, rng.integers(0, field.p, size=(k, ambient)))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


@pytest.mark.parametrize("p", PRIMES)
def test_inverses_by_extended_euclid(p):
    field = PrimeField(p)
    for a in range(1, p):
        assert a * field.inv(a) % p == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_inv_refuses_non_integers():
    # inv(1.5) was inv(1); integers of any size and numpy dtype are read
    field = PrimeField(3)
    for value in (1.5, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="expected an integer"):
            field.inv(value)
    assert field.inv(np.uint64(2**63)) == field.inv(2) == 2
    assert field.inv(2**70 + 1) == pow(2**70 + 1, -1, 3)


def test_reader_gives_exact_residues_or_refuses():
    # 2**63 mod 3 = 2: a uint64 entry read through int64 gave 1, and the
    # kernel of [2**63, 1] came out as (2, 1), which is no kernel vector
    field = PrimeField(3)
    assert field.reduce(np.array([2**63], dtype=np.uint64)) == (2,)
    assert field.reduce(np.array([[2**64 - 1, -(2**63)]], dtype=object)) == ((0, 1),)
    ker = nullspace(np.array([[2**63, 1]], dtype=np.uint64), 3)
    assert ker == ((1, 1),)
    assert Subspace.from_vectors(field, 2, ker) == Subspace.from_vectors(field, 2, [[1, 1]])
    # past uint64 the array boundary raised OverflowError
    assert nullspace([[2**64, 1]], 3) == ((2, 1),)
    assert nullspace([], 3, 2) == ((1, 0), (0, 1))
    # floats were truncated, 1.5 to 1 and 1.7 to 1
    g = GramMatrix(field, 1)
    refused = [
        lambda: Subspace(field, 2, [[1.5, 0]]),
        lambda: Subspace.from_vectors(field, 2, [[1, np.float64(0.0)]]),
        lambda: g.pairing([1.7, 0], [0, 1]),
        lambda: Subspace.full(field, 2).contains(["1", "0"]),
        lambda: nullspace([[1.0, 2]], 3),
        lambda: field.vector([1, 2.5]),
        lambda: field.reduce([[1, 2], [3, 0.5]]),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="expected an integer"):
            call()
    # ragged rows, wrong widths and shapes that are no matrix
    for call, match in (
        (lambda: Subspace.from_vectors(field, 2, [[1, 0], [1]]), "width 2"),
        (lambda: Subspace(field, 2, [[1, 0, 0]]), "width 2"),
        (lambda: nullspace([[1, 0], [1, 0, 0]], 3), "width 2"),
        (lambda: _rref_array([[1], [1, 0]], 3), "width 1"),
        (lambda: nullspace([], 3), "needs a width"),
        (lambda: g.pairing([1, 0, 0], [0, 1]), "width 2"),
        (lambda: Subspace.from_vectors(field, 2, [1, 0]), "two-dimensional"),
        (lambda: Subspace.from_vectors(field, 2, "10"), "expected an integer"),
        (lambda: field.reduce(5), "expected a vector or a matrix"),
    ):
        with pytest.raises(ValueError, match=match):
            call()


def test_rref_identity_and_zero():
    eye = np.eye(4, dtype=np.int64)
    arr, pivots = _rref_array(eye, 3)
    assert arr == tuple(map(tuple, eye.tolist())) and pivots == [0, 1, 2, 3]
    z = np.zeros((3, 5), dtype=np.int64)
    arr, pivots = _rref_array(z, 3)
    assert arr == ((0,) * 5,) * 3 and pivots == []


def test_rref_hand_example_gf3():
    # row2 = 2 * row1 over GF(3), so the reduction leaves a single pivot row
    arr, pivots = _rref_array(np.array([[2, 1], [1, 2]]), 3)
    assert arr == ((1, 2), (0, 0)) and pivots == [0]


@pytest.mark.parametrize("p", PRIMES)
def test_rref_idempotent_and_row_space_preserving(p):
    field = PrimeField(p)
    rng = np.random.default_rng(1001 + p)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = rng.integers(0, p, size=(rows, cols))
        r, pivots = _rref_array(m, p)
        again, again_pivots = _rref_array(r, p)
        assert again == r and again_pivots == pivots
        before = Subspace.from_vectors(field, cols, m)
        after = Subspace.from_vectors(field, cols, r)
        assert before == after


def test_rref_builds_no_field(monkeypatch):
    field = PrimeField(268435399)
    rows = np.random.default_rng(5).integers(0, field.p, size=(300, 12))
    calls = []
    monkeypatch.setattr(linalg, "is_prime", lambda n: calls.append(n) or True)
    linalg._rref_array(rows, field.p)
    Subspace.from_vectors(field, 12, rows)
    assert calls == []


def test_prime_field_refuses_primes_above_int64_bound(monkeypatch):
    assert PrimeField(3037000493).p == 3037000493
    tested = []
    monkeypatch.setattr(linalg, "is_prime", lambda n: tested.append(n) or True)
    for p in (3037000507, 10**18 + 3):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)
    # refused before trial division, which would run for hours at 10**18 + 3
    assert tested == []


def test_nullspace_annihilates():
    field = PrimeField(5)
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = rng.integers(0, 5, size=(4, 6))
        ker = nullspace(m, 5)
        assert not (m @ np.array(ker, dtype=np.int64).reshape(-1, 6).T % 5).any()
        assert len(ker) == 6 - Subspace.from_vectors(field, 6, m).dim


def test_subspace_equality_is_canonical():
    field = PrimeField(3)
    a = Subspace.from_vectors(field, 4, [[1, 1, 0, 0], [0, 1, 1, 0]])
    b = Subspace.from_vectors(field, 4, [[1, 2, 1, 0], [0, 2, 2, 0]])
    # a third spanning set, with a redundant row and a zero row
    c = Subspace.from_vectors(field, 4, [[0, 1, 1, 0], [1, 0, 2, 0], [1, 1, 0, 0], [0, 0, 0, 0]])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert a != Subspace.from_vectors(field, 4, [[1, 0, 0, 0]])


def test_subspace_intersect_examples():
    field = PrimeField(3)
    full = Subspace.full(field, 4)
    a = Subspace.from_vectors(field, 4, [[1, 0, 2, 0], [0, 1, 1, 0]])
    assert subspace_intersect(a, full) == a
    assert subspace_intersect(a, a) == a
    x1 = Subspace.from_vectors(field, 4, [[1, 0, 0, 0]])
    y1 = Subspace.from_vectors(field, 4, [[0, 1, 0, 0]])
    assert subspace_intersect(x1, y1).is_zero()


def test_ambient_mismatch_errors():
    field = PrimeField(3)
    a = Subspace.full(field, 4)
    b = Subspace.full(field, 6)
    with pytest.raises(ValueError):
        subspace_intersect(a, b)
    with pytest.raises(ValueError):
        perp(b, GramMatrix(field, 2))
    with pytest.raises(ValueError):
        orthogonal(a, b, GramMatrix(field, 2))
    with pytest.raises(ValueError):
        orthogonal(a, a, GramMatrix(PrimeField(5), 2))


@pytest.mark.parametrize("p", [*PRIMES, 2147483647, 3037000493])
def test_grassmann_identity(p):
    field = PrimeField(p)
    rng = np.random.default_rng(500 + p)
    for _ in range(50):
        ambient = int(rng.integers(1, 9))
        a = random_subspace(field, ambient, rng)
        b = random_subspace(field, ambient, rng)
        s = Subspace.from_vectors(field, ambient, a.basis + b.basis)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert a.contains_subspace(i) and b.contains_subspace(i)
        assert s.contains_subspace(a) and s.contains_subspace(b)


def test_perp_examples():
    field = PrimeField(3)
    g = GramMatrix(field, 2)
    assert perp(Subspace.full(field, 4), g).is_zero()
    # only y_1 pairs nontrivially with x_1
    x1 = Subspace.from_vectors(field, 4, [[1, 0, 0, 0]])
    expected = Subspace.from_vectors(field, 4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert perp(x1, g) == expected
    y1 = Subspace.from_vectors(field, 4, [[0, 1, 0, 0]])
    assert orthogonal(x1, x1, g) and orthogonal(x1, expected, g)
    assert not orthogonal(x1, y1, g) and not orthogonal(y1, x1, g)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", range(2, 9))
def test_perp_dimension_and_involution(p, n):
    field = PrimeField(p)
    g = GramMatrix(field, n)
    rng = np.random.default_rng(n * 1000 + p)
    for _ in range(200):
        s = random_subspace(field, 2 * n, rng)
        sp = perp(s, g)
        assert s.dim + sp.dim == 2 * n
        assert perp(sp, g) == s


def test_gram_matrix_standard_pairings():
    field = PrimeField(7)
    g = GramMatrix(field, 3)
    x1 = [1, 0, 0, 0, 0, 0]
    y1 = [0, 1, 0, 0, 0, 0]
    x2 = [0, 0, 1, 0, 0, 0]
    assert g.pairing(x1, y1) == 1
    assert g.pairing(y1, x1) == 6
    assert g.pairing(x1, x2) == 0
    data = np.array(g.data)
    assert np.array_equal(data.T % 7, -data % 7)
    assert not np.diagonal(data).any()


def test_gram_matrix_is_field_and_n_alone():
    # the form holds no array: data is built from the definition on each
    # read, and every attribute refuses writes, so no form can disagree with
    # the standard one that perp, orthogonal and pairing apply
    field = PrimeField(7)
    g = GramMatrix(field, 3)
    assert [f.name for f in dataclasses.fields(g)] == ["field", "n"]
    first = g.data
    assert g.data is not first and g.data == first
    assert type(first) is tuple and all(type(v) is int for row in first for v in row)
    for name, value in (("data", ((0,) * 6,) * 6), ("n", 4), ("field", PrimeField(5))):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert (g.field, g.n, g.dim) == (field, 3, 6)
    assert g == GramMatrix(PrimeField(7), 3) and hash(g) == hash(GramMatrix(PrimeField(7), 3))
    assert g != GramMatrix(field, 2) and g != GramMatrix(PrimeField(5), 3) and g != (field, 3)
    assert len({g, GramMatrix(field, 3), GramMatrix(field, 2)}) == 2
    assert repr(g) == "GramMatrix(n=3, GF(7))"
    with pytest.raises(ValueError, match="at least 1"):
        GramMatrix(field, 0)


def test_basis_is_built_once_read_only_from_the_rows():
    # a subspace held as dict rows builds its basis, a tuple of rows of
    # Python ints, on first read and holds it; the subspace itself refuses
    # writes
    field = PrimeField(5)
    s = Subspace.from_vectors(field, 4, [[1, 2, 0, 3], [2, 4, 1, 1]])
    g = GramMatrix(field, 2)
    for space in (s, perp(s, g), Subspace.zero(field, 3), Subspace.full(field, 3)):
        first = space.basis
        assert space.basis is first
        assert all(type(v) is int for row in first for v in row)
        assert first == tuple(
            tuple(row.get(j, 0) for j in range(space.ambient_dim)) for row in space.rows
        )
        with pytest.raises(TypeError):
            first[0:1] = 0
    assert s.rows == ({0: 1, 1: 2, 3: 3}, {2: 1}) and s.pivots == (0, 2)
    with pytest.raises(AttributeError):
        s.rows = ()


def test_pivot_rows_are_held_and_basis_rows_need_no_residual(monkeypatch):
    # the {pivot: row} map is built on first use and held; a row equal to
    # the basis row at its first column is spanned without a residual, so
    # a subspace contains itself with no row combined, and any other row is
    # still reduced
    field = PrimeField(5)
    s = Subspace.from_vectors(field, 4, [[1, 2, 0, 3], [2, 4, 1, 1]])
    by_pivot = s._by_pivot
    assert s._by_pivot is by_pivot and by_pivot == dict(zip(s.pivots, s.rows))
    combined = []
    combine = linalg._combine
    monkeypatch.setattr(linalg, "_combine", lambda terms: combined.append(1) or combine(terms))
    assert s.contains_subspace(s) and s._spans([dict(row) for row in s.rows])
    assert not combined
    assert s.contains([1, 2, 1, 3]) and not s.contains([0, 1, 0, 0])
    assert len(combined) == 2


def test_subspace_from_rows_refuses_entries_out_of_range():
    # dict rows are not reduced on the way in, so an entry that is no residue
    # mod p, or a column outside the ambient space, is refused
    field = PrimeField(5)
    for rows, match in (
        ([{0: 1, 2: 5}], "residues mod 5"),
        ([{0: 1, 2: 0}], "residues mod 5"),
        ([{0: 1, 2: -1}], "residues mod 5"),
        ([{0: 1, 3: 2}], r"columns must lie in \[0, 3\)"),
        ([{-1: 1}], r"columns must lie in \[0, 3\)"),
    ):
        with pytest.raises(ValueError, match=match):
            Subspace._from_rows(field, 3, rows)


def test_subspace_basis_validation():
    field = PrimeField(5)
    # entries are held as a tuple copy of Python-int residues reduced mod p
    rows = np.array([[1, -1]])
    s = Subspace(field, 2, rows)
    assert s.basis == ((1, 4),) and type(s.basis[0][0]) is int
    rows[0, 0] = 3
    assert s.basis[0][0] == 1
    for space in (s, Subspace.from_vectors(field, 2, rows), Subspace.zero(field, 2)):
        with pytest.raises(TypeError):
            space.basis[0:1] = 0
    with pytest.raises(ValueError, match="two-dimensional"):
        Subspace(field, 3, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="width 3"):
        Subspace(field, 3, np.zeros((1, 4), dtype=np.int64))
    # a basis passed directly must be the RREF: a pivot of 2, a pivot column
    # not cleared, pivots out of order and a zero row, last or first, are
    # each refused
    for rows in (
        [[2, 0]],
        [[1, 1], [0, 1]],
        [[0, 1], [1, 0]],
        [[1, 0], [0, 0]],
        [[0, 0, 0], [0, 1, 1], [0, 0, 1]],
    ):
        with pytest.raises(ValueError, match="reduced row echelon form"):
            Subspace(PrimeField(3), len(rows[0]), rows)
    assert Subspace.from_vectors(PrimeField(3), 2, [[2, 0]]).basis == ((1, 0),)
