"""Exact linear algebra: field axioms, RREF, subspaces, the form."""

import numpy as np
import pytest

from saalib import linalg
from saalib.linalg import (
    GramMatrix,
    Matrix,
    PrimeField,
    Subspace,
    is_prime,
    nullspace,
    perp,
    rref,
    solve_against_form,
    subspace_intersect,
    subspace_sum,
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
def test_field_axioms_exhaustive(p):
    field = PrimeField(p)
    elems = [field.element(v) for v in range(p)]
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p", PRIMES)
def test_inverses_by_extended_euclid(p):
    field = PrimeField(p)
    for a in field.units():
        assert a * field.inv(a) % p == 1
        assert field.element(a) * field.element(a).inverse() == field.one()
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_rref_identity_and_zero():
    field = PrimeField(3)
    eye = Matrix.identity(field, 4)
    assert rref(eye) == eye
    z = Matrix.zeros(field, 3, 5)
    assert rref(z) == z


def test_rref_hand_example_gf3():
    # row2 = 2 * row1 over GF(3), so the reduction leaves a single pivot row
    field = PrimeField(3)
    m = Matrix.from_rows(field, [[2, 1], [1, 2]])
    assert rref(m) == Matrix.from_rows(field, [[1, 2], [0, 0]])


@pytest.mark.parametrize("p", PRIMES)
def test_rref_idempotent_and_row_space_preserving(p):
    field = PrimeField(p)
    rng = np.random.default_rng(1001 + p)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = Matrix(field, rng.integers(0, p, size=(rows, cols)))
        r = rref(m)
        assert rref(r) == r
        before = Subspace.from_vectors(field, cols, m.data)
        after = Subspace.from_vectors(field, cols, r.data)
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


def test_dot_mod_refuses_primes_above_exact_bound():
    ones = np.ones((1, 2), dtype=np.int64)
    assert linalg._dot_mod(ones, ones.T, 3037000493).tolist() == [[2]]
    with pytest.raises(ValueError):
        linalg._dot_mod(ones, ones.T, 3037000507)


def test_nullspace_annihilates():
    field = PrimeField(5)
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = Matrix(field, rng.integers(0, 5, size=(4, 6)))
        ker = nullspace(m)
        assert not (m.data @ ker.data.T % 5).any()
        assert ker.rows == 6 - Subspace.from_vectors(field, 6, m.data).dim


def test_subspace_equality_is_canonical():
    field = PrimeField(3)
    a = Subspace.from_vectors(field, 4, [[1, 1, 0, 0], [0, 1, 1, 0]])
    b = Subspace.from_vectors(field, 4, [[1, 2, 1, 0], [0, 2, 2, 0]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace.from_vectors(field, 4, [[1, 0, 0, 0]])


def test_subspace_sum_examples():
    field = PrimeField(3)
    full = Subspace.full(field, 4)
    zero = Subspace.zero(field, 4)
    assert subspace_sum(full, zero) == full
    x1 = Subspace.from_vectors(field, 4, [[1, 0, 0, 0]])
    y1 = Subspace.from_vectors(field, 4, [[0, 1, 0, 0]])
    assert subspace_sum(x1, y1).dim == 2
    assert subspace_sum(x1, x1) == x1


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
        subspace_sum(a, b)
    with pytest.raises(ValueError):
        subspace_intersect(a, b)
    with pytest.raises(ValueError):
        perp(b, GramMatrix(field, 2))


@pytest.mark.parametrize("p", PRIMES)
def test_grassmann_identity(p):
    field = PrimeField(p)
    rng = np.random.default_rng(500 + p)
    for _ in range(50):
        ambient = int(rng.integers(1, 9))
        a = random_subspace(field, ambient, rng)
        b = random_subspace(field, ambient, rng)
        s = subspace_sum(a, b)
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
    assert g.pairing(x1, y1) == field.one()
    assert g.pairing(y1, x1) == -field.one()
    assert g.pairing(x1, x2) == field.zero()
    assert np.array_equal(g.data.T % 7, -g.data % 7)
    assert not np.diagonal(g.data).any()


def test_solve_against_form_examples():
    field = PrimeField(3)
    g = GramMatrix(field, 2)
    assert not solve_against_form(g, [0, 0, 0, 0]).any()
    # pairing 1 against y_1 only -> x_1
    assert solve_against_form(g, [0, 1, 0, 0]).tolist() == [1, 0, 0, 0]
    # pairing 1 against x_1 only -> -y_1
    assert solve_against_form(g, [1, 0, 0, 0]).tolist() == [0, 2, 0, 0]


@pytest.mark.parametrize("p", PRIMES)
def test_solve_against_form_roundtrip(p):
    field = PrimeField(p)
    g = GramMatrix(field, 3)
    rng = np.random.default_rng(90 + p)
    basis = np.eye(6, dtype=np.int64)
    for _ in range(25):
        rhs = rng.integers(0, p, size=6)
        v = solve_against_form(g, rhs)
        for k in range(6):
            assert g.pairing(v, basis[k]).residue == rhs[k] % p


def test_matrix_entry_and_validation():
    field = PrimeField(5)
    m = Matrix.from_rows(field, [[7, -1], [2, 3]])
    assert m.entry(0, 0).residue == 2
    assert m.entry(0, 1).residue == 4
    with pytest.raises(ValueError):
        Matrix(field, np.zeros(3, dtype=np.int64))
