"""Independent Python-int references that several test modules share."""

# 268435399 is the largest prime below 2**28, 2147483647 is 2**31 - 1, and
# 3037000493 is the largest prime with p * (p - 1) < 2**63
EXACT_PRIMES = [2, 3, 5, 7, 268435399, 2147483647, 3037000493]


def reference_table(alg):
    """table[i][j][k]: coordinate k of e_i . e_j, as Python ints.

    The contraction of the tensor with the form.  u = sum_k c_k e_k has
    (u, e_l) = sum_k c_k G[k, l], so (e_i e_j, e_l) = gamma(i, j, l) gives
    c = gamma(i, j, .) G^-1, and G^-1 = G^T for the standard form.  Reads
    tensor.value_at and the Gram matrix alone, never the algebra's row
    table; the sum skips only the zero entries of G.
    """
    p, dim = alg.field.p, alg.dim
    value = alg.tensor.value_at
    form_rows = [[(l, g) for l, g in enumerate(row) if g] for row in alg.gram.data.tolist()]
    return [
        [
            [sum(value(i, j, l) * g for l, g in form_rows[k]) % p for k in range(dim)]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
