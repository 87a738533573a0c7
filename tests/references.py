"""Independent Python-int references that several test modules share."""

from itertools import combinations, permutations

# 268435399 is the largest prime below 2**28, 2147483647 is 2**31 - 1, and
# 3037000493 is the largest prime with p * (p - 1) < 2**63
EXACT_PRIMES = [2, 3, 5, 7, 268435399, 2147483647, 3037000493]


def reference_table(alg):
    """table[i][j][k]: coordinate k of e_i . e_j, as Python ints.

    The contraction of the tensor with the form.  u = sum_k c_k e_k has
    (u, e_l) = sum_k c_k G[k, l], so (e_i e_j, e_l) = gamma(i, j, l) gives
    c = gamma(i, j, .) G^-1, and G^-1 = G^T for the standard form.  gamma
    is alternating, so each stored triple with value v gives gamma = sign * v
    at its six permutations, the sign counted here from the inversions; each
    is contracted with the nonzero entries of its column of G.  Reads the
    tensor's stored triples and the Gram matrix alone, never the algebra's
    row table.
    """
    p, dim = alg.field.p, alg.dim
    form_cols = [[(k, g) for k, g in enumerate(col) if g] for col in alg.gram.data.T.tolist()]
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for triple, v in alg.tensor.items():
        for order in permutations(range(3)):
            sign = (-1) ** sum(a > b for a, b in combinations(order, 2))
            i, j, l = (triple[o] for o in order)
            for k, g in form_cols[l]:
                table[i][j][k] = (table[i][j][k] + sign * v * g) % p
    return table
