"""Independent references, and inputs, that several test modules share."""

from itertools import chain, combinations, compress, permutations

from saalib.algebra import (
    BasisVector,
    ChainError,
    SeriesReport,
    _center,
    _centralizer_above,
    _exact_center,
    _exact_lower,
    _exact_upper,
    _priority_permutation,
    zero_space,
)
from saalib.construct import omega, predict_min_class
from saalib.linalg import Subspace, _combine, _free_kernel, _pairing_rows, _reduced, _rref_rows

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
    form_cols = [[(k, g) for k, g in enumerate(col) if g] for col in zip(*alg.gram.data)]
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for triple, v in alg.tensor.items():
        for order in permutations(range(3)):
            sign = (-1) ** sum(a > b for a, b in combinations(order, 2))
            i, j, l = (triple[o] for o in order)
            for k, g in form_cols[l]:
                table[i][j][k] = (table[i][j][k] + sign * v * g) % p
    return table


def reference_products(alg, rows):
    """u . v for every ordered pair (u, v) of the vectors rows, u . u and
    v . u included, as lists of Python ints: sum u_i v_j table[i][j] over
    reference_table, so nothing of the alternation the library's products
    rely on is assumed."""
    p, dim = alg.field.p, alg.dim
    table = reference_table(alg)
    out = []
    for u in rows:
        left = [
            [sum(u[i] * table[i][j][k] for i in range(dim)) for k in range(dim)]
            for j in range(dim)
        ]
        for v in rows:
            out.append([sum(v[j] * left[j][k] for j in range(dim)) % p for k in range(dim)])
    return out


def reference_pairings(alg, rows):
    """(u, v) = u G v^T for every ordered pair (u, v) of the vectors rows,
    (u, u) and (v, u) included, on Python ints over the dense matrix
    GramMatrix.data, not the library's relabelling by the form."""
    p, gram = alg.field.p, alg.gram.data
    dim = len(gram)
    out = []
    for u in rows:
        ug = [sum(u[a] * gram[a][b] for a in range(dim)) for b in range(dim)]
        out += [sum(x * y for x, y in zip(ug, v)) % p for v in rows]
    return out


def reference_chain(alg):
    """The greedy isotropic ideal chain, each step solved for C apart.

    C_k is the centre for k < 2 and the centralizer above I_k after that
    (_exact_center, _centralizer_above), each a subspace of its own and
    eliminated, so the coordinate chain of a monomial algebra is checked
    against no coordinate set.  The
    candidates are the kernel of the pairings of I_k's basis with C_k's,
    mapped back through C_k's basis, then reduced to RREF in the priority
    order x_n, ..., x_1, y_n, ..., y_1: three eliminations per step.  The
    first candidate not in I_k extends it; when there is none, ChainError
    carries isotropic_ideal_chain's message.  The checks the chain runs
    after its loop are left out.
    """
    n, p, dim = alg.n, alg.field.p, alg.dim
    perm = _priority_permutation(n)
    position = {c: t for t, c in enumerate(perm)}
    chain = [zero_space(alg)]
    for k in range(n):
        current = chain[k]
        above = _exact_center(alg) if k < 2 else _centralizer_above(alg, current)
        pairings = _rref_rows(_pairing_rows(current.rows, above.rows, p), p)
        w = [
            _reduced(_combine([(c, above.rows[t]) for t, c in row.items()]), p)
            for row in _free_kernel(pairings, range(above.dim), p)
        ]
        ordered = _rref_rows([{position[c]: v for c, v in row.items()} for row in w], p)
        candidates = [{perm[t]: v for t, v in row.items()} for row in ordered.values()]
        row = next(compress(candidates, current._residuals(candidates)), None)
        if row is None:
            raise ChainError(
                f"no isotropic ideal chain found for n={n} over {alg.field!r}: "
                f"no candidate extends I_{k}"
            )
        basis = _rref_rows([*map(dict, current.rows), row], p)
        chain.append(Subspace._from_rows(alg.field, dim, basis.values()))
    return chain


def exact_series_report(alg):
    """The series report of alg off the elimination loops alone
    (_exact_lower, _exact_upper), which the held series of a monomial
    algebra do not read: its rank is dim L - dim L^2 where the lower series
    reaches 0, checked against the exact centre (_exact_center), which the
    held centre (_center) must equal."""
    low, up = _exact_lower(alg), _exact_upper(alg)
    assert _center(alg) == _exact_center(alg)
    rank = None
    if low.nilpotency_class is not None:
        rank = alg.dim - low.lower_term(2).dim
        assert _exact_center(alg).dim == rank
    return SeriesReport(low.lower, up.upper, low.nilpotency_class, rank)


def outer_injection_inputs(n):
    """The outer level m, the low generators and the outer block to cover,
    as minimal_algebra hands them to _injection."""
    pred = predict_min_class(n)
    k_low = n - omega(pred.m)
    kinds = "xy" if pred.case == "ONE" else "x"
    gens = [(kind, k) for k in range(k_low, 0, -1) for kind in kinds]
    return pred.m, gens, range(k_low + 1, n - omega(pred.m - 1) + 1)


def reference_pair_shell(n, r):
    """The r-th pair shell as a list: every pair (i, j), i < j, of the top
    omega(r) y indices, skipping those with both entries in the top
    omega(r - 1)."""
    lo_outer = n - omega(r) + 1
    lo_inner = n - omega(r - 1) + 1
    pairs = []
    for i in range(lo_outer, n + 1):
        for j in range(i + 1, n + 1):
            if i >= lo_inner and j >= lo_inner:
                continue
            pairs.append((i, j))
    return pairs


def reference_injection(gens, pairs, cover):
    """Each generator, in order, takes the first pair still free, scanning
    from the start of the list, after which the generators still to come,
    at two indices each, can cover the rest of cover; the pair is then
    removed.  None if some generator finds no such pair or cover is left."""
    uncovered, free, chosen = set(cover), list(pairs), []
    for rest, g in zip(range(len(gens) - 1, -1, -1), gens):
        pair = next((q for q in free if len(uncovered.difference(q)) <= 2 * rest), None)
        if pair is None:
            return None
        free.remove(pair)
        uncovered.difference_update(pair)
        chosen.append((g, *pair))
    return None if uncovered else chosen


def reference_no_common_pair(triples):
    """True iff no two of the triples, taken as sets, share two entries:
    every two of them are intersected."""
    sets = [frozenset(t) for t in triples]
    return all(len(s & t) <= 1 for s, t in combinations(sets, 2))


def reference_w_completion(existing, lows, n):
    """construct._w_completion with each candidate intersected with every
    index set taken so far, existing included."""
    taken, chosen, uncovered = list(existing), [], set(lows)
    while uncovered:
        a = min(uncovered)
        candidates = chain(
            ((a, b, c) for b in range(a + 1, n + 1) for c in range(n, b, -1)),
            ((i, a, c) for i in range(a - 1, 0, -1) for c in range(n, a, -1)),
        )
        tri = next((t for t in candidates if all(len(s.intersection(t)) <= 1 for s in taken)), None)
        if tri is None:
            return None
        taken.append(set(tri))
        chosen.append(tri)
        uncovered.difference_update(tri)
    return chosen


def reference_property_report(tset):
    """TripleSet.property_report written out as one flag per property, each
    set by a loop over the triples: the shells are reference_pair_shell
    and the x indices between the omega(r) and omega(r + 1) blocks, and
    no_common_pair is reference_no_common_pair."""
    n, m = tset.n, tset.m
    k_low = n - omega(m)
    high_start = n - omega(m) + 1
    report = {}

    generators_ok = True
    for a, b, c in tset.triples:
        if not (b.kind == c.kind == "y" and a.index < b.index < c.index):
            generators_ok = False
            break
        if a.kind == "x":
            if a.index > n - 2 or b.index < high_start:
                generators_ok = False
                break
        else:
            if tset.case == "ONE":
                if a.index > k_low or b.index < high_start:
                    generators_ok = False
                    break
            else:
                if a.index > k_low:
                    generators_ok = False
                    break
    report["generators"] = generators_ok

    bijection_ok = True
    for r in range(1, m):
        shell_gens = set(range(n - omega(r), n - omega(r + 1), -1))
        shell_pairs = set(reference_pair_shell(n, r))
        seen_pairs = []
        for a, b, c in tset.triples:
            if a.kind == "x" and a.index in shell_gens:
                seen_pairs.append((b.index, c.index))
        if sorted(seen_pairs) != sorted(shell_pairs) or len(seen_pairs) != len(shell_gens):
            bijection_ok = False
    report["shell_bijection"] = bijection_ok

    report["no_common_pair"] = reference_no_common_pair(tset.triples)

    involved = {v for t in tset.triples for v in t}
    required = {BasisVector("x", i) for i in range(1, n - 1)}
    required |= {BasisVector("y", i) for i in range(1, n + 1)}
    excluded = {BasisVector("x", n), BasisVector("x", n - 1)}
    report["coverage"] = required <= involved and not (involved & excluded)
    return report
