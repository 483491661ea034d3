"""Independent oracles used to freeze expected values.

Nothing here touches the Groebner engine: graded dimensions come from
Gaussian elimination on explicit multiplication matrices, symmetric
functions from direct product expansion, binomials from factorials.
"""

from math import comb


def naive_product_terms(a, b):
    """All raw term-by-term products of two {exps: coef} dicts (no merging)."""
    out = []
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out.append((tuple(x + y for x, y in zip(m1, m2)), c1 * c2))
    return out


def merge_terms(raw):
    acc = {}
    for m, c in raw:
        acc[m] = acc.get(m, 0) + c
        if acc[m] == 0:
            del acc[m]
    return acc


def expand_sigma(l, i):
    """sigma_i(t_1..t_l) by brute-force expansion of prod(1 + t_j z)."""
    from itertools import combinations
    out = {}
    for subset in combinations(range(l), i):
        exps = [0] * l
        for j in subset:
            exps[j] = 1
        out[tuple(exps)] = 1
    return out


def monomials_of_topdeg(topdegs, d):
    """All exponent tuples with given weighted degree."""
    out = []
    n = len(topdegs)

    def rec(i, rest, acc):
        if i == n:
            if rest == 0:
                out.append(tuple(acc))
            return
        if rest == 0:
            out.append(tuple(acc + [0] * (n - i)))
            return
        e = 0
        while e * topdegs[i] <= rest:
            rec(i + 1, rest - e * topdegs[i], acc + [e])
            e += 1

    rec(0, d, [])
    return out


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows if any(x % p for x in r)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col] % p, p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def graded_quotient_dims(topdegs, relations, p, maxdeg):
    """Graded dims of F_p[x]/(relations) by linear algebra on each graded piece.

    relations: list of {exps: coef} dicts, each homogeneous.
    """
    def rel_deg(r):
        return {sum(e * d for e, d in zip(m, topdegs)) for m in r}.pop()

    dims = []
    for d in range(maxdeg + 1):
        monos = monomials_of_topdeg(topdegs, d)
        if not monos:
            dims.append(0)
            continue
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for r in relations:
            dr = rel_deg(r)
            if dr > d:
                continue
            for shift in monomials_of_topdeg(topdegs, d - dr):
                row = [0] * len(monos)
                for m, c in r.items():
                    mm = tuple(a + b for a, b in zip(m, shift))
                    row[index[mm]] = (row[index[mm]] + c) % p
                rows.append(row)
        rank = _rank_mod_p(rows, p) if rows else 0
        dims.append(len(monos) - rank)
    return dims


def in_ideal_mod_p(topdegs, relations, target, p):
    """Whether a homogeneous target lies in the graded ideal piece (mod p)."""
    d = {sum(e * dd for e, dd in zip(m, topdegs)) for m in target}.pop()
    monos = monomials_of_topdeg(topdegs, d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for r in relations:
        dr = {sum(e * dd for e, dd in zip(m, topdegs)) for m in r}.pop()
        if dr > d:
            continue
        for shift in monomials_of_topdeg(topdegs, d - dr):
            row = [0] * len(monos)
            for m, c in r.items():
                mm = tuple(a + b for a, b in zip(m, shift))
                row[index[mm]] = (row[index[mm]] + c) % p
            rows.append(row)
    base_rank = _rank_mod_p(rows, p) if rows else 0
    trow = [0] * len(monos)
    for m, c in target.items():
        trow[index[m]] = c % p
    return _rank_mod_p(rows + [trow], p) == base_rank


def binom_mod(n, k, p):
    return comb(n, k) % p


def standard_monomial_dims(lts, topdegs, maxdeg):
    """Graded counts of monomials of topdeg <= maxdeg divisible by no lts entry.

    Brute force: visits every monomial up to maxdeg and tests it against
    every leading monomial.
    """
    dims = [0] * (maxdeg + 1)
    nvars = len(topdegs)
    exps = [0] * nvars

    def rec(i, deg):
        if i == nvars:
            for m in lts:
                if all(a <= b for a, b in zip(m, exps)):
                    return
            dims[deg] += 1
            return
        e = 0
        while deg + e * topdegs[i] <= maxdeg:
            exps[i] = e
            rec(i + 1, deg + e * topdegs[i])
            e += 1
        exps[i] = 0

    rec(0, 0)
    return dims


def _b_reflect(f, i, l):
    """s_i on a {exps: coef} polynomial in t_1..t_l, type B_l: s_i swaps
    t_i and t_{i+1} for i < l, s_l negates t_l."""
    out = {}
    for m, c in f.items():
        if i == l:
            out[m] = c * (-1) ** m[l - 1]
        else:
            mm = list(m)
            mm[i - 1], mm[i] = mm[i], mm[i - 1]
            out[tuple(mm)] = c
    return out


def _divide_by_root(g, i, l):
    """Exact quotient of g by the simple root t_i - t_{i+1} (i < l) or t_l,
    by long division on the t_i exponent; errors if the division is inexact."""
    g = {m: c for m, c in g.items() if c}
    q = {}
    while g:
        m = max(g, key=lambda mm: (mm[i - 1], mm))
        c = g.pop(m)
        if m[i - 1] == 0:
            raise AssertionError("division by the root is not exact")
        lead = m[:i - 1] + (m[i - 1] - 1,) + m[i:]
        q[lead] = q.get(lead, 0) + c
        if i < l:
            # subtract c * lead * (t_i - t_{i+1}); the t_i part was popped
            tail = lead[:i] + (lead[i] + 1,) + lead[i + 1:]
            g[tail] = g.get(tail, 0) + c
            if g[tail] == 0:
                del g[tail]
    return q


def demazure_degree(exps, word):
    """d_{i_1} ... d_{i_N} t^exps for a type-B word (i_1, ..., i_N), applied
    to the polynomial itself, rightmost operator first, with
    d_i f = (f - s_i f) / alpha_i; the constant left at the end."""
    l = len(exps)
    f = {tuple(exps): 1}
    for i in reversed(word):
        s_f = _b_reflect(f, i, l)
        diff = dict(f)
        for m, c in s_f.items():
            diff[m] = diff.get(m, 0) - c
        f = _divide_by_root(diff, i, l)
        if not f:
            return 0
    if set(f) != {(0,) * l}:
        raise AssertionError("word too short for the degree of the monomial")
    return f[(0,) * l]
