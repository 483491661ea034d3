"""Independent oracles used to freeze expected values.

Nothing here runs the Groebner engine: graded dimensions come from
Gaussian elimination on explicit multiplication matrices, symmetric
functions from direct product expansion, binomials from factorials,
monomials in the transgression classes by exhaustive enumeration.  The
tuple-based Buchberger that preceded the packed engine is kept here as the
engine's reference, with its counters and its order of work, and a reader
of the documented JSON forms checks that the writers lose nothing.  The
argparse parser that the CLI's flag table replaced is kept as the
reference for its grammar, which is Python 3.11's, and the line-by-line
text renderer as the reference for the one-write one.  Paper data that no
program path reads (the mod-torsion bases, the summand lists of the cases
known only through a surjection, the spin divisibility bound and the
rank-8 spin products) is kept here for the tests that check it, and
so is the pull-back walk of the SO(2l+1) degree map, the reference for its
push-forward.  The truncated Cauchy product of two series is kept here
for the tests that multiply series, and the reducedness test that
`catalog.check_class` folds into its one pass over a stored class's terms
as that helper's reference.  The positive-root product of B_l, multiplied
out root by root, is the reference for the alternant the torsion module
reads in closed form.  The reduced basis of a finished Groebner basis,
which no program path reads, is formed here by the engine's own tail
reduction, for the tests that compare bases.  The listed summand basis,
which no program path reads either, is kept here as the reference for the
product form that `chow.presentation_series` reads its series in; a
surjection target's listing comes from the summand lists above, which
`src/` does not hold.
"""

import argparse
import contextlib
import functools
import heapq
import io
import sys
from itertools import combinations_with_replacement
from math import comb, isqrt
from operator import lt

import pytest
from flagchow import cli
from flagchow import groebner as engine
from flagchow.catalog import RestrictionTable, lookup_model
from flagchow.chow import BasisElement, _presentable, _summand_factors
from flagchow.errors import UnsupportedCaseError, ValidationError
from flagchow.groebner import HilbertSeries, QuotientPresentation
from flagchow.ring import GradedVariable, PolyRing, Polynomial
from flagchow.torsion import witness_product


def naive_product_terms(a, b):
    """All raw term-by-term products of two {exps: coef} dicts (no merging)."""
    out = []
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out.append((tuple(x + y for x, y in zip(m1, m2)), c1 * c2))
    return out


def is_prime_by_trial_division(n):
    """Primality by trial division up to sqrt(n): what ring.is_prime did
    before it became Miller-Rabin."""
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


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


def hs_product(a, b, maxdeg):
    """Truncated Cauchy product of two HilbertSeries."""
    dims = [0] * (maxdeg + 1)
    for i, x in enumerate(a.dims):
        if i > maxdeg or x == 0:
            continue
        for j, y in enumerate(b.dims):
            if i + j > maxdeg:
                break
            dims[i + j] += x * y
    return HilbertSeries(dims)


def homogeneous_topdeg(poly):
    """The one topdeg of the terms of a nonzero homogeneous polynomial,
    summed from the exponents; AssertionError for any other polynomial."""
    degs = {sum(e * d for e, d in zip(m, poly.ring.topdegs)) for m in poly.terms}
    assert len(degs) == 1, "not a nonzero homogeneous polynomial: %r" % (poly,)
    return degs.pop()


def sharp_y_bound(model, k):
    """The counting bound by brute force: every multiset of at most k uses
    of the indices whose entries have a leading witness, kept if each index
    is used at least min_uses and at most max_uses times (k when unset);
    each use of an index counts the largest exponent sum over the terms of
    its leading body; the largest total over the kept ones, 0 if none is
    kept."""
    data = model.sharp
    count = {}
    for e in model.transgression:
        if e.leading is not None:
            count[e.index] = max(sum(m) for m in e.leading.body.terms)
    best = None
    for size in range(k + 1):
        for uses in combinations_with_replacement(sorted(count), size):
            if any(uses.count(i) < n for i, n in data.min_uses.items()):
                continue
            if any(uses.count(i) > data.max_uses.get(i, k) for i in count):
                continue
            total = sum(count[i] for i in uses)
            best = total if best is None else max(best, total)
    return 0 if best is None else best


def in_ring(body, ring):
    """Whether body lies in ring (any ring when ring is None): the reference
    for the ring part of `catalog.check_class`."""
    return ring is None or body.ring == ring


def is_reduced(body, truncs):
    """Whether each exponent of body is below its variable's truncation, on
    a pass of its own: the reference for the reducedness part of
    `catalog.check_class`."""
    return all(all(map(lt, m, truncs)) for m in body.terms)


def with_restriction_image(table, source, image):
    """A copy of a restriction table with the image of its keyed model's
    entry named `source` replaced by `image`."""
    entries = lookup_model(*table.key).transgression
    return RestrictionTable(
        table.name, table.key,
        [image if e.name == source else old for e, old in zip(entries, table.images)],
        table.expected_image)


def a_filtration_basis(model, bound):
    """All monomials in the transgression classes of total topdeg <= bound."""
    if bound < 0:
        raise ValidationError("bound must be non-negative")
    entries = [(e.index, e.name, e.topdeg) for e in model.transgression]
    out = []

    def rec(i, deg, factors):
        if i == len(entries):
            name_parts = []
            for (idx, name, _), mult in factors:
                name_parts.append(name if mult == 1 else "%s^%d" % (name, mult))
            name = "".join(name_parts) if name_parts else "1"
            out.append(BasisElement(name, deg, "filtration"))
            return
        idx, name, d = entries[i]
        mult = 0
        while deg + mult * d <= bound:
            rec(i + 1, deg + mult * d,
                factors + ([(entries[i], mult)] if mult else []))
            mult += 1

    rec(0, 0, [])
    out.sort(key=lambda b: (b.topdeg, b.name))
    return out


# --- paper data that no program path reads ------------------------------------

# the torsion-free quotient bases of the indecomposable summand, stored for
# (E7, 2) and (E8, 3): products of transgression classes
MOD_TORSION_PRODUCTS = {
    ("E7", 7, 2): [[i] for i in range(2, 8)] + [[2, 7]],
    ("E8", 8, 3): [[i] for i in range(2, 9)] + [[2, 8]],
}


def mod_torsion_basis(model):
    """The unit and the stored products of the model's transgression
    classes, named and graded by their entries."""
    if model.key() not in MOD_TORSION_PRODUCTS:
        raise UnsupportedCaseError(
            "no torsion-free quotient basis stored for %s" % model.label())
    out = [BasisElement("1", 0, "mod-torsion")]
    for idxs in MOD_TORSION_PRODUCTS[model.key()]:
        entries = [model.entry(i) for i in idxs]
        out.append(BasisElement("".join(e.name for e in entries),
                                sum(e.topdeg for e in entries), "mod-torsion"))
    return out


# (family, prime) -> the entry-index products of a summand known only
# through its surjection target, the unit aside, in the cited order
SURJECTION_PRODUCTS = {
    ("E8", 3): [(i,) for i in range(1, 9)] + [(1, 6), (1, 8), (2, 8)],
    ("E8", 2): [(i,) for i in range(1, 9)],
    ("E7", 2): [(i,) for i in range(1, 8)] + [(1, 5), (1, 6), (1, 7), (2, 7)],
}


def _surjection_products(model):
    """The listed entry products (tuples) of a surjection target's summand:
    Spin(11)'s own list, c'_2..c'_l of Spin(2l+1) for l > 5 (the last one
    dropped at a power of 2), or the exceptional case's row above."""
    l = model.rank
    if model.family == "Spin_odd":
        if l == 5:
            products = [(2,), (3,), (4,), (5,), (2, 4), ("z",)]
        else:
            lbar = l - 1 if l & (l - 1) == 0 else l  # l - 1 at a power of 2
            products = [(i,) for i in range(2, lbar + 1)]
    else:
        products = SURJECTION_PRODUCTS[model.family, model.prime]
    entry = {e.index: e for e in model.transgression}
    return [tuple(entry[i] for i in idxs) for idxs in products]


def rost_part_basis(model):
    """Additive basis data for the indecomposable summand of the model.

    Returns (kind, elements): kind is "exact" where `chow._presentable`
    holds, and the listed products and exterior entries are those of
    `_summand_factors`; else it is "surjection-target", and the products
    are `_surjection_products`.  The elements are the unit and the listed
    products, each times every square-free product of the exterior
    entries; each is named by its entries' names and graded by the sum of
    their topdegs.  An exact basis is listed by (topdeg, name), a
    surjection target in its cited order.  The listing is the reference for
    the product form that `chow.presentation_series` reads the summand
    series in.
    """
    if _presentable(model):
        kind, (products, exterior) = "exact", _summand_factors(model)
    else:
        kind, products, exterior = (
            "surjection-target", _surjection_products(model), ())
    for e in exterior:
        products = products + [(e,)] + [es + (e,) for es in products]
    out = [BasisElement("1", 0, "rost-part")] + [
        BasisElement("".join(e.name for e in es), sum(e.topdeg for e in es),
                     "rost-part")
        for es in products]
    if kind == "exact":
        out.sort(key=lambda b: (b.topdeg, b.name))
    return kind, out


def marlin_bound(l):
    """2^(l - floor(log2 l) - 1): the classical divisibility bound for the
    spin-group torsion index."""
    if l < 1:
        raise ValidationError("rank must be positive")
    return 2 ** (l - l.bit_length())


def spin17_nonzero_products():
    """The two stored nonzero products for the rank-8 spin case: the plain
    witness, and the one routing one factor through its level-1 term."""
    model = lookup_model("Spin_odd", 8, 2)
    plain = witness_product(model, model.witness)
    ok_plain = plain.s == 4 and plain.body == model.y_top()
    partial = witness_product(model, [3, 6, 7])
    v1_body = dict(model.entry(4).v_terms)[1]
    mixed = model.reduce_y(partial.body * v1_body)
    ok_mixed = partial.s == 3 and mixed == model.y_top()
    return {"plain": ok_plain, "with_v1_factor": ok_mixed,
            "plain_exponent": plain.s, "mixed_exponent": partial.s}


def object_state(obj):
    """Everything `obj` holds, as nested lists of reprs: each `__slots__`
    field, list, tuple and dict entry in order, down to the scalars
    (polynomial term dicts included).  Two reads are equal unless something
    changed the object in between."""
    if isinstance(obj, dict):
        return ["dict", [(object_state(k), object_state(v)) for k, v in obj.items()]]
    if isinstance(obj, (list, tuple)):
        return [type(obj).__name__, [object_state(v) for v in obj]]
    slots = getattr(type(obj), "__slots__", None)
    if slots is None:
        return repr(obj)
    return [type(obj).__name__, [(s, object_state(getattr(obj, s))) for s in slots]]


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



def _divided_difference(exps, i):
    """d_i t^exps as (exponent tuple, integer coefficient) terms."""
    l = len(exps)
    if i == l:
        # (t^a - (-t)^a) / t
        if exps[-1] % 2 == 0:
            return []
        return [(exps[:-1] + (exps[-1] - 1,), 2)]
    a, b = exps[i - 1], exps[i]
    lo, hi = min(a, b), max(a, b)
    sign = 1 if a > b else -1
    # (t_i^a t_{i+1}^b - t_i^b t_{i+1}^a) / (t_i - t_{i+1}); empty when a == b
    return [(exps[:i - 1] + (hi - 1 - j, lo + j) + exps[i + 1:], sign)
            for j in range(hi - lo)]


def pulled_back_degrees(l):
    """{exps: deg(t^exps)} on every monomial of degree l^2 in t_1..t_l, the
    point functional pulled back through the word (s_1 ... s_l)^l one layer
    at a time: after letter k, each degree-k monomial reads the layer below
    at the terms of its d_i.  The walk that the push-forward of
    `torsion.build_integral_flag_ring` replaced, kept as its reference."""
    layer = {(0,) * l: 1}
    for k, i in enumerate(list(range(1, l + 1)) * l, start=1):
        layer = {m: sum(c * layer[n] for n, c in _divided_difference(m, i))
                 for m in monomials_of_topdeg([1] * l, k)}
    return layer


def positive_root_expansion(l):
    """The product of the positive roots t_i - t_j, t_i + t_j (i < j) and t_i
    of B_l, multiplied out one root at a time, as (exponent tuple,
    coefficient) pairs: the reference for the alternant that
    `torsion._positive_root_product` reads in closed form."""
    units = [tuple(int(k == i) for k in range(l)) for i in range(l)]
    roots = []
    for i in range(l):
        roots.append({units[i]: 1})
        for j in range(i + 1, l):
            roots.append({units[i]: 1, units[j]: -1})
            roots.append({units[i]: 1, units[j]: 1})
    product = {(0,) * l: 1}
    for root in roots:
        out = {}
        for m, c in product.items():
            for r, d in root.items():
                key = tuple(a + b for a, b in zip(m, r))
                out[key] = out.get(key, 0) + c * d
        product = {m: c for m, c in out.items() if c}
    return tuple(product.items())

# --- the tuple Groebner engine, kept as the reference for the packed one ----


def order_key(order, ring):
    """Return key(exps) such that larger key = larger monomial."""
    topdeg = ring.monomial_topdeg
    if order == "grevlex":
        def key(e):
            return (topdeg(e), tuple(-x for x in reversed(e)))
        return key
    if order == "lex":
        def key(e):
            return e
        return key
    if isinstance(order, tuple) and order[0] == "block":
        k = order[1]
        degs1 = ring.topdegs[:k]
        degs2 = ring.topdegs[k:]

        def key(e):
            a, b = e[:k], e[k:]
            da = sum(x * d for x, d in zip(a, degs1))
            db = sum(x * d for x, d in zip(b, degs2))
            return (da, tuple(-x for x in reversed(a)),
                    db, tuple(-x for x in reversed(b)))
        return key
    raise ValueError("unknown monomial order %r" % (order,))


def leading_term(poly, key):
    m = max(poly.terms, key=key)
    return m, poly.terms[m]


def _divides(m, target):
    return all(a <= b for a, b in zip(m, target))


def _monomial_div(target, m):
    return tuple(b - a for a, b in zip(m, target))


def _monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce_full(poly, basis, lts, key, ring, stats):
    """Full normal form of poly against basis (leading coefficients units)."""
    result = {}
    work = dict(poly.terms)
    norm = ring.normalize_coeff
    while work:
        lt = max(work, key=key)
        lc = work[lt]
        for g, glt in zip(basis, lts):
            if _divides(glt, lt):
                stats["reduction_steps"] += 1
                shift = _monomial_div(lt, glt)
                factor = norm(lc * ring.coeff_inv(g.terms[glt]))
                for m, c in g.terms.items():
                    mm = tuple(a + b for a, b in zip(m, shift))
                    v = norm(work.get(mm, 0) - factor * c)
                    if v == 0:
                        work.pop(mm, None)
                    else:
                        work[mm] = v
                break
        else:
            result[lt] = lc
            del work[lt]
    return Polynomial(ring, result)


def _shift(poly, exps):
    """poly * x^exps."""
    return Polynomial(poly.ring, {tuple(a + b for a, b in zip(m, exps)): c
                                  for m, c in poly.terms.items()})


def _monic(poly, key, ring):
    lt, lc = leading_term(poly, key)
    if lc == 1:
        return poly
    return poly * ring.const(ring.coeff_inv(lc))


STAT_KEYS = ("pairs_pushed", "pairs_popped", "product_criterion",
             "chain_criterion", "reductions", "zero_reductions",
             "reduction_steps", "peak_basis", "final_basis")


def buchberger_reference(relations, ring, order, maxdeg, stats=None):
    """Degree-truncated Buchberger on exponent tuples, in the engine's order
    of work: one queue by topdeg holds the relations, at their topdeg ahead
    of that topdeg's pairs and in input order, and the pairs, sugar-free
    normal selection by lcm topdeg in the order formed.  Product and chain
    criteria, first divisor in basis order; a relation or S-polynomial is
    kept if its normal form is nonzero.  Then minimalization, which must
    drop nothing, tail reduction and a sort by (topdeg, leading monomial).
    Fills stats with the counters of flagchow.groebner.buchberger:
    relations count as reductions, not as pairs, and the tail reduction
    counts no steps."""
    stats = {} if stats is None else stats
    stats.update(dict.fromkeys(STAT_KEYS, 0))
    key = order_key(order, ring)
    basis, lts = [], []
    heap = []
    counter = 0

    def push_pairs(j):
        nonlocal counter
        for i in range(j):
            lcm = _monomial_lcm(lts[i], lts[j])
            d = ring.monomial_topdeg(lcm)
            if d <= maxdeg:
                heapq.heappush(heap, (d, counter, i, j, lcm))
                counter += 1
                stats["pairs_pushed"] += 1

    # a relation's sequence number is negative, so it precedes every pair
    rels = [r for r in relations if not r.is_zero()]
    for k, r in enumerate(rels):
        d = homogeneous_topdeg(r)
        if d <= maxdeg:
            heapq.heappush(heap, (d, k - len(rels), r, None, None))

    done = set()
    while heap:
        d, seq, i, j, lcm = heapq.heappop(heap)
        if seq < 0:
            f = i
        else:
            stats["pairs_popped"] += 1
            done.add((i, j))
            if tuple(a + b for a, b in zip(lts[i], lts[j])) == lcm:
                stats["product_criterion"] += 1
                continue
            skip = False
            for k in range(len(basis)):
                if k in (i, j):
                    continue
                if _divides(lts[k], lcm):
                    p1 = (min(i, k), max(i, k))
                    p2 = (min(j, k), max(j, k))
                    if p1 in done and p2 in done:
                        skip = True
                        break
            if skip:
                stats["chain_criterion"] += 1
                continue
            f = (_shift(basis[i], _monomial_div(lcm, lts[i]))
                 + ring.const(-1) * _shift(basis[j], _monomial_div(lcm, lts[j])))
        h = _reduce_full(f, basis, lts, key, ring, stats)
        stats["reductions"] += 1
        if h.is_zero():
            stats["zero_reductions"] += 1
        else:
            basis.append(_monic(h, key, ring))
            lts.append(leading_term(basis[-1], key)[0])
            push_pairs(len(basis) - 1)
    stats["peak_basis"] = len(basis)

    keep = []
    for i, g in enumerate(basis):
        if any(j != i and _divides(lts[j], lts[i])
               and (lts[j] != lts[i] or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    min_lts = [lts[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        olts = min_lts[:i] + min_lts[i + 1:]
        reduced.append(_monic(_reduce_full(g, others, olts, key, ring,
                                           {"reduction_steps": 0}), key, ring))
    reduced.sort(key=lambda g: (homogeneous_topdeg(g),
                                key(leading_term(g, key)[0])))
    stats["final_basis"] = len(reduced)
    return reduced


def reduced_basis(gb):
    """The reduced basis of a packed GroebnerBasis, sorted by (topdeg,
    leading monomial) in grevlex as `order_key` spells it, so the order
    rests on no property of the engine's keys; terms largest first.
    `_minimal` stores each element monic, with its tail negated (each stored
    coefficient is minus the element's own), so this negates each tail back
    before it reduces it.  Each call reduces every tail by all the elements
    in the order found: one of higher topdeg divides none of its terms, and
    neither does the element itself, whose leading monomial is larger than
    each of them.  It calls the engine's `_reduce` through its module, so a
    test that counts those calls counts these."""
    pk, p = gb._packing, gb.ring.p
    key = order_key("grevlex", gb.ring)
    divisors = [(x, t) for _, x, t in gb._minimal]
    out = []
    for _, lead, tail in sorted(gb._minimal,
                                key=lambda m: (m[0], key(pk.unpack(m[1])))):
        terms, _ = engine._reduce({lead + off: -c for off, c in tail},
                                  divisors, pk, p)
        out.append(Polynomial(gb.ring, {pk.unpack(k): c for k, c
                                        in {lead: 1, **terms}.items()}))
    return tuple(out)


# --- the documented JSON forms, read back ----------------------------------


def coeff_from_json(data):
    """The prime p of {"ring": "Fp", "p": p}."""
    if data["ring"] == "Fp":
        return data["p"]
    raise ValidationError("unknown coefficient ring %r" % (data,))


def variables_from_json(data):
    return [GradedVariable(d["name"], d["topdeg"]) for d in data]


def poly_from_json(data, ring=None):
    if ring is None:
        ring = PolyRing(variables_from_json(data["variables"]),
                        coeff_from_json(data["coeff"]))
    terms = []
    for t in data["terms"]:
        exps = [0] * ring.nvars
        for name, e in t["exps"].items():
            exps[ring.var_index(name)] = e
        terms.append((tuple(exps), int(t["coef"])))
    return ring.from_terms(terms)


def presentation_from_json(data):
    ring = PolyRing(variables_from_json(data["variables"]),
                    coeff_from_json(data["coeff"]))
    rels = [poly_from_json({"terms": terms}, ring) for terms in data["relations"]]
    return QuotientPresentation(ring, rels, note=data.get("note"))


def series_from_json(data):
    s = HilbertSeries(data["dims"])
    if s.maxdeg != data["maxdeg"]:
        raise ValidationError("series length disagrees with maxdeg")
    return s


# --- the argparse CLI parser, as the CLI built it before its flag table ------


class _SubParser(argparse.ArgumentParser):
    """Subcommand parser accepting --format after the subcommand as well."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.add_argument("--format", dest="format_sub",
                          choices=("text", "json"), default=None)


def _add_group_flags(sub, prime_default=None):
    sub.add_argument("--group", required=True)
    sub.add_argument("--rank", type=int, default=None)
    sub.add_argument("--prime", type=int, default=prime_default)


@functools.cache
def build_parser():
    """The CLI parser before the flag table; cached, so a process builds it
    once and every later call reuses it."""
    parser = argparse.ArgumentParser(
        prog="flagchow",
        description="exact mod-p flag-variety Chow ring checks")
    parser.add_argument("--format", choices=("text", "json"), default=None)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubParser)

    s = sub.add_parser("catalog", help="dump one catalog entry")
    _add_group_flags(s)

    s = sub.add_parser("present", help="mod-p presentation of the flag quotient")
    _add_group_flags(s)

    s = sub.add_parser("hilbert", help="graded dimensions of the presentation")
    _add_group_flags(s)
    s.add_argument("--maxdeg", type=int, default=20)

    s = sub.add_parser("rost", help="summand basis for height n at prime p")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)

    s = sub.add_parser("restrict", help="check stored restriction tables")
    s.add_argument("--table", default=None)

    s = sub.add_parser("decompose", help="series decomposition check")
    _add_group_flags(s)
    s.add_argument("--maxdeg", type=int, default=40)

    s = sub.add_parser("torsion-index", help="torsion index with verification level")
    _add_group_flags(s, prime_default=2)
    s.add_argument("--witness", action="store_true")

    s = sub.add_parser("steenrod", help="apply an operation to a generator")
    _add_group_flags(s)
    s.add_argument("--op", required=True)
    s.add_argument("--gen", required=True)

    s = sub.add_parser("verify", help="run verification cases")
    s.add_argument("--all", action="store_true")
    s.add_argument("--case", default=None)

    return parser


# The flag table keeps the grammar of Python 3.11's argparse on every
# Python.  Later releases changed how argparse reads `--`, prefixes and
# `=` values, so a live comparison means something only on 3.11.
ON_REFERENCE_PYTHON = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the argparse reference is Python 3.11's")


def usage_head(text):
    """Which level's usage line text prints: `usage: flagchow` or
    `usage: flagchow <sub>`, the line up to its first option; None if it
    prints none."""
    for line in text.splitlines():
        if line.startswith("usage: "):
            return line.partition(" [")[0]
    return None


def argparse_outcome(argv):
    """What the reference parser makes of argv: ("parsed", the namespace's
    attributes, None), or ("help", None, usage) after exit 0 or ("usage
    error", None, usage) after exit 2, where usage is the `usage_head` of
    what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "parsed", vars(build_parser().parse_args(argv)), None
        except SystemExit as exc:
            code = exc.code
    return ({0: "help", 2: "usage error"}[code], None,
            usage_head((out if code == 0 else err).getvalue()))


def table_outcome(argv):
    """The same for the CLI's flag table, `cli._parse`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            args = cli._parse(argv)
        except ValidationError as exc:
            return "usage error", None, usage_head(str(exc))
    if args is None:
        return "help", None, usage_head(out.getvalue())
    return "parsed", vars(args), None


def render_text_reference(payload, out, indent=0, bullet=False):
    """The text renderer that preceded `cli._render_text`: one write per
    line, the reference for its bytes."""
    pad = "  " * indent
    if isinstance(payload, dict):
        first = True
        for key in payload:
            value = payload[key]
            lead = "%s- " % ("  " * (indent - 1)) if bullet and first else pad
            first = False
            if isinstance(value, (dict, list)):
                out.write("%s%s:\n" % (lead, key))
                render_text_reference(value, out, indent + 1)
            else:
                out.write("%s%s: %s\n" % (lead, key, value))
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                render_text_reference(value, out, indent + 1, bullet=True)
            else:
                out.write("%s- %s\n" % (pad, value))
    else:
        out.write("%s%s\n" % (pad, payload))
