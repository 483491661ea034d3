"""Degree-truncated Groebner bases, normal forms and Hilbert series.

All ideals here are homogeneous in the topological grading, so a Buchberger
run that discards every S-pair whose lcm exceeds the truncation degree yields
canonical normal forms for every polynomial at or below that degree.
Nothing ever attempts a full basis.  The monomial order is grevlex, the
only one flagchow uses.

Inside the engine a monomial is one integer key, its exponent fields alone
(Packing), and its topdeg is kept beside the key: a monomial product is an
addition, a term shift is m + lt - glt, and divisibility is one subtraction
against guard bits, ((t | G) - g) & G == G; the same guard bits give a
monomial's support and two monomials' lcm.  Within one topdeg a smaller key
is the grevlex-larger monomial, and the engine compares no others:
relations, S-polynomials and tails are homogeneous, so a reduction never
mixes topdegs.  The packing is built once per (ring, maxdeg) by buchberger
and kept on the GroebnerBasis it returns.  Exponent tuples appear only at
the boundary: input relations and returned polynomials.
Coefficients are in F_p, the ring's field.  Each basis element is monic
and stores its tail negated, so a reduction step only adds multiples of
tails; a coefficient is reduced mod p once, when its term is popped.

Each input relation is reduced when the run reaches its topdeg, ahead of
that topdeg's S-pairs, so elements are found in nondecreasing topdeg, each
reduced by every earlier one: every element found is minimal, and a
complete intersection needs no S-polynomial at all.  Per pair the
bookkeeping is small: leads are screened by their supports, a pair's lcm
is read off its leading keys by guard-bit masks, and the chain criterion
reads one bitmask of popped pairs per element.  The tails are never
reduced: a normal form, unique for any Groebner basis (Cox, Little and
O'Shea, Ideals, Varieties, and Algorithms, Prop. 2.6.1), reduces by the
elements as found.
The Hilbert series reads only the minimal leading monomials, packed; a
leaf of its pivot recursion expands prod(1 - q^d) only up to the running
degree sum, and a factor 1/(1 - q) of the denominator is one prefix sum.
"""

import heapq
from itertools import accumulate
from math import gcd
from operator import add, mul

from .errors import OutOfRangeError, ValidationError
from .ring import Polynomial


# ---------------------------------------------------------------------------
# packed monomials


class Packing:
    """Integer keys for the monomials of topdeg <= maxdeg: the exponent
    fields alone.

    Each exponent gets a field of b = bit_length(maxdeg // min weight) + 1
    bits whose top bit is a guard bit, and pack(e) = sum e_i << s_i with
    s_i = i*b, guard bits clear.  The key is linear in the exponents,
    pack(e) = sum e_i kappa_i, so pack(a) + pack(b) == pack(a + b) and a term
    shift is m + lt - glt.  The topdeg is not in the key; the engine keeps it
    beside the key.  Within one topdeg a smaller key is the grevlex-larger
    monomial: the most significant field is e_{n-1}, and of two monomials of
    one degree grevlex prefers the smaller e_{n-1}, then e_{n-2}, and so on.
    Keys of different topdegs are never compared.  x divides y exactly when
    ((y | G) - x) & G == G for the guard mask G: each field subtracts from
    its own set guard bit and never borrows beyond it.  `fields` holds emax
    in every field, so the guard bits of x + fields mark x's support
    (support).  The same subtraction, (a | G) - b, leaves a field's guard
    bit set exactly when a's field is at least b's; shifted down to the
    field's start and times emax it masks those fields, and the lcm takes
    a's fields there and b's elsewhere (lcm).

    Keys are exact only for monomials of topdeg <= maxdeg; the engine never
    forms others.
    """

    __slots__ = ("maxdeg", "kappa", "shifts", "emax", "fields", "guard")

    def __init__(self, topdegs, maxdeg):
        b = (maxdeg // min(topdegs, default=2)).bit_length() + 1
        self.maxdeg = maxdeg
        self.emax = (1 << (b - 1)) - 1
        self.shifts = [i * b for i in range(len(topdegs))]
        self.kappa = [1 << s for s in self.shifts]
        ones = sum(self.kappa)
        self.fields = self.emax * ones
        self.guard = ones << (b - 1)

    def pack(self, exps):
        return sum(map(mul, exps, self.kappa))

    def unpack(self, key):
        return tuple((key >> s) & self.emax for s in self.shifts)

    def support(self, x):
        """The guard bits of x's nonzero fields."""
        return (x + self.fields) & self.guard

    def lcm(self, a, b):
        """The field-wise maximum of a and b: ge masks a's larger fields."""
        guard, emax = self.guard, self.emax
        ge = ((((a | guard) - b) & guard) >> emax.bit_length()) * emax
        return (a & ge) | (b & (self.fields ^ ge))


# ---------------------------------------------------------------------------
# presentations and series


class QuotientPresentation:
    """A graded polynomial ring plus a list of homogeneous relations."""

    __slots__ = ("ring", "relations", "note")

    def __init__(self, ring, relations, note=None):
        self.ring = ring
        rels = []
        for r in relations:
            if not isinstance(r, Polynomial) or not self.ring.same_ring(r.ring):
                raise ValidationError("relation not in the ambient ring")
            if r.is_zero():
                raise ValidationError("zero relation not allowed")
            if not r.is_homogeneous():
                raise ValidationError("relation %r is not homogeneous" % (r,))
            rels.append(r)
        self.relations = tuple(rels)
        self.note = note

    def __repr__(self):
        return "QuotientPresentation(%r, %d relations)" % (self.ring, len(self.relations))


class HilbertSeries:
    """Graded dimensions indexed by topological degree 0..maxdeg."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        self.dims = list(dims)

    @property
    def maxdeg(self):
        return len(self.dims) - 1

    def total(self):
        return sum(self.dims)

    def __eq__(self, other):
        return isinstance(other, HilbertSeries) and self.dims == other.dims

    def __repr__(self):
        return "HilbertSeries(%r)" % (self.dims,)


def hs_from_degrees(degrees, maxdeg):
    """Series of a graded basis given as a degree multiset."""
    dims = [0] * (maxdeg + 1)
    for d in degrees:
        if 0 <= d <= maxdeg:
            dims[d] += 1
    return HilbertSeries(dims)


def hs_times(dims, numer=(), denom=(), top=None):
    """Multiply a truncated series in place by prod(1 - q^a) / prod(1 - q^b).

    dims is a list of coefficients of q^0..q^maxdeg; numer and denom are
    degree lists.  Every denominator factor has constant term 1, so the
    division is exact modulo q^(maxdeg+1).  (1 + q^d) is (1 - q^2d)/(1 - q^d)
    and the geometric factor 1 + q^s + ... + q^((c-1)s) is
    (1 - q^cs)/(1 - q^s).  top, where given, is a degree above which dims
    is 0; each numerator factor raises it by a and walks only up to it.  A
    factor 1/(1 - q) is one prefix sum.
    """
    n = len(dims)
    top = n - 1 if top is None else top
    for a in numer:
        if a < 0:
            raise ValidationError("factor degree must be non-negative, got %r" % (a,))
        top += a
        if top >= n:
            top = n - 1
        for k in range(top, a - 1, -1):
            dims[k] -= dims[k - a]
    for b in denom:
        if b < 1:
            raise ValidationError("divisor degree must be positive, got %r" % (b,))
        if b == 1:
            dims[:] = accumulate(dims)
        else:
            for k in range(b, n):
                dims[k] += dims[k - b]


# ---------------------------------------------------------------------------
# Buchberger

# The counters of a run, in this order: S-pairs pushed and popped, pairs
# skipped by the product and by the chain criterion, reductions (of the
# relations and of the S-polynomials) and those that end in zero, their
# reduction steps, and the basis size at its peak and at the end, which are
# equal: every element found is minimal.
STAT_KEYS = ("pairs_pushed", "pairs_popped", "product_criterion",
             "chain_criterion", "reductions", "zero_reductions",
             "reduction_steps", "peak_basis", "final_basis")


def _reduce(work, divisors, packing, p):
    """Full normal form of work, a dict key -> coefficient mod p, which it
    consumes.

    divisors are (leading key, tail) pairs of monic basis elements, tail
    the (key - leading key, -coefficient mod p) pairs of the other terms,
    negated so that a step adds c times the tail; a term is reduced by the
    first divisor whose leading monomial divides it.  work's values are any
    integers: a coefficient is reduced mod p once, when its term is popped.
    Within a topdeg the grevlex-largest term has the smallest key, so it
    comes from a min-heap of the keys themselves, each key of work held
    once; a step replaces a term by grevlex-smaller ones of its topdeg,
    larger keys, so the keys popped only rise.  A term that cancels keeps
    its key with a value divisible by p, so one that comes back is not
    pushed again, and a popped 0 is skipped.  Returns the normal form's
    terms, coefficients in 1..p-1, smallest key first (for homogeneous work
    the leading term first), and the number of reduction steps.
    """
    guard = packing.guard
    heap = list(work)
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, work.get
    result = {}
    steps = 0
    while heap:
        k = pop(heap)
        c = work.pop(k) % p
        if not c:
            continue
        y = k | guard
        for x, tail in divisors:
            if (y - x) & guard == guard:
                steps += 1
                for off, gc in tail:
                    m = k + off
                    old = get(m)
                    if old is None:
                        work[m] = c * gc
                        push(heap, m)
                    else:
                        work[m] = old + c * gc
                break
        else:
            result[k] = c
    return result, steps


class GroebnerBasis:
    """A degree-truncated basis over F_p: the monic elements buchberger
    found, each minimal, as (topdeg, leading key, tail) in _minimal, in the
    order found and tails not reduced; a tail holds the (key - leading key,
    -coefficient mod p) pairs of the other terms.  stats holds the run's
    counters (STAT_KEYS), final when buchberger returns."""

    __slots__ = ("ring", "maxdeg", "stats", "_packing", "_minimal")

    def __init__(self, ring, packing, minimal, stats):
        self.ring = ring
        self.maxdeg = packing.maxdeg
        self.stats = stats
        self._packing = packing
        self._minimal = minimal

    def __len__(self):
        return len(self._minimal)

    def __repr__(self):
        return "GroebnerBasis(%d elements, maxdeg=%d)" % (len(self), self.maxdeg)


def buchberger(relations, ring, maxdeg):
    """Degree-truncated Buchberger on homogeneous generators over F_p.

    The queue holds the relations and the S-pairs, taken by topdeg (normal
    selection for the pairs, whose topdeg is that of their lcm).  At each
    topdeg the relations come first, in input order, then the pairs in the
    order they were formed; the product and chain criteria skip pairs.  A
    relation or S-polynomial is reduced by the elements found so far and
    kept if its normal form is nonzero.  Elements are found in nondecreasing
    topdeg, each reduced by every earlier one, so no leading monomial divides
    another: every element found is minimal.  Leads of disjoint supports
    are coprime, so their pair's topdeg is the sum of theirs, and the
    product criterion skips it.  Any other pair's lcm is Packing.lcm of the
    two leads, and its S-polynomial is formed negated from the two negated
    tails, unreduced; the normal form is made monic and negated in one
    pass.  Returns that basis, tails as found, with the run's counters
    (STAT_KEYS) in its stats.
    """
    p = ring.p
    pk = Packing(ring.topdegs, maxdeg)
    weights, kappa, guard = ring.topdegs, pk.kappa, pk.guard
    shifts, emax = pk.shifts, pk.emax
    pop, push = heapq.heappop, heapq.heappush
    pushed = popped = product = chain = reductions = zeros = steps = 0

    # per element: the support of its lead, its weighted exponents e_i w_i
    # (their maxima sum to a pair's topdeg) and its topdeg, the (leading
    # key, tail) divisor _reduce takes, and done, whose bit k is set once
    # the pair with element k has been popped
    sups, wexps, degs, divisors, done = [], [], [], [], []

    # entries (topdeg, seq, i, j) for the pair of elements i and j, seq the
    # count of pairs formed before it, and (topdeg, seq, terms, None) for a
    # relation, seq negative and rising in input order; homogeneous, so one
    # term gives a relation's topdeg
    heap = []
    for r in relations:
        if r.terms:
            d = sum(map(mul, next(iter(r.terms)), weights))
            if d <= maxdeg:
                heap.append((d, len(heap) - len(relations), r.terms, None))
    heapq.heapify(heap)

    while heap:
        d, seq, i, j = pop(heap)
        if seq < 0:
            work = {sum(map(mul, m, kappa)): c for m, c in i.items()}
        else:
            popped += 1
            done[i] |= 1 << j
            done[j] |= 1 << i
            if d == degs[i] + degs[j]:
                product += 1
                continue
            key = pk.lcm(divisors[i][0], divisors[j][0])
            x = key | guard
            both = done[i] & done[j]
            while both:
                bit = both & -both
                if (x - divisors[bit.bit_length() - 1][0]) & guard == guard:
                    break
                both ^= bit
            if both:
                chain += 1
                continue
            # minus the S-polynomial; its leading terms cancel
            work = {key + off: c for off, c in divisors[i][1]}
            get = work.get
            for off, c in divisors[j][1]:
                work[key + off] = get(key + off, 0) - c
        # every element found so far has topdeg <= d
        h, n = _reduce(work, divisors, pk, p)
        reductions += 1
        steps += n
        if not h:
            zeros += 1
            continue
        items = iter(h.items())
        lead, c = next(items)
        neg = p - ring.coeff_inv(c)
        sup = pk.support(lead)
        we = tuple([(lead >> s & emax) * w for s, w in zip(shifts, weights)])
        # leads of disjoint supports are coprime: the lcm's topdeg is the sum
        for k, f in enumerate(wexps):
            lcm_deg = sum(map(max, f, we)) if sups[k] & sup else d + degs[k]
            if lcm_deg <= maxdeg:
                push(heap, (lcm_deg, pushed, k, len(divisors)))
                pushed += 1
        sups.append(sup)
        wexps.append(we)
        degs.append(d)
        divisors.append((lead, tuple((k - lead, c * neg % p) for k, c in items)))
        done.append(0)

    minimal = [(d, lead, tail) for d, (lead, tail) in zip(degs, divisors)]
    stats = dict(zip(STAT_KEYS, (pushed, popped, product, chain, reductions,
                                 zeros, steps, len(divisors), len(minimal))))
    return GroebnerBasis(ring, pk, minimal, stats)


def groebner(pres, maxdeg):
    """Degree-truncated grevlex Groebner basis of a quotient presentation.

    The relations are homogeneous; normal forms below maxdeg are canonical.
    """
    if maxdeg < 0:
        raise ValidationError("maxdeg must be non-negative")
    return buchberger(pres.relations, pres.ring, maxdeg)


def normal_form(f, gb):
    """Canonical representative of f modulo the truncated basis.

    Idempotent and linear; errors if topdeg(f) exceeds the truncation.
    """
    if not gb.ring.same_ring(f.ring):
        raise ValidationError("polynomial not in the basis ring")
    d = f.topdeg()
    if d is not None and d > gb.maxdeg:
        raise OutOfRangeError("topdeg %d above truncation %d" % (d, gb.maxdeg))
    pk = gb._packing
    terms, _ = _reduce({pk.pack(m): c for m, c in f.terms.items()},
                       [(x, t) for _, x, t in gb._minimal], pk, gb.ring.p)
    return Polynomial(gb.ring, {pk.unpack(k): c for k, c in terms.items()})


# ---------------------------------------------------------------------------
# Hilbert series


def _minimal(gens, guard, maxdeg):
    """The minimal generators of topdeg <= maxdeg among gens, (topdeg, key)
    pairs, sorted: a pairwise divisibility scan in topdeg order."""
    mins = []
    for d, x in sorted(set(gens)):
        if d > maxdeg:
            break
        y = x | guard
        for _, g in mins:
            if (y - g) & guard == guard:
                break
        else:
            mins.append((d, x))
    return mins


def _k_numerator(mins, pk, weights, maxdeg):
    """Numerator K of HS(S/(mins)) = K / prod(1 - q^w), truncated at maxdeg.

    mins are (topdeg, key) pairs of monomials in the fields of the packing
    pk, minimal (none divides another) and of topdeg <= maxdeg.  Pivot
    recursion K(I) = K(I + (p)) + q^deg(p) K(I : p) on p = x_i^e, where x_i
    lies in the most generators and e is the median exponent of x_i over
    those of them that are not pure powers; e stays below the pure power of
    x_i in I, so p is never in I.  Both children stay minimal: p divides
    exactly the generators whose x_i field is at least e and is divided by
    none, so the pivot child drops those and adds p with no scan.  The colon
    lowers the x_i field of each generator by at most e, which can make one
    divide another, so only it is scanned, and generators above the
    remaining degree cannot change the truncated series and are dropped.
    The generator counts per variable come from the sum of the generators'
    support masks while there are at most emax generators, so no field of
    the sum overflows; past that they are counted field by field.  A node
    whose generators are pairwise coprime is a leaf, K = prod(1 - q^d),
    expanded from 1 only up to the running degree sum (hs_times's top), and
    the colon child's K is added, shifted by deg(p), in one slice.
    """
    fields, guard, emax = pk.fields, pk.guard, pk.emax
    # the guard bit of a field of x + fields is set when that field is not 0
    # (the expression of Packing.support, inline in this inner loop); the
    # supports are pairwise coprime exactly when their sum is their union
    seen = total = 0
    for _, x in mins:
        support = (x + fields) & guard
        seen |= support
        total += support
    if seen == total:
        out = [1] + [0] * maxdeg
        hs_times(out, numer=[d for d, _ in mins], top=0)
        return out
    if len(mins) <= emax:
        # a field's guard bit sits emax.bit_length() bits above its start
        up = emax.bit_length()
        counts = [total >> (s + up) & emax for s in pk.shifts]
    else:
        counts = [sum(1 for _, x in mins if x >> s & emax) for s in pk.shifts]
    i = counts.index(max(counts))
    s, w = pk.shifts[i], weights[i]
    # a generator is a pure power of x_i when x_i carries all its topdeg
    exps = sorted([f for d, x in mins
                   if (f := x >> s & emax) and f * w < d])
    e = exps[len(exps) // 2]
    shift = e * w
    # the colon lowers each x_i field by min(field, e); p goes first in the
    # pivot child, since a leaf expands its factors in order
    pivot = [(d, x) for d, x in mins if x >> s & emax < e]
    colon = [(d - shift, x - (e << s)) for d, x in mins if x >> s & emax >= e]
    colon += [(d - f * w, x - (f << s))
              for d, x in pivot for f in (x >> s & emax,)]
    out = _k_numerator([(shift, e << s)] + pivot, pk, weights, maxdeg)
    colon = _minimal(colon, guard, maxdeg - shift)
    out[shift:] = map(add, out[shift:],
                      _k_numerator(colon, pk, weights, maxdeg - shift))
    return out


def _standard_monomial_dims(mins, pk, weights, maxdeg):
    """Count monomials of each topdeg <= maxdeg divisible by none of mins.

    mins are (topdeg, key) pairs in the fields of the packing pk, minimal
    and of topdeg <= maxdeg, as buchberger's leading monomials are.
    Bayer-Stillman pivot recursion (J. Symb. Comp. 14, 1992) with Bigatti's
    pivot choice (Comm. Algebra 25, 1997) on their monomial ideal, in exact
    integers: the truncated numerator divided by prod(1 - q^w) over the
    variable weights.  Every topdeg is a multiple of g, the gcd of the
    weights, so the recursion runs on topdegs divided by g and the dims of
    the other degrees are 0.
    """
    g = gcd(*weights) or 1
    top = maxdeg // g
    weights = [w // g for w in weights]
    dims = _k_numerator([(d // g, x) for d, x in mins], pk, weights, top)
    hs_times(dims, denom=weights)
    out = [0] * (maxdeg + 1)
    out[::g] = dims
    return out


def hilbert_series(pres, maxdeg):
    """Graded dimensions of the quotient: counts of standard monomials per topdeg.

    The counts come from the truncated Bayer-Stillman pivot recursion
    (J. Symb. Comp. 14, 1992; Bigatti, Comm. Algebra 25, 1997) on the
    leading-monomial ideal of the truncated Groebner basis, its minimal
    generators read in their packed form; the basis's tails are never
    reduced.
    """
    gb = groebner(pres, maxdeg)
    leads = [(d, x) for d, x, _ in gb._minimal]
    return HilbertSeries(_standard_monomial_dims(leads, gb._packing,
                                                 pres.ring.topdegs, maxdeg))
