"""Degree-truncated Groebner bases, normal forms and Hilbert series.

All ideals here are homogeneous in the topological grading, so a Buchberger
run that discards every S-pair whose lcm exceeds the truncation degree yields
canonical normal forms for every polynomial at or below that degree,
whatever the monomial order.  Nothing ever attempts a full basis.

Orders are descriptors: "grevlex", "lex", or ("block", k) which compares the
first k variables grevlex-first (elimination order, used with y-variables in
the leading block).
"""

import heapq

from .errors import OutOfRangeError, ValidationError
from .ring import Polynomial, PolyRing


# ---------------------------------------------------------------------------
# monomial orders


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
    raise ValidationError("unknown monomial order %r" % (order,))


def leading_term(poly, key):
    m = max(poly.terms, key=key)
    return m, poly.terms[m]


def _divides(m, target):
    return all(a <= b for a, b in zip(m, target))


def _monomial_div(target, m):
    return tuple(b - a for a, b in zip(m, target))


def _monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# presentations and series


class QuotientPresentation:
    """A graded polynomial ring plus a list of homogeneous relations."""

    __slots__ = ("variables", "coeff", "relations", "ring", "note")

    def __init__(self, variables, coeff, relations, note=None):
        self.ring = PolyRing(variables, coeff)
        self.variables = self.ring.variables
        self.coeff = self.ring.coeff
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

    def dim(self, d):
        return self.dims[d] if 0 <= d < len(self.dims) else 0

    def total(self):
        return sum(self.dims)

    def truncated(self, maxdeg):
        dims = self.dims[:maxdeg + 1]
        dims += [0] * (maxdeg + 1 - len(dims))
        return HilbertSeries(dims)

    def __eq__(self, other):
        return isinstance(other, HilbertSeries) and self.dims == other.dims

    def __repr__(self):
        return "HilbertSeries(%r)" % (self.dims,)


def hs_product(a, b, maxdeg):
    """Truncated Cauchy product of two integer series."""
    da = a.dims if isinstance(a, HilbertSeries) else list(a)
    db = b.dims if isinstance(b, HilbertSeries) else list(b)
    dims = [0] * (maxdeg + 1)
    for i, x in enumerate(da):
        if i > maxdeg or x == 0:
            continue
        for j, y in enumerate(db):
            if i + j > maxdeg:
                break
            dims[i + j] += x * y
    return HilbertSeries(dims)


def hs_from_degrees(degrees, maxdeg):
    """Series of a graded basis given as a degree multiset."""
    dims = [0] * (maxdeg + 1)
    for d in degrees:
        if 0 <= d <= maxdeg:
            dims[d] += 1
    return HilbertSeries(dims)


def hs_times(dims, numer=(), denom=()):
    """Multiply a truncated series in place by prod(1 - q^a) / prod(1 - q^b).

    dims is a list of coefficients of q^0..q^maxdeg; numer and denom are
    degree lists.  Every denominator factor has constant term 1, so the
    division is exact modulo q^(maxdeg+1).  (1 + q^d) is (1 - q^2d)/(1 - q^d)
    and the geometric factor 1 + q^s + ... + q^((c-1)s) is
    (1 - q^cs)/(1 - q^s).
    """
    n = len(dims)
    for a in numer:
        if a < 0:
            raise ValidationError("factor degree must be non-negative, got %r" % (a,))
        for k in range(n - 1, a - 1, -1):
            dims[k] -= dims[k - a]
    for b in denom:
        if b < 1:
            raise ValidationError("divisor degree must be positive, got %r" % (b,))
        for k in range(b, n):
            dims[k] += dims[k - b]


# ---------------------------------------------------------------------------
# Buchberger


class GroebnerBasis:
    """A reduced, degree-truncated basis over a field, leading coefficients 1."""

    __slots__ = ("order", "basis", "maxdeg", "ring", "_key", "_lts")

    def __init__(self, order, basis, maxdeg, ring):
        self.order = order
        self.basis = tuple(basis)
        self.maxdeg = maxdeg
        self.ring = ring
        self._key = order_key(order, ring)
        self._lts = tuple(leading_term(g, self._key)[0] for g in self.basis)

    def leading_monomials(self):
        return self._lts

    def __repr__(self):
        return "GroebnerBasis(order=%r, %d elements, maxdeg=%d)" % (
            self.order, len(self.basis), self.maxdeg)


def _reduce_full(poly, basis, lts, key, ring):
    """Full normal form of poly against basis (leading coefficients units)."""
    result = {}
    work = dict(poly.terms)
    norm = ring.normalize_coeff
    while work:
        lt = max(work, key=key)
        lc = work[lt]
        for g, glt in zip(basis, lts):
            if _divides(glt, lt):
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


def _monic(poly, key, ring):
    lt, lc = leading_term(poly, key)
    if lc == 1:
        return poly
    return poly.scale(ring.coeff_inv(lc))


def buchberger(relations, ring, order, maxdeg):
    """Degree-truncated Buchberger on homogeneous generators over a field."""
    key = order_key(order, ring)
    basis = []
    for r in relations:
        if r.is_zero():
            continue
        d = r.homogeneous_topdeg()
        if d is not None and d <= maxdeg:
            basis.append(_monic(r, key, ring))
    lts = [leading_term(g, key)[0] for g in basis]

    # pair queue ordered by lcm topdeg (normal selection)
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

    for j in range(len(basis)):
        push_pairs(j)

    done = set()
    while heap:
        d, _, i, j, lcm = heapq.heappop(heap)
        if d > maxdeg:
            break
        done.add((i, j))
        # product criterion
        if tuple(a + b for a, b in zip(lts[i], lts[j])) == lcm:
            continue
        # chain criterion
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
            continue
        gi, gj = basis[i], basis[j]
        si = gi.mul_term(_monomial_div(lcm, lts[i]), 1)
        sj = gj.mul_term(_monomial_div(lcm, lts[j]), 1)
        s = si - sj
        h = _reduce_full(s, basis, lts, key, ring)
        if not h.is_zero():
            basis.append(_monic(h, key, ring))
            lts.append(leading_term(basis[-1], key)[0])
            push_pairs(len(basis) - 1)

    # minimalize: drop elements whose LM is divisible by another LM
    keep = []
    for i, g in enumerate(basis):
        if any(j != i and _divides(lts[j], lts[i])
               and (lts[j] != lts[i] or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    min_lts = [lts[i] for i in keep]
    # reduce tails for canonical output
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        olts = min_lts[:i] + min_lts[i + 1:]
        reduced.append(_monic(_reduce_full(g, others, olts, key, ring), key, ring))
    reduced.sort(key=lambda g: (g.homogeneous_topdeg(),
                                key(leading_term(g, key)[0])))
    return reduced


def groebner(pres, maxdeg, order="grevlex"):
    """Degree-truncated Groebner basis of a quotient presentation.

    Requires field coefficients (F_p or Q) and homogeneous relations; normal
    forms below maxdeg are canonical.
    """
    if pres.coeff[0] == "Z":
        raise ValidationError("groebner needs field coefficients (F_p or Q), "
                              "not Z")
    if maxdeg < 0:
        raise ValidationError("maxdeg must be non-negative")
    basis = buchberger(pres.relations, pres.ring, order, maxdeg)
    return GroebnerBasis(order, basis, maxdeg, pres.ring)


def normal_form(f, gb):
    """Canonical representative of f modulo the truncated basis.

    Idempotent and linear; errors if topdeg(f) exceeds the truncation.
    """
    if not gb.ring.same_ring(f.ring):
        raise ValidationError("polynomial not in the basis ring")
    d = f.topdeg()
    if d is not None and d > gb.maxdeg:
        raise OutOfRangeError("topdeg %d above truncation %d" % (d, gb.maxdeg))
    return _reduce_full(f, gb.basis, gb.leading_monomials(), gb._key, gb.ring)


# ---------------------------------------------------------------------------
# Hilbert series and regular sequences


def _k_numerator(gens, weights, maxdeg):
    """Numerator K of HS(S/(gens)) = K / prod(1 - q^w), truncated at maxdeg.

    Pivot recursion K(I) = K(I + (p)) + q^deg(p) K(I : p) on p = x_i^e, where
    x_i lies in the most minimal generators and e is the median exponent of
    x_i over those of them that are not pure powers; e stays below the pure
    power of x_i in I, so p is never in I.  Generators above the remaining
    degree cannot change the truncated series and are dropped.
    """
    out = [0] * (maxdeg + 1)
    if maxdeg < 0:
        return out
    out[0] = 1
    mins = []
    for d, m in sorted({(sum(a * w for a, w in zip(m, weights)), m) for m in gens}):
        if d > maxdeg:
            break
        if not any(_divides(g, m) for _, g in mins):
            mins.append((d, m))
    counts = [sum(1 for _, m in mins if m[i]) for i in range(len(weights))]
    most = max(counts, default=0)
    if most <= 1:
        # pairwise coprime supports
        hs_times(out, numer=[d for d, _ in mins])
        return out
    i = counts.index(most)
    exps = sorted(m[i] for _, m in mins if 0 < m[i] < sum(m))
    e = exps[len(exps) // 2]
    gens = [m for _, m in mins]
    pivot = tuple(e if j == i else 0 for j in range(len(weights)))
    out = _k_numerator(gens + [pivot], weights, maxdeg)
    shift = e * weights[i]
    colon = [m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in gens]
    for k, c in enumerate(_k_numerator(colon, weights, maxdeg - shift)):
        out[k + shift] += c
    return out


def _standard_monomial_dims(lts, ring, maxdeg):
    """Count monomials of each topdeg <= maxdeg not divisible by any leading monomial.

    Bayer-Stillman pivot recursion (J. Symb. Comp. 14, 1992) with Bigatti's
    pivot choice (Comm. Algebra 25, 1997) on the monomial ideal of lts, in
    exact integers: the truncated numerator divided by prod(1 - q^w) over
    the variable weights.
    """
    dims = _k_numerator(lts, ring.topdegs, maxdeg)
    hs_times(dims, denom=ring.topdegs)
    return dims


def hilbert_series(pres, maxdeg, order="grevlex"):
    """Graded dimensions of the quotient: counts of standard monomials per topdeg.

    The counts come from the truncated Bayer-Stillman pivot recursion
    (J. Symb. Comp. 14, 1992; Bigatti, Comm. Algebra 25, 1997) on the
    leading-monomial ideal of the truncated Groebner basis.
    """
    gb = groebner(pres, maxdeg, order)
    return HilbertSeries(_standard_monomial_dims(gb.leading_monomials(),
                                                 pres.ring, maxdeg))


def is_regular_sequence(ambient, seq, maxdeg):
    """Series test: HS(ambient/seq) == HS(ambient) * prod(1 - q^{d_i}) up to maxdeg."""
    degs = []
    for f in seq:
        if f.is_zero() or not f.is_homogeneous():
            return False
        degs.append(f.homogeneous_topdeg())
    ambient_hs = hilbert_series(ambient, maxdeg)
    quotient = QuotientPresentation(ambient.variables, ambient.coeff,
                                    list(ambient.relations) + list(seq))
    quotient_hs = hilbert_series(quotient, maxdeg)
    expected = list(ambient_hs.dims)
    hs_times(expected, numer=degs)
    return quotient_hs.dims == expected
