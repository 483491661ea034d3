"""Torsion indices: exact gcd computation for the odd orthogonal groups,
witness products and the factor-counting bound for the exceptional ones.

The integral flag ring of the odd orthogonal group is presented on torus
variables t_i and even classes y_{2i} by the relations c_i - 2 y_{2i} and
the quadratic J-relations.  The J-display carries a boundary-term sign
ambiguity, so the builder tries both readings and keeps one by the
free-rank criterion: graded ranks must match the product of the exterior
series on y_2..y_{2l} with the torus-coinvariant series, with a rank-one
top piece generated by the fundamental class.

Degree-truncated Groebner bases are computed over Q after eliminating the
variables that occur monically; normal forms are then checked for
integrality against the fundamental class (the verified generator of the
top piece), never via integer matrix normal forms: the top piece has rank
one, so the subgroup index is a gcd of integer coordinates.

Witness products multiply transgression leading terms p^s * (body) inside
the truncated ring P(y)/p; truncation-to-zero is the mod-higher-filtration
computation, and the discarded torus tails are exactly what the witness
bound absorbs.
"""

from fractions import Fraction
from math import gcd, log2

from .catalog import WitnessPolynomial, lookup_model, sharp_data, witness_annotation
from .errors import (
    DataMissingError,
    InternalInconsistencyError,
    ValidationError,
)
from .groebner import (
    GroebnerBasis,
    _standard_monomial_dims,
    buchberger,
    hs_times,
    normal_form,
)
from .ring import COEFF_Q, GradedVariable, Polynomial, PolyRing
from .symclass import elementary_symmetric


# ---------------------------------------------------------------------------
# the integral orthogonal flag ring


class IntegralFlagRing:
    """Reduced presentation of the integral flag ring of SO(2l+1), with a
    truncated rational basis and a verified rank-one top piece."""

    __slots__ = ("l", "convention", "full_ring", "relations", "ring", "gb",
                 "elim_chain", "expected_rank", "topdim", "ranks",
                 "top_monomial", "fundamental_coeff", "integer_basis")

    def __init__(self, l, convention, full_ring, relations, ring, gb,
                 elim_chain, ranks, top_monomial, fundamental_coeff,
                 integer_basis):
        self.l = l
        self.convention = convention
        self.full_ring = full_ring
        self.relations = relations
        self.ring = ring
        self.gb = gb
        self.elim_chain = elim_chain
        self.expected_rank = 2 ** l * _factorial(l)
        self.topdim = 2 * l * l
        self.ranks = ranks
        self.top_monomial = top_monomial
        self.fundamental_coeff = fundamental_coeff
        self.integer_basis = integer_basis

    def reduce_full(self, poly):
        """Map a polynomial on the full variable set through the eliminations
        and take its normal form."""
        for assignment in self.elim_chain:
            poly = poly.substitute(assignment)
        return normal_form(poly, self.gb)


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def integral_flag_variables(l):
    return ([GradedVariable("t%d" % i, 2) for i in range(1, l + 1)]
            + [GradedVariable("y%d" % (2 * i), 2 * i) for i in range(1, l + 1)])


def integral_flag_relations(l, convention):
    """Relations c_i - 2 y_{2i} and J_{2i} on the full variable set.

    convention "c-form": J_{2i} = y_{4i} + sum_{0<j<2i} (-1)^j y_{2j} y_{4i-2j}
    (the expansion of the quarter-sum of signed products of the symmetric
    functions); "display-form" flips the sign of the middle sum.
    """
    ring = PolyRing(integral_flag_variables(l), COEFF_Q)
    rels = []
    for i in range(1, l + 1):
        rels.append(elementary_symmetric(l, i, ring=ring)
                    - ring.gen("y%d" % (2 * i)).scale(2))
    sign = 1 if convention == "c-form" else -1
    for i in range(1, l + 1):
        J = ring.zero()
        if 2 * i <= l:
            J = J + ring.gen("y%d" % (4 * i))
        for j in range(1, 2 * i):
            if j <= l and 2 * i - j <= l:
                term = ring.gen("y%d" % (2 * j)) * ring.gen("y%d" % (4 * i - 2 * j))
                J = J + term.scale(sign * (-1) ** j)
        if J.is_zero():
            raise InternalInconsistencyError("empty quadratic relation")
        rels.append(J)
    return ring, rels


def _drop_variable(poly, target_ring, index):
    terms = {}
    for m, c in poly.terms.items():
        if m[index] != 0:
            raise InternalInconsistencyError("variable not eliminated cleanly")
        terms[m[:index] + m[index + 1:]] = c
    return Polynomial(target_ring, terms)


def _eliminate_monic(ring, relations):
    """Substitute away variables that occur as a unit-coefficient linear term
    of some relation and nowhere else in that relation."""
    chain = []
    rels = [r for r in relations if not r.is_zero()]
    changed = True
    while changed:
        changed = False
        for ri, r in enumerate(rels):
            found = None
            for m, c in r.terms.items():
                if sum(m) != 1 or abs(c) != 1:
                    continue
                v = m.index(1)
                if all(mm[v] == 0 for mm in r.terms if mm != m):
                    found = (v, c)
                    break
            if found is None:
                continue
            v, c = found
            vname = ring.variables[v].name
            new_ring = PolyRing(ring.variables[:v] + ring.variables[v + 1:],
                                ring.coeff)
            rest = Polynomial(ring, {m: cc for m, cc in r.terms.items()
                                     if m[v] == 0})
            repl = _drop_variable(rest, new_ring, v).scale(-c)  # c in {1,-1}
            assignment = {vname: repl}
            chain.append(assignment)
            new_rels = []
            for j, other in enumerate(rels):
                if j == ri:
                    continue
                sub = other.substitute(assignment)
                if not sub.is_zero():
                    new_rels.append(sub)
            rels = new_rels
            ring = new_ring
            changed = True
            break
    return ring, rels, chain


def _coinvariant_series(l, maxdeg):
    """prod_{i=1..l} (1 + q^2 + ... + q^{2(i-1)}): the torus coinvariant series."""
    series = [1] + [0] * maxdeg
    hs_times(series, numer=[2 * i for i in range(1, l + 1)], denom=[2] * l)
    return series


def _expected_flag_series(l):
    """The coinvariant series times the exterior series prod_{i=1..l} (1 + q^{2i})."""
    maxdeg = 2 * l * l
    series = _coinvariant_series(l, maxdeg)
    hs_times(series, numer=[4 * i for i in range(1, l + 1)],
             denom=[2 * i for i in range(1, l + 1)])
    return series


def _standard_monomials_of_degree(gb, ring, deg):
    out = []
    lts = gb.leading_monomials()
    degs = ring.topdegs
    nvars = ring.nvars
    exps = [0] * nvars

    def rec(i, remaining):
        if i == nvars:
            if remaining == 0:
                m = tuple(exps)
                if not any(all(a <= b for a, b in zip(lt, m)) for lt in lts):
                    out.append(m)
            return
        e = 0
        while e * degs[i] <= remaining:
            exps[i] = e
            rec(i + 1, remaining - e * degs[i])
            e += 1
        exps[i] = 0

    rec(0, deg)
    return out


def _flag_candidate(l, convention):
    full_ring, full_rels = integral_flag_relations(l, convention)
    ring, rels, chain = _eliminate_monic(full_ring, full_rels)
    topdim = 2 * l * l
    basis = buchberger(rels, ring, "grevlex", topdim)
    gb = GroebnerBasis("grevlex", basis, topdim, ring)

    # graded ranks must match the expected series (free-rank criterion)
    actual = _standard_monomial_dims(gb.leading_monomials(), ring, topdim)
    if actual != _expected_flag_series(l):
        return None
    ranks = actual[0::2]

    top = _standard_monomials_of_degree(gb, ring, topdim)
    if len(top) != 1:
        return None
    top_monomial = top[0]

    # monic basis with integer coefficients certifies a Z-basis of standard
    # monomials; recorded, and required for the fundamental class below
    integer_basis = all(
        all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
            for c in g.terms.values())
        for g in basis)

    # fundamental class: the full y-product times the staircase torus monomial
    f = full_ring.one()
    for i in range(1, l + 1):
        f = f * full_ring.gen("y%d" % (2 * i))
    for i in range(1, l):
        f = f * full_ring.gen("t%d" % i, l - i)
    for assignment in chain:
        f = f.substitute(assignment)
    nf = normal_form(f, gb)
    if len(nf.terms) != 1:
        return None
    coeff = nf.terms.get(top_monomial)
    if coeff is None or coeff == 0:
        return None
    # when the basis is integer-monic the standard monomials form a Z-basis
    # and the fundamental class must sit at a unit coordinate
    if integer_basis and abs(coeff) != 1:
        return None

    return IntegralFlagRing(l, convention, full_ring, full_rels, ring, gb,
                            chain, ranks, top_monomial, Fraction(coeff),
                            integer_basis)


def build_integral_flag_ring(l):
    """Build the integral flag presentation, resolving the J-sign by the
    free-rank criterion; errors if neither reading passes."""
    if not 2 <= l <= 4:
        raise ValidationError("desk-scale ranks are 2..4")
    kept = None
    passed = []
    for convention in ("c-form", "display-form"):
        cand = _flag_candidate(l, convention)
        if cand is not None:
            passed.append(convention)
            if kept is None:
                kept = cand
    if kept is None:
        raise InternalInconsistencyError(
            "no J-sign convention matches the expected free rank %d"
            % (2 ** l * _factorial(l)))
    return kept


def fundamental_coefficient(flag_ring, exps):
    """Integer coordinate of a top-degree torus monomial on the fundamental
    class; errors on non-integral coordinates."""
    full = flag_ring.full_ring
    if len(exps) != flag_ring.l:
        raise ValidationError("expected a torus exponent tuple of length l")
    mono = full.one()
    for i, e in enumerate(exps):
        if e:
            mono = mono * full.gen("t%d" % (i + 1), e)
    if mono.homogeneous_topdeg() != flag_ring.topdim:
        raise ValidationError("monomial degree must equal the top dimension")
    nf = flag_ring.reduce_full(mono)
    if nf.is_zero():
        return 0
    if len(nf.terms) != 1 or flag_ring.top_monomial not in nf.terms:
        raise InternalInconsistencyError("top normal form not on the top basis")
    coord = Fraction(nf.terms[flag_ring.top_monomial]) / flag_ring.fundamental_coeff
    if coord.denominator != 1:
        raise InternalInconsistencyError(
            "non-integral top coordinate %s" % (coord,))
    return int(coord)


def _top_t_monomial_coefficients(flag_ring):
    """Coordinates of every top-degree torus monomial, by layered reduction."""
    l = flag_ring.l
    full = flag_ring.full_ring
    # torus generators mapped through the eliminations once
    t_images = []
    for i in range(1, l + 1):
        g = full.gen("t%d" % i)
        for assignment in flag_ring.elim_chain:
            g = g.substitute(assignment)
        t_images.append(g)
    half = flag_ring.topdim // 2
    layer = {(0,) * l: flag_ring.ring.one()}
    for _ in range(half):
        nxt = {}
        for exps, nf in layer.items():
            # extending only at positions up to the first nonzero enumerates
            # each monomial along exactly one path
            i = next((k for k, e in enumerate(exps) if e), l - 1)
            for j in range(i + 1):
                new = list(exps)
                new[j] += 1
                key = tuple(new)
                if key in nxt:
                    continue
                nxt[key] = normal_form(nf * t_images[j], flag_ring.gb)
        layer = nxt
    out = {}
    for exps, nf in layer.items():
        if nf.is_zero():
            out[exps] = 0
            continue
        if len(nf.terms) != 1 or flag_ring.top_monomial not in nf.terms:
            raise InternalInconsistencyError("top normal form off the top basis")
        coord = Fraction(nf.terms[flag_ring.top_monomial]) / flag_ring.fundamental_coeff
        if coord.denominator != 1:
            raise InternalInconsistencyError("non-integral top coordinate")
        out[exps] = int(coord)
    return out


def torsion_index_so(l, return_details=False):
    """gcd over all top-degree torus monomials of their coordinates on the
    fundamental class: the exact torsion index of the odd orthogonal group."""
    flag_ring = build_integral_flag_ring(l)
    coeffs = _top_t_monomial_coefficients(flag_ring)
    value = 0
    for c in coeffs.values():
        value = gcd(value, abs(c))
    if value == 0:
        raise InternalInconsistencyError("no torus monomial hits the top cell")
    if return_details:
        return value, {"monomials_checked": len(coeffs),
                       "convention": flag_ring.convention,
                       "rank": sum(flag_ring.ranks)}
    return value


# ---------------------------------------------------------------------------
# bounds and witnesses


def marlin_bound(l):
    """2^(l - floor(log2 l) - 1): the classical divisibility bound for the
    spin-group torsion index."""
    if l < 1:
        raise ValidationError("rank must be positive")
    return 2 ** (l - int(log2(l)) - 1)


def witness_product(model, indices):
    """Product of transgression leading witnesses inside P(y)/p.

    Exponents add; bodies multiply with the truncations applied.  An index
    whose entry has no leading term is a data error, never zero.
    """
    s = 0
    body = model.y_ring().one()
    for idx in indices:
        entry = model.entry(idx)
        if entry.leading is None:
            raise DataMissingError(
                "entry %r of %s has no leading witness"
                % (idx, model.descriptor.label()))
        s += entry.leading.s
        body = model.reduce_y(body * entry.leading.body)
    return WitnessPolynomial(s, body)


def sharp_y_bound(model, k):
    """Maximum total factor count over admissible products of at most k
    leading witnesses, by exhaustive search over the stored count data."""
    data = sharp_data(model)
    if data is None:
        raise DataMissingError("no counting data stored for %s"
                               % model.descriptor.label())
    if k < 0:
        raise ValidationError("factor bound must be non-negative")
    indices = sorted(data.options)
    best = [None]

    def rec(i, used, total):
        if i == len(indices):
            for idx, mn in data.min_uses.items():
                if used.get(idx, 0) < mn:
                    return
            if best[0] is None or total > best[0]:
                best[0] = total
            return
        idx = indices[i]
        cap = data.max_uses.get(idx, k)
        value = max(data.options[idx])
        count = 0
        while count <= cap and sum(used.values()) + count <= k:
            used[idx] = count
            rec(i + 1, used, total + count * value)
            count += 1
        used.pop(idx, None)

    rec(0, {}, 0)
    return best[0] if best[0] is not None else 0


def sharp_of_y_top(model):
    """Factor count of the top class: the sum of top exponents."""
    return sum(g.trunc - 1 for g in model.y_gens)


def torsion_index(model):
    """(value, verification level) for the model.

    EXACT: the gcd method ran (odd orthogonal, desk-scale rank).
    UPPER-WITNESS: a witness product confirms value <= p^s with s matching.
    UPPER+COUNT: witness plus the counting lower bound pin the value.
    TABLE: stored value only.
    """
    desc = model.descriptor
    stored = desc.torsion_index_p
    if desc.family == "SO_odd" and 2 <= desc.rank <= 4:
        value = torsion_index_so(desc.rank)
        if stored is not None and value != stored:
            raise InternalInconsistencyError(
                "computed index %d disagrees with the stored %d" % (value, stored))
        return value, "EXACT"
    ann = witness_annotation(model)
    if ann is not None and stored is not None:
        w = witness_product(model, ann.indices)
        if w.s != ann.expected_exponent or w.body != model.y_top():
            raise InternalInconsistencyError(
                "witness product of %s does not reduce to p^s * top class"
                % desc.label())
        p = desc.prime
        if p ** w.s != stored and not (stored == 1 and w.s == 0):
            raise InternalInconsistencyError(
                "witness exponent %d does not match the stored index %d"
                % (w.s, stored))
        if desc.key() == ("E8", 8, 2):
            bound = sharp_y_bound(model, w.s - 1)
            if bound < sharp_of_y_top(model):
                return stored, "UPPER+COUNT"
            raise InternalInconsistencyError(
                "counting bound %d fails to separate the top class" % bound)
        return stored, "UPPER-WITNESS"
    if stored is not None:
        return stored, "TABLE"
    raise DataMissingError("no torsion data for %s" % desc.label())


def witness_submultisets_nonzero(model, indices):
    """Every sub-multiset of a valid witness keeps a nonzero body."""
    from itertools import combinations
    idx = list(indices)
    seen = set()
    for r in range(len(idx) + 1):
        for combo in combinations(range(len(idx)), r):
            key = tuple(sorted(idx[i] for i in combo))
            if key in seen:
                continue
            seen.add(key)
            w = witness_product(model, key)
            if w.body.is_zero():
                return False, key
    return True, None


def spin17_nonzero_products():
    """The two stored nonzero products for the rank-8 spin case: the plain
    witness, and the variant routing one factor through its level-1 term."""
    model = lookup_model("Spin_odd", 8, 2)
    plain = witness_product(model, [3, 5, 6, 7])
    ok_plain = plain.s == 4 and plain.body == model.y_top()
    partial = witness_product(model, [3, 6, 7])
    v1_body = None
    for n, body in model.entry(4).v_terms:
        if n == 1:
            v1_body = body
    if v1_body is None:
        raise DataMissingError("missing level-1 term on entry 4")
    mixed = model.reduce_y(partial.body * v1_body)
    ok_mixed = partial.s == 3 and mixed == model.y_top()
    return {"plain": ok_plain, "with_v1_factor": ok_mixed,
            "plain_exponent": plain.s, "mixed_exponent": partial.s}
