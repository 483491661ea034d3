"""Torsion indices: exact degree computation for the odd orthogonal groups,
witness products and the factor-counting bound for the exceptional ones.

The torsion index of SO(2l+1) is the gcd of the degrees deg(t^a) over the
torus monomials of degree N = l^2, the number of positive roots, where the
degree map is the Demazure operator of the longest Weyl element,
deg = d_{w0} (Demazure, Invent. Math. 21, 1973; Totaro, Duke Math. J. 129,
2005).  The Weyl group of type B_l acts on the torus variables t_1..t_l:
for i < l, s_i swaps t_i and t_{i+1} (root t_i - t_{i+1}), and s_l negates
t_l (root t_l); d_i f = (f - s_i f) / alpha_i.  The degree functional is
pushed forward along the reduced word (s_1 ... s_l)^l of w0 from the point
functional, one degree at a time, through the transpose of each d_i.  Each
layer is an integer functional on the monomials of its degree, stored by
its nonzero entries: integers only, no Groebner basis, no rational
arithmetic.  Every top monomial still gets a value, zero included.  The
degree map is certified by deg(product of the positive roots, read in
closed form as an alternant) = |W| = 2^l l!, which fails when the word is
not a reduced word of w0.

Witness products multiply transgression leading terms p^s * (body) inside
the truncated ring P(y)/p; truncation-to-zero is the mod-higher-filtration
computation, and the discarded torus tails are exactly what the witness
bound absorbs.
"""

from functools import cache
from itertools import permutations
from math import factorial, gcd

from .catalog import WitnessPolynomial
from .errors import (
    DataMissingError,
    InternalInconsistencyError,
    ValidationError,
)


# ---------------------------------------------------------------------------
# the degree map of SO(2l+1)

# the desk-scale ranks, the only ones whose degree map is computed
_DESK_RANKS = range(2, 5)


def _w0_word(l):
    """The reduced word (s_1 ... s_l)^l of the longest element of W(B_l)."""
    return list(range(1, l + 1)) * l


def _push(layer, i, l):
    """The layer f -> layer(d_i f) one degree up, from the nonzero entries
    of `layer`: the transpose of the divided difference d_i."""
    pushed = {}
    if i == l:
        # d_l t^m = 2 t^(m - e_l) when the last exponent of m is odd
        for n, v in layer.items():
            if n[-1] % 2 == 0:
                pushed[n[:-1] + (n[-1] + 1,)] = 2 * v
        return pushed
    # t^n with (u, w) at i, i+1 is a term of d_i t^m, with sign +1 for
    # m = (s - lo, lo) and -1 for m = (lo, s - lo), s = u + w + 1, at each
    # lo <= min(u, w)
    for n, v in layer.items():
        head, (u, w), tail = n[:i - 1], n[i - 1:i + 1], n[i + 1:]
        s = u + w + 1
        for lo in range(min(u, w) + 1):
            up = head + (s - lo, lo) + tail
            down = head + (lo, s - lo) + tail
            pushed[up] = pushed.get(up, 0) + v
            pushed[down] = pushed.get(down, 0) - v
    return {m: c for m, c in pushed.items() if c}


def _monomials(l, k):
    """Exponent tuples of length l and total degree k, in lexicographic order."""
    if l == 1:
        return [(k,)]
    return [(a,) + rest for a in range(k + 1) for rest in _monomials(l - 1, k - a)]


@cache
def _positive_root_product(l):
    """The product of the positive roots t_i - t_j, t_i + t_j (i < j) and t_i,
    once per rank, as (exponent tuple, coefficient) pairs: the alternant
    t_1...t_l * prod_{i<j} (t_i^2 - t_j^2) = sum of sgn(s) t^s over the
    permutations s of rho = (2l-1, ..., 3, 1), sgn(s) by inversions
    (Bernstein, Gelfand and Gelfand, Russian Math. Surveys 28, 1973)."""
    return tuple(
        (m, (-1) ** sum(a < b for i, a in enumerate(m) for b in m[i + 1:]))
        for m in permutations(range(2 * l - 1, 0, -2)))


def build_integral_flag_ring(l):
    """The degree map {exponent tuple: deg(t^a)} on every torus monomial of
    degree l^2, zeros included, pushed forward through the word one layer at
    a time."""
    if l not in _DESK_RANKS:
        raise ValidationError("desk-scale ranks are 2..4")
    # after letter k of the word i_1..i_N, the layer is the functional
    # t^a -> d_{i_1} ... d_{i_k} t^a (a constant) on the degree-k monomials,
    # kept where it is not zero
    layer = {(0,) * l: 1}
    for i in _w0_word(l):
        layer = _push(layer, i, l)
    degrees = dict.fromkeys(_monomials(l, l * l), 0)
    degrees.update(layer)
    return degrees


def torsion_index_so(l, return_details=False):
    """gcd of the degrees of all torus monomials of degree l^2: the exact
    torsion index of the odd orthogonal group.  Errors unless the degree of
    the positive-root product is |W| = 2^l l!."""
    degrees = build_integral_flag_ring(l)
    order = 2 ** l * factorial(l)
    certificate = sum(c * degrees.get(m, 0)
                      for m, c in _positive_root_product(l))
    if certificate != order:
        raise InternalInconsistencyError(
            "the positive-root product has degree %d, not |W| = %d"
            % (certificate, order))
    value = gcd(*degrees.values())
    if return_details:
        return value, {"monomials_checked": len(degrees), "rank": certificate}
    return value


# ---------------------------------------------------------------------------
# bounds and witnesses


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
                % (idx, model.label()))
        s += entry.leading.s
        body = model.reduce_y(body * entry.leading.body)
    return WitnessPolynomial(s, body)


def sharp_y_bound(model, k):
    """Maximum total factor count over products of at most k leading
    witnesses, index i used at least min_uses[i] and at most max_uses[i]
    times (k when unset); each use of i counts the largest total exponent
    among the terms of its leading body, and only indices with a leading
    witness take part.  0 when the minimums cannot be met.

    A greedy fill: take every minimum, then spend the uses left on the
    largest counts first, each index up to its cap.  It is exact because
    every use adds a fixed count that does not depend on the other uses, so
    a best product never leaves a use on a smaller count while a larger one
    has room, nor spends a use on a count below 1.
    """
    data = model.sharp
    if data is None:
        raise DataMissingError("no counting data stored for %s"
                               % model.label())
    if k < 0:
        raise ValidationError("factor bound must be non-negative")
    value = {e.index: max(map(sum, e.leading.body.terms), default=0)
             for e in model.transgression if e.leading is not None}
    if any(n > 0 and i not in value for i, n in data.min_uses.items()):
        return 0
    low = {i: max(data.min_uses.get(i, 0), 0) for i in value}
    cap = {i: data.max_uses.get(i, k) for i in value}
    left = k - sum(low.values())
    if left < 0 or any(low[i] > cap[i] for i in value):
        return 0
    total = sum(low[i] * value[i] for i in value)
    for i in sorted(value, key=value.get, reverse=True):
        if left == 0 or value[i] <= 0:
            break
        extra = min(cap[i] - low[i], left)
        total += extra * value[i]
        left -= extra
    return total


def sharp_of_y_top(model):
    """Factor count of the top class: the sum of top exponents."""
    return sum(g.trunc - 1 for g in model.y_gens)


def torsion_index(model):
    """(value, verification level, details) for the model; the details are
    {"witness": the witness product}, with those of `torsion_index_so` for
    an EXACT result.

    Every level first checks the witness: its product must reduce to p^s
    times the top class, with p^s the stored index.
    EXACT: the degree gcd ran (odd orthogonal, desk-scale rank), its degree
    map passed the |W| certificate, and it equals the stored index.
    UPPER-WITNESS: the witness product confirms value <= p^s.
    UPPER+COUNT: witness plus the counting lower bound pin the value.
    A model with no witness or no stored index has no torsion data.
    """
    stored = model.torsion_index_p
    if model.witness is None or stored is None:
        raise DataMissingError("no torsion data for %s" % model.label())
    w = witness_product(model, model.witness)
    if w.body != model.y_top():
        raise InternalInconsistencyError(
            "witness product of %s does not reduce to p^s * top class"
            % model.label())
    if model.prime ** w.s != stored:
        raise InternalInconsistencyError(
            "witness exponent %d does not match the stored index %d"
            % (w.s, stored))
    if model.family == "SO_odd" and model.rank in _DESK_RANKS:
        value, details = torsion_index_so(model.rank, return_details=True)
        if value != stored:
            raise InternalInconsistencyError(
                "computed index %d disagrees with the stored %d" % (value, stored))
        return value, "EXACT", {**details, "witness": w}
    if model.key() == ("E8", 8, 2):
        bound = sharp_y_bound(model, w.s - 1)
        if bound < sharp_of_y_top(model):
            return stored, "UPPER+COUNT", {"witness": w}
        raise InternalInconsistencyError(
            "counting bound %d fails to separate the top class" % bound)
    return stored, "UPPER-WITNESS", {"witness": w}
