"""Steenrod squares on orthogonal generators, Milnor derivations from tables.

Operations act on formal sums of model generators, not on quotient-ring
normal forms.  A GeneratorTerm is an F_p-combination of basis symbols
(x_names, y_exponents): a product of distinct odd generators times a
y-monomial.  Out-of-range targets evaluate to zero (range truncation); an
operation whose value is not recorded and not forced to zero raises, never
returning a silent zero.
"""

from .catalog import lookup_model
from .errors import DataMissingError, UnsupportedCaseError, ValidationError
from .symclass import lucas_binomial

_SO_FAMILIES = ("SO_odd", "SO_even", "Spin_odd")


class GeneratorTerm:
    """Formal F_p sum over symbols ((x_1,..,x_k), y_exps)."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model, coeffs=None):
        self.model = model
        p = model.prime
        self.coeffs = {}
        for sym, c in (coeffs or {}).items():
            c %= p
            if c:
                self.coeffs[sym] = c

    @classmethod
    def zero(cls, model):
        return cls(model, {})

    @classmethod
    def from_x(cls, model, name, coef=1):
        x = model.x_gen(name)
        unit = (0,) * len(model.y_gens)
        return cls(model, {((x.name,), unit): coef})

    @classmethod
    def from_y_poly(cls, model, poly, coef=1):
        return cls(model, {((), m): c * coef for m, c in poly.terms.items()})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for sym, c in other.coeffs.items():
            out[sym] = out.get(sym, 0) + c
        return GeneratorTerm(self.model, out)

    def topdeg(self):
        degs = set()
        for (xs, yexps) in self.coeffs:
            d = sum(self.model.x_gen(n).topdeg for n in xs)
            d += sum(e * g.topdeg for e, g in zip(yexps, self.model.y_gens))
            degs.add(d)
        if len(degs) > 1:
            raise ValidationError("inhomogeneous generator sum")
        return degs.pop() if degs else None

    def __eq__(self, other):
        return (isinstance(other, GeneratorTerm)
                and self.model.key() == other.model.key()
                and self.coeffs == other.coeffs)

    def pretty(self):
        if not self.coeffs:
            return "0"
        names = [g.name for g in self.model.y_gens]
        parts = []
        for (xs, yexps), c in sorted(self.coeffs.items()):
            factors = list(xs)
            factors += ["%s^%d" % (n, e) if e > 1 else n
                        for n, e in zip(names, yexps) if e]
            body = "*".join(factors) if factors else "1"
            parts.append(body if c == 1 else "%d*%s" % (c, body))
        return " + ".join(parts)

    def __repr__(self):
        return "GeneratorTerm(%s)" % self.pretty()


# ---------------------------------------------------------------------------
# squares on orthogonal generators


def _so_symbol(model, index):
    """x_index of the rank-l orthogonal model, identifying even indices with
    y-classes; None past the range bound."""
    if index > 2 * model.rank:
        return None
    if index % 2 == 1:
        return GeneratorTerm.from_x(model, "x%d" % index)
    cls = model.y_class(index)
    if cls is None:
        return None
    return GeneratorTerm.from_y_poly(model, cls)


def sq_on_so_generator(i, k, model):
    """Sq^k(x_i) = binom(i, k) x_{i+k} on the rank-l orthogonal model."""
    if model.family not in _SO_FAMILIES:
        raise UnsupportedCaseError(
            "binomial squaring rule only applies to the orthogonal family")
    if not 1 <= i <= 2 * model.rank:
        raise ValidationError("generator index out of range")
    if k == 0:
        return _so_symbol(model, i)
    c = lucas_binomial(i, k, 2)
    if c == 0:
        return GeneratorTerm.zero(model)
    sym = _so_symbol(model, i + k)
    return GeneratorTerm.zero(model) if sym is None else sym


def sq_on_y(i, k, l):
    """Sq^{2k}(y_{2i}) = binom(i, k) y_{2(i+k)}; zero past the rank bound.

    This is the rule on x_{2i} of SO(2l+1): binom(2i, 2k) = binom(i, k)
    mod 2 by Lucas's theorem."""
    return sq_on_so_generator(2 * i, 2 * k, lookup_model("SO_odd", l, 2))


def sq_hits(i):
    """True iff some Sq^{2k} maps a lower class onto y_{2i}:
    exists i' < i, k >= 1 with i' + k = i and binom(i', k) odd."""
    if i < 1:
        raise ValidationError("index must be positive")
    return any(lucas_binomial(i - k, k, 2) == 1 for k in range(1, i))


# ---------------------------------------------------------------------------
# Milnor operations


def _q_rule(model, name, n):
    """Q_n image of one named x-generator as a y-polynomial, or None if unknown."""
    x = model.x_gen(name)
    # explicit stored rules first
    for rule in model.op_rules:
        if rule.source not in (x.name, x.alias):
            continue
        if (n == 0 and rule.op in ("beta", "Sq1", "Q0")) or rule.op == "Q%d" % n:
            if rule.target[0] == "ypoly":
                return rule.target[1]
            if rule.target[0] == "zero":
                return model.y_ring().zero()
    idx = model.x_gens.index(x)
    entry = model.transgression[idx]
    if n == 0:
        if entry.leading is not None and entry.leading.s == 1:
            return entry.leading.body
        if entry.leading is None and entry.complete:
            return model.y_ring().zero()
        return None
    for level, body in entry.v_terms:
        if level == n:
            return body
    if entry.complete:
        return model.y_ring().zero()
    return None


def q_milnor(model, gen, n):
    """Milnor derivation Q_n on a named generator or a product of two.

    Table lookup backed by the transgression data; products expand by the
    derivation rule Q_n(ab) = Q_n(a) b + (-1)^|a| a Q_n(b).
    """
    if isinstance(model, str):
        raise ValidationError("pass a CohomologyModel, then the generator name")
    if n < 0:
        raise ValidationError("operation level must be non-negative")
    if isinstance(gen, (tuple, list)):
        if len(gen) != 2:
            raise ValidationError("products of exactly two generators supported")
        a, b = gen
        qa, qb = q_milnor(model, a, n), q_milnor(model, b, n)
        xa, xb = model.x_gen(a), model.x_gen(b)
        sign = -1 if xa.topdeg % 2 == 1 else 1
        out = GeneratorTerm.zero(model)
        for (xs, yexps), c in qa.coeffs.items():
            out = out + GeneratorTerm(model, {(tuple(sorted(xs + (xb.name,))),
                                               yexps): c})
        for (xs, yexps), c in qb.coeffs.items():
            out = out + GeneratorTerm(model, {(tuple(sorted(xs + (xa.name,))),
                                               yexps): c * sign})
        return out
    if any(g.name == gen for g in model.y_gens):
        # y-generators of the orthogonal family are annihilated by every Q_n
        if model.family in _SO_FAMILIES:
            return GeneratorTerm.zero(model)
        raise DataMissingError(
            "Q_%d on the even generator %s is not recorded for %s"
            % (n, gen, model.label()))
    body = _q_rule(model, gen, n)
    if body is None:
        raise DataMissingError(
            "Q_%d on %s is not recorded for %s"
            % (n, gen, model.label()))
    return GeneratorTerm.from_y_poly(model, body)


def beta_preimage(model, poly):
    """Name of a generator whose Bockstein image equals poly, else None."""
    target = model.reduce_y(poly)
    for rule in model.op_rules:
        if rule.op in ("beta", "Sq1") and rule.target[0] == "ypoly":
            if rule.target[1] == target:
                return rule.source
    for x, entry in zip(model.x_gens, model.transgression):
        if entry.leading is not None and entry.leading.s == 1 \
                and entry.leading.body == target:
            return x.name
    return None


# ---------------------------------------------------------------------------
# the derived check resolving the index-shift convention


def derive_q1_check(l):
    """Compare Q_1 = Sq^2 Sq^1 + Sq^1 Sq^2 against the stored rule on the
    rank-l orthogonal model; returns per-generator agreement reports."""
    model = lookup_model("SO_odd", l, 2)
    reports = []
    for i in range(1, l + 1):
        src = 2 * i - 1
        derived = _compose_sq(model, src, [1, 2]) + _compose_sq(model, src, [2, 1])
        stored = q_milnor(model, "x%d" % src, 1)
        reports.append({
            "generator": "x%d" % src,
            "derived": derived.pretty(),
            "stored": stored.pretty(),
            "agree": derived == stored,
        })
    return reports


def _compose_sq(model, index, ks):
    """Apply Sq^{ks[0]} then Sq^{ks[1]} ... to x_index via the binomial rule.

    Sq^k sends x_i to x_{i+k} or to zero, so one index is followed."""
    if _so_symbol(model, index) is None:
        return GeneratorTerm.zero(model)
    for k in ks:
        if lucas_binomial(index, k, 2) == 0 or index + k > 2 * model.rank:
            return GeneratorTerm.zero(model)
        index += k
    sym = _so_symbol(model, index)
    return GeneratorTerm.zero(model) if sym is None else sym
