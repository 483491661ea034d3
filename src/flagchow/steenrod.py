"""Steenrod squares on orthogonal generators, Milnor operations from the
transgression table.

A square Sq^k on a generator of the orthogonal family is a GeneratorTerm,
a formal sum of basis symbols (x_names, y_exponents): here zero, one odd
generator or one y-class.  A Milnor operation Q_n on a generator is a
polynomial in the model's P(y), read from the generator's transgression
entry alone; the stored operation rules are not consulted.  Out-of-range
targets evaluate to zero (range truncation); an operation whose value is
not recorded and not forced to zero raises, never returning a silent zero.
"""

from .catalog import lookup_model
from .errors import DataMissingError, UnsupportedCaseError, ValidationError
from .symclass import lucas_binomial

_SO_FAMILIES = ("SO_odd", "SO_even", "Spin_odd")


class GeneratorTerm:
    """Formal F_p sum over symbols ((x_1,..,x_k), y_exps)."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model, coeffs):
        self.model = model
        self.coeffs = coeffs

    @classmethod
    def zero(cls, model):
        return cls(model, {})

    @classmethod
    def from_x(cls, model, name):
        unit = (0,) * len(model.y_gens)
        return cls(model, {((model.x_gen(name).name,), unit): 1})

    @classmethod
    def from_y_poly(cls, model, poly):
        return cls(model, {((), m): c for m, c in poly.terms.items()})

    def is_zero(self):
        return not self.coeffs

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


def q_milnor(model, gen, n):
    """Milnor operation Q_n on a named generator, a polynomial in
    model.y_ring() read from the generator's transgression entry: the body
    of its leading witness p * body at n = 0, its v_n-term at n >= 1, and
    zero at a level a complete entry does not list."""
    if n < 0:
        raise ValidationError("operation level must be non-negative")
    if any(g.name == gen for g in model.y_gens):
        # y-generators of the orthogonal family are annihilated by every Q_n
        if model.family in _SO_FAMILIES:
            return model.y_ring().zero()
        raise DataMissingError(
            "Q_%d on the even generator %s is not recorded for %s"
            % (n, gen, model.label()))
    entry = model.transgression[model.x_gens.index(model.x_gen(gen))]
    lead = entry.leading
    if n == 0 and lead is not None:
        body = lead.body if lead.s == 1 else None
    else:
        body = next((b for level, b in entry.v_terms if level == n), None)
        if body is None and entry.complete:
            body = model.y_ring().zero()
    if body is None:
        raise DataMissingError(
            "Q_%d on %s is not recorded for %s"
            % (n, gen, model.label()))
    return body


def beta_preimage(model, poly):
    """Name of a generator whose Bockstein image Q_0 equals poly, else None."""
    target = model.reduce_y(poly)
    for x, entry in zip(model.x_gens, model.transgression):
        if entry.leading is not None and entry.leading.s == 1 \
                and entry.leading.body == target:
            return x.name
    return None


# ---------------------------------------------------------------------------
# the derived check resolving the index-shift convention


def derive_q1_check(l):
    """Compare Q_1 = Sq^2 Sq^1 + Sq^1 Sq^2 against the transgression table
    on the rank-l orthogonal model; returns per-generator agreement reports."""
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

    Sq^k sends x_i to x_{i+k} or to zero, so one index is followed.  The
    index is odd and in range and the shifts have odd total, so the value is
    a class of P(y): the y-class of the final even index, or zero."""
    for k in ks:
        if lucas_binomial(index, k, 2) == 0 or index + k > 2 * model.rank:
            return model.y_ring().zero()
        index += k
    cls = model.y_class(index)
    return model.y_ring().zero() if cls is None else cls
