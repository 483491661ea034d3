"""Steenrod squares on orthogonal generators, Milnor operations from the
transgression table.

A square Sq^k on a generator x_i of the orthogonal family follows one rule,
Sq^k x_i = binom(i, k) x_{i+k}, where an even index names a class of P(y):
its value is zero, one odd generator or one y-class.  A Milnor operation Q_n
on a generator is a polynomial in the model's P(y), read from the
generator's transgression entry alone; the stored operation rules are not
consulted.  Out-of-range targets evaluate to zero (range truncation); an
operation whose value is not recorded and not forced to zero raises, never
returning a silent zero.
"""

from .catalog import lookup_model
from .errors import DataMissingError, UnsupportedCaseError, ValidationError
from .symclass import lucas_binomial

_SO_FAMILIES = ("SO_odd", "SO_even", "Spin_odd")


# ---------------------------------------------------------------------------
# squares on orthogonal generators


def _sq_index(model, i, k):
    """The index j = i + k of Sq^k(x_i) on the rank-l orthogonal model, or
    None where the square is zero: binom(i, k) even, j past the range bound
    2l, or j even with no class in P(y)."""
    j = i + k
    if (lucas_binomial(i, k, 2) == 0 or j > 2 * model.rank
            or (j % 2 == 0 and model.y_class_exponents(j) is None)):
        return None
    return j


def sq_on_so_generator(i, k, model):
    """Sq^k(x_i) = binom(i, k) x_{i+k} on the rank-l orthogonal model, as
    printed: an x-generator's name, a class of P(y), or "0".  An odd i that
    names no x-generator of the model raises DataMissingError."""
    if model.family not in _SO_FAMILIES:
        raise UnsupportedCaseError(
            "binomial squaring rule only applies to the orthogonal family")
    if not 1 <= i <= 2 * model.rank:
        raise ValidationError("generator index out of range")
    if i % 2:
        model.x_gen("x%d" % i)
    j = _sq_index(model, i, k)
    if j is None:
        return "0"
    if j % 2:
        return model.x_gen("x%d" % j).name
    return model.y_class(j).pretty()


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
    for k in range(1, i):
        if lucas_binomial(i - k, k, 2) == 1:
            return True
    return False


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
    """Apply Sq^{ks[0]} then Sq^{ks[1]} ... to x_index by the binomial rule.

    Sq^k sends x_i to x_{i+k} or to zero, so one index is followed.  The
    index is odd and in range and the shifts have odd total, so the value is
    a class of P(y): the y-class of the final even index, or zero."""
    for k in ks:
        index = _sq_index(model, index, k)
        if index is None:
            return model.y_ring().zero()
    return model.y_class(index)
