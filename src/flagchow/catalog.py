"""Per-group data: cohomology models, transgression tables, operation rules.

Each supported (group, prime) case is one row of the served-case table,
`_SERVED`, and one CohomologyModel, built by its row's builder, holding

  * its key (family, rank, prime) and label;
  * y-generators of the truncated polynomial part, with truncation exponents
    p^r (so y^trunc = 0), ordered by degree;
  * the odd x-generators, one per unit of rank;
  * a transgression entry per x-generator: its degree (= |x|+1), a leading
    witness p^s * (y-polynomial) when the entry has one, and v-terms
    (n, y-polynomial) recording higher periodic corrections.  A `complete`
    entry lists its full decomposition, so an absent level means zero; an
    incomplete entry only records what is known.
  * explicitly stated operation rules (Bockstein tables, power-operation
    arrows, Steenrod-square chains);
  * its torsion data, each None where the case stores none: the p-part
    t(G)_(p) of the torsion index, the witness (transgression indices whose
    leading witnesses multiply to p^s times the top class), and the sharp
    factor-count data of the counting bound.

The catalog is compiled-in static data.  The J-invariant is derived: in
every versal case it is the truncation exponent tuple.  The six restriction
tables are kept by model key, with each image a polynomial in the model's
P(y).  The checks of the stored data live here too: `validate_model` checks
each model and `restriction_check` each restriction table, both reading a
stored class through `check_class`.
"""

import collections
import functools
from itertools import zip_longest
from operator import lt, mul

from .errors import DataMissingError, UnsupportedCaseError, ValidationError
from .ring import GradedVariable, PolyRing, Polynomial, is_prime
from .symclass import t_ring


class YGen:
    __slots__ = ("name", "topdeg", "trunc")

    def __init__(self, name, topdeg, trunc):
        self.name = name
        self.topdeg = topdeg
        self.trunc = trunc


class XGen:
    __slots__ = ("name", "topdeg", "alias")

    def __init__(self, name, topdeg, alias=None):
        self.name = name
        self.topdeg = topdeg
        self.alias = alias


class WitnessPolynomial:
    """p^s * (body + higher filtration), body computed in P(y)/p."""

    __slots__ = ("s", "body")

    def __init__(self, s, body):
        if s < 0:
            raise ValidationError("p-exponent must be non-negative")
        self.s = s
        self.body = body

    def __eq__(self, other):
        return (isinstance(other, WitnessPolynomial)
                and self.s == other.s and self.body == other.body)

    def __repr__(self):
        return "WitnessPolynomial(p^%d, %s)" % (self.s, self.body.pretty())


class TransgressionEntry:
    __slots__ = ("index", "name", "topdeg", "leading", "v_terms", "complete")

    def __init__(self, index, name, topdeg, leading, v_terms, complete):
        self.index = index
        self.name = name
        self.topdeg = topdeg
        self.leading = leading
        self.v_terms = tuple(v_terms)
        self.complete = complete


class OperationRule:
    """op applied to a named generator; target is a y-polynomial or an x-gen."""

    __slots__ = ("op", "source", "target")

    def __init__(self, op, source, target):
        self.op = op
        self.source = source
        self.target = target  # ("ypoly", Polynomial) | ("xgen", name, coef)


class RestrictionTable:
    """Restriction of a surjection target's basis to a partially split form.

    The sources are the transgression entries of the model with this key,
    and images[i] is the image of the i-th: None, or (n, body) with body in
    the model's y_ring(), read as the class v_n * body; v_0 means
    multiplication by p.  expected_image holds the topdegs of the cited
    image basis, the unit's 0 included.
    """

    __slots__ = ("name", "key", "images", "expected_image")

    def __init__(self, name, key, images, expected_image):
        self.name = name
        self.key = key
        self.images = tuple(images)
        self.expected_image = tuple(expected_image)


class SharpData:
    """Use limits of the counting bound, per transgression index; each
    index's factor count is read off its leading witness."""

    __slots__ = ("min_uses", "max_uses")

    def __init__(self, min_uses=None, max_uses=None):
        self.min_uses = dict(min_uses or {})
        self.max_uses = dict(max_uses or {})


class CohomologyModel:
    """One case's data, shared by `lookup_model` and only read by callers;
    the underscored slots are this object's memos, filled on first use."""

    __slots__ = ("family", "rank", "prime", "y_gens", "x_gens", "transgression",
                 "op_rules", "torsion_index_p", "witness", "sharp", "notes",
                 "is_type_one", "dim_gt", "explicit_b",
                 "_y_ring", "_by_topdeg", "_presentation")

    def __init__(self, family, rank, prime, y_gens, x_gens, transgression,
                 op_rules, torsion_index_p=None, witness=None, sharp=None,
                 notes=(), is_type_one=False, dim_gt=None, explicit_b=None):
        self.family = family
        self.rank = rank
        self.prime = prime
        self.y_gens = tuple(y_gens)
        self.x_gens = tuple(x_gens)
        self.transgression = tuple(transgression)
        self.op_rules = tuple(op_rules)
        self.torsion_index_p = torsion_index_p
        self.witness = witness
        self.sharp = sharp
        self.notes = tuple(notes)
        self.is_type_one = is_type_one
        self.dim_gt = dim_gt
        self.explicit_b = explicit_b  # {entry index: form on the torus} or None
        self._y_ring = None
        self._by_topdeg = None
        self._presentation = None

    def key(self):
        return (self.family, self.rank, self.prime)

    def label(self):
        if self.family in ("U", "Sp"):
            return "%s(%d) p=%d" % (self.family, self.rank, self.prime)
        if self.family == "PU":
            return "PU(%d)" % self.prime
        if self.family == "SO_odd":
            return "SO(%d) p=2" % (2 * self.rank + 1)
        if self.family == "SO_even":
            return "SO(%d) p=2" % (2 * self.rank)
        if self.family == "Spin_odd":
            return "Spin(%d) p=2" % (2 * self.rank + 1)
        return "(%s, %d)" % (self.family, self.prime)

    @property
    def j_invariant(self):
        """log_p of each truncation exponent, as in every versal case."""
        return tuple(_r_of(g.trunc, self.prime) for g in self.y_gens)

    def y_ring(self):
        if self._y_ring is None:
            self._y_ring = PolyRing(
                [GradedVariable(g.name, g.topdeg) for g in self.y_gens],
                self.prime)
        return self._y_ring

    def y_top(self):
        """Product of all y-generators to their top surviving powers (1 if none)."""
        exps = tuple(g.trunc - 1 for g in self.y_gens)
        return self.y_ring().monomial(exps)

    def reduce_y(self, poly):
        """Apply the truncation relations y^trunc = 0 monomial-wise."""
        ring = self.y_ring()
        kept = {m: c for m, c in poly.terms.items()
                if all(e < g.trunc for e, g in zip(m, self.y_gens))}
        return ring.from_terms(kept.items())

    def y_class(self, topdeg):
        """The class of degree `topdeg` in P(y) as a generator power, or None.

        Used by the orthogonal families, where every even class below the
        range bound is a 2-power of a generator.
        """
        exps = self.y_class_exponents(topdeg)
        if exps is None:
            return None
        return self.y_ring().monomial(exps)

    def y_class_exponents(self, topdeg):
        """The exponent tuple of `y_class(topdeg)`, or None."""
        if self._by_topdeg is None:
            table = {}
            for i, g in enumerate(self.y_gens):
                e = 1
                while e < g.trunc:
                    exps = [0] * len(self.y_gens)
                    exps[i] = e
                    table.setdefault(g.topdeg * e, tuple(exps))
                    e *= 2 if self.prime == 2 else g.trunc  # 2-powers only at p=2
            self._by_topdeg = table
        return self._by_topdeg.get(topdeg)

    def x_gen(self, name):
        for x in self.x_gens:
            if x.name == name or x.alias == name:
                return x
        raise DataMissingError("no x-generator named %r in %s"
                               % (name, self.label()))

    def entry(self, index):
        for e in self.transgression:
            if e.index == index:
                return e
        raise DataMissingError("no transgression entry %r in %s"
                               % (index, self.label()))


# ---------------------------------------------------------------------------
# model builders
#
# A table written row by row, one row per x-generator, is one call of
# `_b_model`; the orthogonal builders set entries derived from the y-classes
# of a model made first with none.


def _trunc_exponent(m, l):
    # smallest power 2^r, r >= 1, with m * 2^r > l, that is 2^r > l // m
    return 2 ** max(1, (l // m).bit_length())


def _b_model(family, l, p, y_truncs, x_degrees, rows, entry="b_%d",
             aliased=False, op_rules=(), **fields):
    """The model of a table written row by row: `y<d>` is truncated at
    y_truncs[d], and x_i is `x<i>`, of degree x_degrees[i - 1], aliased
    `z<degree>` when `aliased`.  Given the generators of P(y), `rows` gives
    the row of each x_i (leading body or None, v-terms, complete), read as
    the entry `entry % i` of topdeg |x_i| + 1 with leading witness p * body.
    """
    ys = [YGen("y%d" % d, d, t) for d, t in y_truncs.items()]
    xs = [XGen("x%d" % i, d, "z%d" % d if aliased else None)
          for i, d in enumerate(x_degrees, start=1)]
    model = CohomologyModel(family, l, p, ys, xs, [], op_rules, **fields)
    gens = [model.y_ring().gen(g.name) for g in ys]
    model.transgression = tuple(
        TransgressionEntry(i, entry % i, x.topdeg + 1,
                           None if lead is None else WitnessPolynomial(1, lead),
                           v_terms, complete)
        for i, (x, (lead, v_terms, complete))
        in enumerate(zip(xs, rows(*gens)), start=1))
    return model


def _model_U(l, p):
    return _b_model("U", l, p, {}, range(1, 2 * l, 2),
                    lambda: [(None, [], True)] * l, entry="c_%d",
                    torsion_index_p=1, witness=(), dim_gt=l * l - l)


def _model_Sp(l, p):
    return _b_model("Sp", l, p, {}, range(3, 4 * l, 4),
                    lambda: [(None, [], True)] * l, entry="p_%d",
                    torsion_index_p=1, witness=(), dim_gt=2 * l * l)


def _model_PU(l, p):
    return _b_model("PU", l, p, {2: p}, range(1, 2 * l, 2),
                    lambda y: [(y ** i, [], False) for i in range(1, l + 1)],
                    entry="c_%d", torsion_index_p=p, witness=(l,),
                    dim_gt=p * p - p)


def _so_like_y_gens(max_even, min_oddpart=1):
    gens = []
    m = min_oddpart
    while 2 * m <= max_even:
        gens.append(YGen("y%d" % (2 * m), 2 * m, _trunc_exponent(m, max_even // 2)))
        m += 2
    return gens


def _so_transgression(model, l, skip_dead=False):
    """c_i entries with leading 2*y_{2i} and v-terms y_{2i + 2^{n+1} - 2}."""
    entries = []
    for i in range(1, l + 1):
        lead_cls = model.y_class(2 * i)
        leading = WitnessPolynomial(1, lead_cls) if lead_cls is not None else None
        v_terms = []
        n = 1
        while True:
            target = 2 * i + 2 ** (n + 1) - 2
            if target > 2 * l:
                break
            cls = model.y_class(target)
            if cls is not None:
                v_terms.append((n, cls))
            n += 1
        name = ("c'_%d" if skip_dead else "c_%d") % i
        entries.append(TransgressionEntry(i, name, 2 * i, leading, v_terms,
                                          complete=True))
    return entries


def _model_SO_odd(l, p):
    y_gens = _so_like_y_gens(2 * l)
    x_gens = [XGen("x%d" % (2 * i - 1), 2 * i - 1) for i in range(1, l + 1)]
    model = CohomologyModel(
        "SO_odd", l, p, y_gens, x_gens, [], [], torsion_index_p=2 ** l,
        witness=tuple(range(1, l + 1)), dim_gt=2 * l * l,
        notes=("periodic-operation rule on odd generators stored with the "
               "'+' index convention y_{2i + 2^{n+1} - 2}; the alternative "
               "'-' reading is rejected by the derived Q_1 check",
               "integral quadratic relations read as the signed "
               "product-sum expansion (middle sign +(-1)^j, forcing "
               "y_4 = y_2^2); the exact torsion index does not use them: "
               "it is the gcd of the Demazure degree map on the torus",))
    model.transgression = tuple(_so_transgression(model, l))
    return model


def _model_SO_even(l, p):
    y_gens = _so_like_y_gens(2 * l - 2)
    x_gens = [XGen("x%d" % (2 * i - 1), 2 * i - 1) for i in range(1, l + 1)]
    model = CohomologyModel("SO_even", l, p, y_gens, x_gens, [], [],
                            torsion_index_p=2 ** (l - 1),
                            witness=tuple(range(1, l)), dim_gt=2 * l * (l - 1))
    model.transgression = tuple(_so_transgression(model, l))
    return model


# rank -> (torsion index, witness indices); ranks 6 and 7 store neither
_SPIN_TORSION = {3: (2, (3,)), 4: (2, (3,)), 5: (2, ("z",)),
                 8: (16, (3, 5, 6, 7))}


def _model_Spin_odd(l, p):
    tpar = l.bit_length() - 1  # floor(log2 l)
    y_gens = _so_like_y_gens(2 * l, min_oddpart=3)
    torsion, witness = _SPIN_TORSION.get(l, (None, None))
    zdeg = 2 ** (tpar + 2) - 1
    x_gens = [XGen("x%d" % (2 * i - 1), 2 * i - 1) for i in range(2, l + 1)]
    x_gens.append(XGen("z%d" % zdeg, zdeg))
    model = CohomologyModel(
        "Spin_odd", l, p, y_gens, x_gens, [], [], torsion_index_p=torsion,
        witness=witness, dim_gt=2 * l * l, is_type_one=l in (3, 4),
        notes=("torsion-element list kept with coefficient 2 on the "
               "c_1-power term, matching the summary statement; the in-text "
               "corollary prints coefficient 1",
               "the stored surjection target is known to be an isomorphism "
               "by a later result; recorded as a note, not asserted",))
    trans = _so_transgression(model, l, skip_dead=True)[1:]  # c'_2 .. c'_l

    def pair_sum(total):
        ring = model.y_ring()
        acc = ring.zero()
        for a in range(1, total):
            b = total - a
            if a >= b:
                break
            ca, cb = model.y_class(2 * a), model.y_class(2 * b)
            if ca is not None and cb is not None:
                acc = acc + ca * cb
        return acc

    half = 2 ** (tpar + 1)
    lead = pair_sum(half)
    # level-n sum runs over pairs with i+j = 2^{t+1} + 2^n - 1: the degree
    # law |Q_n| = 2*2^n - 1 forces the half-shift (a doubled shift fails the
    # degree equation for every n >= 1)
    v_terms = []
    n = 1
    while 2 * (half + 2 ** n - 1) <= 4 * l:
        body = pair_sum(half + 2 ** n - 1)
        if not body.is_zero():
            v_terms.append((n, body))
        n += 1
    trans.append(TransgressionEntry(
        "z", "c_1^%d" % half, zdeg + 1,
        WitnessPolynomial(1, lead) if not lead.is_zero() else None,
        v_terms, complete=True))
    model.transgression = tuple(trans)
    return model


def _r_of(trunc, p):
    """floor(log_p trunc), 0 for trunc <= 1: the r of trunc = p^r, and
    trunc is a power of p exactly when p ** r == trunc."""
    r = 0
    t = trunc
    while t > 1:
        t //= p
        r += 1
    return r


def _bockstein_rules(model, op, indices):
    """op(x_i) = the leading body of b_i, for each index i in order."""
    return [OperationRule(op, model.x_gens[i - 1].name,
                          ("ypoly", model.entry(i).leading.body))
            for i in indices]


def _type_one_model(family, l, p, x_degrees, ydeg, **fields):
    # odd i: b_i = v_1 * y^((i+1)/2); even i: b_i = p * y^(i/2)
    return _b_model(
        family, l, p, {ydeg: p}, x_degrees,
        lambda y: [(None, [(1, y ** ((i + 1) // 2))], i == 1) if i % 2
                   else (y ** (i // 2), [], i == 2) for i in range(1, l + 1)],
        op_rules=[OperationRule("P1", "x%d" % i, ("xgen", "x%d" % (i + 1), 1))
                  for i in range(1, l + 1, 2)],
        torsion_index_p=p, witness=(2 * p - 2,), is_type_one=True, **fields)


def _model_G2(l, p):
    ring = t_ring(l, p)
    t1, t2 = ring.gen("t1"), ring.gen("t2")
    explicit_b = {1: t1 * t1 + t1 * t2 + t2 * t2, 2: t2 ** 3}
    return _type_one_model("G2", l, p, [3, 5], 6, dim_gt=12,
                           explicit_b=explicit_b)


def _model_F4(l, p):
    return _type_one_model("F4", l, p, [3, 7, 11, 15], 8, dim_gt=48)


def _model_E8_5(l, p):
    return _type_one_model("E8", l, p, [3, 11, 15, 23, 27, 35, 39, 47], 12,
                           dim_gt=240, aliased=True)


def _model_E8_3(l, p):
    model = _b_model(
        "E8", l, p, {8: 3, 20: 3}, [3, 7, 15, 19, 27, 35, 39, 47],
        lambda y, yp: [
            (None, [(1, y), (2, yp)], True),
            (y, [], True),
            (y ** 2, [(1, yp)], False),
            (yp, [], False),
            (y * yp, [], False),
            (y ** 2 * yp, [(1, yp ** 2)], False),
            (yp ** 2, [], False),
            (y * yp ** 2, [], False),
        ],
        aliased=True, torsion_index_p=9, witness=(2, 8), sharp=SharpData(),
        dim_gt=240,
        notes=("that the square of the top-level product is not a Bockstein "
               "image is a derived lookup against the stored table, not an "
               "independently stored fact",))
    model.op_rules = tuple(_bockstein_rules(model, "beta", range(2, 9)) + [
        OperationRule("P1", "x1", ("xgen", "x2", 1)),
        OperationRule("P1", "x3", ("xgen", "x4", 1)),
        OperationRule("P1", "x6", ("xgen", "x7", 1)),
        OperationRule("P3", "x2", ("xgen", "x4", 1)),
        OperationRule("P3", "x3", ("xgen", "x5", 1)),
        OperationRule("P3", "x5", ("xgen", "x7", -1)),
        OperationRule("P3", "x6", ("xgen", "x8", 1)),
        OperationRule("P3", "y8", ("ypoly", model.y_ring().gen("y20"))),
    ])
    return model


def _model_E8_2(l, p):
    model = _b_model(
        "E8", l, p, {6: 8, 10: 4, 18: 2, 30: 2}, [3, 5, 9, 17, 15, 23, 27, 29],
        lambda y1, y2, y3, y4: [
            (None, [(1, y1), (2, y2), (3, y3)], True),
            (y1, [(2, y1 ** 2), (3, y2 ** 2)], True),
            (y2, [(1, y1 ** 2), (3, y1 ** 4)], True),
            (y3, [(1, y2 ** 2)], True),
            # a mixed middle-level term with positive-degree torus factors
            # is dropped from b_5
            (y1 * y2, [(1, y3), (3, y4)], False),
            (y1 * y3 + y1 ** 4, [], False),
            (y2 * y3, [(1, y4)], False),
            (y4, [], False),
        ],
        aliased=True, torsion_index_p=64, witness=(5, 5, 5, 4, 6, 8),
        sharp=SharpData(
            min_uses={8: 1},   # the top class needs the unique y30 carrier
            max_uses={6: 1, 8: 1}),
        dim_gt=240)
    sq1 = _bockstein_rules(model, "Sq1", (2, 3, 4, 8, 5, 6, 7))
    model.op_rules = tuple(sq1 + [
        OperationRule("Sq2", "x1", ("xgen", "x2", 1)),
        OperationRule("Sq4", "x2", ("xgen", "x3", 1)),
        OperationRule("Sq8", "x3", ("xgen", "x4", 1)),
        OperationRule("Sq8", "x5", ("xgen", "x6", 1)),
        OperationRule("Sq4", "x6", ("xgen", "x7", 1)),
        OperationRule("Sq2", "x7", ("xgen", "x8", 1)),
        OperationRule("Sq2", "x5", ("xgen", "x4", 1)),
    ])
    return model


def _model_E7_2(l, p):
    return _b_model(
        "E7", l, p, {6: 2, 10: 2, 18: 2}, [3, 5, 9, 17, 15, 23, 27],
        lambda y1, y2, y3: [
            (None, [(1, y1), (2, y2), (3, y3)], True),
            (y1, [], True),
            (y2, [], True),
            (y3, [], True),
            (y1 * y2, [], False),
            (y1 * y3, [], False),
            (y2 * y3, [], False),
        ],
        aliased=True, torsion_index_p=4, witness=(2, 7), sharp=SharpData(),
        dim_gt=126)


# ---------------------------------------------------------------------------
# lookup

_SUPPORTED_PRIMES = (2, 3, 5)

_Served = collections.namedtuple(
    "_Served", "group family builder primes least most name case_id checked")

# One row per served case: the CLI's spelling of its group; its family,
# builder and primes; the ranks it serves, least to most (None: no bound),
# where a case of one rank may leave its rank out; its name in the
# unsupported-case message; its validate_catalog id and the ranks checked
# under that id.
_SERVED = (
    _Served("U", "U", _model_U, _SUPPORTED_PRIMES, 1, None,
            "U(l) at p in (2, 3, 5)", "U/Sp (any p)", (1, 2, 3, 5)),
    _Served("Sp", "Sp", _model_Sp, _SUPPORTED_PRIMES, 1, None,
            "Sp(l) at p in (2, 3, 5)", "U/Sp (any p)", (1, 2, 3, 5)),
    *(_Served("PU", "PU", _model_PU, (p,), p - 1, p - 1,
              "PU(p) at p in (2, 3, 5)", "PU(p)", (p - 1,))
      for p in _SUPPORTED_PRIMES),
    _Served("SO", "SO_odd", _model_SO_odd, (2,), 1, None,
            "SO(2l+1) at p=2", "SO(2l+1) p=2", range(1, 9)),
    _Served("SOeven", "SO_even", _model_SO_even, (2,), 2, None,
            "SO(2l) at p=2", "SO(2l) p=2", range(2, 9)),
    _Served("Spin", "Spin_odd", _model_Spin_odd, (2,), 3, None,
            "Spin(2l+1) at p=2", "Spin(2l+1) p=2", range(3, 9)),
    _Served("G2", "G2", _model_G2, (2,), 2, 2, "(G2, 2)", "(G2, 2)", (2,)),
    _Served("F4", "F4", _model_F4, (3,), 4, 4, "(F4, 3)", "(F4, 3)", (4,)),
    _Served("E8", "E8", _model_E8_5, (5,), 8, 8, "(E8, 5)", "(E8, 5)", (8,)),
    _Served("E8", "E8", _model_E8_3, (3,), 8, 8, "(E8, 3)", "(E8, 3)", (8,)),
    _Served("E8", "E8", _model_E8_2, (2,), 8, 8, "(E8, 2)", "(E8, 2)", (8,)),
    _Served("E7", "E7", _model_E7_2, (2,), 7, 7, "(E7, 2)", "(E7, 2)", (7,)),
)

# what `_case`, the CLI's --group and the unsupported-case message read;
# `_case` gets (builder, least, most) by (family, prime)
_RANKS_OF = {(row.family, p): (row.builder, row.least, row.most)
             for row in _SERVED for p in row.primes}
GROUP_FAMILIES = {row.group: row.family for row in _SERVED}
SUPPORTED_CASES = tuple(dict.fromkeys(row.name for row in _SERVED))


def lookup_model(family, rank=None, prime=None):
    """The model of a served case, built once and shared read-only.

    A rank or prime that is not an int (a bool included) raises
    ValidationError before the memo.  `_case` reads the case from the one
    table of served cases, and every spelling of a case is one `_build`
    entry; `_build` keeps the 128 cases used most recently, and an evicted
    case is rebuilt to an equal model on its next lookup.
    """
    for name, value in (("rank", rank), ("prime", prime)):
        if value is not None and type(value) is not int:
            raise ValidationError("%s must be an integer, got %r" % (name, value))
    return _build(*_case(family, rank, prime))


@functools.lru_cache(maxsize=128)
def _build(builder, *args):
    return builder(*args)


def _case(family, rank, prime):
    """(builder, rank, prime) of a served case, from its row of `_SERVED`;
    the rank of a case of one rank is filled in when it is left out, so each
    case has one tuple."""
    served = _RANKS_OF.get((family, prime))
    if served is not None:
        builder, least, most = served
        if rank is None:
            rank = most
        if rank is not None and least <= rank and (most is None or most == rank):
            return builder, rank, prime
    raise UnsupportedCaseError(_unsupported(family, rank, prime))


def _unsupported(family, rank, prime):
    return ("no catalog case for family=%r rank=%r prime=%r; supported: %s"
            % (family, rank, prime, "; ".join(SUPPORTED_CASES)))


# ---------------------------------------------------------------------------
# restriction tables


@functools.cache
def _stored_restriction_tables():
    """The six stored tables in registry order, built once per process.

    The images of a RestrictionTable are a tuple of None and (n, body) pairs,
    and callers only read them.
    """
    return (_so_restriction(3), _so_restriction(7), _e8_2_restriction(),
            _e8_3_restriction(), *_e7_2_restrictions())


def restriction_tables(model=None):
    """All stored restriction tables, optionally filtered to one model."""
    tables = _stored_restriction_tables()
    if model is None:
        return list(tables)
    key = model.key()
    return [t for t in tables if t.key == key]


def restriction_table(name):
    for t in _stored_restriction_tables():
        if t.name == name:
            return t
    raise DataMissingError("no restriction table named %r" % (name,))


def _so_restriction(l):
    # for l = 2^n - 1 the lone surviving class is y_{2l}, the image of
    # c_{l - 2^s + 1} at level s
    n = (l + 1).bit_length() - 1
    model = lookup_model("SO_odd", l, 2)
    top = model.y_ring().gen("y%d" % (2 * l))
    images = [None] * l
    for s in range(n):
        images[l - 2 ** s] = (s, top)
    expected = [0] + [2 * l - 2 * (2 ** s - 1) for s in range(n)]
    return RestrictionTable("so-rost-restriction-l%d" % l, model.key(),
                            images, expected)


def _e8_2_restriction():
    model = lookup_model("E8", 8, 2)
    y30 = model.y_ring().gen("y30")
    images = [None] * 4 + [(8 - j, y30) for j in range(5, 9)]
    expected = [0] + [30 - 2 * (2 ** s - 1) for s in (0, 1, 2, 3)]
    return RestrictionTable("e8-2-rost-restriction", model.key(),
                            images, expected)


def _e8_3_restriction():
    model = lookup_model("E8", 8, 3)
    R = model.y_ring()
    y, yp = R.gen("y8"), R.gen("y20")
    images = [(1, y), (0, y), (0, y ** 2), None, (0, y * yp), (0, y ** 2 * yp),
              None, (0, y * yp ** 2)]
    expected = [0, 4, 8, 16, 28, 36, 48]
    return RestrictionTable("e8-3-rost-restriction", model.key(),
                            images, expected)


def _e7_2_restrictions():
    e8 = lookup_model("E8", 8, 2)
    e7 = lookup_model("E7", 7, 2)
    # stage 1: the rank-8 form restricted to a field keeping only the top class
    y6, y10, y18 = (e8.y_ring().gen(n) for n in ("y6", "y10", "y18"))
    images8 = [(1, y6), (0, y6), (0, y10), (0, y18), (0, y6 * y10),
               (0, y6 * y18), (0, y10 * y18), None]
    expected8 = [0] + [e8.transgression[j - 1].topdeg for j in range(1, 8)]
    t1 = RestrictionTable("e8-to-e7-rost-restriction", e8.key(),
                          images8, expected8)
    # stage 2: the rank-7 form restricted until only a rank-2 core survives
    y6 = e7.y_ring().gen("y6")
    images7 = [(1, y6), (0, y6)] + [None] * 5
    expected7 = [0, 4, 6]
    t2 = RestrictionTable("e7-2-rost-restriction", e7.key(), images7, expected7)
    return [t1, t2]


# ---------------------------------------------------------------------------
# validation

def op_topdeg(op, p):
    if op in ("beta", "Sq1", "Q0"):
        return 1
    if op.startswith("Sq"):
        return int(op[2:])
    if op.startswith("P"):
        return 2 * int(op[1:]) * (p - 1)
    if op.startswith("Q"):
        return 2 * p ** int(op[1:]) - 1
    raise ValidationError("unknown operation %r" % (op,))


def check_class(body, topdeg, ring, truncs):
    """(right degree, in ring, reduced) of a stored class, in one pass over
    its terms.

    The degree is right when body is nonzero and each term has topdeg
    `topdeg`; body is in ring when its ring is ring (any ring when ring is
    None); it is reduced when each exponent is below its variable's
    truncation.
    """
    degs = body.ring.topdegs
    right = bool(body.terms)
    in_ring = ring is None or body.ring is ring or body.ring == ring
    reduced = True
    for m in body.terms:
        if sum(map(mul, m, degs)) != topdeg:
            right = False
        if not all(map(lt, m, truncs)):
            reduced = False
    return right, in_ring, reduced


def _well_formed_target(target):
    """Whether an operation-rule target is ("ypoly", Polynomial) or
    ("xgen", name, int coefficient)."""
    if not isinstance(target, tuple) or not target:
        return False
    if target[0] == "ypoly":
        return len(target) == 2 and isinstance(target[1], Polynomial)
    return (target[0] == "xgen" and len(target) == 3
            and isinstance(target[1], str) and isinstance(target[2], int))


def validate_model(model):
    """All structural invariants of one model; returns a list of failures,
    in the order `verify` prints them.

    One loop walks the x-generators with their transgression entries, and
    `check_class` checks each stored class (leading witness or v-term
    body) in one pass over its terms.  A message is formatted only when its
    check fails, and a malformed model is reported, never raised on.
    """
    def reporter(into):
        def fail(msg, *args):
            into.append("%s: %s" % (model.label(), msg % args))
        return fail

    fails = []
    fail = reporter(fails)
    p = model.prime

    if not is_prime(p):
        fail("prime %r is not a prime", p)
        return fails
    if len(model.x_gens) != model.rank:
        fail("number of x-generators != rank")
    names = [g.name for g in model.y_gens] + [x.name for x in model.x_gens]
    names += [x.alias for x in model.x_gens if x.alias]
    if len(set(names)) != len(names):
        fail("generator names not unique")
    truncs = []
    gen_deg = {}
    dim = 0  # sum of (t - 1)|y| over P(y) and of |x| - 1 over Lambda(x)
    for g in model.y_gens:
        if g.topdeg % 2 or g.topdeg <= 0:
            fail("y-degree must be even")
        if g.trunc <= 1 or p ** _r_of(g.trunc, p) != g.trunc:
            fail("truncation exponent must be a power of p")
        truncs.append(g.trunc)
        gen_deg.setdefault(g.name, g.topdeg)
        dim += (g.trunc - 1) * g.topdeg
    try:
        ring = model.y_ring()
    except ValidationError:
        # a y-degree, a y-name or the prime failed above: there is no P(y)
        ring = None

    # with every degree d positive, each factor 1 + q^d of Lambda(x) and
    # 1 + q^d + ... + q^{(t-1)d} of P(y) is a palindrome, so the Poincare
    # polynomial of P(y) (x) Lambda(x) is one and needs no check
    entry_fails = []  # listed after every generator's own failure
    fail_entry = reporter(entry_fails)
    entry_of_x = {}
    by_index = {}
    for x, e in zip_longest(model.x_gens, model.transgression):
        if x is not None:
            if x.topdeg % 2 == 0 or x.topdeg <= 0:
                fail("x-degree must be odd and positive")
            dim += x.topdeg - 1
            gen_deg.setdefault(x.name, x.topdeg)
            if x.alias:
                gen_deg.setdefault(x.alias, x.topdeg)
        if e is None:
            continue
        by_index.setdefault(e.index, e)
        if x is None:
            continue
        entry_of_x.setdefault(x.name, e)
        if x.alias:
            entry_of_x.setdefault(x.alias, e)
        if e.topdeg != x.topdeg + 1:
            fail_entry("entry %s degree %d != |%s|+1",
                       e.name, e.topdeg, x.name)
        if e.leading is not None:
            right, in_ring, reduced = check_class(e.leading.body, e.topdeg,
                                                  ring, truncs)
            if not right:
                fail_entry("leading witness of %s has wrong degree", e.name)
            if not in_ring:
                fail_entry("leading witness of %s not in P(y)", e.name)
            elif not reduced:
                fail_entry("leading witness of %s not reduced", e.name)
        for n, body in e.v_terms:
            if n < 1:
                fail_entry("v-term level must be >= 1")
            right, in_ring, reduced = check_class(
                body, e.topdeg + 2 * (p ** n - 1), ring, truncs)
            if not right:
                fail_entry(
                    "v-term (%d, ...) of %s violates the degree equation",
                    n, e.name)
            if not in_ring:
                fail_entry("v-term (%d, ...) of %s not in P(y)", n, e.name)
            elif not reduced:
                fail_entry("v-term (%d, ...) of %s not reduced", n, e.name)
    if len(model.transgression) != len(model.x_gens):
        fail("one transgression entry per x-generator")
    fails.extend(entry_fails)

    for rule in model.op_rules:
        try:
            d = op_topdeg(rule.op, p)
        except (ValidationError, ValueError):
            fail("unknown operation %r", rule.op)
            continue
        src_deg = gen_deg.get(rule.source)
        if src_deg is None:
            fail("operation rule names unknown generator %r", rule.source)
            continue
        if not _well_formed_target(rule.target):
            fail("%s(%s) has a malformed target", rule.op, rule.source)
            continue
        kind = rule.target[0]
        if kind == "ypoly":
            if rule.target[1].term_topdegs() != {src_deg + d}:
                fail("%s(%s) target degree mismatch", rule.op, rule.source)
        else:
            name, coef = rule.target[1], rule.target[2]
            if coef % p == 0:
                fail("%s(%s) has zero coefficient", rule.op, rule.source)
            tdeg = gen_deg.get(name)
            if tdeg is None:
                fail("operation rule names unknown generator %r", name)
            elif tdeg != src_deg + d:
                fail("%s(%s) -> %s degree mismatch", rule.op, rule.source, name)
        # a Bockstein rule must agree with the leading transgression witness
        if rule.op in ("beta", "Sq1"):
            entry = entry_of_x.get(rule.source)
            if (entry is not None and entry.leading is not None
                    and entry.leading.s == 1
                    and (kind != "ypoly" or rule.target[1] != entry.leading.body)):
                fail("Bockstein rule for %s disagrees with transgression leading",
                     rule.source)

    if model.is_type_one and model.rank < 2 * p - 2:
        fail("rank below 2p-2 for a one-generator part")

    index = model.torsion_index_p
    if index is not None and p ** _r_of(index, p) != index:
        fail("torsion index must be a power of p")

    if model.dim_gt is not None and dim != model.dim_gt:
        fail("degree bookkeeping != dim(G/T)")

    if model.family == "SO_odd" and ring is not None:
        # the body must be the monomial y_class(2i) of P(y), compared by its
        # exponents
        for i, e in enumerate(model.transgression, start=1):
            lead = e.leading
            if (lead is None or lead.s != 1
                    or not (lead.body.ring is ring or lead.body.ring == ring)
                    or lead.body.terms != {model.y_class_exponents(2 * i): 1}):
                fail("leading term of c_%d must be 2*y_%d", i, 2 * i)

    if model.key() == ("E8", 8, 2):
        if [g.topdeg for g in model.y_gens] != [6, 10, 18, 30]:
            fail("y-degrees must be 6,10,18,30")
        if truncs != [8, 4, 2, 2]:
            fail("truncations must be 8,4,2,2")

    for i, poly in (model.explicit_b or {}).items():
        e = by_index.get(i)
        if e is None or poly.term_topdegs() != {e.topdeg}:
            fail("explicit form of %s has wrong degree",
                 e.name if e is not None else i)

    for idx in dict.fromkeys(model.witness or ()):
        e = by_index.get(idx)
        if e is None or e.leading is None:
            fail("witness uses entry %r with no leading term", idx)
    return fails


def _served_models():
    """(validate_catalog id, model) of each model it checks, in order."""
    for row in _SERVED:
        for rank in row.checked:
            for p in row.primes:
                yield row.case_id, lookup_model(row.family, rank, p)


def validate_catalog():
    """Validate every entry; returns [(case id, ok, failures)] in fixed order.

    Every call checks all 54 models, the very objects `lookup_model` serves;
    only their construction is shared, no check result is kept.
    """
    report = {}
    for case, model in _served_models():
        report.setdefault(case, []).extend(validate_model(model))
    return [(case, not failures, failures) for case, failures in report.items()]


def restriction_check(table):
    """Degree consistency of a stored restriction table, plus the element
    count of its nonzero image against the cited basis.

    Each image v_n * body of a source of topdeg d must have body nonzero and
    reduced in P(y)/p, and homogeneous of topdeg d + 2(p^n - 1); both are
    read in one pass over the body's terms by `check_class`.
    """
    model = lookup_model(*table.key)
    ring = model.y_ring()
    p = model.prime
    truncs = [g.trunc for g in model.y_gens]
    entries = model.transgression
    failures = []
    report = {"table": table.name, "failures": failures, "status": "pass"}
    if len(table.images) != len(entries):
        failures.append("%d images for %d transgression entries"
                        % (len(table.images), len(entries)))
    degs_img = []
    for e, image in zip(entries, table.images):
        if image is None:
            continue
        degs_img.append(e.topdeg)
        n, body = image
        right, in_ring, reduced = check_class(
            body, e.topdeg + 2 * (p ** n - 1), ring, truncs)
        if not body.terms or not (in_ring and reduced):
            failures.append("%s -> v_%d*%s is zero or not reduced in P(y)/%d"
                            % (e.name, n, body.pretty(), p))
        if not right:
            failures.append("%s -> v_%d*%s fails the degree equation"
                            % (e.name, n, body.pretty()))
    expected = len(table.expected_image)
    report["image_cardinality"] = len(degs_img) + 1  # plus the unit
    report["expected_cardinality"] = expected
    if len(degs_img) + 1 != expected:
        failures.append(
            "image count %d != cited %d" % (len(degs_img) + 1, expected))
    degs_expected = sorted(d for d in table.expected_image if d > 0)
    if sorted(degs_img) != degs_expected:
        failures.append("image degrees differ from the cited basis")
    if failures:
        report["status"] = "fail"
    return report


def restriction_reports():
    return [restriction_check(t) for t in restriction_tables()]
