"""Mod-p presentations of versal flag-variety Chow rings and their bases.

A presentation is the torus ring modulo the transgression forms (U, Sp),
their squares (SO), or for a one-generator part every product of two of the
first 2p - 2 forms and then each later form, one opaque symbol B_i per entry
standing in where no torus forms are stored.  Bases of the
indecomposable-summand Chow groups are degree-tagged lists, never rings (no
canonical ring structure exists there); quotient presentations are rings.
The decomposition identity compares the quotient's series, by Groebner
basis, with the summand basis times the torus factor S(t)/(b), which is
Stanley's product for the regular sequence b.  `presentation_series`, the
series `hilbert` prints, gives U, Sp, PU, SO and SOeven by theorem, with no
presentation or Groebner basis built, and the other cases by Groebner basis.
"""

from itertools import combinations

from .catalog import check_class, lookup_model, restriction_tables
from .errors import PresentationUnavailableError, UnsupportedCaseError, ValidationError
from .groebner import QuotientPresentation, hilbert_series, hs_from_degrees, hs_times
from .ring import GradedVariable, PolyRing, is_prime
from .symclass import elementary_symmetric, pontryagin_class, t_ring


class BasisElement:
    """A named additive generator with its topological degree."""

    __slots__ = ("name", "topdeg", "provenance")

    def __init__(self, name, topdeg, provenance):
        if topdeg < 0 or (topdeg == 0) != (name == "1") or topdeg % 2 != 0:
            raise ValidationError("basis element %r with topdeg %r" % (name, topdeg))
        self.name = name
        self.topdeg = topdeg
        self.provenance = provenance

    @property
    def chowdeg(self):
        return self.topdeg // 2

    def __eq__(self, other):
        return (isinstance(other, BasisElement)
                and (self.name, self.topdeg) == (other.name, other.topdeg))

    def __hash__(self):
        return hash((self.name, self.topdeg))

    def __repr__(self):
        return "BasisElement(%r, %d)" % (self.name, self.topdeg)


# ---------------------------------------------------------------------------
# presentations


def chow_presentation(model):
    """The mod-p presentation of the versal flag Chow ring, where one exists.

    Fully explicit for the classical families and the rank-2 exceptional
    case; the other one-generator cases come back as opaque graded symbols
    B_i with the square-level relations.  Cases known only through a
    surjection raise.

    Built once per model object and kept on it: a shared catalog model
    shares one presentation, a model built by hand gets its own.
    """
    if model._presentation is None:
        model._presentation = _build_presentation(model)
    return model._presentation


def _build_presentation(model):
    forms, note = _torus_forms(model), None
    if forms is None:
        if not model.is_type_one:
            raise PresentationUnavailableError(
                "%s is known only through a surjection target; no full "
                "presentation" % model.label())
        # no torus forms stored: one opaque symbol B_i per entry stands in
        ring = PolyRing([GradedVariable("B%s" % e.index, e.topdeg)
                         for e in model.transgression], model.prime)
        forms = [ring.gen(v.name) for v in ring.variables]
        note = ("opaque transgression symbols; the explicit torus forms are "
                "not part of the stored data for this case")
    fam, ring = model.family, forms[0].ring
    if fam in ("U", "Sp"):
        rels = forms
    elif fam == "SO_odd":
        # over F_2, e_i(t)^2 = e_i(t_1^2, ..., t_l^2) = p_i: the squared
        # relations are the Pontryagin row, and SO(2l) keeps l - 1 of them
        rels = pontryagin_class(ring)
    elif fam == "SO_even":
        rels = pontryagin_class(ring)[:-1] + forms[-1:]
    else:
        # a one-generator part (PU(p), the stored forms, the symbols): every
        # product of two of the first 2p - 2 forms, then each later form
        low = forms[:2 * model.prime - 2]
        rels = [a * b for i, a in enumerate(low) for b in low[i:]]
        rels += forms[len(low):]
    return QuotientPresentation(ring, rels, note=note)


# the families whose torus forms are computed, not stored
_CLASSICAL = ("U", "Sp", "PU", "SO_odd", "SO_even")


def presentation_series(model, maxdeg):
    """(HS(chow_presentation(model)) through maxdeg, the presentation's note).

    U, Sp, PU, SO and SOeven come by theorem, with no presentation built.
    The relations of U, Sp, SO and SOeven are l forms in the l torus
    variables with no common zero but 0, a regular sequence, so the series
    is prod(1 - q^d_i) / (1 - q^2)^l (Stanley, Bull. AMS 1, 1979).  PU(p)'s
    relations span I^2, I = (c_1..c_l) regular, and I/I^2 is free over S/I
    on the c_i: the U(l) series times 1 + sum q^|c_i|.  The other cases'
    series comes by Groebner basis."""
    if maxdeg < 0:
        raise ValidationError("maxdeg must be non-negative")
    degs = _relation_degrees(model)
    if degs is None:
        pres = chow_presentation(model)
        return hilbert_series(pres, maxdeg), pres.note
    hs = hs_from_degrees([0] + degs if model.family == "PU" else [0], maxdeg)
    hs_times(hs.dims, numer=degs, denom=[2] * model.rank)
    return hs, None


def _relation_degrees(model):
    """The topdegs of the relations `_build_presentation` writes for U, Sp,
    SO and SOeven, and of c_1..c_l for PU; None for the other families."""
    fam, l = model.family, model.rank
    if fam not in _CLASSICAL:
        return None
    # the forms' degrees, doubled for the squares of SO and SOeven, whose
    # last relation is e_l itself
    degs = [(2 if fam in ("U", "PU") else 4) * i for i in range(1, l + 1)]
    if fam == "SO_even":
        degs[-1] = 2 * l
    return degs


def _torus_forms(model):
    """The transgression forms on the torus F_p[t_1..t_l], or None where the
    catalog stores none: the Pontryagin classes p_1..p_l for Sp, the stored
    explicit forms of a one-generator case, else the Chern classes
    e_1..e_l."""
    if model.explicit_b is not None:
        return [model.explicit_b[i] for i in sorted(model.explicit_b)]
    fam = model.family
    if fam not in _CLASSICAL:
        return None
    ring = t_ring(model.rank, model.prime)
    return pontryagin_class(ring) if fam == "Sp" else elementary_symmetric(ring)


# ---------------------------------------------------------------------------
# bases


def rost_chow_basis(n, p):
    """Mod-p additive basis of the height-n indecomposable summand:
    the unit plus c_j(y^i) of topdeg 2i(p^n - 1)/(p - 1) - 2(p^j - 1)."""
    if n < 1:
        raise ValidationError("height must be >= 1")
    if not is_prime(p):
        raise ValidationError("p must be prime, got %r" % (p,))
    b_n = (p ** n - 1) // (p - 1)
    out = [BasisElement("1", 0, "rost-basis")]
    for i in range(1, p):
        for j in range(n):
            deg = 2 * i * b_n - 2 * (p ** j - 1)
            ypow = "y" if i == 1 else "y^%d" % i
            out.append(BasisElement("c_%d(%s)" % (j, ypow), deg, "rost-basis"))
    return out


# (family, prime) -> the entry-index products of a summand known through
# its surjection target, the unit aside, in the cited order
_SURJECTION_PRODUCTS = {
    ("E8", 3): [(i,) for i in range(1, 9)] + [(1, 6), (1, 8), (2, 8)],
    ("E8", 2): [(i,) for i in range(1, 9)],
    ("E7", 2): [(i,) for i in range(1, 8)] + [(1, 5), (1, 6), (1, 7), (2, 7)],
}


def rost_part_basis(model):
    """Additive basis data for the indecomposable summand of the model.

    Returns (kind, elements): kind is "exact" or "surjection-target".  Each
    element is the unit or a product of transgression entries, named by
    their names and graded by the sum of their topdegs; an exact basis is
    listed by (topdeg, name), a surjection target in its cited order.
    """
    kind, products = _summand_products(model)
    entry = {e.index: e for e in model.transgression}
    out = [BasisElement("1", 0, "rost-part")] + [
        BasisElement("".join(entry[i].name for i in idxs),
                     sum(entry[i].topdeg for i in idxs), "rost-part")
        for idxs in products]
    if kind == "exact":
        out.sort(key=lambda b: (b.topdeg, b.name))
    return kind, out


def _summand_products(model):
    """(kind, entry-index products) of the summand basis, the unit aside."""
    fam, p, l = model.family, model.prime, model.rank
    if fam in ("U", "Sp"):
        return "exact", []
    if fam in ("SO_odd", "SO_even"):
        # the square-free products of c_1..c_l, or of c_1..c_{l-1} for SO(2l)
        top = range(1, l + 1 if fam == "SO_odd" else l)
        return "exact", [s for k in range(1, len(top) + 1)
                         for s in combinations(top, k)]
    if fam == "PU" or model.is_type_one:
        # the first 2p - 2 entries of a one-generator part; all p - 1 of PU(p)
        return "exact", [(e.index,) for e in model.transgression[:2 * p - 2]]
    if fam == "Spin_odd":
        if l == 5:
            return "surjection-target", [(2,), (3,), (4,), (5,), (2, 4), ("z",)]
        lbar = l - 1 if l & (l - 1) == 0 else l  # l - 1 at a power of 2
        return "surjection-target", [(i,) for i in range(2, lbar + 1)]
    if (fam, p) in _SURJECTION_PRODUCTS:
        return "surjection-target", _SURJECTION_PRODUCTS[fam, p]
    raise UnsupportedCaseError("no basis data for %s" % model.label())


# ---------------------------------------------------------------------------
# decomposition and restriction checks


def verify_additive_decomposition(model, maxdeg):
    """Series identity behind the additive decomposition:
    HS(full quotient) = HS(summand basis) * HS(torus/(b)).  The left side is
    the quotient's series by Groebner basis.  On the right, the transgression
    forms b are a regular sequence, so HS(torus/(b)) is Stanley's product
    prod(1 - q^|b_i|) / prod(1 - q^|t_j|) (Bull. AMS 1, 1979) over the entry
    degrees and the presentation ring's weights.  The factor HS(P'(y)) of the
    inner truncated part is 1: in a versal case each J-entry equals its
    truncation exponent."""
    if maxdeg < 0:
        raise ValidationError("maxdeg must be non-negative")
    kind, basis = rost_part_basis(model)
    report = {"case": model.label(), "maxdeg": maxdeg}
    if kind != "exact":
        report["status"] = "skipped"
        report["detail"] = "summand basis is %s, not exact" % kind
        return report
    pres = chow_presentation(model)
    if pres.note is not None:
        report["status"] = "skipped"
        report["detail"] = "presentation is symbolic"
        return report
    lhs = hilbert_series(pres, maxdeg)
    rhs = hs_from_degrees([b.topdeg for b in basis], maxdeg)
    hs_times(rhs.dims, numer=[e.topdeg for e in model.transgression],
             denom=pres.ring.topdegs)
    report["status"] = "pass" if lhs == rhs else "fail"
    report["lhs"] = lhs.dims
    report["rhs"] = rhs.dims
    report["basis_size"] = len(basis)
    return report


def restriction_check(table):
    """Degree consistency of a stored restriction table, plus the element
    count of its nonzero image against the cited basis.

    Each image v_n * body of a source of topdeg d must have body nonzero and
    reduced in P(y)/p, and homogeneous of topdeg d + 2(p^n - 1); both are
    read in one pass over the body's terms by `catalog.check_class`.
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
