"""Mod-p presentations of versal flag-variety Chow rings and their series.

A presentation is the torus ring modulo the transgression forms (U, Sp),
their squares (SO), or for a one-generator part every product of two of the
first 2p - 2 forms and then each later form, one opaque symbol B_i per entry
standing in where no torus forms are stored.  One predicate, `_presentable`,
says which cases have one; any other case is known only through a
surjection onto its indecomposable summand, and nothing here lists that
summand.  Bases of the indecomposable-summand Chow groups
(`rost_chow_basis`) are degree-tagged lists, never rings (no canonical ring
structure exists there); the summand of a presentable flag variety is not
listed: `_summand_factors` gives its basis in product form.  The series
`hilbert` prints, `presentation_series`, is one product: that summand
series times the torus factor S(t)/(b), Stanley's product for the regular
sequence b, on every served presentation, with no Groebner basis built.
The decomposition identity compares the quotient's series, by Groebner
basis, with that same product.
"""

from .errors import PresentationUnavailableError, ValidationError
from .groebner import QuotientPresentation, hilbert_series, hs_from_degrees, hs_times
from .ring import GradedVariable, PolyRing, is_prime
from .symclass import _sigma_row, elementary_symmetric, pontryagin_class, t_ring


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
    if not _presentable(model):
        raise PresentationUnavailableError(
            "%s is known only through a surjection target; no full "
            "presentation" % model.label())
    fam = model.family
    if fam in ("SO_odd", "SO_even"):
        # over F_2, e_i(t)^2 = e_i(t_1^2, ..., t_l^2) = p_i: the squared
        # relations are the Pontryagin row, and SO(2l) keeps l - 1 of them
        # and the Euler class t_1...t_l; no Chern row is built
        l = model.rank
        ring = t_ring(l, model.prime)
        rels = _sigma_row(ring, 2, l if fam == "SO_odd" else l - 1)
        if fam == "SO_even":
            rels.append(ring.monomial((1,) * l))
        return QuotientPresentation(ring, rels)
    forms, note = _torus_forms(model), None
    if forms is None:
        # no torus forms stored: one opaque symbol B_i per entry stands in
        ring = PolyRing([GradedVariable("B%s" % e.index, e.topdeg)
                         for e in model.transgression], model.prime)
        forms = [ring.gen(v.name) for v in ring.variables]
        note = ("opaque transgression symbols; the explicit torus forms are "
                "not part of the stored data for this case")
    if fam in ("U", "Sp"):
        rels = forms
    else:
        # a one-generator part (PU(p), the stored forms, the symbols): every
        # product of two of the first 2p - 2 forms, then each later form
        low = forms[:2 * model.prime - 2]
        rels = [a * b for i, a in enumerate(low) for b in low[i:]]
        rels += forms[len(low):]
    return QuotientPresentation(forms[0].ring, rels, note=note)


# the families whose torus forms are computed, not stored
_CLASSICAL = ("U", "Sp", "PU", "SO_odd", "SO_even")


def _has_torus_forms(model):
    """Whether the model's transgression forms on the torus are known:
    stored (`explicit_b`) or computed (the classical families)."""
    return model.explicit_b is not None or model.family in _CLASSICAL


def _presentable(model):
    """Whether the model has a presentation: torus forms, or the opaque
    symbols of a one-generator part; any other case is known only through
    a surjection onto its summand."""
    return _has_torus_forms(model) or model.is_type_one


def presentation_series(model, maxdeg):
    """(HS(chow_presentation(model)) through maxdeg, the presentation's note).

    The series is one product, with no Groebner basis: HS(summand) *
    prod(1 - q^|b_i|) / prod(1 - q^w_j).  The relations of U, Sp, SO and
    SOeven are a regular sequence of l forms in the l torus variables
    (Stanley, Bull. AMS 1, 1979), and those of a one-generator part span
    I^2 + J, I = (b_1..b_{2p-2}) and J the later forms, where I/I^2 is free
    over S/(I + J) on the summand basis b_i.  The summand series is taken in
    product form (`_summand_factors`), no basis element listed: each
    exterior entry's factor 1 + q^|c_i| meets the numerator's 1 - q^|c_i|
    as 1 - q^(2|c_i|), so SO(2l+1) takes l factors, not 2^l - 1 products,
    and the summand series is 0 above its top degree, so each numerator
    factor walks only up to the running degree sum.  The weights w_j are
    those of the stored forms' ring, else of `t_ring` (every t_j of topdeg
    2), or the symbols' own degrees where no torus forms are stored.  A
    model with torus forms builds no presentation; a symbolic one builds it
    for its note, and a surjection target raises as `chow_presentation`."""
    if maxdeg < 0:
        raise ValidationError("maxdeg must be non-negative")
    forms = _has_torus_forms(model)
    note = None if forms else chow_presentation(model).note
    listed, exterior = _summand_factors(model)
    summand = [0] + [sum(e.topdeg for e in es) for es in listed]
    b = [2 * e.topdeg if e in exterior else e.topdeg
         for e in model.transgression]
    if not forms:
        weights = b
    elif model.explicit_b is None:
        weights = [2] * model.rank
    else:
        weights = next(iter(model.explicit_b.values())).ring.topdegs
    hs = hs_from_degrees(summand, maxdeg)
    hs_times(hs.dims, numer=b, denom=weights, top=max(summand))
    return hs, note


def _torus_forms(model):
    """The transgression forms on the torus F_p[t_1..t_l], or None where the
    catalog stores none: the Pontryagin classes p_1..p_l for Sp, the stored
    explicit forms of a one-generator case, else the Chern classes
    e_1..e_l."""
    if not _has_torus_forms(model):
        return None
    if model.explicit_b is not None:
        return [model.explicit_b[i] for i in sorted(model.explicit_b)]
    ring = t_ring(model.rank, model.prime)
    return pontryagin_class(ring) if model.family == "Sp" else elementary_symmetric(ring)


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


def _summand_factors(model):
    """(listed, exterior) of the summand basis of a presentable model in
    product form: the basis is the unit and the listed products of
    transgression entries (tuples), each times every square-free product of
    the exterior entries."""
    fam, trans = model.family, model.transgression
    if fam in ("U", "Sp"):
        return [], ()
    if fam in ("SO_odd", "SO_even"):
        # the square-free products of c_1..c_l, or of c_1..c_{l-1} for SO(2l)
        l = model.rank
        return [], trans[:l if fam == "SO_odd" else l - 1]
    # the first 2p - 2 entries of a one-generator part; all p - 1 of PU(p)
    return [(e,) for e in trans[:2 * model.prime - 2]], ()


# ---------------------------------------------------------------------------
# the decomposition check


def verify_additive_decomposition(model, maxdeg):
    """Series identity behind the additive decomposition:
    HS(full quotient) = HS(summand basis) * HS(torus/(b)).  The left side is
    the quotient's series by Groebner basis.  On the right, the transgression
    forms b are a regular sequence, so HS(torus/(b)) is Stanley's product
    prod(1 - q^|b_i|) / prod(1 - q^|t_j|) (Bull. AMS 1, 1979), and the side
    is the product `hilbert` prints, `presentation_series`, with the summand
    in product form: no basis element is listed, and the basis size is
    (1 + #listed) * 2^#exterior.  The factor HS(P'(y)) of the inner
    truncated part is 1: in a versal case each J-entry equals its
    truncation exponent.  A case with no presentation (`_presentable`) and
    a symbolic presentation are skipped, in that order."""
    if maxdeg < 0:
        raise ValidationError("maxdeg must be non-negative")
    report = {"case": model.label(), "maxdeg": maxdeg}
    if not _presentable(model):
        report["status"] = "skipped"
        report["detail"] = "summand basis is surjection-target, not exact"
        return report
    pres = chow_presentation(model)
    if pres.note is not None:
        report["status"] = "skipped"
        report["detail"] = "presentation is symbolic"
        return report
    lhs = hilbert_series(pres, maxdeg)
    rhs, _ = presentation_series(model, maxdeg)
    report["status"] = "pass" if lhs == rhs else "fail"
    report["lhs"] = lhs.dims
    report["rhs"] = rhs.dims
    listed, exterior = _summand_factors(model)
    report["basis_size"] = (1 + len(listed)) << len(exterior)
    return report

