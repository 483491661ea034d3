import copy
import io

import pytest

from flagchow import catalog
from flagchow.catalog import (
    CohomologyModel,
    RestrictionTable,
    lookup_model,
    restriction_check,
    restriction_reports,
    restriction_table,
)
from flagchow.chow import (
    BasisElement,
    _torus_forms,
    chow_presentation,
    presentation_series,
    rost_chow_basis,
    verify_additive_decomposition,
)
from flagchow.cli import main
from flagchow.errors import PresentationUnavailableError, UnsupportedCaseError, ValidationError
from flagchow.groebner import QuotientPresentation, hilbert_series, hs_from_degrees, hs_times
from flagchow.ring import GradedVariable, PolyRing
from flagchow.symclass import elementary_symmetric, t_ring

from oracles import (
    a_filtration_basis,
    graded_quotient_dims,
    homogeneous_topdeg,
    hs_product,
    mod_torsion_basis,
    rost_part_basis,
    with_restriction_image,
)


def test_basis_element_invariants():
    b = BasisElement("b_2", 6, "rost-part")
    assert b.chowdeg == 3
    with pytest.raises(ValidationError):
        BasisElement("b_1", 3, "rost-part")
    with pytest.raises(ValidationError):
        BasisElement("b_1", 0, "rost-part")


# --- presentations -----------------------------------------------------------


def test_u3_presentation():
    pres = chow_presentation(lookup_model("U", 3, 2))
    assert len(pres.relations) == 3
    assert sorted(homogeneous_topdeg(r) for r in pres.relations) == [2, 4, 6]
    hs = hilbert_series(pres, 12)
    assert hs.total() == 6


def test_so7_presentation_squares():
    pres = chow_presentation(lookup_model("SO_odd", 3, 2))
    assert sorted(homogeneous_topdeg(r) for r in pres.relations) == [4, 8, 12]
    cs = elementary_symmetric(t_ring(3, 2))
    assert list(pres.relations) == [c * c for c in cs]


def test_so_relations_are_the_squared_chern_classes_up_to_rank_7():
    # built from the Pontryagin row, they equal the squares e_i ** 2
    for l in range(1, 8):
        cs = elementary_symmetric(t_ring(l, 2))
        squares = [c ** 2 for c in cs]
        odd = chow_presentation(lookup_model("SO_odd", l, 2))
        assert list(odd.relations) == squares, l
        if l >= 2:
            even = chow_presentation(lookup_model("SO_even", l, 2))
            assert list(even.relations) == squares[:-1] + cs[-1:], l


def test_so_even_presentation():
    pres = chow_presentation(lookup_model("SO_even", 3, 2))
    assert sorted(homogeneous_topdeg(r) for r in pres.relations) == [4, 6, 8]


def test_spin11_presentation_unavailable():
    with pytest.raises(PresentationUnavailableError) as err:
        chow_presentation(lookup_model("Spin_odd", 5, 2))
    assert "surjection" in str(err.value)
    for fam, p in [("E8", 2), ("E8", 3), ("E7", 2)]:
        with pytest.raises(PresentationUnavailableError):
            chow_presentation(lookup_model(fam, prime=p))


def test_g2_presentation_is_explicit():
    pres = chow_presentation(lookup_model("G2", prime=2))
    assert pres.note is None
    assert [v.name for v in pres.ring.variables] == ["t1", "t2"]
    assert sorted(homogeneous_topdeg(r) for r in pres.relations) == [8, 10, 12]


def test_f4_presentation_is_symbolic():
    pres = chow_presentation(lookup_model("F4", prime=3))
    assert pres.note is not None
    assert [v.topdeg for v in pres.ring.variables] == [4, 8, 12, 16]
    assert len(pres.relations) == 10  # all pairwise products of four symbols


def test_spin7_presentation_symbolic_with_tail_relation():
    pres = chow_presentation(lookup_model("Spin_odd", 3, 2))
    assert pres.note is not None
    # symbols of degrees 4, 6, 8; pair products of the first two plus the tail
    assert [v.topdeg for v in pres.ring.variables] == [4, 6, 8]
    degs = sorted(homogeneous_topdeg(r) for r in pres.relations)
    assert degs == [8, 8, 10, 12]


def test_each_catalog_presentation_is_built_once():
    built = 0
    for _, m in catalog._served_models():
        try:
            pres = chow_presentation(m)
        except PresentationUnavailableError:
            continue
        built += 1
        assert chow_presentation(lookup_model(*m.key())) is pres
    # U, Sp: 24; PU: 3; SO(2l+1): 8; SO(2l): 7; Spin(7), Spin(9), G2, F4, (E8, 5)
    assert built == 47


def test_a_model_built_by_hand_gets_its_own_presentation():
    m = lookup_model("G2", prime=2)
    shared = chow_presentation(m)
    # the catalog case without its explicit torus forms: symbolic, not explicit
    hand = CohomologyModel(m.family, m.rank, m.prime, m.y_gens, m.x_gens,
                           m.transgression, m.op_rules, is_type_one=True,
                           dim_gt=m.dim_gt, explicit_b=None)
    pres = chow_presentation(hand)
    assert pres is not shared and pres.note is not None
    assert [v.name for v in pres.ring.variables] == ["B1", "B2"]
    assert chow_presentation(hand) is pres
    assert chow_presentation(m) is shared
    assert [v.name for v in shared.ring.variables] == ["t1", "t2"]


# --- rost bases --------------------------------------------------------------


def test_rost_chow_basis_counts_and_degrees():
    cases = {
        (1, 2): [0, 2],
        (1, 3): [0, 2, 4],
        (2, 2): [0, 6, 4],
        (2, 3): [0, 8, 4, 16, 12],
        (2, 5): [0, 12, 4, 24, 16, 36, 28, 48, 40],
        (4, 2): [0, 30, 28, 24, 16],
    }
    for (n, p), degs in cases.items():
        basis = rost_chow_basis(n, p)
        assert len(basis) == 1 + n * (p - 1)
        assert [b.topdeg for b in basis] == degs
        assert all(b.topdeg > 0 for b in basis[1:])


def test_rost_chow_basis_verbatim_names():
    assert [b.name for b in rost_chow_basis(1, 3)] == ["1", "c_0(y)", "c_0(y^2)"]
    assert [b.name for b in rost_chow_basis(2, 2)] == ["1", "c_0(y)", "c_1(y)"]


def test_rost_chow_basis_positive_even_degrees_property():
    for n in range(1, 6):
        for p in (2, 3, 5):
            basis = rost_chow_basis(n, p)
            assert len(basis) == 1 + n * (p - 1)
            for b in basis[1:]:
                assert b.topdeg > 0 and b.topdeg % 2 == 0


def test_rost_part_so():
    kind, els = rost_part_basis(lookup_model("SO_odd", 3, 2))
    assert kind == "exact"
    assert len(els) == 8
    assert BasisElement("c_1c_2c_3", 12, "rost-part") in els
    kind, els = rost_part_basis(lookup_model("SO_even", 3, 2))
    assert kind == "exact"
    assert len(els) == 4


def test_rost_part_exceptional():
    kind, els = rost_part_basis(lookup_model("E8", prime=3))
    assert kind == "surjection-target"
    assert [b.name for b in els] == ["1"] + ["b_%d" % i for i in range(1, 9)] + \
        ["b_1b_6", "b_1b_8", "b_2b_8"]
    assert len(els) == 12
    els = mod_torsion_basis(lookup_model("E7", prime=2))
    assert [b.name for b in els] == ["1", "b_2", "b_3", "b_4", "b_5", "b_6",
                                     "b_7", "b_2b_7"]
    els = mod_torsion_basis(lookup_model("E8", prime=3))
    assert len(els) == 9
    with pytest.raises(UnsupportedCaseError):
        mod_torsion_basis(lookup_model("E8", prime=2))


def test_rost_part_spin_cases():
    kind, els = rost_part_basis(lookup_model("Spin_odd", 5, 2))
    assert kind == "surjection-target"
    assert [b.name for b in els] == ["1", "c'_2", "c'_3", "c'_4", "c'_5",
                                     "c'_2c'_4", "c_1^8"]
    kind, els = rost_part_basis(lookup_model("Spin_odd", 3, 2))
    assert kind == "exact"
    assert [b.name for b in els] == ["1", "c'_2", "c'_3"]
    # at a 2-power rank the last class drops
    kind, els = rost_part_basis(lookup_model("Spin_odd", 8, 2))
    assert [b.name for b in els][-1] == "c'_7"


def test_rost_part_degree_bounded_by_top_class():
    for fam, r, p in [("SO_odd", 3, 2), ("SO_odd", 4, 2), ("Spin_odd", 5, 2),
                      ("E8", 8, 3), ("E8", 8, 2), ("E7", 7, 2),
                      ("G2", 2, 2), ("F4", 4, 3), ("E8", 8, 5), ("PU", 2, 3)]:
        m = lookup_model(fam, r, p)
        _, els = rost_part_basis(m)
        bound = m.y_top().topdeg()
        assert all(b.topdeg <= bound for b in els), (fam, p)


def test_surjection_targets_inside_filtration():
    for fam, r, p in [("E8", 8, 3), ("E8", 8, 2), ("E7", 7, 2),
                      ("Spin_odd", 5, 2), ("Spin_odd", 8, 2)]:
        m = lookup_model(fam, r, p)
        kind, els = rost_part_basis(m)
        if kind != "surjection-target":
            continue
        filt = a_filtration_basis(m, m.y_top().topdeg())
        names = {(b.name, b.topdeg) for b in filt}
        for b in els:
            assert (b.name, b.topdeg) in names, (fam, p, b.name)


def test_mod_torsion_bases_inside_filtration():
    for fam, r, p in [("E7", 7, 2), ("E8", 8, 3)]:
        m = lookup_model(fam, r, p)
        filt = a_filtration_basis(m, m.y_top().topdeg())
        names = {(b.name, b.topdeg) for b in filt}
        for b in mod_torsion_basis(m):
            assert (b.name, b.topdeg) in names, (fam, p, b.name)


# --- oracle self-checks: the filtration basis ---------------------------------
# these check oracles.a_filtration_basis itself, which
# test_surjection_targets_inside_filtration uses as its reference


def test_a_filtration_trivial():
    m = lookup_model("E7", prime=2)
    els = a_filtration_basis(m, 0)
    assert [b.name for b in els] == ["1"]


def test_a_filtration_e7_and_e8():
    m = lookup_model("E7", prime=2)
    els = a_filtration_basis(m, 34)
    names = {b.name for b in els}
    assert "b_2b_7" in names      # 6 + 28 = 34
    assert "b_1b_7" in names      # 4 + 28 = 32
    assert "b_4b_7" not in names  # 18 + 28 exceeds the bound
    m = lookup_model("E8", prime=3)
    els = a_filtration_basis(m, 56)
    assert "b_2b_8" in {b.name for b in els}  # 8 + 48 = 56


def test_a_filtration_powers():
    m = lookup_model("E8", prime=2)
    els = a_filtration_basis(m, 20)
    names = {b.name for b in els}
    assert "b_1^5" in names
    assert "b_1^2b_3" in names


# --- decomposition -----------------------------------------------------------


@pytest.mark.parametrize("l", [2, 3, 4])
def test_decomposition_so_odd(l):
    rep = verify_additive_decomposition(lookup_model("SO_odd", l, 2), 40)
    assert rep["status"] == "pass"
    assert rep["basis_size"] == 2 ** l


@pytest.mark.parametrize("p", [3, 5])
def test_decomposition_pu(p):
    rep = verify_additive_decomposition(lookup_model("PU", prime=p), 30)
    assert rep["status"] == "pass"
    assert rep["basis_size"] == p


def test_decomposition_u3_trivial_summand():
    rep = verify_additive_decomposition(lookup_model("U", 3, 2), 20)
    assert rep["status"] == "pass"
    assert rep["basis_size"] == 1


def test_decomposition_g2_and_so_even():
    assert verify_additive_decomposition(lookup_model("G2", prime=2), 24)["status"] == "pass"
    assert verify_additive_decomposition(lookup_model("SO_even", 3, 2), 30)["status"] == "pass"


def test_decomposition_skips_surjection_only_cases():
    rep = verify_additive_decomposition(lookup_model("E8", prime=2), 20)
    assert rep["status"] == "skipped"
    rep = verify_additive_decomposition(lookup_model("F4", prime=3), 20)
    assert rep["status"] == "skipped"


# the served models whose decomposition check skips, by the skip's detail
DECOMPOSITION_SKIPS = {
    "presentation is symbolic": {
        ("Spin_odd", 3, 2), ("Spin_odd", 4, 2), ("F4", 4, 3), ("E8", 8, 5)},
    "summand basis is surjection-target, not exact": {
        *(("Spin_odd", l, 2) for l in range(5, 9)),
        ("E8", 8, 3), ("E8", 8, 2), ("E7", 7, 2)},
}


def test_the_decomposition_identity_holds_on_every_served_model_at_its_top_degree():
    skip_of = {key: detail for detail, keys in DECOMPOSITION_SKIPS.items()
               for key in keys}
    statuses = []
    for _, model in catalog._served_models():
        rep = verify_additive_decomposition(model, model.dim_gt)
        detail = skip_of.get(model.key())
        if detail is None:
            assert rep["status"] == "pass", model.label()
            assert "detail" not in rep
        else:
            assert (rep["status"], rep["detail"]) == ("skipped", detail)
        statuses.append(rep["status"])
    assert (statuses.count("pass"), statuses.count("skipped")) == (43, 11)


def test_decompose_skips_a_surjection_target_exactly_where_hilbert_refuses_it(
        capsys):
    # one predicate decides both, on the 54 served models and on a hand-built
    # (G2, 2) that is neither type one nor given its torus forms
    skip = ("skipped", "summand basis is surjection-target, not exact")
    group_of = {family: g for g, family in catalog.GROUP_FAMILIES.items()}
    refused = 0
    for _, m in catalog._served_models():
        code = main(["hilbert", "--group", group_of[m.family], "--rank",
                     str(m.rank), "--prime", str(m.prime), "--maxdeg", "12"],
                    io.StringIO())
        err = capsys.readouterr().err
        target = "known only through a surjection target" in err
        assert code == (2 if target else 0), m.label()
        rep = verify_additive_decomposition(m, 12)
        assert ((rep["status"], rep.get("detail")) == skip) == target, m.label()
        refused += target
    assert refused == 7
    hand = copy.copy(lookup_model("G2", prime=2))
    hand.is_type_one, hand.explicit_b, hand._presentation = False, None, None
    rep = verify_additive_decomposition(hand, 12)
    assert (rep["status"], rep["detail"]) == skip
    message = ("(G2, 2) is known only through a surjection target; no full "
               "presentation")
    for refuse in (chow_presentation, lambda m: presentation_series(m, 12)):
        with pytest.raises(PresentationUnavailableError) as err:
            refuse(hand)
        assert str(err.value) == message


def test_stanley_product_matches_the_groebner_series_of_the_torus_quotient():
    # the torus factor of the decomposition is Stanley's product over the
    # entry degrees and the ring weights; the Groebner series of S(t)/(b),
    # b the torus forms, is the second route, on every model that has them
    compared = 0
    for _, m in catalog._served_models():
        forms = _torus_forms(m)
        if forms is None:
            continue
        ring = forms[0].ring
        for maxdeg in (0, 1, 7, 20, 40, 60, m.dim_gt):
            stanley = [1] + [0] * maxdeg
            hs_times(stanley, numer=[e.topdeg for e in m.transgression],
                     denom=ring.topdegs)
            gb = hilbert_series(QuotientPresentation(ring, forms), maxdeg)
            assert gb.dims == stanley, (m.label(), maxdeg)
            compared += 1
    assert compared == 43 * 7


def test_the_product_series_equals_the_groebner_series_on_every_served_presentation():
    # a copy of each model with no presentation kept shows that a model with
    # torus forms builds none; a case known only through a surjection raises
    # as chow_presentation does
    compared = raised = 0
    for _, m in catalog._served_models():
        bare = copy.copy(m)
        bare._presentation = None
        try:
            pres = chow_presentation(m)
        except PresentationUnavailableError as exc:
            with pytest.raises(PresentationUnavailableError) as caught:
                presentation_series(bare, m.dim_gt)
            assert str(caught.value) == str(exc), m.label()
            raised += 1
            continue
        for maxdeg in (0, 1, 7, 20, 40, 60, m.dim_gt):
            assert presentation_series(bare, maxdeg) == (
                hilbert_series(pres, maxdeg), pres.note), (m.label(), maxdeg)
            compared += 1
        if _torus_forms(m) is not None:
            assert bare._presentation is None, m.label()
    assert (compared, raised) == (47 * 7, 7)



def test_the_product_form_summand_series_is_the_series_of_the_listed_basis():
    # presentation_series lists no summand basis element: each exterior
    # entry is folded into its numerator factor.  Dividing the torus factor,
    # over the undoubled entry degrees, back out of its series must leave the
    # series of the basis oracles.rost_part_basis lists.  The basis size
    # decompose reports is read off the same factors, and must be the
    # listing's length.  A case the oracle lists as a surjection target has
    # no presentation and no series, and decompose skips it
    compared = sized = targets = 0
    for _, m in catalog._served_models():
        kind, basis = rost_part_basis(m)
        if kind == "surjection-target":
            with pytest.raises(PresentationUnavailableError):
                presentation_series(m, m.dim_gt)
            rep = verify_additive_decomposition(m, m.dim_gt)
            assert (rep["status"], rep["detail"]) == (
                "skipped", "summand basis is surjection-target, not exact")
            targets += 1
            continue
        for maxdeg in (0, 1, 7, 20, 40, 60, m.dim_gt):
            hs, _ = presentation_series(m, maxdeg)
            hs_times(hs.dims, numer=chow_presentation(m).ring.topdegs,
                     denom=[e.topdeg for e in m.transgression])
            assert hs == hs_from_degrees([b.topdeg for b in basis], maxdeg), (
                m.label(), maxdeg)
            compared += 1
            rep = verify_additive_decomposition(m, maxdeg)
            if rep["status"] == "pass":
                assert rep["basis_size"] == len(basis), (m.label(), maxdeg)
                sized += 1
    assert (compared, sized, targets) == (47 * 7, 43 * 7, 7)


def _with_relations(model, relations):
    """A copy of the model whose presentation is swapped for one with the
    given relations in the same ring."""
    hand = copy.copy(model)
    hand._presentation = QuotientPresentation(
        chow_presentation(model).ring, relations)
    return hand


def test_both_product_sides_read_the_weights_of_the_forms_ring():
    # G2's stored forms moved into a ring with a third variable, of topdeg 4,
    # that no form involves: the quotient gains the factor 1/(1 - q^4), which
    # `hilbert` and `decompose` must read off the forms' ring, not the rank
    m = lookup_model("G2", 2, 2)
    old = next(iter(m.explicit_b.values())).ring
    ring = PolyRing(list(old.variables) + [GradedVariable("s", 4)], m.prime)
    hand = copy.copy(m)
    hand._presentation = None
    hand.explicit_b = {
        i: ring.from_terms((exps + (0,), c) for exps, c in f.terms.items())
        for i, f in m.explicit_b.items()}
    pres = chow_presentation(hand)
    assert pres.ring.topdegs == (2, 2, 4)
    for maxdeg in (7, 20, 40, hand.dim_gt):
        assert presentation_series(hand, maxdeg) == (
            hilbert_series(pres, maxdeg), None), maxdeg
        assert verify_additive_decomposition(hand, maxdeg)["status"] == "pass"


def test_decomposition_fails_a_wrong_presentation():
    # SO(2l) with its last relation e_l replaced by e_{l-1}, and U(3) with
    # c_3 replaced by c_1*c_2: the closed-form torus factor must not hide
    # the error in the quotient
    for l in range(2, 9):
        m = lookup_model("SO_even", l, 2)
        pres = chow_presentation(m)
        e = elementary_symmetric(pres.ring)
        hand = _with_relations(m, list(pres.relations[:-1]) + [e[l - 2]])
        rep = verify_additive_decomposition(hand, m.dim_gt)
        assert rep["status"] == "fail", m.label()
        assert verify_additive_decomposition(m, m.dim_gt)["status"] == "pass"
    m = lookup_model("U", 3, 2)
    c1, c2, _ = chow_presentation(m).relations
    rep = verify_additive_decomposition(_with_relations(m, [c1, c2, c1 * c2]),
                                        m.dim_gt)
    assert rep["status"] == "fail"


def test_decomposition_matches_linear_algebra_oracle_for_so5():
    # independent check of the left-hand series against Gaussian elimination
    pres = chow_presentation(lookup_model("SO_odd", 2, 2))
    dims = graded_quotient_dims((2, 2), [r.terms for r in pres.relations], 2, 16)
    assert hilbert_series(pres, 16).dims == dims


def test_f4_pontryagin_relations_decompose():
    # supplementary: the rank-4 case over F_3 admits symmetric-square forms
    # whose pairwise products present the quotient, and the series splits as
    # {1, b_1..b_4} (x) coinvariants
    from flagchow.groebner import hs_from_degrees
    from flagchow.symclass import pontryagin_class
    ring = t_ring(4, 3)
    ps = pontryagin_class(ring)
    rels = [ps[i] * ps[j] for i in range(4) for j in range(i, 4)]
    pres = QuotientPresentation(ring, rels)
    lhs = hilbert_series(pres, 36)
    rost = hs_from_degrees([0, 4, 8, 12, 16], 36)
    coinv = QuotientPresentation(ring, ps)
    rhs = hs_product(rost, hilbert_series(coinv, 36), 36)
    assert lhs == rhs


# --- restrictions ------------------------------------------------------------


def test_restriction_reports_all_pass():
    for rep in restriction_reports():
        assert rep["status"] == "pass", rep


def test_restriction_expected_cardinalities():
    assert restriction_check(restriction_table("e8-3-rost-restriction"))[
        "image_cardinality"] == 7
    assert restriction_check(restriction_table("e8-2-rost-restriction"))[
        "image_cardinality"] == 5


def test_so_restriction_degree_equation_l7():
    t = restriction_table("so-rost-restriction-l7")
    model = lookup_model(*t.key)
    images = {e.name: image for e, image in zip(model.transgression, t.images)}
    y14 = model.y_ring().gen("y14")
    assert images["c_4"] == (2, y14)   # 8 = 14 - 6
    assert images["c_6"] == (1, y14)
    assert images["c_7"] == (0, y14)
    assert images["c_5"] is None


def test_restriction_check_reports_an_image_off_the_degree_equation():
    t = restriction_table("so-rost-restriction-l3")
    y6 = lookup_model(*t.key).y_ring().gen("y6")
    rep = restriction_check(with_restriction_image(t, "c_3", (1, y6)))  # 6 != 6 - 2
    assert rep["status"] == "fail"
    assert rep["failures"] == ["c_3 -> v_1*y6 fails the degree equation"]


def test_restriction_check_reports_a_zero_or_unreduced_image():
    t = restriction_table("e8-3-rost-restriction")
    R = lookup_model(*t.key).y_ring()
    # y8^5 has the degree 36 + 2(3 - 1) but is zero in P(y)/3
    rep = restriction_check(with_restriction_image(t, "b_6", (1, R.gen("y8", 5))))
    assert rep["failures"] == ["b_6 -> v_1*y8^5 is zero or not reduced in P(y)/3"]
    other = lookup_model("E8", prime=2).y_ring().gen("y6")
    for body in (R.zero(), R.gen("y8", 3), other):
        rep = restriction_check(with_restriction_image(t, "b_1", (1, body)))
        label = "b_1 -> v_1*%s" % body.pretty()
        assert rep["failures"] == [
            label + " is zero or not reduced in P(y)/3",
            label + " fails the degree equation"], body


def test_restriction_check_reports_an_image_list_of_the_wrong_length():
    t = restriction_table("e7-2-rost-restriction")
    short = RestrictionTable(t.name, t.key, t.images[:-1], t.expected_image)
    assert restriction_check(short)["failures"] == [
        "6 images for 7 transgression entries"]


def _table_with(name, **changes):
    """A copy of the named restriction table with the fields in `changes`
    replaced."""
    t = restriction_table(name)
    fields = {s: getattr(t, s) for s in RestrictionTable.__slots__}
    fields.update(changes)
    return RestrictionTable(**fields)


def _imaged(name, source, image):
    return with_restriction_image(restriction_table(name), source, image)


def _e8_3_y(name, power):
    return lookup_model("E8", prime=3).y_ring().gen(name, power)


# name -> (build() -> table, the failures restriction_check lists, in order)
RESTRICTION_MUTANTS = {
    "off-the-degree-equation": (
        lambda: _imaged("so-rost-restriction-l3", "c_3", (
            1, lookup_model("SO_odd", 3, 2).y_ring().gen("y6"))),
        ["c_3 -> v_1*y6 fails the degree equation"]),
    "zero-in-the-quotient": (
        lambda: _imaged("e8-3-rost-restriction", "b_6", (1, _e8_3_y("y8", 5))),
        ["b_6 -> v_1*y8^5 is zero or not reduced in P(y)/3"]),
    "zero-image": (
        lambda: _imaged("e8-3-rost-restriction", "b_1", (
            1, lookup_model("E8", prime=3).y_ring().zero())),
        ["b_1 -> v_1*0 is zero or not reduced in P(y)/3",
         "b_1 -> v_1*0 fails the degree equation"]),
    "at-the-truncation-and-off-degree": (
        lambda: _imaged("e8-3-rost-restriction", "b_1", (1, _e8_3_y("y8", 3))),
        ["b_1 -> v_1*y8^3 is zero or not reduced in P(y)/3",
         "b_1 -> v_1*y8^3 fails the degree equation"]),
    "image-in-another-ring": (
        lambda: _imaged("e8-3-rost-restriction", "b_1", (
            1, lookup_model("E8", prime=2).y_ring().gen("y6"))),
        ["b_1 -> v_1*y6 is zero or not reduced in P(y)/3",
         "b_1 -> v_1*y6 fails the degree equation"]),
    "image-list-too-short": (
        lambda: _table_with("e7-2-rost-restriction", images=restriction_table(
            "e7-2-rost-restriction").images[:-1]),
        ["6 images for 7 transgression entries"]),
    # the unit's 0 dropped: the count is off, the positive degrees agree
    "cited-count": (
        lambda: _table_with("e8-3-rost-restriction",
                            expected_image=(4, 8, 16, 28, 36, 48)),
        ["image count 7 != cited 6"]),
    "cited-degree": (
        lambda: _table_with("e8-3-rost-restriction",
                            expected_image=(0, 4, 8, 16, 28, 36, 50)),
        ["image degrees differ from the cited basis"]),
}


@pytest.mark.parametrize("name", list(RESTRICTION_MUTANTS))
def test_each_restriction_mutant_lists_its_exact_failures_in_order(name):
    build, expected = RESTRICTION_MUTANTS[name]
    rep = restriction_check(build())
    assert (rep["status"], rep["failures"]) == ("fail", expected)


def test_e8_2_restriction_matches_rost_basis():
    # the image basis is the height-4 summand basis
    t = restriction_table("e8-2-rost-restriction")
    expected_degs = sorted(t.expected_image)
    rost_degs = sorted(b.topdeg for b in rost_chow_basis(4, 2))
    assert expected_degs == rost_degs


def test_so_l3_restriction_matches_height2():
    t = restriction_table("so-rost-restriction-l3")
    expected_degs = sorted(t.expected_image)
    assert expected_degs == sorted(b.topdeg for b in rost_chow_basis(2, 2))
