import pytest

from flagchow.catalog import lookup_model
from flagchow.errors import DataMissingError, ValidationError
from flagchow.groebner import GroebnerBasis, buchberger
from flagchow.torsion import (
    _eliminate_monic,
    fundamental_coefficient,
    marlin_bound,
    sharp_of_y_top,
    sharp_y_bound,
    spin17_nonzero_products,
    torsion_index,
    torsion_index_so,
    build_integral_flag_ring,
    integral_flag_relations,
    witness_product,
    witness_submultisets_nonzero,
)


# --- the integral flag ring --------------------------------------------------


def test_build_integral_flag_ring_rank2():
    flag_ring = build_integral_flag_ring(2)
    assert sum(flag_ring.ranks) == 8          # 2^2 * 2!
    assert flag_ring.topdim == 8
    assert flag_ring.ranks[-1] == 1
    assert flag_ring.convention == "c-form"


def test_build_integral_flag_ring_rank3():
    flag_ring = build_integral_flag_ring(3)
    assert sum(flag_ring.ranks) == 48         # 2^3 * 3!
    assert flag_ring.topdim == 18
    assert flag_ring.ranks[-1] == 1


def test_integral_flag_relations_shapes():
    ring, rels = integral_flag_relations(3, "c-form")
    assert len(rels) == 6
    degs = sorted(r.homogeneous_topdeg() for r in rels)
    assert degs == [2, 4, 4, 6, 8, 12]
    # the lowest quadratic relation identifies y4 with y2^2
    y4 = ring.gen("y4")
    y2 = ring.gen("y2")
    assert any(r == y4 - y2 * y2 for r in rels)


def test_display_form_differs_only_by_middle_sign():
    ring_a, rels_a = integral_flag_relations(2, "c-form")
    ring_b, rels_b = integral_flag_relations(2, "display-form")
    y4, y2 = ring_a.gen("y4"), ring_a.gen("y2")
    ja = [r for r in rels_a if r == y4 - y2 * y2]
    jb = [r for r in rels_b if r == y4 + y2 * y2]
    assert ja and jb


def test_mutated_relations_fail_rank_check():
    ring, rels = integral_flag_relations(2, "c-form")
    # injected fault: drop a quadratic relation entirely
    broken = rels[:-1]
    red_ring, red_rels, chain = _eliminate_monic(ring, broken)
    basis = buchberger(red_rels, red_ring, "grevlex", 8)
    gb = GroebnerBasis("grevlex", basis, 8, red_ring)
    from flagchow.groebner import _standard_monomial_dims
    from flagchow.torsion import _expected_flag_series
    actual = _standard_monomial_dims(gb.leading_monomials(), red_ring, 8)
    assert actual != _expected_flag_series(2)


def test_build_integral_flag_ring_rejects_out_of_scale_ranks():
    with pytest.raises(ValidationError):
        build_integral_flag_ring(5)
    with pytest.raises(ValidationError):
        build_integral_flag_ring(1)


def test_fundamental_coefficient_rank2():
    flag_ring = build_integral_flag_ring(2)
    # normal form of t1^3 t2 lands on the fundamental class with coordinate 4
    assert abs(fundamental_coefficient(flag_ring, (3, 1))) == 4
    assert abs(fundamental_coefficient(flag_ring, (1, 3))) == 4
    assert fundamental_coefficient(flag_ring, (4, 0)) % 4 == 0
    with pytest.raises(ValidationError):
        fundamental_coefficient(flag_ring, (1, 1))


def test_torsion_index_so_values():
    assert torsion_index_so(2) == 4
    assert torsion_index_so(3) == 8


def test_torsion_index_so3_individual_values_are_multiples():
    flag_ring = build_integral_flag_ring(3)
    for exps in [(9, 0, 0), (5, 3, 1), (3, 3, 3), (4, 4, 1)]:
        assert fundamental_coefficient(flag_ring, exps) % 8 == 0


# --- bounds ------------------------------------------------------------------


def test_marlin_bound_values():
    assert marlin_bound(3) == 2
    assert marlin_bound(5) == 4
    assert marlin_bound(8) == 16
    with pytest.raises(ValidationError):
        marlin_bound(0)


def test_marlin_bound_dominates_stored_spin_indices():
    for l in range(3, 9):
        m = lookup_model("Spin_odd", l, 2)
        stored = m.descriptor.torsion_index_p
        if stored is not None:
            assert stored <= marlin_bound(l), l
            assert marlin_bound(l) % stored == 0


# --- witness products ----------------------------------------------------------


def test_witness_e8_p2():
    m = lookup_model("E8", prime=2)
    w = witness_product(m, [5, 5, 5, 4, 6, 8])
    assert w.s == 6
    assert w.body == m.y_top()


def test_witness_e8_p3_and_e7():
    m = lookup_model("E8", prime=3)
    w = witness_product(m, [2, 8])
    assert (w.s, w.body) == (2, m.y_top())
    m = lookup_model("E7", prime=2)
    w = witness_product(m, [2, 7])
    assert (w.s, w.body) == (2, m.y_top())


def test_witness_type_one_cases():
    for fam, rank, p in [("G2", 2, 2), ("F4", 4, 3), ("E8", 8, 5)]:
        m = lookup_model(fam, rank, p)
        w = witness_product(m, [2 * p - 2])
        assert w.s == 1
        assert w.body == m.y_top()
        assert w.body == m.y_gen_poly(m.y_gens[0].name, p - 1)


def test_witness_so_families():
    m = lookup_model("SO_odd", 3, 2)
    w = witness_product(m, [1, 2, 3])
    assert (w.s, w.body) == (3, m.y_top())
    m = lookup_model("SO_even", 4, 2)
    w = witness_product(m, [1, 2, 3])
    assert (w.s, w.body) == (3, m.y_top())


def test_witness_exponent_additivity_and_multiplicativity():
    m = lookup_model("E8", prime=2)
    a = witness_product(m, [5, 5])
    b = witness_product(m, [4, 6, 8])
    both = witness_product(m, [5, 5, 4, 6, 8])
    assert both.s == a.s + b.s
    assert both.body == m.reduce_y(a.body * b.body)


def test_witness_missing_leading_raises():
    m = lookup_model("E8", prime=2)
    with pytest.raises(DataMissingError):
        witness_product(m, [1])  # the first entry has no leading term
    m = lookup_model("Spin_odd", 8, 2)
    with pytest.raises(DataMissingError):
        witness_product(m, [4])  # a 2-power entry has no leading term


def test_witness_submultisets_nonzero():
    for fam, rank, p, idx in [("E8", 8, 2, [5, 5, 5, 4, 6, 8]),
                              ("E8", 8, 3, [2, 8]),
                              ("E7", 7, 2, [2, 7]),
                              ("SO_odd", 4, 2, [1, 2, 3, 4]),
                              ("Spin_odd", 8, 2, [3, 5, 6, 7])]:
        m = lookup_model(fam, rank, p)
        ok, witness = witness_submultisets_nonzero(m, idx)
        assert ok, (fam, p, witness)


def test_truncation_kills_overflow_products():
    # y18 squares to zero, so doubling the witness collapses
    m = lookup_model("E8", prime=2)
    w = witness_product(m, [4, 4])
    assert w.body.is_zero()
    assert w.s == 2


# --- counting bound ------------------------------------------------------------


def test_sharp_bound_e8():
    m = lookup_model("E8", prime=2)
    assert sharp_y_bound(m, 5) == 11
    assert sharp_of_y_top(m) == 12
    assert sharp_y_bound(m, 5) < sharp_of_y_top(m)


def test_sharp_bound_trivial_and_small():
    m = lookup_model("E8", prime=2)
    assert sharp_y_bound(m, 0) == 0
    e7 = lookup_model("E7", prime=2)
    assert sharp_y_bound(e7, 0) == 0
    assert sharp_y_bound(e7, 1) == 2


def test_sharp_bound_missing_data():
    with pytest.raises(DataMissingError):
        sharp_y_bound(lookup_model("SO_odd", 3, 2), 3)


# --- the dispatcher --------------------------------------------------------------


def test_torsion_index_so7_exact():
    m = lookup_model("SO_odd", 3, 2)
    assert torsion_index(m) == (8, "EXACT")


def test_torsion_index_witness_levels():
    assert torsion_index(lookup_model("E8", prime=2)) == (64, "UPPER+COUNT")
    assert torsion_index(lookup_model("F4", prime=3)) == (3, "UPPER-WITNESS")
    assert torsion_index(lookup_model("E8", prime=3)) == (9, "UPPER-WITNESS")
    assert torsion_index(lookup_model("E7", prime=2)) == (4, "UPPER-WITNESS")
    assert torsion_index(lookup_model("Spin_odd", 5, 2)) == (2, "UPPER-WITNESS")
    assert torsion_index(lookup_model("Spin_odd", 8, 2)) == (16, "UPPER-WITNESS")
    assert torsion_index(lookup_model("U", 4, 3)) == (1, "UPPER-WITNESS")
    assert torsion_index(lookup_model("SO_odd", 6, 2)) == (64, "UPPER-WITNESS")


def test_torsion_index_missing_spin_data():
    with pytest.raises(DataMissingError):
        torsion_index(lookup_model("Spin_odd", 6, 2))


def test_spin17_products():
    rep = spin17_nonzero_products()
    assert rep["plain"] and rep["with_v1_factor"]
    assert rep["plain_exponent"] == 4
    assert rep["mixed_exponent"] == 3
