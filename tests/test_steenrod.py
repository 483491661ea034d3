import pytest

from flagchow.catalog import OperationRule, lookup_model
from flagchow.errors import DataMissingError, UnsupportedCaseError
from flagchow.steenrod import (
    beta_preimage,
    derive_q1_check,
    q_milnor,
    sq_hits,
    sq_on_so_generator,
    sq_on_y,
)
from flagchow.symclass import lucas_binomial


def test_sq0_is_identity():
    m = lookup_model("SO_odd", 3, 2)
    assert sq_on_so_generator(3, 0, m) == "x3"
    assert sq_on_so_generator(4, 0, m) == "y2^2"


def test_sq0_on_an_even_index_with_no_class_is_zero():
    # SO(4) has no degree-4 class in P(y), Spin(7) none of degree 2 or 4
    assert sq_on_so_generator(4, 0, lookup_model("SO_even", 2, 2)) == "0"
    spin7 = lookup_model("Spin_odd", 3, 2)
    assert [sq_on_so_generator(i, 0, spin7) for i in (2, 4, 6)] == ["0", "0", "y6"]


def test_sq1_x3_is_the_degree4_class():
    # binom(3,1) = 3 is odd, and x_4 is the square class y_4 = y2^2
    m = lookup_model("SO_odd", 3, 2)
    assert sq_on_so_generator(3, 1, m) == "y2^2"


def test_sq2_x4_vanishes():
    # binom(4,2) = 6 is even
    m = lookup_model("SO_odd", 4, 2)
    assert sq_on_so_generator(4, 2, m) == "0"


def test_sq_rejects_other_families():
    with pytest.raises(UnsupportedCaseError):
        sq_on_so_generator(3, 1, lookup_model("E8", prime=2))


def test_sq_on_y_cases():
    assert sq_on_y(1, 1, 3) == "y2^2"
    assert sq_on_y(2, 2, 4) == "y2^4"
    assert sq_on_y(2, 1, 4) == "0"  # binom(2,1) even
    assert sq_on_y(3, 2, 4) == "0"  # past the rank bound


def test_sq_hits_examples():
    assert sq_hits(3) is False   # 3 = 2^2 - 1
    assert sq_hits(5) is True
    assert sq_hits(1) is False   # no smaller index exists


def test_sq_hits_iff_not_mersenne_exhaustive():
    for i in range(1, 65):
        mersenne = (i & (i + 1)) == 0
        assert sq_hits(i) == (not mersenne), i


def test_q_milnor_so_range_rule():
    # rank 5: level-1 image of the degree-9 generator lands past the bound
    m = lookup_model("SO_odd", 5, 2)
    assert q_milnor(m, "x9", 1).is_zero()
    # in rank 6 the same image survives as the degree-12 class
    m6 = lookup_model("SO_odd", 6, 2)
    assert q_milnor(m6, "x9", 1) == m6.y_class(12)


def test_q_milnor_tables():
    e83 = lookup_model("E8", prime=3)
    assert q_milnor(e83, "x2", 0) == e83.y_ring().gen("y8")
    assert q_milnor(e83, "z7", 0) == e83.y_ring().gen("y8")  # alias lookup
    spin11 = lookup_model("Spin_odd", 5, 2)
    out = q_milnor(spin11, "z15", 0)
    assert out == spin11.y_ring().gen("y6") * spin11.y_ring().gen("y10")


def test_q_milnor_never_silent_zero():
    e7 = lookup_model("E7", prime=2)
    # the level-1 value on the fifth generator is not recorded
    with pytest.raises(DataMissingError):
        q_milnor(e7, "x5", 1)
    # but the complete first entry forces zero at unrecorded high levels
    assert q_milnor(e7, "x1", 5).is_zero()


def test_q_milnor_bockstein_from_complete_entries():
    e82 = lookup_model("E8", prime=2)
    R = e82.y_ring()
    assert q_milnor(e82, "x1", 0).is_zero()       # no p-part in the first entry
    assert q_milnor(e82, "x2", 2) == R.gen("y6", 2)
    assert q_milnor(e82, "x2", 1).is_zero()       # complete entry, level absent
    assert q_milnor(e82, "x3", 3) == R.gen("y6", 4)


def test_milnor_operations_ignore_the_stored_rules(monkeypatch):
    # validate_model ties each stored Bockstein rule to its leading witness;
    # Q_n and beta_preimage read the witness alone, so a rule that disagrees
    # with it changes neither
    e83 = lookup_model("E8", prime=3)
    R = e83.y_ring()
    before = [q_milnor(e83, x.name, 0) for x in e83.x_gens]
    monkeypatch.setattr(e83, "op_rules", tuple(
        OperationRule(r.op, r.source, ("ypoly", R.gen("y20", 2)))
        for r in e83.op_rules if r.op == "beta"))
    assert [q_milnor(e83, x.name, 0) for x in e83.x_gens] == before
    assert beta_preimage(e83, R.gen("y20", 2)) == "x7"
    assert beta_preimage(e83, R.gen("y8")) == "x2"


def test_q_squares_to_zero_where_recorded():
    # Q_n x is a y-polynomial and Q_n kills every y-generator, so Q_n Q_n x = 0
    m = lookup_model("SO_odd", 5, 2)
    for n in range(0, 3):
        assert all(q_milnor(m, g.name, n).is_zero() for g in m.y_gens)
        for i in range(1, 6):
            assert q_milnor(m, "x%d" % (2 * i - 1), n).ring is m.y_ring()
    # Q_0 x2 = y8 on (E8, 3), and Q_0 on y8 leaves the recorded tables
    e83 = lookup_model("E8", prime=3)
    assert q_milnor(e83, "x2", 0).pretty() == "y8"
    with pytest.raises(DataMissingError):
        q_milnor(e83, "y8", 0)


def test_degree_law_on_all_recorded_rules():
    from flagchow.catalog import op_topdeg
    for fam, rank, p in [("SO_odd", 5, 2), ("Spin_odd", 5, 2),
                         ("E8", 8, 2), ("E8", 8, 3), ("E8", 8, 5),
                         ("E7", 7, 2), ("F4", 4, 3), ("G2", 2, 2)]:
        m = lookup_model(fam, rank, p)
        for x in m.x_gens:
            for n in range(0, 4):
                try:
                    out = q_milnor(m, x.name, n)
                except DataMissingError:
                    continue
                if out.is_zero():
                    continue
                expected = {x.topdeg + op_topdeg("Q%d" % n, p)}
                assert out.term_topdegs() == expected, (fam, p, x.name, n)


def test_derive_q1_check_agreement():
    for l in (2, 3, 4, 5):
        reports = derive_q1_check(l)
        assert len(reports) == l
        assert all(r["agree"] for r in reports), reports


def test_derive_q1_values():
    # the composition lands on the class two units above, so the stored
    # '+' index convention is the one the square relations produce
    reports = derive_q1_check(3)
    by_gen = {r["generator"]: r for r in reports}
    assert by_gen["x3"]["derived"] == "y6"
    assert by_gen["x5"]["derived"] == "0"  # target past the rank bound
    m2 = lookup_model("SO_odd", 2, 2)
    assert q_milnor(m2, "x3", 1).is_zero()
    reports2 = derive_q1_check(2)
    assert all(r["agree"] for r in reports2)


def test_wu_composition_against_binomials():
    # spot identity: Sq^1 x_{2i-1} = x_{2i} always (odd top index)
    m = lookup_model("SO_odd", 4, 2)
    for i in range(1, 5):
        out = sq_on_so_generator(2 * i - 1, 1, m)
        assert out == m.y_class(2 * i).pretty()
        assert lucas_binomial(2 * i - 1, 1, 2) == 1
