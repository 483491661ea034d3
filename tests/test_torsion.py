import copy
import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from types import SimpleNamespace

import pytest

import oracles
from flagchow import catalog, torsion
from flagchow.catalog import (
    SharpData,
    TransgressionEntry,
    WitnessPolynomial,
    lookup_model,
)
from flagchow.errors import DataMissingError, InternalInconsistencyError, ValidationError
from flagchow.ring import GradedVariable, PolyRing, Polynomial
from flagchow.torsion import (
    sharp_of_y_top,
    sharp_y_bound,
    torsion_index,
    torsion_index_so,
    build_integral_flag_ring,
    witness_product,
)
from oracles import (
    demazure_degree,
    marlin_bound,
    monomials_of_topdeg,
    spin17_nonzero_products,
)


# --- the degree map ------------------------------------------------------------


def test_build_integral_flag_ring_rank2():
    # the |W| certificate: deg(prod of the positive roots) = 2^2 * 2!
    _, details = torsion_index_so(2, return_details=True)
    assert details["rank"] == 8
    assert set(build_integral_flag_ring(2)) == set(monomials_of_topdeg([1, 1], 4))


def test_build_integral_flag_ring_rank3():
    _, details = torsion_index_so(3, return_details=True)
    assert details["rank"] == 48              # 2^3 * 3!


def _short_root_halved(push):
    # the short-root step without its factor 2 (the type-C rule)
    def mutated(layer, i, l):
        pushed = push(layer, i, l)
        if i == l:
            return {m: c // 2 for m, c in pushed.items()}
        return pushed
    return mutated


def _long_root_signs_swapped(push):
    # -v at the pair (s - lo, lo) and +v at (lo, s - lo)
    def mutated(layer, i, l):
        pushed = push(layer, i, l)
        if i < l:
            return {m: -c for m, c in pushed.items()}
        return pushed
    return mutated


def _long_root_sign_dropped(push):
    # +v at both pairs, as if d_i were (f + s_i f) / alpha_i
    def mutated(layer, i, l):
        if i == l:
            return push(layer, i, l)
        pushed = {}
        for n, v in layer.items():
            for m in push({n: v}, i, l):
                pushed[m] = pushed.get(m, 0) + v
        return {m: c for m, c in pushed.items() if c}
    return mutated


def test_mutated_relations_fail_rank_check(monkeypatch):
    # injected faults in the push step, so the walk computes a different
    # degree map and the |W| certificate must catch it
    original = torsion._push
    for mutant in (_short_root_halved, _long_root_sign_dropped):
        monkeypatch.setattr(torsion, "_push", mutant(original))
        for l in (2, 3, 4):
            with pytest.raises(InternalInconsistencyError):
                torsion_index_so(l)


def test_swapped_long_root_signs_leave_the_degree_map_unchanged(monkeypatch):
    # the swap negates every layer pushed by a letter i < l, and the word
    # has l(l - 1) of them, an even number: the same map, so no check can
    # tell it from the unmutated walk
    monkeypatch.setattr(torsion, "_push", _long_root_signs_swapped(torsion._push))
    for l in (2, 3, 4):
        assert build_integral_flag_ring(l) == oracles.pulled_back_degrees(l)


def test_non_reduced_word_is_caught_by_the_certificate(monkeypatch):
    # the last letter repeats the one before it, and s_i s_i = 1, so the
    # word has the right length but is not reduced
    reduced = torsion._w0_word
    monkeypatch.setattr(torsion, "_w0_word",
                        lambda l: reduced(l)[:-1] + reduced(l)[-2:-1])
    for l in (2, 3, 4):
        assert len(torsion._w0_word(l)) == l * l
        with pytest.raises(InternalInconsistencyError):
            torsion_index_so(l)


def test_the_closed_form_root_product_equals_the_expansion():
    # the alternant against the product multiplied out root by root
    for l in range(1, 7):
        assert dict(torsion._positive_root_product(l)) == dict(
            oracles.positive_root_expansion(l))


def test_a_root_product_with_one_sign_flipped_fails_the_certificate(monkeypatch):
    # flipping the sign of a term of nonzero degree d moves the certificate
    # by 2d, so |W| is missed
    closed = torsion._positive_root_product
    for l in (2, 3, 4):
        degrees = build_integral_flag_ring(l)
        terms = list(closed(l))
        k = next(k for k, (m, _) in enumerate(terms) if degrees[m])
        terms[k] = (terms[k][0], -terms[k][1])
        monkeypatch.setattr(torsion, "_positive_root_product",
                            lambda _, flipped=tuple(terms): flipped)
        with pytest.raises(InternalInconsistencyError):
            torsion_index_so(l)


def test_build_integral_flag_ring_rejects_out_of_scale_ranks():
    with pytest.raises(ValidationError):
        build_integral_flag_ring(5)
    with pytest.raises(ValidationError):
        build_integral_flag_ring(1)


def test_fundamental_coefficient_rank2():
    degrees = build_integral_flag_ring(2)
    assert abs(degrees[(3, 1)]) == 4
    assert abs(degrees[(1, 3)]) == 4
    assert degrees[(4, 0)] % 4 == 0


def test_torsion_index_so_values():
    assert torsion_index_so(2) == 4
    assert torsion_index_so(3) == 8


def test_torsion_index_so3_individual_values_are_multiples():
    degrees = build_integral_flag_ring(3)
    for exps in [(9, 0, 0), (5, 3, 1), (3, 3, 3), (4, 4, 1)]:
        assert degrees[exps] % 8 == 0


def test_monomials_checked_counts_every_top_monomial():
    for l, count in [(2, 5), (3, 55), (4, 969)]:
        _, details = torsion_index_so(l, return_details=True)
        assert details["monomials_checked"] == comb(l * l + l - 1, l - 1) == count


def test_pushed_degree_map_equals_the_pull_back_walk():
    for l in (2, 3, 4):
        degrees = build_integral_flag_ring(l)
        assert degrees == oracles.pulled_back_degrees(l)
        assert set(degrees) == set(monomials_of_topdeg([1] * l, l * l))
        assert 0 in degrees.values()


def test_degree_map_matches_the_other_reduced_word():
    # the oracle applies the divided differences to t^a itself along
    # (s_l ... s_1)^l; agreement with the transposed walk along
    # (s_1 ... s_l)^l is the braid relations at work
    for l in (2, 3):
        word = list(range(l, 0, -1)) * l
        degrees = build_integral_flag_ring(l)
        for exps in monomials_of_topdeg([1] * l, l * l):
            assert demazure_degree(exps, word) == degrees[exps], exps


def _spin_lattice_index(l):
    """gcd of the degrees of the monomials in t_1..t_{l-1} and
    (t_1 + ... + t_l)/2, a basis of the Spin(2l+1) character lattice."""
    degrees = build_integral_flag_ring(l)
    powers = [{(0,) * l: 1}]
    for _ in range(l * l):
        nxt = {}
        for m, c in powers[-1].items():
            for j in range(l):
                key = m[:j] + (m[j] + 1,) + m[j + 1:]
                nxt[key] = nxt.get(key, 0) + c
        powers.append(nxt)
    value = 0
    for a in monomials_of_topdeg([1] * l, l * l):
        head = a[:-1] + (0,)
        total = sum(c * degrees[tuple(x + y for x, y in zip(head, m))]
                    for m, c in powers[a[-1]].items())
        degree = Fraction(total, 2 ** a[-1])
        assert degree.denominator == 1, a
        value = gcd(value, int(degree))
    return value


def test_spin_lattice_gcd_reproduces_stored_spin_indices():
    for l in (3, 4):
        stored = lookup_model("Spin_odd", l, 2).torsion_index_p
        assert _spin_lattice_index(l) == stored == 2


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
        stored = m.torsion_index_p
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
        assert w.body == m.y_ring().gen(m.y_gens[0].name, p - 1)


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


def witness_submultisets_nonzero(model, indices):
    """Every sub-multiset of a valid witness keeps a nonzero body."""
    idx = list(indices)
    seen = set()
    for r in range(len(idx) + 1):
        for combo in combinations(range(len(idx)), r):
            key = tuple(sorted(idx[i] for i in combo))
            if key in seen:
                continue
            seen.add(key)
            w = witness_product(model, key)
            if w.body.is_zero():
                return False, key
    return True, None


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


def test_sharp_bound_corrects_the_recursion_undercount():
    # uncapped, so every use can take the largest count: 3 * 4 and 2 * 8;
    # the recursion this replaced counted each index's uses twice against
    # the budget and read 11 and 15
    assert sharp_y_bound(lookup_model("E8", prime=3), 4) == 12
    assert sharp_y_bound(lookup_model("E7", prime=2), 8) == 16


def test_sharp_bound_matches_brute_force_on_the_stored_data():
    for key in [("E8", 8, 2), ("E8", 8, 3), ("E7", 7, 2)]:
        m = lookup_model(*key)
        for k in range(9):
            assert sharp_y_bound(m, k) == oracles.sharp_y_bound(m, k), (key, k)


# the factor-count tables the catalog once stored beside the witnesses, as
# each index's set of term exponent sums: the leading bodies carry them all
STORED_FACTOR_COUNTS = {
    ("E8", 8, 2): {2: {1}, 3: {1}, 4: {1}, 5: {2}, 6: {2, 4}, 7: {2}, 8: {1}},
    ("E8", 8, 3): {2: {1}, 3: {2}, 4: {1}, 5: {2}, 6: {3}, 7: {2}, 8: {3}},
    ("E7", 7, 2): {2: {1}, 3: {1}, 4: {1}, 5: {2}, 6: {2}, 7: {2}},
}


def test_factor_counts_are_the_exponent_sums_of_the_leading_terms():
    for key, counts in STORED_FACTOR_COUNTS.items():
        m = lookup_model(*key)
        assert m.sharp is not None
        assert {e.index: {sum(t) for t in e.leading.body.terms}
                for e in m.transgression if e.leading is not None} == counts, key


_COUNT_RING = PolyRing([GradedVariable("a", 2), GradedVariable("b", 2)], 2)


def _random_body(rng):
    # one or two terms, each of total exponent 0..4
    terms = {}
    for _ in range(rng.randint(1, 2)):
        c = rng.randint(0, 4)
        a = rng.randint(0, c)
        terms[(a, c - a)] = 1
    return Polynomial(_COUNT_RING, terms)


def _random_sharp_case(rng):
    indices = rng.sample(range(1, 9), rng.randint(1, 6))
    witnessed = indices[:rng.randint(1, min(4, len(indices)))]
    entries = [TransgressionEntry(
        i, "b_%d" % i, 0,
        WitnessPolynomial(1, _random_body(rng)) if i in witnessed else None,
        [], complete=False) for i in indices]
    min_uses = {i: rng.randint(0, 2) for i in rng.sample(range(1, 10), rng.randint(0, 2))}
    max_uses = {i: rng.randint(-1, 3)
                for i in rng.sample(witnessed, rng.randint(0, len(witnessed)))}
    model = SimpleNamespace(sharp=SharpData(min_uses, max_uses), transgression=entries)
    return model, rng.randint(0, 6)


def test_sharp_bound_matches_brute_force_on_random_data():
    rng = random.Random(20261018)
    for trial in range(1500):
        model, k = _random_sharp_case(rng)
        data = model.sharp
        assert sharp_y_bound(model, k) == oracles.sharp_y_bound(model, k), \
            (trial, [(e.index, e.leading) for e in model.transgression],
             data.min_uses, data.max_uses, k)


def test_sharp_bound_missing_data():
    with pytest.raises(DataMissingError):
        sharp_y_bound(lookup_model("SO_odd", 3, 2), 3)


# --- the dispatcher --------------------------------------------------------------


def test_torsion_index_so7_exact():
    m = lookup_model("SO_odd", 3, 2)
    value, level, details = torsion_index(m)
    assert (value, level) == (8, "EXACT")
    assert details["monomials_checked"] == 55
    # the witness product it checked, 2^3 times the top class
    assert details["witness"] == witness_product(m, m.witness)


def test_torsion_index_witness_levels():
    # a witness level carries the witness product it checked
    def witnessed(m, value, level):
        return (value, level, {"witness": witness_product(m, m.witness)})

    m = lookup_model("E8", prime=2)
    assert torsion_index(m) == witnessed(m, 64, "UPPER+COUNT")
    for case, value in ((("F4", None, 3), 3), (("E8", None, 3), 9),
                        (("E7", None, 2), 4), (("Spin_odd", 5, 2), 2),
                        (("Spin_odd", 8, 2), 16), (("U", 4, 3), 1),
                        (("SO_odd", 6, 2), 64)):
        m = lookup_model(*case)
        assert torsion_index(m) == witnessed(m, value, "UPPER-WITNESS"), case


def test_every_served_torsion_report_is_consistent():
    levels = {}
    missing = []
    for _, m in catalog._served_models():
        try:
            value, level, _ = torsion_index(m)
        except DataMissingError:
            missing.append(m.label())
            continue
        assert value == m.torsion_index_p, m.label()
        levels[level] = levels.get(level, 0) + 1
    assert levels == {"EXACT": 3, "UPPER-WITNESS": 48, "UPPER+COUNT": 1}
    assert missing == ["Spin(13) p=2", "Spin(15) p=2"]


def _mutant(family, rank, prime, **fields):
    m = copy.copy(lookup_model(family, rank, prime))
    for name, value in fields.items():
        setattr(m, name, value)
    return m


def test_a_mutated_witness_or_index_fails_the_torsion_report():
    # (E8, 3) with one of its two witness indices lost: p^1 * y8*y20^2
    with pytest.raises(InternalInconsistencyError, match="top class"):
        torsion_index(_mutant("E8", 8, 3, witness=(8,)))
    # a witness index repeated overshoots the top class, and so does one
    # added to the SO(13) product
    with pytest.raises(InternalInconsistencyError, match="top class"):
        torsion_index(_mutant("E7", 7, 2, witness=(2, 2, 7)))
    with pytest.raises(InternalInconsistencyError, match="top class"):
        torsion_index(_mutant("SO_odd", 6, 2, witness=(1, 2, 3, 4, 5, 6, 6)))
    # the stored index no longer p^s of its witness
    with pytest.raises(InternalInconsistencyError, match="stored index"):
        torsion_index(_mutant("E7", 7, 2, torsion_index_p=8))
    with pytest.raises(InternalInconsistencyError, match="stored index"):
        torsion_index(_mutant("PU", 2, 3, torsion_index_p=1))


def test_a_mutated_exact_witness_fails_the_torsion_report(monkeypatch, capsys):
    # SO(7) with one of its three witness indices lost: the degree gcd still
    # gives the stored 8, but the witness no longer reaches the top class,
    # in the library or the CLI
    from flagchow.cli import main
    short = _mutant("SO_odd", 3, 2, witness=(1, 2))
    with pytest.raises(InternalInconsistencyError, match="top class"):
        torsion_index(short)
    monkeypatch.setattr(catalog, "lookup_model", lambda *case: short)
    assert main(["torsion-index", "--group", "SO", "--rank", "3",
                 "--witness"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "top class" in err


def test_torsion_index_missing_spin_data():
    with pytest.raises(DataMissingError):
        torsion_index(lookup_model("Spin_odd", 6, 2))


def test_a_stored_index_without_a_witness_is_missing_data(monkeypatch, capsys):
    # no served model stores an index without its witness; one built by hand
    # is not answered from the stored value alone, in the library or the CLI
    from flagchow.cli import main
    bare = _mutant("E7", 7, 2, witness=None)
    assert bare.torsion_index_p == 4
    with pytest.raises(DataMissingError, match="no torsion data for"):
        torsion_index(bare)
    monkeypatch.setattr(catalog, "lookup_model", lambda *case: bare)
    assert main(["torsion-index", "--group", "E7", "--prime", "2"]) == 2
    assert capsys.readouterr() == ("", "error: no torsion data for (E7, 2)\n")


def test_spin17_products():
    rep = spin17_nonzero_products()
    assert rep["plain"] and rep["with_v1_factor"]
    assert rep["plain_exponent"] == 4
    assert rep["mixed_exponent"] == 3
