import functools
import operator
import random

import pytest

from flagchow.errors import OutOfRangeError, ValidationError
from flagchow.groebner import (
    STAT_KEYS,
    Packing,
    QuotientPresentation,
    _minimal,
    _standard_monomial_dims,
    buchberger,
    groebner,
    hilbert_series,
    hs_from_degrees,
    hs_times,
    normal_form,
)
from flagchow.ring import GradedVariable, PolyRing
from flagchow.symclass import elementary_symmetric, pontryagin_class, t_ring

from oracles import (
    _reduce_full,
    buchberger_reference,
    graded_quotient_dims,
    homogeneous_topdeg,
    hs_product,
    in_ideal_mod_p,
    leading_term,
    monomials_of_topdeg,
    order_key,
    reduced_basis,
    standard_monomial_dims,
)


def _pres(l, p, rel_builder):
    ring = t_ring(l, p)
    return QuotientPresentation(ring, rel_builder(ring))


def _chern_rels(ring, power=1):
    return [c ** power for c in elementary_symmetric(ring)]


# --- groebner -------------------------------------------------------------


def test_single_relation_already_a_basis():
    ring = t_ring(1, 2)
    pres = QuotientPresentation(ring, [ring.gen("t1", 2)])
    gb = groebner(pres, 20)
    assert [g.terms for g in reduced_basis(gb)] == [{(2,): 1}]


def test_nonhomogeneous_relation_rejected():
    ring = t_ring(2, 2)
    bad = ring.gen("t1") + ring.gen("t1", 2)
    with pytest.raises(ValidationError):
        QuotientPresentation(ring, [bad])


def test_integer_coefficients_rejected_at_both_entry_points():
    # Z is not a field, and no ring over it can be built: every ring that
    # reaches buchberger, groebner or hilbert_series is over F_p
    for bad in (("Z",), 0, 1, 4, 2 ** 61):
        with pytest.raises(ValidationError):
            t_ring(2, bad)
    with pytest.raises(ValidationError):
        PolyRing([GradedVariable("x", 2)], 6)


def test_full_flag_quotient_dims_match_linear_algebra_oracle():
    # F_2[t1..t3]/(c1,c2,c3): oracle dims frozen below were produced by
    # graded_quotient_dims (Gaussian elimination), recomputed here
    pres = _pres(3, 2, _chern_rels)
    rels = [r.terms for r in pres.relations]
    oracle = graded_quotient_dims((2, 2, 2), rels, 2, 12)
    assert oracle == [1, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0]
    hs = hilbert_series(pres, 12)
    assert hs.dims == oracle
    assert hs.total() == 6  # 3!


def test_pu3_shape_staircase_excludes_c_products():
    # F_3[t1,t2]/(c1^2, c1c2, c2^2)
    ring = t_ring(2, 3)
    c1, c2 = elementary_symmetric(ring)
    pres = QuotientPresentation(ring, [c1 * c1, c1 * c2, c2 * c2])
    gb = groebner(pres, 12)
    # no leading monomial divides c1 or c2 leading monomials themselves
    for g in reduced_basis(gb):
        assert homogeneous_topdeg(g) >= 4
    oracle = graded_quotient_dims((2, 2),
                                  [r.terms for r in pres.relations], 3, 12)
    hs = hilbert_series(pres, 12)
    assert hs.dims == oracle
    assert oracle == [1, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0]
    assert hs.total() == 6


def test_normal_form_contracts():
    pres = _pres(2, 2, _chern_rels)
    gb = groebner(pres, 20)
    ring = pres.ring
    # relations die
    for r in pres.relations:
        assert normal_form(r, gb).is_zero()
    # the unit survives
    assert normal_form(ring.one(), gb) == ring.one()
    # linear-algebra oracle: t1^2 lies in (c1, c2), so its class vanishes
    # (the degree-4 graded piece of this quotient is zero)
    f = ring.gen("t1", 2)
    rels = [r.terms for r in pres.relations]
    assert in_ideal_mod_p((2, 2), rels, f.terms, 2)
    assert graded_quotient_dims((2, 2), rels, 2, 4)[4] == 0
    assert normal_form(f, gb).is_zero()
    # modding out c1 alone leaves t1^2 alive in a dim-1 degree-4 piece
    pres1 = QuotientPresentation(ring, [pres.relations[0]])
    gb1 = groebner(pres1, 20)
    rels1 = [pres.relations[0].terms]
    assert not in_ideal_mod_p((2, 2), rels1, f.terms, 2)
    assert graded_quotient_dims((2, 2), rels1, 2, 4)[4] == 1
    assert not normal_form(f, gb1).is_zero()


def test_normal_form_out_of_range():
    pres = _pres(2, 2, _chern_rels)
    gb = groebner(pres, 6)
    with pytest.raises(OutOfRangeError):
        normal_form(pres.ring.gen("t1", 4), gb)


def _random_homog(ring, rng, deg):
    monos = monomials_of_topdeg(ring.topdegs, deg)
    terms = [(m, rng.randrange(0, 2)) for m in monos]
    return ring.from_terms(terms)


def test_normal_form_idempotent_linear_multiplicative():
    rng = random.Random(3)
    pres = _pres(3, 2, _chern_rels)
    gb = groebner(pres, 16)
    ring = pres.ring
    for _ in range(25):
        f = _random_homog(ring, rng, 2 * rng.randrange(1, 5))
        g = _random_homog(ring, rng, 2 * rng.randrange(1, 4))
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)
        lhs = normal_form(f * g, gb)
        rhs = normal_form(normal_form(f, gb) * normal_form(g, gb), gb)
        assert lhs == rhs


def test_hilbert_series_free_ring_one_variable():
    ring = t_ring(1, 2)
    pres = QuotientPresentation(ring, [])
    hs = hilbert_series(pres, 10)
    assert hs.dims == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_squared_chern_quotient_total_dim():
    # F_2[t1,t2]/(c1^2,c2^2): regular sequence of degrees 4,8 so the total is
    # (4*8)/(2*2) = 8; the linear-algebra oracle agrees
    pres = _pres(2, 2, lambda r: _chern_rels(r, power=2))
    oracle = graded_quotient_dims((2, 2),
                                  [r.terms for r in pres.relations], 2, 16)
    hs = hilbert_series(pres, 16)
    assert hs.dims == oracle
    assert hs.total() == 8
    assert hs.dims[:9:2] == [1, 2, 2, 2, 1]


def _reference_series(pres, order, maxdeg):
    """Standard-monomial counts of the tuple reference's leading monomials
    in another monomial order."""
    key = order_key(order, pres.ring)
    lts = [max(g.terms, key=key)
           for g in buchberger_reference(pres.relations, pres.ring, order, maxdeg)]
    return standard_monomial_dims(lts, pres.ring.topdegs, maxdeg)


def test_hilbert_series_order_independent():
    # the engine's grevlex series against the reference's lex and block ones
    for l, p in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        pres = _pres(l, p, _chern_rels)
        assert hilbert_series(pres, 20).dims == _reference_series(pres, "lex", 20)
    pres = _pres(3, 2, _chern_rels)
    assert (hilbert_series(pres, 20).dims
            == _reference_series(pres, ("block", 1), 20))


def _weighted_ring(weights):
    return PolyRing([GradedVariable("x%d" % i, w) for i, w in enumerate(weights)], 2)


def _packed_dims(lts, weights, maxdeg):
    """_standard_monomial_dims on exponent tuples, packed wide enough for
    every generator, those above maxdeg included, and made minimal first."""
    degs = [sum(a * w for a, w in zip(m, weights)) for m in lts]
    pk = Packing(weights, max([maxdeg, 0] + degs))
    gens = [(d, pk.pack(m)) for d, m in zip(degs, lts)]
    return _standard_monomial_dims(_minimal(gens, pk.guard, maxdeg), pk,
                                   weights, maxdeg)


def test_standard_monomial_dims_edge_cases_match_enumeration():
    cases = [
        ((2, 4), [], 12),                          # empty ideal
        ((2, 4), [(1, 0)], 0),                     # maxdeg 0
        ((2,), [(0,)], 6),                         # unit ideal
        ((2, 6), [(4, 0), (0, 3)], 10),            # generators above maxdeg
        ((2, 2, 4), [(1, 1, 0), (2, 1, 0), (1, 1, 1)], 14),   # non-minimal
        ((4, 2), [(1, 2), (1, 2), (0, 3), (0, 3)], 16),       # duplicates
        ((2, 2), [(2, 1), (1, 2), (3, 0), (0, 3)], 20),       # pivot needed
        ((3, 6), [(2, 1), (1, 2), (4, 0)], 22),    # weight gcd 3, maxdeg not a multiple
        ((1, 2), [(3, 0), (1, 1), (0, 2)], 9),     # weight gcd 1
    ]
    for weights, lts, maxdeg in cases:
        assert (_packed_dims(lts, weights, maxdeg)
                == standard_monomial_dims(lts, weights, maxdeg)), (weights, lts)


def test_standard_monomial_dims_match_enumeration_on_random_ideals():
    rng = random.Random(20161017)
    for _ in range(300):
        weights = tuple(rng.choice((2, 4, 6)) for _ in range(rng.randint(1, 5)))
        lts = [tuple(rng.randint(0, 4) for _ in weights)
               for _ in range(rng.randint(0, 8))]
        lts += rng.sample(lts, min(len(lts), rng.randint(0, 2)))
        maxdeg = rng.randint(0, 30)
        assert (_packed_dims(lts, weights, maxdeg)
                == standard_monomial_dims(lts, weights, maxdeg)), (weights, lts, maxdeg)


def test_pivot_counts_from_the_support_sum_and_field_by_field(monkeypatch):
    import flagchow.groebner as engine
    # a node whose supports overlap counts each variable's generators from
    # the sum of their support masks while there are at most emax of them,
    # and field by field past that: many generators at a small maxdeg
    branches = []
    real = engine._k_numerator

    def counted(mins, pk, weights, maxdeg):
        supports = [(x + pk.fields) & pk.guard for _, x in mins]
        if sum(supports) != functools.reduce(operator.or_, supports, 0):
            branches.append("sum" if len(mins) <= pk.emax else "fields")
        return real(mins, pk, weights, maxdeg)
    monkeypatch.setattr(engine, "_k_numerator", counted)
    fixed = [
        ((2, 2), [(2, 1), (1, 2), (3, 0), (0, 3)], 20, "sum"),       # emax 15
        ((2, 2, 2, 2), [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)], 6,
         "fields"),                                                  # emax 3
    ]
    for weights, lts, maxdeg, branch in fixed:
        del branches[:]
        assert (_packed_dims(lts, weights, maxdeg)
                == standard_monomial_dims(lts, weights, maxdeg))
        assert branches[0] == branch
    rng = random.Random(20261020)
    seen = set()
    for _ in range(60):
        weights = tuple(rng.choice((2, 2, 4)) for _ in range(rng.randint(2, 5)))
        maxdeg = rng.choice((4, 6, 8))
        monos = [m for d in range(2, maxdeg + 1, 2)
                 for m in monomials_of_topdeg(weights, d)]
        lts = rng.sample(monos, min(len(monos), rng.randint(2, 9)))
        del branches[:]
        assert (_packed_dims(lts, weights, maxdeg)
                == standard_monomial_dims(lts, weights, maxdeg)), (weights, lts)
        seen.update(branches)
    assert seen == {"sum", "fields"}


def test_odd_degrees_always_zero():
    pres = _pres(3, 2, _chern_rels)
    hs = hilbert_series(pres, 15)
    assert all(hs.dims[d] == 0 for d in range(1, 16, 2))
    assert hs.dims[0] == 1


# --- regular sequences ------------------------------------------------------


def is_regular_sequence(ambient, seq, maxdeg):
    """Series test: HS(ambient/seq) == HS(ambient) * prod(1 - q^{d_i}) up to maxdeg."""
    degs = []
    for f in seq:
        if f.is_zero() or not f.is_homogeneous():
            return False
        degs.append(homogeneous_topdeg(f))
    quotient = QuotientPresentation(ambient.ring,
                                    list(ambient.relations) + list(seq))
    expected = list(hilbert_series(ambient, maxdeg).dims)
    hs_times(expected, numer=degs)
    return hilbert_series(quotient, maxdeg).dims == expected


def test_chern_classes_are_regular():
    ring = t_ring(3, 2)
    ambient = QuotientPresentation(ring, [])
    assert is_regular_sequence(ambient, elementary_symmetric(ring), 20)


def test_repeated_element_not_regular():
    ring = t_ring(2, 2)
    ambient = QuotientPresentation(ring, [])
    t1 = ring.gen("t1")
    assert not is_regular_sequence(ambient, [t1, t1], 12)


def test_squared_cherns_are_regular():
    ring = t_ring(3, 2)
    ambient = QuotientPresentation(ring, [])
    seq = [c ** 2 for c in elementary_symmetric(ring)]
    assert is_regular_sequence(ambient, seq, 24)


def test_catalog_relation_sequences_are_regular():
    # every relation family the catalog labels regular: chern, pontryagin,
    # squared chern, and the explicit rank-2 exceptional forms
    from flagchow.catalog import lookup_model
    for l in (2, 3):
        ring = t_ring(l, 2)
        ambient = QuotientPresentation(ring, [])
        cs = elementary_symmetric(ring)
        assert is_regular_sequence(ambient, cs, 20)
        assert is_regular_sequence(ambient, [c * c for c in cs], 24)
    ring = t_ring(2, 3)
    ambient = QuotientPresentation(ring, [])
    assert is_regular_sequence(ambient, pontryagin_class(ring), 24)
    g2 = lookup_model("G2", prime=2)
    ring = t_ring(2, 2)
    ambient = QuotientPresentation(ring, [])
    bs = [g2.explicit_b[i] for i in (1, 2)]
    assert is_regular_sequence(ambient, bs, 24)


# --- series helpers ---------------------------------------------------------


def test_series_product_and_degree_multiset():
    a = hs_from_degrees([0, 2, 4], 8)
    b = hs_from_degrees([0, 2], 8)
    prod = hs_product(a, b, 8)
    assert prod.dims == [1, 0, 2, 0, 2, 0, 1, 0, 0]


def test_one_minus_q_series():
    s = [1] + [0] * 8
    hs_times(s, numer=[2, 4])
    assert s == [1, 0, -1, 0, -1, 0, 1, 0, 0]
    # dividing back by the same factors is exact under truncation
    hs_times(s, denom=[4, 2])
    assert s == [1] + [0] * 8
    # a geometric factor: (1 - q^6) / (1 - q^2) = 1 + q^2 + q^4
    hs_times(s, numer=[6], denom=[2])
    assert s == [1, 0, 1, 0, 1, 0, 0, 0, 0]
    with pytest.raises(ValidationError):
        hs_times(s, denom=[0])


def _truncated_product(dims, numer, denom):
    """dims times prod(1 - q^a) / prod(1 - q^b), each factor expanded as a
    polynomial or a geometric series and multiplied in full, then cut at
    len(dims): the reference for hs_times."""
    n = len(dims)
    out = list(dims)
    factors = [{0: 1, a: -1} if a else {} for a in numer]
    factors += [{k: 1 for k in range(0, n, b)} for b in denom]
    for f in factors:
        prod = [0] * (n + max(f, default=0))
        for i, x in enumerate(out):
            for k, c in f.items():
                prod[i + k] += x * c
        out = prod[:n]
    return out


def test_hs_times_equals_the_truncated_product():
    # zero tails (the support bound `top`, or none), numerator degrees with
    # 0 among them, and unit and non-unit denominator weights
    rng = random.Random(33)
    for _ in range(400):
        n = rng.randint(1, 24)
        top = rng.randint(0, n - 1)
        dims = [rng.randint(-3, 3) for _ in range(top + 1)] + [0] * (n - 1 - top)
        numer = [rng.choice((0, 1, 2, 3, 5, 8, 30)) for _ in range(rng.randint(0, 6))]
        denom = [rng.choice((1, 1, 2, 3, 7)) for _ in range(rng.randint(0, 6))]
        expected = _truncated_product(dims, numer, denom)
        bounded, unbounded = list(dims), list(dims)
        hs_times(bounded, numer=numer, denom=denom, top=top)
        hs_times(unbounded, numer=numer, denom=denom)
        assert bounded == unbounded == expected, (dims, numer, denom, top)


# --- packed monomials -------------------------------------------------------


def _monomials_up_to(weights, maxdeg):
    return [m for d in range(maxdeg + 1) for m in monomials_of_topdeg(weights, d)]


def test_packed_order_sum_divisibility_and_round_trip():
    # a key is the exponent fields alone, so the order it carries holds
    # within one topdeg: there a smaller key is the grevlex-larger monomial,
    # checked on every pair.  The engine compares no keys of two topdegs.
    rng = random.Random(4)
    cases = [((2,), 0), ((2,), 14), ((6,), 30), ((2, 4), 0), ((4, 2, 6), 24),
             ((2, 2, 2), 18), ((6, 4, 2, 2), 20)]
    for weights, maxdeg in cases:
        ring = _weighted_ring(weights)
        monos = _monomials_up_to(weights, maxdeg)
        # the field maximum: the lightest variable to the power maxdeg // w
        light = weights.index(min(weights))
        top = tuple(maxdeg // w if i == light else 0
                    for i, w in enumerate(weights))
        assert top in monos
        pk = Packing(weights, maxdeg)
        key = order_key("grevlex", ring)
        for e in monos:
            assert pk.unpack(pk.pack(e)) == e
        for d in range(maxdeg + 1):
            level = monomials_of_topdeg(weights, d)
            for a in level:
                for b in level:
                    assert (pk.pack(a) < pk.pack(b)) == (key(a) > key(b)), (a, b)
        pairs = [(rng.choice(monos), rng.choice(monos)) for _ in range(300)]
        pairs += [(top, e) for e in monos[:20]] + [(e, top) for e in monos[:20]]
        for a, b in pairs:
            assert (pk.pack(a) == pk.pack(b)) == (a == b)
            # divisibility of keys by the guard bits, as the engine
            # tests it: x divides y exactly when ((y | G) - x) & G == G
            ka, kb, g = pk.pack(a), pk.pack(b), pk.guard
            assert ((((kb | g) - ka) & g == g)
                    == all(u <= v for u, v in zip(a, b))), (a, b)
            s = tuple(x + y for x, y in zip(a, b))
            assert pk.pack(a) + pk.pack(b) == pk.pack(s)
            if ring.monomial_topdeg(s) <= maxdeg:
                assert pk.unpack(pk.pack(a) + pk.pack(b)) == s


def test_normal_form_round_trips_pure_powers_at_the_field_maximum():
    for weights, maxdeg in [((2,), 0), ((2,), 16), ((4, 2), 22), ((2, 6, 4), 30)]:
        ring = _weighted_ring(weights)
        names = [v.name for v in ring.variables]
        # a relation in the other variables only, or none
        rels = [ring.gen(names[1], 2)] if len(names) > 1 else []
        gb = groebner(QuotientPresentation(ring, rels), maxdeg)
        for name, w in zip(names, weights):
            if rels and name == names[1]:
                continue
            f = ring.gen(name, maxdeg // w)
            assert normal_form(f, gb) == f
            with pytest.raises(OutOfRangeError):
                normal_form(ring.gen(name, maxdeg // w + 1), gb)


def test_out_of_range_raises_before_packing(monkeypatch):
    pres = _pres(2, 2, _chern_rels)
    gb = groebner(pres, 6)

    def no_packing(self, exps):
        raise AssertionError("packed a monomial above the truncation")
    monkeypatch.setattr(Packing, "pack", no_packing)
    with pytest.raises(OutOfRangeError):
        normal_form(pres.ring.gen("t1", 4), gb)


# --- Buchberger counters and the tuple reference --------------------------


def test_buchberger_counters_pinned():
    from flagchow.catalog import lookup_model
    from flagchow.chow import chow_presentation
    # values of the tuple reference, which reduces each relation at its
    # topdeg ahead of that topdeg's pairs: SO_odd(3) and U(4), then the eight
    # hilbert_sweep presentations at their maxdegs (the same at every prime
    # drawn for U and Sp).  U, Sp and SO_odd reach their bases from the
    # relations alone: every pair is skipped by the product criterion.
    expected = {
        ("SO_odd", 3, (2,), 18): (2, 2, 2, 0, 3, 0, 4, 3, 3),
        ("U", 4, (3,), 24): (6, 6, 6, 0, 4, 0, 11, 4, 4),
        ("U", 6, (2, 3, 5), 32): (15, 15, 15, 0, 6, 0, 57, 6, 6),
        ("Sp", 5, (2, 3, 5), 40): (10, 10, 10, 0, 5, 0, 26, 5, 5),
        ("Sp", 6, (2, 3, 5), 26): (6, 6, 6, 0, 6, 0, 57, 6, 6),
        ("SO_odd", 5, (2,), 36): (10, 10, 10, 0, 5, 0, 26, 5, 5),
        ("SO_odd", 6, (2,), 26): (6, 6, 6, 0, 6, 0, 57, 6, 6),
        ("SO_even", 5, (2,), 36): (36, 36, 16, 6, 19, 10, 71, 9, 9),
        ("SO_even", 6, (2,), 26): (27, 27, 13, 4, 16, 5, 102, 11, 11),
        ("PU", 4, (5,), 60): (45, 45, 21, 4, 30, 20, 200, 10, 10),
    }
    for (family, rank, primes, maxdeg), values in expected.items():
        stats = dict(zip(STAT_KEYS, values))
        for p in primes:
            pres = chow_presentation(lookup_model(family, rank, p))
            gb = groebner(pres, maxdeg)
            assert gb.stats == stats, (family, rank, p, maxdeg)
            assert list(gb.stats) == list(STAT_KEYS)
            ref_stats = {}
            buchberger_reference(pres.relations, pres.ring, "grevlex", maxdeg,
                                 ref_stats)
            assert ref_stats == stats, (family, rank, p, maxdeg)


def test_sweep_bases_match_the_pinned_digests():
    import hashlib
    from flagchow.catalog import lookup_model
    from flagchow.chow import chow_presentation
    # sha256 of the reduced bases of the fourteen hilbert_sweep presentations
    # (U and Sp at each prime drawn), taken before relations were reduced at
    # their topdeg: the reduced truncated basis is unique
    expected = {
        ("U", 6, (2, 3, 5), 32):
            "37405deade29aba009e4572acb94904ed59700cc83fd5656f4093ace37818ea6",
        ("Sp", 5, (2, 3, 5), 40):
            "d3640cccad5bc719b2d9460bda04d30e8be92861d004687aa86ecf2d79aa88d9",
        ("Sp", 6, (2, 3, 5), 26):
            "c1003b46ad2549f5f7d1cc2ca445a10f7f4b7f2aaa2b3642388a5293e5d387ff",
        ("SO_odd", 5, (2,), 36):
            "d3640cccad5bc719b2d9460bda04d30e8be92861d004687aa86ecf2d79aa88d9",
        ("SO_odd", 6, (2,), 26):
            "c1003b46ad2549f5f7d1cc2ca445a10f7f4b7f2aaa2b3642388a5293e5d387ff",
        ("SO_even", 5, (2,), 36):
            "d49aa27fac9f4c3af290aa5021ccf5d3ad72366ca08289a659250e0c537c8642",
        ("SO_even", 6, (2,), 26):
            "14b4a0c94799bdffc36edd6a8485c9139d36cc7a84fa5de7617fd5afc443eab1",
        ("PU", 4, (5,), 60):
            "9ff5bca011deb645620f0f7c4868802870772a9c92e993a59f5ce8d7367be33b",
    }
    for (family, rank, primes, maxdeg), digest in expected.items():
        for p in primes:
            gb = groebner(chow_presentation(lookup_model(family, rank, p)), maxdeg)
            terms = repr([list(g.terms.items()) for g in reduced_basis(gb)])
            assert (hashlib.sha256(terms.encode()).hexdigest()
                    == digest), (family, rank, p, maxdeg)


def test_redundant_relations_cost_two_zero_reductions_and_no_pairs():
    from flagchow.catalog import lookup_model
    from flagchow.chow import chow_presentation
    pres = chow_presentation(lookup_model("U", 4, 3))
    rels = pres.relations
    gb = groebner(pres, 24)
    # a duplicate and a unit multiple, each reduced to zero at its topdeg
    more = buchberger(rels + (rels[1], rels[2] * pres.ring.const(2)), pres.ring, 24)
    before, after = dict(gb.stats), dict(more.stats)
    assert (after["reductions"], after["zero_reductions"]) == (
        before["reductions"] + 2, before["zero_reductions"] + 2) == (6, 2)
    for k in ("pairs_pushed", "pairs_popped", "product_criterion",
              "chain_criterion", "peak_basis", "final_basis"):
        assert after[k] == before[k], k
    assert ([list(g.terms.items()) for g in reduced_basis(more)]
            == [list(g.terms.items()) for g in reduced_basis(gb)])


def _sweep_presentation():
    from flagchow.catalog import lookup_model
    from flagchow.chow import chow_presentation
    return chow_presentation(lookup_model("SO_even", 5, 2)), 36


def _count_reduce_calls(monkeypatch):
    import flagchow.groebner as engine
    calls = []
    real = engine._reduce

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(engine, "_reduce", counted)
    return calls


def test_pivot_recursion_node_counts_pinned(monkeypatch):
    import flagchow.groebner as engine
    from flagchow.catalog import lookup_model
    from flagchow.chow import chow_presentation
    # _k_numerator calls of one hilbert_series on each of the fourteen
    # hilbert_sweep presentations (the same at every prime drawn for U and
    # Sp): U, Sp and SO_odd have pairwise coprime leading monomials
    expected = {
        ("U", 6, (2, 3, 5), 32): 1,
        ("Sp", 5, (2, 3, 5), 40): 1,
        ("Sp", 6, (2, 3, 5), 26): 1,
        ("SO_odd", 5, (2,), 36): 1,
        ("SO_odd", 6, (2,), 26): 1,
        ("SO_even", 5, (2,), 36): 11,
        ("SO_even", 6, (2,), 26): 11,
        ("PU", 4, (5,), 60): 7,
    }
    calls = []
    real = engine._k_numerator

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(engine, "_k_numerator", counted)
    for (family, rank, primes, maxdeg), nodes in expected.items():
        for p in primes:
            del calls[:]
            hilbert_series(chow_presentation(lookup_model(family, rank, p)), maxdeg)
            assert len(calls) == nodes, (family, rank, p, maxdeg)


def test_hilbert_series_never_reduces_the_tails(monkeypatch):
    pres, maxdeg = _sweep_presentation()
    calls = _count_reduce_calls(monkeypatch)
    hilbert_series(pres, maxdeg)
    # one _reduce per relation or S-polynomial reduction (19 pinned), none
    # for tails
    assert len(calls) == 19
    gb = groebner(pres, maxdeg)
    assert len(calls) == 38 and len(gb) == 9
    # nor does reading the counters
    gb.stats
    assert len(calls) == 38


def test_stats_read_twice_count_the_tail_reduction_once(monkeypatch):
    pres, maxdeg = _sweep_presentation()
    calls = _count_reduce_calls(monkeypatch)
    gb = groebner(pres, maxdeg)
    first = dict(gb.stats)
    assert first["reduction_steps"] == 71
    assert dict(gb.stats) == first
    reduced_basis(gb)
    normal_form(pres.ring.one(), gb)
    assert dict(gb.stats) == first
    # the relation and S-polynomial reductions, the tails on the one basis
    # read, the one normal form; reading stats reduces nothing
    assert len(calls) == 19 + 9 + 1


def test_stats_basis_and_normal_form_agree_in_any_access_order():
    from itertools import permutations
    pres, maxdeg = _sweep_presentation()
    ring = pres.ring
    rng = random.Random(6)
    polys = [_random_homog(ring, rng, 2 * rng.randrange(1, 9))
             for _ in range(6)]
    polys += [r * ring.gen(ring.variables[0].name) for r in pres.relations]

    def read(gb, what):
        if what == "stats":
            return dict(gb.stats)
        if what == "basis":
            return [list(g.terms.items()) for g in reduced_basis(gb)]
        return [list(normal_form(f, gb).terms.items()) for f in polys]
    results = set()
    for orders in permutations(("stats", "basis", "normal_form")):
        gb = groebner(pres, maxdeg)
        got = {what: read(gb, what) for what in orders}
        results.add(repr([got[w] for w in ("stats", "basis", "normal_form")]))
    assert len(results) == 1


def _random_relation(ring, rng, coeffs):
    d = rng.choice(sorted({w * k for w in ring.topdegs for k in range(1, 4)}))
    monos = monomials_of_topdeg(ring.topdegs, d)
    picked = rng.sample(monos, min(len(monos), rng.randint(1, 6)))
    return ring.from_terms([(m, rng.choice(coeffs)) for m in picked])


def test_buchberger_matches_the_tuple_reference_on_random_ideals():
    rng = random.Random(20161018)
    checked_dims = 0
    for _ in range(200):
        weights = tuple(rng.choice((2, 4, 6)) for _ in range(rng.randint(1, 5)))
        p = rng.choice((2, 3, 5))
        ring = PolyRing([GradedVariable("x%d" % i, w)
                         for i, w in enumerate(weights)], p)
        coeffs = list(range(1, p))
        base = [_random_relation(ring, rng, coeffs) for _ in range(rng.randint(0, 6))]
        # duplicates, a scalar multiple and a zero relation generate no more
        rels = base + rng.sample(base, min(len(base), rng.randint(0, 2)))
        rels += [r * ring.const(coeffs[-1]) for r in rng.sample(base, min(len(base), 1))]
        rels += [ring.zero()] * rng.randint(0, 1)
        rng.shuffle(rels)
        # the engine computes in grevlex; the reference also runs in the
        # drawn order, and its leading monomials must count the same series
        order = rng.choice(("grevlex", "lex", ("block", rng.randint(0, len(weights)))))
        maxdeg = rng.randint(0, 30)
        gb = buchberger(rels, ring, maxdeg)
        ref_stats = {}
        ref = buchberger_reference(rels, ring, "grevlex", maxdeg, ref_stats)
        assert ([list(g.terms.items()) for g in reduced_basis(gb)]
                == [list(g.terms.items()) for g in ref]), (weights, p, maxdeg)
        assert gb.stats == ref_stats
        # the reference's minimalization dropped nothing
        assert ref_stats["peak_basis"] == ref_stats["final_basis"]
        pres = QuotientPresentation(ring, [r for r in rels if not r.is_zero()])
        series = hilbert_series(pres, maxdeg).dims
        assert series == _reference_series(pres, order, maxdeg), (weights, p, order)
        # the linear-algebra oracle up to the largest degree it can afford
        top = 0
        while (top < maxdeg
               and len(monomials_of_topdeg(weights, top + 1)) <= 40):
            top += 1
        oracle = graded_quotient_dims(weights, [r.terms for r in base], p, top)
        assert series[:top + 1] == oracle
        checked_dims += 1
    assert checked_dims == 200


def test_buchberger_matches_the_tuple_reference_at_large_primes():
    # coefficients are reduced mod p only when their term is popped, so the
    # integers in flight grow with p; the reference reduces every update
    rng = random.Random(20260526)
    for _ in range(150):
        weights = tuple(rng.choice((2, 4, 6)) for _ in range(rng.randint(1, 5)))
        p = rng.choice((7, 65521, 2 ** 31 - 1))
        ring = PolyRing([GradedVariable("x%d" % i, w)
                         for i, w in enumerate(weights)], p)
        coeffs = [1, p - 1] + [rng.randrange(1, p) for _ in range(6)]
        base = [_random_relation(ring, rng, coeffs) for _ in range(rng.randint(0, 6))]
        rels = base + [r * ring.const(rng.randrange(2, p))
                       for r in rng.sample(base, min(len(base), 1))]
        rng.shuffle(rels)
        maxdeg = rng.randint(0, 30)
        gb = buchberger(rels, ring, maxdeg)
        ref_stats = {}
        ref = buchberger_reference(rels, ring, "grevlex", maxdeg, ref_stats)
        assert ([list(g.terms.items()) for g in reduced_basis(gb)]
                == [list(g.terms.items()) for g in ref]), (weights, p, maxdeg)
        assert gb.stats == ref_stats
        for _, _, tail in gb._minimal:
            assert all(0 < c < p for _, c in tail)
        key = order_key("grevlex", ring)
        lts = [leading_term(g, key)[0] for g in ref]
        degs = [d for d in range(0, maxdeg + 1, 2)
                if monomials_of_topdeg(weights, d)]
        polys = [ring.from_terms((m, rng.randrange(p)) for m
                                 in monomials_of_topdeg(weights, rng.choice(degs)))
                 for _ in range(3)]
        for f in polys + [r for r in base if r.topdeg() <= maxdeg]:
            nf = normal_form(f, gb)
            assert all(0 < c < p for c in nf.terms.values())
            steps = {"reduction_steps": 0}
            assert nf == _reduce_full(f, ref, lts, key, ring, steps)
            if f in base:
                assert nf.is_zero()
