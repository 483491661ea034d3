import random
import time
from fractions import Fraction

import pytest

from flagchow.errors import RingMismatchError, ValidationError
from flagchow.ring import GradedVariable, PolyRing, is_prime
from flagchow.symclass import elementary_symmetric, t_ring

from oracles import is_prime_by_trial_division, merge_terms, naive_product_terms


def test_variable_invariants():
    GradedVariable("t1", 2)
    with pytest.raises(ValidationError):
        GradedVariable("t", 3)
    with pytest.raises(ValidationError):
        GradedVariable("t", 0)
    with pytest.raises(ValidationError):
        PolyRing([GradedVariable("t", 2), GradedVariable("t", 4)], 2)
    # F_p is the only coefficient ring: no tag, no composite or unit modulus
    for bad in (("Z",), ("Q",), ("Fp", 2), 0, 1, 4, -3, 2.0):
        with pytest.raises(ValidationError):
            PolyRing([GradedVariable("t", 2)], bad)


def test_difference_of_squares_over_z():
    # every coefficient is -1, 0 or 1, so equality mod 5 is equality over Z
    r = t_ring(2, 5)
    t1, t2, minus = r.gen("t1"), r.gen("t2"), r.const(-1)
    assert (t1 + t2) * (t1 + minus * t2) == t1 ** 2 + minus * t2 ** 2


def test_frobenius_in_char_2():
    r = t_ring(2, 2)
    t1, t2 = r.gen("t1"), r.gen("t2")
    assert (t1 + t2) ** 2 == t1 ** 2 + t2 ** 2


def test_c2_times_c1_matches_naive_expansion_oracle():
    # naive term-by-term oracle: 3x3 = 9 raw products merging to 7 monomials,
    # with coefficient 3 on t1*t2*t3 (over F_5, where 3 is not reduced)
    c1, c2, _ = elementary_symmetric(t_ring(3, 5))
    raw = naive_product_terms(c2.terms, c1.terms)
    assert len(raw) == 9
    merged = merge_terms(raw)
    assert len(merged) == 7
    prod = c2 * c1
    assert prod.terms == merged
    assert prod.term_topdegs() == {6}
    assert prod.terms[(1, 1, 1)] == 3


def test_ring_mismatch_raises():
    a = t_ring(2, 3).gen("t1")
    b = t_ring(2, 2).gen("t1")
    with pytest.raises(RingMismatchError):
        a * b
    with pytest.raises(RingMismatchError):
        a + b


def test_zero_polynomial_conventions():
    r = t_ring(2, 2)
    z = r.zero()
    assert z.is_zero()
    assert z.topdeg() is None
    assert z.is_homogeneous()
    assert z + z == z
    assert z * r.gen("t1") == z


def _random_poly(ring, rng, maxdeg=8, nterms=5):
    terms = []
    nv = ring.nvars
    for _ in range(nterms):
        exps = [0] * nv
        budget = rng.randrange(maxdeg // 2 + 1)
        for _ in range(budget):
            exps[rng.randrange(nv)] += 1
        terms.append((tuple(exps), rng.randrange(-5, 6)))
    return ring.from_terms(terms)


@pytest.mark.parametrize("p", [2, 5])
def test_ring_axioms_on_random_inputs(p):
    rng = random.Random(20240707)
    ring = t_ring(3, p)
    for _ in range(40):
        a = _random_poly(ring, rng)
        b = _random_poly(ring, rng)
        c = _random_poly(ring, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_squaring_is_additive_mod_2():
    rng = random.Random(11)
    ring = t_ring(3, 2)
    for _ in range(40):
        f = _random_poly(ring, rng)
        g = _random_poly(ring, rng)
        assert (f + g) ** 2 == f ** 2 + g ** 2


def test_graded_multiplication_adds_degrees():
    _, c2, c3 = elementary_symmetric(t_ring(3, 2))
    assert (c2 * c3).term_topdegs() == {10}


def test_fp_coefficients_are_reduced():
    r = t_ring(1, 3)
    p = r.const(5)
    assert p.terms == {(0,): 2}
    assert r.const(3).is_zero()


def test_coefficients_must_be_integers():
    ring = t_ring(2, 5)
    for bad in (2.5, Fraction(1, 2), Fraction(4, 2), "3"):
        with pytest.raises(ValidationError):
            ring.const(bad)
        # from_terms checks each coefficient before it merges duplicates
        with pytest.raises(ValidationError):
            ring.from_terms([((0, 1), bad)])
        with pytest.raises(ValidationError):
            ring.from_terms([((0, 1), 1), ((0, 1), bad)])
    with pytest.raises(ValidationError):
        ring.from_terms([((0, 1), None)])
    # a bool is stored as the plain int it equals
    for poly in (ring.const(True), ring.from_terms([((0, 0), True)])):
        assert all(type(c) is int and c == 1 for c in poly.terms.values())


def test_is_prime_is_the_one_primality_check():
    from flagchow.chow import rost_chow_basis
    from flagchow.symclass import lucas_binomial
    primes = [p for p in range(60) if p > 1 and all(p % q for q in range(2, p))]
    assert [p for p in range(60) if is_prime(p)] == primes
    assert not is_prime(-7) and not is_prime(2.0)
    for p in (0, 1, 4, 9):
        with pytest.raises(ValidationError):
            PolyRing([], p)
        with pytest.raises(ValidationError):
            rost_chow_basis(2, p)
    with pytest.raises(ValidationError):
        PolyRing([], 2 ** 61)
    with pytest.raises(ValidationError):
        lucas_binomial(4, 2, 1)


def test_is_prime_agrees_with_trial_division_below_100000():
    assert ([n for n in range(-3, 10 ** 5) if is_prime(n)]
            == [n for n in range(-3, 10 ** 5) if is_prime_by_trial_division(n)])


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; the rest are the least strong pseudoprimes
    # to the bases 2; 2, 3; 2, 3, 5, 7; and 2, ..., 31
    for n in (561, 2047, 1373653, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 89 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))


def test_ring_accepts_a_large_prime_promptly():
    # trial division would take about 1.5 * 10^9 steps here
    start = time.perf_counter()
    assert PolyRing([], 2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0
