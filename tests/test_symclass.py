from math import comb

import pytest

from flagchow.errors import ValidationError
from flagchow.ring import is_prime
from flagchow.symclass import (
    elementary_symmetric,
    lucas_binomial,
    pontryagin_class,
    t_ring,
)

from oracles import expand_sigma

# a prime no coefficient of these tests reaches, so nothing wraps
P = 2 ** 61 - 1


def _sigmas(l, p=P):
    """[sigma_0, .., sigma_l] of t_1..t_l over F_p."""
    ring = t_ring(l, p)
    return [ring.one()] + elementary_symmetric(ring)


def test_sigma_trivial_cases():
    assert _sigmas(3)[0] == t_ring(3, P).one()
    assert _sigmas(3)[1].terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert _sigmas(4)[4].terms == {(1, 1, 1, 1): 1}
    # the rows stop at sigma_l: sigma_i vanishes for i > l
    assert len(elementary_symmetric(t_ring(2, P))) == 2
    assert len(pontryagin_class(t_ring(2, P))) == 2
    assert elementary_symmetric(t_ring(0, P)) == []


@pytest.mark.parametrize("l,i", [(l, i) for l in range(1, 6) for i in range(l + 1)])
def test_sigma_matches_expansion_oracle(l, i):
    assert _sigmas(l)[i].terms == expand_sigma(l, i)


def test_sigma_degrees():
    for l in range(1, 5):
        ring = t_ring(l, P)
        for i, (c, p) in enumerate(zip(elementary_symmetric(ring),
                                       pontryagin_class(ring)), start=1):
            assert c.term_topdegs() == {2 * i}
            assert p.term_topdegs() == {4 * i}


def _embed(poly, ring):
    """poly in t1..t_{l-1} as an element of ring = F_p[t1..t_l]."""
    return ring.from_terms((m + (0,), c) for m, c in poly.terms.items())


def test_pascal_recurrence():
    for l in range(2, 7):
        ring = t_ring(l, P)
        tl = ring.gen("t%d" % l)
        lower = [_embed(c, ring) for c in _sigmas(l - 1)] + [ring.zero()]
        for i, c in enumerate(elementary_symmetric(ring), start=1):
            assert c == lower[i] + tl * lower[i - 1]


def test_pontryagin_basics():
    p1, p2 = pontryagin_class(t_ring(2, P))
    assert p1.terms == {(2, 0): 1, (0, 2): 1}
    assert p2.terms == {(2, 2): 1}


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_pontryagin_is_chern_squared_mod_2(l):
    ring = t_ring(l, 2)
    for pi, ci in zip(pontryagin_class(ring), elementary_symmetric(ring)):
        assert pi == ci * ci


def test_lucas_trivial_and_derived_cases():
    assert lucas_binomial(7, 0, 2) == 1
    assert lucas_binomial(5, 2, 2) == 0  # comb(5,2)=10
    assert lucas_binomial(3, 1, 2) == 1  # comb(3,1)=3


def test_lucas_against_factorial_oracle():
    # k runs past n, where the binomial is 0
    for p in (2, 3, 5, 7):
        for n in range(151):
            for k in range(151):
                assert lucas_binomial(n, k, p) == comb(n, k) % p


def test_lucas_rejects_composite_modulus():
    with pytest.raises(ValidationError):
        lucas_binomial(4, 2, 6)


@pytest.mark.parametrize("p", [0, 1, 4, 6, -3, 2.0, True])
def test_lucas_rejects_what_is_prime_rejects(p):
    # 2.0 equals a small prime and True equals 1, but neither is an int prime
    assert not is_prime(p)
    with pytest.raises(ValidationError):
        lucas_binomial(4, 2, p)


def test_lucas_accepts_a_prime_past_the_small_ones():
    n = 2 ** 61 - 1
    assert is_prime(n)
    assert lucas_binomial(n + 5, 2, n) == comb(5, 2)
    assert lucas_binomial(41, 3, 41) == 0
    assert lucas_binomial(45, 4, 41) == comb(4, 4) * comb(1, 0) % 41
