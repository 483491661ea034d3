from math import comb

import pytest

from flagchow.errors import ValidationError
from flagchow.ring import coeff_fp
from flagchow.symclass import (
    elementary_symmetric,
    lucas_binomial,
    pontryagin_class,
    t_ring,
)

from oracles import expand_sigma


def test_sigma_trivial_cases():
    assert elementary_symmetric(3, 0) == t_ring(3).one()
    c1 = elementary_symmetric(3, 1)
    assert c1.terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    top = elementary_symmetric(4, 4)
    assert top.terms == {(1, 1, 1, 1): 1}
    assert elementary_symmetric(2, 3).is_zero()


@pytest.mark.parametrize("l,i", [(l, i) for l in range(1, 6) for i in range(l + 1)])
def test_sigma_matches_expansion_oracle(l, i):
    assert elementary_symmetric(l, i).terms == expand_sigma(l, i)


def test_sigma_degrees():
    for l in range(1, 5):
        for i in range(1, l + 1):
            assert elementary_symmetric(l, i).homogeneous_topdeg() == 2 * i
            assert pontryagin_class(l, i).homogeneous_topdeg() == 4 * i


def _embed(poly, ring):
    """poly in t1..t_{l-1} as an element of ring = Z[t1..t_l]."""
    return ring.from_terms((m + (0,), c) for m, c in poly.terms.items())


def test_pascal_recurrence():
    for l in range(2, 7):
        ring = t_ring(l)
        tl = ring.gen("t%d" % l)
        for i in range(1, l + 1):
            lower_i = _embed(elementary_symmetric(l - 1, i), ring) \
                if i <= l - 1 else ring.zero()
            lower_prev = _embed(elementary_symmetric(l - 1, i - 1), ring) \
                if i - 1 <= l - 1 else ring.zero()
            assert elementary_symmetric(l, i) == lower_i + tl * lower_prev


def test_pontryagin_basics():
    p1 = pontryagin_class(2, 1)
    assert p1.terms == {(2, 0): 1, (0, 2): 1}
    p2 = pontryagin_class(2, 2)
    assert p2.terms == {(2, 2): 1}


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_pontryagin_is_chern_squared_mod_2(l):
    ring = t_ring(l, coeff_fp(2))
    for i in range(l + 1):
        pi = pontryagin_class(l, i, ring=ring)
        ci = elementary_symmetric(l, i, ring=ring)
        assert pi == ci * ci


def test_lucas_trivial_and_derived_cases():
    assert lucas_binomial(7, 0, 2) == 1
    assert lucas_binomial(5, 2, 2) == 0  # comb(5,2)=10
    assert lucas_binomial(3, 1, 2) == 1  # comb(3,1)=3


def test_lucas_against_factorial_oracle():
    for p in (2, 3, 5):
        for n in range(65):
            for k in range(65):
                assert lucas_binomial(n, k, p) == comb(n, k) % p


def test_lucas_rejects_composite_modulus():
    with pytest.raises(ValidationError):
        lucas_binomial(4, 2, 6)
