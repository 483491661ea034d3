"""Elementary symmetric polynomials, Pontryagin classes, Lucas binomials.

Chern classes c_i are the elementary symmetric functions of the degree-2
torus variables t_1..t_l; Pontryagin classes p_i are the elementary
symmetric functions of their squares.  Symmetric functions are generated by
the Pascal-style recurrence sigma_i(l) = sigma_i(l-1) + t_l*sigma_{i-1}(l-1)
on exponent tuples, with no polynomial product, so the direct product
expansion stays available as an independent test oracle.
"""

from math import comb

from .errors import ValidationError
from .ring import _SMALL_PRIMES, GradedVariable, PolyRing, Polynomial, is_prime


def t_ring(l, p):
    """F_p[t_1..t_l] with every t_i of topdeg 2."""
    return PolyRing([GradedVariable("t%d" % i, 2) for i in range(1, l + 1)], p)


def _sigma_row(ring, power, length):
    """[sigma_1, .., sigma_length] of t_1^power..t_l^power, the ring's
    variables, by the Pascal recurrence on exponent tuples.  The two parts
    of sigma_i(k) = sigma_i(k-1) + t_k^power*sigma_{i-1}(k-1) share no
    monomial, since only the second holds t_k, so each sigma_i is a list of
    distinct monomials, each of coefficient 1, and no product is formed."""
    l = ring.nvars
    rows = [[(0,) * l]] + [[] for _ in range(length)]
    for k in range(l):
        for i in range(min(k + 1, length), 0, -1):
            rows[i] += [m[:k] + (power,) + m[k + 1:] for m in rows[i - 1]]
    return [Polynomial(ring, dict.fromkeys(row, 1)) for row in rows[1:]]


def elementary_symmetric(ring):
    """[sigma_1, .., sigma_l] of the ring's variables t_1..t_l; sigma_i is
    homogeneous of topdeg 2i."""
    return _sigma_row(ring, 1, ring.nvars)


def pontryagin_class(ring):
    """[p_1, .., p_l]: p_i = sigma_i(t_1^2..t_l^2), homogeneous of topdeg 4i."""
    return _sigma_row(ring, 2, ring.nvars)


def lucas_binomial(n, k, p):
    """binom(n, k) mod p by Lucas's theorem: the product over the base-p
    digits n_i, k_i of binom(n_i, k_i) mod p, each digit's binomial read
    from math.comb.  A digit k_i > n_i gives 0, and a digit k_i = 0 gives
    binom(n_i, 0) = 1, so its factor is skipped and the walk stops when k
    has no digits left.  A small prime given as an int, as every caller
    passes, is accepted without a full primality test."""
    if n < 0 or k < 0:
        raise ValidationError("n, k must be non-negative")
    if not (type(p) is int and p in _SMALL_PRIMES or is_prime(p)):
        raise ValidationError("p must be prime, got %r" % (p,))
    result = 1
    while k:
        kd, nd = k % p, n % p
        if kd > nd:
            return 0
        if kd:
            result = result * comb(nd, kd) % p
        n //= p
        k //= p
    return result
