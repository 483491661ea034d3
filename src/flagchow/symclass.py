"""Elementary symmetric polynomials, Pontryagin classes, Lucas binomials.

Chern classes c_i are the elementary symmetric functions of the degree-2
torus variables t_1..t_l; Pontryagin classes p_i are the elementary
symmetric functions of their squares.  Symmetric functions are generated by
the Pascal-style recurrence sigma_i(l) = sigma_i(l-1) + t_l*sigma_{i-1}(l-1)
so the direct product expansion stays available as an independent test
oracle.
"""

from .errors import ValidationError
from .ring import GradedVariable, PolyRing, is_prime


def t_ring(l, p):
    """F_p[t_1..t_l] with every t_i of topdeg 2."""
    return PolyRing([GradedVariable("t%d" % i, 2) for i in range(1, l + 1)], p)


def _sigma_row(ring, squares=False):
    # sigmas[i] = i-th elementary symmetric function of the (squared) variables
    l = ring.nvars
    sigmas = [ring.one()] + [ring.zero()] * l
    for k in range(1, l + 1):
        t = ring.gen(ring.variables[k - 1].name, 2 if squares else 1)
        for i in range(k, 0, -1):
            sigmas[i] = sigmas[i] + t * sigmas[i - 1]
    return sigmas[1:]


def elementary_symmetric(ring):
    """[sigma_1, .., sigma_l] of the ring's variables t_1..t_l; sigma_i is
    homogeneous of topdeg 2i."""
    return _sigma_row(ring)


def pontryagin_class(ring):
    """[p_1, .., p_l]: p_i = sigma_i(t_1^2..t_l^2), homogeneous of topdeg 4i."""
    return _sigma_row(ring, squares=True)


def lucas_binomial(n, k, p):
    """binom(n, k) mod p by base-p digits; agrees with the factorial value mod p."""
    if n < 0 or k < 0:
        raise ValidationError("n, k must be non-negative")
    if not is_prime(p):
        raise ValidationError("p must be prime, got %r" % (p,))
    result = 1
    while n or k:
        nd, n = n % p, n // p
        kd, k = k % p, k // p
        if kd > nd:
            return 0
        num = den = 1
        for j in range(kd):
            num = num * (nd - j) % p
            den = den * (j + 1) % p
        result = result * num * pow(den, p - 2, p) % p
    return result
