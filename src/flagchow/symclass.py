"""Elementary symmetric polynomials, Pontryagin classes, Lucas binomials.

Chern classes c_i are the elementary symmetric functions of the degree-2
torus variables t_1..t_l; Pontryagin classes p_i are the elementary
symmetric functions of their squares.  Symmetric functions are generated by
the Pascal-style recurrence sigma_i(l) = sigma_i(l-1) + t_l*sigma_{i-1}(l-1)
so the direct product expansion stays available as an independent test
oracle.
"""

from .errors import ValidationError
from .ring import COEFF_Z, GradedVariable, PolyRing, is_prime


def t_ring(l, coeff=COEFF_Z, prefix="t"):
    """Z[t_1..t_l] (or F_p) with every t_i of topdeg 2."""
    return PolyRing([GradedVariable("%s%d" % (prefix, i), 2)
                     for i in range(1, l + 1)], coeff)


def _sigma_row(ring, l, squares=False):
    # sigmas[i] = i-th elementary symmetric function of the (squared) variables
    sigmas = [ring.one()] + [ring.zero()] * l
    for k in range(1, l + 1):
        t = ring.gen(ring.variables[k - 1].name, 2 if squares else 1)
        for i in range(min(k, l), 0, -1):
            sigmas[i] = sigmas[i] + t * sigmas[i - 1]
    return sigmas


def elementary_symmetric(l, i, coeff=COEFF_Z, ring=None):
    """sigma_i(t_1..t_l): homogeneous of topdeg 2i; sigma_0 = 1; zero for i > l."""
    if i < 0:
        raise ValidationError("index must be non-negative")
    if ring is None:
        ring = t_ring(l, coeff)
    if i > l:
        return ring.zero()
    return _sigma_row(ring, l)[i]


def pontryagin_class(l, i, coeff=COEFF_Z, ring=None):
    """sigma_i(t_1^2..t_l^2): homogeneous of topdeg 4i; zero for i > l."""
    if i < 0:
        raise ValidationError("index must be non-negative")
    if ring is None:
        ring = t_ring(l, coeff)
    if i > l:
        return ring.zero()
    return _sigma_row(ring, l, squares=True)[i]


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
