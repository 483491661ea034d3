"""Exact multivariate polynomial arithmetic over F_p with graded variables.

A monomial is a tuple of non-negative exponents aligned with the ring's
variable list; the empty monomial (all zeros) is the unit.  A polynomial is a
dict mapping monomials to nonzero coefficients.  Every variable carries an
even topological degree (Chow codimension is topdeg/2), and the topdeg of a
monomial is the exponent-weighted sum of variable degrees.

Coefficients are Python ints reduced to {0,..,p-1}; a coefficient of any
other type, a float or a rational say, is rejected.
The zero polynomial has an empty term dict and no defined topdeg;
homogeneity checks treat it as vacuously homogeneous.
"""

from operator import mul

from .errors import RingMismatchError, ValidationError


class GradedVariable:
    """A named variable with a positive even topological degree."""

    __slots__ = ("name", "topdeg")

    def __init__(self, name, topdeg):
        if topdeg < 2 or topdeg % 2 != 0:
            raise ValidationError(
                "variable %r: topdeg must be a positive even integer, got %r"
                % (name, topdeg))
        self.name = name
        self.topdeg = topdeg

    def __eq__(self, other):
        return (isinstance(other, GradedVariable)
                and self.name == other.name and self.topdeg == other.topdeg)

    def __hash__(self):
        return hash((self.name, self.topdeg))

    def __repr__(self):
        return "GradedVariable(%r, %d)" % (self.name, self.topdeg)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p):
    """Whether p is a prime integer.

    Trial division by the primes up to 37, then the strong probable-prime
    (Miller-Rabin) test to those twelve bases.  No composite below
    3.18 * 10^23, far beyond 2^64, passes all twelve (Sorenson and Webster,
    Math. Comp. 86, 2017), so the answer is exact there.
    """
    if not isinstance(p, int) or p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return p == q
    d = (p - 1) >> 1
    s = 1
    while not d & 1:
        d >>= 1
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PolyRing:
    """A graded polynomial ring over F_p: an ordered variable list plus the
    prime p, below 2^61."""

    __slots__ = ("p", "variables", "topdegs", "_index")

    def __init__(self, variables, p):
        variables = tuple(variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be unique: %r" % names)
        if isinstance(p, int) and p >= 2 ** 61:
            raise ValidationError("p out of supported range")
        if not is_prime(p):
            raise ValidationError("F_p requires a prime p, got %r" % (p,))
        self.p = p
        self.variables = variables
        self.topdegs = tuple(v.topdeg for v in variables)
        self._index = {v.name: i for i, v in enumerate(variables)}

    # -- coefficient arithmetic -------------------------------------------

    def normalize_coeff(self, c):
        """c as a ring element: an int reduced mod p; a bool is stored as a
        plain int."""
        if not isinstance(c, int):
            raise ValidationError("coefficient %r is not an integer" % (c,))
        return c % self.p

    def coeff_inv(self, c):
        return pow(c, self.p - 2, self.p)

    # -- monomials ---------------------------------------------------------

    @property
    def nvars(self):
        return len(self.variables)

    def unit_monomial(self):
        return (0,) * self.nvars

    def monomial_topdeg(self, exps):
        return sum(e * d for e, d in zip(exps, self.topdegs))

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError("no variable named %r in ring" % (name,))

    # -- polynomial constructors -------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.normalize_coeff(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {self.unit_monomial(): c})

    def gen(self, name, power=1):
        exps = [0] * self.nvars
        exps[self.var_index(name)] = power
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValidationError("exponent tuple length mismatch")
        return Polynomial(self, {exps: 1})

    def from_terms(self, terms):
        """Build a polynomial from an iterable of (exps, coef), merging
        duplicates; each coefficient is checked before it is merged."""
        p, norm = self.p, self.normalize_coeff
        acc = {}
        for exps, coef in terms:
            exps = tuple(exps)
            acc[exps] = (acc.get(exps, 0) + norm(coef)) % p
        return Polynomial(self, {e: c for e, c in acc.items() if c})

    def same_ring(self, other):
        return self.p == other.p and self.variables == other.variables

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.same_ring(other)

    def __hash__(self):
        return hash((self.p, self.variables))

    def __repr__(self):
        return "PolyRing(F%d; %s)" % (self.p, ", ".join(v.name for v in self.variables))


class Polynomial:
    """Immutable sparse polynomial: dict monomial-tuple -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def topdeg(self):
        """Max topdeg over terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.ring.monomial_topdeg(m) for m in self.terms)

    def term_topdegs(self):
        """The set of the terms' topdegs: {d} exactly when the polynomial is
        nonzero and homogeneous of topdeg d, empty for zero."""
        degs = self.ring.topdegs
        return {sum(map(mul, m, degs)) for m in self.terms}

    def is_homogeneous(self):
        return len(self.term_topdegs()) <= 1

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring.same_ring(other.ring) and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other):
        if not self.ring.same_ring(other.ring):
            raise RingMismatchError(
                "operands in different rings: %r vs %r" % (self.ring, other.ring))

    def __add__(self, other):
        self._check_ring(other)
        res = dict(self.terms)
        p = self.ring.p
        for m, c in other.terms.items():
            s = (res.get(m, 0) + c) % p
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
        return Polynomial(self.ring, res)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: -c % p for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                res[m] = res.get(m, 0) + c1 * c2
        p = self.ring.p
        return Polynomial(self.ring, {m: v for m, c in res.items() if (v := c % p)})

    def __pow__(self, n):
        if n < 0:
            raise ValidationError("negative powers not supported")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- display ------------------------------------------------------------

    def pretty(self):
        if not self.terms:
            return "0"
        names = [v.name for v in self.ring.variables]
        parts = []
        terms = self.terms
        if len(terms) > 1:
            terms = sorted(terms, key=lambda e: (-self.ring.monomial_topdeg(e), e))
        for m in terms:
            c = self.terms[m]
            factors = ["%s^%d" % (names[i], e) if e > 1 else names[i]
                       for i, e in enumerate(m) if e]
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            elif factors:
                parts.append("%s*%s" % (c, body))
            else:
                parts.append(str(c))
        return " + ".join(parts)

    def __repr__(self):
        return "Poly(%s)" % self.pretty()

