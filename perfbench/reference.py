"""Reference values computed without flagchow.

Every value the benchmark checks comes from here or from a number stated in
the README: closed-form truncated Hilbert series, the summand-basis degree
formula of criterion 5, and the torsion indices 2^l of SO(2l+1).
"""

# topdeg of each relation in the presentations that are regular sequences in
# l torus variables of topdeg 2: e_i (U), e_i(t^2) (Sp), e_i^2 (odd SO),
# e_i^2 for i < l plus e_l (even SO)
REGULAR_DEGREES = {
    "U": lambda l: [2 * i for i in range(1, l + 1)],
    "Sp": lambda l: [4 * i for i in range(1, l + 1)],
    "SO_odd": lambda l: [4 * i for i in range(1, l + 1)],
    "SO_even": lambda l: [4 * i for i in range(1, l)] + [2 * l],
}


def _times_one_minus_q(series, d):
    out = list(series)
    for k in range(d, len(out)):
        out[k] -= series[k - d]
    return out


def _over_one_minus_q2(series):
    out = list(series)
    for k in range(2, len(out)):
        out[k] += out[k - 2]
    return out


def regular_series(degrees, nvars, maxdeg):
    """prod (1 - q^d) / (1 - q^2)^nvars, truncated at topdeg maxdeg."""
    series = [1] + [0] * maxdeg
    for d in degrees:
        series = _times_one_minus_q(series, d)
    for _ in range(nvars):
        series = _over_one_minus_q2(series)
    return series


def hilbert_reference(family, rank, prime, maxdeg):
    """Graded dimensions, by topdeg 0..maxdeg, of the family's presentation.

    PU(p) has l = p - 1 torus variables and the relations c_i c_j.  Its
    series is (1 + q^2 + ... + q^{2l}) times the U(l) coinvariant series,
    the criterion-3 identity: I/I^2 is free over S/I on c_1..c_l.
    """
    if family == "PU":
        l = prime - 1
        coinvariant = regular_series(REGULAR_DEGREES["U"](l), l, maxdeg)
        series = [0] * (maxdeg + 1)
        for i in range(l + 1):
            for k in range(2 * i, maxdeg + 1):
                series[k] += coinvariant[k - 2 * i]
        return series
    return regular_series(REGULAR_DEGREES[family](rank), rank, maxdeg)


def rost_degrees(n, p):
    """Topdegs of the height-n summand basis: the unit, then
    c_j(y^i) of topdeg 2i(p^n - 1)/(p - 1) - 2(p^j - 1)."""
    b_n = (p ** n - 1) // (p - 1)
    degrees = [0]
    for i in range(1, p):
        for j in range(n):
            degrees.append(2 * i * b_n - 2 * (p ** j - 1))
    return degrees


def torsion_index_so(l):
    """The torsion index of SO(2l+1), as stated for l = 2, 3, 4."""
    return 2 ** l
