"""`catalog.check_class` against its two-pass reference.

The helper reads a stored class's degree, its ring and its reducedness in
one pass over the terms; the reference reads the degree from the set of the
terms' topdegs, the ring from `oracles.in_ring` and the reducedness from
`oracles.is_reduced`.
"""

import pytest

import oracles
from flagchow import catalog
from flagchow.catalog import check_class

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MODELS = [m for _, m in catalog._served_models()]


def _reference(body, topdeg, ring, truncs):
    return (body.term_topdegs() == {topdeg}, oracles.in_ring(body, ring),
            oracles.is_reduced(body, truncs))


def _exponent(trunc):
    # at, just below or just above the truncation, or anywhere up to above it
    near = sorted({e for e in (0, 1, trunc - 2, trunc - 1, trunc, trunc + 1)
                   if e >= 0})
    return st.one_of(st.sampled_from(near), st.integers(0, trunc + 1))


@st.composite
def stored_classes(draw):
    """(body, topdeg, ring, truncs): the checked model's P(y) and
    truncations, or ring None; a body of zero, one or several terms of mixed
    degrees, in that P(y) or in another model's."""
    model = draw(st.sampled_from(MODELS))
    home = draw(st.sampled_from([model, model, draw(st.sampled_from(MODELS))]))
    body_ring = home.y_ring()
    terms = draw(st.lists(
        st.tuples(st.tuples(*[_exponent(g.trunc) for g in home.y_gens]),
                  st.integers(1, home.prime - 1)),
        max_size=4))
    body = body_ring.from_terms(terms)
    degrees = [body_ring.monomial_topdeg(m) for m in body.terms]
    topdeg = draw(st.one_of(st.sampled_from(degrees or [0]),
                            st.integers(0, 120)))
    ring = draw(st.sampled_from([model.y_ring(), None]))
    return body, topdeg, ring, [g.trunc for g in model.y_gens]


@hypothesis.settings(derandomize=True, deadline=None, max_examples=500)
@hypothesis.given(stored_classes())
def test_check_class_agrees_with_the_two_pass_reference(case):
    assert check_class(*case) == _reference(*case)

