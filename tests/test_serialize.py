import contextlib
import importlib
import io
import json
import os

import pytest

from flagchow import cli, serialize
from flagchow.catalog import lookup_model
from flagchow.chow import chow_presentation, rost_chow_basis
from flagchow.groebner import HilbertSeries, hilbert_series
from flagchow.serialize import (
    basis_to_json,
    json_text,
    poly_to_json,
    presentation_to_json,
    series_to_json,
)
from flagchow.symclass import elementary_symmetric, t_ring

from oracles import (
    poly_from_json,
    presentation_from_json,
    render_text_reference,
    series_from_json,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_poly_round_trip_over_fp():
    ring = t_ring(2, 5)
    poly = elementary_symmetric(ring)[0] * ring.const(3)
    data = poly_to_json(poly)
    assert data["coeff"] == {"ring": "Fp", "p": 5}
    assert json.loads(json.dumps(data)) == data
    back = poly_from_json(data)
    assert back == poly


def test_zero_poly_round_trip():
    ring = t_ring(2, 3)
    data = poly_to_json(ring.zero())
    assert data["terms"] == []
    assert poly_from_json(data).is_zero()


def test_presentation_round_trip():
    pres = chow_presentation(lookup_model("SO_odd", 3, 2))
    data = presentation_to_json(pres)
    back = presentation_from_json(json.loads(json.dumps(data)))
    assert back.relations == pres.relations
    assert back.ring == pres.ring
    assert hilbert_series(back, 16) == hilbert_series(pres, 16)


def test_symbolic_presentation_round_trip_keeps_note():
    pres = chow_presentation(lookup_model("F4", prime=3))
    data = presentation_to_json(pres)
    assert "note" in data
    back = presentation_from_json(data)
    assert back.note == pres.note


def test_series_round_trip():
    s = HilbertSeries([1, 0, 2, 0, 1])
    assert series_from_json(series_to_json(s)) == s


def test_basis_json_carries_both_degree_conventions():
    data = basis_to_json(rost_chow_basis(2, 2))
    assert data[1] == {"name": "c_0(y)", "topdeg": 6, "chowdeg": 3,
                       "provenance": "rost-basis"}


def _stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True)


# str with non-ASCII, quotes, backslashes and control characters; big and
# negative ints; bools, None and finite floats
_CHARS = st.sampled_from('aZ \u00e9\u4e2d\U0001f600"\\/\x00\x1f\n\t\x7f')
_LEAVES = (st.text(alphabet=_CHARS)
           | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
           | st.booleans() | st.none()
           | st.floats(allow_nan=False, allow_infinity=False))
# the keys of one dict share a type, as sort_keys needs
_KEYS = st.sampled_from([st.text(max_size=4), st.integers(-10 ** 20, 10 ** 20)])


def _dicts(values):
    return _KEYS.flatmap(lambda keys: st.dictionaries(keys, values, max_size=4))


_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple) | _dicts(inner)),
    max_leaves=30)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(_VALUES)
def test_json_text_is_the_stdlib_indented_sorted_dump(value):
    assert json_text(value) == _stdlib(value)


def test_json_text_on_empty_containers_and_odd_keys():
    for value in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {}],
                  {True: 1, 2.5: 3}, {None: 2}, {-3: "x", 10 ** 30: "y"},
                  {1.0: [0.1, -0.0, 1e300]}):
        assert json_text(value) == _stdlib(value), value


# the scalars a payload holds, and tuples of them; dict keys are str or int
_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
            | st.text(alphabet=_CHARS, max_size=6))
_TEXT_LEAVES = _SCALARS | st.lists(_SCALARS, max_size=3).map(tuple)
_TEXT_VALUES = st.recursive(
    _TEXT_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4) | st.integers(-9, 9),
                                     inner, max_size=4)),
    max_leaves=30)


# a list item whose first value is a container puts its bullet on the
# `key:` line; empty containers write no line of their own
@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(_TEXT_VALUES)
@hypothesis.example({})
@hypothesis.example([])
@hypothesis.example("x")
@hypothesis.example(None)
@hypothesis.example((1, "a"))
@hypothesis.example([[]])
@hypothesis.example([{}])
@hypothesis.example({"a": {}, "b": []})
@hypothesis.example([[1, [2, {"k": 3}]], {"a": [1], "b": 2}])
@hypothesis.example([{"a": {"b": [{"c": []}, {}]}, "d": (1,)}])
@hypothesis.example({"a": [[{"x": {"y": 1}}], [], [[]]], 3: True})
def test_render_text_writes_the_reference_bytes(payload):
    new, old = io.StringIO(), io.StringIO()
    cli._render_text(payload, new)
    render_text_reference(payload, old)
    assert new.getvalue() == old.getvalue()


def test_json_text_matches_the_stdlib_on_every_cli_mix_payload(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    payloads = []

    def recorded(payload):
        payloads.append(payload)
        return json_text(payload)
    monkeypatch.setattr(serialize, "json_text", recorded)
    for argv, _, _ in workloads.cli_mix_calls():
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv.split(), out=io.StringIO())
    assert len(payloads) == 31
    for payload in payloads:
        assert json_text(payload) == _stdlib(payload)
