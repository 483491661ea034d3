import json

from flagchow.catalog import lookup_model
from flagchow.chow import chow_presentation, rost_chow_basis
from flagchow.groebner import HilbertSeries, hilbert_series
from flagchow.serialize import (
    basis_to_json,
    poly_to_json,
    presentation_to_json,
    series_to_json,
)
from flagchow.symclass import elementary_symmetric, t_ring

from oracles import poly_from_json, presentation_from_json, series_from_json


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
