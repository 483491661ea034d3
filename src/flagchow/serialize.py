"""Documented JSON forms: polynomials, presentations, series, basis lists.

Variables serialize as {"name", "topdeg"}; terms as a list of
{"exps": {name: exponent}, "coef": "<exact decimal string>"}; series as
plain integer arrays indexed by topological degree.  Basis elements carry
both degree conventions.  The coefficient ring is {"ring": "Fp", "p": p}.
These are writers only: flagchow reads no JSON.  `json_text` writes a
payload as `json.dumps(payload, indent=2, sort_keys=True)` does, byte for
byte, in one pass; every payload keys its dicts by str, and a key of any
other type raises TypeError.
"""

import json
from json.encoder import encode_basestring_ascii as _quote


def json_text(payload):
    """`json.dumps(payload, indent=2, sort_keys=True)`: the stdlib runs its
    pure-Python encoder whenever `indent` is set, and this writer appends
    each piece to one list and joins it once."""
    parts = []
    _write(payload, "\n", parts)
    return "".join(parts)


def _write(value, newline, parts):
    """Append the text of `value`, nested at the indent `newline` ends with.
    A str or int item of a container is written in place, without a call,
    and a list of ints in one join."""
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            head = sep + _quote(key) + ": "
            sep = comma
            if type(item) is str:
                parts.append(head + _quote(item))
            elif type(item) is int:
                parts.append(head + int.__repr__(item))
            else:
                parts.append(head)
                _write(item, inner, parts)
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        if type(value[0]) is int and set(map(type, value)) == {int}:
            # a list of ints in one join
            parts.append(sep + comma.join(map(int.__repr__, value))
                         + newline + "]")
            return
        for item in value:
            if type(item) is str:
                parts.append(sep + _quote(item))
            elif type(item) is int:
                parts.append(sep + int.__repr__(item))
            else:
                parts.append(sep)
                _write(item, inner, parts)
            sep = comma
        parts.append(newline + "]")
    elif isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        parts.append(int.__repr__(value))
    else:
        parts.append(json.dumps(value))


def coeff_to_json(p):
    return {"ring": "Fp", "p": p}


def variables_to_json(variables):
    return [{"name": v.name, "topdeg": v.topdeg} for v in variables]


def _terms_to_json(poly, names):
    """The terms of poly, in monomial order, over variables named names."""
    return [{"exps": {names[i]: e for i, e in enumerate(m) if e},
             "coef": str(c)}
            for m, c in sorted(poly.terms.items())]


def poly_to_json(poly):
    names = [v.name for v in poly.ring.variables]
    return {"coeff": coeff_to_json(poly.ring.p),
            "variables": variables_to_json(poly.ring.variables),
            "terms": _terms_to_json(poly, names)}


def presentation_to_json(pres):
    names = [v.name for v in pres.ring.variables]
    out = {"coeff": coeff_to_json(pres.ring.p),
           "variables": variables_to_json(pres.ring.variables),
           "relations": [_terms_to_json(r, names) for r in pres.relations]}
    if pres.note:
        out["note"] = pres.note
    return out


def series_to_json(series):
    return {"maxdeg": series.maxdeg, "dims": list(series.dims)}


def basis_to_json(elements):
    return [{"name": b.name, "topdeg": b.topdeg, "chowdeg": b.chowdeg,
             "provenance": b.provenance} for b in elements]
