"""Documented JSON forms: polynomials, presentations, series, basis lists.

Variables serialize as {"name", "topdeg"}; terms as a list of
{"exps": {name: exponent}, "coef": "<exact decimal string>"}; series as
plain integer arrays indexed by topological degree.  Basis elements carry
both degree conventions.  The coefficient ring is {"ring": "Fp", "p": p}.
These are writers only: flagchow reads no JSON.
"""


def coeff_to_json(p):
    return {"ring": "Fp", "p": p}


def variables_to_json(variables):
    return [{"name": v.name, "topdeg": v.topdeg} for v in variables]


def poly_to_json(poly):
    names = [v.name for v in poly.ring.variables]
    terms = []
    for m in sorted(poly.terms):
        c = poly.terms[m]
        terms.append({
            "exps": {names[i]: e for i, e in enumerate(m) if e},
            "coef": str(c),
        })
    return {"coeff": coeff_to_json(poly.ring.p),
            "variables": variables_to_json(poly.ring.variables),
            "terms": terms}


def presentation_to_json(pres):
    out = {"coeff": coeff_to_json(pres.ring.p),
           "variables": variables_to_json(pres.ring.variables),
           "relations": [poly_to_json(r)["terms"] for r in pres.relations]}
    if pres.note:
        out["note"] = pres.note
    return out


def series_to_json(series):
    return {"maxdeg": series.maxdeg, "dims": list(series.dims)}


def basis_to_json(elements):
    return [{"name": b.name, "topdeg": b.topdeg, "chowdeg": b.chowdeg,
             "provenance": b.provenance} for b in elements]
