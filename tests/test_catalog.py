import pytest

import oracles
from flagchow import catalog
from flagchow.catalog import (
    CohomologyModel,
    OperationRule,
    TransgressionEntry,
    WitnessPolynomial,
    XGen,
    YGen,
    lookup_model,
    restriction_table,
    restriction_tables,
    validate_catalog,
    validate_model,
)
from flagchow.errors import DataMissingError, UnsupportedCaseError, ValidationError

CASE_IDS = tuple(dict.fromkeys(row.case_id for row in catalog._SERVED))


def test_validate_catalog_all_entries_pass():
    report = validate_catalog()
    assert len(report) == 11
    assert [case for case, _, _ in report] == list(CASE_IDS)
    for case, ok, fails in report:
        assert ok, (case, fails)


def test_unsupported_cases_list_supported_ones():
    with pytest.raises(UnsupportedCaseError) as err:
        lookup_model("E6", prime=2)
    assert "supported" in str(err.value)
    with pytest.raises(UnsupportedCaseError):
        lookup_model("G2", prime=3)
    with pytest.raises(UnsupportedCaseError):
        lookup_model("U", 3, 7)


def test_lookup_by_key():
    m = lookup_model("SO_odd", 3, 2)
    assert m.key() == ("SO_odd", 3, 2)
    assert m.torsion_index_p == 8
    assert m.j_invariant == (2, 1)
    assert lookup_model(*m.key()) is m


def test_j_invariant_is_log_p_of_each_truncation():
    for m in _catalog_models():
        assert len(m.j_invariant) == len(m.y_gens), m.label()
        for j, g in zip(m.j_invariant, m.y_gens):
            assert j >= 1 and m.prime ** j == g.trunc, (m.label(), g.name)
    assert lookup_model("E8", prime=2).j_invariant == (3, 2, 1, 1)
    assert lookup_model("U", 3, 5).j_invariant == ()


def test_e8_p3_model_matches_stated_data():
    m = lookup_model("E8", prime=3)
    assert [(g.name, g.topdeg, g.trunc) for g in m.y_gens] == \
        [("y8", 8, 3), ("y20", 20, 3)]
    assert [x.topdeg for x in m.x_gens] == [3, 7, 15, 19, 27, 35, 39, 47]
    assert m.torsion_index_p == 9
    assert m.j_invariant == (1, 1)
    # Bockstein hits every positive monomial except the top one
    from flagchow.steenrod import beta_preimage
    R = m.y_ring()
    y, yp = R.gen("y8"), R.gen("y20")
    hit = {(1, 0): "x2", (2, 0): "x3", (0, 1): "x4", (1, 1): "x5",
           (2, 1): "x6", (0, 2): "x7", (1, 2): "x8"}
    for (i, j), src in hit.items():
        assert beta_preimage(m, y ** i * yp ** j) == src
    assert beta_preimage(m, y ** 2 * yp ** 2) is None


def test_e7_p2_model_matches_stated_data():
    m = lookup_model("E7", prime=2)
    assert [(g.name, g.trunc) for g in m.y_gens] == \
        [("y6", 2), ("y10", 2), ("y18", 2)]
    assert len(m.x_gens) == 7
    assert m.torsion_index_p == 4
    assert [e.topdeg for e in m.transgression] == [4, 6, 10, 18, 16, 24, 28]


def test_e8_p2_model_matches_stated_data():
    m = lookup_model("E8", prime=2)
    assert [g.topdeg for g in m.y_gens] == [6, 10, 18, 30]
    assert [g.trunc for g in m.y_gens] == [8, 4, 2, 2]
    assert m.y_top().topdeg() == 120
    assert m.torsion_index_p == 64
    b6 = m.entry(6)
    R = m.y_ring()
    assert b6.leading.body == R.gen("y6") * R.gen("y18") + R.gen("y6", 4)


def test_u_model_has_no_y_part():
    m = lookup_model("U", 3, 2)
    assert m.y_gens == ()
    assert [x.topdeg for x in m.x_gens] == [1, 3, 5]
    assert m.y_top() == m.y_ring().one()
    assert m.torsion_index_p == 1


def test_so7_model():
    m = lookup_model("SO_odd", 3, 2)
    assert [(g.name, g.trunc) for g in m.y_gens] == [("y2", 4), ("y6", 2)]
    # leading term of every c_i is 2 * y_{2i}
    for i, e in enumerate(m.transgression, start=1):
        assert e.leading.s == 1
        assert e.leading.body == m.y_class(2 * i)
    # Spin(7) counterpart is one of the single-generator cases
    spin = lookup_model("Spin_odd", 3, 2)
    assert spin.is_type_one
    assert [(g.name, g.trunc) for g in spin.y_gens] == [("y6", 2)]
    assert [e.name for e in spin.transgression] == ["c'_2", "c'_3", "c_1^4"]


def test_spin11_entries():
    m = lookup_model("Spin_odd", 5, 2)
    z = m.entry("z")
    assert z.topdeg == 16
    R = m.y_ring()
    assert z.leading.body == R.gen("y6") * R.gen("y10")
    c4 = m.entry(4)
    assert c4.leading is None
    assert [(n, b.pretty()) for n, b in c4.v_terms] == [(1, "y10")]
    assert m.torsion_index_p == 2


def test_spin_surjection_target_drops_its_last_class_at_2_powers():
    last = {l: oracles.rost_part_basis(lookup_model("Spin_odd", l, 2))[1][-1]
            for l in range(5, 9)}
    assert {l: (b.name, b.topdeg) for l, b in last.items()} == {
        5: ("c_1^8", 16), 6: ("c'_6", 12), 7: ("c'_7", 14), 8: ("c'_7", 14)}


def test_mutated_entry_fails_validation():
    m = lookup_model("G2", prime=2)
    bad_entry = TransgressionEntry(1, "b_1", m.transgression[0].topdeg + 2,
                                   None, m.transgression[0].v_terms,
                                   complete=True)
    mutated = CohomologyModel(
        m.family, m.rank, m.prime, m.y_gens, m.x_gens,
        (bad_entry,) + m.transgression[1:], m.op_rules,
        is_type_one=True, dim_gt=m.dim_gt, explicit_b=None)
    fails = validate_model(mutated)
    assert any("degree" in f or "|" in f for f in fails)


def test_witness_annotations_present():
    for fam, rank, p in [("SO_odd", 4, 2), ("E8", 8, 2), ("E8", 8, 3),
                         ("E7", 7, 2), ("G2", 2, 2), ("F4", 4, 3),
                         ("E8", 8, 5), ("PU", 2, 3), ("Spin_odd", 8, 2)]:
        m = lookup_model(fam, rank, p)
        assert m.witness is not None
    assert lookup_model("Spin_odd", 6, 2).witness is None
    assert lookup_model("U", 2, 2).witness == ()


def test_sharp_data_only_where_stored():
    assert lookup_model("E8", prime=2).sharp is not None
    assert lookup_model("E7", prime=2).sharp is not None
    assert lookup_model("SO_odd", 3, 2).sharp is None


def test_restriction_tables_registry():
    names = [t.name for t in restriction_tables()]
    assert names == ["so-rost-restriction-l3", "so-rost-restriction-l7",
                     "e8-2-rost-restriction", "e8-3-rost-restriction",
                     "e8-to-e7-rost-restriction", "e7-2-rost-restriction"]
    t = restriction_table("e8-3-rost-restriction")
    assert len(t.expected_image) == 7
    t = restriction_table("e8-2-rost-restriction")
    assert len(t.expected_image) == 5
    with pytest.raises(DataMissingError):
        restriction_table("nope")


def test_restriction_tables_are_built_once_in_registry_order():
    first = restriction_tables()
    assert [t.name for t in first] == [
        "so-rost-restriction-l3", "so-rost-restriction-l7",
        "e8-2-rost-restriction", "e8-3-rost-restriction",
        "e8-to-e7-rost-restriction", "e7-2-rost-restriction"]
    again = restriction_tables()
    assert all(a is b for a, b in zip(first, again)) and len(again) == 6
    assert all(restriction_table(t.name) is t for t in first)


def _catalog_models():
    return [m for _, m in catalog._served_models()]


def test_restriction_tables_of_a_model_filter_the_full_list():
    tables = restriction_tables()
    hits = 0
    for m in _catalog_models():
        mine = restriction_tables(m)
        assert mine == [t for t in tables if t.key == m.key()]
        hits += len(mine)
    # the E8 p=2 model owns two tables, SO(7), SO(15), E8 p=3 and E7 one each
    assert hits == 6


def test_g2_explicit_forms():
    m = lookup_model("G2", prime=2)
    eb = m.explicit_b
    assert eb[1].term_topdegs() == {4}
    assert eb[2].term_topdegs() == {6}
    assert eb[1].terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert eb[2].terms == {(0, 3): 1}
    # over the model's field, so the presentation takes them as they are
    assert eb[1].ring.p == eb[2].ring.p == m.prime


# entry names of the tables written row by row; every other one is b_i
ROW_ENTRY_NAMES = {"U": "c_%d", "Sp": "p_%d", "PU": "c_%d"}
# the `complete` flag of each entry in index order: one flag for every entry
# of a family, or the list of a case of one rank
COMPLETE_FLAGS = {
    "U/Sp (any p)": True, "PU(p)": False, "SO(2l+1) p=2": True,
    "SO(2l) p=2": True, "Spin(2l+1) p=2": True,
    "(G2, 2)": [True, True],
    "(F4, 3)": [True, True, False, False],
    "(E8, 5)": [True, True] + [False] * 6,
    "(E8, 3)": [True, True] + [False] * 6,
    "(E8, 2)": [True] * 4 + [False] * 4,
    "(E7, 2)": [True] * 4 + [False] * 3,
}


def test_each_row_written_entry_is_named_and_graded_by_its_x_generator():
    checked = 0
    for _, m in catalog._served_models():
        if m.family.startswith(("SO", "Spin")):
            continue  # derived entries, with x-names x<degree>
        name = ROW_ENTRY_NAMES.get(m.family, "b_%d")
        assert [x.name for x in m.x_gens] == [
            "x%d" % i for i in range(1, m.rank + 1)], m.label()
        assert [(e.index, e.name, e.topdeg) for e in m.transgression] == [
            (i, name % i, x.topdeg + 1)
            for i, x in enumerate(m.x_gens, start=1)], m.label()
        checked += 1
    assert checked == 33


def test_each_alias_is_z_and_the_degree_of_its_x_generator():
    # every x-generator of (E8, 5), (E8, 3), (E8, 2) and (E7, 2) has one, and
    # no other x-generator does
    for _, m in catalog._served_models():
        aliased = m.family in ("E8", "E7")
        assert [x.alias for x in m.x_gens] == [
            "z%d" % x.topdeg if aliased else None for x in m.x_gens], m.label()


def test_each_entry_is_complete_exactly_where_its_table_says():
    for case, m in catalog._served_models():
        want = COMPLETE_FLAGS[case]
        if isinstance(want, bool):
            want = [want] * m.rank
        assert [e.complete for e in m.transgression] == want, m.label()


def test_witness_polynomial_invariants():
    m = lookup_model("G2", prime=2)
    with pytest.raises(Exception):
        WitnessPolynomial(-1, m.y_top())


def test_model_key_and_label():
    m = lookup_model("SO_odd", 3, 2)
    assert m.key() == ("SO_odd", 3, 2)
    assert m.label() == "SO(7) p=2"
    e8 = lookup_model("E8", prime=5)
    assert e8.key() == ("E8", 8, 5)
    assert e8.label() == "(E8, 5)"


def test_each_catalog_case_is_one_shared_model():
    first, again = list(catalog._served_models()), list(catalog._served_models())
    assert len(first) == 54
    for (case, m), (_, m_again) in zip(first, again):
        assert m is m_again, case
        assert lookup_model(*m.key()) is m, m.label()


def test_each_served_row_is_reached_by_its_cli_group_and_validated():
    # `_case`, the CLI's --group lookup, the unsupported-case message and
    # validate_catalog all read the one table `_SERVED`: at each row's least
    # rank and each of its primes, the CLI spelling and the family reach the
    # same model, of the row's key, and validate_catalog checks that model
    from types import SimpleNamespace
    from flagchow import cli
    validated = [m for _, m in catalog._served_models()]
    for row in catalog._SERVED:
        assert row.name in catalog.SUPPORTED_CASES
        for p in row.primes:
            m = lookup_model(row.family, row.least, p)
            assert m.key() == (row.family, row.least, p)
            spelled = SimpleNamespace(group=row.group, rank=row.least, prime=p)
            assert cli._model(spelled) is m, (row.group, p)
            assert any(m is v for v in validated), m.label()
    assert len(catalog.SUPPORTED_CASES) == 12


def test_every_spelling_of_a_case_is_one_model():
    for fam, rank, p in [("E8", 8, 2), ("E8", 8, 3), ("E8", 8, 5), ("E7", 7, 2),
                         ("G2", 2, 2), ("F4", 4, 3), ("PU", 1, 2), ("PU", 2, 3),
                         ("PU", 4, 5)]:
        m = lookup_model(fam, rank, p)
        assert lookup_model(fam, None, p) is m
        assert lookup_model(fam, prime=p) is m
        assert lookup_model(*m.key()) is m


BAD_SPELLINGS = [("U", 2.5, 2), ("U", 3.0, 2), ("U", "3", 2), ("U", True, 2),
                 ("U", 3, 2.0), ("U", 3, True), ("E8", None, 2.0), ("PU", False, 2)]


def test_a_rank_or_prime_that_is_not_an_int_raises_before_the_memo():
    # a float or bool would hash to the cached int case, so the answer would
    # depend on what was looked up before
    catalog._build.cache_clear()
    for fam, rank, p in BAD_SPELLINGS:
        with pytest.raises(ValidationError):
            lookup_model(fam, rank, p)
    for fam, rank, p in [("U", 3, 2), ("U", 1, 2), ("E8", None, 2), ("PU", 1, 2)]:
        lookup_model(fam, rank, p)
    for fam, rank, p in BAD_SPELLINGS:
        with pytest.raises(ValidationError):
            lookup_model(fam, rank, p)
    assert type(lookup_model("U", 1, 2).rank) is int


def test_memo_is_bounded_and_an_evicted_case_rebuilds_equal():
    first = lookup_model("U", 1, 2)
    state = oracles.object_state(first)
    for l in range(1, 200):
        lookup_model("U", l, 2)
        assert catalog._build.cache_info().currsize <= 128
    again = lookup_model("U", 1, 2)
    assert again is not first
    assert oracles.object_state(again) == state
    assert validate_model(again) == []


def test_validate_catalog_checks_the_54_served_models_on_every_call(monkeypatch):
    seen = []
    real = catalog.validate_model

    def counted(model):
        seen.append(model)
        return real(model)
    monkeypatch.setattr(catalog, "validate_model", counted)
    for _ in range(3):
        seen.clear()
        assert all(ok for _, ok, _ in validate_catalog())
        assert len(seen) == 54
        assert all(lookup_model(*m.key()) is m for m in seen)


def test_summand_bases_and_case_dispatch_match_the_pinned_digests():
    import hashlib
    # sha256 of oracles.rost_part_basis on the 54 served models (kind, then
    # each element's name, topdeg and provenance, in order), and of what
    # `_case` gives on every spelling below: the builder's name and the key
    # of the model it builds, or the exception's type and message
    basis = hashlib.sha256()
    for _, m in catalog._served_models():
        kind, elems = oracles.rost_part_basis(m)
        basis.update(repr((m.key(), kind, [(b.name, b.topdeg, b.provenance)
                                           for b in elems])).encode())
    assert basis.hexdigest() == (
        "0e588fa22af48c245ed501d9ddb24a30a1b785999e13e65004319ce73d755ada")
    cases = hashlib.sha256()
    for fam in ("U", "Sp", "PU", "SO_odd", "SO_even", "Spin_odd", "G2", "F4",
                "E8", "E7", "E6", "SO", "", None):
        for rank in (None, *range(-1, 101)):
            for p in (None, *range(-2, 12)):
                try:
                    builder, *args = catalog._case(fam, rank, p)
                except Exception as err:
                    got = (type(err).__name__, str(err))
                else:
                    got = (builder.__name__, builder(*args).key())
                cases.update(repr((fam, rank, p, got)).encode())
    assert cases.hexdigest() == (
        "c1ef72678ea2f0fc2fcd72e8aa00c75330b42b346085cc85763e0a8f80f3efe6")


# --- one hand-built mutant per failure message of validate_model ---------------


def _mutant(base, **changes):
    """A new model with every field of `base` but those in `changes`."""
    fields = dict(
        family=base.family, rank=base.rank, prime=base.prime,
        y_gens=base.y_gens, x_gens=base.x_gens, transgression=base.transgression,
        op_rules=base.op_rules, torsion_index_p=base.torsion_index_p,
        witness=base.witness, sharp=base.sharp, notes=base.notes,
        is_type_one=base.is_type_one, dim_gt=base.dim_gt,
        explicit_b=base.explicit_b)
    fields.update(changes)
    return CohomologyModel(**fields)


def _replaced(obj, **changes):
    """A copy of an entry or generator, whose slots are its constructor's
    parameters, with the fields in `changes` replaced."""
    fields = {s: getattr(obj, s) for s in type(obj).__slots__}
    fields.update(changes)
    return type(obj)(**fields)


def _with_entry(base, index, **changes):
    """`base` with the fields in `changes` replaced on transgression entry `index`."""
    return _mutant(base, transgression=tuple(
        _replaced(e, **changes) if e.index == index else e
        for e in base.transgression))


def _with_rule(base, op, source, rule):
    """`base` with its (op, source) operation rule replaced by `rule`."""
    return _mutant(base, op_rules=tuple(
        rule if (r.op, r.source) == (op, source) else r for r in base.op_rules))


def _with_gen(gens, which, **changes):
    """`gens` with the fields in `changes` replaced on the generator named `which`."""
    return [_replaced(g, **changes) if g.name == which else g for g in gens]


def _g2():
    return lookup_model("G2", prime=2)


def _u2():
    return lookup_model("U", 2, 2)


def _pu3():
    return lookup_model("PU", prime=3)


def _e8_2():
    return lookup_model("E8", prime=2)


def _e8_3():
    return lookup_model("E8", prime=3)


# name -> (build(monkeypatch) -> model, the failures validate_model must list)
MUTANTS = {
    "rank": (lambda mp: _mutant(_g2(), rank=3),
             ["(G2, 2): number of x-generators != rank"]),
    "duplicate-name": (
        lambda mp: _mutant(_u2(), x_gens=_with_gen(_u2().x_gens, "x2", name="x1")),
        ["U(2) p=2: generator names not unique"]),
    "alias-clash": (
        lambda mp: _mutant(_e8_3(), x_gens=_with_gen(_e8_3().x_gens, "x2",
                                                     alias="x1")),
        ["(E8, 3): generator names not unique"]),
    "odd-y-degree": (
        lambda mp: _mutant(_pu3(), y_gens=[YGen("y2", 3, 3)]),
        ["PU(3): y-degree must be even",
         "PU(3): degree bookkeeping != dim(G/T)"]),
    "truncation-not-a-p-power": (
        lambda mp: _mutant(_g2(), y_gens=[YGen("y6", 6, 3)]),
        ["(G2, 2): truncation exponent must be a power of p",
         "(G2, 2): degree bookkeeping != dim(G/T)"]),
    "truncation-zero": (
        lambda mp: _mutant(_g2(), y_gens=[YGen("y6", 6, 0)]),
        ["(G2, 2): truncation exponent must be a power of p",
         "(G2, 2): leading witness of b_2 not reduced",
         "(G2, 2): v-term (1, ...) of b_1 not reduced",
         "(G2, 2): degree bookkeeping != dim(G/T)"]),
    "even-x-degree": (
        lambda mp: _with_entry(_with_entry(
            _mutant(_u2(), x_gens=[XGen("x1", 2), XGen("x2", 2)]),
            1, topdeg=3), 2, topdeg=3),
        ["U(2) p=2: x-degree must be odd and positive"] * 2),
    "negative-x-degree": (
        lambda mp: _with_entry(_with_entry(
            _mutant(_u2(), x_gens=[XGen("x1", -1), XGen("x2", 5)]),
            1, topdeg=0), 2, topdeg=6),
        ["U(2) p=2: x-degree must be odd and positive"]),
    "missing-entry": (
        lambda mp: _mutant(_u2(), transgression=_u2().transgression[:1]),
        ["U(2) p=2: one transgression entry per x-generator"]),
    "missing-entry-named-by-rules-and-witness": (
        lambda mp: _mutant(_e8_3(), transgression=_e8_3().transgression[:7]),
        ["(E8, 3): one transgression entry per x-generator",
         "(E8, 3): witness uses entry 8 with no leading term"]),
    "entry-degree": (
        lambda mp: _with_entry(_u2(), 2, topdeg=5),
        ["U(2) p=2: entry c_2 degree 5 != |x2|+1"]),
    "leading-degree": (
        lambda mp: _with_entry(_pu3(), 1, leading=WitnessPolynomial(
            1, _pu3().y_ring().gen("y2", 2))),
        ["PU(3): leading witness of c_1 has wrong degree"]),
    "leading-not-reduced": (
        lambda mp: _with_entry(lookup_model("E7", prime=2), 6,
                               leading=WitnessPolynomial(1, lookup_model(
                                   "E7", prime=2).y_ring().gen("y6", 4))),
        ["(E7, 2): leading witness of b_6 not reduced"]),
    "leading-in-another-ring": (
        lambda mp: _with_entry(_pu3(), 1, leading=WitnessPolynomial(
            1, lookup_model("PU", prime=5).y_ring().gen("y2"))),
        ["PU(3): leading witness of c_1 not in P(y)"]),
    "v-term-level": (
        lambda mp: _with_entry(_g2(), 1, v_terms=[(0, _g2().y_ring().gen("y6"))]),
        ["(G2, 2): v-term level must be >= 1",
         "(G2, 2): v-term (0, ...) of b_1 violates the degree equation"]),
    "v-term-not-reduced": (
        lambda mp: _with_entry(_e8_3(), 6, v_terms=[(1, _e8_3().y_ring().gen("y8", 5))]),
        ["(E8, 3): v-term (1, ...) of b_6 not reduced"]),
    "v-term-degree": (
        lambda mp: _with_entry(_g2(), 1, v_terms=[(2, _g2().y_ring().gen("y6"))]),
        ["(G2, 2): v-term (2, ...) of b_1 violates the degree equation"]),
    "rule-unknown-generator": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("P1", "x1", ("xgen", "x9", 1))),
        ["(G2, 2): operation rule names unknown generator 'x9'"]),
    "rule-unknown-operation": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("Qx", "x1", ("xgen", "x2", 1))),
        ["(G2, 2): unknown operation 'Qx'"]),
    "rule-ypoly-degree": (
        lambda mp: _with_rule(_e8_3(), "beta", "x2", OperationRule(
            "beta", "x2", ("ypoly", _e8_3().y_ring().gen("y8", 2)))),
        ["(E8, 3): beta(x2) target degree mismatch",
         "(E8, 3): Bockstein rule for x2 disagrees with transgression leading"]),
    "rule-zero-coefficient": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("P1", "x1", ("xgen", "x2", 2))),
        ["(G2, 2): P1(x1) has zero coefficient"]),
    "rule-xgen-degree": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("P1", "x1", ("xgen", "x1", 1))),
        ["(G2, 2): P1(x1) -> x1 degree mismatch"]),
    "rule-unknown-target-kind": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("P1", "x1", ("foo",))),
        ["(G2, 2): P1(x1) has a malformed target"]),
    "rule-xgen-without-coefficient": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("P1", "x1", ("xgen", "x2"))),
        ["(G2, 2): P1(x1) has a malformed target"]),
    "rule-none-target": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("P1", "x1", None)),
        ["(G2, 2): P1(x1) has a malformed target"]),
    "rule-ypoly-not-a-polynomial": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("P1", "x1", ("ypoly", "y2"))),
        ["(G2, 2): P1(x1) has a malformed target"]),
    "rule-xgen-coefficient-not-an-int": (
        lambda mp: _with_rule(_g2(), "P1", "x1",
                              OperationRule("P1", "x1", ("xgen", "x2", "1"))),
        ["(G2, 2): P1(x1) has a malformed target"]),
    "bockstein-disagrees": (
        lambda mp: _with_rule(_e8_2(), "Sq1", "x6", OperationRule(
            "Sq1", "x6", ("ypoly", _e8_2().y_ring().gen("y6", 4)))),
        ["(E8, 2): Bockstein rule for x6 disagrees with transgression leading"]),
    "type-one-rank": (
        lambda mp: _mutant(lookup_model("U", 1, 3), is_type_one=True),
        ["U(1) p=3: rank below 2p-2 for a one-generator part"]),
    "torsion-index-not-a-p-power": (
        lambda mp: _mutant(_g2(), torsion_index_p=6),
        ["(G2, 2): torsion index must be a power of p"]),
    "dimension": (
        lambda mp: _mutant(_g2(), dim_gt=14),
        ["(G2, 2): degree bookkeeping != dim(G/T)"]),
    "so-leading": (
        lambda mp: _with_entry(lookup_model("SO_odd", 3, 2), 1,
                               leading=WitnessPolynomial(2, lookup_model(
                                   "SO_odd", 3, 2).y_ring().gen("y2"))),
        ["SO(7) p=2: leading term of c_1 must be 2*y_2"]),
    "e8-y-degrees": (
        lambda mp: _mutant(_e8_2(), y_gens=_with_gen(_e8_2().y_gens, "y30",
                                                     topdeg=32)),
        ["(E8, 2): y-degrees must be 6,10,18,30",
         "(E8, 2): degree bookkeeping != dim(G/T)"]
        + ["(E8, 2): leading witness of b_%d not in P(y)" % i for i in range(2, 9)]
        + ["(E8, 2): v-term (%d, ...) of b_%d not in P(y)" % (n, i)
           for i, e in enumerate(_e8_2().transgression, start=1)
           for n, _ in e.v_terms]),
    "e8-truncations": (
        lambda mp: _mutant(_e8_2(), y_gens=_with_gen(_e8_2().y_gens, "y30",
                                                     trunc=4)),
        ["(E8, 2): truncations must be 8,4,2,2",
         "(E8, 2): degree bookkeeping != dim(G/T)"]),
    "explicit-form-degree": (
        lambda mp: _mutant(_g2(), explicit_b={
            1: _g2().explicit_b[2], 2: _g2().explicit_b[2]}),
        ["(G2, 2): explicit form of b_1 has wrong degree"]),
    "witness-without-leading": (
        lambda mp: _mutant(_g2(), witness=(1,)),
        ["(G2, 2): witness uses entry 1 with no leading term"]),
    "witness-unknown-entry": (
        lambda mp: _mutant(_g2(), witness=(9,)),
        ["(G2, 2): witness uses entry 9 with no leading term"]),
    "prime-not-prime": (
        lambda mp: _mutant(_u2(), prime=4),
        ["U(2) p=4: prime 4 is not a prime"]),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_validate_model_mutant_reports_its_exact_failures(name, monkeypatch):
    build, expected = MUTANTS[name]
    fails = validate_model(build(monkeypatch))
    assert sorted(fails) == sorted(expected)


# the order in which validate_model lists them, which `verify` prints, where
# it differs from the order written in MUTANTS
FAILURE_ORDER = {
    "truncation-zero": [
        "(G2, 2): truncation exponent must be a power of p",
        "(G2, 2): v-term (1, ...) of b_1 not reduced",
        "(G2, 2): leading witness of b_2 not reduced",
        "(G2, 2): degree bookkeeping != dim(G/T)"],
    "e8-y-degrees": [
        "(E8, 2): v-term (1, ...) of b_1 not in P(y)",
        "(E8, 2): v-term (2, ...) of b_1 not in P(y)",
        "(E8, 2): v-term (3, ...) of b_1 not in P(y)",
        "(E8, 2): leading witness of b_2 not in P(y)",
        "(E8, 2): v-term (2, ...) of b_2 not in P(y)",
        "(E8, 2): v-term (3, ...) of b_2 not in P(y)",
        "(E8, 2): leading witness of b_3 not in P(y)",
        "(E8, 2): v-term (1, ...) of b_3 not in P(y)",
        "(E8, 2): v-term (3, ...) of b_3 not in P(y)",
        "(E8, 2): leading witness of b_4 not in P(y)",
        "(E8, 2): v-term (1, ...) of b_4 not in P(y)",
        "(E8, 2): leading witness of b_5 not in P(y)",
        "(E8, 2): v-term (1, ...) of b_5 not in P(y)",
        "(E8, 2): v-term (3, ...) of b_5 not in P(y)",
        "(E8, 2): leading witness of b_6 not in P(y)",
        "(E8, 2): leading witness of b_7 not in P(y)",
        "(E8, 2): v-term (1, ...) of b_7 not in P(y)",
        "(E8, 2): leading witness of b_8 not in P(y)",
        "(E8, 2): degree bookkeeping != dim(G/T)",
        "(E8, 2): y-degrees must be 6,10,18,30"],
    "e8-truncations": [
        "(E8, 2): degree bookkeeping != dim(G/T)",
        "(E8, 2): truncations must be 8,4,2,2"],
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_validate_model_mutant_lists_its_failures_in_the_printed_order(
        name, monkeypatch):
    build, expected = MUTANTS[name]
    assert validate_model(build(monkeypatch)) == FAILURE_ORDER.get(name, expected)
