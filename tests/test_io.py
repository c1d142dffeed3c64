"""File format: exact serialization, validation on load, and schema errors
that name the offending key."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab.cyclo import CycloNumber, zeta
from fuselab.errors import MissingPair, SchemaError, ValidationFailed
from fuselab.gauge import GaugeProblem
from fuselab.invariants import InvariantMatrix
from fuselab.io import (
    cyclo_from_json,
    cyclo_to_json,
    data_to_json,
    dumps_data,
    parse_data,
    parse_data_file,
    write_data_file,
)
from fuselab.modular import catalog_names, load_catalog, su2_modular_data
from fuselab.nimrep import d_graph, e_graph


def rat(x) -> CycloNumber:
    return CycloNumber.from_rational(x)


def sample_gauge() -> GaugeProblem:
    lam = [rat(1), zeta(5), rat(Fraction(3, 2))]
    mu = {(i, j): lam[i] / lam[j] for i in range(3) for j in range(3)}
    return GaugeProblem.build(("p", "q", "r"), mu)


def all_kinds():
    md = su2_modular_data(2)
    return (
        md.ring,
        md,
        e_graph(6),
        sample_gauge(),
        InvariantMatrix.from_rows([[1, None], [None, 1]]),
    )


def test_round_trip_identity_all_kinds():
    for obj in all_kinds():
        assert parse_data(data_to_json(obj)) == obj


def test_round_trip_through_file(tmp_path):
    for k, obj in enumerate(all_kinds()):
        path = tmp_path / f"obj{k}.json"
        write_data_file(path, obj)
        assert parse_data_file(path) == obj


def test_serialized_bytes_stable():
    md = load_catalog("ising")
    assert dumps_data(md) == dumps_data(md)
    doc = json.loads(dumps_data(md))
    assert doc["kind"] == "modular-data"


def test_cyclo_serialization_exact():
    x = zeta(8) + rat(Fraction(2, 7))
    doc = cyclo_to_json(x)
    assert doc["order"] == 8
    assert cyclo_from_json(doc, "x") == x
    with pytest.raises(SchemaError):
        cyclo_from_json({"order": 2, "coeffs": [[1, 0], [0, 1]]}, "x")
    with pytest.raises(SchemaError):
        cyclo_from_json({"order": 3, "coeffs": [[1, 1]]}, "x")


def _fraction_to_json(x: CycloNumber) -> dict:
    """The earlier encoder, through one Fraction per dense coefficient."""
    return {"order": x.order, "coeffs": [[c.numerator, c.denominator] for c in x.coeffs]}


def _fraction_from_json(obj) -> CycloNumber:
    """The earlier decoder (checks left out), through Fractions."""
    values = {k: Fraction(n, d) for k, (n, d) in enumerate(obj["coeffs"]) if n}
    return CycloNumber(obj["order"], values)


def test_integer_encoder_writes_the_fraction_encoders_bytes():
    for name in catalog_names():
        md = load_catalog(name)
        doc = data_to_json(md)
        want = dict(doc, S=[[_fraction_to_json(x) for x in row] for row in md.S])
        # the compact encoder is C code; dumps_data's indented one is Python
        assert json.dumps(doc, sort_keys=True) == json.dumps(want, sort_keys=True), name
        if md.rank <= 9:
            assert dumps_data(md) == json.dumps(want, sort_keys=True, indent=2) + "\n", name
    gp = sample_gauge()
    assert [t[2] for t in data_to_json(gp)["mu"]] == [_fraction_to_json(x) for x in gp.mu]


_BIG = st.sampled_from([2**63, 2**64 + 1, -(2**64) - 7, 3**50])
_NUMS = st.integers(-12, 12) | _BIG
_DENS = st.integers(-12, -1) | st.integers(1, 12) | _BIG


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 15]).flatmap(
    lambda n: st.lists(st.tuples(_NUMS, _DENS).map(list), min_size=n, max_size=n)
))
def test_integer_decoder_matches_the_fraction_decoder(coeffs):
    # negative and unreduced denominators, zeros over any denominator, big ints
    obj = {"order": len(coeffs), "coeffs": coeffs}
    got = cyclo_from_json(obj, "x")
    assert got == _fraction_from_json(obj)
    assert cyclo_from_json(cyclo_to_json(got), "x") == got


@pytest.mark.parametrize(
    "obj,message",
    [
        ([], "x: expected an object"),
        ({"coeffs": []}, "x: missing key 'order'"),
        ({"order": "3", "coeffs": []}, "x.order: expected an integer, got '3'"),
        ({"order": True, "coeffs": [[1, 1]]}, "x.order: expected an integer, got True"),
        ({"order": 0, "coeffs": []}, "x.order: must be positive"),
        ({"order": 2**15 + 1, "coeffs": []}, "x.order: 32769 exceeds the budget of 32768"),
        ({"order": 2}, "x: missing key 'coeffs'"),
        ({"order": 2, "coeffs": [[1, 1]]}, "x.coeffs: expected 2 [num, den] pairs"),
        ({"order": 1, "coeffs": {"0": [1, 1]}}, "x.coeffs: expected 1 [num, den] pairs"),
        ({"order": 2, "coeffs": [[1, 1], [1]]}, "x.coeffs[1]: expected a [num, den] pair"),
        ({"order": 2, "coeffs": [[1, 1], (1, 2)]}, "x.coeffs[1]: expected a [num, den] pair"),
        ({"order": 2, "coeffs": [[1.5, 1], [0, 1]]}, "x.coeffs[0][0]: expected an integer, got 1.5"),
        ({"order": 2, "coeffs": [[0, 1], [1, False]]}, "x.coeffs[1][1]: expected an integer, got False"),
        ({"order": 2, "coeffs": [[0, 1], [0, 0]]}, "x.coeffs[1]: zero denominator"),
        ({"order": 2, "coeffs": [[1, 0], [1, "a"]]}, "x.coeffs[0]: zero denominator"),
    ],
)
def test_cyclo_schema_errors_keep_their_text(obj, message):
    with pytest.raises(SchemaError) as info:
        cyclo_from_json(obj, "x")
    assert str(info.value) == message


def _set(keys, value):
    def edit(doc):
        *path, last = keys
        for key in path:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            _set(["S", 3, 2, "coeffs", 5, 1], 1.0),
            "modular-data.S[3][2].coeffs[5][1]: expected an integer, got 1.0",
        ),
        (
            _set(["S", 12, 0, "coeffs", 0, 0], True),
            "modular-data.S[12][0].coeffs[0][0]: expected an integer, got True",
        ),
        (_set(["ring", "N", 1, 2, 3], "1"), "modular-data.ring.N: expected an integer, got '1'"),
        (_set(["ring", "dual", 4], 4.0), "modular-data.ring.dual[4]: expected an integer, got 4.0"),
        (_set(["t", 7, 1], None), "modular-data.t[7][1]: expected an integer, got None"),
    ],
)
def test_deep_schema_errors_name_their_location(edit, message):
    doc = data_to_json(su2_modular_data(12))
    edit(doc)
    with pytest.raises(SchemaError) as info:
        parse_data(doc)
    assert str(info.value) == message


def test_fusion_ring_n_entry_error_names_n():
    doc = data_to_json(su2_modular_data(3).ring)
    doc["N"][2][1][1] = False
    with pytest.raises(SchemaError) as info:
        parse_data(doc)
    assert str(info.value) == "fusion-ring.N: expected an integer, got False"


def test_decode_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "graph",\n  "vertices": [}\n')
    with pytest.raises(SchemaError) as info:
        parse_data_file(path)
    assert "line 2" in str(info.value)


def test_schema_error_names_key():
    with pytest.raises(SchemaError) as info:
        parse_data({"kind": "graph", "adjacency": [[0]]})
    assert "vertices" in str(info.value)
    with pytest.raises(SchemaError) as info:
        parse_data({"kind": "invariant"})
    assert "Z" in str(info.value)
    with pytest.raises(SchemaError):
        parse_data({"kind": "wavefunction"})
    with pytest.raises(SchemaError):
        parse_data([1, 2, 3])


def test_asymmetric_graph_rejected():
    with pytest.raises(SchemaError):
        parse_data(
            {
                "kind": "graph",
                "vertices": ["a", "b"],
                "adjacency": [[0, 1], [0, 0]],
            }
        )


def test_invalid_ring_fails_validation():
    doc = data_to_json(su2_modular_data(2).ring)
    doc["dual"] = [0, 2, 1]
    with pytest.raises(ValidationFailed) as info:
        parse_data(doc)
    assert info.value.verdict is not None
    assert not info.value.verdict.ok


def test_invalid_modular_data_fails_validation():
    doc = data_to_json(su2_modular_data(2))
    doc["S"][0][1], doc["S"][1][0] = doc["S"][1][0], cyclo_to_json(rat(9))
    with pytest.raises(ValidationFailed) as info:
        parse_data(doc)
    assert info.value.verdict.first_failure.name == "symmetry"


def test_gauge_structural_validation_at_load():
    doc = data_to_json(sample_gauge())
    doc["mu"] = [t for t in doc["mu"] if (t[0], t[1]) != (1, 0)]
    with pytest.raises(MissingPair):
        parse_data(doc)


def test_gauge_value_failures_load_fine():
    # a broken cocycle is a solve-time verdict, not a load error
    doc = data_to_json(sample_gauge())
    for t in doc["mu"]:
        if (t[0], t[1]) == (0, 1):
            t[2] = cyclo_to_json(rat(99))
    gp = parse_data(doc)
    assert isinstance(gp, GaugeProblem)


def test_gauge_load_checks_pairs_without_field_products(monkeypatch):
    def without(*pairs):
        doc = data_to_json(sample_gauge())
        doc["mu"] = [t for t in doc["mu"] if (t[0], t[1]) not in pairs]
        return doc

    want, whole = sample_gauge(), data_to_json(sample_gauge())
    cases = [
        (without((1, 1)), "missing reflexive pair (1,1)"),
        (without((1, 0)), "pair (0,1) present but (1,0) missing"),
        (without((0, 2), (2, 0)), "pairs (0,1), (1,2) present but (0,2) missing"),
    ]
    calls = []
    product = CycloNumber.__mul__
    monkeypatch.setattr(CycloNumber, "__mul__", lambda a, b: calls.append(1) or product(a, b))
    assert parse_data(whole) == want
    for doc, message in cases:
        with pytest.raises(MissingPair) as info:
            parse_data(doc)
        assert str(info.value) == message
    assert calls == []


def test_gauge_component_over_the_field_budget_is_refused_at_load(monkeypatch):
    # each value is within the budget, but the triangle (0,1,2) multiplies
    # zeta_181 by zeta_191, which lives in Q(zeta_34571)
    mu = {(i, j): rat(1) for i in range(3) for j in range(3)}
    mu[(0, 1)], mu[(1, 0)] = zeta(181), zeta(181, 180)
    mu[(1, 2)], mu[(2, 1)] = zeta(191), zeta(191, 190)
    mu[(3, 3)] = rat(1)
    # written directly: the GaugeProblem constructor refuses it too
    doc = {
        "kind": "gauge",
        "nodes": ["a", "b", "c", "d"],
        "mu": [[i, j, cyclo_to_json(x)] for (i, j), x in sorted(mu.items())],
    }
    calls = []
    product = CycloNumber.__mul__
    monkeypatch.setattr(CycloNumber, "__mul__", lambda a, b: calls.append(1) or product(a, b))
    with pytest.raises(SchemaError) as info:
        parse_data(doc)
    assert str(info.value) == "gauge: field order 34571 exceeds the budget of 32768"
    assert calls == []


@pytest.mark.parametrize(
    "adjacency, family, message",
    [
        ([[0, True], [True, 0]], "custom", "graph.adjacency: expected an integer, got True"),
        ([[0, -1], [-1, 0]], "custom", "graph: adjacency[0][1] must be a non-negative integer"),
        ([[0, 1], [0, 0]], "custom", "graph: adjacency must be symmetric, differs at (0,1)"),
        ([[0, 1], [1, 0]], "A:3", "graph: adjacency does not match the A:3 Dynkin graph"),
    ],
)
def test_graph_file_refusals_keep_their_text(adjacency, family, message):
    doc = {"kind": "graph", "vertices": ["a", "b"], "adjacency": adjacency, "family": family}
    with pytest.raises(SchemaError) as info:
        parse_data(doc)
    assert str(info.value) == message


def test_graph_file_without_vertices_refused():
    with pytest.raises(SchemaError) as info:
        parse_data({"kind": "graph", "vertices": [], "adjacency": []})
    assert str(info.value) == "graph: a boundary graph needs at least one vertex"


def test_gauge_duplicate_pair_rejected():
    doc = data_to_json(sample_gauge())
    doc["mu"].append(doc["mu"][0])
    with pytest.raises(SchemaError):
        parse_data(doc)


def test_graph_family_tag_survives():
    g = d_graph(5)
    doc = data_to_json(g)
    assert doc["family"] == "D:5"
    assert parse_data(doc).family == "D:5"


def test_invariant_partial_entries_round_trip():
    Z = InvariantMatrix.from_rows(
        [[1, None, 0], [None, 2, None], [0, None, 1]],
        provenance="diagonal-built",
    )
    back = parse_data(data_to_json(Z))
    assert back == Z
    assert back.provenance == "diagonal-built"


# -- fuzzing: mutated documents fail only with the loader's own errors ------

_FUZZ_DOCS = [
    data_to_json(obj)
    for obj in (
        su2_modular_data(3),
        load_catalog("fibonacci"),
        load_catalog("zn:3"),
        su2_modular_data(2).ring,
        *all_kinds()[2:],
    )
]

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([2**63, -(2**63) - 1, 2**70])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutate(data, doc):
    """One random edit at one random place in a copy of a JSON document:
    replace a value, drop a key or an element, or repeat an element."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["replace", "drop", "repeat"]))
        if action == "replace":
            node[key] = data.draw(_JSON_VALUES)
        elif action == "drop":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, node[key])
        return doc


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_documents_fail_only_with_loader_errors(data):
    doc = data.draw(st.sampled_from(_FUZZ_DOCS))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    try:
        parse_data(doc)
    except (SchemaError, MissingPair, ValidationFailed):
        pass
