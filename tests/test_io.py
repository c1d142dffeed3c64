"""File format: exact serialization, validation on load, and schema errors
that name the offending key."""

import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import scalar_s_tensor

from fuselab import cyclo
from fuselab.cyclo import MAX_FIELD_ORDER, CycloNumber, FieldTensor, zeta
from fuselab.errors import MissingPair, SchemaError, ValidationFailed
from fuselab.gauge import GaugeProblem
from fuselab.invariants import InvariantMatrix
from fuselab.io import (
    _s_groups,
    cyclo_from_json,
    cyclo_to_json,
    data_to_json,
    dumps_data,
    parse_data,
    parse_data_file,
    write_data_file,
)
from fuselab.modular import catalog_names, fibonacci_modular_data, load_catalog, su2_modular_data
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


# -- the encoded bytes and the direct decode --------------------------------

# sha256 of dumps_data(load_catalog(name)): the file format is part of the contract
_CATALOG_DIGESTS = {
    "su2:0": "d7db8866f1641801ff7c63b1f050bdaecc07d8606aacfd64e3fe5c809c303d1d",
    "su2:1": "60b5086b175f47c1bdb0dfff2c7a569e698c6d201354b95e7794c017cd5591f6",
    "su2:2": "8ae09c477c32f5e9d5df076d0d8b03d7e4999a6326ad21301d8cacbbe1ecebdf",
    "su2:3": "427d1e44b2499784eae249804c5700aa91538abe982b1cb46f7496038b4f44c5",
    "su2:4": "88a7fdaae0ab68ef0ff727cb17220506edd72086b97bda059fb424ab1b05656a",
    "su2:5": "8f007938f8ccdce1466addd1172d2b4d33d688fd6b76a9116b543a1a6465edab",
    "su2:6": "fb120acfa01d6fdf8c93c4108b9c32d54c432a1aa703a057275520c9d5d3948c",
    "su2:7": "f89d089a57c0076a54d52ad546118b6309780aec9cc32288dc45840d05fa523d",
    "su2:8": "293832e2cc4f63a2a260b90aa3dd88aa77de61855322beac18afecd60c8d8684",
    "su2:9": "d7ef298a813df15d24f804d451d4581eaaf239c88bec444d3fa587b0b045a5eb",
    "su2:10": "fe72303ee099f97f78f1f546b2e8a0d327d719ecdec5465685af1f59aa57813c",
    "su2:11": "72669c401fb0eb1f19a54e75c4372454d4970029d1fe785ecf3a7d151655e36d",
    "su2:12": "96e5e0a191924c90fdbc397386f579a40335f60446ce32ede3879d08befaae5e",
    "su2:13": "0150eff44dd39176cb911473d3322320254f003fa50df9dc66efc030f510d908",
    "su2:14": "ab8a6a1aaeda0940d375a3a8acd371d7a903fcc7281f366344c4a913be8aa214",
    "su2:15": "0e32ca49cd3e6e7ca1c4cff0e3a6d1cfa4f87eca2fa8b68dd636c939b29cc50a",
    "su2:16": "8a4ebeb75d62155274eabf32372e5576e0e14e2e9b987945ef3a1b972145a8ab",
    "su2:17": "c4ec808b8090ea856718ffc69cf4df330469137b5ef0c6fb683a46d1e8918da6",
    "su2:18": "9aee23e9099b1d37f989fc39f9ada801a445fc938e4a3eb29863e42e9e9368bb",
    "su2:19": "0cafa3ea1efd4fe74ed4128350c177f98bfa51a895a5034208a7e60fec388c0d",
    "su2:20": "e0f0b26adcc33725dfe4d2a1c0b63a4d934588ebaaa50af95dfa20687b1020ea",
    "su2:21": "c4c7f2bbe35500650329f71e394a8c95345eb366a535dc6b7fd9a480ebc12cb6",
    "su2:22": "09b145b257196539cc0404f149091b7f320a925752590da29a6d958e34f11938",
    "su2:23": "e054073cfab9a630e842b715765752b6a8895a6416e98e66801b6a86d568e8f9",
    "su2:24": "46e069b033e13777643d21cc044ce8276c2607a293d1954ac9d63d666ac6c9ea",
    "su2:25": "f84b2d538379f81d0d0f20ddedb9c68f3ccfeececa673a2ff43efba7bc0d4353",
    "su2:26": "e27bbd951a44e4e24a3e6936208ea535ee3513055eb15bba270cffaaef0dc38c",
    "su2:27": "27eef5bc9570c6cdabb4144d5523697165c44944bf06680204f92fdd64059d63",
    "su2:28": "d8a012c1f3028311a7ea48fc99ce7cb5e678400d101f8b174e538fddf62a56a5",
    "fibonacci": "c56167f0d55a97394d7eada5d0b9e1012ab95c1ca0ca919d52f20e5d019bed11",
    "ising": "05b973ba66e922a2d55caa68558e357945782b35f3992b822c5b03dd29195502",
    "zn:1": "5dfdb730f4c72c2ef39dba702592d233261add81c3e82e3e3bf2c2675e154c23",
    "zn:2": "c2e2eab87acd8f0d8da119a6b2b29782eb2e18b64c72f19a3083b3f68a18243f",
    "zn:3": "8dea3d4a68a735074015efdf689f7d18b4ab3f6fd6fced42f799ebbf6eb556ee",
    "zn:4": "a6487ae93d55e4e4cb77a089c194619a655c23205fac9592655d77c6a5cce22a",
    "zn:5": "3658900319352e59f446475a6cdad0f810ff673cc0f8c60be404fa7012cef3cc",
    "zn:6": "311eab2152773adaacbd9c506286612cca4f4c268dfda53029f5578de896b572",
    "zn:7": "3f6f9991134ea8c0e40be915280bc4c3b9ac0d7412ffd61cf741a38dab352ed1",
    "zn:8": "1f3dd8a2faceabe8535e76b81886e9539709f4384a373050fba68d42bbda69f8",
}


def test_catalog_files_keep_their_bytes():
    assert set(_CATALOG_DIGESTS) == set(catalog_names())
    for name, want in _CATALOG_DIGESTS.items():
        assert hashlib.sha256(dumps_data(load_catalog(name)).encode()).hexdigest() == want, name


def _spelled(x, rng):
    """An S entry's JSON, the same number spelled another way: at a multiple
    of its order, each fraction unreduced by a random factor with a random
    sign on both parts, and explicit zeros over denominators 1, 2 or -3."""
    m = rng.choice([1, 1, 2, 3])
    coeffs = [[0, rng.choice([1, 2, -3])] for _ in range(x["order"] * m)]
    for e, (num, den) in enumerate(x["coeffs"]):
        k = rng.choice([1, -1, 2, -5])
        coeffs[e * m] = [k * num, k * den]
    return {"order": x["order"] * m, "coeffs": coeffs}


def _decoded(S_raw):
    r = len(S_raw)
    return FieldTensor.decode((r, r), _s_groups(S_raw))


def _same_tensor(a, b):
    return (a.order, a.den, a.exps.tolist(), a.layers.tolist()) == (
        b.order, b.den, b.exps.tolist(), b.layers.tolist()
    )


def test_direct_decode_matches_the_scalar_route_on_respelled_catalog_data():
    rng = random.Random(2604)
    names = [name for name in catalog_names() if load_catalog(name).rank <= 18]
    assert len(names) == 28
    for name in names:
        source = load_catalog(name)
        for _ in range(2):
            doc = json.loads(json.dumps(data_to_json(source)))
            doc["S"] = [[_spelled(x, rng) for x in row] for row in doc["S"]]
            assert _same_tensor(_decoded(doc["S"]), scalar_s_tensor(doc["S"])), name
            md = parse_data(doc)
            assert _same_tensor(md.tensor, source.tensor), name
            assert md == source and hash(md) == hash(source), name


def _random_entry(rng):
    n = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20])
    big = rng.choice([1, 1, 1, 2**40, 2**70])
    coeffs = [[0, 1] for _ in range(n)]
    for e in rng.sample(range(n), rng.randint(0, n)):
        coeffs[e] = [rng.randint(-4, 4) * big, rng.choice([1, 2, 3, 4, -6, 2**65 + 1])]
    return {"order": n, "coeffs": coeffs}


def test_direct_decode_matches_the_scalar_route_on_random_entries():
    # any S of mixed orders, zeros, rationals, unreduced and negative
    # denominators and Python-int coefficients, not modular data
    rng = random.Random(2605)
    for _ in range(150):
        r = rng.randint(1, 5)
        S_raw = [[_random_entry(rng) for _ in range(r)] for _ in range(r)]
        assert _same_tensor(_decoded(S_raw), scalar_s_tensor(S_raw)), S_raw


def test_entries_declared_at_coprime_orders_decode_at_their_least_orders(monkeypatch):
    # 1 at order 181 and -1 = zeta_182^91 at order 182: lcm 32,942 is over the
    # budget, but both are rational, so the datum is catalog fibonacci's
    doc = data_to_json(fibonacci_modular_data())
    minus = [[0, 1] for _ in range(182)]
    minus[91] = [1, 1]
    doc["S"][0][0] = {"order": 181, "coeffs": [[1, 1]] + [[0, 1]] * 180}
    doc["S"][1][1] = {"order": 182, "coeffs": minus}
    orders = []
    reduced = cyclo._reduced
    monkeypatch.setattr(cyclo, "_reduced", lambda n, *args: orders.append(n) or reduced(n, *args))
    md = parse_data(doc)
    assert md == fibonacci_modular_data() and hash(md) == hash(fibonacci_modular_data())
    assert max(orders) == 182
    assert _same_tensor(md.tensor, scalar_s_tensor(doc["S"]))


def test_over_budget_orders_are_refused_before_any_array_of_that_order(monkeypatch):
    # zeta_101, zeta_103 and zeta_107 have the common order 1,113,121
    doc = data_to_json(fibonacci_modular_data())
    for (i, j), n in zip(((0, 1), (1, 0), (1, 1)), (101, 103, 107)):
        coeffs = [[0, 1] for _ in range(n)]
        coeffs[1] = [1, 1]
        doc["S"][i][j] = {"order": n, "coeffs": coeffs}
    orders = []
    reduced = cyclo._reduced
    monkeypatch.setattr(cyclo, "_reduced", lambda n, *args: orders.append(n) or reduced(n, *args))
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError) as info:
            parse_data(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "modular-data: field order 1113121 exceeds the budget of 32768"
    assert max(orders) <= MAX_FIELD_ORDER and max(orders) == 107
    assert peak < 2**22  # one int64 array of that order for these 4 entries is 35 MB


def test_a_refused_file_leaves_no_tables_of_its_order(monkeypatch):
    # 3 * 5 * 7 * 13 * 23 = 31,395: its table holds 405,504 entries, past the
    # budget of the kept ones, so it is built for the file and dropped: once
    # per reduction at that order (4) and once for the witness's scalars
    n, built = 31395, []
    build = cyclo._tables.build
    monkeypatch.setattr(cyclo._tables, "build", lambda m: built.append(m) or build(m))
    doc = data_to_json(fibonacci_modular_data())
    coeffs = [[0, 1] for _ in range(n)]
    coeffs[1] = [1, 1]
    doc["S"][1][1] = {"order": n, "coeffs": coeffs}
    with pytest.raises(ValidationFailed, match="^modular-data fails s-squared"):
        parse_data(doc)
    assert built.count(n) <= 5
    assert len(cyclo._tables(n)[2][0]) > cyclo._KEPT_TERMS
    assert n not in cyclo._tables and sum(cyclo._tables.sizes.values()) <= cyclo._KEPT_TERMS
