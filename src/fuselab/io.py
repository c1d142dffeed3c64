"""Exact JSON serialization of the five data kinds, and parsing with
validation on load.

Every file is a UTF-8 JSON document with a top-level "kind" in
{fusion-ring, modular-data, graph, gauge, invariant}. Scalars are stored
exactly: a cyclotomic number as {"order": n, "coeffs": [[num, den], ...]}
(dense over exponents 0..n-1), a T-phase as a [num, den] pair. No decimal
floats anywhere, so serialize -> parse is the identity.

A modular-data file's S goes straight into md.tensor (FieldTensor.decode)
and a ring's N into ring.tensor, with no CycloNumber or nested tuple made;
an entry is decoded one by one only to name the first bad one.

Loading is never silent about bad data: structural problems (wrong shapes,
bad keys, an asymmetric adjacency, a non-closed pair set) raise SchemaError
or MissingPair; mathematically invalid fusion rings and modular data raise
ValidationFailed carrying the failing Verdict. A gauge file becomes a
GaugeProblem, whose constructor holds a closed pair set (MissingPair) and
values that share one field within the budget per component, with no field
arithmetic; its value identities are deliberately left to solve-time so the
CLI can report the witness triangle as a check result rather than a load
crash.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import itemgetter

import numpy as np

from .cyclo import MAX_FIELD_ORDER, CycloNumber, FieldTensor, RationalPhase
from .errors import SchemaError, ShapeMismatch, ValidationFailed
from .fusion import FusionRing, _int_table, verify_axioms
from .gauge import GaugeProblem
from .invariants import InvariantMatrix
from .modular import ModularData, _check_shapes, verify_modular_data
from .nimrep import BoundaryGraph

KINDS = ("fusion-ring", "modular-data", "graph", "gauge", "invariant")


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    return doc[key]


def _int(x, where: str) -> int:
    """x if it is an integer, never a bool. Hot loops take type(x) is int
    first and call this only otherwise, so where is formatted only for an
    entry that may fail."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{where}: expected an integer, got {x!r}")
    return x


def _str_list(x, where: str) -> tuple[str, ...]:
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise SchemaError(f"{where}: expected a list of strings")
    return tuple(x)


def cyclo_to_json(x: CycloNumber) -> dict:
    """Dense [num, den] pairs in lowest terms, read off the canonical integer
    numerators and their common denominator."""
    den = x._den
    pairs = [[0, 1] for _ in range(x.order)]
    for e, c in x._num.items():
        g = gcd(c, den)
        pairs[e] = [c // g, den // g]
    return {"order": x.order, "coeffs": pairs}


def cyclo_from_json(obj, where: str) -> CycloNumber:
    order = _int(_require(obj, "order", where), f"{where}.order")
    if order < 1:
        raise SchemaError(f"{where}.order: must be positive")
    if order > MAX_FIELD_ORDER:
        raise SchemaError(f"{where}.order: {order} exceeds the budget of {MAX_FIELD_ORDER}")
    coeffs = _require(obj, "coeffs", where)
    if not isinstance(coeffs, list) or len(coeffs) != order:
        raise SchemaError(f"{where}.coeffs: expected {order} [num, den] pairs")
    terms = []
    common = 1
    for k, pair in enumerate(coeffs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}.coeffs[{k}]: expected a [num, den] pair")
        num, den = pair
        if type(num) is not int:
            num = _int(num, f"{where}.coeffs[{k}][0]")
        if type(den) is not int:
            den = _int(den, f"{where}.coeffs[{k}][1]")
        if den == 0:
            raise SchemaError(f"{where}.coeffs[{k}]: zero denominator")
        if num:
            terms.append((k, num, den))
            common = lcm(common, den)
    # common is positive, so a negative den flips the sign of its numerator
    return CycloNumber._raw(order, {k: num * (common // den) for k, num, den in terms}, common)


def _s_groups(S_raw: list) -> list:
    """S's entries in row-major order as FieldTensor.decode's groups, after
    cyclo_from_json's checks as C-level passes over the flattened lists.
    Only when one fails is S walked entry by entry: cyclo_from_json raises
    the first bad entry's error with its field path, and entries that pass
    (subclasses of dict, list or int) are written as plain JSON again."""
    entries = list(chain.from_iterable(S_raw))
    ok = set(map(type, entries)) <= {dict}
    if ok:
        try:
            orders, coeffs = (list(map(itemgetter(key), entries)) for key in ("order", "coeffs"))
        except KeyError:
            ok = False
    ok = (
        ok
        and set(map(type, orders)) <= {int}
        and 1 <= min(orders, default=1)
        and max(orders, default=1) <= MAX_FIELD_ORDER
        and set(map(type, coeffs)) <= {list}
        and list(map(len, coeffs)) == orders
    )
    if ok:
        pairs = list(chain.from_iterable(coeffs))
        ok = set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
    if ok:
        ok = set(map(type, chain.from_iterable(pairs))) <= {int}
    if ok:
        try:
            values = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
        except OverflowError:  # an entry past int64: Python ints
            values = np.array(list(chain.from_iterable(pairs)), dtype=object)
        num, den = values[0::2], values[1::2]
        ok = den.all()
    if not ok:
        where = "modular-data.S[{}][{}]".format
        return _s_groups([
            [cyclo_to_json(cyclo_from_json(x, where(i, j))) for j, x in enumerate(row)]
            for i, row in enumerate(S_raw)
        ])
    declared = np.array(orders, dtype=np.int64)
    starts = np.cumsum(declared) - declared  # each entry's first pair
    groups = []
    for n in sorted(set(orders)):
        at = np.flatnonzero(declared == n)
        pair = starts[at, None] + np.arange(n)
        groups.append((n, at, num[pair], den[pair]))
    return groups


def phase_to_json(t: RationalPhase) -> list[int]:
    return [t.value.numerator, t.value.denominator]


def phase_from_json(obj, where: str) -> Fraction:
    if not isinstance(obj, list) or len(obj) != 2:
        raise SchemaError(f"{where}: expected a [num, den] pair")
    num, den = obj
    if type(num) is not int:
        num = _int(num, f"{where}[0]")
    if type(den) is not int:
        den = _int(den, f"{where}[1]")
    if den == 0:
        raise SchemaError(f"{where}: zero denominator")
    return Fraction(num, den)


def _ring_fields(ring: FusionRing) -> dict:
    return {
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "N": ring.tensor.tolist(),
    }


def _ring_from_fields(doc: dict, where: str) -> FusionRing:
    """The ring of a document's fields. N goes straight into ring.tensor;
    only when it is not r planes of r rows of r integers is it walked entry
    by entry, to raise the first bad entry's or shape's error."""
    labels = _str_list(_require(doc, "labels", where), f"{where}.labels")
    dual_raw = _require(doc, "dual", where)
    if not isinstance(dual_raw, list):
        raise SchemaError(f"{where}.dual: expected a list")
    dual = tuple(
        x if type(x) is int else _int(x, f"{where}.dual[{k}]") for k, x in enumerate(dual_raw)
    )
    N_raw = _require(doc, "N", where)
    try:
        N = _int_table(N_raw, len(labels))
        if N is None:
            N = tuple(
                tuple(
                    tuple(x if type(x) is int else _int(x, f"{where}.N") for x in row)
                    for row in plane
                )
                for plane in N_raw
            )
        ring = FusionRing(labels=labels, dual=dual, N=N)
    except (TypeError, ShapeMismatch) as err:
        raise SchemaError(f"{where}: {err}") from None
    return ring


def _validated(kind: str, obj, verify):
    """obj once verify(obj) passes; ValidationFailed naming kind and the first failure otherwise."""
    if not (v := verify(obj)).ok:
        bad = v.first_failure
        raise ValidationFailed(f"{kind} fails {bad.name}: {bad.witness}", v)
    return obj


def data_to_json(obj) -> dict:
    """Serialize any of the five data kinds to a JSON document."""
    if isinstance(obj, FusionRing):
        return {"kind": "fusion-ring", **_ring_fields(obj)}
    if isinstance(obj, ModularData):
        return {
            "kind": "modular-data",
            "ring": _ring_fields(obj.ring),
            "S": [[cyclo_to_json(x) for x in row] for row in obj.S],
            "t": [phase_to_json(t) for t in obj.t],
        }
    if isinstance(obj, BoundaryGraph):
        return {
            "kind": "graph",
            "vertices": list(obj.vertices),
            "adjacency": [list(row) for row in obj.adjacency],
            "family": obj.family,
        }
    if isinstance(obj, GaugeProblem):
        return {
            "kind": "gauge",
            "nodes": list(obj.nodes),
            "mu": [
                [i, j, cyclo_to_json(value)]
                for (i, j), value in zip(obj.pairs, obj.mu)
            ],
        }
    if isinstance(obj, InvariantMatrix):
        return {
            "kind": "invariant",
            "Z": [list(row) for row in obj.entries],
            "provenance": obj.provenance,
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_data(doc):
    """Typed object from a JSON document; validates on load."""
    kind = _require(doc, "kind", "document")
    if kind == "fusion-ring":
        return _validated("fusion-ring", _ring_from_fields(doc, "fusion-ring"), verify_axioms)
    if kind == "modular-data":
        ring = _ring_from_fields(_require(doc, "ring", "modular-data"), "modular-data.ring")
        ring = _validated("fusion-ring", ring, verify_axioms)
        S_raw = _require(doc, "S", "modular-data")
        if not isinstance(S_raw, list) or not all(isinstance(r, list) for r in S_raw):
            raise SchemaError("modular-data.S: expected a matrix")
        groups = _s_groups(S_raw)
        t_raw = _require(doc, "t", "modular-data")
        if not isinstance(t_raw, list):
            raise SchemaError("modular-data.t: expected a list")
        t = [phase_from_json(x, f"modular-data.t[{k}]") for k, x in enumerate(t_raw)]
        r = ring.rank
        try:
            _check_shapes(r, S_raw, t)
            md = ModularData(ring, FieldTensor.decode((r, r), groups), t)
        except ShapeMismatch as err:
            raise SchemaError(f"modular-data: {err}") from None
        return _validated("modular-data", md, verify_modular_data)
    if kind == "graph":
        vertices = _str_list(_require(doc, "vertices", "graph"), "graph.vertices")
        adjacency_raw = _require(doc, "adjacency", "graph")
        family = doc.get("family", "custom")
        if not isinstance(family, str):
            raise SchemaError("graph.family: expected a string")
        try:
            adjacency = tuple(
                tuple(_int(x, "graph.adjacency") for x in row) for row in adjacency_raw
            )
            return BoundaryGraph(vertices=vertices, adjacency=adjacency, family=family)
        except (TypeError, ShapeMismatch) as err:
            raise SchemaError(f"graph: {err}") from None
    if kind == "gauge":
        nodes = _str_list(_require(doc, "nodes", "gauge"), "gauge.nodes")
        mu_raw = _require(doc, "mu", "gauge")
        if not isinstance(mu_raw, list):
            raise SchemaError("gauge.mu: expected a list of [i, j, value] triples")
        mu_map = {}
        for k, triple in enumerate(mu_raw):
            if not isinstance(triple, list) or len(triple) != 3:
                raise SchemaError(f"gauge.mu[{k}]: expected an [i, j, value] triple")
            i = _int(triple[0], f"gauge.mu[{k}][0]")
            j = _int(triple[1], f"gauge.mu[{k}][1]")
            if (i, j) in mu_map:
                raise SchemaError(f"gauge.mu[{k}]: duplicate pair ({i},{j})")
            mu_map[(i, j)] = cyclo_from_json(triple[2], f"gauge.mu[{k}][2]")
        try:
            return GaugeProblem.build(nodes, mu_map)
        except ShapeMismatch as err:
            raise SchemaError(f"gauge: {err}") from None
    if kind == "invariant":
        Z_raw = _require(doc, "Z", "invariant")
        provenance = doc.get("provenance", "user")
        if not isinstance(Z_raw, list):
            raise SchemaError("invariant.Z: expected a matrix")
        rows = []
        for i, row in enumerate(Z_raw):
            if not isinstance(row, list):
                raise SchemaError(f"invariant.Z[{i}]: expected a list")
            rows.append(
                tuple(
                    None if x is None else _int(x, f"invariant.Z[{i}][{j}]")
                    for j, x in enumerate(row)
                )
            )
        try:
            return InvariantMatrix(entries=tuple(rows), provenance=provenance)
        except ShapeMismatch as err:
            raise SchemaError(f"invariant: {err}") from None
    raise SchemaError(f"document: unknown kind {kind!r}")


def dumps_data(obj) -> str:
    return json.dumps(data_to_json(obj), sort_keys=True, indent=2) + "\n"


def write_data_file(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_data(obj))


def parse_data_file(path):
    """Load and validate one data file; schema errors carry line/field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"{path}: line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to parse") from None
    return parse_data(doc)
