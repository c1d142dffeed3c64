"""Op lists for the three benchmark workloads, and the oracle for each op.

An op list is a pure function of (workload, seed, size). The mix of op
shapes (catalog entries, levels, graph tags, clique sizes) is fixed per
workload and size, so every seed asks for the same amount of work; the seed
decides the order of the ops and their numeric details (corruption
coordinates, gauge scalars). Where ops share caches (the documents of one
catalog entry, the jobs at one level), the op that fills them stays in a
fixed place and the seed places the others after it: fuselab's scalar
caches are shared between entries and levels, so moving the filling ops
would move their cost from seed to seed.

Ops call fuselab through module attributes (``modular.load_catalog``, not a
name imported from it), so the tracer's wrappers see the calls the
benchmark makes as well as the calls fuselab makes internally.

Every op has an oracle, run outside the timed region, that returns a status
and a digest of the outcome:

* ``ok``: the outcome is the correct one;
* ``fail``: the outcome is wrong or missing;
* ``gap``: a corrupted document with every T-phase set to 0 was accepted.
  fuselab never checks T (ROADMAP item 4). Such an op counts as failed,
  but it is a known defect, so it does not make the run incorrect.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from fuselab import cli, gauge, invariants, modular, nimrep
from fuselab import io as fio
from fuselab.cyclo import ONE, CycloNumber, zeta
from fuselab.errors import GaugeInconsistent, ValidationFailed

WORKLOADS = ("catalog-ingest", "boundary-search", "module-stream")
SIZES = ("full", "tiny")

OK, FAIL, GAP = "ok", "fail", "gap"


@dataclass
class Op:
    """One request: ``run`` is timed, ``check(result, error)`` is not."""

    label: str  # the op's shape; seed-independent, so labels describe the mix
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], tuple[str, str]]


def make_ops(workload: str, seed: int, size: str = "full") -> tuple[list[Op], dict]:
    """The op list and a stats dict that ops update while they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{workload}/{seed}")
    stats = {"parse_bytes": 0}
    build = {
        "catalog-ingest": _catalog_ops,
        "boundary-search": _boundary_ops,
        "module-stream": _module_ops,
    }[workload]
    return build(rng, size, stats), stats


def _unexpected(error: BaseException) -> tuple[str, str]:
    return FAIL, f"raised {type(error).__name__}: {error}"


# -- catalog-ingest --------------------------------------------------------

# One op per (catalog id, corruption) pair per round. The entries span ranks
# 2 to 18; the largest ones are mostly the O(rank^5) associativity loop of
# verify_axioms. Ranks above 18 are left out: su2:28 alone takes seconds,
# which is too long to time it often enough in one run.
_CATALOG_CLEAN = (
    ("fibonacci", "ising", "zn:2", "zn:3", "zn:4", "zn:5", "zn:6", "zn:7", "zn:8")
    + tuple(f"su2:{k}" for k in range(1, 13))
    + ("su2:15",)
)
# N flips need rank >= 3; S pairs need self-dual data of rank >= 3 so that
# the first failing check is s-squared; zeroed T needs some nonzero phase.
_CATALOG_CORRUPT = {
    "flip-N": ("ising", "zn:6", "su2:5", "su2:9", "su2:13", "su2:17"),
    "S-pair": ("su2:2", "su2:4", "su2:6", "su2:8", "su2:11", "su2:14"),
    "t-zero": ("zn:3", "zn:8", "su2:3", "su2:7", "su2:10", "su2:13"),
}
_CATALOG_TINY_CLEAN = ("fibonacci", "zn:4", "su2:3")
_CATALOG_TINY_CORRUPT = {"flip-N": ("ising",), "S-pair": ("su2:4",), "t-zero": ("su2:2",)}

# how the ValidationFailed message of each corruption must begin
_EXPECTED_REJECTION = {
    "flip-N": "fusion-ring fails ",
    "S-pair": "modular-data fails s-squared",
    "t-zero": "modular-data fails ",
}


def _catalog_ops(rng: random.Random, size: str, stats: dict) -> list[Op]:
    clean = _CATALOG_CLEAN if size == "full" else _CATALOG_TINY_CLEAN
    corrupt = _CATALOG_CORRUPT if size == "full" else _CATALOG_TINY_CORRUPT
    by_entry: dict[str, list[Op]] = {}
    for name in clean:
        by_entry.setdefault(name, []).append(_ingest_op(name, "clean", None, stats))
    for kind, names in corrupt.items():
        for name in names:
            by_entry.setdefault(name, []).append(_ingest_op(name, kind, rng.random(), stats))
    return _place(list(by_entry.values()), rng)


def _place(groups: list[list[Op]], rng: random.Random) -> list[Op]:
    """The first op of each group in the given order; the seed puts each
    other op at a random place after the first op of its group."""
    ops = [group[0] for group in groups]
    for group in groups:
        for op in group[1:]:
            first = next(i for i, o in enumerate(ops) if o is group[0])
            ops.insert(rng.randint(first + 1, len(ops)), op)
    return ops


def _corrupt(doc: dict, kind: str, u: float) -> None:
    """Damage a modular-data document in place; ``u`` in [0, 1) picks where."""
    r = len(doc["t"])
    if kind == "t-zero":
        doc["t"] = [[0, 1] for _ in range(r)]
        return
    if kind == "flip-N":
        # N[1][2][c] with c != 0 leaves the unit and duality rows intact and
        # breaks associativity in the first blocks the loop visits, so the
        # flip fails early whatever the seed
        c = 1 + int(u * (r - 1))
        plane = doc["ring"]["N"]
        plane[1][2][c] = 1 - plane[1][2][c]
        return
    # S-pair: add 1 to S[a][b] and S[b][a] (a != b, both nonzero), keeping S
    # symmetric and the dimension row intact
    pairs = [(a, b) for a in range(1, r) for b in range(1, r) if a != b]
    a, b = pairs[int(u * len(pairs))]
    for i, j in ((a, b), (b, a)):
        coeffs = doc["S"][i][j]["coeffs"]
        num, den = coeffs[0]
        coeffs[0] = [num + den, den]


def _ingest_op(name: str, kind: str, u: float | None, stats: dict) -> Op:
    def run():
        source = modular.load_catalog(name)
        doc = fio.data_to_json(source)
        if kind != "clean":
            _corrupt(doc, kind, u)
        text = json.dumps(doc)
        stats["parse_bytes"] += len(text)
        md = fio.parse_data(json.loads(text))
        points = modular.spectrum(md)
        family = modular.idempotent_family(md)
        pairs = [
            (modular.tube_idempotent(md, label), modular.spectral_idempotent(md, points[label]))
            for label in range(md.rank)
        ]
        return source, md, family, pairs

    def check(result, error):
        if kind == "clean":
            if error is not None:
                return _unexpected(error)
            source, md, family, pairs = result
            if md != source:
                return FAIL, "parsed data differs from its source"
            if len(family) != md.rank:
                return FAIL, "idempotent family has the wrong length"
            bad = [label for label, (tube, spec) in enumerate(pairs) if tube != spec]
            if bad:
                return FAIL, f"tube != spectral at labels {bad}"
            return OK, "accepted"
        if error is None:
            if kind == "t-zero":
                return GAP, "accepted all-zero t"
            return FAIL, "corrupted document accepted"
        if not isinstance(error, ValidationFailed):
            return _unexpected(error)
        message = str(error)
        if not message.startswith(_EXPECTED_REJECTION[kind]):
            return FAIL, f"rejected by the wrong check: {message}"
        return OK, f"rejected: {message}"

    return Op(f"ingest {name} {kind}", run, check)


# -- boundary-search -------------------------------------------------------


def boundary_cases() -> list[tuple[str, int]]:
    """All 44 connected ADE boundary graphs paired with their level."""
    cases = [(f"A:{lvl + 1}", lvl) for lvl in range(1, 29)]
    cases += [(f"D:{n}", 2 * n - 4) for n in range(4, 17)]
    cases += [("E:6", 10), ("E:7", 16), ("E:8", 28)]
    return cases


# Levels 17 to 28 are left out: their first jobs each take one to two
# seconds, too long to time them often enough in one run.
_MAX_LEVEL = 16


# su2:10 at bound 1 must contain the E6 exceptional diagonal; su2:16 is
# rank 17, with bounds large enough that the lattice walk is visible.
_SEARCHES = ((10, 1), (16, 8), (16, 12))
_TINY_CASES = (("A:3", 2), ("D:4", 4), ("E:6", 10))
_TINY_SEARCHES = ((10, 1), (4, 2))


def eigen_oracle_profile(adjacency, level: int) -> tuple[int, ...]:
    """Float route to the multiplicity profile: adjacency eigenvalues matched
    to 2 cos(pi (I+1) / (level+2)) within 1e-9, then counted exactly."""
    h = level + 2
    eigs = np.linalg.eigvalsh(np.array(adjacency, dtype=float))
    targets = [2.0 * math.cos(math.pi * (i + 1) / h) for i in range(level + 1)]
    counts = [0] * (level + 1)
    for ev in eigs:
        hits = [i for i, t in enumerate(targets) if abs(ev - t) < 1e-9]
        if len(hits) != 1:
            raise ValueError(f"eigenvalue {ev} matched targets {hits}")
        counts[hits[0]] += 1
    return tuple(counts)


def _su2_float_s(level: int) -> np.ndarray:
    h = level + 2
    idx = np.arange(1, level + 2)
    return np.sin(np.pi * np.outer(idx, idx) / h) / math.sin(math.pi / h)


def _su2_twists(level: int) -> list[Fraction]:
    h = level + 2
    return [
        (Fraction(a * (a + 2), 4 * h) - Fraction(level, 8 * h)) % 1 for a in range(level + 1)
    ]


def _boundary_ops(rng: random.Random, size: str, stats: dict) -> list[Op]:
    if size == "full":
        cases = [(tag, lvl) for tag, lvl in boundary_cases() if lvl <= _MAX_LEVEL]
    else:
        cases = _TINY_CASES
    searches = _SEARCHES if size == "full" else _TINY_SEARCHES
    by_level: dict[int, list[Op]] = {}
    for tag, lvl in cases:
        by_level.setdefault(lvl, []).append(_diag_op(tag, lvl))
    for lvl, bound in searches:
        by_level.setdefault(lvl, []).append(_search_op(lvl, bound))
    # the first job at a level pays for the catalog entry and the commutant
    return _place([by_level[lvl] for lvl in sorted(by_level)], rng)


def _cli_job(job: cli.JobSpec):
    code, report = cli.run(job)
    return code, report, cli.render_report(report, job)


def _report_problem(code: int, report: dict, text: str) -> str | None:
    if code != 0 or not report.get("ok"):
        return f"exit {code}: {report.get('error')}"
    if not all(c["passed"] for c in report["checks"]):
        return "a check failed"
    if json.loads(text) != report:
        return "structured rendering differs from the report"
    return None


def _diag_op(tag: str, lvl: int) -> Op:
    job = cli.JobSpec(command="diag-theorem", data=f"su2:{lvl}", graph=tag, fmt="structured")
    want = eigen_oracle_profile(nimrep.ade_graph(tag).adjacency, lvl)

    def check(result, error):
        if error is not None:
            return _unexpected(error)
        code, report, text = result
        problem = _report_problem(code, report, text)
        if problem:
            return FAIL, problem
        payload = report["payload"]
        if tuple(payload["profile"]) != want:
            return FAIL, f"profile {payload['profile']} != eigenvalue oracle {want}"
        if payload["matches"] < 1:
            return FAIL, "no match"
        return OK, f"profile {want} matches {payload['matches']}"

    return Op(f"diag-theorem {tag} su2:{lvl}", lambda: _cli_job(job), check)


def _search_op(lvl: int, bound: int) -> Op:
    job = cli.JobSpec(command="invariant search", data=f"su2:{lvl}", bound=bound, fmt="structured")
    S = _su2_float_s(lvl)
    t = _su2_twists(lvl)
    r = lvl + 1
    identity = [[int(i == j) for j in range(r)] for i in range(r)]
    e6 = eigen_oracle_profile(nimrep.ade_graph("E:6").adjacency, 10) if lvl == 10 else None

    def check(result, error):
        if error is not None:
            return _unexpected(error)
        code, report, text = result
        problem = _report_problem(code, report, text)
        if problem:
            return FAIL, problem
        mats = report["payload"]["matrices"]
        if report["payload"]["count"] != len(mats) or identity not in mats:
            return FAIL, "count mismatch or identity missing"
        for Z in mats:
            if Z[0][0] != 1 or any(not 0 <= x <= bound for row in Z for x in row):
                return FAIL, f"entries out of range: {Z}"
            if any(Z[i][j] and t[i] != t[j] for i in range(r) for j in range(r)):
                return FAIL, f"Z does not commute with T: {Z}"
            Zf = np.array(Z, dtype=float)
            if not np.allclose(Zf @ S, S @ Zf, rtol=0, atol=1e-8 * r * bound):
                return FAIL, f"Z does not commute with S: {Z}"
        if e6 is not None and not any(all(Z[i][i] == e6[i] for i in range(r)) for Z in mats):
            return FAIL, "E6 exceptional diagonal not found"
        return OK, f"{len(mats)} invariants"

    return Op(f"invariant search su2:{lvl} bound {bound}", lambda: _cli_job(job), check)


# -- module-stream ---------------------------------------------------------

# Op counts per round: (tm-dim reports, gauge round-trips, phi checks).
_MODULE_COUNTS = {"full": (600, 250, 200), "tiny": (12, 10, 10)}
_GAUGE_CORRUPT_EVERY = 5
# One phi check in ten is on the D:10 module at level 16. These 20 ops are
# the slowest ones after the few that fill the caches of a level, so
# op_tail_ms always reads a dense group of ops of the same shape.
_PHI_TAIL_EVERY = 10


def _stream_level(i: int, rare=(8, 10, 16)) -> int:
    """Levels 1-6, with one op in 20 at one of the ``rare`` levels."""
    if i % 20 == 10:
        return rare[(i // 20) % len(rare)]
    return 1 + i % 6


def _module_tags(lvl: int) -> list[str]:
    tags = [f"A:{lvl + 1}"]
    if lvl >= 4 and lvl % 2 == 0:
        tags.append(f"D:{(lvl + 4) // 2}")
    if lvl == 10:
        tags.append("E:6")
    if lvl == 16:
        tags.append("E:7")
    return tags


def _module_ops(rng: random.Random, size: str, stats: dict) -> list[Op]:
    n_tm, n_gauge, n_phi = _MODULE_COUNTS[size]
    mix = random.Random(f"module-stream mix/{size}")  # shapes: the same for every seed
    ops = []
    for i in range(n_tm):
        lvl = _stream_level(i)
        k = 2 + (i // 6) % 2
        tags = [mix.choice(_module_tags(lvl)) for _ in range(k)]
        ops.append(_tm_op(lvl, tags))
    monomials: dict = {}
    for i in range(n_gauge):
        ops.append(_gauge_op(mix, rng, i % _GAUGE_CORRUPT_EVERY == 0, monomials))
    for i in range(n_phi):
        if i % _PHI_TAIL_EVERY == _PHI_TAIL_EVERY // 2:
            ops.append(_phi_op(16, "D:10"))
            continue
        lvl = _stream_level(i, rare=(8, 10))
        ops.append(_phi_op(lvl, mix.choice(_module_tags(lvl))))
    rng.shuffle(ops)
    return ops


def _tm_op(lvl: int, tags: list[str]) -> Op:
    k = len(tags)

    def run():
        md = modular.su2_modular_data(lvl)
        union = nimrep.disjoint_union(*(nimrep.ade_graph(tag) for tag in tags))
        return md, invariants.tm_dimension_report(nimrep.su2_nimrep_from_graph(union, lvl), md)

    def check(result, error):
        if error is not None:
            return _unexpected(error)
        md, rep = result
        if rep.multOfUnit != k or rep.indecomposable or any(flag for _, flag in rep.routes):
            return FAIL, f"multOfUnit {rep.multOfUnit}, indecomposable {rep.indecomposable}"
        want = md.globalDim
        for _ in range(k - 1):
            want = want + md.globalDim
        if rep.dTM != want:
            return FAIL, "dTM != k * d(C)"
        return OK, f"multOfUnit {k}"

    return Op(f"tm-dim su2:{lvl} {'+'.join(tags)}", run, check)


def _clique_union(mix: random.Random, rng: random.Random, min_first: int, monomials: dict):
    """Disjoint cliques with exact mu_ij = lambda_i / lambda_j at order 24.

    ``monomials`` memoizes zeta_24^e * q across calls, so building hundreds
    of problems stays a small part of set-up.
    """

    def monomial(e: int, q: Fraction) -> CycloNumber:
        key = (e % 24, q)
        if key not in monomials:
            monomials[key] = zeta(24, key[0]) * CycloNumber.from_rational(q)
        return monomials[key]

    sizes = [mix.randint(min_first, 6)]
    sizes += [mix.randint(1, 6) for _ in range(mix.randint(0, 2))]
    # lambda_i = zeta_24^e_i * q_i, so mu_ij = zeta_24^(e_i - e_j) * q_i / q_j
    exps = [rng.randrange(24) for _ in range(sum(sizes))]
    qs = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in exps]
    lam = [monomial(e, q) for e, q in zip(exps, qs)]
    mu: dict[tuple[int, int], CycloNumber] = {}
    spans = []
    offset = 0
    for s in sizes:
        span = tuple(range(offset, offset + s))
        spans.append(span)
        for i in span:
            for j in span:
                mu[(i, j)] = monomial(exps[i] - exps[j], qs[i] / qs[j])
        offset += s
    return lam, mu, spans


def _gauge_op(mix: random.Random, rng: random.Random, corrupt: bool, monomials: dict) -> Op:
    lam, mu, spans = _clique_union(mix, rng, 3 if corrupt else 1, monomials)
    nodes = [str(n) for n in range(len(lam))]
    if corrupt:
        # break one triangle of the first clique; solving must fail "cocycle"
        i, _, k = sorted(rng.sample(spans[0], 3))
        mu[(i, k)] = mu[(i, k)] * 2
        mu[(k, i)] = mu[(k, i)] * CycloNumber.from_rational(Fraction(1, 2))
    problem = gauge.GaugeProblem.build(nodes, mu)

    def run():
        if not corrupt:
            return gauge.solve_gauge(problem)
        verdict = gauge.validate_mu(problem)
        try:
            gauge.solve_gauge(problem)
        except GaugeInconsistent as err:
            return verdict, err
        return verdict, None

    def check(result, error):
        if error is not None:
            return _unexpected(error)
        if corrupt:
            verdict, raised = result
            bad = verdict.first_failure
            if bad is None or bad.name != "cocycle" or raised is None:
                return FAIL, "corrupted triangle not rejected by cocycle"
            return OK, f"rejected {bad.witness}"
        if result.components != tuple(spans):
            return FAIL, f"components {result.components} != {spans}"
        for comp in result.components:
            root = comp[0]
            for j in comp:
                if result.lam[j] * lam[root] != lam[j] * result.lam[root]:
                    return FAIL, f"lambda not recovered at node {j}"
        return OK, f"{len(spans)} components"

    shape = "+".join(str(len(span)) for span in spans)
    return Op(f"gauge {'corrupt' if corrupt else 'round-trip'} {shape}", run, check)


def _phi_op(lvl: int, tag: str) -> Op:
    def run():
        md = modular.su2_modular_data(lvl)
        nr = nimrep.su2_nimrep_from_graph(nimrep.ade_graph(tag), lvl)
        lam = nimrep.d_eigenvector(nr, md)
        return lam, gauge.verify_phi_isomorphism(nr, lam, md)

    def check(result, error):
        if error is not None:
            return _unexpected(error)
        lam, verdict = result
        if [c.name for c in verdict.checks] != ["intertwiner", "d-eigenvector"]:
            return FAIL, "unexpected check list"
        if not verdict.ok or lam[0] != ONE:
            return FAIL, f"phi isomorphism fails: {verdict.describe()}"
        return OK, "phi ok"

    return Op(f"phi {tag} su2:{lvl}", run, check)
