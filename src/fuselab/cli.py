"""Command-line frontend: catalog access, file ingestion, and verification
subcommands emitting deterministic reports.

Structured mode prints one JSON document ("fuselab-report/1") with sorted
keys and no timestamps, so identical jobs produce identical bytes; human
mode renders the same document as labelled lines. Exit status: 0 all checks
passed, 1 a mathematical check failed (the witness is in the report),
2 the input could not be used.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from .cyclo import embed_complex
from .errors import (
    DegenerateScalar,
    GaugeInconsistent,
    MissingPair,
    MultiplicityNotOne,
    NonIntegralMultiplicity,
    NonIntegralVerlinde,
    NotANimRep,
    SchemaError,
    SearchBudgetExceeded,
    ShapeMismatch,
    ValidationFailed,
)
from .fusion import FusionRing, verify_axioms
from .gauge import GaugeProblem, solve_gauge, validate_mu
from .invariants import (
    DEFAULT_ENTRY_BOUND,
    InvariantMatrix,
    _positive as _positive_value,
    commutant_basis,
    enumerate_invariants,
    match_diagonal,
    tm_dimension_report,
    verify_invariant,
)
from .io import cyclo_from_json, cyclo_to_json, parse_data_file
from .modular import ModularData, _decimal, catalog_names, load_catalog, spectrum
from .nimrep import (
    _ADE_FAMILIES,
    BoundaryGraph,
    NimRep,
    ade_graph,
    character,
    multiplicity_profile,
    nimrep_from_graph,
    verify_nimrep,
)
from .verdict import check, passed

REPORT_SCHEMA = "fuselab-report/1"
EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

_CATALOG_ID = re.compile(r"^(su2:[0-9]+|zn:[0-9]+|fibonacci|ising)$")

# anything here means the job itself was unusable, not that math failed
_INPUT_ERRORS = (SchemaError, ShapeMismatch, MissingPair, OSError, ValueError)
_MATH_ERRORS = (
    ValidationFailed,
    NotANimRep,
    NonIntegralVerlinde,
    NonIntegralMultiplicity,
    MultiplicityNotOne,
    GaugeInconsistent,
    DegenerateScalar,
    SearchBudgetExceeded,
    AssertionError,
)


@dataclass(frozen=True)
class JobSpec:
    """One CLI invocation, fully resolved. Its report is a function of it and of
    FUSELAB_SEARCH_CAP, the lattice cap of the searches when cap is None."""

    command: str
    data: str | None = None
    graph: str | None = None
    invariant: str | None = None
    fmt: str = "human"
    bound: int | None = None
    digits: int = 6
    cap: int | None = None


def _load_data(source: str):
    if _CATALOG_ID.match(source):
        return load_catalog(source)
    return parse_data_file(source)


def _need_modular(obj, command: str) -> ModularData:
    if isinstance(obj, ModularData):
        return obj
    raise SchemaError(
        f"{command} needs modular data, got {type(obj).__name__.lower()}"
    )


def _need_ring(obj, command: str) -> FusionRing:
    if isinstance(obj, ModularData):
        return obj.ring
    if isinstance(obj, FusionRing):
        return obj
    raise SchemaError(
        f"{command} needs a fusion ring or modular data, got {type(obj).__name__.lower()}"
    )


def _resolve_graph(spec: str) -> BoundaryGraph:
    head, sep, tail = spec.partition(":")
    if sep and head in _ADE_FAMILIES:
        return ade_graph(spec)
    if sep and head == "custom":
        obj = parse_data_file(tail)
        if not isinstance(obj, BoundaryGraph):
            raise SchemaError(f"graph file {tail!r} holds {type(obj).__name__.lower()}")
        return obj
    raise SchemaError(
        f"unknown graph spec {spec!r}; use A:n, D:n, E:n, or custom:<file>"
    )


def _build_nimrep(job: JobSpec, command: str) -> tuple[NimRep, ModularData, int]:
    """The data's module with N(x_1) = the graph, the datum, and level = rank - 1."""
    if job.data is None or job.graph is None:
        raise SchemaError(f"{command} needs both --data and --graph")
    md = _need_modular(_load_data(job.data), command)
    g = _resolve_graph(job.graph)
    return nimrep_from_graph(md.ring, g), md, md.rank - 1


def _cmd_catalog_list(job: JobSpec):
    return [], {"catalogs": list(catalog_names())}


def _cmd_verify_fusion(job: JobSpec):
    if job.data is None:
        raise SchemaError("verify-fusion needs --data")
    ring = _need_ring(_load_data(job.data), "verify-fusion")
    v = verify_axioms(ring)
    return list(v.checks), {"labels": list(ring.labels), "rank": ring.rank}


def _cmd_spectrum(job: JobSpec):
    if job.data is None:
        raise SchemaError("spectrum needs --data")
    md = _need_modular(_load_data(job.data), "spectrum")
    points = [
        {
            "base": p.baseLabel,
            "label": md.ring.labels[p.baseLabel],
            "values": [cyclo_to_json(x) for x in p.values],
            "normSq": cyclo_to_json(p.normSq),
        }
        for p in spectrum(md)
    ]
    return [], {"labels": list(md.ring.labels), "points": points}


def _cmd_nimrep_check(job: JobSpec):
    nr, _, level = _build_nimrep(job, "nimrep check")
    v = verify_nimrep(nr.ring, nr.mats)
    payload = {
        "level": level,
        "graph": list(nr.boundaryLabels),
        "character": list(character(nr)),
    }
    return list(v.checks), payload


def _cmd_profile(job: JobSpec):
    nr, md, level = _build_nimrep(job, "profile")
    m = multiplicity_profile(nr, md)
    payload = {
        "level": level,
        "labels": list(md.ring.labels),
        "profile": list(m),
        "boundarySize": nr.size,
    }
    return [passed("integral-profile"), passed("profile-total")], payload


def _cmd_gauge_solve(job: JobSpec):
    if job.data is None:
        raise SchemaError("gauge solve needs --data")
    obj = _load_data(job.data)
    if not isinstance(obj, GaugeProblem):
        raise SchemaError(
            f"gauge solve needs a gauge file, got {type(obj).__name__.lower()}"
        )
    v = validate_mu(obj)
    payload: dict = {"nodes": list(obj.nodes)}
    checks = list(v.checks)
    if v.ok:
        sol = solve_gauge(obj)
        payload["components"] = [list(c) for c in sol.components]
        payload["lambda"] = [cyclo_to_json(x) for x in sol.lam]
    return checks, payload


def _cmd_tm_dim(job: JobSpec):
    nr, md, level = _build_nimrep(job, "tm-dim")
    rep = tm_dimension_report(nr, md)
    payload = {
        "level": level,
        "dTM": cyclo_to_json(rep.dTM),
        "globalDim": cyclo_to_json(md.globalDim),
        "multOfUnit": rep.multOfUnit,
        "indecomposable": rep.indecomposable,
        "routes": [[name, flag] for name, flag in rep.routes],
    }
    # route disagreement raises before we get here, so both checks hold
    return [passed("routes-agree"), passed("dimension-chain")], payload


def _cmd_invariant_verify(job: JobSpec):
    if job.data is None or job.invariant is None:
        raise SchemaError("invariant verify needs --data and --invariant")
    md = _need_modular(_load_data(job.data), "invariant verify")
    Z = parse_data_file(job.invariant)
    if not isinstance(Z, InvariantMatrix):
        raise SchemaError(
            f"invariant file holds {type(Z).__name__.lower()}, expected invariant"
        )
    v = verify_invariant(Z, md)
    payload = {
        "Z": [list(row) for row in Z.entries],
        "provenance": Z.provenance,
    }
    return list(v.checks), payload


def _cmd_invariant_search(job: JobSpec):
    if job.data is None:
        raise SchemaError("invariant search needs --data")
    md = _need_modular(_load_data(job.data), "invariant search")
    bound = DEFAULT_ENTRY_BOUND if job.bound is None else job.bound
    found = enumerate_invariants(md, bound, cap=job.cap)
    payload = {
        "bound": bound,
        "commutantDimension": commutant_basis(md).dimension,
        "count": len(found),
        "matrices": [[list(row) for row in z.entries] for z in found],
    }
    return [passed("closure")], payload


def _cmd_diag_theorem(job: JobSpec):
    nr, md, level = _build_nimrep(job, "diag-theorem")
    m = multiplicity_profile(nr, md)
    low = 1 if job.bound is None else _positive_value("entryBound", job.bound)
    bound = max((low, *m))
    candidates = enumerate_invariants(md, bound, cap=job.cap)
    matches = [z for z in candidates if match_diagonal(z, nr, md).ok]
    realized = check(
        "diagonal-realized",
        None if matches else f"no enumerated invariant at bound {bound} matches",
    )
    payload = {
        "level": level,
        "labels": list(md.ring.labels),
        "profile": list(m),
        "bound": bound,
        "candidates": len(candidates),
        "matches": len(matches),
    }
    return [realized], payload


_HANDLERS = {
    "catalog list": _cmd_catalog_list,
    "verify-fusion": _cmd_verify_fusion,
    "spectrum": _cmd_spectrum,
    "nimrep check": _cmd_nimrep_check,
    "profile": _cmd_profile,
    "gauge solve": _cmd_gauge_solve,
    "tm-dim": _cmd_tm_dim,
    "invariant verify": _cmd_invariant_verify,
    "invariant search": _cmd_invariant_search,
    "diag-theorem": _cmd_diag_theorem,
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute one job; returns (exit status, report document)."""
    inputs: dict = {}
    for key in ("data", "graph", "invariant", "bound", "cap"):
        value = getattr(job, key)
        if value is not None:
            inputs[key] = value
    report: dict = {"schema": REPORT_SCHEMA, "command": job.command, "inputs": inputs}
    handler = _HANDLERS.get(job.command)
    if handler is None:
        report["ok"] = False
        report["error"] = {
            "category": "input",
            "type": "SchemaError",
            "message": f"unknown command {job.command!r}",
        }
        return EXIT_INPUT, report
    try:
        checks, payload = handler(job)
    except _INPUT_ERRORS as err:
        report["ok"] = False
        report["error"] = {
            "category": "input",
            "type": type(err).__name__,
            "message": str(err),
        }
        return EXIT_INPUT, report
    except _MATH_ERRORS as err:
        report["ok"] = False
        error: dict = {
            "category": "math",
            "type": type(err).__name__,
            "message": str(err),
        }
        witness = getattr(err, "witness", "")
        if witness:
            error["witness"] = witness
        report["error"] = error
        verdict = getattr(err, "verdict", None)
        if verdict is not None:
            report["checks"] = [c.as_dict() for c in verdict.checks]
        return EXIT_MATH, report
    report["checks"] = [c.as_dict() for c in checks]
    report["ok"] = all(c.passed for c in checks)
    report["payload"] = payload
    return (EXIT_OK if report["ok"] else EXIT_MATH), report


def _approx(doc: dict, digits: int) -> str:
    import mpmath  # only human reports with cyclotomic values need it

    z = embed_complex(cyclo_from_json(doc, "value"), digits)
    if abs(mpmath.im(z)) < mpmath.mpf(10) ** (-digits):
        return mpmath.nstr(mpmath.re(z), digits)
    return mpmath.nstr(z, digits)


def _human_value(value, digits: int) -> str:
    if isinstance(value, dict) and set(value) == {"order", "coeffs"}:
        return _approx(value, digits)
    if isinstance(value, list):
        return "(" + ", ".join(_human_value(v, digits) for v in value) + ")"
    return str(value)


def _render_human(report: dict, digits: int) -> str:
    lines = [f"fuselab {report['command']}"]
    if report["inputs"]:
        parts = [f"{k}={v}" for k, v in sorted(report["inputs"].items())]
        lines.append("  inputs: " + " ".join(parts))
    for check in report.get("checks", ()):
        mark = "PASS" if check["passed"] else "FAIL"
        suffix = f": {check['witness']}" if check.get("witness") else ""
        lines.append(f"  check {mark} {check['name']}{suffix}")
    error = report.get("error")
    if error is not None:
        lines.append(f"  error ({error['category']}) {error['type']}: {error['message']}")
    payload = report.get("payload", {})
    for key, value in payload.items():
        if key == "matrices":
            lines.append(f"  matrices: {len(value)}")
            for k, mat in enumerate(value):
                lines.append(f"    Z[{k}]:")
                for row in mat:
                    lines.append("      " + " ".join(str(x) for x in row))
        elif key == "Z":
            lines.append("  Z:")
            for row in value:
                lines.append(
                    "    " + " ".join("?" if x is None else str(x) for x in row)
                )
        elif key == "points":
            for p in value:
                vals = ", ".join(_approx(v, digits) for v in p["values"])
                lines.append(
                    f"  lambda[{p['label']}]: ({vals})  normSq = "
                    + _approx(p["normSq"], digits)
                )
        elif key == "catalogs":
            lines.append("  catalogs:")
            for name in value:
                lines.append(f"    {name}")
        else:
            lines.append(f"  {key}: {_human_value(value, digits)}")
    lines.append("  result: " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines) + "\n"


def render_report(report: dict, job: JobSpec) -> str:
    if job.fmt == "structured":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return _render_human(report, job.digits)


def _positive(text: str) -> int:
    if (n := _decimal(text)) is None or n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("human", "structured"),
        default="human",
        help="report rendering (default: human)",
    )
    common.add_argument("--digits", type=_positive, default=6, help="float digits in human mode")
    data_arg = argparse.ArgumentParser(add_help=False)
    data_arg.add_argument(
        "--data",
        help="catalog id (su2:K, zn:N, fibonacci, ising) or path to a data file",
    )
    graph_arg = argparse.ArgumentParser(add_help=False)
    graph_arg.add_argument(
        "--graph", help="boundary graph: A:n, D:n, E:n, or custom:<file>"
    )
    search_args = argparse.ArgumentParser(add_help=False)
    search_args.add_argument(
        "--bound", type=_positive, default=None, help="largest allowed matrix entry"
    )
    search_args.add_argument(
        "--cap", type=_positive, default=None, help="lattice-point budget for enumeration"
    )

    p = argparse.ArgumentParser(
        prog="fuselab",
        description="Exact verification of fusion rings, modular data, "
        "boundary modules, gauge scalars, and modular invariants.",
    )
    sub = p.add_subparsers(dest="topic", required=True)

    cat = sub.add_parser("catalog", help="built-in modular data")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", parents=[common], help="list catalog ids")

    sub.add_parser(
        "verify-fusion", parents=[common, data_arg], help="check fusion-ring axioms"
    )
    sub.add_parser(
        "spectrum", parents=[common, data_arg], help="algebra homomorphisms of the fusion algebra"
    )

    nim = sub.add_parser("nimrep", help="boundary modules")
    nim_sub = nim.add_subparsers(dest="action", required=True)
    nim_sub.add_parser(
        "check", parents=[common, data_arg, graph_arg], help="build and verify a module"
    )

    sub.add_parser(
        "profile",
        parents=[common, data_arg, graph_arg],
        help="multiplicity of each spectrum point in a module",
    )

    gauge = sub.add_parser("gauge", help="gauge scalars")
    gauge_sub = gauge.add_subparsers(dest="action", required=True)
    gauge_sub.add_parser(
        "solve", parents=[common, data_arg], help="solve mu_ij = lambda_i / lambda_j"
    )

    sub.add_parser(
        "tm-dim",
        parents=[common, data_arg, graph_arg],
        help="module dimension and indecomposability report",
    )

    inv = sub.add_parser("invariant", help="modular invariant matrices")
    inv_sub = inv.add_subparsers(dest="action", required=True)
    inv_sub.add_parser(
        "verify", parents=[common, data_arg], help="check one Z matrix"
    ).add_argument("--invariant", help="path to an invariant file")
    inv_sub.add_parser(
        "search", parents=[common, data_arg, search_args], help="enumerate Z matrices"
    )

    sub.add_parser(
        "diag-theorem",
        parents=[common, data_arg, graph_arg, search_args],
        help="profile a module and realize it as an enumerated invariant diagonal",
    )
    return p


def job_from_argv(argv) -> JobSpec:
    ns = _parser().parse_args(argv)
    command = ns.topic if getattr(ns, "action", None) is None else f"{ns.topic} {ns.action}"
    return JobSpec(
        command=command,
        data=getattr(ns, "data", None),
        graph=getattr(ns, "graph", None),
        invariant=getattr(ns, "invariant", None),
        fmt=ns.fmt,
        bound=getattr(ns, "bound", None),
        digits=ns.digits,
        cap=getattr(ns, "cap", None),
    )


def main(argv=None) -> int:
    try:
        job = job_from_argv(argv)
    except SystemExit as err:
        code = err.code
        if code is None:
            return 0
        return code if isinstance(code, int) else EXIT_INPUT
    code, report = run(job)
    sys.stdout.write(render_report(report, job))
    return code


def console_main() -> None:
    sys.exit(main())
