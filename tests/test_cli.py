"""The command-line surface: subcommands, exit codes, report shape, and
byte determinism. All runs go through main(argv) in-process."""

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fuselab.cli import JobSpec, main, render_report, run
from fuselab.fusion import FusionRing
from fuselab.io import write_data_file
from fuselab.invariants import InvariantMatrix
from fuselab.modular import ModularData, load_catalog, su2_modular_data, verify_modular_data
from fuselab.nimrep import BoundaryGraph


def structured(capsys, argv):
    code = main([*argv, "--format", "structured"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_catalog_list(capsys):
    code, doc = structured(capsys, ["catalog", "list"])
    assert code == 0
    assert doc["schema"] == "fuselab-report/1"
    names = doc["payload"]["catalogs"]
    assert "su2:0" in names and "fibonacci" in names and "zn:8" in names


def test_verify_fusion_catalog(capsys):
    code, doc = structured(capsys, ["verify-fusion", "--data", "su2:0"])
    assert code == 0
    assert doc["ok"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_diag_theorem_e6(capsys):
    code, doc = structured(capsys, ["diag-theorem", "--data", "su2:10", "--graph", "E:6"])
    assert code == 0
    assert doc["payload"]["profile"] == [1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1]
    assert doc["payload"]["matches"] >= 1
    assert doc["ok"] is True


def test_nimrep_check_coxeter_mismatch(capsys):
    code, doc = structured(capsys, ["nimrep", "check", "--data", "su2:2", "--graph", "A:2"])
    assert code == 1
    assert doc["error"]["type"] == "NotANimRep"
    assert doc["error"]["witness"]


def test_nimrep_check_pass(capsys):
    code, doc = structured(capsys, ["nimrep", "check", "--data", "su2:1", "--graph", "A:2"])
    assert code == 0
    assert doc["payload"]["character"] == [2, 0]


def test_profile_d4(capsys):
    code, doc = structured(capsys, ["profile", "--data", "su2:4", "--graph", "D:4"])
    assert code == 0
    assert doc["payload"]["profile"] == [1, 0, 2, 0, 1]


def test_spectrum_structured_exact(capsys):
    code, doc = structured(capsys, ["spectrum", "--data", "su2:1"])
    assert code == 0
    pts = doc["payload"]["points"]
    assert pts[1]["values"][1] == {"order": 1, "coeffs": [[-1, 1]]}


def test_tm_dim(capsys):
    code, doc = structured(capsys, ["tm-dim", "--data", "su2:10", "--graph", "E:6"])
    assert code == 0
    assert doc["payload"]["indecomposable"] is True
    assert doc["payload"]["dTM"] == doc["payload"]["globalDim"]


def test_invariant_search(capsys):
    code, doc = structured(capsys, ["invariant", "search", "--data", "su2:4", "--bound", "2"])
    assert code == 0
    mats = doc["payload"]["matrices"]
    assert [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]] in mats
    assert doc["payload"]["commutantDimension"] == 2


def test_invariant_search_cap(capsys):
    code, doc = structured(capsys, ["invariant", "search", "--data", "su2:10", "--cap", "1"])
    assert code == 1
    assert doc["error"]["type"] == "SearchBudgetExceeded"


def test_invariant_verify_file(capsys, tmp_path):
    path = tmp_path / "z.json"
    write_data_file(path, InvariantMatrix.from_rows(
        [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    ))
    code, doc = structured(capsys, ["invariant", "verify", "--data", "su2:2", "--invariant", str(path)])
    assert code == 0
    assert doc["payload"]["Z"][0] == [1, 0, 0]


def test_gauge_solve_file(capsys, tmp_path):
    from fractions import Fraction

    from fuselab.cyclo import CycloNumber
    from fuselab.gauge import GaugeProblem

    lam = [CycloNumber.from_rational(1), CycloNumber.from_rational(Fraction(1, 2))]
    mu = {(i, j): lam[i] / lam[j] for i in range(2) for j in range(2)}
    path = tmp_path / "gauge.json"
    write_data_file(path, GaugeProblem.build(("u", "v"), mu))
    code, doc = structured(capsys, ["gauge", "solve", "--data", str(path)])
    assert code == 0
    assert doc["payload"]["lambda"][1] == {"order": 1, "coeffs": [[1, 2]]}
    assert doc["payload"]["components"] == [[0, 1]]


def test_gauge_solve_report_bytes_pinned(capsys, tmp_path, monkeypatch):
    """Two cliques whose lambda are dense sums, so a solved lambda that
    were not in canonical form would print other coefficients: the whole
    structured report is pinned."""
    from fractions import Fraction
    from hashlib import sha256

    from fuselab.cyclo import CycloNumber, zeta
    from fuselab.gauge import GaugeProblem

    rat = CycloNumber.from_rational
    lam = [zeta(8) + 2, 3 * zeta(12, 5) + 1, zeta(3) - rat(Fraction(1, 2)),
           zeta(5) + rat(Fraction(1, 3)), zeta(5, 2) - 2 * zeta(5)]
    mu = {(i, j): lam[i] / lam[j] for c in (range(3), range(3, 5)) for i in c for j in c}
    monkeypatch.chdir(tmp_path)
    write_data_file("mu.json", GaugeProblem.build(tuple("abcde"), mu))
    assert main(["gauge", "solve", "--data", "mu.json", "--format", "structured"]) == 0
    out = capsys.readouterr().out
    z = [0, 1]  # a zero coefficient
    assert json.loads(out)["payload"]["lambda"] == [
        {"coeffs": [[1, 1]], "order": 1},
        {"coeffs": [[8, 17], [12, 17], z, [-4, 17], z, z, z, z, z, [-1, 17], [24, 17], z,
                    z, z, z, z, [6, 17], z, [-2, 17], [-3, 17], z, z, z, z], "order": 24},
        {"coeffs": [[-12, 17], [1, 17], z, [6, 17], z, z, z, z, z, [3, 34], [2, 17], z,
                    z, z, z, z, [-8, 17], z, [3, 17], [4, 17], z, z, z, z], "order": 24},
        {"coeffs": [[1, 1]], "order": 1},
        {"coeffs": [[-189, 61], [12, 61], [-42, 61], [-63, 61], z], "order": 5},
    ]
    assert sha256(out.encode()).hexdigest() == (
        "2e30b7a14296f81ea8eb117f0b875c19ede2d75db17e85150454eb177f4e95e6"
    )


def test_gauge_solve_human_report_pinned(capsys, tmp_path, monkeypatch):
    # the CI's mu.json: mu_ij = lambda_i / lambda_j on one 3-clique; lambda
    # prints through the generic list rendering
    from fuselab.cyclo import ONE, zeta
    from fuselab.gauge import GaugeProblem

    lam = [ONE, zeta(8), 3 * zeta(12, 5) + 1]
    mu = {(i, j): lam[i] / lam[j] for i in range(3) for j in range(3)}
    monkeypatch.chdir(tmp_path)
    write_data_file("mu.json", GaugeProblem.build(("a", "b", "c"), mu))
    assert main(["gauge", "solve", "--data", "mu.json"]) == 0
    assert capsys.readouterr().out == (
        "fuselab gauge solve\n"
        "  inputs: data=mu.json\n"
        "  check PASS diagonal-units\n"
        "  check PASS inverse-pairs\n"
        "  check PASS cocycle\n"
        "  nodes: (a, b, c)\n"
        "  components: ((0, 1, 2))\n"
        "  lambda: (1.0, (0.707107 + 0.707107j), (-1.59808 + 1.5j))\n"
        "  result: PASS\n"
    )


def test_gauge_solve_bad_triangle(capsys, tmp_path):
    from fuselab.cyclo import CycloNumber

    rat = CycloNumber.from_rational
    from fractions import Fraction

    mu = {(i, i): rat(1) for i in range(3)}
    mu.update({(0, 1): rat(2), (1, 0): rat(Fraction(1, 2))})
    mu.update({(1, 2): rat(3), (2, 1): rat(Fraction(1, 3))})
    mu.update({(0, 2): rat(5), (2, 0): rat(Fraction(1, 5))})
    from fuselab.gauge import GaugeProblem

    path = tmp_path / "gauge.json"
    write_data_file(path, GaugeProblem.build(("a", "b", "c"), mu))
    code, doc = structured(capsys, ["gauge", "solve", "--data", str(path)])
    assert code == 1
    failing = [c for c in doc["checks"] if not c["passed"]]
    assert failing[0]["name"] == "cocycle"
    assert "(0,1,2)" in failing[0]["witness"]


def test_custom_graph_file(capsys, tmp_path):
    from fuselab.nimrep import d_graph

    path = tmp_path / "d4.json"
    write_data_file(path, d_graph(4))
    code, doc = structured(capsys, ["profile", "--data", "su2:4", "--graph", f"custom:{path}"])
    assert code == 0
    assert doc["payload"]["profile"] == [1, 0, 2, 0, 1]


def test_data_file_for_graph_command(capsys, tmp_path):
    path = tmp_path / "md.json"
    write_data_file(path, su2_modular_data(2))
    code, doc = structured(capsys, ["profile", "--data", str(path), "--graph", "A:3"])
    assert code == 0
    assert doc["payload"]["profile"] == [1, 1, 1]


def test_missing_file_is_input_error(capsys, tmp_path):
    code, doc = structured(capsys, ["spectrum", "--data", str(tmp_path / "nope.json")])
    assert code == 2
    assert doc["error"]["category"] == "input"


def test_wrong_kind_is_input_error(capsys, tmp_path):
    path = tmp_path / "z.json"
    write_data_file(path, InvariantMatrix.from_rows([[1]]))
    code, doc = structured(capsys, ["spectrum", "--data", str(path)])
    assert code == 2
    assert doc["error"]["type"] == "SchemaError"


def test_rank_zero_fusion_ring_is_input_error(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"kind": "fusion-ring", "labels": [], "dual": [], "N": []}))
    code, doc = structured(capsys, ["verify-fusion", "--data", str(path)])
    assert code == 2
    assert doc["error"]["type"] == "SchemaError"


def toric_code_data():
    """Z2 x Z2 (the toric code): S the +-1 character table, t = (0, 0, 0, 1/2)."""
    r = range(4)
    N = tuple(tuple(tuple(int(a ^ b == c) for c in r) for b in r) for a in r)
    ring = FusionRing(labels=("1", "e", "m", "em"), dual=(0, 1, 2, 3), N=N)
    S = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    return ModularData(ring, S, (0, 0, 0, Fraction(1, 2)))


def test_graph_commands_build_over_any_generated_ring(capsys, tmp_path):
    # zn:3: N(x_2) = A^2 for the symmetric A of A_3, which is not A transposed
    code, doc = structured(capsys, ["nimrep", "check", "--data", "zn:3", "--graph", "A:3"])
    assert code == 1
    assert doc["error"]["witness"] == "duality: N(dual(1)) != transpose of N(1)"
    # fibonacci acting on itself: the tadpole graph, tau * tau = 1 + tau
    tadpole = tmp_path / "tadpole.json"
    write_data_file(tadpole, BoundaryGraph(vertices=("1", "tau"), adjacency=((0, 1), (1, 1))))
    argv = ["diag-theorem", "--data", "fibonacci", "--graph", f"custom:{tadpole}"]
    code, doc = structured(capsys, argv)
    assert code == 0
    assert doc["payload"]["profile"] == [1, 1]
    assert doc["payload"]["level"] == 1
    # Z2 x Z2 is not generated by e: m is never reached
    md = toric_code_data()
    assert verify_modular_data(md).ok
    toric = tmp_path / "toric.json"
    write_data_file(toric, md)
    for command in (["nimrep", "check"], ["profile"], ["tm-dim"], ["diag-theorem"]):
        code, doc = structured(capsys, [*command, "--data", str(toric), "--graph", "A:2"])
        assert code == 2
        assert doc["error"] == {
            "category": "input",
            "type": "ShapeMismatch",
            "message": "label 2 is not generated by label 1",
        }


def test_graph_tag_budget_exits_two_before_building(capsys, monkeypatch):
    import tracemalloc

    from fuselab import cli, nimrep

    load_catalog("su2:4")  # the datum is built once and kept, outside the measurement
    builds = []
    monkeypatch.setattr(cli, "nimrep_from_graph", lambda *args: builds.append(args))
    tracemalloc.start()
    try:
        code, doc = structured(capsys, ["profile", "--data", "su2:4", "--graph", "A:100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert doc["error"]["message"] == (
        f"graph tag 'A:100000' names more than {nimrep._MAX_TAG_RANK} vertices"
    )
    assert builds == [] and peak < 2**20


def test_graph_commands_build_over_the_ising_ring(capsys):
    # Graph commands build the module over ising's own ring, which its
    # label 1, sigma, generates: sigma * sigma = 1 + psi.
    code, doc = structured(capsys, ["profile", "--data", "ising", "--graph", "A:3"])
    assert code == 0
    assert doc["payload"]["profile"] == [1, 1, 1]


def test_deeply_nested_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, doc = structured(capsys, ["spectrum", "--data", str(path)])
    assert code == 2
    assert doc["error"]["type"] == "SchemaError"
    assert doc["error"]["message"] == f"{path}: JSON nested too deeply to parse"


def test_invalid_file_is_math_error(capsys, tmp_path):
    from fuselab.io import data_to_json

    doc_in = data_to_json(su2_modular_data(1))
    doc_in["S"][1][1] = {"order": 1, "coeffs": [[5, 1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc_in))
    code, doc = structured(capsys, ["spectrum", "--data", str(path)])
    assert code == 1
    assert doc["error"]["type"] == "ValidationFailed"
    assert any(not c["passed"] for c in doc["checks"])


def test_unknown_graph_spec(capsys):
    code, doc = structured(capsys, ["profile", "--data", "su2:2", "--graph", "Q:3"])
    assert code == 2


def test_byte_determinism(capsys):
    argv = ["diag-theorem", "--data", "su2:4", "--graph", "D:4", "--format", "structured"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_human_rendering(capsys):
    code = main(["profile", "--data", "su2:4", "--graph", "D:4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuselab profile" in out
    assert "profile: (1, 0, 2, 0, 1)" in out
    assert "result: PASS" in out


def test_argparse_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_digits_must_be_positive(capsys):
    # the value reaches embed_complex only when the report is rendered, after
    # run()'s error handling, so the parser has to refuse it
    for digits in ("0", "-2", "x", "1.5"):
        assert main(["spectrum", "--data", "fibonacci", "--digits", digits]) == 2, digits
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "--digits: expected a positive integer" in captured.err
    assert main(["spectrum", "--data", "fibonacci", "--digits", "1"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_integer_options_are_spelled_in_plain_decimal(capsys):
    # int() reads these as 2; the parser refuses them, as it does for graph tags
    for text in ("\u0662", " 2 ", "02", "+2", "2_0"):
        for args in (
            ["invariant", "search", "--data", "su2:4", "--bound", text],
            ["invariant", "search", "--data", "su2:4", "--cap", text],
            ["spectrum", "--data", "fibonacci", "--digits", text],
        ):
            assert main(args) == 2, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{args[-2]}: expected a positive integer, got {text!r}" in captured.err
    code, doc = structured(capsys, ["invariant", "search", "--data", "su2:4", "--bound", "2"])
    assert code == 0 and doc["inputs"]["bound"] == 2


def test_non_positive_cap_exits_two(capsys, monkeypatch):
    # a cap below 1 is bad input, never a SearchBudgetExceeded failure
    for cap in ("0", "-5"):
        assert main(["invariant", "search", "--data", "su2:4", "--cap", cap]) == 2, cap
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cap: expected a positive integer" in captured.err
    monkeypatch.setenv("FUSELAB_SEARCH_CAP", "-3")
    code, doc = structured(capsys, ["invariant", "search", "--data", "su2:4"])
    assert code == 2
    assert doc["error"]["category"] == "input"
    assert doc["error"]["type"] == "ValueError"
    assert "FUSELAB_SEARCH_CAP must be a positive integer" in doc["error"]["message"]
    for env in ("abc", "1e6", "٢", " 2 ", "02", "+2", "1_000"):
        monkeypatch.setenv("FUSELAB_SEARCH_CAP", env)
        code, doc = structured(capsys, ["invariant", "search", "--data", "su2:4"])
        assert code == 2, env
        assert doc["error"]["type"] == "ValueError"
        assert f"FUSELAB_SEARCH_CAP must be a positive integer, got '{env}'" == doc["error"]["message"]
    monkeypatch.setenv("FUSELAB_SEARCH_CAP", "16")
    code, doc = structured(capsys, ["invariant", "search", "--data", "su2:4"])
    assert code == 0


def test_bool_bound_and_cap_exit_two():
    # bool is an int subclass; through the API True used to run as 1
    for job in (
        JobSpec(command="invariant search", data="su2:4", bound=True, fmt="structured"),
        JobSpec(command="invariant search", data="su2:4", cap=True, fmt="structured"),
    ):
        code, report = run(job)
        assert code == 2, job
        assert report["error"]["category"] == "input"
        assert report["error"]["type"] == "ValueError"


@pytest.mark.parametrize("bound", [0, -3, True])
@pytest.mark.parametrize("data,graph", [("su2:10", "E:6"), ("su2:4", "D:4")])
def test_diag_theorem_refuses_a_bad_bound_like_invariant_search(bound, data, graph):
    # the profile maximum used to raise a bad bound silently (exit 0)
    code, report = run(
        JobSpec(command="diag-theorem", data=data, graph=graph, bound=bound, fmt="structured")
    )
    assert code == 2, report
    assert report["error"]["category"] == "input"
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"] == f"entryBound must be a positive integer, got {bound!r}"
    code, search = run(JobSpec(command="invariant search", data=data, bound=bound))
    assert code == 2
    assert search["error"] == report["error"]


def test_catalog_limits_exit_two(capsys):
    for data in ("su2:29", "zn:9"):
        code, report = run(JobSpec(command="spectrum", data=data, fmt="structured"))
        assert code == 2, data
        assert report["error"]["category"] == "input"
        assert report["error"]["type"] == "SchemaError"
        assert "must be in" in report["error"]["message"]
        code, doc = structured(capsys, ["invariant", "search", "--data", data])
        assert code == 2, data
        assert doc["error"]["type"] == "SchemaError"


def test_run_api_directly():
    code, report = run(JobSpec(command="verify-fusion", data="fibonacci", fmt="structured"))
    assert code == 0
    assert report["ok"] is True
    code, report = run(JobSpec(command="mystery"))
    assert code == 2


def test_graph_commands_build_each_module_once(tmp_path, monkeypatch):
    # every graph command reaches its module through nimrep_from_graph's one
    # cache: a repeated job prints the same bytes and builds nothing
    from fuselab import nimrep

    built = []

    def counted(ring, g, _build=nimrep._build_module):
        nr = _build(ring, g)  # a failing graph raises here and counts no build
        built.append((ring.labels, g.vertices))
        return nr

    monkeypatch.setattr(nimrep, "_build_module", counted)
    tadpole, loop = tmp_path / "tadpole.json", tmp_path / "loop.json"
    write_data_file(tadpole, BoundaryGraph(("1", "tau"), ((0, 1), (1, 1))))
    write_data_file(loop, BoundaryGraph(("a",), ((1,),)))
    pairs = [(f"su2:{lvl}", f"A:{lvl + 1}") for lvl in range(1, 29)]
    pairs += [(f"su2:{2 * n - 4}", f"D:{n}") for n in range(4, 17)]
    pairs += [("su2:10", "E:6"), ("su2:16", "E:7"), ("su2:28", "E:8")]
    pairs += [("fibonacci", f"custom:{tadpole}"), ("zn:3", f"custom:{loop}")]
    pairs += [("su2:4", "A:3"), ("su2:3", "A:3")]

    def reports():
        out = []
        for data, graph in pairs:
            for command in ("nimrep check", "profile", "tm-dim", "diag-theorem"):
                for fmt in ("structured", "human"):
                    job = JobSpec(command=command, data=data, graph=graph, fmt=fmt)
                    code, report = run(job)
                    out.append((code, render_report(report, job)))
        return out

    nimrep._modules.clear()
    first = reports()
    assert len(set(built)) == len(built) == 46
    codes = Counter(code for code, _ in first)
    assert codes == {0: 46 * 8, 1: 2 * 8}, codes
    built.clear()
    assert reports() == first
    assert built == []


_FIBONACCI_AT_8_DIGITS = """fuselab spectrum
  inputs: data=fibonacci
  labels: (1, tau)
  lambda[1]: (1.0, 1.618034)  normSq = 3.618034
  lambda[tau]: (1.0, -0.61803399)  normSq = 1.381966
  result: PASS
"""


def test_mpmath_is_imported_only_to_print_numbers(capsys):
    # a fresh interpreter: the import and a diag-theorem job leave mpmath out
    code = (
        "import sys; from fuselab.cli import JobSpec, run; "
        "run(JobSpec(command='diag-theorem', data='su2:10', graph='E:6')); "
        "sys.exit('mpmath imported' if 'mpmath' in sys.modules else 0)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["spectrum", "--data", "fibonacci", "--digits", "8"]) == 0
    assert capsys.readouterr().out == _FIBONACCI_AT_8_DIGITS
