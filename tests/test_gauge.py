"""Gauge cochain validation, per-component solving, encircling matrices,
and the module-isomorphism verdict."""

import random
from fractions import Fraction

import pytest

from fuselab.cyclo import ONE, ZERO, CycloNumber, FieldTensor, sin_ratio, zeta
from fuselab.errors import (
    DegenerateScalar,
    GaugeInconsistent,
    MissingPair,
    ShapeMismatch,
)
from fuselab.gauge import (
    GaugeProblem,
    encircling_matrices,
    solve_gauge,
    validate_mu,
    verify_phi_isomorphism,
)
from fuselab.modular import su2_modular_data
from fuselab.nimrep import a_graph, ade_graph, d_eigenvector, su2_nimrep_from_graph
from fuselab.verdict import Verdict, failed, passed


def rat(x) -> CycloNumber:
    return CycloNumber.from_rational(x)


def clique_mu(lam, components):
    """mu_ij := lambda_i / lambda_j on every pair inside each component."""
    mu = {}
    for comp in components:
        for i in comp:
            for j in comp:
                mu[(i, j)] = lam[i] / lam[j]
    return mu


def test_single_edge_passes():
    gp = GaugeProblem.build(
        ("1", "2"),
        {(0, 0): ONE, (1, 1): ONE, (0, 1): rat(2), (1, 0): rat(Fraction(1, 2))},
    )
    assert validate_mu(gp).ok


def test_bad_triangle_witnessed():
    lam_free = {
        (0, 1): rat(2),
        (1, 0): rat(Fraction(1, 2)),
        (1, 2): rat(3),
        (2, 1): rat(Fraction(1, 3)),
        (0, 2): rat(5),
        (2, 0): rat(Fraction(1, 5)),
        (0, 0): ONE,
        (1, 1): ONE,
        (2, 2): ONE,
    }
    gp = GaugeProblem.build(("1", "2", "3"), lam_free)
    v = validate_mu(gp)
    assert not v.ok
    assert v.first_failure.name == "cocycle"
    assert "(0,1,2)" in v.first_failure.witness


def test_generated_mu_always_passes():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 7)
        nodes = tuple(str(i) for i in range(n))
        cut = sorted(rng.sample(range(1, n), k=rng.randint(0, min(2, n - 1))))
        comps, start = [], 0
        for c in [*cut, n]:
            comps.append(tuple(range(start, c)))
            start = c
        lam = [zeta(12, rng.randint(0, 11)) * rat(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
               for _ in range(n)]
        gp = GaugeProblem.build(nodes, clique_mu(lam, comps))
        assert validate_mu(gp).ok
        sol = solve_gauge(gp)
        # recovered lambda agrees with the seed up to one scalar per component
        for comp in sol.components:
            scale = sol.lam[comp[0]] / lam[comp[0]]
            for i in comp:
                assert sol.lam[i] == lam[i] * scale


def test_solve_two_nodes():
    gp = GaugeProblem.build(
        ("1", "2"),
        {(0, 0): ONE, (1, 1): ONE, (0, 1): rat(2), (1, 0): rat(Fraction(1, 2))},
    )
    sol = solve_gauge(gp)
    assert sol.lam == (ONE, rat(Fraction(1, 2)))
    assert sol.components == ((0, 1),)


def test_solve_all_ones():
    nodes = tuple("abcd")
    mu = clique_mu([ONE] * 4, [(0, 1, 2, 3)])
    sol = solve_gauge(GaugeProblem.build(nodes, mu))
    assert sol.lam == (ONE, ONE, ONE, ONE)


def test_solve_two_components_golden():
    c = sin_ratio(2, 5)  # 2cos(pi/5)
    mu = {
        (0, 0): ONE,
        (1, 1): ONE,
        (2, 2): ONE,
        (0, 1): c,
        (1, 0): c.inverse(),
    }
    sol = solve_gauge(GaugeProblem.build(("1", "2", "3"), mu))
    assert sol.lam == (ONE, c.inverse(), ONE)
    assert sol.components == ((0, 1), (2,))


def test_missing_symmetric_pair_raises():
    with pytest.raises(MissingPair):
        validate_mu(
            GaugeProblem.build(
                ("1", "2"), {(0, 0): ONE, (1, 1): ONE, (0, 1): rat(2)}
            )
        )


def test_missing_composition_raises():
    mu = {
        (0, 0): ONE,
        (1, 1): ONE,
        (2, 2): ONE,
        (0, 1): rat(2),
        (1, 0): rat(Fraction(1, 2)),
        (1, 2): rat(3),
        (2, 1): rat(Fraction(1, 3)),
    }
    with pytest.raises(MissingPair):
        validate_mu(GaugeProblem.build(("1", "2", "3"), mu))


def test_solver_propagates_value_failure():
    mu = {
        (0, 0): ONE,
        (1, 1): ONE,
        (0, 1): rat(2),
        (1, 0): rat(3),  # not the inverse
    }
    with pytest.raises(GaugeInconsistent):
        solve_gauge(GaugeProblem.build(("1", "2"), mu))


def test_encircling_trivial_gauge():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    E = encircling_matrices(nr, (ONE, ONE, ONE))
    for a in range(3):
        for j in range(3):
            for i in range(3):
                assert E[a][j][i] == rat(int(nr.mats[a][j, i]))


def test_encircling_a3_pinned():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    c = sin_ratio(2, 4)  # 2cos(pi/4)
    E = encircling_matrices(nr, (ONE, c, ONE))
    assert E[1][0] == (ZERO, c, ZERO)
    assert E[1][1] == (c.inverse(), ZERO, c.inverse())
    assert E[1][2] == (ZERO, c, ZERO)
    # E(0) is the identity for any gauge
    assert E[0][0] == (ONE, ZERO, ZERO)
    assert E[0][1] == (ZERO, ONE, ZERO)
    assert E[0][2] == (ZERO, ZERO, ONE)


def test_encircling_rejects_zero_lambda():
    nr = su2_nimrep_from_graph(a_graph(2), 1)
    with pytest.raises(DegenerateScalar):
        encircling_matrices(nr, (ONE, ZERO))
    with pytest.raises(ShapeMismatch):
        encircling_matrices(nr, (ONE,))


def test_encircling_names_the_first_zero_lambda():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    for lam in ((ONE, ZERO, ZERO), (ONE, ZERO, zeta(8) + 1)):
        with pytest.raises(DegenerateScalar, match=r"^lambda\[1\] is zero$"):
            encircling_matrices(nr, lam)


def test_encircling_is_module_map():
    nr = su2_nimrep_from_graph(a_graph(4), 3)
    lam = (ONE, zeta(5), rat(Fraction(2, 3)), zeta(8, 3))
    E = encircling_matrices(nr, lam)
    r = nr.ring.rank
    size = nr.size
    for a in range(r):
        for b in range(r):
            for j in range(size):
                for i in range(size):
                    lhs = sum(
                        (E[a][j][k] * E[b][k][i] for k in range(size)), ZERO
                    )
                    rhs = sum(
                        (E[c][j][i] * nr.ring.N[a][b][c] for c in range(r)), ZERO
                    )
                    assert lhs == rhs


def test_phi_trivial_case():
    nr = su2_nimrep_from_graph(a_graph(2), 1)
    md = su2_modular_data(1)
    v = verify_phi_isomorphism(nr, (ONE, ONE), md)
    assert v.ok


def test_phi_with_d_eigenvector():
    from fuselab.nimrep import d_eigenvector

    nr = su2_nimrep_from_graph(a_graph(3), 2)
    md = su2_modular_data(2)
    lam = d_eigenvector(nr, md)
    v = verify_phi_isomorphism(nr, lam, md)
    assert v.ok
    E = encircling_matrices(nr, lam)
    c = sin_ratio(2, 4)
    for j in range(3):
        assert sum(E[1][j], ZERO) == c


def test_phi_intertwiner_without_eigenvector():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    md = su2_modular_data(2)
    v = verify_phi_isomorphism(nr, (ONE, ONE, ONE), md)
    checks = {c.name: c for c in v.checks}
    assert checks["intertwiner"].passed
    assert not checks["d-eigenvector"].passed
    assert not v.ok


# -- the encircling checks against the scalar loops they replaced -----------


def scalar_encircling(nr, lam):
    """Reference: E(a)_{ji} = (lambda_i / lambda_j) N(a)_{ji}, entry by entry."""
    size = nr.size
    if len(lam) != size:
        raise ShapeMismatch("lambda length must match the boundary rank")
    for i, x in enumerate(lam):
        if x.is_zero:
            raise DegenerateScalar(f"lambda[{i}] is zero")
    inv = [x.inverse() for x in lam]
    ratio = [[lam[i] * inv[j] for i in range(size)] for j in range(size)]
    return tuple(
        tuple(
            tuple(ratio[j][i] * int(mat[j, i]) if mat[j, i] else ZERO for i in range(size))
            for j in range(size)
        )
        for mat in nr.mats
    )


def scalar_phi(nr, lam, md) -> Verdict:
    """Reference: both checks as scalar loops, witnesses in row-major order."""
    size = nr.size
    E = scalar_encircling(nr, lam)
    checks = []
    witness = next(
        (
            f"(a,j,i)=({a},{j},{i})"
            for a, mat in enumerate(nr.mats)
            for j in range(size)
            for i in range(size)
            if lam[j] * E[a][j][i] != lam[i] * int(mat[j, i])
        ),
        None,
    )
    checks.append(passed("intertwiner") if witness is None else failed("intertwiner", witness))
    witness = None
    for a in range(nr.ring.rank):
        for j in range(size):
            total = sum(E[a][j], ZERO)
            if total != md.d[a]:
                witness = f"row {j} of E({a}) sums to {total}, not d({a})"
                break
        if witness:
            break
    checks.append(
        passed("d-eigenvector") if witness is None else failed("d-eigenvector", witness)
    )
    return Verdict(tuple(checks))


def connected_ade(max_level: int):
    cases = [(f"A:{lvl + 1}", lvl) for lvl in range(1, max_level + 1)]
    cases += [(f"D:{n}", 2 * n - 4) for n in range(4, max_level // 2 + 3)]
    return cases + [("E:6", 10), ("E:7", 16)]


def test_phi_matches_scalar_oracle_on_perturbed_lambda():
    rng = random.Random(1505)
    cases = connected_ade(16)
    seen = set()
    for _ in range(36):
        tag, lvl = rng.choice(cases)
        md = su2_modular_data(lvl)
        nr = su2_nimrep_from_graph(ade_graph(tag), lvl)
        lam = list(d_eigenvector(nr, md))
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(nr.size)
            lam[j] = lam[j] * zeta(5) if rng.random() < 0.5 else lam[j] + Fraction(1, 3)
        lam = tuple(lam)
        v = verify_phi_isomorphism(nr, lam, md)
        assert v == scalar_phi(nr, lam, md), (tag, lvl, lam)
        if nr.size <= 6:
            assert encircling_matrices(nr, lam) == scalar_encircling(nr, lam), (tag, lvl)
        seen.add(tuple(c.passed for c in v.checks))
    assert seen == {(True, True), (True, False)}


def test_phi_witness_pinned_for_shifted_lambda():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    md = su2_modular_data(2)
    lam = d_eigenvector(nr, md)
    v = verify_phi_isomorphism(nr, (lam[0] + Fraction(1, 3), *lam[1:]), md)
    assert [(c.name, c.passed) for c in v.checks] == [("intertwiner", True), ("d-eigenvector", False)]
    assert v.first_failure.witness == "row 0 of E(1) sums to (3*z8 - 3*z8^3)/4, not d(1)"


def test_phi_on_huge_lambda_takes_python_ints():
    nr = su2_nimrep_from_graph(ade_graph("D:10"), 16)
    md = su2_modular_data(16)
    lam = tuple(x * 2**70 for x in d_eigenvector(nr, md))
    assert FieldTensor.of(lam).layers.dtype == object
    v = verify_phi_isomorphism(nr, lam, md)
    assert [(c.name, c.passed) for c in v.checks] == [("intertwiner", True), ("d-eigenvector", True)]


def test_phi_shape_checked_before_zero_lambda():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    md = su2_modular_data(2)
    with pytest.raises(ShapeMismatch):
        verify_phi_isomorphism(nr, (ZERO, ONE), md)
    with pytest.raises(DegenerateScalar, match=r"lambda\[1\] is zero"):
        verify_phi_isomorphism(nr, (ONE, ZERO, ZERO), md)


def test_phi_refuses_modular_data_of_another_rank():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    lam = d_eigenvector(nr, su2_modular_data(2))
    for level in (1, 4):
        with pytest.raises(ShapeMismatch, match="modular data rank differs"):
            verify_phi_isomorphism(nr, lam, su2_modular_data(level))
