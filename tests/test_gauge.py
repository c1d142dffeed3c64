"""Gauge cochain validation, per-component solving, encircling matrices,
and the module-isomorphism verdict."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import gauge, nimrep
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
from fuselab.io import data_to_json, parse_data
from fuselab.modular import su2_modular_data
from fuselab.nimrep import NimRep, a_graph, ade_graph, d_eigenvector, su2_nimrep_from_graph
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
    # the constructor refuses the pair set; no problem reaches validate_mu
    with pytest.raises(MissingPair, match=r"^pair \(0,1\) present but \(1,0\) missing$"):
        GaugeProblem.build(("1", "2"), {(0, 0): ONE, (1, 1): ONE, (0, 1): rat(2)})


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
    with pytest.raises(
        MissingPair, match=r"^pairs \(0,1\), \(1,2\) present but \(0,2\) missing$"
    ):
        GaugeProblem.build(("1", "2", "3"), mu)


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


def test_phi_exact_where_the_module_dtype_depends_on_inner():
    # (2**30 + 1)**2 fits a sum of one product in int64, not a sum of size = 5
    nr, md = su2_nimrep_from_graph(ade_graph("A:5"), 4), su2_modular_data(4)
    lam = d_eigenvector(nr, md)
    mats = nr.mats.tolist()
    mats[1][0][1] += 2**30
    mats[1][1][0] += 2**30
    bumped = NimRep(ring=nr.ring, boundaryLabels=nr.boundaryLabels, mats=mats)
    assert nr.mats.dtype == np.int64 and bumped.mats.dtype == object
    v = verify_phi_isomorphism(bumped, lam, md)
    assert v == scalar_phi(bumped, lam, md)
    assert v.first_failure.witness.startswith("row 0 of E(1) sums to ")
    assert encircling_matrices(bumped, lam) == scalar_encircling(bumped, lam)


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


# -- the star cocycle check against the full triangle scan it replaced ------


def closed_partners(n: int, pairs) -> dict[int, list[int]]:
    """Reference: the nodes paired with each node apart from itself, once the
    pair list is found reflexive, symmetric and closed under composition;
    otherwise MissingPair names the first gap."""
    J = set(pairs)
    for i in range(n):
        if (i, i) not in J:
            raise MissingPair(f"missing reflexive pair ({i},{i})")
    for i, j in pairs:
        if (j, i) not in J:
            raise MissingPair(f"pair ({i},{j}) present but ({j},{i}) missing")
    out: dict[int, list[int]] = {}
    for i, j in pairs:
        if i != j:
            out.setdefault(i, []).append(j)
    for i, js in out.items():
        for j in js:
            for k in out.get(j, ()):
                if (i, k) not in J:
                    raise MissingPair(f"pairs ({i},{j}), ({j},{k}) present but ({i},{k}) missing")
    return out


def triangle_scan_mu(gp: GaugeProblem) -> Verdict:
    """Reference: validate_mu with the full row-major triangle scan."""
    n = len(gp.nodes)
    mu = gp.mu_map()
    out = closed_partners(n, gp.pairs)
    checks = []
    for i in range(n):
        if mu[(i, i)] != ONE:
            return Verdict((*checks, failed("diagonal-units", f"mu[{i},{i}] != 1")))
    checks.append(passed("diagonal-units"))
    for i, j in gp.pairs:
        if i < j and mu[(i, j)] * mu[(j, i)] != ONE:
            return Verdict((*checks, failed("inverse-pairs", f"mu[{i},{j}] * mu[{j},{i}] != 1")))
    checks.append(passed("inverse-pairs"))
    for i, js in sorted(out.items()):
        for j in sorted(js):
            for k in sorted(out.get(j, ())):
                if k != i and mu[(i, j)] * mu[(j, k)] != mu[(i, k)]:
                    return Verdict((*checks, failed("cocycle", f"triangle ({i},{j},{k})")))
    checks.append(passed("cocycle"))
    return Verdict(tuple(checks))


@st.composite
def gauge_scalars(draw):
    """A nonzero lambda at order 24: a monomial zeta_24^e * q, or a dense sum."""
    q = draw(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
    if draw(st.booleans()):
        return zeta(24, draw(st.integers(0, 23))) * q
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=24, max_size=24))
    x = CycloNumber(24, coeffs) + q
    return x if not x.is_zero else rat(q)


@st.composite
def corrupted_cliques(draw):
    """A union of up to three cliques of up to six nodes with mu_ij =
    lambda_i / lambda_j, then 0-2 corruptions: a diagonal entry, one side
    of an inverse pair, or a triangle (both sides of one pair, so the
    inverse pairs still hold)."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    lam = [draw(gauge_scalars()) for _ in range(sum(sizes))]
    comps, start = [], 0
    for size in sizes:
        comps.append(range(start, start + size))
        start += size
    mu = clique_mu(lam, comps)
    factor = draw(st.sampled_from([rat(2), zeta(24, 5), zeta(3) + rat(Fraction(1, 3))]))
    for _ in range(draw(st.integers(0, 2))):
        comp = draw(st.sampled_from(comps))
        kind = draw(st.sampled_from(["diagonal", "inverse-pair", "triangle", "triangle"]))
        i = draw(st.sampled_from(comp))
        if kind == "diagonal" or len(comp) == 1:
            mu[(i, i)] = mu[(i, i)] * factor
        else:
            j = draw(st.sampled_from([x for x in comp if x != i]))
            mu[(i, j)] = mu[(i, j)] * factor
            if kind == "triangle":
                mu[(j, i)] = mu[(j, i)] / factor
    return GaugeProblem.build(tuple(map(str, range(len(lam)))), mu)


@settings(max_examples=150, deadline=None)
@given(corrupted_cliques())
def test_star_cocycle_matches_the_triangle_scan(gp):
    assert validate_mu(gp) == triangle_scan_mu(gp)


def test_star_cocycle_witnesses_pinned():
    rng = random.Random(2406)
    lam = [zeta(24, rng.randrange(24)) * rat(Fraction(rng.randint(1, 5), 3)) for _ in range(6)]
    for comps, (i, k), witness in [
        ([range(6)], (2, 4), "triangle (0,2,4)"),
        ([range(6)], (0, 5), "triangle (0,1,5)"),
        ([range(3), range(3, 6)], (4, 5), "triangle (3,4,5)"),
    ]:
        mu = clique_mu(lam, comps)
        assert validate_mu(GaugeProblem.build(tuple("abcdef"), mu)).ok
        mu[(i, k)], mu[(k, i)] = mu[(i, k)] * 2, mu[(k, i)] / 2
        gp = GaugeProblem.build(tuple("abcdef"), mu)
        assert validate_mu(gp) == triangle_scan_mu(gp)
        assert [(c.name, c.witness) for c in validate_mu(gp).checks] == [
            ("diagonal-units", ""), ("inverse-pairs", ""), ("cocycle", witness)
        ]


def count_products(monkeypatch):
    """Count the CycloNumber products made from outside CycloNumber.__mul__."""
    calls, depth = [], [0]
    original = CycloNumber.__mul__

    def counted(self, other):
        if not depth[0]:
            calls.append(1)
        depth[0] += 1
        try:
            return original(self, other)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(CycloNumber, "__mul__", counted)
    return calls


def test_star_cocycle_takes_at_most_n_squared_products(monkeypatch):
    lam = [zeta(24, 5 * k) * rat(k + 1) + rat(Fraction(1, 2)) for k in range(6)]
    gp = GaugeProblem.build(tuple("abcdef"), clique_mu(lam, [range(6)]))
    calls = count_products(monkeypatch)
    assert validate_mu(gp).ok
    assert len(calls) <= 6 * 6


@pytest.mark.parametrize(
    "drop, message",
    [
        ([(1, 1)], "missing reflexive pair (1,1)"),
        ([(1, 0)], "pair (0,1) present but (1,0) missing"),
        ([(2, 0)], "pair (0,2) present but (2,0) missing"),
        ([(0, 2), (2, 0)], "pairs (0,1), (1,2) present but (0,2) missing"),
    ],
)
def test_missing_pair_texts(drop, message):
    mu = clique_mu([ONE, rat(2), zeta(5)], [range(3)])
    for pair in drop:
        del mu[pair]
    with pytest.raises(MissingPair) as info:
        GaugeProblem.build(("a", "b", "c"), mu)
    assert str(info.value) == message


# -- the re-checks the solver and the phi check no longer make, as oracles --


def root_grouping(n: int, pairs):
    """Reference: the least node r paired with each node j, and the nodes
    grouped by r in ascending order of r."""
    root = tuple(min(i for i in range(n) if (i, j) in pairs) for j in range(n))
    return root, tuple(tuple(j for j in range(n) if root[j] == r) for r in sorted(set(root)))


def inverse_root_solution(gp: GaugeProblem):
    """Reference: lambda_j = 1 / mu_rj for the least node r paired with j,
    and the components grouped by r."""
    mu = gp.mu_map()
    root, components = root_grouping(len(gp.nodes), mu)
    return tuple(mu[(r, j)].inverse() for j, r in enumerate(root)), components


@settings(max_examples=150, deadline=None)
@given(corrupted_cliques())
def test_solved_lambda_meets_every_pair(gp):
    if not validate_mu(gp).ok:
        with pytest.raises(GaugeInconsistent):
            solve_gauge(gp)
        return
    sol = solve_gauge(gp)
    for (i, j), value in gp.mu_map().items():
        assert value * sol.lam[j] == sol.lam[i], (i, j)
    assert (sol.lam, sol.components) == inverse_root_solution(gp)


def count_inversions(monkeypatch):
    """Count the field inverses computed (not those kept on a number)."""
    calls = []
    original = CycloNumber._inverted

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CycloNumber, "_inverted", counted)
    return calls


def test_passing_phi_check_takes_no_inverse(monkeypatch):
    nr = su2_nimrep_from_graph(ade_graph("D:10"), 16)
    md = su2_modular_data(16)
    lam = d_eigenvector(nr, md)
    calls = count_inversions(monkeypatch)
    assert verify_phi_isomorphism(nr, lam, md).ok
    assert calls == []


def test_solving_a_dense_clique_takes_no_inverse(monkeypatch):
    lam = [zeta(24, 5 * k) * rat(k + 1) + rat(Fraction(1, 2)) for k in range(6)]
    gp = GaugeProblem.build(tuple("abcdef"), clique_mu(lam, [range(4), range(4, 6)]))
    calls = count_inversions(monkeypatch)
    sol = solve_gauge(gp)
    assert calls == []
    assert sol.lam[1] * lam[0] == lam[1]  # the root 0 gets 1, node 1 gets mu_10
    assert sol.components == ((0, 1, 2, 3), (4, 5))


def test_failing_phi_check_takes_one_inverse_for_its_witness(monkeypatch):
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    md = su2_modular_data(2)
    lam = d_eigenvector(nr, md)
    lam = (lam[0] + Fraction(1, 3), *lam[1:])
    calls = count_inversions(monkeypatch)
    v = verify_phi_isomorphism(nr, lam, md)
    assert v.first_failure.witness == "row 0 of E(1) sums to (3*z8 - 3*z8^3)/4, not d(1)"
    assert len(calls) <= 1


# -- what the constructor holds: J's closure, the field budget, the roots ----


@st.composite
def open_cliques(draw):
    """Nodes and mu_ij = lambda_i / lambda_j on a union of up to three
    cliques of up to six nodes, shuffled so components interleave, with 0-2
    pairs dropped: a reflexive pair, one side of a pair, or both sides of a
    pair, which closes a triangle in a clique of three or more nodes."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    n = sum(sizes)
    lam = [zeta(24, draw(st.integers(0, 23))) for _ in range(n)]
    shuffled = draw(st.permutations(range(n)))
    comps, start = [], 0
    for size in sizes:
        comps.append(sorted(shuffled[start:start + size]))
        start += size
    mu = clique_mu(lam, comps)
    for _ in range(draw(st.integers(0, 2))):
        comp = draw(st.sampled_from(comps))
        kind = draw(st.sampled_from(["reflexive", "one side", "both sides"]))
        i = draw(st.sampled_from(comp))
        j = i if kind == "reflexive" or len(comp) == 1 else draw(
            st.sampled_from([x for x in comp if x != i])
        )
        mu.pop((i, j), None)
        if kind == "both sides":
            mu.pop((j, i), None)
    return tuple(map(str, range(n))), mu


@settings(max_examples=200, deadline=None)
@given(open_cliques())
def test_constructor_refuses_open_pair_sets_and_holds_the_roots(case):
    nodes, mu = case
    try:
        closed_partners(len(nodes), sorted(mu))
    except MissingPair as gap:
        with pytest.raises(MissingPair) as info:
            GaugeProblem.build(nodes, mu)
        assert str(info.value) == str(gap)
        return
    gp = GaugeProblem.build(nodes, mu)
    assert (gp.root, gp.components) == root_grouping(len(nodes), mu)
    assert solve_gauge(gp).components == gp.components


def test_mu_map_is_a_copy():
    mu = clique_mu([ONE, rat(2), zeta(5)], [(0, 2), (1,)])
    gp = GaugeProblem.build(("a", "b", "c"), mu)
    held = (gp.pairs, gp.mu, gp.root, gp.components, gp.mu_map())
    assert held[4] == mu and gp.mu_map() is not gp.mu_map()
    # the problem keeps no pair map of its own: mu_map builds a fresh one
    assert not [k for k, v in vars(gp).items() if isinstance(v, dict) and k != "_derived"]
    copy = gp.mu_map()
    copy[(0, 2)] = rat(7)
    del copy[(2, 0)]
    copy[(0, 1)] = ONE
    assert (gp.pairs, gp.mu, gp.root, gp.components, gp.mu_map()) == held
    assert held[2:4] == ((0, 1, 0), ((0, 2), (1,)))
    assert solve_gauge(gp).lam == (ONE, ONE, zeta(5))
    # the derived fields are not part of the value
    twin = GaugeProblem(gp.nodes, gp.pairs, gp.mu)
    assert twin == gp and hash(twin) == hash(gp) and "root" not in repr(gp)


def test_construction_makes_no_field_operation(monkeypatch):
    lam = [zeta(24, 5 * k) * rat(k + 1) + rat(Fraction(1, 2)) for k in range(7)]
    mu = clique_mu(lam, [(0, 2, 5), (1, 3), (4,), (6,)])
    gap = {p: x for p, x in mu.items() if p != (2, 5)}
    # zeta_181 * zeta_191 lives in Q(zeta_34571), over the budget, in the
    # second component
    over = {(i, j): ONE for i in range(1, 4) for j in range(1, 4)}
    over[(0, 0)] = ONE
    over[(1, 2)], over[(2, 1)] = zeta(181), zeta(181, 180)
    over[(2, 3)], over[(3, 2)] = zeta(191), zeta(191, 190)
    products, inverses = count_products(monkeypatch), count_inversions(monkeypatch)
    gp = GaugeProblem.build(tuple("abcdefg"), mu)
    with pytest.raises(MissingPair, match=r"^pair \(5,2\) present but \(2,5\) missing$"):
        GaugeProblem.build(tuple("abcdefg"), gap)
    with pytest.raises(ShapeMismatch, match="^field order 34571 exceeds the budget of 32768$"):
        GaugeProblem.build(tuple("abcd"), over)
    assert products == [] and inverses == []
    assert gp.root == (0, 1, 0, 1, 4, 0, 6)
    assert gp.components == ((0, 2, 5), (1, 3), (4,), (6,))


# -- verdicts held on the module and on the problem -------------------------


def count_phi_work(monkeypatch):
    """Record each d-image contraction and FieldTensor the phi check makes."""
    calls = []
    image, of = gauge._d_image, FieldTensor.of.__func__

    def counted_image(*args):
        calls.append("_d_image")
        return image(*args)

    def counted_of(cls, values):
        calls.append("of")
        return of(cls, values)

    monkeypatch.setattr(gauge, "_d_image", counted_image)
    monkeypatch.setattr(FieldTensor, "of", classmethod(counted_of))
    return calls


def phi_slot(nr):
    return nr._derived[gauge._phi_verdict.__wrapped__]


def test_repeated_phi_check_returns_the_held_verdict(monkeypatch):
    md = su2_modular_data(6)
    nr = nimrep._build_module(md.ring, ade_graph("D:5"))
    lam = d_eigenvector(nr, md)
    calls = count_phi_work(monkeypatch)
    first = verify_phi_isomorphism(nr, lam, md)
    assert first.ok and calls == ["of", "_d_image"]
    calls.clear()
    for _ in range(3):
        assert verify_phi_isomorphism(nr, lam, md) is first
    assert calls == []
    args, held = phi_slot(nr)
    assert args[0] is lam and args[1] is md and held is first


def test_phi_check_on_other_arguments_is_recomputed_and_replaces_the_slot(monkeypatch):
    source = su2_modular_data(4)
    nr = nimrep._build_module(source.ring, ade_graph("D:4"))
    lam = d_eigenvector(nr, source)
    first = verify_phi_isomorphism(nr, lam, source)
    twin = parse_data(data_to_json(source))
    assert twin == source and twin is not source
    fresh = tuple(list(lam))
    assert fresh == lam and fresh is not lam
    calls = count_phi_work(monkeypatch)
    # a list, an equal fresh tuple, the held tuple again, then an equal datum
    for other_lam, md in ((list(lam), source), (fresh, source), (lam, source), (lam, twin)):
        calls.clear()
        v = verify_phi_isomorphism(nr, other_lam, md)
        assert calls == ["of", "_d_image"]
        assert v == first and v is not first
        args, held = phi_slot(nr)
        assert held is v and args[1] is md and args[0] == lam
        # a tuple of CycloNumbers is held as it was given, a list as a new tuple
        assert (args[0] is other_lam) == isinstance(other_lam, tuple)
        first = v


def test_failing_phi_check_gives_the_same_witness_on_every_call():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    md = su2_modular_data(2)
    lam = d_eigenvector(nr, md)
    shifted = (lam[0] + Fraction(1, 3), *lam[1:])
    want = "row 0 of E(1) sums to (3*z8 - 3*z8^3)/4, not d(1)"
    for arg in (shifted, shifted, list(shifted), shifted):
        assert verify_phi_isomorphism(nr, arg, md).first_failure.witness == want


def test_a_phi_check_that_raises_holds_nothing():
    md = su2_modular_data(2)
    nr = nimrep._build_module(md.ring, a_graph(3))
    zero = (ONE, ZERO, ONE)
    lam = d_eigenvector(nr, md)
    for _ in range(3):
        with pytest.raises(DegenerateScalar, match=r"^lambda\[1\] is zero$"):
            verify_phi_isomorphism(nr, zero, md)
        with pytest.raises(ShapeMismatch, match="modular data rank differs"):
            verify_phi_isomorphism(nr, lam, su2_modular_data(4))
    assert gauge._phi_verdict.__wrapped__ not in nr._derived


def test_lambda_of_plain_numbers_is_coerced_or_refused():
    md = su2_modular_data(2)
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    exact = (ONE, rat(2), ONE)
    for lam in ([1, 2, 1], (1, Fraction(2), 1), [ONE, 2, Fraction(1)]):
        assert verify_phi_isomorphism(nr, lam, md) == verify_phi_isomorphism(nr, exact, md)
        assert encircling_matrices(nr, lam) == encircling_matrices(nr, exact)
    for lam, i, shown in (
        ((1.0, 1.0, 1.0), 0, "1.0"),
        ([1, True, 1], 1, "True"),
        ((ONE, ONE, "1"), 2, "'1'"),
        ([1, 1, complex(1)], 2, r"\(1\+0j\)"),
    ):
        message = rf"^lambda\[{i}\] = {shown} is not a cyclotomic or rational number$"
        with pytest.raises(ShapeMismatch, match=message):
            verify_phi_isomorphism(nr, lam, md)
        with pytest.raises(ShapeMismatch, match=message):
            encircling_matrices(nr, lam)
    # the length is checked first, then each entry in order
    with pytest.raises(ShapeMismatch, match="^lambda length must match"):
        verify_phi_isomorphism(nr, (1.0, 1.0), md)
    with pytest.raises(DegenerateScalar, match=r"^lambda\[0\] is zero$"):
        verify_phi_isomorphism(nr, (0, 1.0, 1), md)


def test_solve_after_validation_makes_no_product(monkeypatch):
    lam = [zeta(24, 5 * k) * rat(k + 1) + rat(Fraction(1, 2)) for k in range(6)]
    gp = GaugeProblem.build(tuple("abcdef"), clique_mu(lam, [range(4), range(4, 6)]))
    v = validate_mu(gp)
    calls = count_products(monkeypatch)
    assert validate_mu(gp) is v
    sol = solve_gauge(gp)
    assert calls == []
    assert sol.lam[1] * lam[0] == lam[1] and sol.components == ((0, 1, 2, 3), (4, 5))
    mu = gp.mu_map()
    assert sol.lam == tuple(mu[(j, r)] for j, r in enumerate(gp.root))


def test_corrupt_problem_raises_the_same_triangle_on_every_call(monkeypatch):
    lam = [zeta(24, 5 * k) * rat(k + 1) + rat(Fraction(1, 2)) for k in range(5)]
    mu = clique_mu(lam, [range(5)])
    mu[(1, 3)], mu[(3, 1)] = mu[(1, 3)] * 2, mu[(3, 1)] / 2
    gp = GaugeProblem.build(tuple("abcde"), mu)
    v = validate_mu(gp)
    assert v.first_failure.witness == "triangle (0,1,3)"
    calls = count_products(monkeypatch)
    for _ in range(3):
        with pytest.raises(GaugeInconsistent, match=r"^cocycle: triangle \(0,1,3\)$"):
            solve_gauge(gp)
        assert validate_mu(gp) is v
    assert calls == []
    # an equal problem is validated again, to the same verdict
    twin = GaugeProblem(gp.nodes, gp.pairs, gp.mu)
    assert validate_mu(twin) == v and calls
