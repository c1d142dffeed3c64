"""Boundary graphs, the module builder (the su(2) Chebyshev modules and
modules over any ring that label 1 generates), multiplicity profiles with a
floating eigen-decomposition oracle, and d-eigenvectors."""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scalar_oracles import idempotent_profile, scalar_idempotent_family

from fuselab import cyclo, fusion, modular, nimrep
from fuselab.cyclo import ONE, ZERO, CycloNumber, exact_ints, sin_ratio, zeta
from fuselab.errors import (
    DegenerateScalar,
    MultiplicityNotOne,
    NonIntegralMultiplicity,
    NotANimRep,
    ShapeMismatch,
)
from fuselab.fusion import FusionRing, su2_fusion_ring, verify_axioms
from fuselab.invariants import tm_dimension_report
from fuselab.io import data_to_json, parse_data
from fuselab.modular import (
    ModularData,
    SpectrumPoint,
    catalog_names,
    ising_modular_data,
    load_catalog,
    su2_modular_data,
)
from fuselab.nimrep import (
    BoundaryGraph,
    NimRep,
    _profile,
    a_graph,
    ade_graph,
    character,
    d_eigenvector,
    d_graph,
    disjoint_union,
    e_graph,
    multiplicity_profile,
    nimrep_from_graph,
    regular_nimrep,
    su2_nimrep_from_graph,
    verify_nimrep,
)
from fuselab.verdict import failed, passed


def eigen_oracle_profile(adjacency, level: int) -> list[int]:
    """Multiplicity of eigenvalue 2cos(pi(I+1)/h) in the adjacency matrix,
    by float eigen-decomposition; counts are exact once each eigenvalue is
    matched within 1e-9."""
    h = level + 2
    targets = [2 * math.cos(math.pi * (I + 1) / h) for I in range(level + 1)]
    eigs = np.linalg.eigvalsh(np.array(adjacency, dtype=float))
    counts = [0] * (level + 1)
    for e in eigs:
        hits = [I for I, t in enumerate(targets) if abs(e - t) < 1e-9]
        assert len(hits) == 1, f"eigenvalue {e} matched {hits}"
        counts[hits[0]] += 1
    return counts


def test_ade_shapes_pinned():
    assert a_graph(2).adjacency == ((0, 1), (1, 0))
    # D4 forks at vertex 1: path 0-1, legs 2 and 3 both attached to 1
    d4 = d_graph(4)
    assert d4.adjacency == (
        (0, 1, 0, 0),
        (1, 0, 1, 1),
        (0, 1, 0, 0),
        (0, 1, 0, 0),
    )
    e6 = e_graph(6)
    assert e6.size == 6
    degrees = sorted(sum(row) for row in e6.adjacency)
    assert degrees == [1, 1, 1, 2, 2, 3]


def test_graph_family_tag_checked():
    with pytest.raises(ShapeMismatch):
        BoundaryGraph(
            vertices=("1", "2"), adjacency=((0, 1), (1, 0)), family="A:3"
        )
    with pytest.raises(ShapeMismatch):
        ade_graph("E:9")
    with pytest.raises(ShapeMismatch):
        ade_graph("F:4")


def test_graph_structural_checks():
    with pytest.raises(ShapeMismatch):
        BoundaryGraph(vertices=("a", "b"), adjacency=((0, 1), (0, 0)))
    with pytest.raises(ShapeMismatch):
        BoundaryGraph(vertices=("a", "b"), adjacency=((0, -1), (-1, 0)))
    with pytest.raises(ShapeMismatch):
        BoundaryGraph(vertices=("a",), adjacency=((0, 1), (1, 0)))
    with pytest.raises(ShapeMismatch, match="a boundary graph needs at least one vertex"):
        BoundaryGraph(vertices=(), adjacency=())


def test_bool_adjacency_rejected():
    # bool is an int subclass; both shapes used to slip past the check
    for adjacency in (((0, True), (True, 0)), ((False,),)):
        vertices = tuple(str(k) for k in range(len(adjacency)))
        with pytest.raises(ShapeMismatch, match=r"adjacency\[0\]\[\d\] must be a non-negative integer"):
            BoundaryGraph(vertices=vertices, adjacency=adjacency)


def test_a2_level_one():
    nr = su2_nimrep_from_graph(a_graph(2), 1)
    assert nr.mats[1].tolist() == [[0, 1], [1, 0]]
    assert verify_nimrep(nr.ring, nr.mats).ok


def test_a3_level_two_antidiagonal():
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    assert nr.mats[2].tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_coxeter_mismatch_raises():
    with pytest.raises(NotANimRep) as info:
        su2_nimrep_from_graph(a_graph(2), 2)
    assert info.value.witness


def test_tadpole_fails_homomorphism():
    ring = su2_fusion_ring(2)
    A = np.array([[0, 1], [1, 1]], dtype=np.int64)
    mats = (np.eye(2, dtype=np.int64), A, A @ A - np.eye(2, dtype=np.int64))
    v = verify_nimrep(ring, mats)
    assert not v.ok
    assert v.first_failure.name == "homomorphism"


def test_a_module_whose_unit_is_not_the_identity_fails_unit():
    # non-negative, so unit is the first check to fail
    ring = su2_fusion_ring(1)
    swap = [[0, 1], [1, 0]]
    v = verify_nimrep(ring, (swap, swap))
    assert v.checks == (passed("non-negativity"), failed("unit", "N(0) is not the identity"))


def test_regular_nimrep_passes_on_builtins():
    for name in ("su2:0", "su2:3", "fibonacci", "ising", "zn:4", "zn:5"):
        md = load_catalog(name)
        nr = regular_nimrep(md.ring)
        assert verify_nimrep(nr.ring, nr.mats).ok, name


def test_rank_one_module():
    ring = su2_fusion_ring(0)
    assert verify_nimrep(ring, (np.ones((1, 1), dtype=np.int64),)).ok


def _py_matmul(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]


def test_recurrence_exact_past_int64_on_k10():
    # The complete graph K10 at level 28: N(x_k) grows like 9**k, far past
    # int64. The exact recurrence stays non-negative, so the module fails
    # the homomorphism identity at N(1)N(28) = N(27) with the exact values.
    n = 10
    A = [[int(i != j) for j in range(n)] for i in range(n)]
    mats = [[[int(i == j) for j in range(n)] for i in range(n)], A]
    for _ in range(27):
        AX = _py_matmul(A, mats[-1])
        mats.append([[x - y for x, y in zip(r, s)] for r, s in zip(AX, mats[-2])])
    assert all(x >= 0 for m in mats for row in m for x in row)
    assert mats[28][0][0] > 2**63
    got, want = _py_matmul(A, mats[28]), mats[27]
    j, i = next((j, i) for j in range(n) for i in range(n) if got[j][i] != want[j][i])
    g = BoundaryGraph(vertices=tuple(map(str, range(n))), adjacency=tuple(map(tuple, A)))
    with pytest.raises(NotANimRep) as info:
        su2_nimrep_from_graph(g, 28)
    assert str(info.value) == (
        f"homomorphism: (N(1)N(28))[{j},{i}] = {got[j][i]} != {want[j][i]}"
    )


def test_recurrence_exact_with_huge_adjacency(capsys, tmp_path):
    # A^2 - I = (2**64 - 1) I, which int64 would report as -1
    from fuselab.cli import main
    from fuselab.io import write_data_file

    path = tmp_path / "heavy.json"
    write_data_file(path, BoundaryGraph(vertices=("a", "b"), adjacency=((0, 2**32), (2**32, 0))))
    code = main(["nimrep", "check", "--data", "su2:2", "--graph", f"custom:{path}"])
    assert code == 1
    out = capsys.readouterr().out
    assert f"homomorphism: (N(1)N(2))[0,1] = {(2**64 - 1) * 2**32} != {2**32}" in out


def test_homomorphism_witness_exact_past_int64():
    ring = su2_fusion_ring(2)
    want = "fail: homomorphism at (N(1)N(1))[0,0] = 18446744073709551616 != 6"
    assert verify_nimrep(ring, ([[1]], [[2**32]], [[5]])).describe() == want
    as_arrays = tuple(np.array([[x]], dtype=np.int64) for x in (1, 2**32, 5))
    assert verify_nimrep(ring, as_arrays).describe() == want


def test_bool_module_entries_rejected():
    # numpy reads [1, True] as int64, so the bool must be caught before it
    ring = su2_fusion_ring(1)
    flip = [[0, 1], [1, 0]]
    for mats in (
        [[[1, 0], [0, True]], flip],
        [[[True, False], [False, True]], flip],
        (np.eye(2, dtype=bool), np.array(flip)),
        (np.array([[1, 0], [0, np.True_]], dtype=object), flip),
    ):
        with pytest.raises(ShapeMismatch, match="not bool"):
            verify_nimrep(ring, mats)
        with pytest.raises(ShapeMismatch, match="not bool"):
            NimRep(ring=ring, boundaryLabels=("a", "b"), mats=mats)
    assert verify_nimrep(ring, [[[1, 0], [0, 1]], flip]).ok


def test_nimrep_shape_checked_when_made():
    ring = su2_fusion_ring(1)
    flip = [[0, 1], [1, 0]]
    with pytest.raises(ShapeMismatch, match="expected 2 matrices, got 1"):
        NimRep(ring=ring, boundaryLabels=("a", "b"), mats=[flip])
    for mats in ([[[1]], flip], [[[1, 0], [0]], flip], [[1, 0], [0, 1]], [[[1, 0]], [[0, 1]]]):
        with pytest.raises(ShapeMismatch, match="matrices must be square and share one size"):
            NimRep(ring=ring, boundaryLabels=("a", "b"), mats=mats)
        with pytest.raises(ShapeMismatch, match="matrices must be square and share one size"):
            verify_nimrep(ring, mats)
    with pytest.raises(ShapeMismatch, match="matrix entries must be integers"):
        verify_nimrep(ring, [[[1, 0], [0, 0.5]], flip])
    with pytest.raises(ShapeMismatch, match="3 boundary labels for matrices of size 2"):
        NimRep(ring=ring, boundaryLabels=("a", "b", "c"), mats=[[[1, 0], [0, 1]], flip])


def test_duality_transpose_checked():
    # zn:3 has dual(1) = 2; the regular module must pair them by transpose
    md = load_catalog("zn:3")
    nr = regular_nimrep(md.ring)
    assert verify_nimrep(nr.ring, nr.mats).ok
    mats = list(nr.mats)
    mats[1] = mats[1].T  # now N(1) = N(2), breaking N(a^dual) = N(a)^T
    v = verify_nimrep(nr.ring, tuple(mats))
    assert not v.ok


def test_character_pinned():
    nr = su2_nimrep_from_graph(a_graph(2), 1)
    assert character(nr) == (2, 0)
    reg = regular_nimrep(su2_fusion_ring(2))
    assert character(reg) == (3, 0, 1)
    reg0 = regular_nimrep(su2_fusion_ring(0))
    assert character(reg0) == (1,)


def test_profile_pinned():
    md1 = su2_modular_data(1)
    nr = su2_nimrep_from_graph(a_graph(2), 1)
    assert multiplicity_profile(nr, md1) == (1, 1)
    md4 = su2_modular_data(4)
    d4 = su2_nimrep_from_graph(d_graph(4), 4)
    assert multiplicity_profile(d4, md4) == (1, 0, 2, 0, 1)


def test_profile_e6_exponents():
    md = su2_modular_data(10)
    nr = su2_nimrep_from_graph(e_graph(6), 10)
    assert multiplicity_profile(nr, md) == (1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1)


def test_profile_regular_all_ones():
    for name in ("su2:2", "su2:6", "fibonacci", "ising", "zn:5"):
        md = load_catalog(name)
        nr = regular_nimrep(md.ring)
        assert multiplicity_profile(nr, md) == tuple([1] * md.rank), name


def test_profile_matches_eigen_oracle():
    cases = [("A:5", 4), ("A:8", 7), ("D:5", 6), ("D:6", 8), ("E:6", 10), ("E:7", 16)]
    for tag, lev in cases:
        g = ade_graph(tag)
        nr = su2_nimrep_from_graph(g, lev)
        md = su2_modular_data(lev)
        assert list(multiplicity_profile(nr, md)) == eigen_oracle_profile(
            g.adjacency, lev
        ), tag


def test_profile_sums_to_boundary_size():
    for tag, lev in [("A:3", 2), ("D:4", 4), ("E:8", 28)]:
        nr = su2_nimrep_from_graph(ade_graph(tag), lev)
        md = su2_modular_data(lev)
        assert sum(multiplicity_profile(nr, md)) == nr.size


def test_d_eigenvector_pinned():
    md = su2_modular_data(2)
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    v = d_eigenvector(nr, md)
    assert v == (ONE, sin_ratio(2, 4), ONE)
    md1 = su2_modular_data(1)
    nr1 = su2_nimrep_from_graph(a_graph(2), 1)
    assert d_eigenvector(nr1, md1) == (ONE, ONE)


def test_d_eigenvector_is_exact_eigenvector():
    for tag, lev in [("D:4", 4), ("E:6", 10)]:
        md = su2_modular_data(lev)
        nr = su2_nimrep_from_graph(ade_graph(tag), lev)
        v = d_eigenvector(nr, md)
        assert v[0] == ONE
        for a in range(md.rank):
            mat = nr.mats[a]
            for j in range(nr.size):
                got = sum(
                    (v[i] * int(mat[j, i]) for i in range(nr.size)),
                    CycloNumber.from_rational(0),
                )
                assert got == md.d[a] * v[j]


def test_disjoint_union_decomposable():
    md = su2_modular_data(1)
    two = disjoint_union(a_graph(2), a_graph(2))
    nr = su2_nimrep_from_graph(two, 1)
    assert multiplicity_profile(nr, md) == (2, 2)
    with pytest.raises(MultiplicityNotOne):
        d_eigenvector(nr, md)


def test_union_profile_adds():
    md = su2_modular_data(4)
    u = disjoint_union(a_graph(5), d_graph(4))
    nr = su2_nimrep_from_graph(u, 4)
    pa = multiplicity_profile(su2_nimrep_from_graph(a_graph(5), 4), md)
    pd = multiplicity_profile(su2_nimrep_from_graph(d_graph(4), 4), md)
    assert multiplicity_profile(nr, md) == tuple(x + y for x, y in zip(pa, pd))


# -- projector traces and the d-eigenvector against the scalar loops --------


def scalar_profile(nr, md):
    """Reference: m[I] = sum_S coeff_S(e_I) * chi[S] in scalar arithmetic."""
    chi = character(nr)
    out = []
    for I, e in enumerate(scalar_idempotent_family(md)):
        val = sum((c * chi[s] for s, c in enumerate(e.coeffs) if chi[s]), ZERO)
        if not val.is_rational:
            raise NonIntegralMultiplicity(f"projector trace for label {I} is irrational")
        q = val.as_rational()
        if q.denominator != 1 or q < 0:
            raise NonIntegralMultiplicity(
                f"projector trace for label {I} is {q}, not a non-negative integer"
            )
        out.append(int(q))
    if sum(out) != nr.size:
        raise NonIntegralMultiplicity(
            f"profile sums to {sum(out)}, expected {nr.size} boundary labels"
        )
    return tuple(out)


def scalar_d_eigenvector(nr, md):
    """Reference: the first nonzero column of sum_S e_0(S) N(S), scaled to
    v[0] = 1, with the N(a) v = d(a) v check entry by entry."""
    m = scalar_profile(nr, md)
    if m[0] != 1:
        raise MultiplicityNotOne(f"unit character has multiplicity {m[0]}")
    e0, size = scalar_idempotent_family(md)[0], nr.size
    col = None
    for i in range(size):
        cand = [
            sum((c * int(nr.mats[s][j, i]) for s, c in enumerate(e0.coeffs)), ZERO)
            for j in range(size)
        ]
        if any(not x.is_zero for x in cand):
            col = cand
            break
    if col is None or col[0].is_zero:
        raise DegenerateScalar("projector image has no usable column")
    v = tuple(x / col[0] for x in col)
    for a in range(nr.ring.rank):
        for j in range(size):
            total = sum((v[i] * int(nr.mats[a][j, i]) for i in range(size)), ZERO)
            if total != md.d[a] * v[j]:
                raise AssertionError(
                    f"projector column is not a d-eigenvector at (a, j) = ({a},{j})"
                )
    return v


def test_profile_does_linear_scalar_work(monkeypatch):
    # a fresh datum: its numbers keep no inverses from earlier tests
    md = parse_data(data_to_json(su2_modular_data(16)))
    nr = su2_nimrep_from_graph(ade_graph("D:10"), 16)
    products, points = [], []
    mul = CycloNumber.__mul__

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    def no_point(self, *args, **kwargs):
        points.append(args)

    monkeypatch.setattr(CycloNumber, "__mul__", counted)
    monkeypatch.setattr(CycloNumber, "__rmul__", counted)
    monkeypatch.setattr(SpectrumPoint, "__init__", no_point)
    assert multiplicity_profile(nr, md) == (1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 1)
    # integer contractions on md.tensor only; the scalar family took r^2 = 289 and more
    assert products == []
    assert points == []


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (NonIntegralMultiplicity, MultiplicityNotOne, DegenerateScalar, AssertionError) as err:
        return type(err).__name__, str(err)


def raw_module(nr, mats) -> NimRep:
    """Integer matrices wrapped as a module without the NIM-rep checks."""
    size = len(mats[0])
    return NimRep(
        ring=nr.ring,
        boundaryLabels=tuple(str(k) for k in range(size)),
        mats=tuple(np.array(m, dtype=object) for m in mats),
    )


def test_profile_and_eigenvector_match_scalar_oracles():
    cases = [(f"A:{lev + 1}", lev) for lev in range(1, 17)]
    cases += [(f"D:{n}", 2 * n - 4) for n in range(4, 11)] + [("E:6", 10), ("E:7", 16)]
    modules = [(su2_nimrep_from_graph(ade_graph(tag), lev), su2_modular_data(lev)) for tag, lev in cases]
    for name in ("su2:1", "su2:2", "su2:6", "fibonacci", "ising", "zn:4", "zn:5"):
        md = load_catalog(name)
        modules.append((regular_nimrep(md.ring), md))
    rng = random.Random(1506)
    for _ in range(24):
        lev = rng.randint(1, 8)
        tags = [tag for tag, level in cases if level == lev]
        union = disjoint_union(ade_graph(rng.choice(tags)), ade_graph(rng.choice(tags)))
        nr, md = su2_nimrep_from_graph(union, lev), su2_modular_data(lev)
        modules.append((nr, md))
        mats = [[[int(x) for x in row] for row in m] for m in nr.mats]
        size = len(mats[0])
        kind = rng.choice(["bump", "huge", "random"])
        if kind == "random":
            mats = [[[rng.randint(0, 2) for _ in range(size)] for _ in range(size)] for _ in mats]
        else:
            a, j, i = rng.randrange(1, len(mats)), rng.randrange(size), rng.randrange(size)
            mats[a][j][i] += 2**70 if kind == "huge" else rng.randint(1, 2)
        modules.append((raw_module(nr, mats), md))
        # the same bump on one connected component keeps the unit multiplicity one
        single = su2_nimrep_from_graph(ade_graph(rng.choice(tags)), lev)
        mats = [[[int(x) for x in row] for row in m] for m in single.mats]
        a, j = rng.randrange(1, len(mats)), rng.randrange(single.size)
        mats[a][j][rng.randrange(single.size)] += rng.choice([1, 2**70])
        modules.append((raw_module(single, mats), md))
    kinds = set()
    for nr, md in modules:
        got = outcome(multiplicity_profile, nr, md)
        assert got == outcome(scalar_profile, nr, md)
        vec = outcome(d_eigenvector, nr, md)
        assert vec == outcome(scalar_d_eigenvector, nr, md)
        kinds.update({got[0] + ":" + str(got[1])[:20], vec[0]})
    assert {"ok", "MultiplicityNotOne", "AssertionError"} <= kinds
    assert any(k.startswith("NonIntegralMultiplicity:projector trace") for k in kinds)


def test_profiles_pinned_at_low_levels():
    md1, md2 = su2_modular_data(1), su2_modular_data(2)
    assert multiplicity_profile(regular_nimrep(md1.ring), md1) == (1, 1)
    assert multiplicity_profile(regular_nimrep(md2.ring), md2) == (1, 1, 1)
    assert multiplicity_profile(su2_nimrep_from_graph(a_graph(3), 2), md2) == (1, 1, 1)
    two = su2_nimrep_from_graph(disjoint_union(a_graph(3), a_graph(3)), 2)
    assert multiplicity_profile(two, md2) == (2, 2, 2)
    nr = su2_nimrep_from_graph(a_graph(2), 1)
    with pytest.raises(NonIntegralMultiplicity, match="label 0 is 3/2, not a non-negative integer"):
        multiplicity_profile(raw_module(nr, [[[1, 0], [0, 1]], [[1, 0], [0, 0]]]), md1)
    nr = su2_nimrep_from_graph(a_graph(3), 2)
    with pytest.raises(NonIntegralMultiplicity, match="label 0 is irrational"):
        multiplicity_profile(raw_module(nr, [[[1]], [[1]], [[0]]]), md2)


# -- the inverse-free profile against the idempotent route ------------------


def profile_outcome(fn, md, chi, size):
    try:
        return "ok", fn(md, chi, size)
    except (NonIntegralMultiplicity, DegenerateScalar, ShapeMismatch) as err:
        return type(err).__name__, str(err)


def test_profile_matches_the_idempotent_route_on_the_C1_cases():
    cases = [(f"A:{lvl + 1}", lvl) for lvl in range(1, 29)]
    cases += [(f"D:{n}", 2 * n - 4) for n in range(4, 17)] + [("E:6", 10), ("E:7", 16), ("E:8", 28)]
    assert len(cases) == 44
    for tag, lvl in cases:
        md = su2_modular_data(lvl)
        nr = su2_nimrep_from_graph(ade_graph(tag), lvl)
        got = profile_outcome(_profile, md, character(nr), nr.size)
        assert got[0] == "ok", (tag, lvl, got)
        assert got == profile_outcome(idempotent_profile, md, character(nr), nr.size), (tag, lvl)


def _profile_datum(md, kind, rng):
    """md with one seeded change to S: a symmetric pair raised by 1, an
    entry plus zeta_7, a symmetric pair times 2**40 zeta_3 (Python-int
    layers), all of S times zeta_8 (the same profiles, but every B[I] is
    i d(C), zero in its first layer when d(C) is rational), a zero
    dimension, or a row I >= 1 made (x, i x, 0, ..., 0), whose norm
    x^2 + (i x)^2 is zero over a self-dual ring."""
    r = md.rank
    S = [list(row) for row in md.S]
    i, j = rng.randrange(r), rng.randrange(r)
    if kind == "pair+1":
        S[i][j] = S[j][i] = S[i][j] + 1
    elif kind == "entry+zeta7":
        S[i][j] = S[i][j] + zeta(7)
    elif kind == "pair*2**40*zeta3":
        S[i][j] = S[j][i] = S[i][j] * CycloNumber(3, {1: 2**40})
    elif kind == "times zeta8":
        S = [[x * zeta(8) for x in row] for row in S]
    elif kind == "zero d":
        S[0][j] = ZERO
    elif kind == "zero norm":
        I, x = rng.randrange(1, r), S[0][j] + 1
        S[I] = [x, x * zeta(4)] + [ZERO] * (r - 2)
    return ModularData(md.ring, S, [t.value for t in md.t])


def _profile_character(md, rng):
    """A character for md's rank and the boundary size it is checked against:
    a combination, with coefficients in -1..2, of the characters of modules
    at md's level (the regular module alone off su(2)), sometimes with one
    random entry changed by up to 3 or by 2**70, and a size off by one at
    times."""
    r = md.rank
    if md.ring == su2_fusion_ring(r - 1):
        tags = [f"A:{r}"] + [f"D:{n}" for n in range(4, 17) if 2 * n - 4 == r - 1]
        tags += [tag for tag, lvl in (("E:6", 10), ("E:7", 16), ("E:8", 28)) if lvl == r - 1]
        modules = [su2_nimrep_from_graph(ade_graph(tag), r - 1) for tag in tags]
    else:
        modules = [regular_nimrep(md.ring)]
    chi = [0] * r
    for nr in modules:
        c = rng.randint(-1, 2)
        chi = [x + c * y for x, y in zip(chi, character(nr))]
    change = rng.choice([0, 0, 1, 2, 3, -3, 2**70])
    chi[rng.randrange(r)] += change
    return tuple(chi), chi[0] + rng.choice([0, 0, 0, 1])


def _failure_kind(kind, value):
    if kind == "ok":
        return kind
    for key in ("is zero", "zero norm", "irrational", "profile sums"):
        if key in value:
            return key
    q = Fraction(value.split(" is ")[1].split(",")[0])
    return "negative" if q < 0 else "non-integer"


def test_profile_matches_the_idempotent_route_on_perturbed_data_and_characters():
    rng = random.Random(2506)
    names = [n for n in catalog_names() if load_catalog(n).rank <= 13]
    kinds = (
        "none", "pair+1", "entry+zeta7", "pair*2**40*zeta3", "times zeta8", "zero d", "zero norm"
    )
    seen = Counter()
    for step in range(420):
        md = load_catalog(rng.choice(names))
        kind = kinds[step % len(kinds)]
        if kind == "zero norm" and (md.rank < 2 or md.ring.dual != tuple(range(md.rank))):
            kind = "zero d"
        if kind != "none":
            md = _profile_datum(md, kind, rng)
        chi, size = _profile_character(md, rng)
        got = profile_outcome(_profile, md, chi, size)
        assert got == profile_outcome(idempotent_profile, md, chi, size), (step, kind)
        seen[_failure_kind(*got)] += 1
    assert set(seen) == {
        "ok", "is zero", "zero norm", "irrational", "negative", "non-integer", "profile sums"
    }, seen


def test_profile_errors_keep_their_order_and_messages():
    ising = ising_modular_data()
    # a zero d is named before a zero norm, and both before the character is read
    S = [list(row) for row in ising.S]
    S[0][2] = ZERO
    S[1] = [ONE, zeta(4), ZERO]
    both = ModularData(ising.ring, S, [t.value for t in ising.t])
    for fn in (_profile, idempotent_profile):
        with pytest.raises(DegenerateScalar, match=r"^quantum dimension d\[2\] is zero$"):
            fn(both, (3, 1, 0), 3)
    S[0][2] = ONE
    no_norm = ModularData(ising.ring, S, [t.value for t in ising.t])
    for fn in (_profile, idempotent_profile):
        with pytest.raises(DegenerateScalar, match=r"^lambda_1 has zero norm$"):
            fn(no_norm, (3, 1, 0), 3)
    md1 = su2_modular_data(1)  # m = ((chi0 + chi1) / 2, (chi0 - chi1) / 2)
    for chi, size, message in (
        ((1, 0), 1, "projector trace for label 0 is 1/2, not a non-negative integer"),
        ((0, 2), 0, "projector trace for label 1 is -1, not a non-negative integer"),
        ((2, 0), 3, "profile sums to 2, expected 3 boundary labels"),
        ((1, 2, 3), 1, "modular data rank differs from the ring rank"),
    ):
        for fn in (_profile, idempotent_profile):
            with pytest.raises((NonIntegralMultiplicity, ShapeMismatch)) as err:
                fn(md1, chi, size)
            assert str(err.value) == message
    for fn in (_profile, idempotent_profile):  # m[0] = sqrt(2) / 4
        with pytest.raises(NonIntegralMultiplicity, match="^projector trace for label 0 is irr"):
            fn(su2_modular_data(2), (0, 1, 0), 1)


def test_a_held_character_is_not_converted_again(monkeypatch):
    md = su2_modular_data(10)
    nr = nimrep_from_graph(md.ring, ade_graph("E:6"))
    want = multiplicity_profile(nr, md)  # holds the character as an exact array
    calls = []
    monkeypatch.setattr(nimrep, "exact_ints", lambda *args: calls.append(args) or exact_ints(*args))
    fresh = parse_data(data_to_json(md))  # an equal datum: profile and report are computed again
    assert multiplicity_profile(nr, fresh) == want
    assert tm_dimension_report(nr, fresh).multOfUnit == want[0]
    assert calls == []


def test_a_fresh_tm_dimension_report_takes_no_field_inverse(monkeypatch):
    md = parse_data(data_to_json(su2_modular_data(16)))  # nothing held on it
    nr = su2_nimrep_from_graph(ade_graph("D:10"), 16)
    calls = []

    def refused(*args):
        calls.append(args)
        raise AssertionError("a field inverse was taken")

    monkeypatch.setattr(CycloNumber, "inverse", refused)
    monkeypatch.setattr(CycloNumber, "_inverted", refused)
    monkeypatch.setattr(cyclo, "inverses", refused)
    monkeypatch.setattr(modular, "inverses", refused)
    monkeypatch.setattr(modular, "_weighted", refused)
    rep = tm_dimension_report(nr, md)
    assert (rep.multOfUnit, rep.indecomposable) == (1, True)
    assert multiplicity_profile(nr, md) == (1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 1)
    assert calls == []


# -- the truncation identity against the generic homomorphism check --------


def generic_nimrep_from_graph(g, level):
    """Reference: the Chebyshev recurrence, then every axiom of verify_nimrep
    against the level's fusion ring, as the construction ran before."""
    A = exact_ints(g.adjacency, g.size)
    mats = [np.eye(g.size, dtype=A.dtype), A][: level + 1]
    for i in range(1, level):
        nxt = A @ exact_ints(mats[i], g.size) - mats[i - 1]
        if (nxt < 0).any():
            j, k = next(zip(*np.nonzero(nxt < 0)))
            raise NotANimRep(f"recurrence for N(x_{i + 1}) gives entry {nxt[j, k]} at ({j},{k})")
        mats.append(nxt)
    v = verify_nimrep(fusion._su2_rings.build(level), mats)
    if not v.ok:
        raise NotANimRep(f"{v.first_failure.name}: {v.first_failure.witness}")
    return mats


def construction_outcome(fn, g, level):
    try:
        return "ok", [[[int(x) for x in row] for row in m] for m in fn(g, level)]
    except NotANimRep as err:
        return "NotANimRep", str(err)


def random_multigraph(rng: random.Random) -> BoundaryGraph:
    n = rng.randint(1, 7)
    top = rng.choice([1, 2, 3, 2**33])  # 2**33 takes the recurrence onto Python ints
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                adj[i][j] = adj[j][i] = rng.randint(1, top)
    return BoundaryGraph(vertices=tuple(map(str, range(n))), adjacency=tuple(map(tuple, adj)))


def test_truncation_identity_matches_generic_check():
    cases = [(f"A:{lvl + 1}", lvl) for lvl in range(1, 29)]
    cases += [(f"D:{n}", 2 * n - 4) for n in range(4, 17)] + [("E:6", 10), ("E:7", 16), ("E:8", 28)]
    inputs = [(ade_graph(tag), lvl) for tag, lvl in cases]
    small = [f"A:{n}" for n in range(1, 9)] + [f"D:{n}" for n in range(4, 9)] + ["E:6", "E:7", "E:8"]
    inputs += [(ade_graph(tag), lvl) for tag in small for lvl in range(13)]
    rng = random.Random(6101)
    inputs += [(random_multigraph(rng), rng.randint(0, 12)) for _ in range(150)]
    # one edge of multiplicity m: s ** (k + 1) < 2**63 keeps the stack int64 for
    # m = 2**21 - 1 up to level 2, where A N(x_2) has entries m**3 - m just under 2**63;
    # at level 1, A N(x_1) = m**2 passes 2**63 first for m = 3037000500
    edges = [((0, m), (m, 0)) for m in (2**21 - 1, 2**21, 3037000500)]
    inputs += [(BoundaryGraph(("a", "b"), adj), lvl) for adj in edges for lvl in range(4)]
    kinds, python_ints = set(), 0
    for g, lvl in inputs:
        got = construction_outcome(lambda g, k: su2_nimrep_from_graph(g, k).mats, g, lvl)
        assert got == construction_outcome(generic_nimrep_from_graph, g, lvl), (g, lvl)
        kinds.add(got[0] if got[0] == "ok" else got[1].split(" ")[0])
        python_ints += exact_ints(g.adjacency, g.size).dtype == object
    assert kinds == {"ok", "recurrence", "homomorphism:"}
    assert python_ints >= 10


def test_nimrep_shares_the_catalog_ring():
    assert su2_nimrep_from_graph(ade_graph("E:6"), 10).ring is su2_modular_data(10).ring


def test_a_reparsed_ring_shares_the_catalog_rings_module():
    catalog = su2_modular_data(16)
    parsed = parse_data(json.loads(json.dumps(data_to_json(catalog))))
    assert parsed.ring is not catalog.ring and parsed.ring == catalog.ring
    g = ade_graph("D:10")
    assert nimrep_from_graph(parsed.ring, g) is nimrep_from_graph(catalog.ring, g)


def module_outcome(build, ring, g):
    """("ok", dtype, boundary labels, entries) of build(ring, g), or the error's type and text."""
    try:
        nr = build(ring, g)
    except Exception as err:
        return type(err).__name__, str(err)
    return "ok", nr.mats.dtype, nr.boundaryLabels, nr.mats.tolist()


def test_library_graphs_equal_validated_graphs():
    tags = [f"A:{n}" for n in range(2, 30)] + [f"D:{n}" for n in range(4, 17)]
    tags += ["E:6", "E:7", "E:8"]
    assert len(tags) == 44
    graphs = [ade_graph(tag) for tag in tags]
    for g in graphs:
        assert g == BoundaryGraph(vertices=g.vertices, adjacency=g.adjacency, family=g.family)
    rng = random.Random(3107)
    for _ in range(16):
        parts = rng.sample(graphs[:24], rng.randint(1, 3)) + [random_multigraph(rng)]
        union = disjoint_union(*parts)
        union = disjoint_union(union, rng.choice(graphs)) if rng.random() < 0.5 else union
        plain = BoundaryGraph(vertices=union.vertices, adjacency=union.adjacency)
        assert union == plain
        # the direct sum of the parts' modules is the recurrence's module of the plain graph
        ring = su2_fusion_ring(rng.randint(0, 6))
        got = module_outcome(nimrep_from_graph, ring, union)
        assert got == module_outcome(nimrep._build_module, ring, plain)


def test_library_modules_equal_validated_modules(monkeypatch):
    # the modules of the 44 C1 cases and the regular modules of the catalog
    # rings skip _module_stack; each equals the module that the public
    # constructor makes from its entries given as nested lists
    cases = [(f"A:{lvl + 1}", lvl) for lvl in range(1, 29)]
    cases += [(f"D:{n}", 2 * n - 4) for n in range(4, 17)] + [("E:6", 10), ("E:7", 16), ("E:8", 28)]
    assert len(cases) == 44
    with monkeypatch.context() as m:
        m.setattr(nimrep, "_module_stack", None)  # a call would raise TypeError
        built = [nimrep._build_module(su2_fusion_ring(lvl), ade_graph(tag)) for tag, lvl in cases]
        built += [regular_nimrep(load_catalog(name).ring) for name in catalog_names()]
    for nr in built:
        public = NimRep(ring=nr.ring, boundaryLabels=nr.boundaryLabels, mats=nr.mats.tolist())
        assert (nr.ring, nr.boundaryLabels, nr._derived) == (public.ring, public.boundaryLabels, {})
        assert nr.mats.dtype == public.mats.dtype and np.array_equal(nr.mats, public.mats)
        assert not nr.mats.flags.writeable
    with pytest.raises(ShapeMismatch, match="2 boundary labels for matrices of size 3"):
        NimRep(ring=built[1].ring, boundaryLabels=("a", "b"), mats=built[1].mats)


# -- the kept stack: exact where its dtype depends on inner, never re-converted


def test_module_stack_exact_where_the_dtype_depends_on_inner():
    # (2**30 + 1)**2 fits a sum of one product in int64, not a sum of four (size 4)
    big = 2**30
    nr, md = su2_nimrep_from_graph(a_graph(4), 3), su2_modular_data(3)
    mats = nr.mats.tolist()
    mats[1][0][2] += big  # off the diagonal: the character and profile stay
    mats[2][3][1] += big
    bumped = raw_module(nr, mats)
    assert exact_ints(mats).dtype == np.int64 and bumped.mats.dtype == object
    assert outcome(d_eigenvector, bumped, md) == outcome(scalar_d_eigenvector, bumped, md)
    assert outcome(d_eigenvector, bumped, md)[0] == "AssertionError"
    v = verify_nimrep(nr.ring, mats)
    assert not v.ok and v.first_failure.name == "duality"
    mats[1][2][0] += big  # N(1) symmetric again; N(2) = N(1)^2 - 1 no longer
    A2 = _py_matmul(mats[1], mats[1])
    want = [[x - (i == j) for i, x in enumerate(row)] for j, row in enumerate(A2)]
    j, i = next((j, i) for j in range(4) for i in range(4) if want[j][i] != mats[2][j][i])
    mats[2][1][3] += big
    assert verify_nimrep(nr.ring, mats).describe() == (
        f"fail: homomorphism at (N(1)N(1))[{j},{i}] = {A2[j][i]} != "
        f"{sum(nr.ring.N[1][1][c] * mats[c][j][i] for c in range(4))}"
    )


def test_built_objects_convert_no_tables(monkeypatch):
    from fuselab import cyclo, fusion, gauge, nimrep
    from fuselab.fusion import multiply, regular_matrices, verify_axioms
    from fuselab.gauge import verify_phi_isomorphism

    md = su2_modular_data(6)
    nr = su2_nimrep_from_graph(ade_graph("D:5"), 6)
    lam, x = d_eigenvector(nr, md), scalar_idempotent_family(md)[1]
    tables = []

    def counted(values, inner=1):
        tables.append(np.ndim(values))
        return cyclo.exact_ints(values, inner)

    for module in (fusion, nimrep, gauge):
        monkeypatch.setattr(module, "exact_ints", counted, raising=False)
    assert multiply(nr.ring, x, x) == x
    assert verify_axioms(nr.ring).ok
    assert verify_phi_isomorphism(nr, lam, md).ok
    assert d_eigenvector(nr, md) == lam
    assert [n for n in tables if n > 1] == []  # N is 3-d, a module stack 3-d, a matrix 2-d
    tables.clear()
    assert np.array_equal(nimrep._build_module(nr.ring, ade_graph("D:5")).mats, nr.mats)
    assert tables == []  # a built stack is made read-only as it is, not converted
    for table in (nr.ring.tensor, nr.mats, regular_matrices(nr.ring)):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 2


def test_module_built_once_per_graph_and_level():
    first = su2_nimrep_from_graph(disjoint_union(ade_graph("A:5"), ade_graph("D:4")), 4)
    assert su2_nimrep_from_graph(disjoint_union(a_graph(5), d_graph(4)), 4) is first
    assert su2_nimrep_from_graph(ade_graph("A:5"), 4) is not first
    # a custom graph with a tagged graph's adjacency is another key (family is
    # part of a graph's value), and its module has the same matrices
    tagged = ade_graph("E:6")
    custom = BoundaryGraph(tagged.vertices, tagged.adjacency)
    assert custom != tagged
    mine, theirs = su2_nimrep_from_graph(custom, 10), su2_nimrep_from_graph(tagged, 10)
    assert mine is not theirs and su2_nimrep_from_graph(custom, 10) is mine
    assert mine.mats.dtype == theirs.mats.dtype and np.array_equal(mine.mats, theirs.mats)


def test_bool_level_refused_after_its_int_is_kept():
    g = a_graph(2)
    assert su2_nimrep_from_graph(g, 1).mats.shape == (2, 2, 2)
    with pytest.raises(ValueError, match="level must be a non-negative integer, got True"):
        su2_nimrep_from_graph(g, True)
    with pytest.raises(ShapeMismatch, match="level must be non-negative"):
        su2_nimrep_from_graph(g, -1)


def test_failing_graph_raises_the_same_witness_and_is_not_kept():
    from fuselab import nimrep

    kept = dict(nimrep._modules)
    texts = set()
    for _ in range(3):
        with pytest.raises(NotANimRep) as info:
            su2_nimrep_from_graph(a_graph(3), 4)
        texts.add(str(info.value))
    assert texts == {"recurrence for N(x_4) gives entry -1 at (0,2)"}
    assert nimrep._modules == kept


def test_module_cache_is_bounded():
    from fuselab import nimrep

    first = su2_nimrep_from_graph(a_graph(1), 0)
    for n in range(2, 6):  # level 0 needs no Coxeter match: every graph passes
        assert su2_nimrep_from_graph(a_graph(n), 0) is su2_nimrep_from_graph(a_graph(n), 0)
        assert su2_nimrep_from_graph(a_graph(1), 0) is first
    big = su2_nimrep_from_graph(a_graph(41), 40)
    assert su2_nimrep_from_graph(a_graph(41), 40) is big and big.mats.dtype == np.int64
    # each module is charged its entries plus 2**16 against 2**23 (the bound
    # itself: tests/test_cyclo.py::test_keeper_evicts_first_in_first_out_under_its_budget)
    assert nimrep._modules.budget == 2**23 and nimrep._modules.terms(big) == 41**3 + 2**16


def test_one_module_cache_for_every_ring():
    from fuselab import nimrep

    tadpole = BoundaryGraph(("1", "tau"), ((0, 1), (1, 1)))
    loop = BoundaryGraph(("a",), ((1,),))
    for name, g in (("fibonacci", tadpole), ("zn:3", loop)):
        ring = load_catalog(name).ring
        nr = nimrep_from_graph(ring, g)
        assert nimrep_from_graph(ring, BoundaryGraph(g.vertices, g.adjacency)) is nr, name
        assert nimrep._modules[ring, g] is nr, name
    # x * x = 1 + 2**40 x acting on itself: entries past exact_ints' int64 range
    big = 2**40
    wide = FusionRing(("1", "x"), (0, 1), (((1, 0), (0, 1)), ((0, 1), (1, big))))
    assert verify_axioms(wide).ok
    g = BoundaryGraph(("1", "x"), ((0, 1), (1, big)))
    kept = dict(nimrep._modules)
    nr = nimrep_from_graph(wide, g)
    assert nr.mats.dtype == object and nr.mats[1].tolist() == [[0, 1], [1, big]]
    assert nimrep_from_graph(wide, g) is not nr
    assert nimrep._modules == kept
    # equal rings share one entry, as a ring parsed from a file again does:
    # more rings than the cache holds, asked about in two rounds, add none
    fib = load_catalog("fibonacci").ring
    shared = nimrep_from_graph(fib, tadpole)
    rings = [parse_data(data_to_json(fib)) for _ in range(128 + 8)]
    for _ in range(2):
        for ring in rings:
            assert ring is not fib and nimrep_from_graph(ring, tadpole) is shared
    assert shared.ring is fib and nimrep._modules == kept
    nimrep._modules.clear()


def test_graph_tags_and_catalog_ids_are_spelled_canonically(capsys, tmp_path):
    # int() also reads '_', spaces, signs, leading zeros and non-ASCII digits
    from fuselab import cli, nimrep
    from fuselab.errors import SchemaError

    kept = dict(nimrep._graphs)
    for tag in ("A:1_0", "A: 5", "A:5 ", "A:+5", "A:05", "A:٣", "A:-0", "A:"):
        with pytest.raises(ShapeMismatch, match="does not write its rank in plain decimal"):
            ade_graph(tag)
    assert nimrep._graphs == kept
    with pytest.raises(ShapeMismatch, match="A_n needs n >= 1"):
        ade_graph("A:-5")
    for name in ("su2:1_0", "su2: 5", "su2:+5", "su2:05", "su2:٣", "zn:٣", "zn:03", "su2:-0"):
        with pytest.raises(SchemaError, match="does not write its parameter in plain decimal"):
            load_catalog(name)
    doc = {**data_to_json(a_graph(5)), "family": "A:05"}
    with pytest.raises(SchemaError, match="graph tag 'A:05' does not write its rank in plain decimal"):
        parse_data(doc)
    path = tmp_path / "a05.json"
    path.write_text(json.dumps(doc))
    jobs = [("su2:٣", "A:٤"), ("su2:3", "A:٤"), ("su2:3", "A:04"), ("su2:03", "A:4")]
    for data, graph in jobs + [("su2:3", f"custom:{path}")]:
        assert cli.main(["tm-dim", "--data", data, "--graph", graph]) == 2, (data, graph)
    assert cli.main(["tm-dim", "--data", "su2:3", "--graph", "A:4"]) == 0
    capsys.readouterr()
    # only ASCII digits make a catalog id; anything else is read as a file path
    code, report = cli.run(cli.JobSpec(command="tm-dim", data="su2:٣", graph="A:4"))
    assert code == 2 and report["error"]["type"] == "FileNotFoundError"


def test_graph_kept_once_per_tag_and_cache_is_bounded():
    from fuselab import nimrep

    assert ade_graph("E:6") is ade_graph("E:6")
    assert e_graph(6) is ade_graph("E:6")
    big = ade_graph("A:300")
    assert ade_graph("A:300") is big and ade_graph("A:256") is ade_graph("A:256")
    # each graph is charged its adjacency entries plus 2**16 against 2**23
    assert nimrep._graphs.budget == 2**23 and nimrep._graphs.terms(big) == 300**2 + 2**16


def test_graph_built_from_lists_is_stored_as_tuples():
    g = BoundaryGraph(["1", "2", "3"], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    plain = BoundaryGraph(("1", "2", "3"), ((0, 1, 0), (1, 0, 1), (0, 1, 0)))
    assert (g.vertices, g.adjacency) == (plain.vertices, plain.adjacency)
    assert g == plain and hash(g) == hash(plain)
    tagged = BoundaryGraph(["1", "2", "3"], [[0, 1, 0], [1, 0, 1], [0, 1, 0]], family="A:3")
    assert tagged == ade_graph("A:3") and hash(tagged) == hash(ade_graph("A:3"))
    assert disjoint_union(g, ade_graph("A:3")) == disjoint_union(plain, ade_graph("A:3"))
    assert np.array_equal(su2_nimrep_from_graph(g, 2).mats, su2_nimrep_from_graph(plain, 2).mats)


def test_union_kept_once_per_parts_and_cache_is_bounded():
    parts = (ade_graph("A:7"), ade_graph("D:5"), ade_graph("A:7"))
    union = disjoint_union(*parts)
    assert disjoint_union(*parts) is union
    assert disjoint_union(a_graph(7), d_graph(5), a_graph(7)) is union
    assert union._parts == parts
    big = disjoint_union(ade_graph("A:200"), ade_graph("A:100"))
    assert disjoint_union(ade_graph("A:200"), ade_graph("A:100")) is big
    assert disjoint_union(a_graph(128), a_graph(128)) is disjoint_union(a_graph(128), a_graph(128))
    # each union is charged its adjacency entries plus 2**16 against 2**23
    assert nimrep._unions.budget == 2**23 and nimrep._unions.terms(big) == 300**2 + 2**16


def test_union_parts_are_not_part_of_its_value():
    union = disjoint_union(ade_graph("A:3"), disjoint_union(ade_graph("D:4")))
    plain = BoundaryGraph(vertices=union.vertices, adjacency=union.adjacency)
    assert union._parts and not plain._parts
    assert union == plain and hash(union) == hash(plain) and repr(union) == repr(plain)
    assert json.dumps(data_to_json(union)) == json.dumps(data_to_json(plain))
    parsed = parse_data(json.loads(json.dumps(data_to_json(union))))
    assert parsed == union and not parsed._parts
    # the hash is taken once and held on the graph
    assert union.__dict__["_hash"] == hash((union.vertices, union.adjacency, union.family))


def test_union_module_is_the_sum_of_its_parts_kept_modules(monkeypatch):
    nimrep._modules.clear()
    parts = [ade_graph("A:7"), ade_graph("D:5")]
    blocks = [su2_nimrep_from_graph(part, 6) for part in parts]
    with monkeypatch.context() as m:
        m.setattr(nimrep, "_build_module", None)  # a call would raise TypeError
        nr = su2_nimrep_from_graph(disjoint_union(*parts), 6)
        inner = su2_nimrep_from_graph(disjoint_union(disjoint_union(*parts), parts[0]), 6)
    assert np.array_equal(nr.mats[:, :7, :7], blocks[0].mats)
    assert np.array_equal(nr.mats[:, 7:, 7:], blocks[1].mats)
    assert not nr.mats[:, :7, 7:].any() and not nr.mats[:, 7:, :7].any()
    assert np.array_equal(inner.mats[:, :12, :12], nr.mats) and nr.mats.dtype == np.int64
    assert not nr.mats.flags.writeable
    # a failing part: the union is built by the recurrence, with its own witness
    failing = disjoint_union(ade_graph("A:5"), ade_graph("A:9"))
    for g in (failing, BoundaryGraph(failing.vertices, failing.adjacency)):
        with pytest.raises(NotANimRep, match=r"^homomorphism: \(N\(1\)N\(4\)\)\[5,10\] = 1 != 0$"):
            su2_nimrep_from_graph(g, 4)
    nimrep._modules.clear()


def test_union_modules_equal_the_recurrence():
    # unions of 1-3 parts of module-stream's tags at levels 1-16, unions of
    # unions, and now and then a path of the wrong length (a failing part): the
    # same stack and dtype as the recurrence on the plain graph, or its error
    rng = random.Random(2901)
    nimrep._modules.clear()
    kinds = Counter()
    for lvl in range(1, 17):
        tags = [f"A:{lvl + 1}"] + [f"D:{(lvl + 4) // 2}"] * (lvl >= 4 and lvl % 2 == 0)
        tags += {10: ["E:6"], 16: ["E:7"]}.get(lvl, [])
        wrong = [f"A:{lvl + 2}", f"A:{max(lvl - 1, 1)}"]

        def part():
            return ade_graph(rng.choice(tags if rng.random() < 0.85 else wrong))

        ring = su2_fusion_ring(lvl)
        for _ in range(10):
            union = disjoint_union(*(part() for _ in range(rng.randint(1, 3))))
            if rng.random() < 0.3:
                union = disjoint_union(union, disjoint_union(part()))
            plain = BoundaryGraph(vertices=union.vertices, adjacency=union.adjacency)
            got = module_outcome(nimrep_from_graph, ring, union)
            assert got == module_outcome(nimrep._build_module, ring, plain), (lvl, union.vertices)
            kinds[got[0] if got[0] != "NotANimRep" else got[1].split(" ")[0]] += 1
    assert set(kinds) == {"ok", "recurrence", "homomorphism:"} and kinds["ok"] >= 40
    # x * x = 1 + 2**40 x acting on itself twice: a Python-int stack
    wide = FusionRing(("1", "x"), (0, 1), (((1, 0), (0, 1)), ((0, 1), (1, 2**40))))
    g = BoundaryGraph(("1", "x"), ((0, 1), (1, 2**40)))
    two = disjoint_union(g, disjoint_union(g))
    got = module_outcome(nimrep_from_graph, wide, two)
    assert got == module_outcome(nimrep._build_module, wide, BoundaryGraph(two.vertices, two.adjacency))
    assert got[:2] == ("ok", object)
    nimrep._modules.clear()


# -- one builder over every ring that label 1 generates ---------------------


def _inverse(V):
    """Exact Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(V)
    M = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(V)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if M[i][col])
        M[col], M[pivot] = M[pivot], M[col]
        M[col] = [x / M[col][col] for x in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                M[i] = [x - M[i][col] * y for x, y in zip(M[i], M[col])]
    return [row[n:] for row in M]


def polynomials_in_x1(ring):
    """Reference: coeffs[c][k] with x_c = sum_k coeffs[c][k] x_1^k, solved
    exactly from the powers of x_1 in the regular representation."""
    r = ring.rank
    powers = [[int(c == 0) for c in range(r)]]  # coordinates of x_1^k
    for _ in range(r - 1):
        powers.append([sum(ring.N[1][b][c] * powers[-1][b] for b in range(r)) for c in range(r)])
    V = [[Fraction(powers[k][c]) for k in range(r)] for c in range(r)]
    inverse = _inverse(V)  # column c of the inverse holds the coordinates of x_c
    assert all(x.denominator == 1 for row in inverse for x in row)  # x_1 generates over Z
    return [[int(inverse[k][c]) for k in range(r)] for c in range(r)]


def forced_module(coeffs, adjacency):
    """Reference: N(x_c) = p_c(A), the only candidate with N(x_1) = A."""
    A = [list(row) for row in adjacency]
    size = len(A)
    powers = [[[int(i == j) for j in range(size)] for i in range(size)]]
    for _ in range(len(coeffs) - 1):
        powers.append(_py_matmul(A, powers[-1]))
    def poly(p, j, i):
        return sum(a * P[j][i] for a, P in zip(p, powers) if a)

    return [[[poly(p, j, i) for i in range(size)] for j in range(size)] for p in coeffs]


def good_graphs(name: str, ring) -> list[tuple[tuple[int, ...], ...]]:
    """Adjacency matrices of at most 12 vertices that carry a module of the
    named catalog ring."""
    r = ring.rank
    regular = tuple(tuple(ring.N[min(1, r - 1)][b][c] for b in range(r)) for c in range(r))
    graphs = [regular] if regular == tuple(zip(*regular)) else []
    if name.startswith("su2:"):
        k = r - 1
        tags = [f"A:{k + 1}"] + ([f"D:{k // 2 + 2}"] if k >= 4 and k % 2 == 0 else [])
        graphs += [ade_graph(tag).adjacency for tag in tags + (["E:6"] if k == 10 else [])]
    if name.startswith("zn:"):
        graphs += [((1,),), ((0, 1), (1, 0))] if r % 2 == 0 else [((1,),)]
    return [a for a in graphs if len(a) <= 12]


def small_multigraph(rng: random.Random, top: int) -> tuple[tuple[int, ...], ...]:
    n = rng.randint(1, 4)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                adj[i][j] = adj[j][i] = rng.randint(1, top)
    return tuple(map(tuple, adj))


def graph_of(adjacency) -> BoundaryGraph:
    return BoundaryGraph(tuple(map(str, range(len(adjacency)))), adjacency)


def test_builder_is_sound_and_complete_on_every_generated_catalog_ring():
    # The builder returns a module exactly when the only candidate, N(x_c) = p_c(A)
    # for x_c = p_c(x_1), passes verify_nimrep; then the module is that candidate.
    rng = random.Random(1707)
    counts: Counter = Counter()
    for name in catalog_names():
        ring = load_catalog(name).ring
        coeffs = polynomials_in_x1(ring)
        good = good_graphs(name, ring)
        tops = [1, 2, 2**33] if ring.rank <= 9 else [1, 2]
        adjacencies = good + [small_multigraph(rng, rng.choice(tops)) for _ in range(6)]
        for a in good[:2]:
            b = rng.choice([a, small_multigraph(rng, 2)])
            adjacencies.append(disjoint_union(graph_of(a), graph_of(b)).adjacency)
        for adjacency in adjacencies:
            forced = forced_module(coeffs, adjacency)
            want = verify_nimrep(ring, forced)
            try:
                nr = nimrep_from_graph(ring, graph_of(adjacency))
            except NotANimRep as err:
                assert not want.ok, (name, adjacency)
                kind = str(err).split(" ")[0].rstrip(":")
                assert {"recurrence": "non-negativity"}.get(kind, kind) == want.first_failure.name
                if kind == "duality":
                    assert str(err) == f"duality: {want.first_failure.witness}"
                counts[kind] += 1
                continue
            assert want.ok, (name, adjacency)
            assert verify_nimrep(ring, nr.mats).ok
            assert nr.mats.tolist() == forced and nr.ring is ring
            counts["ok"] += 1
    assert set(counts) == {"ok", "recurrence", "duality", "homomorphism"}, counts
    assert counts["ok"] >= 80, counts


def test_builder_over_rep_s3():
    # Rep(S3) with labels (1, rho, sign): rho rho = 1 + rho + sign, rho sign = rho,
    # so N(sign) = A^2 - I - A and the one check is A N(sign) = A
    N = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 1, 1), (0, 1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    )
    ring = FusionRing(labels=("1", "rho", "sign"), dual=(0, 1, 2), N=N)
    assert verify_axioms(ring).ok
    order, steps, checks, R = ring._generation
    assert order == (0, 1, 2) and steps == ((2, 1, ((0, 1), (1, 1))),)
    assert checks == ((2, ((1, 1),)),) and R == 3
    assert ring._generation is ring._generation  # made once, held on the ring
    for adjacency, sign in [
        (((2,),), [[1]]),  # the fiber functor: dimensions
        (((1, 1), (1, 1)), [[0, 1], [1, 0]]),  # Rep(S3) acting on Rep(Z2)
        (((0, 1, 0), (1, 1, 1), (0, 1, 0)), [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),  # regular
    ]:
        nr = nimrep_from_graph(ring, graph_of(adjacency))
        assert nr.mats[2].tolist() == sign
        assert verify_nimrep(ring, nr.mats).ok
    with pytest.raises(NotANimRep, match=r"^recurrence for N\(x_2\) gives entry -1 at \(0,1\)$"):
        nimrep_from_graph(ring, a_graph(2))
    # A = (3): N(sign) = 9 - 1 - 3 = 5 >= 0, but A N(sign) = 15 != A
    with pytest.raises(NotANimRep, match=r"^homomorphism: \(N\(1\)N\(2\)\)\[0,0\] = 15 != 3$"):
        nimrep_from_graph(ring, BoundaryGraph(("a",), ((3,),)))


def test_builder_refuses_a_ring_label_1_does_not_generate():
    r = range(4)
    N = tuple(tuple(tuple(int(a ^ b == c) for c in r) for b in r) for a in r)
    ring = FusionRing(labels=("1", "e", "m", "em"), dual=(0, 1, 2, 3), N=N)
    for _ in range(2):  # nothing is held for a ring that fails
        with pytest.raises(ShapeMismatch, match=r"^label 2 is not generated by label 1$"):
            nimrep_from_graph(ring, a_graph(2))


def test_graph_tags_have_a_budget():
    from fuselab import nimrep

    top = nimrep._MAX_TAG_RANK
    assert ade_graph(f"A:{top}").size == top
    for tag in (f"A:{top + 1}", f"D:{top + 1}", "A:100000", f"A:{10**30}"):
        with pytest.raises(ShapeMismatch, match=f"names more than {top} vertices"):
            ade_graph(tag)


def test_first_negative_step_is_named_in_generation_order():
    # su(2) at level 3 with the labels x_2 and x_3 swapped: x_1 generates index 3
    # (= A^2 - I) before index 2 (= A N(3) - A). On A_2 + A_1 both steps go
    # negative; the witness is the earlier step, not the smaller index.
    ring = su2_fusion_ring(3)
    new = (0, 1, 3, 2)
    N = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                N[new[a]][new[b]][new[c]] = ring.N[a][b][c]
    N = tuple(tuple(map(tuple, plane)) for plane in N)
    swapped = FusionRing(("x0", "x1", "x3", "x2"), (0, 1, 2, 3), N)
    assert swapped._generation[0] == (0, 1, 3, 2)
    g = disjoint_union(a_graph(2), a_graph(1))
    with pytest.raises(NotANimRep, match=r"^recurrence for N\(x_2\) gives entry -1 at \(2,2\)$"):
        su2_nimrep_from_graph(g, 3)
    with pytest.raises(NotANimRep, match=r"^recurrence for N\(x_3\) gives entry -1 at \(2,2\)$"):
        nimrep_from_graph(swapped, g)
