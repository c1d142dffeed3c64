"""Dimension formulas for TM, diagonal profiles as partial Z matrices, exact
commutant computation, lattice enumeration, and the diagonal-match verdict."""

import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fuselab import gauge, invariants, nimrep
from fuselab.cyclo import ZERO, CycloNumber, RationalPhase, exact_ints
from fuselab.errors import MultiplicityNotOne, SearchBudgetExceeded, ShapeMismatch
from fuselab.invariants import (
    CommutantBasis,
    InvariantMatrix,
    _lattice_survivors,
    commutant_basis,
    diagonal_profile_as_Z,
    enumerate_invariants,
    match_diagonal,
    rep_dimension,
    tm_dimension_report,
    verify_invariant,
)
from fuselab.io import data_to_json, parse_data
from fuselab.modular import ModularData, catalog_names, load_catalog, su2_modular_data
from fuselab.nimrep import (
    a_graph,
    character,
    d_graph,
    disjoint_union,
    e_graph,
    multiplicity_profile,
    nimrep_from_graph,
    regular_nimrep,
    su2_nimrep_from_graph,
)
from scalar_oracles import scalar_commutant_basis

# the known block invariant at level 10: pairs {0,6}, {3,7}, {4,10}
E6_PAIRS = ((0, 6), (3, 7), (4, 10))


def e6_block_matrix() -> InvariantMatrix:
    rows = [[0] * 11 for _ in range(11)]
    for a, b in E6_PAIRS:
        for i in (a, b):
            for j in (a, b):
                rows[i][j] = 1
    return InvariantMatrix.from_rows(rows)


def identity_matrix(n: int) -> InvariantMatrix:
    return InvariantMatrix.from_rows(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )


def reference_points(basis, bound):
    """The per-point Fraction walk: every coordinate vector of [0, bound]^dim,
    in itertools.product order, whose combination of the basis matrices has
    integer entries in [0, bound] and Z_00 = 1, as entry lists."""
    r, dim = len(basis[0]), len(basis)
    positions = sorted(
        {(i, j) for mat in basis for i, row in enumerate(mat) for j, v in enumerate(row) if v}
    )
    out = []
    for coords in product(range(bound + 1), repeat=dim):
        entries = [[0] * r for _ in range(r)]
        ok = True
        for i, j in positions:
            val = Fraction(0)
            for k in range(dim):
                c = coords[k]
                if c:
                    val += c * basis[k][i][j]
            if val.denominator != 1 or val < 0 or val > bound:
                ok = False
                break
            entries[i][j] = int(val)
        if ok and entries[0][0] == 1:
            out.append(entries)
    return out


def reference_enumerate(md, bound):
    """enumerate_invariants computed through reference_points."""
    found = [
        InvariantMatrix.from_rows(entries, provenance="enumerated")
        for entries in reference_points(commutant_basis(md).basis, bound)
    ]
    found = [Z for Z in found if verify_invariant(Z, md).ok]
    found.sort(key=lambda z: z.entries)
    return tuple(found)


def test_rep_dimension_pinned():
    md = su2_modular_data(1)
    assert rep_dimension((2, 0), md) == CycloNumber.from_rational(2)
    assert rep_dimension((0, 0), md) == ZERO
    assert rep_dimension((4, 0), md) == CycloNumber.from_rational(4)


def test_rep_dimension_shape():
    with pytest.raises(ShapeMismatch):
        rep_dimension((1, 2, 3), su2_modular_data(1))


@pytest.mark.parametrize(
    "chi, index",
    [((1.5, 0.9), 0), ((1, Fraction(3, 2)), 1), ((True, 0), 0), ((0, False), 1), ((2, 2.0), 1)],
)
def test_rep_dimension_refuses_non_integer_entries(chi, index):
    # int() used to truncate these: (1.5, 0.9) gave 1, Fraction(3, 2) and True counted as 1
    with pytest.raises(ShapeMismatch, match=rf"^character entry {index} must be an integer$"):
        rep_dimension(chi, su2_modular_data(1))


def test_rep_dimension_matches_the_scalar_sum():
    rng = random.Random(3108)
    for name in ("su2:1", "su2:6", "su2:13", "fibonacci", "ising", "zn:5", "zn:8"):
        md = load_catalog(name)
        dual = md.ring.dual
        for scale in (1, 2**70):
            chi = [rng.randint(-3, 5) * scale for _ in range(md.rank)]
            want = sum((md.d[dual[s]] * k for s, k in enumerate(chi) if k), ZERO)
            assert rep_dimension(chi, md) == want
        chi = np.array([rng.randint(0, 9) for _ in range(md.rank)])
        assert rep_dimension(chi, md) == sum((md.d[dual[s]] * int(k) for s, k in enumerate(chi)), ZERO)


def test_tm_dim_connected_cases():
    for tag_builder, lev in [
        (lambda: a_graph(3), 2),
        (lambda: d_graph(4), 4),
        (lambda: e_graph(6), 10),
    ]:
        md = su2_modular_data(lev)
        nr = su2_nimrep_from_graph(tag_builder(), lev)
        rep = tm_dimension_report(nr, md)
        assert rep.multOfUnit == 1
        assert rep.indecomposable
        assert rep.dTM == md.globalDim
        assert all(flag for _, flag in rep.routes)


def test_tm_dim_disjoint_union_doubles():
    md = su2_modular_data(1)
    nr = su2_nimrep_from_graph(disjoint_union(a_graph(2), a_graph(2)), 1)
    rep = tm_dimension_report(nr, md)
    assert rep.multOfUnit == 2
    assert rep.dTM == md.globalDim * CycloNumber.from_rational(2)
    assert not rep.indecomposable
    assert all(not flag for _, flag in rep.routes)


def test_tm_dim_regular():
    for name in ("su2:3", "ising", "zn:4"):
        md = load_catalog(name)
        rep = tm_dimension_report(regular_nimrep(md.ring), md)
        assert rep.multOfUnit == 1, name
        assert rep.indecomposable, name


def test_tm_dim_computes_one_character_per_report(monkeypatch):
    calls = []

    def counted(nr):
        calls.append(nr)
        return nimrep._character(nr)

    monkeypatch.setattr(invariants, "_character", counted)
    md = su2_modular_data(4)
    # modules built afresh, not the kept ones, so no earlier test has asked about them
    for nr in (
        nimrep._build_module(md.ring, d_graph(4)),
        nimrep._build_module(md.ring, disjoint_union(a_graph(5), a_graph(5))),
        regular_nimrep(md.ring),
    ):
        calls.clear()
        rep = tm_dimension_report(nr, md)
        assert calls == [nr]
        calls.clear()
        assert tm_dimension_report(nr, md) is rep
        assert calls == []
        assert rep.multOfUnit == multiplicity_profile(nr, md)[0]


# -- values held on the module -----------------------------------------------


def _count_pieces(monkeypatch, calls):
    """Record each call of the pieces a profile, TM report, d-eigenvector or
    phi verdict is computed from, by name."""
    for module, name in (
        (nimrep, "_profile"),
        (invariants, "_profile"),
        (invariants, "rep_dimension"),
        (nimrep, "_d_image"),
        (gauge, "_d_image"),
    ):

        def counted(*args, _fn=getattr(module, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)


def _held_values(nr, md):
    return (
        character(nr),
        multiplicity_profile(nr, md),
        tm_dimension_report(nr, md),
        nimrep.d_eigenvector(nr, md),
        gauge.verify_phi_isomorphism(nr, nimrep.d_eigenvector(nr, md), md),
    )


def test_repeated_calls_return_the_held_values(monkeypatch):
    calls = []
    _count_pieces(monkeypatch, calls)
    md = su2_modular_data(6)
    nr = nimrep._build_module(md.ring, nimrep.ade_graph("D:5"))  # not kept: mats is cleared below
    first = _held_values(nr, md)
    assert sorted(set(calls)) == ["_d_image", "_profile", "rep_dimension"]
    calls.clear()
    # a recomputation would read the matrices
    object.__setattr__(nr, "mats", None)
    again = _held_values(nr, md)
    assert calls == []
    assert all(a is b for a, b in zip(again, first))


def test_an_equal_datum_is_recomputed_and_replaces_the_held_one(monkeypatch):
    calls = []
    _count_pieces(monkeypatch, calls)
    source = su2_modular_data(4)
    nr = nimrep._build_module(source.ring, d_graph(4))
    old, new = (parse_data(data_to_json(source)) for _ in range(2))
    assert old == new and old is not new
    first = _held_values(nr, old)
    calls.clear()
    second = _held_values(nr, new)
    # one _d_image for the d-eigenvector, one for the phi verdict
    assert calls.count("_profile") == 2 and "rep_dimension" in calls and calls.count("_d_image") == 2
    assert second[0] is first[0]  # the character is the module's alone
    assert second[1:] == first[1:] and all(a is not b for a, b in zip(second[1:], first[1:]))
    slots = [nr._derived[fn.__wrapped__] for fn in (multiplicity_profile, tm_dimension_report)]
    assert all(args[0] is new for args, _ in slots)
    args, _ = nr._derived[gauge._phi_verdict.__wrapped__]
    assert args[0] is second[3] and args[1] is new
    # the replaced datum is pinned by no slot of the module
    ref = weakref.ref(old)
    del old, first
    gc.collect()
    assert ref() is None


def test_d_eigenvector_of_a_union_raises_on_every_call():
    md = su2_modular_data(4)
    nr = su2_nimrep_from_graph(disjoint_union(a_graph(5), a_graph(5)), 4)
    for _ in range(3):
        with pytest.raises(MultiplicityNotOne, match=r"^unit character has multiplicity 2$"):
            nimrep.d_eigenvector(nr, md)
    assert nimrep.d_eigenvector.__wrapped__ not in nr._derived


def test_held_values_equal_a_cold_computation_on_the_C1_cases():
    cases = [(f"A:{lvl + 1}", lvl) for lvl in range(1, 29)]
    cases += [(f"D:{n}", 2 * n - 4) for n in range(4, 17)] + [("E:6", 10), ("E:7", 16), ("E:8", 28)]
    assert len(cases) == 44
    for tag, lvl in cases:
        md = su2_modular_data(lvl)
        kept = su2_nimrep_from_graph(nimrep.ade_graph(tag), lvl)
        assert nimrep_from_graph(md.ring, nimrep.ade_graph(tag)) is kept, tag
        held = [_held_values(kept, md) for _ in range(2)]
        assert all(a is b for a, b in zip(*held)), tag
        cold = nimrep._build_module(md.ring, nimrep.ade_graph(tag))
        assert not cold._derived
        lam = nimrep.d_eigenvector.__wrapped__(cold, md)
        want = (
            nimrep._character.__wrapped__(cold)[0],
            multiplicity_profile.__wrapped__(cold, md),
            tm_dimension_report.__wrapped__(cold, md),
            lam,
            gauge._phi_verdict.__wrapped__(cold, lam, md),
        )
        assert held[0] == want and want[4].ok, tag

def test_diagonal_profile_path_graphs():
    for lev in (1, 3, 6):
        md = su2_modular_data(lev)
        nr = su2_nimrep_from_graph(a_graph(lev + 1), lev)
        Z = diagonal_profile_as_Z(nr, md)
        assert Z.provenance == "diagonal-built"
        for i in range(md.rank):
            for j in range(md.rank):
                if i == j:  # su(2) labels are self-dual
                    assert Z.entries[i][j] == 1
                else:
                    assert Z.entries[i][j] is None
        assert not Z.complete


def test_diagonal_profile_d4():
    md = su2_modular_data(4)
    nr = su2_nimrep_from_graph(d_graph(4), 4)
    Z = diagonal_profile_as_Z(nr, md)
    assert tuple(Z.entries[i][i] for i in range(5)) == (1, 0, 2, 0, 1)


def test_diagonal_profile_e6():
    md = su2_modular_data(10)
    nr = su2_nimrep_from_graph(e_graph(6), 10)
    Z = diagonal_profile_as_Z(nr, md)
    support = {i for i in range(11) if Z.entries[i][i]}
    assert support == {0, 3, 4, 6, 7, 10}
    assert all(Z.entries[i][i] == 1 for i in support)


def test_verify_identity_all_catalogs():
    for name in ("su2:0", "su2:1", "su2:7", "fibonacci", "ising", "zn:5", "zn:8"):
        md = load_catalog(name)
        assert verify_invariant(identity_matrix(md.rank), md).ok, name


def test_verify_rejects_wrong_unit():
    md = su2_modular_data(2)
    Z = identity_matrix(3)
    rows = [list(r) for r in Z.entries]
    rows[0][0] = 2
    v = verify_invariant(InvariantMatrix.from_rows(rows), md)
    names = {c.name: c.passed for c in v.checks}
    assert not names["unit-normalization"]
    assert not v.ok


def test_verify_e6_block_invariant():
    md = su2_modular_data(10)
    assert verify_invariant(e6_block_matrix(), md).ok


def test_verify_partial_matrix_cannot_commute():
    md = su2_modular_data(4)
    nr = su2_nimrep_from_graph(d_graph(4), 4)
    Z = diagonal_profile_as_Z(nr, md)
    v = verify_invariant(Z, md)
    checks = {c.name: c for c in v.checks}
    assert not checks["integrality"].passed
    assert "unknown" in checks["s-commutation"].witness


def test_verify_s_commutation_witness():
    # the D4 block with Z[2,2] = 1 instead of 2; Z*S - S*Z is antisymmetric,
    # so (2,0) is nonzero too and the witness pins the row-major scan
    md = su2_modular_data(4)
    rows = [
        [1, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1],
    ]
    v = verify_invariant(InvariantMatrix.from_rows(rows), md)
    checks = {c.name: c for c in v.checks}
    assert checks["integrality"].passed and checks["t-compatibility"].passed
    assert not checks["s-commutation"].passed
    assert checks["s-commutation"].witness == "(Z*S - S*Z) nonzero at (0,2)"


def test_verify_negative_entry_witness():
    # the first negative entry in row-major order; an unknown entry would be named the same way
    md = su2_modular_data(2)
    rows = [[1, 0, 0], [0, 1, -1], [0, -2, 1]]
    checks = {c.name: c for c in verify_invariant(InvariantMatrix.from_rows(rows), md).checks}
    assert not checks["integrality"].passed
    assert checks["integrality"].witness == "entry (1,2) = -1 is negative"
    assert checks["unit-normalization"].passed


def test_verify_t_compatibility_witness():
    md = su2_modular_data(2)
    rows = [[1, 1, 0], [1, 0, 0], [0, 0, 1]]
    v = verify_invariant(InvariantMatrix.from_rows(rows), md)
    checks = {c.name: c for c in v.checks}
    assert not checks["t-compatibility"].passed
    assert "t[0] != t[1]" in checks["t-compatibility"].witness


def test_commutant_dimensions_small():
    # at level 1 the t phases differ, so only multiples of the identity
    # survive the T filter even though the raw S-commutant is 2-dimensional
    assert commutant_basis(su2_modular_data(1)).dimension == 1
    assert commutant_basis(su2_modular_data(0)).dimension == 1
    assert commutant_basis(su2_modular_data(4)).dimension == 2
    assert commutant_basis(su2_modular_data(10)).dimension == 3
    assert commutant_basis(su2_modular_data(16)).dimension == 3
    assert commutant_basis(load_catalog("fibonacci")).dimension == 1
    assert commutant_basis(load_catalog("ising")).dimension == 1
    assert commutant_basis(load_catalog("zn:5")).dimension == 2
    assert commutant_basis(load_catalog("zn:8")).dimension == 3


def test_commutant_basis_members_verify():
    for name in ("su2:4", "su2:10", "su2:16", "zn:8"):
        md = load_catalog(name)
        cb = commutant_basis(md)
        assert len(cb.freePositions) == cb.dimension
        S = md.S
        r = md.rank
        for mat in cb.basis:
            # exact commutation with S-tilde
            for i in range(r):
                for j in range(r):
                    zs = sum((S[k][j] * mat[i][k] for k in range(r)), ZERO)
                    sz = sum((S[i][k] * mat[k][j] for k in range(r)), ZERO)
                    assert zs == sz, name
            # T filter built into the unknowns
            for i in range(r):
                for j in range(r):
                    if mat[i][j]:
                        assert md.t[i] == md.t[j], name
        # echelon normalization: basis k is the indicator of free position k
        for k, (i, j) in enumerate(cb.freePositions):
            for l, mat in enumerate(cb.basis):
                assert mat[i][j] == (1 if l == k else 0), name


def test_commutant_path_uses_no_float(monkeypatch):
    def no_float(*args, **kwargs):
        raise AssertionError("a float routine was called")

    mds = [load_catalog("su2:16"), load_catalog("zn:8")]
    expected = [commutant_basis(md) for md in mds]
    for name in ("matrix_rank", "solve", "lstsq", "svd", "qr"):
        monkeypatch.setattr(f"fuselab.invariants.np.linalg.{name}", no_float)
    monkeypatch.setattr("fuselab.cyclo.embed_complex", no_float)
    fresh = [ModularData(md.ring, md.S, md.t) for md in mds]
    assert [commutant_basis(md) for md in fresh] == expected


def test_commutant_basis_matches_the_fraction_oracle():
    # every catalog id, and the all-zero-t variants of su2:0 .. su2:10, whose
    # T filter keeps every entry (su2:10 then has 121 unknowns, dimension 19)
    names = catalog_names()
    cases = [load_catalog(name) for name in names]
    cases += [
        ModularData(md.ring, md.S, [0] * md.rank)
        for md in map(load_catalog, names[: names.index("su2:10") + 1])
    ]
    assert commutant_basis(cases[-7]).dimension == 7  # su2:4 with t = 0
    for md in cases:
        fresh = ModularData(md.ring, md.S, md.t)
        assert commutant_basis(md) == scalar_commutant_basis(fresh), md.ring.labels


def test_commutant_of_layers_past_int64():
    # S * 2**40 is not modular data (the constructor does not verify), but
    # Z commutes with c * S exactly when it commutes with S; its layers hold
    # Python ints, so the slab, the elimination and the exit run on them
    for name in ("su2:10", "zn:8", "ising"):
        md = load_catalog(name)
        big = ModularData(md.ring, [[x * 2**40 for x in row] for row in md.S], md.t)
        assert big.tensor.layers.dtype == object
        assert commutant_basis(big) == commutant_basis(md), name


def test_t_classes_are_compared_as_ints(monkeypatch):
    # once a datum's T classes are held, the unknowns and the t-compatibility
    # check compare ints, never T-phases
    source = su2_modular_data(10)
    md = ModularData(source.ring, source.S, source.t)
    classes = invariants._t_classes(md)
    assert [classes[i] == classes[j] for i in range(11) for j in range(11)] == [
        md.t[i] == md.t[j] for i in range(11) for j in range(11)
    ]

    def no_phase_eq(self, other):
        raise AssertionError("T-phases were compared")

    monkeypatch.setattr(RationalPhase, "__eq__", no_phase_eq)
    assert commutant_basis(md).dimension == 3
    checks = {c.name: c for c in verify_invariant(e6_block_matrix(), md).checks}
    assert checks["t-compatibility"].passed
    rows = [list(row) for row in identity_matrix(11).entries]
    rows[0][1] = 1
    checks = {c.name: c for c in verify_invariant(rows, md).checks}
    assert checks["t-compatibility"].witness == "Z[0,1] != 0 but t[0] != t[1]"


def test_e6_pattern_in_commutant_span():
    md = su2_modular_data(10)
    cb = commutant_basis(md)
    target = e6_block_matrix().entries
    # coordinates of a member are its entries at the free positions
    coords = [Fraction(target[i][j]) for i, j in cb.freePositions]
    r = md.rank
    for i in range(r):
        for j in range(r):
            got = sum(c * cb.basis[k][i][j] for k, c in enumerate(coords))
            assert got == target[i][j]


def test_enumerate_level_one():
    found = enumerate_invariants(su2_modular_data(1), 1)
    assert len(found) == 1
    assert found[0].entries == identity_matrix(2).entries
    assert found[0].provenance == "enumerated"


def test_enumerate_closure_and_determinism():
    md = su2_modular_data(2)
    first = enumerate_invariants(md, 1)
    assert identity_matrix(3).entries in {Z.entries for Z in first}
    for Z in first:
        assert verify_invariant(Z, md).ok
    assert enumerate_invariants(md, 1) == first
    # lexicographic output order
    assert list(first) == sorted(first, key=lambda z: z.entries)


def test_enumerate_finds_d4_block():
    md = su2_modular_data(4)
    found = {Z.entries for Z in enumerate_invariants(md, 2)}
    block = (
        (1, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
        (0, 0, 2, 0, 0),
        (0, 0, 0, 0, 0),
        (1, 0, 0, 0, 1),
    )
    assert block in found
    assert identity_matrix(5).entries in found


def test_enumerate_finds_e6_block():
    md = su2_modular_data(10)
    found = enumerate_invariants(md, 1)
    target = e6_block_matrix().entries
    assert any(Z.entries == target for Z in found)


def test_enumerate_bound_validation():
    with pytest.raises(ValueError):
        enumerate_invariants(su2_modular_data(1), 0)
    # bool is an int subclass; True used to run as bound 1
    with pytest.raises(ValueError, match="entryBound must be a positive integer, got True"):
        enumerate_invariants(su2_modular_data(4), True)


def test_block_walk_matches_reference_walk():
    cases = [(f"su2:{k}", b) for k in range(13) for b in (1, 2)] + [("su2:16", 4)]
    cases += [(name, 2) for name in ("fibonacci", "ising", *(f"zn:{n}" for n in range(2, 9)))]
    for name, bound in cases:
        md = load_catalog(name)
        assert enumerate_invariants(md, bound) == reference_enumerate(md, bound), (name, bound)


def test_block_walk_beyond_int64():
    # scaled by den = 3 the entries pass 2**63, so products must be Python
    # ints; c2 = 1, 2 leave (1,0) fractional, c2 = 3 puts it over the bound,
    # and c3 = 2, 3 make (1,1) negative
    big = 2**62
    basis = (
        ((Fraction(1), big + Fraction(1, 3)), (Fraction(2, 3), Fraction(0))),
        ((Fraction(0), -big + Fraction(2, 3)), (Fraction(1, 3), Fraction(1))),
        ((Fraction(0), Fraction(0)), (Fraction(4, 3), Fraction(0))),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1))),
    )
    positions = [(0, 0), (0, 1), (1, 0), (1, 1)]
    den, bound = 3, 3
    scaled = exact_ints(
        [[int(mat[i][j] * den) for i, j in positions] for mat in basis], len(basis) * bound
    )
    assert scaled.dtype == object
    got = [
        [[int(v[0]), int(v[1])], [int(v[2]), int(v[3])]]
        for v in _lattice_survivors(scaled, den, bound)
    ]
    expected = reference_points(basis, bound)
    assert got == expected
    assert expected == [[[1, 1], [1, 1]], [[1, 1], [1, 0]]]


def test_large_walk_stays_small():
    # 31**4 = 923,521 lattice points under the default cap; an all-at-once
    # product would hold every coordinate vector and value row at once
    md = su2_modular_data(28)
    expected = enumerate_invariants(md, 2)  # A_28, D_16 and E_8
    assert len(expected) == 3
    tracemalloc.start()
    try:
        found = enumerate_invariants(md, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == expected
    assert peak < 32 * 2**20, peak


def test_search_cap_must_be_positive(monkeypatch):
    md = su2_modular_data(4)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="cap must be a positive integer"):
            enumerate_invariants(md, 2, cap=cap)
    with pytest.raises(ValueError, match="cap must be a positive integer, got True"):
        enumerate_invariants(md, 2, cap=True)
    for env in ("-3", "abc", "1e6", "٢", " 2 ", "02", "+2", "1_000"):
        monkeypatch.setenv("FUSELAB_SEARCH_CAP", env)
        with pytest.raises(ValueError, match="FUSELAB_SEARCH_CAP must be a positive integer"):
            enumerate_invariants(md, 2)


def test_search_cap_explicit():
    md = su2_modular_data(10)  # commutant dimension 3, so 2^3 = 8 points at bound 1
    with pytest.raises(SearchBudgetExceeded):
        enumerate_invariants(md, 1, cap=7)
    assert enumerate_invariants(md, 1, cap=8)


def test_search_cap_env(monkeypatch):
    md = su2_modular_data(10)
    monkeypatch.setenv("FUSELAB_SEARCH_CAP", "7")
    with pytest.raises(SearchBudgetExceeded):
        enumerate_invariants(md, 1)
    monkeypatch.setenv("FUSELAB_SEARCH_CAP", "1000")
    assert enumerate_invariants(md, 1)
    # explicit argument wins over the environment
    monkeypatch.setenv("FUSELAB_SEARCH_CAP", "1")
    assert enumerate_invariants(md, 1, cap=1000)


def test_match_diagonal_paths():
    for lev in (1, 2, 5, 9):
        md = su2_modular_data(lev)
        nr = su2_nimrep_from_graph(a_graph(lev + 1), lev)
        assert match_diagonal(identity_matrix(lev + 1), nr, md).ok


def test_match_diagonal_e6():
    md = su2_modular_data(10)
    nr = su2_nimrep_from_graph(e_graph(6), 10)
    assert match_diagonal(e6_block_matrix(), nr, md).ok


def test_match_diagonal_d4_fails_identity():
    md = su2_modular_data(4)
    nr = su2_nimrep_from_graph(d_graph(4), 4)
    v = match_diagonal(identity_matrix(5), nr, md)
    assert not v.ok
    # profile is (1, 0, 2, 0, 1); the scan hits the (1,1) slot first
    assert "Z[1,1] = 1, profile gives 0" in v.first_failure.witness


def test_invariant_matrix_structure():
    with pytest.raises(ShapeMismatch):
        InvariantMatrix.from_rows([[1, 0], [0]])
    with pytest.raises(ShapeMismatch):
        InvariantMatrix.from_rows([[1, 0], [0, "x"]])
    # bool is an int subclass; this Z used to pass all four checks at su2:1
    with pytest.raises(ShapeMismatch, match=r"entry \(0,0\) must be an integer"):
        InvariantMatrix.from_rows([[True, False], [False, True]])
    with pytest.raises(ShapeMismatch):
        InvariantMatrix.from_rows([[1]], provenance="guessed")
