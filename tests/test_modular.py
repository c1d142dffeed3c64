"""Modular data: catalog invariants, the spectrum, idempotent families, and
the Verlinde recovery of fusion coefficients."""

import ast
import gc
import json
import random
import time
import tracemalloc
import weakref
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from fuselab.cli import JobSpec, main, run
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import (
    raw,
    scalar_idempotent_family,
    scalar_spectral_idempotent,
    scalar_spectrum,
    scalar_tube_idempotents,
)

from fuselab import cyclo, modular
from fuselab.cyclo import ONE, ZERO, CycloNumber, FieldTensor, RationalPhase, sin_ratio, zeta
from fuselab.errors import (
    DegenerateScalar,
    NonIntegralVerlinde,
    SchemaError,
    ShapeMismatch,
    ValidationFailed,
)
from fuselab.fusion import FusionRing, multiply, su2_fusion_ring
from fuselab.invariants import commutant_basis, verify_invariant
from fuselab.io import data_to_json, parse_data
from fuselab.nimrep import multiplicity_profile, regular_nimrep
from fuselab.verdict import Verdict, failed, passed
from fuselab.modular import (
    ModularData,
    SpectrumPoint,
    catalog_names,
    fibonacci_modular_data,
    idempotent_family,
    inner_product,
    ising_modular_data,
    load_catalog,
    spectral_idempotent,
    spectrum,
    su2_modular_data,
    tube_idempotent,
    verify_modular_data,
    verlinde,
    zn_modular_data,
)

ALL_CATALOGS = (
    [f"su2:{lev}" for lev in range(0, 9)]
    + ["fibonacci", "ising"]
    + [f"zn:{n}" for n in range(1, 9)]
)


def rat(x) -> CycloNumber:
    return CycloNumber.from_rational(x)


def test_su2_level_one_pinned():
    md = su2_modular_data(1)
    assert md.S == ((ONE, ONE), (ONE, -ONE))
    assert md.globalDim == rat(2)


def test_su2_level_two_dimensions():
    md = su2_modular_data(2)
    assert md.d == (ONE, sin_ratio(2, 4), ONE)
    assert md.globalDim == rat(4)


def test_su2_level_zero_trivial():
    md = su2_modular_data(0)
    assert md.S == ((ONE,),)
    assert md.globalDim == ONE


def test_every_catalog_verifies():
    for name in ALL_CATALOGS:
        assert verify_modular_data(load_catalog(name)).ok, name


def test_verify_catches_broken_symmetry():
    md = su2_modular_data(2)
    S = [list(row) for row in md.S]
    S[0][2] = rat(5)
    bad = ModularData(md.ring, S, [t.value for t in md.t])
    v = verify_modular_data(bad)
    assert not v.ok


def test_rational_entries_make_the_catalog_datum():
    # d, d(C) and the tensor are derived from S, whatever number type its entries have
    zn2 = load_catalog("zn:2")
    md = ModularData(zn2.ring, [[1, 1], [1, -1]], [0, Fraction(1, 4)])
    assert md == zn2
    assert (md.d, md.globalDim) == (zn2.d, zn2.globalDim)
    assert all(isinstance(x, CycloNumber) for row in md.S for x in row)
    assert verify_modular_data(md).ok
    assert spectrum(md) == spectrum(zn2)
    assert tube_idempotent(md, 1) == tube_idempotent(zn2, 1)
    with pytest.raises(TypeError):
        ModularData(zn2.ring, zn2.S, zn2.t, zn2.d, zn2.globalDim)


@pytest.mark.parametrize(
    "S, t, message",
    [
        ([[1, 1]], [0, 0], r"^S must be 2x2$"),
        ([[1, 1], [1, -1]], [0], r"^t must have length 2$"),
        ([[1, 1], [1, -1]], [0, 0, 0], r"^t must have length 2$"),
        ([[1, "x"], [1, -1]], [0, 0], r"^S\[0\]\[1\] = 'x' is not a cyclotomic or rational"),
        ([[1, 1], [True, -1]], [0, 0], r"^S\[1\]\[0\] = True is not a cyclotomic or rational"),
        ([[1, 1], [1, 1.5]], [0, 0], r"^S\[1\]\[1\] = 1.5 is not a cyclotomic or rational"),
        ([[1, 1], [1, -1]], [0, 0.25], r"^t\[1\] = 0.25 is not a rational number$"),
        ([[1, 1], [1, -1]], [0, True], r"^t\[1\] = True is not a rational number$"),
        ([[1, 1], [1, -1]], [0, "1/4"], r"^t\[1\] = '1/4' is not a rational number$"),
        ([[1, 1], [1, -1]], [0, "x"], r"^t\[1\] = 'x' is not a rational number$"),
        ([[1, 1], [1, -1]], [0, None], r"^t\[1\] = None is not a rational number$"),
    ],
)
def test_constructor_refuses_malformed_s_and_t(S, t, message):
    with pytest.raises(ShapeMismatch, match=message):
        ModularData(zn_modular_data(2).ring, S, t)


def test_dimension_row_names_a_unit_dimension_other_than_one():
    md = su2_modular_data(3)
    S = [list(row) for row in md.S]
    S[0][0] = S[0][0] * 2
    v = verify_modular_data(ModularData(md.ring, S, md.t))
    assert v.checks[0] == failed("dimension-row", "d[0] != 1")


def test_spectrum_pinned_values():
    md1 = su2_modular_data(1)
    pts = spectrum(md1)
    assert pts[1].values[1] == -ONE
    assert pts[0].values == md1.d
    md2 = su2_modular_data(2)
    assert spectrum(md2)[1].values[1] == ZERO


def test_spectrum_points_are_homomorphisms():
    for name in ("su2:3", "fibonacci", "ising", "zn:5", "zn:6"):
        md = load_catalog(name)
        N = md.ring.N
        for p in spectrum(md):
            assert p.values[0] == ONE
            for a in range(md.rank):
                for b in range(md.rank):
                    want = sum(
                        (p.values[c] * N[a][b][c] for c in range(md.rank)), ZERO
                    )
                    assert p.values[a] * p.values[b] == want


def test_spectrum_norms():
    for name in ("su2:4", "ising", "zn:3"):
        md = load_catalog(name)
        for I, p in enumerate(spectrum(md)):
            assert p.normSq * md.d[I] * md.d[I] == md.globalDim


def test_inner_product_pinned():
    md = su2_modular_data(1)
    pts = spectrum(md)
    assert inner_product(md, pts[0].values, pts[0].values) == rat(2)
    assert inner_product(md, pts[0].values, pts[1].values) == ZERO
    md0 = su2_modular_data(0)
    p0 = spectrum(md0)[0]
    assert inner_product(md0, p0.values, p0.values) == ONE


def test_spectrum_orthogonality_all_catalogs():
    # the pairing uses dual labels, so distinct points pair to zero even in
    # the non-self-dual zn catalogs
    for name in ALL_CATALOGS:
        md = load_catalog(name)
        pts = spectrum(md)
        for i in range(md.rank):
            for j in range(md.rank):
                got = inner_product(md, pts[i].values, pts[j].values)
                if i == j:
                    assert got == pts[i].normSq, name
                else:
                    assert got == ZERO, (name, i, j)


def test_spectral_idempotents_level_one():
    md = su2_modular_data(1)
    pts = spectrum(md)
    half = Fraction(1, 2)
    e0 = spectral_idempotent(md, pts[0])
    e1 = spectral_idempotent(md, pts[1])
    assert e0.coeffs == (rat(half), rat(half))
    assert e1.coeffs == (rat(half), rat(-half))


def test_tube_idempotent_examples():
    md = su2_modular_data(1)
    assert tube_idempotent(md, 0).coeffs == (rat(Fraction(1, 2)), rat(Fraction(1, 2)))
    md2 = su2_modular_data(2)
    e = tube_idempotent(md2, 1)
    assert e.coeffs[1] == ZERO
    assert e.coeffs[0] == rat(Fraction(1, 2))
    assert e.coeffs[2] == rat(Fraction(-1, 2))
    md0 = su2_modular_data(0)
    assert tube_idempotent(md0, 0).coeffs == (ONE,)


def test_tube_equals_spectral_all_catalogs():
    for name in ALL_CATALOGS:
        md = load_catalog(name)
        pts = spectrum(md)
        for I in range(md.rank):
            assert tube_idempotent(md, I) == spectral_idempotent(md, pts[I]), name


def test_idempotent_family_complete_and_orthogonal():
    for name in ("su2:0", "su2:1", "su2:4", "su2:5", "fibonacci", "ising", "zn:4", "zn:7"):
        md = load_catalog(name)
        fam = idempotent_family(md)
        total = fam[0]
        for e in fam[1:]:
            total = total + e
        assert total == md.ring.unit, name
        for i, e in enumerate(fam):
            for j, f in enumerate(fam):
                prod = multiply(md.ring, e, f)
                if i == j:
                    assert prod == e, name
                else:
                    assert prod.is_zero, name


def test_idempotents_diagonalize_spectrum():
    md = load_catalog("su2:3")
    pts = spectrum(md)
    fam = idempotent_family(md)
    for lam in pts:
        for J, e in enumerate(fam):
            # mu(e_lambda) = delta_{mu,lambda}
            val = sum(
                (lam.values[S] * e.coeffs[S] for S in range(md.rank)), ZERO
            )
            assert val == (ONE if J == lam.baseLabel else ZERO)


def test_verlinde_recovers_fusion():
    for name in ("su2:2", "su2:5", "fibonacci", "ising", "zn:5", "zn:8"):
        md = load_catalog(name)
        T = verlinde(md)
        for a in range(md.rank):
            for b in range(md.rank):
                for c in range(md.rank):
                    assert T[a][b][c] == md.ring.N[a][b][c], name


def test_verlinde_fibonacci_tau_tau_tau():
    T = verlinde(fibonacci_modular_data())
    assert T[1][1][1] == 1
    assert T[1][1][0] == 1


def test_verlinde_rejects_inconsistent_s():
    md = su2_modular_data(1)
    S = ((ONE, ONE), (ONE, zeta(3)))
    bad = ModularData(md.ring, S, [t.value for t in md.t])
    with pytest.raises(NonIntegralVerlinde):
        verlinde(bad)


def test_su2_t_phases():
    md = su2_modular_data(1)
    assert md.t[0] == RationalPhase(Fraction(-1, 24))
    assert md.t[1] == RationalPhase(Fraction(5, 24))
    md4 = su2_modular_data(4)
    h = 6
    for a in range(5):
        assert md4.t[a] == RationalPhase(
            Fraction(a * (a + 2), 4 * h) - Fraction(4, 8 * h)
        )


def test_zn_duality_structure():
    md = zn_modular_data(5)
    assert md.ring.dual == (0, 4, 3, 2, 1)
    md8 = zn_modular_data(8)
    assert md8.ring.dual == (0, 7, 6, 5, 4, 3, 2, 1)
    assert all(d == ONE for d in md8.d)


def test_catalog_names_and_loader():
    names = catalog_names()
    assert "su2:0" in names and "su2:28" in names
    assert "fibonacci" in names and "ising" in names and "zn:8" in names
    assert load_catalog("ising") is ising_modular_data()
    with pytest.raises(SchemaError):
        load_catalog("su2:x")
    with pytest.raises(SchemaError):
        load_catalog("e8")
    with pytest.raises(SchemaError):
        load_catalog("zn:0")
    # the documented limits: su2 levels up to 28, zn up to n = 8
    for name in ("su2:29", "zn:9", "su2:-1"):
        with pytest.raises(SchemaError, match="must be in"):
            load_catalog(name)


# -- the tensor checks against the scalar loops they replaced ---------------


def _loop_s_squared(md):
    """Test oracle: the first (i, j >= i) with (S^2)_ij != d(C) delta_{j,dual i},
    as scalar sums."""
    r, S, dual = md.rank, md.S, md.ring.dual
    for i in range(r):
        for j in range(i, r):
            total = ZERO
            for m in range(r):
                total = total + S[i][m] * S[m][j]
            if total != (md.globalDim if j == dual[i] else ZERO):
                return (i, j)
    return None


def _loop_verlinde_consistency(md):
    """Test oracle: the first failure of sum_c N_ab^c S_cm S_0m = S_am S_bm,
    scanning a, then b >= a, then m, and N's symmetry per (a, b)."""
    r, S, N = md.rank, md.S, md.ring.N
    for a in range(r):
        for b in range(a, r):
            for m in range(r):
                lhs = ZERO
                for c in range(r):
                    if N[a][b][c]:
                        lhs = lhs + S[c][m] * S[0][m] * N[a][b][c]
                if lhs != S[a][m] * S[b][m]:
                    return (a, b, m)
            if N[a][b] != N[b][a]:
                return (a, b, "asymmetric N")
    return None


def _loop_verlinde(md):
    """Test oracle: the literal Verlinde sum as scalar sums, raising on the
    first entry (a, b >= a, c) that is irrational or not a non-negative integer."""
    r, S, dual = md.rank, md.S, md.ring.dual
    inv_dc = md.globalDim.inverse()
    w = [md.d[m].inverse() * inv_dc for m in range(r)]
    out = [[[None] * r for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(a, r):
            for c in range(r):
                total = ZERO
                for m in range(r):
                    total = total + S[a][m] * S[b][m] * S[dual[c]][m] * w[m]
                if not total.is_rational:
                    raise NonIntegralVerlinde(f"entry ({a},{b},{c}) is irrational: {total}")
                q = total.as_rational()
                if q.denominator != 1 or q < 0:
                    raise NonIntegralVerlinde(
                        f"entry ({a},{b},{c}) = {q} is not a non-negative integer"
                    )
                out[a][b][c] = out[b][a][c] = total
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def _loop_s_commutation(Z, md):
    """Test oracle: the first (i, j) where (Z*S - S*Z)_ij != 0, as scalar sums."""
    r, S = md.rank, md.S
    for i in range(r):
        for j in range(r):
            total = ZERO
            for k in range(r):
                total = total + S[k][j] * Z[i][k] - S[i][k] * Z[k][j]
            if total != ZERO:
                return (i, j)
    return None


def _outcome(fn):
    try:
        return fn()
    except (NonIntegralVerlinde, DegenerateScalar) as err:
        return type(err).__name__, str(err)


def _perturbed(md, kind, rng):
    """md with one seeded corruption: a symmetric S pair raised by 1, one S
    entry plus zeta_7, one N entry raised by 1, or a symmetric S pair times
    2**40 zeta_3."""
    r = md.rank
    S = [list(row) for row in md.S]
    N = [[list(row) for row in plane] for plane in md.ring.N]
    i, j = rng.randrange(r), rng.randrange(r)
    if kind == "pair+1":
        S[i][j] = S[i][j] + 1
        S[j][i] = S[i][j]
    elif kind == "entry+zeta7":
        S[i][j] = S[i][j] + zeta(7)
    elif kind == "N+1":
        N[i][j][rng.randrange(r)] += 1
    else:
        S[i][j] = S[i][j] * CycloNumber(3, {1: 2**40})
        S[j][i] = S[i][j]
    N = tuple(tuple(tuple(row) for row in plane) for plane in N)
    ring = FusionRing(labels=md.ring.labels, dual=md.ring.dual, N=N)
    return ModularData(ring, S, [t.value for t in md.t])


def _loop_verdict(md, kept):
    """Test oracle: the parent's verdict, with the two dimension checks taken
    from `kept` (their scalar code is unchanged) and the S-matrix checks
    recomputed by the scalar loops above."""
    r, S, dual = md.rank, md.S, md.ring.dual
    sym = next(((i, j) for i in range(r) for j in range(i + 1, r) if S[i][j] != S[j][i]), None)
    dsym = next(
        ((i, j) for i in range(r) for j in range(r) if S[i][j] != S[dual[i]][dual[j]]), None
    )
    ssq, ver = _loop_s_squared(md), _loop_verlinde_consistency(md)
    checks = list(kept)
    for name, fmt, at in (
        ("symmetry", "(I,J)", sym),
        ("dual-symmetry", "(I,J)", dsym),
        ("s-squared", "(I,J)", ssq),
        ("verlinde-consistency", "(a,b,m)", ver),
    ):
        checks.append(passed(name) if at is None else failed(name, f"{fmt}={at}"))
    return Verdict(tuple(checks))


def test_tensor_checks_match_scalar_oracles_on_perturbed_data():
    # a seeded sweep over catalog data of rank <= 13; the 2**40 * zeta_3
    # pairs take the Python-int path of the integer products
    rng = random.Random(4)
    names = [n for n in catalog_names() if load_catalog(n).rank <= 13]
    kinds = ("pair+1", "entry+zeta7", "N+1", "pair*2**40*zeta3")
    seen = set()
    for step in range(48):
        kind = kinds[step % 4]
        source = load_catalog(rng.choice(names))
        md = _perturbed(source, kind, rng)
        v = verify_modular_data(md)
        want = _loop_verdict(md, v.checks[:2])
        assert v.describe() == want.describe()
        assert v.as_dict() == want.as_dict()
        seen.add((kind, "asymmetric N" in want.checks[-1].witness))
        if md.rank <= 13:
            assert _outcome(lambda: verlinde(md)) == _outcome(lambda: _loop_verlinde(md))
        r = md.rank
        for Z in (
            [[1 if a == b else 0 for b in range(r)] for a in range(r)],
            [[rng.randint(0, 1) for _ in range(r)] for _ in range(r)],
        ):
            at = _loop_s_commutation(Z, md)
            got = {c.name: c for c in verify_invariant(Z, md).checks}["s-commutation"]
            assert got.witness == ("" if at is None else f"(Z*S - S*Z) nonzero at ({at[0]},{at[1]})")
    assert ("N+1", True) in seen  # the sweep reaches `asymmetric N`
    assert {k for k, _ in seen} == set(kinds)


def test_tensor_check_witnesses_pinned():
    md = su2_modular_data(4)
    S = [list(row) for row in md.S]
    S[1][2] = S[2][1] = S[1][2] + 1
    bad = ModularData(md.ring, S, [t.value for t in md.t])
    assert verify_modular_data(bad).describe() == "fail: s-squared at (I,J)=(0, 1)"
    assert {c.name: c.witness for c in verify_modular_data(bad).checks}[
        "verlinde-consistency"
    ] == "(a,b,m)=(1, 1, 1)"

    # row 0 of S^2 stays intact, so the first failure is (1, 1), not (1, 0)
    md2 = su2_modular_data(2)
    S = [list(row) for row in md2.S]
    S[1][0], S[2][0] = S[1][0] + 1, S[2][0] - sin_ratio(2, 4)
    lower = ModularData(md2.ring, S, [t.value for t in md2.t])
    assert {c.name: c.witness for c in verify_modular_data(lower).checks}[
        "s-squared"
    ] == "(I,J)=(1, 1)"

    ising = ising_modular_data()
    N = [[list(row) for row in plane] for plane in ising.ring.N]
    N[2][1][1] += 1
    N = tuple(tuple(tuple(row) for row in plane) for plane in N)
    ring = FusionRing(labels=ising.ring.labels, dual=ising.ring.dual, N=N)
    flipped = ModularData(ring, ising.S, [t.value for t in ising.t])
    assert {c.name: c.witness for c in verify_modular_data(flipped).checks}[
        "verlinde-consistency"
    ] == "(a,b,m)=(1, 2, 'asymmetric N')"

    md1 = su2_modular_data(1)
    odd = ModularData(md1.ring, ((ONE, ONE), (ONE, zeta(3))), [t.value for t in md1.t])
    with pytest.raises(NonIntegralVerlinde) as err:
        verlinde(odd)
    assert str(err.value) == "entry (0,0,1) is irrational: (1 + z3)/2"
    Z = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    witness = {c.name: c.witness for c in verify_invariant(Z, su2_modular_data(2)).checks}
    assert witness["s-commutation"] == "(Z*S - S*Z) nonzero at (0,0)"


def _pair_block(md, a, b):
    """The index of the block of label pairs holding (a, b), a <= b, in the
    row-major order of modular._pair_blocks, and the index of its last block."""
    r = md.rank
    step = max(1, modular._PAIR_ENTRIES // r)
    return (a * r - a * (a - 1) // 2 + b - a) // step, (r * (r + 1) // 2 - 1) // step


def _swapped(md, i, j):
    """md with labels i and j swapped in S only: S' = P S P."""
    p = list(range(md.rank))
    p[i], p[j] = p[j], p[i]
    return ModularData(md.ring, [[md.S[x][y] for y in p] for x in p], [t.value for t in md.t])


def _raised(md, *entries):
    """md with N[a][b][c] raised by 1 at each (a, b, c) given."""
    N = [[list(row) for row in plane] for plane in md.ring.N]
    for a, b, c in entries:
        N[a][b][c] += 1
    N = tuple(tuple(tuple(row) for row in plane) for plane in N)
    ring = FusionRing(labels=md.ring.labels, dual=md.ring.dual, N=N)
    return ModularData(ring, md.S, [t.value for t in md.t])


def test_verlinde_witness_matches_the_scalar_loop_across_pair_blocks(monkeypatch):
    # N raised at pairs a, b >= 2 keeps rows 0 and 1 of the Verlinde identity
    # and breaks a condition of the early exit: N turns asymmetric, or, for
    # a symmetric raise, the homomorphism row of _row_one_generates. So the
    # scan runs on from row 2 and stops in the block of the first failing
    # pair. The blocks are those _pair_blocks yields, recorded as it runs:
    # at rank 17 with the default _PAIR_ENTRIES, and at rank 9 with blocks
    # of 4 pairs. Last of all, N turns asymmetric at (15, 16) and is wrong
    # at the later pair (16, 16) of the same block.
    pair_blocks, scans = modular._pair_blocks, []

    def recorded(T, row=0):
        scans.append([])
        for a, b, P in pair_blocks(T, row):
            scans[-1].append(list(zip(a.tolist(), b.tolist())))
            yield a, b, P

    monkeypatch.setattr(modular, "_pair_blocks", recorded)
    top, low = su2_modular_data(16), su2_modular_data(8)
    cases = [
        (512, _raised(top, (2, 3, 1))),
        (512, _raised(top, (8, 9, 1), (9, 8, 1))),
        (512, _raised(top, (15, 16, 0), (16, 15, 0))),
        (36, _raised(low, (2, 2, 0), (2, 2, 2))),
        (36, _raised(low, (4, 6, 2), (6, 4, 2))),
        (36, _raised(low, (8, 8, 1))),
        (512, _raised(top, (16, 15, 3), (16, 16, 0))),
    ]
    where = set()
    for entries, md in cases:
        monkeypatch.setattr(modular, "_PAIR_ENTRIES", entries)
        scans.clear()
        v = verify_modular_data(md)
        want = _loop_verdict(md, v.checks[:2])
        assert v.describe() == want.describe() and v.as_dict() == want.as_dict()
        assert [c.name for c in v.checks if not c.passed] == ["verlinde-consistency"]
        a, b, _ = ast.literal_eval(v.checks[-1].witness.split("=", 1)[1])
        (scan,) = scans  # one scan, from row 2, ending in the failing block
        assert a >= 2 and scan[0][0] == (2, 2) and (a, b) in scan[-1]
        r = md.rank
        where.add(
            (r, "first" if len(scan) == 1 else "last" if scan[-1][-1] == (r - 1, r - 1) else "middle")
        )
    assert where == {(r, place) for r in (17, 9) for place in ("first", "middle", "last")}
    assert v.checks[-1].witness == "(a,b,m)=(15, 16, 'asymmetric N')"


def test_verlinde_names_the_first_bad_entry_past_the_first_block():
    # S' = G S G with G = diag(1, -1, 1, ..., 1) keeps S'^2 and makes the
    # literal sum g_a g_b g_c N_ab^c: the first negative entry is (1, 2, 3),
    # in the second block of label pairs at rank 29
    md = su2_modular_data(28)
    g = [-1 if x == 1 else 1 for x in range(md.rank)]
    S = [[md.S[x][y] * (g[x] * g[y]) for y in range(md.rank)] for x in range(md.rank)]
    flipped = ModularData(md.ring, S, [t.value for t in md.t])
    assert _pair_block(flipped, 1, 2)[0] == 1
    with pytest.raises(NonIntegralVerlinde) as err:
        verlinde(flipped)
    assert str(err.value) == "entry (1,2,3) = -1 is not a non-negative integer"


def _ring(labels, products):
    """A self-dual fusion ring from products[a][b] = the labels in a * b."""
    r = len(labels)
    N = tuple(
        tuple(tuple(products[a][b].count(c) for c in range(r)) for b in range(r)) for a in range(r)
    )
    return FusionRing(labels=labels, dual=tuple(range(r)), N=N)


def _broken_conditions(md):
    """Which conditions of the Verlinde scan's early exit md breaks, each
    checked here on its own: nonzero dimensions, symmetric N, unit rows,
    generation by label 1, and the homomorphism row M(1) M(b) = sum_c
    N_1b^c M(c) of the regular matrices M(a)_{cb} = N_ab^c."""
    r, N = md.rank, md.ring.N
    broken = set()
    if any(x.is_zero for x in md.d):
        broken.add("zero d")
    if any(N[a][b] != N[b][a] for a in range(r) for b in range(r)):
        broken.add("asymmetric N")
    unit = [[int(b == c) for c in range(r)] for b in range(r)]
    if [list(row) for row in N[0]] != unit or [list(N[b][0]) for b in range(r)] != unit:
        broken.add("unit rows")
    reached = {0, 1}
    while True:
        new = {c for b in reached for c in range(r) if N[1][b][c] and c not in reached}
        if not new:
            break
        reached |= new
    if len(reached) < r:
        broken.add("generation")
    M = [[[N[a][b][c] for b in range(r)] for c in range(r)] for a in range(r)]
    for b in range(r):
        for x in range(r):
            for y in range(r):
                left = sum(M[1][x][z] * M[b][z][y] for z in range(r))
                if left != sum(N[1][b][c] * M[c][x][y] for c in range(r)):
                    broken.add("homomorphism row")
    return broken


def _datum(ring, S):
    """Data over ring with the given S and every t zero."""
    return ModularData(ring, S, [0] * len(S))


def test_verlinde_scan_goes_on_past_row_one_when_a_condition_fails(monkeypatch):
    # one label pair per block, so that the conditions are checked after
    # pair (1, r - 1) and a failure past row 1 lies in a later block; each
    # datum passes rows 0 and 1 and fails later, with the named property
    # broken. The exit needs no unit rows (rows 0 and 1 give y M(0) = y),
    # and with unit rows, generation and the homomorphism row N is
    # symmetric, so those two cases test the verdict only
    monkeypatch.setattr(modular, "_PAIR_ENTRIES", 1)
    # Z2 x Z2 with labels (0,0), (1,0), (0,1), (1,1): label 1 generates {0, 1}
    # only. The toric code's S with column 3 of rows 2 and 3 doubled keeps
    # y_3 = y_1 y_2 but breaks y_2^2 = 1
    pointed = _ring(("1", "e", "m", "f"), [[[b ^ a] for b in range(4)] for a in range(4)])
    toric = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    doubled = [row[:3] + [row[3] * (2 if i >= 2 else 1)] for i, row in enumerate(toric)]
    # su(2) at level 4 with S_04 = S_14 = 0: rows 0 and 1 read 0 = 0 at m = 4
    su4 = su2_modular_data(4)
    zero_d = [list(row) for row in su4.S]
    zero_d[0][4] = zero_d[1][4] = ZERO
    # a ring whose label 2 copies the unit in S, with N_02 = N_20 = x_0
    copy = _ring(("1", "x", "y"), [[[0], [1], [0]], [[1], [2], [1]], [[0], [1], [1]]])
    cases = [
        (_datum(pointed, doubled), "generation", (2, 2, 3)),
        (_datum(su4.ring, zero_d), "zero d", (2, 2, 4)),
        (_raised(su4, (2, 3, 1)), "asymmetric N", None),
        (_datum(copy, [[1, 1, 1], [1, -1, 1], [1, 1, 1]]), "unit rows", (2, 2, 1)),
        (_raised(su4, (2, 3, 4), (3, 2, 4)), "homomorphism row", None),
    ]
    for md, condition, witness in cases:
        assert condition in _broken_conditions(md), condition
        v = verify_modular_data(md)
        want = _loop_verdict(md, v.checks[:2])
        assert v.describe() == want.describe() and v.as_dict() == want.as_dict(), condition
        a, b, m = ast.literal_eval(v.checks[-1].witness.split("=", 1)[1])
        assert a >= 2, condition
        assert witness is None or (a, b, m) == witness, condition
    assert verify_modular_data(_datum(pointed, toric)).ok


def test_verlinde_failures_past_row_one_show_in_row_one():
    # S' = P S P with P fixing labels 0 and 1, and S' = G S G with signs
    # g_0 = g_1 = 1, at ranks with several blocks: N is the datum's own and
    # no dimension is zero, so every condition of the early exit holds, and
    # its argument puts the first failure in row 1 (a <= 1) wherever the
    # change sits; the verdict is the scalar loop's
    rng = random.Random(2507)
    cases = []
    for _ in range(6):
        md = su2_modular_data(rng.randint(9, 16))
        i, j = rng.sample(range(2, md.rank), 2)
        cases.append(_swapped(md, i, j))
        first = rng.randrange(2, md.rank)  # the first label with g = -1
        g = [1] * first + [rng.choice([1, -1]) for _ in range(first, md.rank)]
        g[first] = -1
        S = [[md.S[x][y] * (g[x] * g[y]) for y in range(md.rank)] for x in range(md.rank)]
        cases.append(ModularData(md.ring, S, [t.value for t in md.t]))
    for md in cases:
        assert not _broken_conditions(md)
        v = verify_modular_data(md)
        want = _loop_verdict(md, v.checks[:2])
        assert v.describe() == want.describe() and v.as_dict() == want.as_dict()
        assert [c.name for c in v.checks if not c.passed] == ["verlinde-consistency"]
        a, b, _ = ast.literal_eval(v.checks[-1].witness.split("=", 1)[1])
        assert a <= 1
        row_one, last = _pair_block(md, 1, md.rank - 1)
        assert row_one < last  # blocks past row 1 were left


def _with_s(md, S):
    """md with S replaced (the ring and t kept)."""
    return ModularData(md.ring, S, [t.value for t in md.t])


def _raised_s(md, i, j):
    """md with the S pair (i, j), (j, i) raised by 1."""
    S = [list(row) for row in md.S]
    S[i][j] = S[j][i] = S[i][j] + 1
    return _with_s(md, S)


def test_valid_data_take_one_product(monkeypatch):
    # valid data is settled by P[a][b][m] = S_am S_bm for a = 0, 1: no pair
    # block past row 1 and no dense S^2, the one product whose operands both
    # hold all of S; the early exit's conditions are checked once at rank > 2
    convolve, products, checked = FieldTensor.convolve, [], []

    def counted(self, other, op, inner):
        products.append((self.layers.shape[1:], other.layers.shape[1:]))
        return convolve(self, other, op, inner)

    def no_blocks(T, row=0):
        raise AssertionError("a pair block was formed")

    def conditions(ring):
        checked.append(ring.rank)
        return generates(ring)

    generates = modular._row_one_generates
    cases = [su2_modular_data(28), su2_modular_data(8), fibonacci_modular_data()]
    raised = _raised_s(su2_modular_data(16), 2, 5)  # built before the counters
    monkeypatch.setattr(FieldTensor, "convolve", counted)
    monkeypatch.setattr(modular, "_pair_blocks", no_blocks)
    monkeypatch.setattr(modular, "_row_one_generates", conditions)
    for md in cases:
        products.clear(), checked.clear()
        assert verify_modular_data(md).ok
        r = md.rank
        assert products == [((r, r), (2, r))]
        assert checked == ([r] if r > 2 else [])
    # a raised S pair fails row 0 of S^2 and row 1 of the Verlinde identity:
    # the dense S^2 names the s-squared witness, and no pair block is needed
    products.clear()
    v = verify_modular_data(raised)
    assert v.describe() == "fail: s-squared at (I,J)=(0, 2)"
    assert v.checks[-1].witness == "(a,b,m)=(1, 1, 5)"
    assert ((17, 17), (17, 17)) in products


def _galois(md, j):
    """md with sigma_j applied to every S entry (t kept)."""
    return _with_s(md, [[x.galois(j) for x in row] for row in md.S])


def _signed(md, g):
    """md with S' = G S G for G = diag(g)."""
    S = md.S
    return _with_s(md, [[S[a][b] * (g[a] * g[b]) for b in range(md.rank)] for a in range(md.rank)])


def test_derived_s_squared_matches_the_scalar_loop():
    # s-squared passes without S^2 only when symmetry and Verlinde pass, N's
    # plane dual(0) is the permutation matrix of dual, and row 0 of S^2 is
    # d(C) at dual(0). Each condition has a case that breaks it alone among
    # the four and fails s-squared: columns swapped (symmetry), Z_8 P S P
    # (Verlinde), the identity dual (the N plane), S = d d^T (row 0)
    rng = random.Random(2627)
    cases = []
    for n in (3, 5, 8):  # Z_n's N and S with the identity as dual
        zn = zn_modular_data(n)
        ring = FusionRing(labels=zn.ring.labels, dual=tuple(range(n)), N=zn.ring.N)
        cases.append((ModularData(ring, zn.S, [t.value for t in zn.t]), "s-squared", "(1, 1)"))
    for name, ells in (("su2:5", (3, 5, 13)), ("su2:8", (3, 7, 11, 19)), ("zn:5", (2, 3, 4))):
        cases += [(_galois(load_catalog(name), j), None, None) for j in ells]  # valid
    su4 = su2_modular_data(4)
    cases.append((_with_s(su4, [[2 * x for x in row] for row in su4.S]), "dimension-row", None))
    # S = d d^T: symmetric and every column a character, but row 0 of S^2 is d(C) d
    cases.append((_with_s(su4, [[a * b for b in su4.d] for a in su4.d]), "s-squared", "(0, 1)"))
    # S Q, columns 1 and 2 swapped: every column a character and S S^T kept
    swapped = [[row[y] for y in (0, 2, 1, 3, 4)] for row in su4.S]
    cases.append((_with_s(su4, swapped), "s-squared", "(0, 0)"))
    for k in range(9, 17):  # P S P and G S G at ranks 10-17, each fixing labels 0 and 1
        md = su2_modular_data(k)
        i, j = rng.sample(range(2, md.rank), 2)
        cases.append((_swapped(md, i, j), "verlinde-consistency", None))
        g = [1, 1] + [rng.choice([1, -1]) for _ in range(2, md.rank)]
        cases.append((_signed(md, g), None, None))
    # on Z_8, P and G that do not commute with dual keep row 0 of S^2 and break the rest
    zn8 = zn_modular_data(8)
    cases.append((_swapped(zn8, 1, 2), "s-squared", "(1, 6)"))
    cases.append((_signed(zn8, [-1 if x == 1 else 1 for x in range(8)]), "s-squared", "(1, 7)"))
    for md, i, j in ((su4, 1, 3), (su2_modular_data(16), 2, 5), (zn8, 3, 3)):
        cases.append((_raised_s(md, i, j), "s-squared", None))
    for md, name, witness in cases:
        v = verify_modular_data(md)
        want = _loop_verdict(md, v.checks[:2])
        assert v.describe() == want.describe() and v.as_dict() == want.as_dict()
        failing = {c.name: c.witness for c in v.checks if not c.passed}
        if name is not None:
            assert name in failing, (name, failing)
        if witness is not None:
            assert failing[name] == f"(I,J)={witness}"


def test_large_order_entry_rejected_at_s_squared():
    # S[1][1] = -1 + zeta_4099 puts the common order at 5 * 4099
    doc = data_to_json(fibonacci_modular_data())
    coeffs = [[0, 1]] * 4099
    coeffs[0], coeffs[1] = [-1, 1], [1, 1]
    doc["S"][1][1] = {"order": 4099, "coeffs": coeffs}
    start = time.perf_counter()
    with pytest.raises(ValidationFailed) as err:
        parse_data(doc)
    assert str(err.value) == "modular-data fails s-squared: (I,J)=(0, 1)"
    assert time.perf_counter() - start < 1.0


def _zeta_json(n):
    coeffs = [[0, 1]] * n
    coeffs[1 % n] = [1, 1]
    return {"order": n, "coeffs": coeffs}


def test_field_order_over_budget_is_refused(tmp_path, capsys):
    # zeta_101, zeta_103 and zeta_107 have the common order 1,113,121
    doc = data_to_json(fibonacci_modular_data())
    doc["S"][0][1], doc["S"][1][0], doc["S"][1][1] = map(_zeta_json, (101, 103, 107))
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="field order 1113121 exceeds the budget of 32768"):
        parse_data(doc)
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["spectrum", "--data", str(path)]) == 2
    assert "SchemaError" in capsys.readouterr().out

    with pytest.raises(SchemaError, match=r"order: 32769 exceeds the budget"):
        parse_data({**doc, "S": [[_zeta_json(32769)]]})
    one = {"order": 1, "coeffs": [[1, 1]]}
    gauge = {"kind": "gauge", "nodes": ["a", "b"], "mu": [
        [0, 0, one], [1, 1, one], [0, 1, _zeta_json(1009)], [1, 0, _zeta_json(1013)]
    ]}
    with pytest.raises(SchemaError, match="field order 1022117 exceeds the budget"):
        parse_data(gauge)


def test_gathered_catalog_tensors_are_the_tensors_of_their_entries():
    # su(2) and Z_n gather S from the tensor of their sine ratios or roots;
    # that equals pooling S itself
    for name in catalog_names():
        md = load_catalog(name)
        T, want = md.tensor, FieldTensor.of(md.S)
        assert (T.order, T.den, T.exps.tolist(), T.layers.tolist()) == (
            want.order, want.den, want.exps.tolist(), want.layers.tolist()
        ), name
        assert md.globalDim == sum((x * x for x in md.d), ZERO), name


def _scalar_catalog_s(name):
    """S of an su(2) or Z_n catalog id from scalar sin_ratio / zeta values,
    gathered by the index the constructors use."""
    head, k = name.split(":")
    k = int(k)
    if head == "su2":
        at, n = np.arange(1, k + 2), 2 * (k + 2)
        values = [sin_ratio(j, k + 2) for j in range(n)]
        index = (at[:, None] * at) % n
    else:
        x = np.arange(k)
        values = [zeta(k, j) for j in range(k)]
        index = (x[:, None] * x * (2 if k % 2 else 1)) % k
    return tuple(tuple(values[j] for j in row) for row in index.tolist())


def test_catalog_tensors_from_integer_tables_equal_the_scalar_route(monkeypatch):
    # the su(2) and Z_n tensors come from integer tables of root exponents;
    # they equal the pooled tensor of the scalar values gathered the same way,
    # and md.S, made on first use, equals that gather. A fresh cache, so no
    # earlier test has read md.S of the data loaded here
    monkeypatch.setattr(modular, "su2_modular_data", lru_cache(su2_modular_data.__wrapped__))
    monkeypatch.setattr(modular, "zn_modular_data", lru_cache(zn_modular_data.__wrapped__))
    for name in [f"su2:{k}" for k in range(29)] + [f"zn:{n}" for n in range(1, 9)]:
        md = load_catalog(name)
        assert "S" not in md.__dict__ and "d" not in md.__dict__, name
        S = _scalar_catalog_s(name)
        T, want = md.tensor, FieldTensor.of(S)
        assert (T.order, T.den, T.exps.tolist(), T.layers.tolist()) == (
            want.order, want.den, want.exps.tolist(), want.layers.tolist()
        ), name
        assert md.S == S and md.d == S[0], name


def test_a_diag_theorem_job_never_makes_the_catalog_scalars(monkeypatch):
    monkeypatch.setattr(modular, "su2_modular_data", lru_cache(su2_modular_data.__wrapped__))
    code, report = run(JobSpec(command="diag-theorem", data="su2:10", graph="E:6"))
    assert code == 0, report
    assert "S" not in modular.su2_modular_data(10).__dict__


@pytest.mark.parametrize(
    "make, k",
    [(su2_modular_data, 29), (su2_modular_data, 40), (su2_modular_data, -1),
     (zn_modular_data, 9), (zn_modular_data, 60), (zn_modular_data, 0)],
)
def test_catalog_constructors_refuse_parameters_past_the_catalog_and_keep_nothing(make, k):
    # the range check lives in the constructors: load_catalog reports the
    # same text, and a refused call leaves the cache as it was
    make(1)
    size = make.cache_info().currsize
    family, low, top = ("su2", 0, 28) if make is su2_modular_data else ("zn", 1, 8)
    text = f"catalog id '{family}:{k}': parameter must be in {low}..{top}"
    for call in (lambda: make(k), lambda: load_catalog(f"{family}:{k}")):
        with pytest.raises(SchemaError) as info:
            call()
        assert str(info.value) == text and make.cache_info().currsize == size


@pytest.mark.parametrize("make", [su2_modular_data, zn_modular_data])
@pytest.mark.parametrize("bad", [True, 1.0])
def test_catalog_constructors_refuse_what_is_not_an_int_even_after_a_build(make, bad):
    # the entry for 1 is built first, so the refusal does not rest on an empty cache
    make(1)
    with pytest.raises(ValueError, match="must be a (non-negative|positive) integer"):
        make(bad)


def test_datum_value_ignores_the_tensor_dtype():
    for name in ("su2:5", "ising", "zn:4"):
        md = load_catalog(name)
        T = md.tensor
        wide = FieldTensor(T.order, T.den, T.exps, T.layers.astype(object))
        twin = ModularData(md.ring, wide, md.t)
        assert twin == md and hash(twin) == hash(md), name
        assert twin.S == md.S and twin.d == md.d and twin.globalDim == md.globalDim, name
        assert twin != ModularData(md.ring, wide, [t.value + Fraction(1, 3) for t in md.t])


def test_a_pass_over_the_catalog_evicts_none_of_its_tables(monkeypatch):
    # every field order the 39 catalog entries use keeps its table, from an
    # empty start (the tables are a cache: emptying them changes no value):
    # each order is built once, and all of them are still kept at the end
    tables, orders = cyclo._tables, []
    tables.clear()
    monkeypatch.setattr(tables, "build", lambda n, b=tables.build: orders.append(n) or b(n))
    for name in catalog_names():
        md = parse_data(data_to_json(load_catalog(name)))
        verify_modular_data(md), spectrum(md), idempotent_family(md), commutant_basis(md)
    assert 60 in orders and len(orders) == len(set(orders)) and set(orders) == set(tables)


def test_a_fresh_verify_peaks_at_a_bounded_reduction():
    # the Verlinde product of su2:28 (order 60, 2 * 29 * 29 entries) gathers
    # 128 expansion terms per entry; in chunks of entries its peak stays far
    # below the 5.2 MB of one gather over all entries at once
    md = parse_data(data_to_json(su2_modular_data(28)))
    tracemalloc.start()
    try:
        assert verify_modular_data(md).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_catalog_ingest_tensors_reduce_in_one_chunk(monkeypatch):
    # the largest entries the bench's catalog-ingest builds and reads back:
    # every reduction gathers at most _GATHER_TERMS terms, one chunk
    reduced, gathered = cyclo._reduced, []

    def spy(n, exps, layers):
        if n > 1:
            gathered.append(len(cyclo._tables(n)[2][0]) * (layers.size // len(layers)))
        return reduced(n, exps, layers)

    monkeypatch.setattr(cyclo, "_reduced", spy)
    for level in (14, 15, 17):
        md = parse_data(data_to_json(su2_modular_data.__wrapped__(level)))
        pts = spectrum(md)
        idempotent_family(md), [spectral_idempotent(md, p) for p in pts]
        [tube_idempotent(md, label) for label in range(md.rank)]
    assert max(gathered) <= cyclo._GATHER_TERMS


def test_catalog_round_trip_keeps_datum_identity():
    for name in catalog_names():
        source = load_catalog(name)
        md = parse_data(json.loads(json.dumps(data_to_json(source))))
        assert md == source and hash(md) == hash(source), name
        assert "tensor" not in repr(md) and "FieldTensor" not in repr(md), name


def test_derived_values_go_away_with_the_datum():
    md = parse_data(data_to_json(su2_modular_data(4)))
    ref = weakref.ref(md)
    spectrum(md), idempotent_family(md), commutant_basis(md), verlinde(md)
    del md
    gc.collect()
    assert ref() is None


def test_derived_values_are_found_without_rehashing(monkeypatch):
    md = su2_modular_data(6)
    derived = (
        spectrum,
        idempotent_family,
        commutant_basis,
        modular._pairing,
        modular._weighted,
    )
    first = [fn(md) for fn in derived]

    def no_hash(self):
        raise AssertionError("the datum was hashed")

    monkeypatch.setattr(ModularData, "__hash__", no_hash)
    assert all(fn(md) is got for fn, got in zip(derived, first))


def test_degenerate_scalars_keep_their_messages_and_order():
    ising = ising_modular_data()
    t = [x.value for x in ising.t]
    i = zeta(4)
    # d[1] and d[2] are both zero; the first in label order is named
    no_dims = ModularData(ising.ring, ((ONE, ZERO, ZERO), (ONE, i, ONE), (ONE, ONE, i)), t)
    regular = regular_nimrep(ising.ring)

    def profile(md):
        return multiplicity_profile(regular, md)

    for fn in (spectrum, idempotent_family, lambda md: tube_idempotent(md, 0), verlinde, profile):
        with pytest.raises(DegenerateScalar, match=r"^quantum dimension d\[1\] is zero$"):
            fn(no_dims)
    # d(C) = 1 + 0 + i^2 = 0 and d[1] = 0: a bad label is named first, then
    # the global dimension, then d[1]
    no_dc = ModularData(ising.ring, ((ONE, ZERO, i), (ZERO, ONE, ONE), (i, ONE, ONE)), t)
    with pytest.raises(ShapeMismatch, match=r"^label 3 out of range$"):
        tube_idempotent(no_dc, 3)
    for fn in (lambda md: tube_idempotent(md, 0), verlinde):
        with pytest.raises(DegenerateScalar, match=r"^global dimension is zero$"):
            fn(no_dc)
    with pytest.raises(DegenerateScalar, match=r"^quantum dimension d\[1\] is zero$"):
        spectrum(no_dc)
    # lambda_1 = (i, 1, 0) and lambda_2 = (i, 0, 1) both have norm i^2 + 1 = 0
    no_norms = ModularData(ising.ring, ((ONE, ONE, ONE), (i, ONE, ZERO), (i, ZERO, ONE)), t)
    pts = spectrum(no_norms)
    assert [p.normSq for p in pts] == [rat(3), ZERO, ZERO]
    for fn in (idempotent_family, profile, lambda md: spectral_idempotent(md, pts[1])):
        with pytest.raises(DegenerateScalar, match=r"^lambda_1 has zero norm$"):
            fn(no_norms)
    # the point lambda_0 and the tube idempotents need no other norm: e_0 =
    # lambda_0(dual(S)) / 3 and 1_I = (d(I)^2 / d(C)) lambda_I(dual(S)), d(C) = 3
    third = rat(Fraction(1, 3))
    assert spectral_idempotent(no_norms, pts[0]).coeffs == (third, third, third)
    assert [tube_idempotent(no_norms, I).coeffs for I in range(3)] == [
        tuple(x * third for x in row) for row in ((ONE, ONE, ONE), (i, ONE, ZERO), (i, ZERO, ONE))
    ]


def test_ingest_reaches_the_galois_norm_loop_once_per_batch(monkeypatch):
    md = parse_data(data_to_json(su2_modular_data(15)))
    inverted = CycloNumber._inverted
    dense = []

    def counted(x):
        if x.order > 1 and len(x._num) > 1:  # the branch with the Galois-norm loop
            dense.append(x.order)
        return inverted(x)

    monkeypatch.setattr(CycloNumber, "_inverted", counted)
    spectrum(md), idempotent_family(md)
    tubes = [tube_idempotent(md, label) for label in range(md.rank)]
    # d(I), B[I] and d(C) in one batch: at most one dense inverse per field order
    assert dense and len(dense) == len(set(dense)), dense
    assert tubes == [spectral_idempotent(md, p) for p in spectrum(md)]
    # the literal Verlinde sum finds every inverse it needs kept on its number
    dense.clear(), verlinde(md)
    assert dense == []


def test_own_points_read_their_idempotents_with_no_product(monkeypatch):
    md = parse_data(data_to_json(su2_modular_data(9)))
    pts = spectrum(md)

    def refused(*args):
        raise AssertionError("a CycloNumber product was made")

    with monkeypatch.context() as patched:
        for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            patched.setattr(CycloNumber, name, refused)
        tubes = [tube_idempotent(md, label) for label in range(md.rank)]
        spectral = [spectral_idempotent(md, p) for p in pts]
    assert tubes == spectral == list(scalar_idempotent_family(md))
    # a point that is not one of spectrum(md)'s takes the scalar formula
    foreign = [SpectrumPoint(p.baseLabel, p.values, p.normSq) for p in pts]
    assert [spectral_idempotent(md, p) for p in foreign] == spectral


# -- the tensor routes against the scalar loops ----------------------------


def outcome(fn, md):
    """The canonical forms fn(md) returns, or the text of its error."""
    try:
        got = fn(md)
    except DegenerateScalar as err:
        return "error", str(err)
    if isinstance(got[0], SpectrumPoint):
        return [(p.baseLabel, [raw(x) for x in p.values], raw(p.normSq)) for p in got]
    return [[raw(x) for x in e.coeffs] for e in got]


def _same_routes(md):
    """Every route of the spectral layer against its scalar loop on md."""
    assert outcome(spectrum, md) == outcome(scalar_spectrum, md)
    assert outcome(idempotent_family, md) == outcome(scalar_idempotent_family, md)
    tubes = outcome(lambda md: [tube_idempotent(md, label) for label in range(md.rank)], md)
    assert tubes == outcome(scalar_tube_idempotents, md)
    if outcome(spectrum, md)[0] != "error":
        own = outcome(lambda md: [spectral_idempotent(md, p) for p in spectrum(md)], md)
        assert own == outcome(
            lambda md: tuple(scalar_spectral_idempotent(md, p) for p in scalar_spectrum(md)), md
        )


def test_spectrum_and_family_match_the_scalar_loops_on_the_catalog():
    names = catalog_names()
    assert len(names) == 39
    for name in names:
        md = parse_data(data_to_json(load_catalog(name)))  # numbers with no kept inverses
        _same_routes(md)


_entries = st.one_of(
    st.just(ZERO),
    st.integers(-3, 3).map(rat),
    st.tuples(st.sampled_from([3, 4, 5, 8, 12, 16]), st.integers(0, 15), st.integers(-2, 2),
              st.fractions(min_value=-2, max_value=2, max_denominator=4))
    .map(lambda a: zeta(a[0], a[1]) * a[2] + a[3]),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda r: st.lists(st.lists(_entries, min_size=r, max_size=r), min_size=r, max_size=r)
))
def test_spectrum_and_family_match_the_scalar_loops_on_arbitrary_entries(S):
    # not modular data: any S of mixed orders, rationals and zeros, over a
    # ring with a nontrivial duality from rank 3 on
    r = len(S)
    if S[0][0].is_zero:  # d[0] = 0 ends both routes at once; draw other degeneracies
        S[0][0] = ONE
    ring = su2_fusion_ring(r - 1) if r < 3 else zn_modular_data(r).ring
    _same_routes(ModularData(ring, S, [0] * r))


@pytest.mark.parametrize("label", [True, False, 1.0, "1", None])
def test_tube_idempotent_refuses_non_integer_labels(label):
    with pytest.raises(ShapeMismatch, match=r"^label must be an integer, got "):
        tube_idempotent(su2_modular_data(2), label)
