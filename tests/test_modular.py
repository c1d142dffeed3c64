"""Modular data: catalog invariants, the spectrum, idempotent families, and
the Verlinde recovery of fusion coefficients."""

from fractions import Fraction

import pytest

from fuselab.cyclo import ONE, ZERO, CycloNumber, RationalPhase, sin_ratio, zeta
from fuselab.errors import NonIntegralVerlinde, SchemaError
from fuselab.fusion import multiply
from fuselab.modular import (
    ModularData,
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
    bad = ModularData.build(md.ring, S, [t.value for t in md.t])
    v = verify_modular_data(bad)
    assert not v.ok


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
    bad = ModularData.build(md.ring, S, [t.value for t in md.t])
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
