"""Fusion ring axioms, the truncated su(2) family, and the regular
representation."""

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracles import raw, scalar_multiply, scalar_su2_table

from fuselab import fusion
from fuselab.cyclo import ONE, ZERO, CycloNumber, _Kept, exact_ints, zeta
from fuselab.errors import ShapeMismatch
from fuselab.fusion import (
    FusionElement,
    FusionRing,
    multiply,
    regular_matrices,
    su2_fusion_ring,
    verify_axioms,
)
from fuselab.modular import catalog_names, idempotent_family, load_catalog
from fuselab.verdict import Verdict, failed, passed


def test_su2_level_two_passes():
    assert verify_axioms(su2_fusion_ring(2)).ok


def test_trivial_ring_passes():
    ring = FusionRing(labels=("1",), dual=(0,), N=(((1,),),))
    assert verify_axioms(ring).ok


def _retabled(ring, edit):
    N = [[list(row) for row in plane] for plane in ring.N]
    edit(N)
    return FusionRing(
        labels=ring.labels,
        dual=ring.dual,
        N=tuple(tuple(tuple(row) for row in plane) for plane in N),
    )


def test_added_channel_can_still_be_a_fusion_ring():
    # x1*x1 = x0 + x1 + x2 is a consistent table in its own right, so the
    # axioms must accept it; tampering is not the same as breaking.
    ring = su2_fusion_ring(2)

    def edit(N):
        N[1][1][1] = 1

    assert verify_axioms(_retabled(ring, edit)).ok


def test_dropped_channel_fails_associativity():
    ring = su2_fusion_ring(2)

    def edit(N):
        N[1][1][2] = 0  # removes x2 from x1*x1

    v = verify_axioms(_retabled(ring, edit))
    assert not v.ok
    assert v.first_failure.name == "associativity"
    assert v.first_failure.witness == "(a,b,c,d)=(1,1,2,0)"


def test_rank_zero_and_bool_tables_are_rejected():
    with pytest.raises(ShapeMismatch):
        FusionRing(labels=(), dual=(), N=())
    with pytest.raises(ShapeMismatch):
        FusionRing(labels=("1",), dual=(0,), N=(((True,),),))
    with pytest.raises(ShapeMismatch, match="dual is not a permutation"):
        FusionRing(labels=("1", "x"), dual=(False, True), N=(((1, 0), (0, 1)), ((0, 1), (1, 0))))


def _loop_verify_axioms(ring):
    """Test oracle: the axioms as plain nested loops over Python ints,
    associativity as (ab)c = a(bc) coefficient by coefficient."""
    r, N, dual = ring.rank, ring.N, ring.dual
    checks = []

    def fail(name, witness):
        return Verdict((*checks, failed(name, witness)))

    for a in range(r):
        for b in range(r):
            for c in range(r):
                if N[a][b][c] < 0:
                    return fail("non-negativity", f"N[{a}][{b}][{c}] = {N[a][b][c]}")
    checks.append(passed("non-negativity"))
    for b in range(r):
        for c in range(r):
            want = 1 if b == c else 0
            if N[0][b][c] != want or N[b][0][c] != want:
                return fail("unit", f"(b,c)=({b},{c})")
    checks.append(passed("unit"))
    if dual[0] != 0:
        return fail("duality", "dual(0) != 0")
    for a in range(r):
        if dual[dual[a]] != a:
            return fail("duality", f"dual(dual({a})) = {dual[dual[a]]}")
        for b in range(r):
            want = 1 if b == dual[a] else 0
            if N[a][b][0] != want:
                return fail("duality", f"N[{a}][{b}][0] = {N[a][b][0]}, expected {want}")
    checks.append(passed("duality"))
    for a in range(r):
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    left = sum(N[a][b][e] * N[e][c][d] for e in range(r))
                    right = sum(N[b][c][f] * N[a][f][d] for f in range(r))
                    if left != right:
                        return fail("associativity", f"(a,b,c,d)=({a},{b},{c},{d})")
    checks.append(passed("associativity"))
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(r):
                if N[a][b][c] != N[b][a][c]:
                    return fail("commutativity", f"(a,b,c)=({a},{b},{c})")
    checks.append(passed("commutativity"))
    return Verdict(tuple(checks))


def test_verify_axioms_matches_loop_oracle_on_perturbed_rings():
    # Values of 2**40 and beyond push the check off int64 onto Python ints;
    # 2**63 and 2**64 do not fit int64 at all.
    values = (0, 1, 2, 3, 2**40, 2**63, 2**64)
    rng = random.Random(20261018)
    small = [n for n in catalog_names() if not n.startswith("su2:") or int(n[4:]) < 8]
    rings = [load_catalog(n).ring for n in small]
    assert max(ring.rank for ring in rings) == 8
    outcomes = set()
    for trial in range(300):
        ring = rings[trial % len(rings)]
        r = ring.rank
        # mostly away from the unit row and column, so associativity is reached
        low = 1 if r > 1 and rng.random() < 0.8 else 0
        edits = [
            (tuple(rng.randrange(low, r) for _ in range(3)), rng.choice(values))
            for _ in range(rng.randint(1, 3))
        ]

        def edit(N):
            for (a, b, c), v in edits:
                N[a][b][c] = v

        tampered = _retabled(ring, edit)
        got = verify_axioms(tampered).describe()
        assert got == _loop_verify_axioms(tampered).describe(), (trial, edits)
        outcomes.add(got.split(" at ")[0])
    assert "fail: associativity" in outcomes


# 2**31 - 1 squared fits int64 once, but a sum of two such products does not
BIG = 2**31 - 1


@pytest.mark.parametrize("value", [2**29 + 1, 2**30, BIG])
def test_verify_axioms_exact_where_the_dtype_depends_on_inner(value):
    # x*x = 1 + value*x is a fusion ring of rank 2 for every value
    ring = FusionRing(labels=("1", "x"), dual=(0, 1), N=(((1, 0), (0, 1)), ((0, 1), (1, value))))
    assert verify_axioms(ring).ok
    edits = [
        [((3, 3, 2), -value)],
        [((0, 2, 2), value)],
        [((1, 1, 2), value), ((1, 1, 0), 0)],
        [((1, 2, 3), value)],
        [((2, 3, 1), value), ((3, 2, 1), value)],
        [((2, 1, 3), value)],
    ]
    outcomes = set()
    for edit in edits:

        def apply(N):
            for (a, b, c), v in edit:
                N[a][b][c] = v

        tampered = _retabled(su2_fusion_ring(4), apply)
        assert exact_ints(tampered.N).dtype == np.int64
        assert tampered.tensor.dtype == (object if 5 * value**2 >= 2**62 else np.int64)
        got = verify_axioms(tampered)
        assert got == _loop_verify_axioms(tampered), edit
        outcomes.add(got.describe().split(" at ")[0])
    assert outcomes == {f"fail: {name}" for name in ("non-negativity", "unit", "duality", "associativity")}


def test_regular_matrices_exact_beyond_int64():
    def edit(N):
        N[1][2][2] = 2**64

    mats = regular_matrices(_retabled(su2_fusion_ring(2), edit))
    assert mats[1][2, 2] == 2**64
    assert mats[1].dtype == object
    assert (mats[1] @ mats[1])[2, 2] == 2**128 + 1


def test_broken_pairing_fails_duality():
    ring = su2_fusion_ring(2)

    def edit(N):
        N[1][1][0] = 0  # x1 no longer pairs with itself to the unit

    v = verify_axioms(_retabled(ring, edit))
    assert not v.ok
    assert v.first_failure.name == "duality"
    assert v.first_failure.witness


def _group_ring(elements, mul, dual):
    """N[a][b][c] = 1 iff elements[a] * elements[b] = elements[c]."""
    index = {x: k for k, x in enumerate(elements)}
    r = len(elements)
    N = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a, x in enumerate(elements):
        for b, y in enumerate(elements):
            N[a][b][index[mul(x, y)]] = 1
    return FusionRing(labels=[str(x) for x in elements], dual=dual, N=N)


def test_duality_and_commutativity_witnesses():
    # Z_2 with dual(0) = 1; Z_4 with the 3-cycle 1 -> 2 -> 3 as its dual; a
    # unit column that pairs each a with that 3-cycle's dual(a), so only the
    # involution fails; the group ring of S_3, associative with inverses as
    # duals but not commutative
    s3 = sorted(permutations(range(3)))
    paired = np.zeros((4, 4, 4), dtype=np.int64)
    for a, d in enumerate((0, 2, 3, 1)):
        paired[0, a, a] = paired[a, 0, a] = paired[a, d, 0] = 1
    cases = [
        (FusionRing("1xyz", (0, 2, 3, 1), paired), "duality", "dual(dual(1)) = 3"),
        (_group_ring(range(2), lambda x, y: (x + y) % 2, (1, 0)), "duality", "dual(0) != 0"),
        (_group_ring(range(4), lambda x, y: (x + y) % 4, (0, 2, 3, 1)), "duality", "dual(dual(1)) = 3"),
        (
            _group_ring(s3, lambda x, y: tuple(x[i] for i in y), (0, 1, 2, 4, 3, 5)),
            "commutativity",
            "(a,b,c)=(1,2,3)",
        ),
    ]
    for ring, name, witness in cases:
        v = verify_axioms(ring)
        assert v == _loop_verify_axioms(ring) and v.checks[-1] == failed(name, witness)


def test_row_one_certificate_holds_on_every_catalog_ring_with_a_label_one():
    # su2:0 and zn:1 have rank 1: there is no label 1, and their scan is one 1x1 product
    for name in catalog_names():
        ring = load_catalog(name).ring
        assert ring._row_one_generates == (ring.rank > 1), name
        assert verify_axioms(ring).ok, name


def _flipped(ring, *entries):
    """ring with each N[a][b][c] in entries flipped between 0 and 1."""

    def edit(N):
        for a, b, c in entries:
            N[a][b][c] = 1 - N[a][b][c]

    return _retabled(ring, edit)


def test_rings_without_the_certificate_take_the_full_scan():
    # label 1 generates neither Z2 x Z2 (x_1 reaches {0, 1}) nor S_3 (label 1
    # is a transposition), and a rank-1 ring has no label 1
    xor = _group_ring(range(4), lambda x, y: x ^ y, (0, 1, 2, 3))
    s3 = sorted(permutations(range(3)))
    fixed = [
        FusionRing(labels=("1",), dual=(0,), N=(((1,),),)),
        xor,
        _flipped(xor, (2, 3, 2), (3, 2, 2)),
        _group_ring(s3, lambda x, y: tuple(x[i] for i in y), (0, 1, 2, 4, 3, 5)),
    ]
    # su(2) rings with N flipped off the unit row and column, symmetrically or
    # not: a flip that leaves a fusion ring may keep the certificate, one that
    # breaks associativity or commutativity never does
    rng = random.Random(20261022)
    flipped = []
    for level in range(2, 9):
        ring, r = su2_fusion_ring(level), level + 1
        for _ in range(6):
            a, b, c = (rng.randrange(1, r) for _ in range(3))
            flipped += [_flipped(ring, *{(a, b, c), (b, a, c)}), _flipped(ring, (a, b, c))]
    outcomes = set()
    for ring in fixed + flipped:
        v = verify_axioms(ring)
        assert v == _loop_verify_axioms(ring), ring
        assert not ring._row_one_generates or v.ok, ring
        if not ring._row_one_generates:
            outcomes.add(v.describe().split(" at ")[0])
    assert not any(ring._row_one_generates for ring in fixed)
    assert sum(not ring._row_one_generates for ring in flipped) > len(flipped) // 2
    assert {"fail: associativity", "fail: commutativity"} <= outcomes
    assert any(o.startswith("pass") for o in outcomes)


def test_verify_axioms_matches_the_full_scan_up_to_rank_18(monkeypatch):
    # the seeded differential test above, on catalog rings up to rank 18:
    # each verdict against verify_axioms with the certificate switched off,
    # so that associativity always takes homomorphism_failure's scan
    rng = random.Random(20261022)
    rings = [r for r in (load_catalog(n).ring for n in catalog_names()) if r.rank <= 18]
    assert max(ring.rank for ring in rings) == 18
    tampered = []
    for trial in range(240):
        ring = rings[trial % len(rings)]
        r = ring.rank
        a, b, c = (rng.randrange(1 if r > 1 else 0, r) for _ in range(3))
        flips = {(a, b, c), (b, a, c)} if rng.random() < 0.5 else {(a, b, c)}
        tampered.append(ring if trial % 4 == 0 else _flipped(ring, *flips))
    got = [verify_axioms(ring) for ring in tampered]
    certified = sum(ring._row_one_generates for ring in tampered)
    monkeypatch.setattr(FusionRing, "_row_one_generates", property(lambda ring: False))
    scanned = [verify_axioms(ring) for ring in tampered]  # the property hides the held value
    assert got == scanned
    outcomes = {v.describe().split(" at ")[0] for v in got}
    assert "fail: associativity" in outcomes and any(o.startswith("pass") for o in outcomes)
    assert certified >= len(tampered) // 4


def _raising(what):
    def computed(*args):
        raise AssertionError(f"{what} was computed after a failed check")

    return computed


def test_a_failed_unit_law_computes_no_later_check(monkeypatch):
    # verify_axioms stops at the first failure: once unit fails, neither
    # duality, the held row-1 check nor any scan is computed
    ring = _flipped(su2_fusion_ring(4), (0, 1, 1))
    for name in ("_row_one_generates", "_row_one_failure"):
        monkeypatch.setattr(FusionRing, name, property(_raising(name)))
    monkeypatch.setattr(fusion, "_duality_failure", _raising("duality"))
    monkeypatch.setattr(fusion, "homomorphism_failure", _raising("the scan"))
    v = verify_axioms(ring)
    assert v == _loop_verify_axioms(ring) and v.checks[-1] == failed("unit", "(b,c)=(1,1)")


def _rows_formed(monkeypatch):
    """The rows a whose products M(a) M fusion forms from now on, in order."""
    rows, row_failure = [], fusion._row_failure

    def counted(ring, M, a):
        rows.append(a)
        return row_failure(ring, M, a)

    monkeypatch.setattr(fusion, "_row_failure", counted)
    return rows


@pytest.mark.parametrize(
    "level, entry, witness",
    [
        (13, (1, 2, 1), "(a,b,c,d)=(1,1,1,1)"),
        (17, (1, 2, 1), "(a,b,c,d)=(1,1,1,1)"),
        (13, (1, 2, 5), "(a,b,c,d)=(1,1,1,5)"),  # label 1 no longer generates
    ],
)
def test_a_broken_row_one_forms_the_row_one_product_once(monkeypatch, level, entry, witness):
    # the witness is the row-1 failure held next to the certificate: no scan
    # forms row 0's products, which the unit law settles, or row 1's again
    rows = _rows_formed(monkeypatch)
    ring = _flipped(su2_fusion_ring(level), entry)
    v = verify_axioms(ring)
    assert v == _loop_verify_axioms(ring) and v.checks[-1] == failed("associativity", witness)
    assert rows == [1] and not ring._row_one_generates


def test_a_scan_without_the_certificate_starts_at_row_two(monkeypatch):
    # label 1 reaches only {e, x} in Z2 x Z2: row 1 is the held check, and
    # the scan goes on from row 2, forming each row's products once; the
    # broken ring fails in row 1, and no scan runs
    xor = _group_ring(range(4), lambda x, y: x ^ y, (0, 1, 2, 3))
    rows = _rows_formed(monkeypatch)
    for ring, want in ((xor, [1, 2, 3]), (_flipped(xor, (2, 3, 2), (3, 2, 2)), [1])):
        rows.clear()
        v = verify_axioms(ring)
        assert v == _loop_verify_axioms(ring) and rows == want


def test_tables_with_a_wrong_count_of_planes_or_rows_are_named():
    unit = ((1, 0), (0, 1))
    with pytest.raises(ShapeMismatch, match=r"^N has 1 planes, expected 2$"):
        FusionRing(labels=("1", "x"), dual=(0, 1), N=(unit,))
    with pytest.raises(ShapeMismatch, match=r"^N\[1\] has 1 rows, expected 2$"):
        FusionRing(labels=("1", "x"), dual=(0, 1), N=(unit, ((0, 1),)))


def test_su2_fusion_ring_built_once_per_level():
    for k in range(29):
        ring = su2_fusion_ring(k)
        assert su2_fusion_ring(k) is ring
        assert ring == fusion._su2_rings.build(k)
    for bad in (-1, 1.0, "1", None, True):  # the cache is warm for 1 by now
        with pytest.raises(ValueError, match="level must be a non-negative integer"):
            su2_fusion_ring(bad)


def test_su2_fusion_ring_keeps_a_bounded_number_of_levels(monkeypatch):
    # a budget that the rings of levels 31-34 fill: asking for 30-34 in
    # order evicts 30, the first kept, and asking again rebuilds it equal.
    # A fresh keeper with the same build and terms stands in for the shared
    # one, whose evictions would part su2_fusion_ring(k) from the ring that
    # the lru-cached su2_modular_data(k) holds
    shared, levels = fusion._su2_rings, range(30, 35)
    budget = sum(shared.terms(shared.build(k)) for k in levels[1:])
    rings = _Kept(shared.build, shared.terms, budget)
    monkeypatch.setattr(fusion, "_su2_rings", rings)
    first = su2_fusion_ring(levels[0])
    for k in levels[1:]:
        assert su2_fusion_ring(k) is su2_fusion_ring(k)
    assert list(rings) == list(levels[1:])
    again = su2_fusion_ring(levels[0])
    assert again == first and again is not first
    assert list(rings) == [*levels[2:], levels[0]]


def test_su2_small_products():
    r1 = su2_fusion_ring(1)
    assert r1.N[1][1] == (1, 0)  # x1*x1 = x0
    r2 = su2_fusion_ring(2)
    assert r2.N[1][1] == (1, 0, 1)  # x1*x1 = x0 + x2
    assert su2_fusion_ring(0).rank == 1


def test_su2_selection_rule():
    ring = su2_fusion_ring(6)
    for a in range(7):
        for b in range(7):
            for c in range(7):
                want = int(
                    abs(a - b) <= c <= min(a + b, 12 - a - b) and (a + b - c) % 2 == 0
                )
                assert ring.N[a][b][c] == want


def test_su2_mask_matches_the_entrywise_rule_at_every_catalog_level():
    for level in range(29):
        ring = fusion._su2_rings.build(level)
        assert ring.N == scalar_su2_table(level), level
        assert ring.tensor.dtype == np.int64 and not ring.tensor.flags.writeable, level


def test_ring_value_ignores_the_tensor_dtype():
    ring = su2_fusion_ring(6)
    twin = object.__new__(FusionRing)
    twin.labels, twin.dual, twin.tensor = ring.labels, ring.dual, ring.tensor.astype(object)
    assert twin == ring and hash(twin) == hash(ring) and twin.N == ring.N
    listed = FusionRing(list(ring.labels), list(ring.dual), [list(map(list, p)) for p in ring.N])
    assert listed == ring and hash(listed) == hash(ring)
    other = FusionRing(("y0", *ring.labels[1:]), ring.dual, ring.tensor)
    assert other != ring
    wide = FusionRing(("0", "1"), (0, 1), (((1, 0), (0, 1)), ((0, 1), (1, 2**40))))
    assert wide.tensor.dtype == object
    assert wide == FusionRing(("0", "1"), (0, 1), wide.tensor) and wide.N[1][1] == (1, 2**40)


def test_multiply_idempotent_at_level_one():
    ring = su2_fusion_ring(1)
    half = Fraction(1, 2)
    e = FusionElement(
        (CycloNumber.from_rational(half), CycloNumber.from_rational(half))
    )
    assert multiply(ring, e, e) == e


def test_multiply_unit():
    ring = su2_fusion_ring(3)
    y = FusionElement(tuple(CycloNumber.from_rational(k + 1) for k in range(4)))
    unit = FusionElement(
        (ONE,) + tuple(CycloNumber.from_rational(0) for _ in range(3))
    )
    assert multiply(ring, unit, y) == y


def test_multiply_orthogonal_idempotents_level_one():
    ring = su2_fusion_ring(1)
    q = Fraction(1, 2)
    plus = FusionElement(tuple(CycloNumber.from_rational(v) for v in (q, q)))
    minus = FusionElement(tuple(CycloNumber.from_rational(v) for v in (q, -q)))
    prod = multiply(ring, plus, minus)
    assert all(c.is_zero for c in prod.coeffs)


def test_multiply_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        multiply(
            su2_fusion_ring(1),
            FusionElement((ONE,)),
            FusionElement((ONE, ONE)),
        )


def test_regular_matrices_pinned():
    mats = regular_matrices(su2_fusion_ring(1))
    assert mats[1].tolist() == [[0, 1], [1, 0]]
    assert mats[0].tolist() == [[1, 0], [0, 1]]
    m2 = regular_matrices(su2_fusion_ring(2))
    assert (m2[1] @ m2[1] == m2[0] + m2[2]).all()


def test_regular_matrices_homomorphism_exhaustive():
    for lev in range(0, 7):
        ring = su2_fusion_ring(lev)
        mats = regular_matrices(ring)
        for a in range(ring.rank):
            for b in range(ring.rank):
                want = sum(
                    int(ring.N[a][b][c]) * mats[c] for c in range(ring.rank)
                )
                assert (mats[a] @ mats[b] == want).all()


def test_chebyshev_recurrence():
    for lev in range(2, 12):
        mats = regular_matrices(su2_fusion_ring(lev))
        for a in range(1, lev):
            assert (mats[a + 1] == mats[1] @ mats[a] - mats[a - 1]).all()


@st.composite
def elements(draw, rank):
    vals = draw(
        st.lists(
            st.integers(-5, 5), min_size=rank, max_size=rank
        )
    )
    return FusionElement(tuple(CycloNumber.from_rational(v) for v in vals))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda lev: st.tuples(
    st.just(lev), elements(lev + 1), elements(lev + 1), elements(lev + 1)
)))
def test_multiply_associative_commutative(args):
    lev, x, y, z = args
    ring = su2_fusion_ring(lev)
    assert multiply(ring, x, y) == multiply(ring, y, x)
    assert multiply(ring, multiply(ring, x, y), z) == multiply(
        ring, x, multiply(ring, y, z)
    )


# -- the tensor product against the scalar loop -----------------------------


def same_product(ring, x, y):
    got, want = multiply(ring, x, y), scalar_multiply(ring, x, y)
    return [raw(c) for c in got.coeffs] == [raw(c) for c in want.coeffs]


def test_multiply_matches_the_scalar_loop_on_the_catalog():
    names = [name for name in catalog_names() if load_catalog(name).rank <= 13]
    for name in names:
        md = load_catalog(name)
        r, fam = md.rank, idempotent_family(md)
        rows = [FusionElement(row) for row in md.S]
        for a in range(r):
            b = (7 * a + 3) % r
            assert same_product(md.ring, fam[a], fam[b]), (name, a, b)
            assert same_product(md.ring, rows[a], rows[b]), (name, a, b)
            assert same_product(md.ring, rows[a], fam[b]), (name, a, b)


_coefficients = st.one_of(
    st.just(ZERO),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).map(CycloNumber.from_rational),
    st.tuples(st.sampled_from([3, 4, 5, 8, 9, 12, 20]), st.integers(0, 19), st.integers(-3, 3),
              st.fractions(min_value=-2, max_value=2, max_denominator=5))
    .map(lambda a: zeta(a[0], a[1]) * a[2] + a[3]),
)


@st.composite
def rings_and_elements(draw):
    """A table of arbitrary integers (not a fusion ring: multiplicities past
    int64 products, zeros and negatives) with three elements of mixed orders,
    rationals and zeros; the bilinear product needs no axiom."""
    r = draw(st.integers(1, 4))
    entries = st.sampled_from([0, 0, 1, 1, 2, 5, -1, 2**40])
    N = tuple(tuple(tuple(draw(entries) for _ in range(r)) for _ in range(r)) for _ in range(r))
    ring = FusionRing(labels=tuple(str(a) for a in range(r)), dual=tuple(range(r)), N=N)
    x, y = (
        FusionElement(tuple(draw(st.lists(_coefficients, min_size=r, max_size=r))))
        for _ in range(2)
    )
    return ring, x, y


@settings(max_examples=80, deadline=None)
@given(rings_and_elements())
def test_multiply_matches_the_scalar_loop_on_mixed_elements(args):
    assert same_product(*args)


def test_multiply_stays_exact_when_products_with_n_pass_int64():
    # x_a y_b fits int64 many times over; times N_ab^c = 2**30 it does not
    ring = FusionRing(labels=("0", "1"), dual=(0, 1), N=(((1, 2**30), (2**30, 1)),) * 2)
    x = FusionElement((2**20 * zeta(8) + 2**19, 2**20 * zeta(8, 3) - 1))
    assert same_product(ring, x, x)
    x0, x1 = x.coeffs
    assert multiply(ring, x, x).coeffs[0] == (x0 + x1) * (x0 + 2**30 * x1)


def test_multiply_takes_int_and_fraction_coefficients():
    ring = su2_fusion_ring(2)
    x = FusionElement((1, Fraction(1, 2), 0))
    y = FusionElement((Fraction(-2, 3), zeta(8), 3))
    cx = FusionElement(tuple(CycloNumber.from_rational(c) for c in x.coeffs))
    cy = FusionElement((CycloNumber.from_rational(Fraction(-2, 3)), zeta(8), 3 * ONE))
    assert multiply(ring, x, y) == multiply(ring, cx, cy) == scalar_multiply(ring, cx, cy)


@pytest.mark.parametrize("bad", [0.5, "1", None])
def test_multiply_names_the_first_bad_coefficient(bad):
    ring = su2_fusion_ring(2)
    with pytest.raises(ShapeMismatch, match=r"^entry 1 is not a cyclotomic or rational number: "):
        multiply(ring, FusionElement((ONE, bad, bad)), ring.unit)
