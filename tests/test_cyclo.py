"""Exact cyclotomic arithmetic: canonical forms, sine ratios, the float
embedding, and field axioms on random elements."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import cyclo
from fuselab.cyclo import (
    ONE,
    ZERO,
    CycloNumber,
    FieldTensor,
    RationalPhase,
    embed_complex,
    exact_ints,
    inverses,
    sin_ratio,
    zeta,
)
from fuselab.errors import DegenerateScalar, ShapeMismatch
from scalar_oracles import expansion_rows


def approx(x: CycloNumber, digits: int = 30) -> mpmath.mpc:
    return embed_complex(x, digits)


def test_two_cos_quarter_pi_squares_to_two():
    c = zeta(8) + zeta(8, 7)
    assert c * c == CycloNumber.from_rational(2)


def test_add_zero_is_identity():
    x = zeta(12, 5) - 3 * zeta(12, 2) + Fraction(1, 7)
    assert x + ZERO == x


def test_inverse_of_two_cos_pi_fifth():
    c = zeta(10) + zeta(10, 9)  # 2cos(pi/5)
    inv = ONE / c
    assert inv * c == ONE
    # golden ratio minus one: phi - 1 = 1/phi and phi = 2cos(pi/5)
    with mpmath.workdps(40):
        phi = (mpmath.mpf(1) + mpmath.sqrt(5)) / 2
        assert abs(approx(inv) - phi + 1) < mpmath.mpf("1e-25")


def test_division_by_zero_signals():
    with pytest.raises(DegenerateScalar):
        ONE / ZERO


def test_sin_ratio_pinned_values():
    assert sin_ratio(2, 3) == ONE
    assert sin_ratio(0, 7) == ZERO
    assert sin_ratio(3, 4) == ONE
    assert sin_ratio(1, 9) == ONE


def test_sin_ratio_two_is_two_cos():
    with mpmath.workdps(40):
        for h in range(2, 12):
            expected = 2 * mpmath.cos(mpmath.pi / h)
            assert abs(approx(sin_ratio(2, h)) - expected) < mpmath.mpf("1e-25")


def test_sin_ratio_matches_float_oracle():
    with mpmath.workdps(40):
        for h in range(2, 10):
            denom = mpmath.sin(mpmath.pi / h)
            for k in range(2 * h + 1):
                want = mpmath.sin(k * mpmath.pi / h) / denom
                assert abs(approx(sin_ratio(k, h)) - want) < mpmath.mpf("1e-25")


def test_embed_pinned_values():
    assert abs(approx(zeta(12) + zeta(12, 11), 15) - mpmath.sqrt(3)) < mpmath.mpf("1e-13")
    assert approx(ZERO, 15) == 0
    assert abs(approx(zeta(4), 15) - mpmath.mpc(0, 1)) < mpmath.mpf("1e-13")


def test_canonical_form_decides_equality():
    # zeta_6 = 1 + zeta_3 (primitive 6th vs 3rd roots)
    assert zeta(6) == ONE + zeta(3)
    # full sum of p-th roots vanishes
    total = sum((zeta(7, k) for k in range(1, 7)), zeta(7, 0))
    assert total == ZERO
    # order descends when the support allows it
    assert (zeta(12, 4)).order == 3


def test_result_order_divides_lcm():
    a, b = zeta(9), zeta(12)
    prod = a * b
    assert 36 % prod.order == 0


_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 15, 20, 24, 30, 48, 240])


@st.composite
def cyclos(draw):
    n = draw(_orders)
    support = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=3))
    num = draw(
        st.lists(st.integers(-9, 9), min_size=len(support), max_size=len(support))
    )
    den = draw(st.integers(1, 7))
    coeffs = [Fraction(0)] * n
    for e, c in zip(support, num):
        coeffs[e] += Fraction(c, den)
    return CycloNumber(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(cyclos())
def test_multiplicative_inverse(a):
    if a.is_zero:
        with pytest.raises(DegenerateScalar):
            a.inverse()
    else:
        assert a * a.inverse() == ONE


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos())
def test_conjugation_involution_commutes_with_arithmetic(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@settings(max_examples=40, deadline=None)
@given(cyclos(), cyclos())
def test_embed_respects_multiplication(a, b):
    za, zb, zab = approx(a, 20), approx(b, 20), approx(a * b, 20)
    assert abs(zab - za * zb) < mpmath.mpf("1e-14") * (1 + abs(za)) * (1 + abs(zb))


@settings(max_examples=40, deadline=None)
@given(st.lists(cyclos(), min_size=4, max_size=4), st.lists(cyclos(), min_size=4, max_size=4),
       st.sampled_from([1, 2**40, 2**70]))
def test_field_tensor_products_match_scalar_arithmetic(xs, ys, scale):
    # scale 2**40 and 2**70 push the integer layers off int64 onto Python ints
    A = [[xs[0] * scale, xs[1]], [xs[2], xs[3]]]
    B = [[ys[0], ys[1]], [ys[2] * scale, ys[3]]]
    TA, TB = FieldTensor.of(A), FieldTensor.of(B)
    for i in range(2):
        for j in range(2):
            assert TA.scalar((i, j)) == A[i][j]
    prod = TA.convolve(TB, lambda x, Y: x @ Y, 2)
    want = [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)] for i in range(2)]
    assert [[prod.scalar((i, j)) for j in range(2)] for i in range(2)] == want
    assert not prod.differs(FieldTensor.of(want)).any()
    other = [[want[0][0], want[0][1] + zeta(7)], want[1]]
    assert prod.differs(FieldTensor.of(other)).tolist() == [[False, True], [False, False]]


def test_field_tensor_product_leaves_int64_when_sums_could_wrap():
    # each entry of A @ A sums 2 * 8 products of 2**60 over the exponents,
    # past int64 although one product of 2 * 2**60 would still fit
    x = CycloNumber(16, {e: 2**30 for e in range(8)})
    A = FieldTensor.of([[x, x], [x, x]])
    prod = A.convolve(A, lambda u, V: u @ V, 2)
    assert prod.scalar((0, 1)) == 2 * x * x


def test_rational_phase_normalizes_mod_one():
    assert RationalPhase(Fraction(5, 4)) == RationalPhase(Fraction(1, 4))
    assert RationalPhase(Fraction(-1, 24)) == RationalPhase(Fraction(23, 24))
    assert RationalPhase(Fraction(1, 3)) != RationalPhase(Fraction(2, 3))


def test_rational_phase_arithmetic_is_mod_one():
    a, b = RationalPhase(Fraction(3, 4)), RationalPhase(Fraction(1, 2))
    assert a + b == RationalPhase(Fraction(1, 4)) and (a + b).value == Fraction(1, 4)
    assert a + 1 == a and 1 + a == a and a + Fraction(1, 4) == 0
    assert a - b == Fraction(1, 4) and b - a == Fraction(3, 4) and a - Fraction(7, 4) == 0
    assert -a == Fraction(1, 4) and -RationalPhase(0) == 0
    assert a == Fraction(-1, 4) and a == Fraction(7, 4) and RationalPhase(2) == 0 and a != 1
    assert str(a) == "3/4" and str(RationalPhase(-3)) == "0" and repr(b) == "RationalPhase(1/2)"
    for other in (0.5, "1/2"):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
        assert (a == other) is False


def test_powers_and_reflected_operators():
    x = zeta(5) + 2
    assert x**0 == ONE and x**1 == x and x**3 == x * x * x and x**5 == x * x * x * x * x
    assert x**-2 == ONE / (x * x) and (x**-1) * x == ONE and zeta(12) ** -1 == zeta(12, 11)
    assert 1 - x == -(x - 1) and Fraction(1, 2) - zeta(4) == CycloNumber(4, {0: Fraction(1, 2), 1: -1})
    assert 3 / zeta(8) == 3 * zeta(8, 7) and Fraction(1, 3) / x == (3 * x).inverse()
    with pytest.raises(DegenerateScalar):
        ZERO**-1
    with pytest.raises(DegenerateScalar):
        1 / ZERO
    for other in (0.5, "x"):
        with pytest.raises(TypeError):
            x**other
        with pytest.raises(TypeError):
            other - x
        with pytest.raises(TypeError):
            other / x


def test_galois_fixes_rationals():
    x = CycloNumber.from_rational(Fraction(3, 5))
    assert x.galois(5) == x
    y = zeta(5)
    assert y.galois(2) == zeta(5, 2)


def _random_batch(rng: random.Random) -> list[CycloNumber]:
    """Rationals, monomials and dense numbers at orders up to 60 (29 is the
    prime order of su2:27), some coefficients past 2**63, with repeats."""
    xs = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(["rational", "monomial", "dense", "dense", "repeat"])
        big = 2**rng.choice([0, 64, 80])
        n = rng.choice([3, 4, 5, 7, 8, 12, 15, 20, 24, 29, 29, 36, 48, 60])
        if kind == "repeat" and xs:
            xs.append(rng.choice(xs))
        elif kind == "rational":
            q = Fraction(rng.randint(1, 9) * big, rng.randint(-9, -1))
            xs.append(CycloNumber.from_rational(q))
        elif kind == "monomial":
            xs.append(CycloNumber(n, {rng.randrange(n): Fraction(rng.randint(1, 9) * big, 7)}))
        else:
            coeffs = [Fraction(rng.randint(-9, 9) * big + rng.randint(-3, 3), rng.randint(1, 5))
                      for _ in range(n)]
            x = CycloNumber(n, coeffs)
            xs.append(ONE if x.is_zero else x)
    return xs


@pytest.mark.parametrize("seed", range(12))
def test_batch_inverse_matches_one_inverse_per_number(seed):
    want = [x.inverse() for x in _random_batch(random.Random(seed))]
    xs = _random_batch(random.Random(seed))
    got = inverses(xs)
    assert got == tuple(want)
    assert all(x * y == ONE for x, y in zip(xs, got))
    # the batch keeps each inverse on its number
    assert all(x.inverse() is y for x, y in zip(xs, got))


def test_inverse_is_kept_on_the_number():
    x = zeta(9) + 2 * zeta(9, 4) - Fraction(1, 3)
    assert x.inverse() is x.inverse()
    # the inverse points nowhere: inverting it again makes a new, equal number
    assert x.inverse().inverse() == x and x.inverse().inverse() is not x


def test_batch_inverse_of_zero_signals():
    with pytest.raises(DegenerateScalar, match="division by zero in a cyclotomic field"):
        inverses([zeta(5) + 2, ZERO, zeta(5)])
    assert inverses([]) == ()


# -- the keeper of process-wide values ---------------------------------------


def test_keeper_evicts_first_in_first_out_under_its_budget():
    built = []

    def build(key):
        built.append(key)
        if key < 0:
            raise ValueError(f"no value for {key}")
        return [key] * key

    kept = cyclo._Kept(build, len, budget=10)
    four = kept[4]
    assert kept(4) is four and kept[4] is four and built == [4]
    kept[5]
    assert kept[4] is four  # a hit does not move 4 behind 5
    kept[3]  # 4 + 5 + 3 > 10: 4, the first kept, is the first evicted
    assert list(kept) == [5, 3] and kept.sizes == {5: 5, 3: 3} and built == [4, 5, 3]
    # a value over the whole budget is built on every call and never kept
    big = kept[11]
    assert kept[11] == big and kept[11] is not big and built[-3:] == [11, 11, 11]
    assert list(kept) == [5, 3] and kept.sizes == {5: 5, 3: 3}
    # a build that raises leaves the keeper as it was
    for _ in range(2):
        with pytest.raises(ValueError, match="no value for -1"):
            kept[-1]
    assert list(kept) == [5, 3] and kept.sizes == {5: 5, 3: 3}
    kept.clear()
    assert not kept and not kept.sizes
    # the graph, union, module and ring keepers charge each value its entries
    # plus 2**16 against 2**23: one-entry values never fill more than 128 slots
    many = cyclo._kept_entries(len)(lambda key: [key])
    first = many[0]
    for key in range(1, 300):
        many[key]
        assert len(many) <= 128
    assert list(many) == list(range(300 - len(many), 300)) and 0 not in many
    assert many[0] == first and many[0] is not first


# -- the integer type a FieldTensor's products take -------------------------


@pytest.mark.parametrize(
    "inner, top",
    [
        (1, 2**31 - 1),
        (1, 2**31),  # inner * top**2 == 2**62
        (4, 2**30 - 1),
        (4, 2**30),  # inner * top**2 == 2**62
        (3, isqrt((2**62 - 1) // 3)),
        (3, isqrt((2**62 - 1) // 3) + 1),
    ],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_kept_bound_picks_the_dtype_exact_ints_picks(inner, top, sign):
    t = FieldTensor.of([sign * top, 1, -2])
    want = exact_ints(t.layers, inner).dtype
    assert want == (np.int64 if inner * top * top < 2**62 else object)
    assert t.apply(lambda L: L, inner).layers.dtype == want
    # an index takes int64 wherever its own entries allow
    for index in (slice(0, 1), slice(1, 3), 2, [2, 0]):
        sub = t[index]
        assert sub.apply(lambda L: L, inner).layers.dtype == exact_ints(sub.layers, inner).dtype
    row = FieldTensor.of([1, -2])

    def outer(x, Y):
        return x[:, None] * Y[:, None, :]

    assert t.convolve(row, outer, inner).scalar((0, 1)) == -2 * sign * top
    assert row.convolve(t, outer, inner).scalar((1, 0)) == -2 * sign * top


def test_indexed_tensors_stay_exact():
    rng = random.Random(3106)
    grid = [[zeta(12, rng.randrange(12)) * rng.randint(-2**40, 2**40) + rng.randint(-9, 9)
             for _ in range(4)] for _ in range(3)]
    grid[1][2] = grid[1][2] * 2**30
    T = FieldTensor.of(grid)
    T.apply(lambda L: L, 1)
    for index in (0, (slice(1, None), 2), (slice(None), slice(None, None, 2)), [2, 0],
                  (slice(None), [1, 3]), (1, 2)):
        sub = T[index]
        want = np.asarray(grid, dtype=object)[index]
        assert not sub.apply(lambda L: 3 * L, 1).differs(FieldTensor.of(want * 3)).any()


_near_int64_sqrt = st.one_of(
    st.sampled_from([2**30 - 1, 2**30, 2**31 - 1, 2**31]), st.integers(2**29, 2**32)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_near_int64_sqrt, st.integers(0, 11), st.sampled_from([1, -1])),
             min_size=6, max_size=6),
    st.integers(1, 4),
    st.sampled_from([0, slice(1, 3), [2, 0], (slice(None), 1), (1, 0)]),
)
def test_products_on_indexed_tensors_take_exact_ints_dtype(entries, inner, index):
    # layer entries of about 2**31: int64 or Python ints depending on inner
    grid = np.empty((3, 2), dtype=object)
    grid.flat[:] = [sign * m * zeta(12, e) for m, e, sign in entries]
    sub, want = FieldTensor.of(grid.tolist())[index], grid[index]
    scaled = sub.apply(lambda L: 3 * L, inner)
    assert scaled.layers.dtype == exact_ints(sub.layers, inner).dtype
    assert not scaled.differs(FieldTensor.of(want * 3)).any()
    seen = []

    def entrywise(x, Y):
        seen.append(Y.dtype)
        return x * Y

    square = sub.convolve(sub, entrywise, inner)
    assert set(seen) == {exact_ints(sub.layers, inner * len(sub.exps)).dtype}
    assert not square.differs(FieldTensor.of(want * want)).any()


def test_entries_past_int64_stay_exact():
    x = CycloNumber(8, {1: 2**70, 2: 3})
    T = FieldTensor.of([[x, ONE], [zeta(8), x * 2**10]])
    twice = T.apply(lambda L: 2 * L, 1)
    assert twice.layers.dtype == object
    assert twice.scalar((0, 0)) == 2 * x and twice.scalar((1, 1)) == x * 2**11
    row = T[0]
    square = row.convolve(row, lambda u, V: u * V, 1)
    assert square.layers.dtype == object
    assert square.scalar((0,)) == x * x and square.scalar((1,)) == ONE


def test_galois_norm_check_survives_python_O():
    # with galois patched to the identity, the "norm" x^phi(5) is irrational
    code = (
        "import sys\n"
        "from fuselab.cyclo import CycloNumber, zeta\n"
        "CycloNumber.galois = lambda self, j: self\n"
        "try:\n"
        "    (zeta(5) + 2).inverse()\n"
        "except AssertionError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    src = str(Path(cyclo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "1 norm of a cyclotomic number must be rational\n"


@pytest.mark.parametrize("bad", [1.5, "1", None])
def test_field_tensor_names_the_first_bad_entry(bad):
    with pytest.raises(ShapeMismatch, match=r"^entry 3 is not a cyclotomic or rational number: "):
        FieldTensor.of([[ONE, 2], [Fraction(1, 2), bad], [bad, ONE]])


def _reference_canonical(order, num, den):
    """_canonical without the basis fast path or the closed-form table: every
    exponent expanded by the recursive rule."""
    while True:
        rows = expansion_rows(order)[0]
        acc = {}
        for e, c in num.items():
            for b, s in rows[e % order]:
                acc[b] = acc.get(b, 0) + s * c
        acc = {e: c for e, c in acc.items() if c}
        if not acc:
            return 1, {}, 1
        g = order
        for e in acc:
            g = gcd(g, e)
        if g == 1:
            break
        order //= g
        num = {e // g: c for e, c in acc.items()}
    g = den
    for c in acc.values():
        g = gcd(g, c)
    return order, {e: c // g for e, c in acc.items()}, den // g


def test_basis_exponents_are_the_zumbroich_basis():
    for n in (1, 2, 4, 9, 12, 30, 40, 60, 64, 105, 240):
        pps = cyclo._prime_powers(n)
        want = {e for e in range(n) if all((e % q) // (q // p) != p - 1 for p, q in pps)}
        rows, basis, _ = cyclo._tables(n)
        assert basis == want and all(rows[e] == ((e, 1),) for e in basis), n


@settings(max_examples=200, deadline=None)
@given(
    _orders,
    st.booleans(),
    st.dictionaries(st.integers(0, 239), st.integers(-5, 5), max_size=6),
    st.integers(1, 12),
)
def test_canonical_fast_path_matches_full_reexpansion(n, on_basis, coeffs, den):
    # on_basis keeps only basis exponents (the fast path), zeros included
    num = {e % n: c for e, c in coeffs.items()}
    if on_basis:
        num = {e: c for e, c in num.items() if e in cyclo._tables(n)[1]}
    assert cyclo._canonical(n, dict(num), den) == _reference_canonical(n, dict(num), den)


def test_scalars_equal_scalar_entrywise():
    x = CycloNumber(24, {1: 2**70, 5: -3})
    grid = [
        [zeta(24, 7), zeta(3) * Fraction(2, 5), ONE, ZERO],  # order 3 and 1 descend from 24
        [x, -x * 2**10 + zeta(8), sin_ratio(3, 6), Fraction(-7, 3)],
    ]
    big = FieldTensor.of(grid)
    assert big.layers.dtype == object and cyclo._magnitude(big.layers) > 2**63
    small = FieldTensor.of([[zeta(12, 5), Fraction(1, 6)], [ZERO, zeta(4) - 1]])
    product = small.convolve(small, lambda u, V: u @ V, 2)  # a den and reduced layers
    # entries of orders 1, 3, 4, 5 and 12 framed at order 360 and den 6 * 35:
    # each descends by its own factor, and the layers of 7/6, 5 zeta_3 and
    # 35 share a gcd greater than 1 with the den; the frame raised twice,
    # the wide den (past int64) and the object layers take the same readback
    mixed = [[Fraction(7, 6), 5 * zeta(3), ZERO, zeta(4) + 2], [35, ZERO, zeta(5), zeta(12, 7)]]
    framed = FieldTensor.of(mixed)._framed(60, 6)._framed(360, 6 * 35)
    wide = framed._framed(360, framed.den * 2**70)
    loose = FieldTensor(framed.order, framed.den, framed.exps, framed.layers.astype(object))
    assert len(set(np.gcd.reduce(np.where(framed.layers != 0, framed.exps[:, None, None], 360),
                                 axis=0, initial=360).ravel().tolist())) == 5
    assert framed.scalars() == wide.scalars() == loose.scalars() == tuple(
        tuple(CycloNumber._raw(1, {0: 0}, 1) + v for v in row) for row in mixed
    )
    for t in (big, big[1], big[:, [3, 0]], small, product, product[0, 1], framed, wide, loose):
        got = np.empty(t.layers.shape[1:], dtype=object)
        got[...] = t.scalars()
        if not got.shape:
            assert isinstance(t.scalars(), CycloNumber)
        for index in np.ndindex(got.shape):
            one = t.scalar(index)
            assert (got[index]._order, got[index]._num, got[index]._den) == (
                one._order, one._num, one._den
            )
    assert big.scalars() == tuple(tuple(CycloNumber._raw(1, {0: 0}, 1) + v for v in row) for row in grid)


@pytest.mark.parametrize(
    "make, args",
    [
        (zeta, (True,)),
        (CycloNumber, (True, [1])),
        (zeta, (4, True)),
        (CycloNumber, (4, [True, 0])),
        (CycloNumber, (4, {1: False})),
        (sin_ratio, (True, 3)),
        (sin_ratio, (2, True)),
    ],
)
def test_bools_are_not_orders_exponents_coefficients_or_sine_ratio_arguments(make, args):
    # the rest of the library refuses bools too (S and t entries, levels, bounds)
    with pytest.raises(ValueError):
        make(*args)


# -- the reduction's runs ----------------------------------------------------


def test_every_basis_exponent_has_two_to_the_omega_unit_sources():
    # each order's one table against the recursive rule of scalar_oracles:
    # the same basis and rows, and run i of the arrays holds exactly the
    # (source, coefficient) pairs whose row names basis exponent i, source k
    # of coefficient (-1)^popcount(k)
    for n in [*range(1, 721), 30030, 31395]:
        want_rows, want_basis = expansion_rows.__wrapped__(n)  # not kept: 31,395 is large
        rows, basis, (src, coeff, exps, runs) = cyclo._tables(n)
        assert rows == want_rows and basis == want_basis, n
        assert runs == 2 ** len(cyclo._prime_powers(n)) and len(src) == len(exps) * runs, n
        assert exps.tolist() == sorted(basis), n
        signs = [(-1) ** bin(k).count("1") for k in range(runs)]
        assert (coeff.reshape(-1, runs) == signs).all(), n
        want = Counter((b, e, s) for e, row in enumerate(want_rows) for b, s in row)
        assert Counter(zip(np.repeat(exps, runs).tolist(), src.tolist(), coeff.ravel().tolist())) == want, n


def _dict_reduced(n, exps, rows):
    """The reference reduction: each exponent's row by the recursive rule,
    one dict entry per basis exponent."""
    table, out = expansion_rows(n)[0], {}
    for e, row in zip(exps, rows):
        for b, s in table[e]:
            acc = out.setdefault(b, [0] * len(row))
            for k, c in enumerate(row):
                acc[k] += s * c
    return {b: acc for b, acc in out.items() if any(acc)}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 420), st.data())
def test_reduced_matches_a_dict_reduction_through_the_expansion(n, data):
    full = data.draw(st.booleans(), "every exponent")
    exps = range(n) if full else sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    cols = data.draw(st.integers(1, 6), "entries")
    top = data.draw(st.sampled_from([3, 2**40, 2**70]), "largest entry")
    entries = st.lists(st.integers(-top, top), min_size=cols, max_size=cols)
    rows = data.draw(st.lists(entries, min_size=len(exps), max_size=len(exps)), "layers")
    layers = np.array(rows, dtype=np.int64 if top < 2**63 else object).reshape(len(exps), 1, cols)
    # a budget of one to three entries per chunk puts chunk boundaries inside the entries
    per_chunk = data.draw(st.sampled_from([1, 2, 3, None]), "entries per chunk")
    terms = cyclo._GATHER_TERMS if per_chunk is None else len(cyclo._tables(n)[2][0]) * per_chunk
    saved, cyclo._GATHER_TERMS = cyclo._GATHER_TERMS, terms
    try:
        got_exps, got = cyclo._reduced(n, exps, layers)
    finally:
        cyclo._GATHER_TERMS = saved
    assert got.shape == (len(got_exps), 1, cols) and got_exps.tolist() == sorted(got_exps.tolist())
    flat = got.reshape(len(got_exps), cols).tolist()
    assert len(got_exps) == 1 or all(map(any, flat))
    assert {b: row for b, row in zip(got_exps.tolist(), flat) if any(row)} == _dict_reduced(
        n, exps, rows
    )
