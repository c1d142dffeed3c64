"""Modular data: unnormalized S-tilde, rational T-phases, quantum dimensions,
the spectrum of the fusion algebra, and both idempotent constructions.

Conventions:
  * S is unnormalized, so S[0][I] = d(I) and the global dimension is
    d(C) = sum_I d(I)^2 with (S^2)_{IJ} = d(C) * delta_{J, dual(I)}.
  * A datum's value is (ring, md.tensor, t): md.tensor holds S as one
    canonical FieldTensor, and S^2, the Verlinde identity and sum, and
    Z*S - S*Z in invariants are integer products on it. The constructor
    ModularData(ring, S, t) takes S as scalars, kept as md.S, or as that
    tensor (a file's S is decoded straight into it; su(2)'s and Z_n's are
    gathered from FieldTensor.root_sums of an integer table). md.S when not
    given, md.d and md.globalDim = d(C) are made on first use and held.
  * T data is a vector of RationalPhase exponents, never a complex matrix.
  * Values derived from one datum (the spectral layer below, and the
    commutant in invariants) are computed once and held on that object, so
    they go away with it.
  * lambda_I(S) = S_{IS} / d(I) is the point of Spec(F) attached to I; the
    pairing is <a, b> = sum_S a(S) * b(dual(S)).
  * The spectral layer is one weighted convolution of md.tensor: row I of
    V, E and U is S's row I scaled by 1/d(I), d(I)/B[I] and d(I)/d(C), the
    points and, read at dual(S), the spectral and tube idempotents. B[I] =
    sum_S S_IS S_{I,dual(S)} = d(I)^2 <lambda_I, lambda_I> is the
    inverse-free pairing that nimrep's multiplicity profiles share. One
    inverse batch serves every weight, and each of V, E and U is read back
    as CycloNumbers once, when first asked for.
  * verify_modular_data settles valid data with one convolution; S^2 and
    the Verlinde pairs past row 1 are formed only to name a failure (its
    docstring has the conditions and the arguments).

The two idempotent routes are deliberately independent: E divides by the
pairing B[I], while U takes d(C) = sum_I d(I)^2 from row 0 of S. Their
coefficient-exact agreement is exactly the theorem B[I] = d(C), the
decategorified content of "e_{lambda_I} = 1_I".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from operator import is_

import numpy as np

from .cyclo import (
    ONE,
    ZERO,
    CycloNumber,
    FieldTensor,
    RationalPhase,
    _coerce,
    _first,
    inverses,
    sin_ratio,
)
from .errors import DegenerateScalar, NonIntegralVerlinde, SchemaError, ShapeMismatch
from .fusion import FusionElement, FusionRing, su2_fusion_ring
from .verdict import Verdict, check


@dataclass(frozen=True, init=False)
class ModularData:
    """Valued by (ring, tensor, t); S is given as rows of int, Fraction or
    CycloNumber entries, kept as md.S, or as its canonical FieldTensor (see
    the module docstring for what is made on first use)."""

    ring: FusionRing
    tensor: FieldTensor = field(repr=False)
    t: tuple[RationalPhase, ...]

    def __init__(self, ring: FusionRing, S, t):
        t = tuple(t)
        if isinstance(S, FieldTensor):
            tensor, S = S, None
            _check_shapes(ring.rank, tensor.layers[0], t)
        else:
            S = tuple(tuple(_entry(x, i, j) for j, x in enumerate(xs)) for i, xs in enumerate(S))
            _check_shapes(ring.rank, S, t)
        t = tuple(_phase(x, k) for k, x in enumerate(t))
        if S is not None:
            tensor = FieldTensor.of(S)
            object.__setattr__(self, "S", S)
        for name, value in (("ring", ring), ("tensor", tensor), ("t", t), ("_derived", {})):
            # _derived holds the results of _held functions, not part of the value
            object.__setattr__(self, name, value)

    @cached_property
    def S(self) -> tuple[tuple[CycloNumber, ...], ...]:
        return self.tensor.scalars()

    @cached_property
    def d(self) -> tuple[CycloNumber, ...]:
        return self.S[0] if "S" in self.__dict__ else self.tensor[0].scalars()

    @cached_property
    def globalDim(self) -> CycloNumber:
        """d(C) = sum_I d(I)^2, one contraction of row 0 of the tensor with itself."""
        d = self.tensor[0]
        return d.convolve(d, lambda x, Y: Y @ x, self.rank).scalar(())

    @property
    def rank(self) -> int:
        return self.ring.rank


def _check_shapes(r: int, S, t) -> None:
    """ShapeMismatch unless S has r rows of r entries and t has r entries."""
    if len(S) != r or any(len(row) != r for row in S):
        raise ShapeMismatch(f"S must be {r}x{r}")
    if len(t) != r:
        raise ShapeMismatch(f"t must have length {r}")


def _entry(x, i: int, j: int) -> CycloNumber:
    """S[i][j] as a CycloNumber; an int, Fraction or CycloNumber, never a bool."""
    y = None if isinstance(x, bool) else _coerce(x)
    if y is None:
        raise ShapeMismatch(f"S[{i}][{j}] = {x!r} is not a cyclotomic or rational number")
    return y


def _phase(x, k: int) -> RationalPhase:
    """t[k] as a RationalPhase; an int, Fraction or RationalPhase, never a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, RationalPhase)):
        raise ShapeMismatch(f"t[{k}] = {x!r} is not a rational number")
    return RationalPhase(x)


def _held(fn):
    """Memoize fn(obj, *args) in obj._derived, on the object itself (a
    ModularData, a NimRep or a GaugeProblem): computed on first use, freed
    with obj, and found without hashing obj or args. Each function has one
    slot, (args, value), reused only when every argument is the same object:
    any other, even an equal one, is recomputed and replaces it, so obj pins
    at most one argument set per function. A call that raises holds nothing."""

    @wraps(fn)
    def memo(obj, *args):
        held = obj._derived.get(fn)
        if held is None or len(held[0]) != len(args) or not all(map(is_, held[0], args)):
            held = obj._derived[fn] = (args, fn(obj, *args))
        return held[1]

    return memo


@dataclass(frozen=True)
class SpectrumPoint:
    """The algebra homomorphism lambda_I: values[S] = S_{IS}/d(I)."""

    baseLabel: int
    values: tuple[CycloNumber, ...]
    normSq: CycloNumber


def _rows(x, Y):
    """Convolution op for entry [c][m] = x[c][m] * y[m]."""
    return x * Y[:, None, :]


# A block of label pairs holds about this many entries per exponent, so the
# intermediates of a pair contraction stay bounded whatever the rank.
_PAIR_ENTRIES = 512


def _pair_blocks(T: FieldTensor, row: int = 0):
    """The label pairs a <= b, a >= row, of S = T in row-major order, in blocks
    of max(1, _PAIR_ENTRIES // rank) pairs: yields (a, b, P) with a and b index
    arrays and P[k][m] = S[a[k]][m] * S[b[k]][m], one convolution per block."""
    r = T.layers.shape[1]
    pa, pb = np.triu_indices(r)
    step = max(1, _PAIR_ENTRIES // r)
    for k in range(np.searchsorted(pa, row), len(pa), step):
        a, b = pa[k : k + step], pb[k : k + step]
        yield a, b, T[a].convolve(T[b], lambda x, Y: x[None] * Y, 1)


def verify_modular_data(md: ModularData) -> Verdict:
    """Exact check of all ModularData invariants, the S-matrix ones on md.tensor.

    Valid data takes one convolution, P[a][b][m] = S_am S_bm for a = 0, 1;
    the later pairs and S^2 are formed only when a condition below fails.

    The Verlinde clause is verified through the equivalent identity
    sum_c N_ab^c (S_cm S_0m) = S_am S_bm for all a, b, m: together with the
    S^2 identity and nonzero dimensions it forces the Verlinde sum to
    reproduce N exactly (pair with S_{dual(c'),m}/(S_0m d(C)) and sum over
    m). The pairs (0, b) and (1, b >= 1) are read off P, whose P[0] is the
    left factor S_cm S_0m; the pairs a >= 2 run in blocks (_pair_blocks):
    per block one integer product N[a, b] @ P[0], one convolution for
    S_am S_bm and one comparison, about _PAIR_ENTRIES entries per exponent.
    N's symmetry is one comparison over all pairs. The witness is the first
    failing pair in row-major order, as a scan of a, then b >= a would find.

    The pairs a >= 2 are skipped once rows 0 and 1 have passed, if no d is
    zero, N is symmetric and _row_one_generates holds (held on the ring, which
    verify_axioms reads too: a parsed document forms M(1) M once). For a
    column m let y_c = S_cm / S_0m and M(a)_{cb} = N_ab^c: the identity of a
    pair (a, b), divided by S_0m^2, reads (y M(a))_b = y_a y_b. Rows 0 and 1
    with N_10 = N_01 give y M(0) = y and y M(1) = y_1 y, and each generation
    step M(c) = M(1) M(b) - sum_x n_x M(x) gives y M(c) = (y_1 y_b - sum_x
    n_x y_x) y = y_c y by the pair (1, b). So y M(a) = y_a y for every a, and
    every pair holds.

    s-squared needs no S^2 when symmetry and Verlinde have passed, N_ab^{dual
    0} = delta_{b, dual a}, and row 0 of S^2 (P[0] summed over m) is d(C) =
    sum_m S_0m^2 at dual(0) and 0 elsewhere: by symmetry and the Verlinde
    identity summed over m, (S^2)_ab = sum_m S_am S_bm = sum_c N_ab^c
    (S^2)_{0c} = d(C) N_ab^{dual 0} = d(C) delta_{b, dual a}.
    """
    r, dual, T = md.rank, md.ring.dual, md.tensor
    zero_d = _zero_dimension(T)

    # S, S^T and S dual-permuted share order, den and exps: compare layers alone
    L, p = T.layers, list(dual)
    sym = _first(np.triu((L != L.transpose(0, 2, 1)).any(axis=0), 1))
    dsym = None if dual == tuple(range(r)) else _first((L != L[:, p][:, :, p]).any(axis=0))

    Nint, P = md.ring.tensor, T.convolve(T[:2], lambda x, Y: Y[:, :, None] * x, 1)
    asym = (Nint != Nint.transpose(1, 0, 2)).any(axis=2)
    ver_fail = None
    for a, b, wrong in _verlinde_blocks(md, P, asym, zero_d):
        hit = _first(wrong.any(axis=1) | asym[a, b])
        if hit is not None:
            k = hit[0]
            m = _first(wrong[k])
            ver_fail = (int(a[k]), int(b[k]), "asymmetric N" if m is None else m[0])
            break

    # C[a][b] = delta_{b, dual a}; row 0 of S S^T, whose entry 0 is d(C)
    C, row = np.arange(r) == np.array(dual)[:, None], P[0].apply(lambda L: L.sum(axis=2), r)
    dc, ssq_fail = row.layers[:, 0], None
    derived = sym is None and ver_fail is None and np.array_equal(Nint[:, :, dual[0]], C)
    if not (derived and np.array_equal(row.layers, dc[:, None] * C[0])):
        square = T.convolve(T, lambda x, Y: x @ Y, r)
        want = FieldTensor(row.order, row.den, row.exps, dc[:, None, None] * C)
        ssq_fail = _first(np.triu(square.differs(want)))

    return Verdict((
        check("dimension-row", None if T.scalar((0, 0)) == ONE else "d[0] != 1"),
        check("nonzero-dimensions", None if zero_d is None else f"d[{zero_d}] = 0"),
        check("symmetry", None if sym is None else f"(I,J)={sym}"),
        check("dual-symmetry", None if dsym is None else f"(I,J)={dsym}"),
        check("s-squared", None if ssq_fail is None else f"(I,J)={ssq_fail}"),
        check("verlinde-consistency", None if ver_fail is None else f"(a,b,m)={ver_fail}"),
    ))


def _verlinde_blocks(md: ModularData, P: FieldTensor, asym: np.ndarray, zero_d):
    """verify_modular_data's Verlinde scan, (a, b, wrong[k][m] at (a[k], b[k], m)) per
    block: rows 0 and 1 off P, then the later pairs unless the exit holds."""
    r, T, Nint = md.rank, md.tensor, md.ring.tensor
    a, b = np.triu_indices(min(r, 2), m=r)
    yield a, b, (P.apply(lambda L: Nint[:2] @ L[:, :1], r).layers != P.layers).any(axis=0)[a, b]
    if r > 2 and not (zero_d is None and not asym.any() and _row_one_generates(md.ring)):
        for a, b, pairs in _pair_blocks(T, 2):
            yield a, b, P[0].apply(lambda L: Nint[a, b] @ L, r).differs(pairs)


def _zero_dimension(T: FieldTensor) -> int | None:
    """The first label I with d(I) = S[0][I] = 0, read off md.tensor's layers, or None."""
    hit = _first(~T.layers[:, 0].any(axis=0))
    return None if hit is None else hit[0]


def _row_one_generates(ring: FusionRing) -> bool:
    """ring._row_one_generates, held on the ring and read by verify_axioms too:
    label 1 generates the ring and each step x_c = x_1 x_b - ... of the
    generation holds for the regular matrices, M(c) = M(1) M(b) - ..."""
    return ring._row_one_generates


def _require_dimensions(md: ModularData) -> None:
    """DegenerateScalar naming the first label I with d(I) = 0, if any."""
    if (i := _zero_dimension(md.tensor)) is not None:
        raise DegenerateScalar(f"quantum dimension d[{i}] is zero")


@_held
def _pairing(md: ModularData) -> FieldTensor:
    """Q[I][S] = d(I) S_{I,dual(S)} for S < rank and Q[I][rank] = B[I] =
    sum_S S_IS S_{I,dual(S)} = d(I)^2 <lambda_I, lambda_I>: one convolution
    and no inverse. It raises nothing; its readers name what is zero."""
    r, T = md.rank, md.tensor
    # row I of W is (S_I0, ..., S_I(r-1), d(I)); x[I][S] = S_{I,dual(S)}
    W = FieldTensor(T.order, T.den, T.exps, np.concatenate((T.layers, T.layers[:, 0, :, None]), 2))

    def terms(x, Y):
        return np.concatenate((x * Y[:, :, r:], (x * Y[:, :, :r]).sum(2, keepdims=True)), 2)

    return T[:, list(md.ring.dual)].convolve(W, terms, r)


@_held
def _weighted(md: ModularData) -> list:
    """[V, E, U, norms]: rows I of md.tensor scaled by 1/d(I), d(I)/B[I] and
    d(I)/d(C) (E and U read at dual(S)) in one convolution, and B[I]/d(I)^2.
    One batch inverts the distinct nonzero d(I), B[I] and d(C), one product
    is made per distinct pair, and 0 stands for 1/0: its readers raise first."""
    d, dc, B = md.d, md.globalDim, _pairing(md)[:, md.rank].scalars()
    pool = dict.fromkeys(x for x in (dc, *d, *B) if not x.is_zero)
    inv = dict(zip(pool, inverses(pool)))
    pairs = {*zip(d, B), *((x, dc) for x in d)}  # one per d(I) when every B[I] = d(C)
    over = {(x, y): x * inv.get(y, ZERO) for x, y in pairs}
    w = [[inv.get(x, ZERO) for x in d], [over[p] for p in zip(d, B)], [over[x, dc] for x in d]]
    W = md.tensor.convolve(FieldTensor.of(w), lambda x, Y: x * Y[..., None], 1)
    sq = {(b, x): b * inv.get(x, ZERO) * inv.get(x, ZERO) for b, x in {*zip(B, d)}}
    dual = list(md.ring.dual)
    return [W[0], W[1][:, dual], W[2][:, dual], [sq[p] for p in zip(B, d)]]


def _read(md: ModularData, k: int) -> tuple[tuple[CycloNumber, ...], ...]:
    """The rows of V, E or U (k = 0, 1, 2) of _weighted(md), read back once;
    a zero dimension is named first."""
    _require_dimensions(md)
    held = _weighted(md)
    if isinstance(held[k], FieldTensor):
        held[k] = held[k].scalars()
    return held[k]


@_held
def spectrum(md: ModularData) -> tuple[SpectrumPoint, ...]:
    """One point lambda_I per label, row I of V; normSq is computed from the pairing."""
    rows, norms = _read(md, 0), _weighted(md)[3]
    return tuple(SpectrumPoint(i, rows[i], norms[i]) for i in range(md.rank))


_spectrum_slot = spectrum.__wrapped__  # the key of spectrum's result in md._derived


def inner_product(md: ModularData, a, b) -> CycloNumber:
    """The bilinear pairing <a, b> = sum_S a(S) * b(dual(S))."""
    r = md.rank
    if len(a) != r or len(b) != r:
        raise ShapeMismatch("character vectors must match the rank")
    total = ZERO
    dual = md.ring.dual
    for s in range(r):
        total = total + a[s] * b[dual[s]]
    return total


def spectral_idempotent(md: ModularData, point: SpectrumPoint) -> FusionElement:
    """e_lambda = (1 / <lambda, lambda>) * sum_S lambda(dual(S)) * S: row I of
    E for the point lambda_I of spectrum(md), the formula for any other point."""
    if point.normSq.is_zero:
        raise DegenerateScalar(f"lambda_{point.baseLabel} has zero norm")
    if any(p is point for p in md._derived.get(_spectrum_slot, ((), ()))[1]):
        return FusionElement(_read(md, 1)[point.baseLabel])
    inv_norm = point.normSq.inverse()
    dual = md.ring.dual
    return FusionElement(
        tuple(point.values[dual[s]] * inv_norm for s in range(md.rank))
    )


def tube_idempotent(md: ModularData, label: int) -> FusionElement:
    """1_I = (d(I)^2 / d(C)) * sum_S lambda_I(dual(S)) * S, row I of U.

    Same shape as the spectral idempotent but with the dimension prefactor;
    the exact agreement of the two is a theorem, not a construction.
    """
    if not isinstance(label, int) or isinstance(label, bool):
        raise ShapeMismatch(f"label must be an integer, got {label!r}")
    if not 0 <= label < md.rank:
        raise ShapeMismatch(f"label {label} out of range")
    if md.globalDim.is_zero:
        raise DegenerateScalar("global dimension is zero")
    return FusionElement(_read(md, 2)[label])


@_held
def idempotent_family(md: ModularData) -> tuple[FusionElement, ...]:
    """All spectral idempotents e_{lambda_I}, the rows of E, held on the datum;
    a zero dimension is named before a zero norm."""
    rows = _read(md, 1)
    for i, x in enumerate(_weighted(md)[3]):
        if x.is_zero:
            raise DegenerateScalar(f"lambda_{i} has zero norm")
    return tuple(map(FusionElement, rows))


def verlinde(md: ModularData) -> tuple:
    """The literal Verlinde sum, entry by entry:

    out[a][b][c] = sum_m S_am S_bm S_{dual(c) m} / (S_0m * d(C)).

    Every entry must come out a non-negative rational integer; anything else
    raises NonIntegralVerlinde, naming the first bad entry (a, b >= a, c) in
    row-major order. Exact: per block of label pairs a <= b (_pair_blocks)
    one product on md.tensor more, and one integrality test on its layers;
    the entry (b, a, c) is the entry (a, b, c).
    """
    r = md.rank
    T, dual = md.tensor, md.ring.dual
    if md.globalDim.is_zero:
        raise DegenerateScalar("global dimension is zero")
    _require_dimensions(md)
    inv_dc, pool = md.globalDim.inverse(), dict.fromkeys(md.d)  # equal d(I) inverted once
    inv = dict(zip(pool, inverses(pool)))
    w = FieldTensor.of([inv[x] * inv_dc for x in md.d])
    U = T[list(dual)].convolve(w, _rows, 1)
    out = [[None] * r for _ in range(r)]
    for a, b, pairs in _pair_blocks(T):
        V = pairs.convolve(U, lambda x, Y: x @ Y.transpose(0, 2, 1), r)
        rational = V.exps == 0  # a rational entry has no other basis coordinate
        num = V.layers[rational].sum(axis=0)
        bad = (V.layers[~rational] != 0).any(axis=0) | (num % V.den != 0) | (num < 0)
        hit = _first(bad)
        if hit is not None:
            k, c = hit
            total, at = V.scalar(hit), f"entry ({a[k]},{b[k]},{c})"
            if not total.is_rational:
                raise NonIntegralVerlinde(f"{at} is irrational: {total}")
            raise NonIntegralVerlinde(f"{at} = {total.as_rational()} is not a non-negative integer")
        for i, j, row in zip(a.tolist(), b.tolist(), (num // V.den).tolist()):
            out[i][j] = out[j][i] = row
    values = {v for plane in out for row in plane for v in row}
    numbers = {v: CycloNumber.from_rational(v) for v in values}
    return tuple(tuple(tuple(numbers[v] for v in row) for row in plane) for plane in out)


# -- built-in catalog -----------------------------------------------------

SU2_CATALOG_MAX_LEVEL = 28
ZN_CATALOG_MAX_N = 8


def _in_catalog(family: str, k, low: int, top: int) -> None:
    """SchemaError naming the catalog id when an int k lies outside low..top:
    past the catalog a build grows with k and would be kept for good."""
    if type(k) is int and not low <= k <= top:
        raise SchemaError(f"catalog id {f'{family}:{k}'!r}: parameter must be in {low}..{top}")


def _checked(md: ModularData, name: str) -> ModularData:
    v = verify_modular_data(md)
    if not v.ok:
        raise AssertionError(f"catalog entry {name} failed validation: {v.describe()}")
    return md


@lru_cache(maxsize=None)
def su2_modular_data(level: int) -> ModularData:
    """Affine su(2) data at the given level: S[a][b] is the sine ratio
    (a+1)(b+1) of the 2h ones, h = level + 2 (row 0 holds every one up to
    sign), t from conformal weights shifted by the central charge. Column k
    of one integer table counts the exponents of sin_ratio(k, h) = sum_{j<k}
    zeta_2h^(k-1-2j), and S is gathered from the tensor of the table. An
    int level outside 0..SU2_CATALOG_MAX_LEVEL raises SchemaError."""
    _in_catalog("su2", level, 0, SU2_CATALOG_MAX_LEVEL)
    ring = su2_fusion_ring(level)
    n = 2 * (level + 2)  # 2h: the ratios lie in Q(zeta_n)
    at = np.arange(1, level + 2)
    t = tuple(
        Fraction(a * (a + 2), 2 * n) - Fraction(level, 4 * n) for a in range(level + 1)
    )
    j, k = np.triu_indices(n, 1)  # the terms j < k of every ratio k
    counts = np.bincount((k - 1 - 2 * j) % n * n + k, minlength=n * n).reshape(n, n)
    T = FieldTensor.root_sums(n, counts)[(at[:, None] * at) % n]
    return _checked(ModularData(ring, T, t), f"su2:{level}")


@lru_cache(maxsize=None)
def fibonacci_modular_data() -> ModularData:
    phi = sin_ratio(2, 5)
    ring = FusionRing(
        labels=("1", "tau"),
        dual=(0, 1),
        N=(((1, 0), (0, 1)), ((0, 1), (1, 1))),
    )
    S = ((ONE, phi), (phi, -ONE))
    t = (Fraction(0), Fraction(2, 5))
    return _checked(ModularData(ring, S, t), "fibonacci")


@lru_cache(maxsize=None)
def ising_modular_data() -> ModularData:
    rt2 = sin_ratio(2, 4)
    ring = FusionRing(
        labels=("1", "sigma", "psi"),
        dual=(0, 1, 2),
        N=(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (1, 0, 1), (0, 1, 0)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ),
    )
    S = ((ONE, rt2, ONE), (rt2, ZERO, -rt2), (ONE, -rt2, ONE))
    t = (Fraction(0), Fraction(1, 16), Fraction(1, 2))
    return _checked(ModularData(ring, S, t), "ising")


@lru_cache(maxsize=None)
def zn_modular_data(n: int) -> ModularData:
    """Cyclic anyons: pointed fusion j + k mod n, quadratic T-phases, S[j][k]
    = zeta_n^(2jk) (odd n) or zeta_n^(jk) (even n) from root_sums of the
    identity. An int n outside 1..ZN_CATALOG_MAX_N raises SchemaError."""
    _in_catalog("zn", n, 1, ZN_CATALOG_MAX_N)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    x = np.arange(n)
    ring = FusionRing(
        labels=tuple(str(j) for j in range(n)),
        dual=tuple((-j) % n for j in range(n)),
        N=((x[:, None, None] + x[:, None]) % n == x).astype(np.int64),  # c = a + b mod n
    )
    T = FieldTensor.root_sums(n, np.eye(n, dtype=np.int64))[(x[:, None] * x * (1 + n % 2)) % n]
    t = tuple(Fraction(j * j, n if n % 2 else 2 * n) for j in range(n))
    return _checked(ModularData(ring, T, t), f"zn:{n}")


def catalog_names() -> tuple[str, ...]:
    names = [f"su2:{lev}" for lev in range(SU2_CATALOG_MAX_LEVEL + 1)]
    names += ["fibonacci", "ising"]
    names += [f"zn:{n}" for n in range(1, ZN_CATALOG_MAX_N + 1)]
    return tuple(names)


def _decimal(text: str) -> int | None:
    """The integer that text spells in plain ASCII decimal, like '7' or '-3', or None."""
    return int(text) if text.removeprefix("-").isdecimal() and str(int(text)) == text else None


def load_catalog(name: str) -> ModularData:
    """Resolve a catalog id like 'su2:10', 'fibonacci', 'ising', 'zn:5'.
    The constructors refuse levels above SU2_CATALOG_MAX_LEVEL and n above
    ZN_CATALOG_MAX_N: a fresh build and verify costs about rank^2 (su2:10
    2.6 ms, su2:28 12 ms, median of 11 on 2 cores) and the field order grows
    with the level."""
    if name == "fibonacci":
        return fibonacci_modular_data()
    if name == "ising":
        return ising_modular_data()
    head, sep, tail = name.partition(":")
    if sep and head in ("su2", "zn"):
        if (k := _decimal(tail)) is None:
            raise SchemaError(f"catalog id {name!r} does not write its parameter in plain decimal")
        return su2_modular_data(k) if head == "su2" else zn_modular_data(k)
    raise SchemaError(f"unknown catalog id {name!r}")
