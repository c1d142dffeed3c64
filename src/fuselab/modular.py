"""Modular data: unnormalized S-tilde, rational T-phases, quantum dimensions,
the spectrum of the fusion algebra, and both idempotent constructions.

Conventions:
  * S is unnormalized, so S[0][I] = d(I) and the global dimension is
    d(C) = sum_I d(I)^2 with (S^2)_{IJ} = d(C) * delta_{J, dual(I)}.
  * T data is a vector of RationalPhase exponents, never a complex matrix.
  * lambda_I(S) = S_{IS} / d(I) is the point of Spec(F) attached to I; the
    pairing is <a, b> = sum_S a(S) * b(dual(S)).

The two idempotent routes are deliberately independent: spectral_idempotent
divides by the norm <lambda, lambda> computed from the pairing, while
tube_idempotent uses the d(I)^2 / d(C) prefactor. Their coefficient-exact
agreement is the decategorified content of "e_{lambda_I} = 1_I".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclo import ONE, ZERO, CycloNumber, RationalPhase, sin_ratio, zeta
from .errors import DegenerateScalar, NonIntegralVerlinde, SchemaError, ShapeMismatch
from .fusion import FusionElement, FusionRing, su2_fusion_ring
from .verdict import Check, Verdict, failed, passed


class _ProductCache:
    """Memoizes products of interned scalars by object identity.

    Catalog S matrices repeat a handful of distinct entries thousands of
    times; caching by id turns the O(rank^3) verification sums into mostly
    dictionary hits. Values are kept in the cache so the ids stay valid.
    """

    __slots__ = ("_store",)

    def __init__(self):
        self._store: dict = {}

    def mul(self, a: CycloNumber, b: CycloNumber) -> CycloNumber:
        ka, kb = id(a), id(b)
        key = (ka, kb) if ka <= kb else (kb, ka)
        hit = self._store.get(key)
        if hit is None:
            hit = (a, b, a * b)
            self._store[key] = hit
        return hit[2]


def _interned(S) -> tuple[tuple[CycloNumber, ...], ...]:
    """Collapse value-equal entries to shared objects (helps _ProductCache)."""
    pool: dict[CycloNumber, CycloNumber] = {}
    return tuple(tuple(pool.setdefault(x, x) for x in row) for row in S)


@dataclass(frozen=True)
class ModularData:
    ring: FusionRing
    S: tuple[tuple[CycloNumber, ...], ...]
    t: tuple[RationalPhase, ...]
    d: tuple[CycloNumber, ...]
    globalDim: CycloNumber

    @classmethod
    def build(cls, ring: FusionRing, S, t) -> "ModularData":
        r = ring.rank
        S = _interned(tuple(tuple(row) for row in S))
        t = tuple(RationalPhase(x) for x in t)
        if len(S) != r or any(len(row) != r for row in S):
            raise ShapeMismatch(f"S must be {r}x{r}")
        if len(t) != r:
            raise ShapeMismatch(f"t must have length {r}")
        d = S[0]
        globalDim = ZERO
        for x in d:
            globalDim = globalDim + x * x
        return cls(ring=ring, S=S, t=t, d=d, globalDim=globalDim)

    @property
    def rank(self) -> int:
        return self.ring.rank


@dataclass(frozen=True)
class SpectrumPoint:
    """The algebra homomorphism lambda_I: values[S] = S_{IS}/d(I)."""

    baseLabel: int
    values: tuple[CycloNumber, ...]
    normSq: CycloNumber


def verify_modular_data(md: ModularData) -> Verdict:
    """Exact check of all ModularData invariants.

    The Verlinde consistency clause is verified through the equivalent
    identity sum_c N_ab^c (S_cm S_0m) = S_am S_bm for all a, b, m: together
    with the S^2 identity and nonzero dimensions it forces the Verlinde sum
    to reproduce N exactly (pair with S_{dual(c'),m}/(S_0m d(C)) and sum
    over m), while avoiding the O(rank^4) tensor at high rank.
    """
    r = md.rank
    S, dual, N = md.S, md.ring.dual, md.ring.N
    cache = _ProductCache()
    checks: list[Check] = []

    bad = next(
        (i for i in range(r) if S[0][i] != md.d[i]),
        None,
    )
    if bad is None and md.d[0] == ONE:
        total = ZERO
        for x in md.d:
            total = total + cache.mul(x, x)
        if total == md.globalDim:
            checks.append(passed("dimension-row"))
        else:
            checks.append(failed("dimension-row", "globalDim != sum of squared dimensions"))
    else:
        checks.append(
            failed("dimension-row", "d[0] != 1" if bad is None else f"d[{bad}] != S[0][{bad}]")
        )

    zero_d = next((i for i in range(r) if md.d[i].is_zero), None)
    checks.append(
        passed("nonzero-dimensions")
        if zero_d is None
        else failed("nonzero-dimensions", f"d[{zero_d}] = 0")
    )

    sym = next(
        ((i, j) for i in range(r) for j in range(i + 1, r) if S[i][j] != S[j][i]), None
    )
    checks.append(passed("symmetry") if sym is None else failed("symmetry", f"(I,J)={sym}"))

    dsym = next(
        (
            (i, j)
            for i in range(r)
            for j in range(r)
            if S[i][j] != S[dual[i]][dual[j]]
        ),
        None,
    )
    checks.append(
        passed("dual-symmetry") if dsym is None else failed("dual-symmetry", f"(I,J)={dsym}")
    )

    ssq_fail = None
    for i in range(r):
        for j in range(i, r):
            total = ZERO
            for m in range(r):
                total = total + cache.mul(S[i][m], S[m][j])
            want = md.globalDim if j == dual[i] else ZERO
            if total != want:
                ssq_fail = (i, j)
                break
        if ssq_fail:
            break
    checks.append(
        passed("s-squared") if ssq_fail is None else failed("s-squared", f"(I,J)={ssq_fail}")
    )

    ver_fail = None
    scaled = [[cache.mul(S[c][m], S[0][m]) for m in range(r)] for c in range(r)]
    for a in range(r):
        for b in range(a, r):
            row = N[a][b]
            lhs = [ZERO] * r
            for c in range(r):
                k = row[c]
                if k:
                    col = scaled[c]
                    if k == 1:
                        for m in range(r):
                            lhs[m] = lhs[m] + col[m]
                    else:
                        for m in range(r):
                            lhs[m] = lhs[m] + col[m] * k
            for m in range(r):
                if lhs[m] != cache.mul(S[a][m], S[b][m]):
                    ver_fail = (a, b, m)
                    break
            if ver_fail is None and N[a][b] != N[b][a]:
                ver_fail = (a, b, "asymmetric N")
            if ver_fail:
                break
        if ver_fail:
            break
    checks.append(
        passed("verlinde-consistency")
        if ver_fail is None
        else failed("verlinde-consistency", f"(a,b,m)={ver_fail}")
    )

    return Verdict(tuple(checks))


@lru_cache(maxsize=None)
def _inverse_dims(md: ModularData) -> tuple[CycloNumber, ...]:
    for i, x in enumerate(md.d):
        if x.is_zero:
            raise DegenerateScalar(f"quantum dimension d[{i}] is zero")
    return tuple(x.inverse() for x in md.d)


@lru_cache(maxsize=None)
def spectrum(md: ModularData) -> tuple[SpectrumPoint, ...]:
    """One point lambda_I per label; normSq is computed from the pairing."""
    inv_d = _inverse_dims(md)
    points = []
    for i in range(md.rank):
        values = tuple(md.S[i][s] * inv_d[i] for s in range(md.rank))
        points.append(
            SpectrumPoint(baseLabel=i, values=values, normSq=inner_product(md, values, values))
        )
    return tuple(points)


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
    """e_lambda = (1 / <lambda, lambda>) * sum_S lambda(dual(S)) * S."""
    if point.normSq.is_zero:
        raise DegenerateScalar(f"lambda_{point.baseLabel} has zero norm")
    inv_norm = point.normSq.inverse()
    dual = md.ring.dual
    return FusionElement(
        tuple(point.values[dual[s]] * inv_norm for s in range(md.rank))
    )


def tube_idempotent(md: ModularData, label: int) -> FusionElement:
    """1_I = (d(I)^2 / d(C)) * sum_S lambda_I(dual(S)) * S.

    Same shape as the spectral idempotent but with the dimension prefactor;
    the exact agreement of the two is a theorem, not a construction.
    """
    if not 0 <= label < md.rank:
        raise ShapeMismatch(f"label {label} out of range")
    if md.globalDim.is_zero:
        raise DegenerateScalar("global dimension is zero")
    lam = spectrum(md)[label]
    pref = md.d[label] * md.d[label] * md.globalDim.inverse()
    dual = md.ring.dual
    return FusionElement(tuple(lam.values[dual[s]] * pref for s in range(md.rank)))


@lru_cache(maxsize=None)
def idempotent_family(md: ModularData) -> tuple[FusionElement, ...]:
    """All spectral idempotents e_{lambda_I}, cached per modular datum."""
    return tuple(spectral_idempotent(md, p) for p in spectrum(md))


def verlinde(md: ModularData) -> tuple:
    """The literal Verlinde sum, entry by entry:

    out[a][b][c] = sum_m S_am S_bm S_{dual(c) m} / (S_0m * d(C)).

    Every entry must come out a non-negative rational integer; anything else
    raises NonIntegralVerlinde. Exact and O(rank^4), so intended for
    desk-scale ranks; the identity verified by verify_modular_data covers
    the same ground at any rank.
    """
    r = md.rank
    S, dual = md.S, md.ring.dual
    if md.globalDim.is_zero:
        raise DegenerateScalar("global dimension is zero")
    inv_dc = md.globalDim.inverse()
    inv_s0 = _inverse_dims(md)
    w = [inv_s0[m] * inv_dc for m in range(r)]
    U = [[S[dual[c]][m] * w[m] for m in range(r)] for c in range(r)]
    cache = _ProductCache()
    out = [[[None] * r for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(a, r):
            pab = [cache.mul(S[a][m], S[b][m]) for m in range(r)]
            for c in range(r):
                uc = U[c]
                total = ZERO
                for m in range(r):
                    total = total + pab[m] * uc[m]
                if not total.is_rational:
                    raise NonIntegralVerlinde(f"entry ({a},{b},{c}) is irrational: {total}")
                q = total.as_rational()
                if q.denominator != 1 or q < 0:
                    raise NonIntegralVerlinde(
                        f"entry ({a},{b},{c}) = {q} is not a non-negative integer"
                    )
                out[a][b][c] = total
                out[b][a][c] = total
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


# -- built-in catalog -----------------------------------------------------

SU2_CATALOG_MAX_LEVEL = 28
ZN_CATALOG_MAX_N = 8


def _checked(md: ModularData, name: str) -> ModularData:
    v = verify_modular_data(md)
    if not v.ok:
        raise AssertionError(f"catalog entry {name} failed validation: {v.describe()}")
    return md


@lru_cache(maxsize=None)
def su2_modular_data(level: int) -> ModularData:
    """Affine su(2) data at the given level: S from sine ratios, t from
    conformal weights shifted by the central charge."""
    ring = su2_fusion_ring(level)
    h = level + 2
    sr = tuple(sin_ratio(k, h) for k in range(2 * h))
    S = tuple(
        tuple(sr[((a + 1) * (b + 1)) % (2 * h)] for b in range(level + 1))
        for a in range(level + 1)
    )
    t = tuple(
        Fraction(a * (a + 2), 4 * h) - Fraction(level, 8 * h) for a in range(level + 1)
    )
    return _checked(ModularData.build(ring, S, t), f"su2:{level}")


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
    return _checked(ModularData.build(ring, S, t), "fibonacci")


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
    return _checked(ModularData.build(ring, S, t), "ising")


@lru_cache(maxsize=None)
def zn_modular_data(n: int) -> ModularData:
    """Cyclic anyons: pointed fusion j + k mod n, quadratic T-phases."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    N = tuple(
        tuple(
            tuple(1 if c == (a + b) % n else 0 for c in range(n)) for b in range(n)
        )
        for a in range(n)
    )
    ring = FusionRing(
        labels=tuple(str(j) for j in range(n)),
        dual=tuple((-j) % n for j in range(n)),
        N=N,
    )
    if n % 2:
        S = tuple(tuple(zeta(n, (2 * j * k) % n) for k in range(n)) for j in range(n))
        t = tuple(Fraction(j * j, n) for j in range(n))
    else:
        S = tuple(tuple(zeta(n, (j * k) % n) for k in range(n)) for j in range(n))
        t = tuple(Fraction(j * j, 2 * n) for j in range(n))
    return _checked(ModularData.build(ring, S, t), f"zn:{n}")


def catalog_names() -> tuple[str, ...]:
    names = [f"su2:{lev}" for lev in range(SU2_CATALOG_MAX_LEVEL + 1)]
    names += ["fibonacci", "ising"]
    names += [f"zn:{n}" for n in range(1, ZN_CATALOG_MAX_N + 1)]
    return tuple(names)


def load_catalog(name: str) -> ModularData:
    """Resolve a catalog id like 'su2:10', 'fibonacci', 'ising', 'zn:5'.
    Levels above SU2_CATALOG_MAX_LEVEL and n above ZN_CATALOG_MAX_N are
    refused: their cost grows about cubically with the rank."""
    if name == "fibonacci":
        return fibonacci_modular_data()
    if name == "ising":
        return ising_modular_data()
    head, sep, tail = name.partition(":")
    if sep and head in ("su2", "zn"):
        try:
            k = int(tail)
        except ValueError:
            raise SchemaError(f"catalog id {name!r} has a non-integer parameter") from None
        low, top = (0, SU2_CATALOG_MAX_LEVEL) if head == "su2" else (1, ZN_CATALOG_MAX_N)
        if not low <= k <= top:
            raise SchemaError(f"catalog id {name!r}: parameter must be in {low}..{top}")
        return su2_modular_data(k) if head == "su2" else zn_modular_data(k)
    raise SchemaError(f"unknown catalog id {name!r}")
