"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycloNumber is a finite rational combination sum_e c_e * zeta_n^e held in a
canonical form: exponents are reduced to a Zumbroich-style basis of size
phi(n), the order n is lowered to the smallest field containing the value,
and the coefficients share one positive denominator with overall gcd 1.
Because the form is unique, equality is plain component comparison.

The basis at order n consists of the exponents e such that for every prime
power q = p^v exactly dividing n, the top base-p digit of (e mod q) is not
p - 1.  Exponents outside the basis are rewritten through the vanishing sums
sum_{j=0}^{p-1} zeta_n^(e + j*n/p) = 0.  A rewrite at p leaves residues
modulo the other prime powers untouched, so the canonical support of an
element of Q(zeta_{n/g}) is contained in g*Z; the order descent below relies
on exactly that. At one q, the rewrite reaches each basis residue r from r,
with coefficient +1, and from r with its top digit raised to p - 1, with
coefficient -1. Joined by CRT, each basis exponent has 2^omega(n) sources of
coefficient +-1. One table per order (_tables) holds this closed form, read
per exponent by CycloNumber and per basis exponent by FieldTensor.

A dense inverse is the product of the Galois conjugates over the rational
norm, about phi(n) products, so each number keeps its inverse once taken,
and inverses(xs) pays that cost once per order for a whole batch.

A FieldTensor holds an array of field elements as integer layers in basis
coordinates. Each product picks int64 or Python ints from the largest layer
entry of its operands, as exact_ints does. FieldTensor.of (from numbers),
FieldTensor.decode (from a file's dense coefficients) and root_sums (from
integer sums of roots), the last two with no CycloNumber, make canonical
tensors, equal exactly when their entries are.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd, lcm, prod

import numpy as np

from .errors import DegenerateScalar, ShapeMismatch

Rational = int | Fraction

# Tables and arrays for Q(zeta_n) have n rows, so work and memory grow about
# linearly in n; no field of larger order is built. The budget admits
# 5 * 4099 and every catalog order (at most 60).
MAX_FIELD_ORDER = 2**15


def _budgeted(n: int) -> int:
    """n, or ShapeMismatch when Q(zeta_n) is over MAX_FIELD_ORDER."""
    if n > MAX_FIELD_ORDER:
        raise ShapeMismatch(f"field order {n} exceeds the budget of {MAX_FIELD_ORDER}")
    return n


# The table of an order holds one entry per reduction term, 2^omega(n) per
# basis exponent: 128 at order 60, 405,504 at order 31,395. The kept tables
# hold at most _KEPT_TERMS in all.
_KEPT_TERMS = 2**16


class _Kept(dict):
    """keeper[key], or keeper(key): build(key), kept while the terms(value)
    of the kept values sum to at most budget, the first kept evicted first;
    a value over the whole budget is built on every call, and a build that
    raises keeps nothing. sizes[key] is the charge of each kept key."""

    __call__ = dict.__getitem__

    def __init__(self, build, terms, budget=_KEPT_TERMS):
        super().__init__()
        self.build, self.terms, self.budget, self.sizes = build, terms, budget, {}

    def __missing__(self, key):
        value = self.build(key)
        size = self.terms(value)
        if size <= self.budget:
            while sum(self.sizes.values()) + size > self.budget:
                first = next(iter(self))
                del self[first], self.sizes[first]
            self[key], self.sizes[key] = value, size
        return value

    def clear(self):
        super().clear()
        self.sizes.clear()


def _kept_entries(entries):
    """A decorator that keeps build's values in a _Kept of 2**23 terms, each
    value charged entries(value) + 2**16: at most 128 values and 64 MiB of
    int64 or pointers (graphs, unions, modules and su(2) rings)."""
    return partial(_Kept, terms=lambda value: entries(value) + 2**16, budget=2**23)


def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """Pairs (p, p^v) with p^v exactly dividing n."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, m))
    return tuple(out)


@partial(_Kept, terms=lambda table: len(table[2][0]))
def _tables(n: int):
    """The reduction to the basis at order n in closed form (module
    docstring): (rows, basis set, (src, coeff, basis, runs)). rows[e] =
    ((b, s), ...) writes zeta_n^e by basis exponents b in increasing order,
    ((e, 1),) when e is one. The arrays hold the runs = 2^omega(n) sources
    of each basis exponent b in increasing order: source k of b is b with
    its top digit raised to p - 1 at the i-th prime power of n for each bit
    i set in k, of coefficient (-1)^popcount(k)."""
    sources, signs = [[0]], [1]
    for p, q in _prime_powers(_budgeted(n)):
        unit, top = n // q * pow(n // q, -1, q), q // p  # unit is 1 mod q and 0 mod n/q
        sources = [  # basis residue r at q, then r with its top digit raised
            [(e + d) % n for d in (r * unit, (r % top + q - top) * unit) for e in run]
            for run in sources
            for r in range(q - top)
        ]
        signs += [-s for s in signs]
    sources.sort()
    rows = [[] for _ in range(n)]
    for run in sources:
        b = run[0]
        for e, s in zip(run, signs):
            rows[e].append((b, s))
    basis = [run[0] for run in sources]
    src = np.fromiter(chain.from_iterable(sources), np.int64, len(basis) * len(signs))
    arrays = src, np.array(signs * len(basis))[:, None], np.array(basis), len(signs)
    return tuple(map(tuple, rows)), frozenset(basis), arrays


def _canonical(order: int, num: dict[int, int], den: int) -> tuple[int, dict[int, int], int]:
    """Reduce to basis exponents, descend to the minimal order, strip gcd."""
    acc: dict[int, int] = {}
    while True:
        rows, basis, _ = _tables[order]
        if basis.issuperset(num):  # the row of a basis exponent is itself
            acc = num
        else:
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
    if g > 1:
        acc = {e: c // g for e, c in acc.items()}
        den //= g
    return order, acc, den


class CycloNumber:
    """Immutable element of a cyclotomic field, always in canonical form."""

    __slots__ = ("_order", "_num", "_den", "_hash", "_inv")

    def __init__(self, order: int, coeffs):
        if isinstance(order, bool) or not isinstance(order, int) or order < 1:
            raise ValueError(f"order must be a positive integer, got {order!r}")
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        den = 1
        pairs: list[tuple[int, Fraction]] = []
        for e, c in items:
            if isinstance(e, bool) or not isinstance(e, int):
                raise ValueError(f"exponent must be an integer, got {e!r}")
            if isinstance(c, bool):
                raise ValueError(f"coefficient must be rational, not a bool: {c!r}")
            f = Fraction(c)
            if f:
                pairs.append((e, f))
                den = lcm(den, f.denominator)
        num: dict[int, int] = {}
        for e, f in pairs:
            k = e % order
            num[k] = num.get(k, 0) + int(f * den)
        self._order, self._num, self._den = _canonical(order, num, den)
        self._hash: int | None = None
        self._inv: CycloNumber | None = None

    @classmethod
    def _raw(cls, order: int, num: dict[int, int], den: int) -> "CycloNumber":
        """Wrap un-normalized integer data (canonicalized here)."""
        self = object.__new__(cls)
        self._order, self._num, self._den = _canonical(order, num, den)
        self._hash = self._inv = None
        return self

    @classmethod
    def _made(cls, order: int, num: dict[int, int], den: int) -> "CycloNumber":
        """Wrap integer data already in canonical form."""
        self = object.__new__(cls)
        self._order, self._num, self._den = order, num, den
        self._hash = self._inv = None
        return self

    @classmethod
    def from_rational(cls, value: Rational) -> "CycloNumber":
        f = Fraction(value)
        return cls._raw(1, {0: f.numerator}, f.denominator)

    # -- inspection ------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Dense coefficient vector of length `order` over powers of zeta."""
        return tuple(
            Fraction(self._num.get(e, 0), self._den) for e in range(self._order)
        )

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_rational(self) -> bool:
        return self._order == 1

    def as_rational(self) -> Fraction:
        if self._order != 1:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._num.get(0, 0), self._den)

    # -- field operations ------------------------------------------------

    def _lifted(self, n: int) -> dict[int, int]:
        f = n // self._order
        if f == 1:
            return self._num
        return {e * f: c for e, c in self._num.items()}

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = lcm(self._order, other._order)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        num = {e: c * fa for e, c in self._lifted(n).items()}
        for e, c in other._lifted(n).items():
            num[e] = num.get(e, 0) + c * fb
        return CycloNumber._raw(n, num, den)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber._made(self._order, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        if other._order == 1:
            scale = other._num[0]
            return CycloNumber._raw(
                self._order,
                {e: c * scale for e, c in self._num.items()},
                self._den * other._den,
            )
        if self._order == 1:
            return other * self
        n = lcm(self._order, other._order)
        a, b = self._lifted(n), other._lifted(n)
        num: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                k = e1 + e2
                if k >= n:
                    k -= n
                num[k] = num.get(k, 0) + c1 * c2
        return CycloNumber._raw(n, num, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """1/self, kept on self after the first call (the inverse keeps no
        pointer back, so numbers form no reference cycles)."""
        inv = self._inv
        if inv is None:
            inv = self._inv = self._inverted()
        return inv

    def _inverted(self) -> "CycloNumber":
        if self.is_zero:
            raise DegenerateScalar("division by zero in a cyclotomic field")
        if self._order == 1:
            f = Fraction(self._den, self._num[0])
            return CycloNumber._raw(1, {0: f.numerator}, f.denominator)
        if len(self._num) == 1:
            ((e, c),) = self._num.items()
            f = Fraction(self._den, c)
            return CycloNumber._raw(self._order, {-e % self._order: f.numerator}, f.denominator)
        # Galois-norm inverse: multiply the conjugates, divide by the norm.
        m = self._order
        partial = ONE
        for j in range(2, m):
            if gcd(j, m) == 1:
                partial = partial * self.galois(j)
        norm = self * partial
        if not norm.is_rational:  # an explicit raise, so python -O keeps the check
            raise AssertionError("norm of a cyclotomic number must be rational")
        return partial * CycloNumber.from_rational(1 / norm.as_rational())

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result, base = ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def galois(self, j: int) -> "CycloNumber":
        """Apply zeta -> zeta^j; j must be coprime to the order."""
        if gcd(j, self._order) != 1:
            raise ValueError(f"{j} is not coprime to order {self._order}")
        return CycloNumber._raw(
            self._order, {(j * e) % self._order: c for e, c in self._num.items()}, self._den
        )

    def conjugate(self) -> "CycloNumber":
        if self._order == 1:
            return self
        return self.galois(self._order - 1)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (
            self._order == other._order
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self._order, self._den, tuple(sorted(self._num.items()))))
            self._hash = h
        return h

    def __str__(self):
        if self.is_zero:
            return "0"
        if self._order == 1:
            return str(Fraction(self._num[0], self._den))
        parts = []
        for e, c in sorted(self._num.items()):
            mono = "1" if e == 0 else (f"z{self._order}" if e == 1 else f"z{self._order}^{e}")
            if e == 0:
                term = str(abs(c))
            elif abs(c) == 1:
                term = mono
            else:
                term = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ", term))
        body = parts[0][1] if parts[0][0] == "+ " else "-" + parts[0][1]
        for sign, term in parts[1:]:
            body += f" {sign.strip()} {term}"
        if self._den != 1:
            body = f"({body})/{self._den}"
        return body

    def __repr__(self):
        return f"CycloNumber({self})"


def _coerce(x) -> CycloNumber | None:
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNumber.from_rational(x)
    return None


ZERO = CycloNumber(1, {0: 0})
ONE = CycloNumber(1, {0: 1})


def inverses(xs) -> tuple[CycloNumber, ...]:
    """1/x for every x in xs, each kept on its x. The numbers of one order
    not yet inverted share one inverse() of their product and about 3(k-1)
    products (Montgomery's batch inversion); a zero among them raises
    DegenerateScalar as x.inverse() would. Orders are not mixed: a product
    across orders lives in their lcm field, which can be far larger."""
    xs = tuple(xs)
    groups: dict[int, list[CycloNumber]] = {}
    for x in xs:
        if x._inv is None:
            groups.setdefault(x._order, []).append(x)
    for group in groups.values():
        prefix = [group[0]]
        for x in group[1:]:
            prefix.append(prefix[-1] * x)
        inv = prefix[-1].inverse()  # 1 / (x_0 ... x_{k-1})
        for k in range(len(group) - 1, 0, -1):
            group[k]._inv, inv = inv * prefix[k - 1], inv * group[k]
        group[0]._inv = inv
    return tuple(x._inv for x in xs)


def zeta(n: int, k: int = 1) -> CycloNumber:
    """The root of unity zeta_n^k."""
    return CycloNumber(n, {k: 1})


def sin_ratio(k: int, h: int) -> CycloNumber:
    """Exact value of sin(k*pi/h) / sin(pi/h).

    Realized through the geometric-series identity
    sin(k*pi/h)/sin(pi/h) = sum_{j=0}^{k-1} zeta_{2h}^(k-1-2j),
    so the result lives in Q(zeta_{2h}) (a subfield of Q(zeta_{4h})).
    sin_ratio(0, h) = 0, sin_ratio(1, h) = 1, sin_ratio(2, h) = 2cos(pi/h).
    """
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (k, h)):
        raise ValueError("sin_ratio expects integer arguments")
    if h < 2:
        raise ValueError(f"h must be at least 2, got {h}")
    if not 0 <= k <= 2 * h:
        raise ValueError(f"k must lie in [0, 2h], got k={k}, h={h}")
    n = 2 * h
    num: dict[int, int] = {}
    for j in range(k):
        e = (k - 1 - 2 * j) % n
        num[e] = num.get(e, 0) + 1
    return CycloNumber._raw(n, num, 1)


def exact_ints(values, inner: int = 1) -> np.ndarray:
    """Read-only integer array, int64 when inner * top**2 < 2**62 for its
    largest absolute entry top and Python ints otherwise, so that no sum of
    ``inner`` products of entries of two such arrays wraps."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":  # object, or float from huge and negative ints
        arr = np.asarray(values, dtype=object)
        if not all(type(x) is int for x in arr.flat):
            raise ShapeMismatch("matrix entries must be integers")
    out = arr.astype(_int_type(inner, _magnitude(arr)))
    out.setflags(write=False)
    return out


def _first(mask) -> tuple[int, ...] | None:
    """The first True index of a boolean array in row-major order."""
    hits = np.argwhere(mask)
    return tuple(int(v) for v in hits[0]) if len(hits) else None


def _magnitude(arr: np.ndarray) -> int:
    """The largest absolute entry of an integer array (0 when empty)."""
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def _int_type(inner: int, top: int):
    """exact_ints' choice for entries of absolute value at most top."""
    return np.int64 if inner * top * top < 2**62 else object


# _reduced gathers at most this many terms at a time, in chunks of entries,
# so a reduction's peak stays bounded whatever the number of entries
_GATHER_TERMS = 2**16


def _reduced(n: int, exps, layers: np.ndarray):
    """Basis coordinates at order n of sum_k layers[k] * zeta_n^exps[k] for
    distinct exps, as (exponents, layers) with at least one layer: a gather
    of the sources of _tables(n) and one reshape-sum over their runs, in
    chunks of entries of at most _GATHER_TERMS gathered terms."""
    if n == 1:  # the rational field: nothing to rewrite
        return np.zeros(1, dtype=int), layers
    src, coeff, basis, runs = _tables[n][2]
    flat = layers.reshape(len(layers), -1)
    flat = flat.astype(_int_type(runs, _magnitude(flat)), copy=False)
    if not isinstance(exps, range):
        full = np.zeros((n, flat.shape[1]), dtype=flat.dtype)
        full[np.asarray(exps)] = flat
        flat = full
    step = max(1, _GATHER_TERMS // len(src))
    out = np.empty((len(basis), flat.shape[1]), dtype=np.result_type(coeff, flat))
    for k in range(0, flat.shape[1], step):
        terms = coeff * flat[src, k : k + step]
        out[:, k : k + step] = terms.reshape(len(basis), runs, -1).sum(axis=1)
    keep = np.flatnonzero(out.any(axis=1))
    keep = keep if len(keep) else np.zeros(1, dtype=int)
    return basis[keep], out[keep].reshape((len(keep),) + layers.shape[1:])


def _value_key(arr: np.ndarray) -> tuple:
    """An integer array's shape and entries as Python ints, equal for equal
    values whatever the dtype (int64 or object)."""
    return arr.shape, tuple(arr.ravel().tolist())


class FieldTensor:
    """An exact array over Q(zeta_n): entry x is sum_k layers[k][x] *
    zeta_n^exps[k] / den, integer layers in basis coordinates, so equal
    entries have equal layers. Products are cyclic convolutions over the
    exponent axis and one reduction, in int64 where exact_ints allows."""

    __slots__ = ("order", "den", "exps", "layers")

    def __init__(self, order: int, den: int, exps, layers: np.ndarray):
        self.order, self.den, self.exps, self.layers = order, den, np.asarray(exps), layers

    @classmethod
    def of(cls, values) -> "FieldTensor":
        """The tensor of an array of cyclotomic or rational entries."""
        grid = np.asarray(values, dtype=object)
        pool: dict[CycloNumber, int] = {}
        index = []
        for k, x in enumerate(grid.flat):
            y = _coerce(x)
            if y is None:
                raise ShapeMismatch(f"entry {k} is not a cyclotomic or rational number: {x!r}")
            index.append(pool.setdefault(y, len(pool)))
        n, den = _budgeted(lcm(*(x._order for x in pool))), lcm(*(x._den for x in pool))
        lifted = [[0] * len(pool) for _ in range(n)]
        for u, x in enumerate(pool):
            for e, c in x._num.items():
                lifted[e * (n // x._order)][u] = c * (den // x._den)
        exps, coords = _reduced(n, range(n), exact_ints(lifted))
        return cls(n, den, exps, coords[:, index].reshape((len(exps),) + grid.shape))

    @classmethod
    def root_sums(cls, n: int, layers: np.ndarray) -> "FieldTensor":
        """The tensor of entries sum_e layers[e] * zeta_n^e, e < n, for integer
        layers (den 1): reduced at n, then brought down to the least order
        holding every entry, the lcm of their canonical orders, dividing n and
        the exponents by their gcd g while g > 1 (_canonical's descent)."""
        exps, layers = _reduced(n, range(n), layers)
        while (g := gcd(n, *exps.tolist())) > 1:
            n //= g
            exps, layers = _reduced(n, exps // g, layers)
        return cls(n, 1, exps, layers)

    @classmethod
    def decode(cls, shape, groups) -> "FieldTensor":
        """The tensor FieldTensor.of makes of entries given as dense rational
        coefficients, with no CycloNumber made: groups holds (n, at, num,
        den) per declared order n, num[k][e] / den[k][e] (den nonzero) the
        coefficient of zeta_n^e in the entry at flat index at[k]. Each group
        is scaled to one common denominator, reduced at n and brought down
        to its least order; only then are the groups placed at the lcm of
        those orders, refused past the budget before any array of that
        order exists (1 declared at order 181 and -1 at 182 cost nothing),
        and reduced there once. Last, the gcd of the denominator and all
        layers is divided out."""
        D = 1
        for _, _, num, den in groups:
            D = lcm(D, *set(den[num != 0].tolist()))
        parts = []
        for n, at, num, den in groups:
            if max(D, _magnitude(num), _magnitude(den)) >= 2**31:
                num, den = num.astype(object), den.astype(object)
            parts.append((at, cls.root_sums(n, (num * (D // den)).T)))
        order = _budgeted(lcm(*(part.order for _, part in parts)))
        full = np.zeros((order, prod(shape)), np.result_type(*(part.layers for _, part in parts)))
        for at, part in parts:
            full[part.exps[:, None] * (order // part.order), at] = part.layers
        exps, layers = _reduced(order, range(order), full)
        g = gcd(D, int(np.gcd.reduce(layers, axis=None)))
        return cls(order, D // g, exps, (layers // g).reshape((len(exps), *shape)))

    def __eq__(self, other):
        """Equal order, denominator, exponents and layer values, whatever the dtype."""
        if not isinstance(other, FieldTensor):
            return NotImplemented
        return (
            (self.order, self.den) == (other.order, other.den)
            and np.array_equal(self.exps, other.exps)
            and np.array_equal(self.layers, other.layers)
        )

    def __hash__(self):
        return hash((self.order, self.den, _value_key(self.exps), _value_key(self.layers)))

    def __getitem__(self, index) -> "FieldTensor":
        """The tensor of a numpy index into the entries."""
        index = index if isinstance(index, tuple) else (index,)
        layers = self.layers[(slice(None), *index)]
        return FieldTensor(self.order, self.den, self.exps, layers)

    def _ints(self, inner: int) -> np.ndarray:
        """exact_ints(self.layers, inner), a read-only view when the dtype fits."""
        out = self.layers.astype(_int_type(inner, _magnitude(self.layers)), copy=False).view()
        out.setflags(write=False)
        return out

    def _framed(self, order: int, den: int) -> "FieldTensor":
        """The same entries over a multiple of the order and of den (self
        when both are unchanged)."""
        g = den // self.den
        if g == 1 and order == self.order:
            return self
        layers = self.layers if g == 1 else self._ints(g) * g
        if order == self.order:
            return FieldTensor(order, den, self.exps, layers)
        return FieldTensor(order, den, *_reduced(order, self.exps * (order // self.order), layers))

    def convolve(self, other: "FieldTensor", op, inner: int) -> "FieldTensor":
        """Entries sum op(x_e1, y_e2) zeta^(e1+e2) for a bilinear op(layer,
        stack of layers) that sums at most `inner` products per entry. Each
        op result is added in as it is made, so at most one is alive."""
        n = lcm(self.order, other.order)
        a, b = self._framed(n, self.den), other._framed(n, other.den)
        inner *= min(len(a.exps), len(b.exps))
        A, B = a._ints(inner), b._ints(inner)
        acc = None
        for e, x in zip(a.exps, A):
            part = op(x, B)
            if acc is None:
                acc = np.zeros((n,) + part.shape[1:], dtype=part.dtype)
            acc[(e + b.exps) % n] += part
        return FieldTensor(n, a.den * b.den, *_reduced(n, range(n), acc))

    def apply(self, fn, inner: int) -> "FieldTensor":
        """fn(layers) for a linear fn over exact_ints operands, `inner` products per entry."""
        return FieldTensor(self.order, self.den, self.exps, fn(self._ints(inner)))

    def differs(self, other: "FieldTensor") -> np.ndarray:
        """Boolean array of the entries where two tensors (shapes broadcast) differ."""
        n, den = lcm(self.order, other.order), lcm(self.den, other.den)
        a, b = self._framed(n, den), other._framed(n, den)
        shape = np.broadcast_shapes(a.layers.shape[1:], b.layers.shape[1:])
        dense = np.zeros((2, n) + shape, dtype=np.result_type(a.layers, b.layers))
        dense[0][a.exps], dense[1][b.exps] = a.layers, b.layers
        return (dense[0] != dense[1]).any(axis=0)

    def scalar(self, index) -> CycloNumber:
        """One entry as a CycloNumber."""
        column = self.layers[(slice(None), *index)]
        num = {int(e): int(c) for e, c in zip(self.exps, column) if c}
        return CycloNumber._raw(self.order, num, self.den)

    def scalars(self):
        """Every entry as a CycloNumber, in tuples nested like the entries
        (the number itself for a single entry), with no _canonical call. The
        layers are basis coordinates, so an entry is canonical, once the gcd
        of its layers and den is divided out, when the gcd g of its support
        and the order is 1 or the order itself (a rational). The others are
        reduced at order/g, one _reduced per g, and read back the same way."""
        n, den, exps, shape = self.order, self.den, self.exps, self.layers.shape[1:]
        L = self.layers.reshape(len(exps), -1)
        if den >= 2**62:  # numpy's gcd of int64 layers with den would overflow
            L = L.astype(object)
        g = np.gcd.reduce(np.where(L != 0, exps[:, None], n), axis=0, initial=n)
        h = np.gcd.reduce(L, axis=0, initial=den)
        exps_l, orders, dens = exps.tolist(), (n // g).tolist(), (den // h).tolist()
        out = [
            None if m not in (1, n)  # descends: read back below
            else CycloNumber._made(m, num, d) if (num := {e: c for e, c in zip(exps_l, col) if c})
            else ZERO
            for col, m, d in zip((L // h).T.tolist(), orders, dens)
        ]
        for f in set(g.tolist()) - {1, n}:
            at, rows = np.flatnonzero(g == f), exps % f == 0
            sub = FieldTensor(n // f, den, *_reduced(n // f, exps[rows] // f, L[rows][:, at]))
            for k, x in zip(at.tolist(), sub.scalars()):
                out[k] = x
        for size in reversed(shape[1:]):
            out = [tuple(out[k : k + size]) for k in range(0, len(out), size)]
        return tuple(out) if shape else out[0]


def embed_complex(x: CycloNumber, digits: int) -> "mpmath.mpc":
    """Floating-point embedding sum_e c_e * exp(2*pi*i*e/n).

    Deterministic; computed with 10 guard digits so the error is far below
    the promised 10^(-digits+2) bound.
    """
    import mpmath

    if not isinstance(digits, int) or digits < 1:
        raise ValueError(f"digits must be a positive integer, got {digits!r}")
    with mpmath.workdps(digits + 10):
        total = mpmath.mpc(0)
        for e, c in x._num.items():
            total += c * mpmath.expjpi(mpmath.mpf(2 * e) / x._order)
        return total / x._den


class RationalPhase:
    """An exact rational number modulo 1; the storage type for T-phases."""

    __slots__ = ("_value",)

    def __init__(self, value):
        if isinstance(value, RationalPhase):
            self._value = value._value
        else:
            self._value = Fraction(value) % 1

    @property
    def value(self) -> Fraction:
        return self._value

    def __eq__(self, other):
        if isinstance(other, RationalPhase):
            return self._value == other._value
        if isinstance(other, (int, Fraction)):
            return self._value == Fraction(other) % 1
        return NotImplemented

    def __hash__(self):
        return hash(("RationalPhase", self._value))

    def __add__(self, other):
        if not isinstance(other, (RationalPhase, int, Fraction)):
            return NotImplemented
        o = other._value if isinstance(other, RationalPhase) else Fraction(other)
        return RationalPhase(self._value + o)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (RationalPhase, int, Fraction)):
            return NotImplemented
        o = other._value if isinstance(other, RationalPhase) else Fraction(other)
        return RationalPhase(self._value - o)

    def __neg__(self):
        return RationalPhase(-self._value)

    def __str__(self):
        return str(self._value)

    def __repr__(self):
        return f"RationalPhase({self._value})"
