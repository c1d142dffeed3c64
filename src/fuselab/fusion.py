"""Fusion rings: basis labels, duality, structure constants, and the
regular representation, whose homomorphism identity is associativity.

Index 0 is always the unit. The tensor is stored dense, N[a][b][c] being the
multiplicity of label c inside a*b; at this scale (rank <= ~64) density is
simpler than sparsity. Made with the ring, ring.tensor holds N as one
read-only exact integer array (exact_ints(N, rank): int64 unless a sum of
rank products could wrap, Python ints then), so the axioms, products and
the regular matrices read it and convert nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .cyclo import ZERO, CycloNumber, FieldTensor, _coerce, _first, _magnitude, exact_ints
from .errors import ShapeMismatch
from .verdict import Check, Verdict, failed, passed


@dataclass(frozen=True)
class FusionRing:
    labels: tuple[str, ...]
    dual: tuple[int, ...]
    N: tuple[tuple[tuple[int, ...], ...], ...]
    # N as one read-only exact integer array, made with the ring; not part of its value
    tensor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = len(self.labels)
        if r == 0:
            raise ShapeMismatch("a fusion ring needs at least the unit label at index 0")
        if len(self.dual) != r:
            raise ShapeMismatch(f"dual has length {len(self.dual)}, expected {r}")
        if any(type(x) is not int for x in self.dual) or sorted(self.dual) != list(range(r)):
            raise ShapeMismatch("dual is not a permutation of the label indices")
        if len(self.N) != r:
            raise ShapeMismatch(f"N has {len(self.N)} planes, expected {r}")
        for a, plane in enumerate(self.N):
            if len(plane) != r:
                raise ShapeMismatch(f"N[{a}] has {len(plane)} rows, expected {r}")
            for b, row in enumerate(plane):
                if len(row) != r:
                    raise ShapeMismatch(f"N[{a}][{b}] has length {len(row)}, expected {r}")
                for c, v in enumerate(row):
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ShapeMismatch(f"N[{a}][{b}][{c}] = {v!r} is not an integer")
        object.__setattr__(self, "tensor", exact_ints(self.N, r))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the ring's value (labels, dual, N), taken on first use and held."""
        return hash((self.labels, self.dual, self.N))

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def _generation(self):
        """How x_1 generates the ring, made once and held on it: the labels in
        generation order; steps (c, b, minus), each from the first product x_1 x_b
        with one new label c, N_1b^c = 1: x_c = x_1 x_b - sum of n x_x over minus;
        the products (b, terms) that reached none, terms the nonzero (c, N_1b^c);
        the largest sum_c N_1b^c. A label never reached raises ShapeMismatch."""
        if self.rank == 1:
            return (0,), (), (), 1
        terms = [tuple((c, n) for c, n in enumerate(row) if n) for row in self.N[1]]
        order, steps, waiting = [0, 1], [], [1]  # x_1 x_0 = x_1 needs no check
        while True:
            for b in waiting:
                new = [(c, n) for c, n in terms[b] if c not in order]
                if len(new) == 1 and new[0][1] == 1:
                    break
            else:
                break
            c = new[0][0]
            waiting.remove(b)
            waiting.append(c)
            order.append(c)
            steps.append((c, b, tuple(t for t in terms[b] if t[0] != c)))
        if missing := sorted(set(range(self.rank)) - set(order)):
            raise ShapeMismatch(f"label {missing[0]} is not generated by label 1")
        checks = tuple((b, terms[b]) for b in waiting)
        return tuple(order), tuple(steps), checks, max(sum(n for _, n in row) for row in terms)

    def basis_element(self, a: int) -> "FusionElement":
        coeffs = [ZERO] * self.rank
        coeffs[a] = CycloNumber.from_rational(1)
        return FusionElement(tuple(coeffs))

    @property
    def unit(self) -> "FusionElement":
        return self.basis_element(0)


@dataclass(frozen=True)
class FusionElement:
    """A general element of the fusion algebra: one CycloNumber per label."""

    coeffs: tuple[CycloNumber, ...]

    def __add__(self, other: "FusionElement") -> "FusionElement":
        if len(self.coeffs) != len(other.coeffs):
            raise ShapeMismatch("element ranks differ")
        return FusionElement(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FusionElement") -> "FusionElement":
        if len(self.coeffs) != len(other.coeffs):
            raise ShapeMismatch("element ranks differ")
        return FusionElement(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def scale(self, factor) -> "FusionElement":
        f = _coerce(factor)
        if f is None:
            raise TypeError(f"cannot scale by {factor!r}")
        return FusionElement(tuple(f * x for x in self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for x in self.coeffs)


def verify_axioms(ring: FusionRing) -> Verdict:
    """Check unit law, duality, associativity, commutativity.

    Stops at the first violated identity and names its first witness index
    tuple in row-major order; the entrywise laws are searches on ring.tensor.
    """
    r = ring.rank
    N, T, dual = ring.N, ring.tensor, ring.dual
    checks: list[Check] = []

    if (bad := _first(T < 0)) is not None:
        a, b, c = bad
        return Verdict((*checks, failed("non-negativity", f"N[{a}][{b}][{c}] = {N[a][b][c]}")))
    checks.append(passed("non-negativity"))

    eye = np.eye(r, dtype=bool)
    if (bad := _first((T[0] != eye) | (T[:, 0] != eye))) is not None:
        return Verdict((*checks, failed("unit", "(b,c)=({},{})".format(*bad))))
    checks.append(passed("unit"))

    if dual[0] != 0:
        return Verdict((*checks, failed("duality", "dual(0) != 0")))
    for a in range(r):
        if dual[dual[a]] != a:
            return Verdict((*checks, failed("duality", f"dual(dual({a})) = {dual[dual[a]]}")))
        for b in range(r):
            want = 1 if b == dual[a] else 0
            if N[a][b][0] != want:
                witness = f"N[{a}][{b}][0] = {N[a][b][0]}, expected {want}"
                return Verdict((*checks, failed("duality", witness)))
    checks.append(passed("duality"))

    if bad := homomorphism_failure(ring, regular_matrices(ring)):
        a, b, got, want = bad
        c, d = np.argwhere((got != want).T)[0]  # got[d, c] is x_d in a(bc), want[d, c] in (ab)c
        return Verdict((*checks, failed("associativity", f"(a,b,c,d)=({a},{b},{c},{d})")))
    checks.append(passed("associativity"))

    upper = np.triu(~eye)[:, :, None]  # a < b
    if (bad := _first(upper & (T != T.transpose(1, 0, 2)))) is not None:
        return Verdict((*checks, failed("commutativity", "(a,b,c)=({},{},{})".format(*bad))))
    checks.append(passed("commutativity"))

    return Verdict(tuple(checks))


@lru_cache(maxsize=None, typed=True)
def su2_fusion_ring(level: int) -> FusionRing:
    """Truncated Clebsch-Gordan rules at height h = level + 2.

    N_{ab}^c = 1 iff |a-b| <= c <= min(a+b, 2*level-a-b) and c = a+b mod 2.
    Built once per level and shared by every caller. The cache is typed, so
    1.0 never reaches the entry of level 1: a bad level always raises.
    """
    if not isinstance(level, int) or isinstance(level, bool) or level < 0:
        raise ValueError(f"level must be a non-negative integer, got {level!r}")
    r = level + 1
    N = tuple(
        tuple(
            tuple(
                1
                if abs(a - b) <= c <= min(a + b, 2 * level - a - b) and (a + b + c) % 2 == 0
                else 0
                for c in range(r)
            )
            for b in range(r)
        )
        for a in range(r)
    )
    labels = tuple(f"x{a}" for a in range(r))
    return FusionRing(labels=labels, dual=tuple(range(r)), N=N)


def multiply(ring: FusionRing, x: FusionElement, y: FusionElement) -> FusionElement:
    """Bilinear extension of the structure constants: sum_ab x_a y_b N_ab^c
    as one convolution of the coefficient tensors, r^2 products per entry,
    each at most max N_ab^c in size. Coefficients may be cyclotomic, int or
    Fraction; any other entry is a ShapeMismatch."""
    r = ring.rank
    if len(x.coeffs) != r or len(y.coeffs) != r:
        raise ShapeMismatch("element rank does not match the ring")
    N = ring.tensor.reshape(r, r * r)
    inner = r * r * max(1, _magnitude(N))
    X, Y = FieldTensor.of(x.coeffs), FieldTensor.of(y.coeffs)
    product = X.convolve(Y, lambda u, V: V @ (u @ N).reshape(r, r), inner)
    return FusionElement(product.scalars())


def homomorphism_failure(ring: FusionRing, M: np.ndarray):
    """First (a, b) in row-major order with M(a) M(b) != sum_c N_ab^c M(c), as
    (a, b, left, right), or None. M is an exact_ints stack taken with inner
    at least max(size, rank), the most products an entry sums."""
    flat = M.reshape(len(M), -1)
    for a, T in enumerate(ring.tensor):
        got, want = M[a] @ M, (T @ flat).reshape(M.shape)
        bad = np.flatnonzero((got != want).any(axis=(1, 2)))
        if len(bad):
            return a, bad[0], got[bad[0]], want[bad[0]]
    return None


def regular_matrices(ring: FusionRing) -> np.ndarray:
    """Matrices of the regular action, (N_a)_{cb} = N_{ab}^c, as one
    read-only (rank, rank, rank) view of ring.tensor; they satisfy
    N_a N_b = sum_c N_{ab}^c N_c whenever the ring axioms hold.
    """
    return ring.tensor.transpose(0, 2, 1)
