"""NIM-reps over fusion rings: boundary graphs, the su(2) construction via
the Chebyshev recurrence, characters, projector-trace multiplicity profiles,
and the exact Perron-Frobenius eigenvector.

A NimRep holds its matrices as one read-only exact (rank, size, size) stack
with inner = max(rank, size), the most products any sum over it takes, so
the homomorphism, d-eigenvector and phi checks convert nothing.

The su(2) construction checks itself by the truncation identity: the
level-k ring is Z[x]/(U_{k+1}(x)) with x_a = U_a(x), so the Chebyshev
matrices of a symmetric non-negative adjacency matrix A form a NIM-rep
exactly when U_{k+1}(A) = 0, one integer product. The recurrence fills one
stack typed once: it refuses a negative entry, so N(x_a) <= A N(x_{a-1}),
no row of N(x_a) sums past s ** a (s the largest row sum of A), and the
stack is int64 when s ** (k + 1), a bound on every entry and partial sum
of A N(x_k), is below 2**63. One scan of the finished stack finds the
first negative entry: the steps before it are non-negative, so they and
it are exact, and the steps after it, which may wrap, are discarded. Each
(graph, level) module is built once and kept, up to 128 int64 stacks of
at most 2**16 entries (64 MiB); larger ones are rebuilt on every call.
verify_nimrep checks modules given as matrices.

Profiles are exact: m[I] is the trace of the spectral projector for
lambda_I pushed through the representation, which by linearity of the trace
is sum_S coeff_S(e_{lambda_I}) * chi[S] with integer characters chi. The
coefficients E[I][S] = e_{lambda_I}(S) are one tensor per datum, row I of S
with its columns permuted by the duality, times 1 / (d(I) <lambda_I,
lambda_I>) (modular._idempotents), so a profile is one integer contraction
of E with chi and reads no coefficient back as a CycloNumber; the lambda_0
projector column of d_eigenvector is one contraction of md.tensor[0] with
the module matrices. The float eigen-decomposition never feeds a result
here; it lives in the test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclo import CycloNumber, _first, _int_type, exact_ints
from .errors import (
    DegenerateScalar,
    MultiplicityNotOne,
    NonIntegralMultiplicity,
    NotANimRep,
    ShapeMismatch,
)
from .fusion import FusionRing, homomorphism_failure, regular_matrices, su2_fusion_ring
from .modular import ModularData, _idempotents
from .verdict import Check, Verdict, failed, passed

_ADE_FAMILIES = ("A", "D", "E")
# su2_nimrep_from_graph keeps at most _KEPT_MODULES modules, each an int64
# stack of at most _KEPT_ENTRIES entries: 128 * 2**16 * 8 bytes = 64 MiB
_KEPT_MODULES = 128
_KEPT_ENTRIES = 2**16


@dataclass(frozen=True)
class BoundaryGraph:
    vertices: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    family: str = "custom"

    def __post_init__(self):
        n = len(self.vertices)
        if not n:
            raise ShapeMismatch("a boundary graph needs at least one vertex")
        if len(self.adjacency) != n or any(len(row) != n for row in self.adjacency):
            raise ShapeMismatch("adjacency must be square over the vertex list")
        for i in range(n):
            for j in range(n):
                x = self.adjacency[i][j]
                if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                    raise ShapeMismatch(f"adjacency[{i}][{j}] must be a non-negative integer")
                if self.adjacency[i][j] != self.adjacency[j][i]:
                    raise ShapeMismatch(f"adjacency must be symmetric, differs at ({i},{j})")
        if self.family != "custom":
            if self.adjacency != _ade_adjacency(self.family):
                raise ShapeMismatch(
                    f"adjacency does not match the {self.family} Dynkin graph"
                )

    @classmethod
    def _trusted(cls, vertices, adjacency, family: str = "custom") -> "BoundaryGraph":
        """A graph whose adjacency is square, symmetric, non-negative and
        (for a family) the Dynkin graph by construction: the library's own
        graphs skip the entry-by-entry check of __post_init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "family", family)
        return self

    @property
    def size(self) -> int:
        return len(self.vertices)


def _ade_edges(tag: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and 1-based edge list for a family tag like 'D:7'."""
    head, sep, tail = tag.partition(":")
    if not sep or head not in _ADE_FAMILIES:
        raise ShapeMismatch(f"unknown graph family tag {tag!r}")
    try:
        n = int(tail)
    except ValueError:
        raise ShapeMismatch(f"graph tag {tag!r} has a non-integer rank") from None
    if head == "A":
        if n < 1:
            raise ShapeMismatch("A_n needs n >= 1")
        return n, [(i, i + 1) for i in range(1, n)]
    if head == "D":
        if n < 4:
            raise ShapeMismatch("D_n needs n >= 4")
        edges = [(i, i + 1) for i in range(1, n - 2)]
        return n, edges + [(n - 2, n - 1), (n - 2, n)]
    if n not in (6, 7, 8):
        raise ShapeMismatch("E_n exists only for n in {6, 7, 8}")
    return n, [(1, 3)] + [(i, i + 1) for i in range(3, n)] + [(2, 4)]


def _ade_adjacency(tag: str) -> tuple[tuple[int, ...], ...]:
    n, edges = _ade_edges(tag)
    adj = [[0] * n for _ in range(n)]
    for i, j in edges:
        adj[i - 1][j - 1] = 1
        adj[j - 1][i - 1] = 1
    return tuple(tuple(row) for row in adj)


def ade_graph(tag: str) -> BoundaryGraph:
    """Resolve a family tag like 'A:11', 'D:7', 'E:6' (Bourbaki numbering:
    A_n and the D_n tail are paths from vertex 1; D_n forks at n-2; E_n
    branches at vertex 4 with the short leg 2-4)."""
    adjacency = _ade_adjacency(tag)
    vertices = tuple(str(i) for i in range(1, len(adjacency) + 1))
    return BoundaryGraph._trusted(vertices, adjacency, tag)


def a_graph(n: int) -> BoundaryGraph:
    """Path graph A_n, vertices 1..n in order."""
    return ade_graph(f"A:{n}")


def d_graph(n: int) -> BoundaryGraph:
    """D_n: path 1..n-2 with both n-1 and n attached to n-2."""
    return ade_graph(f"D:{n}")


def e_graph(n: int) -> BoundaryGraph:
    """E_6/E_7/E_8: branch vertex 4, short leg 2-4."""
    return ade_graph(f"E:{n}")


def disjoint_union(*graphs: BoundaryGraph) -> BoundaryGraph:
    """Block-diagonal union; vertices prefixed by component index."""
    if not graphs:
        raise ShapeMismatch("union of zero graphs")
    vertices = tuple(f"{k}:{v}" for k, g in enumerate(graphs) for v in g.vertices)
    rows: list[tuple[int, ...]] = []
    for g in graphs:
        before = len(rows)
        after = len(vertices) - before - g.size
        rows += [(0,) * before + row + (0,) * after for row in g.adjacency]
    return BoundaryGraph._trusted(vertices, tuple(rows))


def _module_stack(ring: FusionRing, mats) -> np.ndarray:
    """One matrix per label, given from outside, as a read-only exact
    (rank, size, size) stack with inner = max(rank, size). A bool entry is
    refused: numpy would read it beside ints as 0 or 1."""
    r = ring.rank
    if len(mats) != r:
        raise ShapeMismatch(f"expected {r} matrices, got {len(mats)}")
    loose = [m for m in mats if getattr(m, "dtype", np.dtype(object)).kind not in "iu"]
    if any(isinstance(x, (bool, np.bool_)) for m in loose for x in np.asarray(m, dtype=object).flat):
        raise ShapeMismatch("matrix entries must be integers, not bool")
    try:  # numpy refuses rows or matrices of unequal lengths
        shape = np.shape(mats)
    except ValueError:
        shape = ()
    if len(shape) != 3 or shape[1] != shape[2]:
        raise ShapeMismatch("matrices must be square and share one size")
    return exact_ints(mats, max(r, shape[1]))


@dataclass(frozen=True, eq=False)
class NimRep:
    """Integer matrices N(a) with N(a)_{ji} = multiplicity of j in a acting
    on i, kept as one read-only exact (rank, size, size) stack."""

    ring: FusionRing
    boundaryLabels: tuple[str, ...]
    mats: np.ndarray

    def __post_init__(self):
        mats = _module_stack(self.ring, self.mats)
        if mats.shape[1] != len(self.boundaryLabels):
            raise ShapeMismatch(
                f"{len(self.boundaryLabels)} boundary labels for matrices of size {mats.shape[1]}"
            )
        object.__setattr__(self, "mats", mats)

    @property
    def size(self) -> int:
        return len(self.boundaryLabels)


def verify_nimrep(ring: FusionRing, mats) -> Verdict:
    """Exact NIM-rep axioms: non-negative integer entries, N(0) = identity,
    duality N(dual(a)) = N(a) transposed, and the homomorphism identity
    against the ring's N-tensor. Stops at the first failed axiom, naming
    its first witness in row-major order."""
    M = _module_stack(ring, mats)
    checks: list[Check] = []
    if (bad := _first(M < 0)) is not None:
        a, j, i = bad
        return Verdict((*checks, failed("non-negativity", f"N({a})[{j},{i}] = {M[bad]}")))
    checks.append(passed("non-negativity"))

    if not np.array_equal(M[0], np.eye(M.shape[1], dtype=np.int64)):
        return Verdict((*checks, failed("unit", "N(0) is not the identity")))
    checks.append(passed("unit"))

    if (bad := _first((M[list(ring.dual)] != M.transpose(0, 2, 1)).any(axis=(1, 2)))) is not None:
        return Verdict(
            (*checks, failed("duality", "N(dual({0})) != transpose of N({0})".format(*bad)))
        )
    checks.append(passed("duality"))

    if bad := homomorphism_failure(ring, M):
        a, b, got, want = bad
        j, i = next(zip(*np.nonzero(got != want)))
        witness = f"(N({a})N({b}))[{j},{i}] = {got[j, i]} != {want[j, i]}"
        return Verdict((*checks, failed("homomorphism", witness)))
    checks.append(passed("homomorphism"))
    return Verdict(tuple(checks))


def su2_nimrep_from_graph(g: BoundaryGraph, level: int) -> NimRep:
    """N(x_0) = I, N(x_1) = adjacency, then the two-term recurrence
    N(x_{i+1}) = N(x_1) N(x_i) - N(x_{i-1}). A graph whose Coxeter number
    does not match level + 2 fails the recurrence or the homomorphism.

    Built once per (graph, level): a module whose stack has at most
    _KEPT_ENTRIES entries and is int64 by exact_ints' rule for the bound
    max(s, 1) ** level on its entries (s the largest row sum of A) is kept
    in a cache of _KEPT_MODULES modules, so it holds at most 64 MiB of
    stacks; a larger one is built the same way on every call. A failing
    graph raises and is never kept. The cache is typed, so a bool level
    raises as in su2_fusion_ring. The module is frozen with a read-only
    stack, so every caller can share it.
    """
    if level < 0:
        raise ShapeMismatch("level must be non-negative")
    key = (g.vertices, g.adjacency, level)
    if (level + 1) * g.size**2 <= _KEPT_ENTRIES:
        top = max(1, *map(sum, g.adjacency)) ** level
        if _int_type(max(level + 1, g.size), top) is np.int64:
            return _kept_su2_module(*key)
    return _su2_module(*key)


def _su2_module(vertices: tuple[str, ...], adjacency, level: int) -> NimRep:
    """The su(2) module of su2_nimrep_from_graph, built without a cache.

    The level-k ring is Z[x]/(U_{k+1}(x)), so x -> A is a ring homomorphism
    sending x_a to N(x_a) = U_a(A) exactly when U_{k+1}(A) = 0, that is
    A N(x_k) = N(x_{k-1}); that one product is the homomorphism check, and
    its first differing entry is the witness verify_nimrep would give, whose
    first failing pair is always (1, k). The other axioms hold by
    construction: unit, as N(x_0) = I; duality, as su(2) is self-dual and
    polynomials in the symmetric A are symmetric; non-negativity, as
    BoundaryGraph makes A >= 0 and the recurrence rejects a negative entry.

    Non-negativity is checked once, over the finished stack. Every step
    before the first negative one is non-negative, so it and the negative
    step are inside the int64 bound and exact, and the row-major first
    negative entry is the witness a step-by-step check would give; the
    steps after it may wrap, but they are discarded.
    """
    ring = su2_fusion_ring(level)
    size = len(vertices)
    s = max(map(sum, adjacency))
    mats = np.empty((level + 1, size, size), np.int64 if s ** (level + 1) < 2**63 else object)
    mats[:2] = (np.identity(size, dtype=np.int64), adjacency)[: level + 1]
    for i in range(1, level):
        mats[i + 1] = mats[1] @ mats[i] - mats[i - 1]
    if (bad := _first(mats < 0)) is not None:
        a, j, k = bad
        raise NotANimRep(f"recurrence for N(x_{a}) gives entry {mats[bad]} at ({j},{k})")
    if level:
        got, want = mats[1] @ mats[level], mats[level - 1]
        if (bad := _first(got != want)) is not None:
            witness = "(N(1)N({}))[{},{}] = {} != {}".format(level, *bad, got[bad], want[bad])
            raise NotANimRep(f"homomorphism: {witness}")
    return NimRep(ring=ring, boundaryLabels=vertices, mats=mats)


_kept_su2_module = lru_cache(maxsize=_KEPT_MODULES, typed=True)(_su2_module)


def regular_nimrep(ring: FusionRing) -> NimRep:
    """The ring acting on itself; boundary labels are the ring labels."""
    return NimRep(ring=ring, boundaryLabels=ring.labels, mats=regular_matrices(ring))


def character(nr: NimRep) -> tuple[int, ...]:
    """chi[a] = trace N(a); chi[0] = number of boundary labels."""
    return tuple(int(x) for x in nr.mats.trace(axis1=1, axis2=2))


def multiplicity_profile(nr: NimRep, md: ModularData) -> tuple[int, ...]:
    """m[I] = trace of the lambda_I spectral projector inside the rep,
    sum_S e_{lambda_I}(S) * chi[S]: one integer contraction of the per-datum
    tensor E of the idempotent family with chi, read off its layers label by
    label. A zero quantum dimension is named before a zero norm."""
    return _profile(md, character(nr), nr.size)


def _profile(md: ModularData, chi: tuple[int, ...], size: int) -> tuple[int, ...]:
    """multiplicity_profile of a module with character chi and size boundary labels."""
    if md.ring.rank != len(chi):
        raise ShapeMismatch("modular data rank differs from the ring rank")
    v = exact_ints(chi, md.rank)
    m = _idempotents(md).apply(lambda L: L @ v, md.rank)
    irrational = m.layers[m.exps != 0].any(axis=0)
    rational = m.layers[m.exps == 0].sum(axis=0)
    out: list[int] = []
    for I in range(md.rank):
        if irrational[I]:
            raise NonIntegralMultiplicity(f"projector trace for label {I} is irrational")
        num = int(rational[I])
        if num < 0 or num % m.den:
            raise NonIntegralMultiplicity(
                f"projector trace for label {I} is {Fraction(num, m.den)}, "
                "not a non-negative integer"
            )
        out.append(num // m.den)
    if sum(out) != size:
        raise NonIntegralMultiplicity(
            f"profile sums to {sum(out)}, expected {size} boundary labels"
        )
    return tuple(out)


def _d_image(mats, d, x):
    """N(a) x for every label a, and the first (a, j) where it is not d(a) x_j, or None."""
    image = x.apply(lambda L: (mats @ L.T).transpose(2, 0, 1), mats.shape[1])
    return image, _first(image.differs(d.convolve(x, lambda u, Y: u[:, None] * Y[:, None], 1)))


def d_eigenvector(nr: NimRep, md: ModularData) -> tuple[CycloNumber, ...]:
    """The vector with N(a) v = d(a) v, normalized to v[0] = 1.

    Exists uniquely (up to scale) when the unit character has multiplicity
    one: the first nonzero column x of the lambda_0 projector pushed through
    the rep, c * sum_S d(dual(S)) N(S) for a nonzero c that the normalization
    cancels, so one integer contraction of md.tensor[0] with the matrices.
    N(a) x = d(a) x is checked before x is normalized.
    """
    m = multiplicity_profile(nr, md)
    if m[0] != 1:
        raise MultiplicityNotOne(f"unit character has multiplicity {m[0]}")
    d, size, r, mats = md.tensor[0], nr.size, md.rank, nr.mats
    columns = d[list(md.ring.dual)].apply(  # columns[i][j] = sum_S d(dual(S)) N(S)[j, i]
        lambda L: (L @ mats.reshape(r, -1)).reshape(-1, size, size).transpose(0, 2, 1), r
    )
    nonzero = np.flatnonzero(columns.layers.any(axis=(0, 2)))
    if not len(nonzero) or not columns.layers[:, nonzero[0], 0].any():
        raise DegenerateScalar("projector image has no usable column")
    x = columns[nonzero[0]]
    if (bad := _d_image(mats, d, x)[1]) is not None:
        a, j = bad
        raise AssertionError(f"projector column is not a d-eigenvector at (a, j) = ({a},{j})")
    values = x.scalars()
    scale = values[0].inverse()
    return tuple(v * scale for v in values)
