"""NIM-reps over fusion rings: boundary graphs, modules generated from a
graph's adjacency matrix, characters, projector-trace multiplicity
profiles, and the exact Perron-Frobenius eigenvector.

A NimRep holds its matrices as one read-only exact (rank, size, size) stack
with inner = max(rank, size), the most products any sum over it takes, so
the homomorphism, d-eigenvector and phi checks convert nothing; the library's
own modules (NimRep._trusted) are not checked again.

nimrep_from_graph builds the module of a fusion ring generated by label 1
from N(x_1) = a graph's adjacency, through the ring's structure constants
(over su2_fusion_ring(level), the Chebyshev recurrence), a union's as the
direct sum of its parts' (_direct_sum). Modules, ade_graph's graphs and
disjoint_union's are kept by cyclo._Kept. verify_nimrep checks modules given
as matrices.

A module holds what is derived from it, in nr._derived, outside its value
and freed with it (modular._held): its character once, as a tuple and an
integer array, its multiplicity profile, TM dimension report and
d-eigenvector each for the last datum object they were asked of, and its
phi verdict (gauge.verify_phi_isomorphism) for the last (lambda, datum)
objects, one slot per function, so a module pins at most one argument set
per function. A repeated (module, datum) pair, as from the kept modules and
catalog data, recomputes nothing; every check runs on a value's first
computation, and a call that raises holds nothing.

Profiles are exact: m[I] is the trace of the spectral projector for
lambda_I pushed through the representation, which by linearity of the trace
is sum_S e_{lambda_I}(S) * chi[S] with integer characters chi, computed with
no field inverse and no coefficient read back as a CycloNumber (_profile);
the lambda_0 projector column of d_eigenvector is one contraction of
md.tensor[0] with the module matrices. The float eigen-decomposition never feeds a result
here; it lives in the test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import inf

import numpy as np

from .cyclo import CycloNumber, _first, _int_type, _kept_entries, _magnitude, exact_ints
from .errors import (
    DegenerateScalar,
    MultiplicityNotOne,
    NonIntegralMultiplicity,
    NotANimRep,
    ShapeMismatch,
)
from .fusion import FusionRing, homomorphism_failure, regular_matrices, su2_fusion_ring
from .modular import ModularData, _decimal, _held, _pairing, _require_dimensions
from .verdict import until_failure

_ADE_FAMILIES = ("A", "D", "E")
# the largest n a graph tag may name, as its adjacency has n * n entries
# (the largest catalog graph is A:29)
_MAX_TAG_RANK = 1024


@dataclass(frozen=True)
class BoundaryGraph:
    vertices: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    family: str = "custom"
    _parts = ()  # the graphs a disjoint_union was made of, not part of its value

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "adjacency", tuple(map(tuple, self.adjacency)))
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
    def _trusted(cls, vertices, adjacency, family: str = "custom", parts=()) -> "BoundaryGraph":
        """A graph whose adjacency is square, symmetric, non-negative and
        (for a family) the Dynkin graph by construction: the library's own
        graphs skip the entry-by-entry check of __post_init__."""
        self = object.__new__(cls)
        self.__dict__.update(vertices=vertices, adjacency=adjacency, family=family, _parts=parts)
        return self

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:  # the hash of the graph's value, taken on first use and held
        return hash((self.vertices, self.adjacency, self.family))

    @property
    def size(self) -> int:
        return len(self.vertices)


def _ade_rank(tag: str) -> tuple[str, int]:
    """The family and vertex count that a tag like 'D:7' names, checked."""
    head, sep, tail = tag.partition(":")
    if not sep or head not in _ADE_FAMILIES:
        raise ShapeMismatch(f"unknown graph family tag {tag!r}")
    if (n := _decimal(tail)) is None:
        raise ShapeMismatch(f"graph tag {tag!r} does not write its rank in plain decimal")
    if n > _MAX_TAG_RANK:
        raise ShapeMismatch(f"graph tag {tag!r} names more than {_MAX_TAG_RANK} vertices")
    if head == "A" and n < 1:
        raise ShapeMismatch("A_n needs n >= 1")
    if head == "D" and n < 4:
        raise ShapeMismatch("D_n needs n >= 4")
    if head == "E" and n not in (6, 7, 8):
        raise ShapeMismatch("E_n exists only for n in {6, 7, 8}")
    return head, n


def _ade_edges(tag: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and 1-based edge list for a family tag like 'D:7'."""
    head, n = _ade_rank(tag)
    if head == "A":
        return n, [(i, i + 1) for i in range(1, n)]
    if head == "D":
        edges = [(i, i + 1) for i in range(1, n - 2)]
        return n, edges + [(n - 2, n - 1), (n - 2, n)]
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
    branches at vertex 4 with the short leg 2-4). Kept per tag (cyclo._Kept)."""
    return _graphs[tag]


@_kept_entries(lambda g: g.size**2)
def _graphs(tag: str) -> BoundaryGraph:
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
    """Block-diagonal union; vertices prefixed by component index. It records
    its parts in _parts, and is kept per tuple of parts (cyclo._Kept)."""
    if not graphs:
        raise ShapeMismatch("union of zero graphs")
    return _unions[graphs]


@_kept_entries(lambda g: g.size**2)
def _unions(graphs: tuple[BoundaryGraph, ...]) -> BoundaryGraph:
    vertices = tuple(f"{k}:{v}" for k, g in enumerate(graphs) for v in g.vertices)
    rows: list[tuple[int, ...]] = []
    for g in graphs:
        before = len(rows)
        after = len(vertices) - before - g.size
        rows += [(0,) * before + row + (0,) * after for row in g.adjacency]
    return BoundaryGraph._trusted(vertices, tuple(rows), parts=graphs)


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
    # the results of _held functions on this module, not part of its value
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = _module_stack(self.ring, self.mats)
        if mats.shape[1] != len(self.boundaryLabels):
            raise ShapeMismatch(
                f"{len(self.boundaryLabels)} boundary labels for matrices of size {mats.shape[1]}"
            )
        object.__setattr__(self, "mats", mats)

    @classmethod
    def _trusted(cls, ring: FusionRing, boundaryLabels, mats: np.ndarray) -> "NimRep":
        """A module whose (rank, size, size) integer stack the library built:
        it skips _module_stack and is made read-only in exact_ints' dtype."""
        inner = max(ring.rank, mats.shape[1])
        mats = mats.astype(_int_type(inner, _magnitude(mats)), copy=False)
        mats.setflags(write=False)
        self = object.__new__(cls)
        self.__dict__.update(ring=ring, boundaryLabels=boundaryLabels, mats=mats, _derived={})
        return self

    @property
    def size(self) -> int:
        return len(self.boundaryLabels)


@until_failure
def verify_nimrep(ring: FusionRing, mats):
    """Exact NIM-rep axioms: non-negative integer entries, N(0) = identity,
    duality N(dual(a)) = N(a) transposed, and the homomorphism identity
    against the ring's N-tensor. Stops at the first failed axiom, naming
    its first witness in row-major order."""
    M = _module_stack(ring, mats)
    bad = _first(M < 0)
    yield "non-negativity", None if bad is None else "N({})[{},{}] = {}".format(*bad, M[bad])
    identity = np.array_equal(M[0], np.eye(M.shape[1], dtype=np.int64))
    yield "unit", None if identity else "N(0) is not the identity"
    yield "duality", _duality_failure(ring, M)
    if bad := homomorphism_failure(ring, M):
        a, b, got, want = bad
        j, i = next(zip(*np.nonzero(got != want)))
        bad = f"(N({a})N({b}))[{j},{i}] = {got[j, i]} != {want[j, i]}"
    yield "homomorphism", bad


def _duality_failure(ring: FusionRing, M: np.ndarray) -> str | None:
    """The witness of the first label a with N(dual(a)) != N(a) transposed, or None."""
    differs = (M[list(ring.dual)] != M.transpose(0, 2, 1)).any(axis=(1, 2))
    return "N(dual({0})) != transpose of N({0})".format(*_first(differs)) if differs.any() else None


def nimrep_from_graph(ring: FusionRing, g: BoundaryGraph) -> NimRep:
    """The module of ring with N(x_0) = I and N(x_1) = the adjacency of g,
    kept per (ring, g) (cyclo._Kept), unless its stack holds Python ints. A
    union of parts is built as the direct sum of their modules (_direct_sum)."""
    return _modules[ring, g]


@_kept_entries(lambda nr: nr.mats.size if nr.mats.dtype == np.int64 else inf)
def _modules(key: tuple[FusionRing, BoundaryGraph]) -> NimRep:
    ring, g = key
    return _direct_sum(ring, g) if g._parts else _build_module(ring, g)


def _build_module(ring: FusionRing, g: BoundaryGraph) -> NimRep:
    """nimrep_from_graph's module, built afresh: every N(c) but N(x_0) = I
    and N(x_1) = A is solved for from a product of ring._generation, as
    A N(b) - sum of N_1b^x N(x) over the other labels x. The checks, each
    naming its first witness: non-negativity in generation order, duality on
    every label unless the ring is self-dual, and A N(b) = sum_c N_1b^c N(c)
    for each product that defined no label. They suffice for a ring that
    passes verify_axioms: x -> N(x) respects the product by x_1 on the basis,
    so it sends p(x_1) y to p(A) N(y) for every integer polynomial p, and as
    each x_a = p_a(x_1), N(x_a x_b) = p_a(A) N(b) = N(a) N(b); every N(a) is
    then symmetric, so a self-dual ring needs no duality check. Duality on
    x_1 alone would imply the rest only if dual respected products, which
    verify_axioms leaves open.

    The stack is int64 when max(s, R) * s ** (rank - 1) < 2**63, s the
    largest row sum of A (at least 1), R the largest sum_c N_1b^c: while the
    steps stay non-negative, N(c) <= A N(b), so no row built at depth e sums
    past s ** e. The first negative step had non-negative inputs, so its
    witness is exact; later steps may wrap and are discarded.
    """
    order, steps, checks, R = ring._generation
    r, size = ring.rank, g.size
    s = max(1, *map(sum, g.adjacency))
    mats = np.empty((r, size, size), np.int64 if max(s, R) * s ** (r - 1) < 2**63 else object)
    mats[:2] = (np.identity(size, dtype=np.int64), g.adjacency)[:r]
    for c, b, minus in steps:
        out = mats[c]
        np.matmul(mats[1], mats[b], out=out)
        for x, n in minus:
            out -= mats[x] if n == 1 else n * mats[x]
    if (negative := mats < 0).any():
        p, j, k = _first(negative[list(order)])
        a = order[p]
        raise NotANimRep(f"recurrence for N(x_{a}) gives entry {mats[a, j, k]} at ({j},{k})")
    if ring.dual != tuple(range(r)) and (witness := _duality_failure(ring, mats)):
        raise NotANimRep(f"duality: {witness}")
    for b, terms in checks:
        got, want = mats[1] @ mats[b], sum(mats[x] if n == 1 else n * mats[x] for x, n in terms)
        if (differs := got != want).any():
            j, i = _first(differs)
            raise NotANimRep(f"homomorphism: (N(1)N({b}))[{j},{i}] = {got[j, i]} != {want[j, i]}")
    return NimRep._trusted(ring, g.vertices, mats)


def _direct_sum(ring: FusionRing, g: BoundaryGraph) -> NimRep:
    """The module of a union g: each N(a) is block diagonal with the N(a) of
    its parts' kept modules as blocks, the stack that the recurrence, blockwise
    on a block-diagonal A, would give. It needs no check: unit, duality,
    non-negativity and the homomorphism identity hold blockwise, and each part
    passed them. If a part raises, the recurrence builds g: its own error."""
    try:
        blocks = [nimrep_from_graph(ring, part).mats for part in g._parts]
    except Exception:
        return _build_module(ring, g)
    mats = np.zeros((ring.rank, g.size, g.size), np.result_type(*blocks))
    at = np.cumsum([0] + [block.shape[1] for block in blocks])
    for block, i, j in zip(blocks, at, at[1:]):
        mats[:, i:j, i:j] = block
    return NimRep._trusted(ring, g.vertices, mats)


def su2_nimrep_from_graph(g: BoundaryGraph, level: int) -> NimRep:
    """nimrep_from_graph over su2_fusion_ring(level), kept by its rule: the
    recurrence N(x_{i+1}) = A N(x_i) - N(x_{i-1}). A bool level raises in su2_fusion_ring."""
    if level < 0:
        raise ShapeMismatch("level must be non-negative")
    return nimrep_from_graph(su2_fusion_ring(level), g)


def regular_nimrep(ring: FusionRing) -> NimRep:
    """The ring acting on itself; boundary labels are the ring labels."""
    return NimRep._trusted(ring, ring.labels, regular_matrices(ring))


def character(nr: NimRep) -> tuple[int, ...]:
    """chi[a] = trace N(a); chi[0] = number of boundary labels."""
    return _character(nr)[0]


@_held
def _character(nr: NimRep) -> tuple[tuple[int, ...], np.ndarray]:
    """The character, held once as a tuple of ints and as the exact integer
    array that _profile reads."""
    chi = tuple(int(x) for x in nr.mats.trace(axis1=1, axis2=2))
    return chi, exact_ints(chi, len(chi))


@_held
def multiplicity_profile(nr: NimRep, md: ModularData) -> tuple[int, ...]:
    """m[I] = trace of the lambda_I spectral projector inside the rep, as
    _profile computes it from the module's character. A zero quantum
    dimension is named before a zero norm."""
    return _profile(md, _character(nr)[1], nr.size)


@_held
def _trace_terms(md: ModularData):
    """(P, B, at, B.take(at), top), held on the datum: the layers of P[I][S] =
    d(I) S_{I,dual(S)} as exact ints for sums of rank products, those of
    B[I] = d(I)^2 <lambda_I, lambda_I> in the same frame (modular._pairing),
    each B[I]'s first nonzero layer as a flat index into B, and B's largest
    |entry|."""
    _require_dimensions(md)
    r, Q = md.rank, _pairing(md)
    B = Q.layers[:, :, r]
    nonzero = B != 0
    if (zero := _first(~nonzero.any(axis=0))) is not None:
        raise DegenerateScalar(f"lambda_{zero[0]} has zero norm")
    at = nonzero.argmax(axis=0) * r + np.arange(r)
    return Q[:, :r]._ints(r), B, at, B.take(at), _magnitude(B)


def _profile(md: ModularData, chi, size: int) -> tuple[int, ...]:
    """multiplicity_profile of a module with character chi (a tuple of ints,
    or the array _character holds) and size boundary labels:
    e_{lambda_I}(S) = P[I][S] / B[I] (_trace_terms), so m[I] = A[I] / B[I]
    for A = P chi, one integer contraction. m[I] is rational exactly when
    the layers of A[I] and B[I] are proportional (cross multiplied at B[I]'s
    pivot layer), and is then the ratio of the pivot entries: no inverse."""
    if md.ring.rank != len(chi):
        raise ShapeMismatch("modular data rank differs from the ring rank")
    v = chi if isinstance(chi, np.ndarray) else exact_ints(chi, md.rank)
    P, B, at, b, top = _trace_terms(md)
    A = P @ v
    dtype = _int_type(1, max(_magnitude(A), top))
    A, B, b = (x.astype(dtype, copy=False) for x in (A, B, b))
    a = A.take(at)
    irrational = (A * b != a * B).any(axis=0)
    out: list[int] = []
    for I, (num, den) in enumerate(zip(a.tolist(), b.tolist())):
        if irrational[I]:
            raise NonIntegralMultiplicity(f"projector trace for label {I} is irrational")
        num, den = (-num, -den) if den < 0 else (num, den)
        if num < 0 or num % den:
            raise NonIntegralMultiplicity(
                f"projector trace for label {I} is {Fraction(num, den)}, "
                "not a non-negative integer"
            )
        out.append(num // den)
    if sum(out) != size:
        raise NonIntegralMultiplicity(
            f"profile sums to {sum(out)}, expected {size} boundary labels"
        )
    return tuple(out)


def _d_image(mats, d, x):
    """N(a) x for every label a, and the first (a, j) where it is not d(a) x_j, or None."""
    image = x.apply(lambda L: (mats @ L.T).transpose(2, 0, 1), mats.shape[1])
    return image, _first(image.differs(d.convolve(x, lambda u, Y: u[:, None] * Y[:, None], 1)))


@_held
def d_eigenvector(nr: NimRep, md: ModularData) -> tuple[CycloNumber, ...]:
    """The vector with N(a) v = d(a) v, normalized to v[0] = 1.

    Exists uniquely (up to scale) when the unit character has multiplicity
    one: the first nonzero column x of the lambda_0 projector pushed through
    the rep, c * sum_S d(dual(S)) N(S) for a nonzero c that the normalization
    cancels, so one integer contraction of md.tensor[0] with the matrices.
    N(a) x = d(a) x is checked before x is normalized. Held on nr per datum
    object, as the module docstring says.
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
