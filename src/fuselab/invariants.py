"""Modular invariants: exact commutant computation, bounded lattice
enumeration, the TM dimension formulas, and the diagonal-matching verdict.

The commutant is the rational solution space of Z*S = S*Z intersected with
the T-compatibility conditions (Z_IJ = 0 unless t_I = t_J). Its unknowns are
the label pairs in one T class, compared as integer classes held on the
datum. Row i of Z*S - S*Z is one integer slab cut from the layers of
md.tensor, eliminated fraction-free into a reduced echelon form of
primitive Python-int rows. After each i, the members of the echelon basis,
scaled to one integer stack, are checked against every layer one at a time
up to the first that fails, and the elimination stops once every member
commutes with S exactly: the solutions
of any subset of the constraints contain the commutant, so the two are then
equal. No float takes part, and no Fraction until the basis is returned.

The bounded enumeration walks the integer lattice of commutant coordinates
in blocks of _BLOCK points: one exact integer matrix product per block
(int64 where exact_ints allows, Python ints otherwise), so its memory stays
bounded whatever the cap, and only the points that survive the integer,
range and Z_00 filters become matrices for verify_invariant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cyclo import CycloNumber, _first, _int_type, _magnitude, exact_ints
from .errors import SearchBudgetExceeded, ShapeMismatch
from .modular import ModularData, _decimal, _held
from .nimrep import NimRep, _character, _profile, multiplicity_profile
from .verdict import Verdict, check

DEFAULT_ENTRY_BOUND = 3
DEFAULT_SEARCH_CAP = 10_000_000
SEARCH_CAP_ENV = "FUSELAB_SEARCH_CAP"
# lattice points per integer matrix product in enumerate_invariants: the
# walk's working memory is _BLOCK times the basis support, whatever the cap
_BLOCK = 4096

_PROVENANCE = ("user", "enumerated", "diagonal-built")


@dataclass(frozen=True)
class InvariantMatrix:
    """A candidate Z. Entries may be None: a partial matrix records only
    what K-theory determines (the (I, dual I) diagonal); nothing here ever
    fabricates the other entries."""

    entries: tuple[tuple[int | None, ...], ...]
    provenance: str = "user"

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ShapeMismatch("invariant matrix must be square")
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if x is not None and (not isinstance(x, int) or isinstance(x, bool)):
                    raise ShapeMismatch(f"entry ({i},{j}) must be an integer or unknown")
        if self.provenance not in _PROVENANCE:
            raise ShapeMismatch(f"unknown provenance {self.provenance!r}")

    @classmethod
    def from_rows(cls, rows, provenance: str = "user") -> "InvariantMatrix":
        return cls(entries=tuple(tuple(row) for row in rows), provenance=provenance)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def complete(self) -> bool:
        return all(x is not None for row in self.entries for x in row)


@dataclass(frozen=True)
class CommutantBasis:
    """Reduced-echelon rational basis of the T-filtered commutant.

    basis[k] has value 1 at freePositions[k] and 0 at the other free
    positions, so the coordinates of any member are literally its entries
    at the free positions.
    """

    basis: tuple[tuple[tuple[Fraction, ...], ...], ...]
    freePositions: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def rep_dimension(chi, md: ModularData) -> CycloNumber:
    """<chi, d> = sum_S chi[S] * d(dual S), one integer contraction of
    md.tensor[0] with chi composed with the duality."""
    if len(chi) != md.rank:
        raise ShapeMismatch("character length must match the rank")
    for s, k in enumerate(chi):
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise ShapeMismatch(f"character entry {s} must be an integer")
    v = exact_ints([int(chi[t]) for t in md.ring.dual], md.rank)
    return md.tensor[0].apply(lambda L: L @ v, md.rank).scalar(())


@dataclass(frozen=True)
class TMDimensionReport:
    dTM: CycloNumber
    multOfUnit: int
    indecomposable: bool
    routes: tuple[tuple[str, bool], ...]


def _support_connected(nr: NimRep) -> bool:
    size = nr.size
    reach = [False] * size
    reach[0] = True
    frontier = [0]
    total = nr.mats.sum(axis=0)
    while frontier:
        i = frontier.pop()
        for j in range(size):
            if not reach[j] and (total[i, j] or total[j, i]):
                reach[j] = True
                frontier.append(j)
    return all(reach)


@_held
def tm_dimension_report(nr: NimRep, md: ModularData) -> TMDimensionReport:
    """dTM = <chi, d>, the unit multiplicity, and the indecomposability
    verdict, with three independent routes that must agree:
    support-connectivity of the module matrices, multOfUnit = 1, and
    dTM = d(C). Also enforces the chain dTM = multOfUnit * d(C).

    Both checks run when the report is first computed for a datum object.
    The report is then held on nr, for that datum object only, as is its
    character for good: a repeated (nr, md) pair returns the same report,
    and another datum replaces it."""
    chi = _character(nr)[1]
    dTM = rep_dimension(chi, md)
    mult = _profile(md, chi, nr.size)[0]
    routes = (
        ("support-connectivity", _support_connected(nr)),
        ("unit-multiplicity", mult == 1),
        ("dimension-formula", dTM == md.globalDim),
    )
    if dTM != md.globalDim * mult:
        raise AssertionError(
            f"dimension chain broken: dTM != {mult} * d(C) for this module"
        )
    answers = {flag for _, flag in routes}
    if len(answers) != 1:
        raise AssertionError(f"indecomposability routes disagree: {routes}")
    return TMDimensionReport(
        dTM=dTM, multOfUnit=mult, indecomposable=mult == 1, routes=routes
    )


def diagonal_profile_as_Z(nr: NimRep, md: ModularData) -> InvariantMatrix:
    """Z_{I, dual(I)} = multiplicity of lambda_I; all other entries unknown."""
    m = multiplicity_profile(nr, md)
    r = md.rank
    dual = md.ring.dual
    rows = [[None] * r for _ in range(r)]
    for I in range(r):
        rows[I][dual[I]] = m[I]
    return InvariantMatrix.from_rows(rows, provenance="diagonal-built")


def _as_entries(Z) -> tuple[tuple[int | None, ...], ...]:
    if isinstance(Z, InvariantMatrix):
        return Z.entries
    return InvariantMatrix.from_rows(Z).entries


def _commutator_support(Z: np.ndarray, md: ModularData) -> np.ndarray:
    """The (i, j) where Z*S - S*Z is nonzero for some member of the integer
    stack Z of shape (k, r, r): one contraction of every member with every
    layer L of md.tensor, Z*L against L*Z, in int64 where exact_ints allows
    and Python ints otherwise. The layers are coordinates over a basis of
    the field, so a rational Z commutes with S exactly when it commutes
    with each layer."""
    L = md.tensor.layers
    dtype = _int_type(md.rank, max(_magnitude(Z), _magnitude(L)))
    Z, L = Z.astype(dtype, copy=False)[:, None], L.astype(dtype, copy=False)
    return (Z @ L != L @ Z).any(axis=(0, 1))


@_held
def _t_classes(md: ModularData) -> tuple[int, ...]:
    """Each label's T class as an int: t_I = t_J exactly when the classes of
    I and J are equal."""
    classes: dict = {}
    return tuple(classes.setdefault(t, len(classes)) for t in md.t)


def verify_invariant(Z, md: ModularData) -> Verdict:
    """Four independent checks: integer entries (known, non-negative),
    Z_{00} = 1, exact commutation with S-tilde, and the T predicate
    Z_IJ != 0 => t_I = t_J. Each check reports its own witness."""
    entries = _as_entries(Z)
    r = md.rank
    if len(entries) != r:
        raise ShapeMismatch(f"matrix is {len(entries)}x{len(entries)}, rank is {r}")
    bad_entry = next(
        (
            f"entry ({i},{j}) is unknown" if x is None else f"entry ({i},{j}) = {x} is negative"
            for i, row in enumerate(entries)
            for j, x in enumerate(row)
            if x is None or x < 0
        ),
        None,
    )
    noncommuting = "matrix has unknown entries"
    if all(x is not None for row in entries for x in row):
        at = _first(_commutator_support(exact_ints(entries)[None], md))
        noncommuting = None if at is None else f"(Z*S - S*Z) nonzero at ({at[0]},{at[1]})"
    t = _t_classes(md)
    t_mismatch = next(
        (
            f"Z[{i},{j}] != 0 but t[{i}] != t[{j}]"
            for i in range(r)
            for j in range(r)
            if entries[i][j] and t[i] != t[j]
        ),
        None,
    )
    return Verdict((
        check("integrality", bad_entry),
        check("unit-normalization", None if entries[0][0] == 1 else f"Z[0,0] = {entries[0][0]}"),
        check("s-commutation", noncommuting),
        check("t-compatibility", t_mismatch),
    ))


def _constraint_rows(L: np.ndarray, a: np.ndarray, b: np.ndarray, i: int):
    """Row i of Z*S - S*Z over the unknowns Z_{a_u b_u}, as integer rows
    (den times basis coordinates), one per layer e of md.tensor and column
    j: L_e[b_u, j] on Z_{i b_u} and -L_e[i, a_u] on Z_{a_u j}. The slab is
    built in the layers' dtype, and its distinct nonzero rows come back as
    tuples of Python ints."""
    n = len(a)
    slab = np.zeros((len(L), L.shape[1], n), dtype=L.dtype)
    own = np.flatnonzero(a == i)
    slab[:, :, own] = L[:, b[own], :].transpose(0, 2, 1)
    slab[:, b, np.arange(n)] -= L[:, i, a]
    rows = slab.reshape(-1, n)
    return dict.fromkeys(map(tuple, rows[rows.any(axis=1)].tolist()))


def _rref_insert(x, pivots: dict[int, list[int]]) -> None:
    """Fraction-free reduced echelon step over Python ints. Each pivot row
    is primitive, positive at its own column and zero at every other pivot
    column. x is reduced against them; what is left, if anything, becomes a
    pivot row at its first nonzero column, which is cleared from the others."""
    for c, p in pivots.items():
        f = x[c]
        if f:
            x = [p[c] * u - f * v for u, v in zip(x, p)]
    g = gcd(*x)
    if not g:
        return
    lead = next(c for c, v in enumerate(x) if v)
    g = g if x[lead] > 0 else -g
    x = [v // g for v in x]
    for c, p in pivots.items():
        f = p[lead]
        if f:
            p = [x[lead] * u - f * v for u, v in zip(p, x)]
            h = gcd(*p)
            pivots[c] = [v // h for v in p]
    pivots[lead] = x


@_held
def commutant_basis(md: ModularData) -> CommutantBasis:
    """Exact rational basis of {Z : Z S = S Z, Z_IJ = 0 unless t_I = t_J}.

    The unknowns are the entries Z_IJ with t_I = t_J. The rows of Z*S - S*Z
    are eliminated one row index i at a time, as one integer slab per i,
    into a fraction-free reduced echelon form over Python ints. After each
    i, the free-column basis of what has been eliminated so far, scaled by
    the lcm m of the pivot entries to one integer stack, is checked against
    every layer of md.tensor one member at a time, up to the first member
    that does not commute. Once every member commutes with S exactly, it
    spans the commutant and is returned, each entry v made Fraction(v, m)
    only then. The reduced echelon form of the row
    space is unique, so the basis does not depend on the order of the rows."""
    r, t = md.rank, _t_classes(md)
    unknowns = [(i, j) for i in range(r) for j in range(r) if t[i] == t[j]]
    a, b = np.array(unknowns).T
    pivots: dict[int, list[int]] = {}
    for i in range(r):
        for row in _constraint_rows(md.tensor.layers, a, b, i):
            _rref_insert(row, pivots)
        free = [u for u in range(len(unknowns)) if u not in pivots]
        m = lcm(*(p[c] for c, p in pivots.items()))
        coords = [[0] * len(unknowns) for _ in free]
        for x, f in zip(coords, free):
            x[f] = m
            for c, p in pivots.items():
                x[c] = -p[f] * (m // p[c])
        coords = exact_ints(coords).reshape(len(free), len(unknowns))
        stack = np.zeros((len(free), r, r), dtype=coords.dtype)
        stack[:, a, b] = coords
        if not any(_commutator_support(Z[None], md).any() for Z in stack):
            zero = Fraction(0)
            return CommutantBasis(
                basis=tuple(
                    tuple(tuple(Fraction(v, m) if v else zero for v in row) for row in mat)
                    for mat in stack.tolist()
                ),
                freePositions=tuple(unknowns[f] for f in free),
            )
    raise AssertionError("exact commutant elimination is inconsistent")


def _positive(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _search_cap(explicit: int | None) -> int:
    """The explicit cap, else FUSELAB_SEARCH_CAP in plain ASCII decimal, else
    the default; anything but an integer of at least 1 (a bool included) is
    bad input."""
    if explicit is not None:
        return _positive("cap", explicit)
    env = os.environ.get(SEARCH_CAP_ENV)
    if env is None:
        return DEFAULT_SEARCH_CAP
    try:
        return _positive(SEARCH_CAP_ENV, _decimal(env))
    except ValueError:
        raise ValueError(f"{SEARCH_CAP_ENV} must be a positive integer, got {env!r}") from None


def _lattice_survivors(scaled: np.ndarray, den: int, bound: int) -> list:
    """The points c of [0, bound]^dim, in itertools.product order, whose
    values c @ scaled / den are integers in [0, bound] with value 1 in
    column 0, as those value rows.

    scaled comes from exact_ints(..., dim * bound), so no sum in c @ scaled
    wraps. The walk takes _BLOCK points at a time and derives their
    coordinates from the point index by mixed radix, in Python ints once
    the point count reaches 2**63."""
    dim = len(scaled)
    radix = bound + 1
    points = radix**dim
    index = np.int64 if points < 2**63 else object
    powers = np.array([radix ** (dim - 1 - k) for k in range(dim)], dtype=index)
    survivors = []
    for start in range(0, points, _BLOCK):
        at = np.arange(start, min(start + _BLOCK, points), dtype=index)
        coords = (at[:, None] // powers % radix).astype(scaled.dtype)
        coords = coords[coords @ scaled[:, 0] == den]
        vals = coords @ scaled
        keep = ((vals % den == 0) & (vals >= 0) & (vals <= bound * den)).all(axis=1)
        survivors.extend(vals[keep] // den)
    return survivors


def enumerate_invariants(
    md: ModularData, entryBound: int = DEFAULT_ENTRY_BOUND, cap: int | None = None
) -> tuple[InvariantMatrix, ...]:
    """All Z with integer entries in [0, entryBound], Z_00 = 1, commuting
    with S and compatible with T; complete within the bound.

    Because the basis is echelon over the free positions, the integer
    coordinate vectors are exactly the candidate values of Z at those
    positions, so the lattice walk ranges over [0, entryBound]^dim. The
    basis, restricted to its support and scaled by the lcm den of its
    denominators, is one integer matrix; the walk multiplies blocks of
    _BLOCK coordinate vectors by it and keeps the rows that are multiples
    of den in [0, entryBound * den] with Z_00 = 1. Every survivor is
    re-verified through verify_invariant before being returned.
    """
    _positive("entryBound", entryBound)
    cap = _search_cap(cap)
    cb = commutant_basis(md)
    dim = cb.dimension
    points = (entryBound + 1) ** dim
    if points > cap:
        raise SearchBudgetExceeded(
            f"{points} lattice points exceed the cap of {cap}"
        )
    r = md.rank
    # (0, 0) first, so that column 0 of the walk holds Z_00
    positions = sorted({(0, 0)} | {pos for mat in cb.basis for pos in _support(mat)})
    den = lcm(*(mat[i][j].denominator for mat in cb.basis for i, j in positions))
    scaled = exact_ints(
        [[int(mat[i][j] * den) for i, j in positions] for mat in cb.basis], dim * entryBound
    )
    found = []
    for vals in _lattice_survivors(scaled, den, entryBound):
        entries = [[0] * r for _ in range(r)]
        for (i, j), v in zip(positions, vals):
            entries[i][j] = int(v)
        candidate = InvariantMatrix.from_rows(entries, provenance="enumerated")
        if verify_invariant(candidate, md).ok:
            found.append(candidate)
    found.sort(key=lambda z: z.entries)
    return tuple(found)


def _support(mat) -> list[tuple[int, int]]:
    return [
        (i, j) for i, row in enumerate(mat) for j, v in enumerate(row) if v
    ]


def match_diagonal(Z, nr: NimRep, md: ModularData) -> Verdict:
    """Does Z_{I, dual(I)} equal the multiplicity profile for every I?"""
    entries = _as_entries(Z)
    if len(entries) != md.rank:
        raise ShapeMismatch("matrix size differs from the rank")
    m = multiplicity_profile(nr, md)
    dual = md.ring.dual
    witness = next(
        (
            f"Z[{I},{dual[I]}] = {entries[I][dual[I]]}, profile gives {m[I]}"
            for I in range(md.rank)
            if entries[I][dual[I]] != m[I]
        ),
        None,
    )
    return Verdict((check("diagonal-match", witness),))
