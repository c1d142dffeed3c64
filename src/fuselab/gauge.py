"""Gauge scalars on boundary-label pairs: validation of the mu-cochain,
its exact solution lambda (one free scalar per connected component), the
encircling matrices E(a) = Lambda^-1 N(a) Lambda, and the isomorphism
checks tying E back to N.

A GaugeProblem's constructor holds J as a union of cliques, with no field
operation: MissingPair names the first gap in a J that is not reflexive,
then symmetric, then closed under composition, and ShapeMismatch the first
component, in root order, whose values share no field within the budget.
It keeps each node's root, the least node of its component, so solving is
spanning-star propagation from the roots; no general cohomology machinery.
It checks J on the set of pairs alone, so validate_mu builds the problem's
one pair-to-value map (mu_map).

The cocycle check is the star identity mu_ij = mu_ir * mu_rj, r the root of
the component of i and j: O(n^2) products per component instead of the
O(n^3) triangles. Once the diagonal units and the inverse pairs hold, it
implies every triangle: with lambda_i = mu_ir,
mu_ij * mu_jk = mu_ir * mu_rj * mu_jr * mu_rk = mu_ir * mu_rk = mu_ik.
It also holds whenever every triangle does, as (i, r, j) is one, and by
the inverse pairs it need only be checked for i < j. When it fails, the
row-major triangle scan runs to find the first broken triangle.

A passing validation fixes the solution, so solving re-checks nothing:
lambda_j = mu_jr, which the inverse pairs make 1 / mu_rj with no field
inverse, and mu_ij * lambda_j = mu_ir * mu_rj * mu_jr = lambda_i on every
pair by the star identity. Field elements are canonical, so this lambda is
the same number, and prints the same, as 1 / mu_rj. The verdict is held on
the problem (modular._held), so a solve after validation, or a repeated
one, makes no field product.

The isomorphism checks take no inverse either. E(a) = Lambda^-1 N(a) Lambda
exists exactly when no lambda_i is zero, and then Lambda E(a) = N(a) Lambda
holds by construction, so "intertwiner" is evaluated as that condition (a
zero lambda_i raises DegenerateScalar). Row j of E(a) sums to
(N(a) lambda)_j / lambda_j, so "d-eigenvector" is one integer contraction
N(a) lambda compared with d(a) lambda; only a failing row's witness takes
one inverse. encircling_matrices alone builds E: one FieldTensor of the
ratios R[j][i] = lambda_i / lambda_j, masked by the integer N(a). The phi
verdict is held on the module for the last (lambda, datum) objects, so a
repeated check of a module's held d_eigenvector does no field work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from operator import is_

from .cyclo import ONE, CycloNumber, FieldTensor, _budgeted, _coerce, inverses
from .errors import DegenerateScalar, GaugeInconsistent, MissingPair, ShapeMismatch
from .modular import _held
from .nimrep import _d_image
from .verdict import Verdict, check, passed, until_failure


@dataclass(frozen=True)
class GaugeProblem:
    nodes: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    mu: tuple[CycloNumber, ...]
    # derived from pairs, not part of the value: each node's root (the least
    # node of its component) and the components in root order
    root: tuple[int, ...] = field(init=False, repr=False, compare=False)
    components: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # the results of _held functions on this problem, not part of its value
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.nodes)
        if len(self.mu) != len(self.pairs):
            raise ShapeMismatch("mu values must align with the pair list")
        present = set()
        for i, j in self.pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ShapeMismatch(f"pair ({i},{j}) references a missing node")
            if (i, j) in present:
                raise ShapeMismatch(f"pair ({i},{j}) listed twice")
            present.add((i, j))
        for i in range(n):
            if (i, i) not in present:
                raise MissingPair(f"missing reflexive pair ({i},{i})")
        others: dict[int, list[int]] = {}
        for i, j in self.pairs:
            if (j, i) not in present:
                raise MissingPair(f"pair ({i},{j}) present but ({j},{i}) missing")
            if i != j:
                others.setdefault(i, []).append(j)
        for i, js in others.items():
            for j in js:
                for k in others[j]:
                    if (i, k) not in present:
                        raise MissingPair(f"pairs ({i},{j}), ({j},{k}) present but ({i},{k}) missing")
        root = tuple(min((i, *others.get(i, ()))) for i in range(n))
        # a closed J holds every pair of a component, so its orders are those of the pairs from it
        orders: dict[int, list[int]] = {r: [] for r in root}
        for (i, _), x in zip(self.pairs, self.mu):
            orders[root[i]].append(x.order)
        for found in orders.values():
            _budgeted(lcm(*found))
        comps: dict[int, list[int]] = {}
        for i, r in enumerate(root):
            comps.setdefault(r, []).append(i)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "components", tuple(map(tuple, comps.values())))

    @classmethod
    def build(cls, nodes, mu_map) -> "GaugeProblem":
        """From a mapping (i, j) -> CycloNumber; pair order is normalized.
        Raises MissingPair when the pairs are not closed."""
        pairs = tuple(sorted(mu_map))
        return cls(
            nodes=tuple(nodes),
            pairs=pairs,
            mu=tuple(mu_map[p] for p in pairs),
        )

    def mu_map(self) -> dict[tuple[int, int], CycloNumber]:
        """mu by pair, a new dict the caller may change."""
        return dict(zip(self.pairs, self.mu))


@dataclass(frozen=True)
class GaugeSolution:
    lam: tuple[CycloNumber, ...]
    components: tuple[tuple[int, ...], ...]


def _star_holds(gp: GaugeProblem, mu: dict) -> bool:
    """mu_ij = mu_ir * mu_rj for i < j, both apart from the root r of their
    component, mu by pair."""
    for r, *rest in gp.components:
        for a, i in enumerate(rest):
            for j in rest[a + 1:]:
                if mu[(i, r)] * mu[(r, j)] != mu[(i, j)]:
                    return False
    return True


@_held
@until_failure
def validate_mu(gp: GaugeProblem):
    """The value identities, on a pair set that gp's constructor holds
    closed (GaugeProblem.build raises MissingPair on an open one).

    Value failures (mu_ii != 1, mu_ij mu_ji != 1, broken triangle) come back
    as a failing Verdict with the witness pair or triangle. The cocycle check
    is the star identity; only when it fails does the row-major triangle
    scan run, to find the witness.
    """
    mu = gp.mu_map()
    yield "diagonal-units", next(
        (f"mu[{i},{i}] != 1" for i in range(len(gp.nodes)) if mu[(i, i)] != ONE), None
    )
    yield "inverse-pairs", next(
        (
            f"mu[{i},{j}] * mu[{j},{i}] != 1"
            for i, j in gp.pairs
            if i < j and mu[(i, j)] * mu[(j, i)] != ONE
        ),
        None,
    )
    comp = {c[0]: c for c in gp.components}
    triangles = (
        f"triangle ({i},{j},{k})"
        for i, r in enumerate(gp.root)
        for j in comp[r]
        for k in comp[r]
        if j != i and k not in (i, j) and mu[(i, j)] * mu[(j, k)] != mu[(i, k)]
    )
    yield "cocycle", None if _star_holds(gp, mu) else next(triangles, None)


def solve_gauge(gp: GaugeProblem) -> GaugeSolution:
    """lambda with mu_ij = lambda_i / lambda_j; per component the
    lowest-index node is the root and gets lambda = 1. Once validate_mu
    passes, lambda_j = mu_jr for the root r of j's component."""
    v = validate_mu(gp)
    if not v.ok:
        bad = v.first_failure
        raise GaugeInconsistent(f"{bad.name}: {bad.witness}")
    lam = [None] * len(gp.nodes)
    for (j, r), x in zip(gp.pairs, gp.mu):
        if r == gp.root[j]:
            lam[j] = x
    return GaugeSolution(lam=tuple(lam), components=gp.components)


def _check_lambda(nr, lam) -> tuple[CycloNumber, ...]:
    """lam as a tuple of CycloNumbers, lam itself when it is one, once
    Lambda = diag(lam) is found invertible with the boundary's size. An
    entry may be an int, Fraction or CycloNumber, never a bool."""
    if len(lam) != nr.size:
        raise ShapeMismatch("lambda length must match the boundary rank")
    out = []
    for i, x in enumerate(lam):
        if (y := None if isinstance(x, bool) else _coerce(x)) is None:
            raise ShapeMismatch(f"lambda[{i}] = {x!r} is not a cyclotomic or rational number")
        if y.is_zero:
            raise DegenerateScalar(f"lambda[{i}] is zero")
        out.append(y)
    return lam if isinstance(lam, tuple) and all(map(is_, out, lam)) else tuple(out)


def encircling_matrices(nr, lam) -> tuple[tuple[tuple[CycloNumber, ...], ...], ...]:
    """E(a)_{ji} = (lambda_i / lambda_j) N(a)_{ji}, one matrix per label:
    the ratio tensor R[j][i] = lambda_i / lambda_j masked by N(a)."""
    lam = _check_lambda(nr, lam)
    both = FieldTensor.of([*lam, *inverses(lam)])
    lam_t, inv = both[:nr.size], both[nr.size:]
    R = inv.convolve(lam_t, lambda x, Y: x[None, :, None] * Y[:, None, :], 1)
    return R.apply(lambda L: L[:, None] * nr.mats, 1).scalars()


def verify_phi_isomorphism(nr, lam, md) -> Verdict:
    """(a) "intertwiner": Lambda E(a) = N(a) Lambda for every a, the module
    map phi^i -> lambda_i i. It holds exactly when Lambda is invertible, so
    it passes once no lambda_i is zero; a zero one raises DegenerateScalar.
    (b) "d-eigenvector": every E(a) has constant row sums d(a) =
    md.tensor[0][a]. Row j of E(a) sums to (N(a) lambda)_j / lambda_j, so
    this is one integer contraction N(a) lambda compared with d(a) lambda;
    the witness is the first failing (a, j) in row-major order, and its row
    sum takes the only inverse. The verdict is held on nr for the last
    (lam, md) objects it was asked of."""
    return _phi_verdict(nr, _check_lambda(nr, lam), md)


@_held
def _phi_verdict(nr, lam, md) -> Verdict:
    """verify_phi_isomorphism for a lam that _check_lambda returned."""
    if md.rank != nr.ring.rank:
        raise ShapeMismatch("modular data rank differs from the ring rank")
    image, bad = _d_image(nr.mats, md.tensor[0], FieldTensor.of(lam))
    if bad is not None:
        a, j = bad
        total = image.scalar(bad) * lam[j].inverse()
        bad = f"row {j} of E({a}) sums to {total}, not d({a})"
    return Verdict((passed("intertwiner"), check("d-eigenvector", bad)))
