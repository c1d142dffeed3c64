"""Gauge scalars on boundary-label pairs: validation of the mu-cochain,
its exact solution lambda (one free scalar per connected component), the
encircling matrices E(a) = Lambda^-1 N(a) Lambda, and the isomorphism
checks tying E back to N.

J is a union of cliques once validated (reflexive + symmetric +
composition-closed), so solving is spanning-star propagation from the
lowest-index node of each component; no general cohomology machinery.

The cocycle check is the star identity mu_ij = mu_ir * mu_rj, r the root of
the component of i and j: O(n^2) products per component instead of the
O(n^3) triangles. Once the diagonal units and the inverse pairs hold, it
implies every triangle: with lambda_i = mu_ir,
mu_ij * mu_jk = mu_ir * mu_rj * mu_jr * mu_rk = mu_ir * mu_rk = mu_ik.
It also holds whenever every triangle does, as (i, r, j) is one, and by
the inverse pairs it need only be checked for i < j. When it fails, the
row-major triangle scan runs to find the first broken triangle.

The encircling module is one size x size FieldTensor of the ratios
R[j][i] = lambda_i / lambda_j: E(a) = R * N(a) entrywise, so N(a) is only
an integer mask and the isomorphism checks are integer products on R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclo import ONE, CycloNumber, FieldTensor, exact_ints, inverses
from .errors import DegenerateScalar, GaugeInconsistent, MissingPair, ShapeMismatch
from .modular import _first
from .verdict import Check, Verdict, failed, passed


@dataclass(frozen=True)
class GaugeProblem:
    nodes: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    mu: tuple[CycloNumber, ...]

    def __post_init__(self):
        n = len(self.nodes)
        if len(self.mu) != len(self.pairs):
            raise ShapeMismatch("mu values must align with the pair list")
        seen = set()
        for i, j in self.pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ShapeMismatch(f"pair ({i},{j}) references a missing node")
            if (i, j) in seen:
                raise ShapeMismatch(f"pair ({i},{j}) listed twice")
            seen.add((i, j))

    @classmethod
    def build(cls, nodes, mu_map) -> "GaugeProblem":
        """From a mapping (i, j) -> CycloNumber; pair order is normalized."""
        pairs = tuple(sorted(mu_map))
        return cls(
            nodes=tuple(nodes),
            pairs=pairs,
            mu=tuple(mu_map[p] for p in pairs),
        )

    def mu_map(self) -> dict[tuple[int, int], CycloNumber]:
        return dict(zip(self.pairs, self.mu))


@dataclass(frozen=True)
class GaugeSolution:
    lam: tuple[CycloNumber, ...]
    components: tuple[tuple[int, ...], ...]


def _components(n: int, pair_set) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pair_set:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def check_pairs(gp: GaugeProblem) -> dict[int, list[int]]:
    """The nodes paired with each node apart from itself, once J is found
    reflexive, symmetric and closed under composition; otherwise MissingPair
    names the first gap. The value identities are not even well-posed on
    such a J, and this check makes no field operation."""
    n = len(gp.nodes)
    J = set(gp.pairs)
    for i in range(n):
        if (i, i) not in J:
            raise MissingPair(f"missing reflexive pair ({i},{i})")
    for i, j in gp.pairs:
        if (j, i) not in J:
            raise MissingPair(f"pair ({i},{j}) present but ({j},{i}) missing")
    out: dict[int, list[int]] = {}
    for i, j in gp.pairs:
        if i != j:
            out.setdefault(i, []).append(j)
    for i, js in out.items():
        for j in js:
            for k in out.get(j, ()):
                if (i, k) not in J:
                    raise MissingPair(f"pairs ({i},{j}), ({j},{k}) present but ({i},{k}) missing")
    return out


def _star_holds(mu, out) -> bool:
    """mu_ij = mu_ir * mu_rj for i < j, both apart from the root r (the
    lowest node) of their component."""
    for i, js in out.items():
        r = min(js)
        if r < i:
            for j in js:
                if j > i and mu[(i, r)] * mu[(r, j)] != mu[(i, j)]:
                    return False
    return True


def validate_mu(gp: GaugeProblem) -> Verdict:
    """Structure first (check_pairs raises MissingPair), values second.

    Value failures (mu_ii != 1, mu_ij mu_ji != 1, broken triangle) come back
    as a failing Verdict with the witness pair or triangle. The cocycle check
    is the star identity; only when it fails does the row-major triangle
    scan run, to find the witness.
    """
    out = check_pairs(gp)
    mu = gp.mu_map()
    checks: list[Check] = []
    for i in range(len(gp.nodes)):
        if mu[(i, i)] != ONE:
            return Verdict((*checks, failed("diagonal-units", f"mu[{i},{i}] != 1")))
    checks.append(passed("diagonal-units"))

    for i, j in gp.pairs:
        if i < j and mu[(i, j)] * mu[(j, i)] != ONE:
            return Verdict(
                (*checks, failed("inverse-pairs", f"mu[{i},{j}] * mu[{j},{i}] != 1"))
            )
    checks.append(passed("inverse-pairs"))

    if not _star_holds(mu, out):
        for i, js in sorted(out.items()):
            for j in sorted(js):
                for k in sorted(out.get(j, ())):
                    if k != i and mu[(i, j)] * mu[(j, k)] != mu[(i, k)]:
                        return Verdict(
                            (*checks, failed("cocycle", f"triangle ({i},{j},{k})"))
                        )
    checks.append(passed("cocycle"))
    return Verdict(tuple(checks))


def solve_gauge(gp: GaugeProblem) -> GaugeSolution:
    """lambda with mu_ij = lambda_i / lambda_j; per component the
    lowest-index node is the root and gets lambda = 1."""
    v = validate_mu(gp)
    if not v.ok:
        bad = v.first_failure
        raise GaugeInconsistent(f"{bad.name}: {bad.witness}")
    mu = gp.mu_map()
    comps = _components(len(gp.nodes), gp.pairs)
    lam: list[CycloNumber | None] = [None] * len(gp.nodes)
    for comp in comps:
        root = comp[0]
        lam[root] = ONE
        for j in comp[1:]:
            if (root, j) not in mu:
                raise MissingPair(f"component of {root} is not a clique: missing ({root},{j})")
            # mu_rj = lambda_r / lambda_j = 1 / lambda_j
            value = mu[(root, j)]
            if value.is_zero:
                raise DegenerateScalar(f"mu[{root},{j}] is zero")
            lam[j] = value.inverse()
    for (i, j), value in mu.items():
        if value * lam[j] != lam[i]:
            raise GaugeInconsistent(f"solved lambda fails mu at ({i},{j})")
    return GaugeSolution(lam=tuple(lam), components=comps)


def _encircling(nr, lam) -> tuple[FieldTensor, FieldTensor]:
    """The tensors of lambda and of the ratio R[j][i] = lambda_i / lambda_j,
    so that E(a) = R * N(a) entrywise."""
    if len(lam) != nr.size:
        raise ShapeMismatch("lambda length must match the boundary rank")
    for i, x in enumerate(lam):
        if x.is_zero:
            raise DegenerateScalar(f"lambda[{i}] is zero")
    both = FieldTensor.of([*lam, *inverses(lam)])
    lam_t, inv = both[:nr.size], both[nr.size:]
    return lam_t, inv.convolve(lam_t, lambda x, Y: x[None, :, None] * Y[:, None, :], 1)


def encircling_matrices(nr, lam) -> tuple[tuple[tuple[CycloNumber, ...], ...], ...]:
    """E(a)_{ji} = (lambda_i / lambda_j) N(a)_{ji}, one matrix per label."""
    _, R = _encircling(nr, lam)
    mats = exact_ints(np.stack(nr.mats))
    return R.apply(lambda L: L[:, None] * mats, 1).scalars()


def verify_phi_isomorphism(nr, lam, md) -> Verdict:
    """(a) "intertwiner": Lambda E(a) = N(a) Lambda for every a, the module
    map phi^i -> lambda_i i, i.e. lambda_j R_ji = lambda_i wherever
    N(a)_ji != 0. (b) "d-eigenvector": every E(a) has constant row sums
    d(a) = md.tensor[0][a], i.e. the all-ones vector is a d-eigenvector of E;
    the sums are one integer contraction of R with the module matrices.
    Both checks are always evaluated, with the first (a, j, i) and (a, j) in
    row-major order as witnesses; (b) fails exactly when lambda is not a
    d-eigenvector of N."""
    lam_t, R = _encircling(nr, lam)
    if md.rank != nr.ring.rank:
        raise ShapeMismatch("modular data rank differs from the ring rank")
    mats = exact_ints(np.stack(nr.mats), nr.size)
    left = lam_t.convolve(R, lambda x, Y: x[None, :, None] * Y, 1)
    bad = _first((mats != 0) & left.differs(lam_t[None]))
    witness = None if bad is None else "(a,j,i)=({},{},{})".format(*bad)
    checks = [passed("intertwiner") if bad is None else failed("intertwiner", witness)]

    sums = R.apply(lambda L: (L[:, None] * mats).sum(axis=3), nr.size)
    bad = _first(sums.differs(md.tensor[0][:, None]))
    if bad is not None:
        witness = f"row {bad[1]} of E({bad[0]}) sums to {sums.scalar(bad)}, not d({bad[0]})"
    checks.append(passed("d-eigenvector") if bad is None else failed("d-eigenvector", witness))
    return Verdict(tuple(checks))
