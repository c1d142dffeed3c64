"""Scalar reference loops for the tensor routes of fusion, modular and
invariants.

fusion.multiply, modular.spectrum, modular.idempotent_family and the tube
and spectral idempotents are contractions on FieldTensor read back in one
batch. These are the entry by entry CycloNumber loops they replaced, kept as independent oracles: they
share no code with the tensor routes beyond CycloNumber itself, and they
raise the same errors in the same order. scalar_commutant_basis is the
Fraction elimination that invariants.commutant_basis replaced, and
idempotent_profile the route through the inverted idempotent family that
nimrep._profile replaced. scalar_s_tensor is the decode that
FieldTensor.decode replaced in io, one CycloNumber per S entry pooled by
FieldTensor.of, and scalar_su2_table the generator-expression truncated
Clebsch-Gordan table that su2_fusion_ring's mask replaced.
expansion_rows is the recursive rewrite that cyclo._tables' closed form
replaced: each exponent outside the basis is rewritten at its first prime
by the vanishing sum, and the terms it reaches are rewritten in turn.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from fuselab.cyclo import ZERO, FieldTensor, _first, _prime_powers, exact_ints
from fuselab.errors import DegenerateScalar, NonIntegralMultiplicity, ShapeMismatch
from fuselab.fusion import FusionElement
from fuselab.invariants import CommutantBasis
from fuselab.io import cyclo_from_json
from fuselab.modular import SpectrumPoint


@lru_cache(maxsize=None)
def expansion_rows(n):
    """(rows, basis): rows[e] = ((b, s), ...) for zeta_n^e over basis
    exponents b in increasing order, and the exponents whose row is
    ((e, 1),). An exponent whose top base-p digit at p^v is p - 1 is
    -sum_{j=1}^{p-1} zeta_n^(e + j*n/p), each term expanded again."""
    pps = _prime_powers(n)
    memo = {}

    def expand(e):
        if e not in memo:
            for p, q in pps:
                if (e % q) // (q // p) == p - 1:
                    acc = {}
                    for j in range(1, p):
                        for b, s in expand((e + j * (n // p)) % n):
                            acc[b] = acc.get(b, 0) - s
                    memo[e] = tuple(sorted((b, s) for b, s in acc.items() if s))
                    break
            else:
                memo[e] = ((e, 1),)
        return memo[e]

    rows = tuple(expand(e) for e in range(n))
    return rows, frozenset(e for e in range(n) if rows[e] == ((e, 1),))


def scalar_s_tensor(S_raw):
    """md.tensor of a modular-data document's S through one CycloNumber per
    entry, then FieldTensor.of; errors name the entry as parse_data does."""
    return FieldTensor.of([
        [cyclo_from_json(x, f"modular-data.S[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(S_raw)
    ])


def scalar_su2_table(level):
    """N_ab^c = 1 iff |a-b| <= c <= min(a+b, 2*level-a-b) and a+b+c is even,
    as nested tuples built entry by entry."""
    r = level + 1
    return tuple(
        tuple(
            tuple(
                1 if abs(a - b) <= c <= min(a + b, 2 * level - a - b) and (a + b + c) % 2 == 0 else 0
                for c in range(r)
            )
            for b in range(r)
        )
        for a in range(r)
    )


def scalar_multiply(ring, x, y):
    """sum_ab x_a y_b N_ab^c, one product and one sum at a time."""
    r = ring.rank
    if len(x.coeffs) != r or len(y.coeffs) != r:
        raise ShapeMismatch("element rank does not match the ring")
    out = [ZERO] * r
    for a, xa in enumerate(x.coeffs):
        if xa.is_zero:
            continue
        for b, yb in enumerate(y.coeffs):
            if yb.is_zero:
                continue
            prod = xa * yb
            for c, k in enumerate(ring.N[a][b]):
                if k:
                    out[c] = out[c] + (prod if k == 1 else prod * k)
    return FusionElement(tuple(out))


def scalar_spectrum(md):
    """lambda_I(S) = S_IS / d(I), and <lambda_I, lambda_I> from the pairing."""
    r, dual = md.rank, md.ring.dual
    for i, x in enumerate(md.d):
        if x.is_zero:
            raise DegenerateScalar(f"quantum dimension d[{i}] is zero")
    points = []
    for i in range(r):
        inv_d = md.d[i].inverse()
        values = tuple(md.S[i][s] * inv_d for s in range(r))
        norm = ZERO
        for s in range(r):
            norm = norm + values[s] * values[dual[s]]
        points.append(SpectrumPoint(baseLabel=i, values=values, normSq=norm))
    return tuple(points)


def scalar_spectral_idempotent(md, p):
    """e_lambda(S) = lambda(dual(S)) / <lambda, lambda> for a point p."""
    if p.normSq.is_zero:
        raise DegenerateScalar(f"lambda_{p.baseLabel} has zero norm")
    inv_norm, dual = p.normSq.inverse(), md.ring.dual
    return FusionElement(tuple(p.values[dual[s]] * inv_norm for s in range(md.rank)))


def scalar_idempotent_family(md):
    """e_{lambda_I} for every label; the first zero norm in label order is named."""
    return tuple(scalar_spectral_idempotent(md, p) for p in scalar_spectrum(md))


def scalar_tube_idempotents(md):
    """1_I(S) = (d(I)^2 / d(C)) lambda_I(dual(S)) for every label, d(C) =
    sum_I d(I)^2; a zero global dimension is named before a zero d[i]."""
    dc = ZERO
    for x in md.d:
        dc = dc + x * x
    if dc.is_zero:
        raise DegenerateScalar("global dimension is zero")
    inv_dc, dual, r = dc.inverse(), md.ring.dual, md.rank
    return tuple(
        FusionElement(tuple(p.values[dual[s]] * md.d[I] * md.d[I] * inv_dc for s in range(r)))
        for I, p in enumerate(scalar_spectrum(md))
    )


def idempotent_profile(md, chi, size):
    """The multiplicity profile as one integer contraction of chi with the
    tensor of scalar_idempotent_family, whose coefficients take the inverse
    dimensions and inverse norms, read off label by label."""
    if md.ring.rank != len(chi):
        raise ShapeMismatch("modular data rank differs from the ring rank")
    v = exact_ints(chi, md.rank)
    family = FieldTensor.of([e.coeffs for e in scalar_idempotent_family(md)])
    m = family.apply(lambda L: L @ v, md.rank)
    irrational = m.layers[m.exps != 0].any(axis=0)
    rational = m.layers[m.exps == 0].sum(axis=0)
    out = []
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


def raw(x):
    """The canonical form of a CycloNumber, field by field."""
    return x._order, x._num, x._den


def _rref_insert(row, pivots):
    """Reduce a sparse Fraction row against the pivot set; install it if
    independent. Pivot rows are kept fully reduced (a pivot row holds its
    own column plus free columns only), so every pivot column present
    anywhere in the incoming row is eliminated, not just its leading one."""
    while row:
        hit = next((c for c in sorted(row) if c in pivots), None)
        if hit is None:
            break
        f = row.pop(hit)
        for c, v in pivots[hit].items():
            if c == hit:
                continue
            nv = row.get(c, Fraction(0)) - f * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    if not row:
        return
    lead = min(row)
    inv = Fraction(1) / row.pop(lead)
    new = {c: v * inv for c, v in row.items()}
    new[lead] = Fraction(1)
    for existing in pivots.values():
        f = existing.get(lead)
        if f is not None:
            del existing[lead]
            for c, v in new.items():
                if c == lead:
                    continue
                nv = existing.get(c, Fraction(0)) - f * v
                if nv:
                    existing[c] = nv
                else:
                    existing.pop(c, None)
    pivots[lead] = new


def _constraint_rows(md, unknowns, i):
    """Row i of Z*S - S*Z as sparse Fraction rows over the unknowns, one
    per column j and layer L of md.tensor: L_kj on Z_ik and -L_ik on Z_kj."""
    L = md.tensor.layers
    rows = np.zeros((len(L), md.rank, len(unknowns)), dtype=L.dtype)
    for u, (a, b) in enumerate(unknowns):
        if a == i:
            rows[:, :, u] += L[:, b, :]
        rows[:, b, u] -= L[:, i, a]
    for row in rows.reshape(-1, len(unknowns)):
        if row.any():
            yield {int(u): Fraction(int(row[u])) for u in np.flatnonzero(row)}


def _s_commutation_residual(Z, md):
    """The first (i, j) where Z*S - S*Z is nonzero for a rational Z, or None."""
    den = lcm(*(x.denominator for row in Z for x in row))
    Zi = exact_ints([[int(x * den) for x in row] for row in Z], md.rank)
    S = md.tensor
    return _first(S.apply(lambda L: Zi @ L, md.rank).differs(S.apply(lambda L: L @ Zi, md.rank)))


def scalar_commutant_basis(md):
    """The Fraction elimination commutant_basis replaced: rows of Z*S - S*Z
    inserted one at a time into a sparse reduced echelon form, one row
    index i at a time, until every member of the echelon basis, built as a
    Fraction matrix, commutes with S."""
    r = md.rank
    unknowns = [(i, j) for i in range(r) for j in range(r) if md.t[i] == md.t[j]]
    pivots = {}
    for i in range(r):
        for row in _constraint_rows(md, unknowns, i):
            _rref_insert(row, pivots)
        free = [u for u in range(len(unknowns)) if u not in pivots]
        mats = []
        for f in free:
            rows = [[Fraction(0)] * r for _ in range(r)]
            a, b = unknowns[f]
            rows[a][b] = Fraction(1)
            for pc, prow in pivots.items():
                if prow.get(f):
                    a, b = unknowns[pc]
                    rows[a][b] = -prow[f]
            mats.append(tuple(tuple(row) for row in rows))
        if all(_s_commutation_residual(m, md) is None for m in mats):
            return CommutantBasis(basis=tuple(mats), freePositions=tuple(unknowns[f] for f in free))
    raise AssertionError("exact commutant elimination is inconsistent")
