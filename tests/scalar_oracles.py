"""Scalar reference loops for the tensor routes of fusion and modular.

fusion.multiply, modular.spectrum and modular.idempotent_family are
contractions on FieldTensor read back in one batch. These are the entry by
entry CycloNumber loops they replaced, kept as independent oracles: they
share no code with the tensor routes beyond CycloNumber itself, and they
raise the same errors in the same order.
"""

from fuselab.cyclo import ZERO
from fuselab.errors import DegenerateScalar, ShapeMismatch
from fuselab.fusion import FusionElement
from fuselab.modular import SpectrumPoint


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


def scalar_idempotent_family(md):
    """e_{lambda_I}(S) = lambda_I(dual(S)) / <lambda_I, lambda_I>; the first
    zero norm in label order is named."""
    dual, family = md.ring.dual, []
    for p in scalar_spectrum(md):
        if p.normSq.is_zero:
            raise DegenerateScalar(f"lambda_{p.baseLabel} has zero norm")
        inv_norm = p.normSq.inverse()
        family.append(FusionElement(tuple(p.values[dual[s]] * inv_norm for s in range(md.rank))))
    return tuple(family)


def raw(x):
    """The canonical form of a CycloNumber, field by field."""
    return x._order, x._num, x._den
