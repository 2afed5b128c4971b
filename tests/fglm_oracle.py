"""Box-enumeration staircase and normal-form multiplication matrices, the
references for `fglm.staircase` and `fglm.multiplication_matrices`.

The staircase tests every monomial of the bounding box of the pure powers
against every leading term, and each border column of a multiplication
matrix is the full normal form of its monomial by `reduce_poly`.  Both are
the definitions, which is what makes them a check on the order-ideal
staircase and the border products.
"""

import numpy as np

from wgb import reduce_poly
from wgb.errors import PositiveDimensionError
from wgb.monomial import mono_divides, mono_mul
from wgb.series import monomial_ideal_is_zero_dim


def staircase(gb):
    """Monomials outside the leading-term ideal, sorted by the basis order.

    Errors out when some variable has no pure power among the leading
    terms (positive-dimensional ideal).
    """
    ring = gb.ring
    lts = gb.lt_monomials()
    if any(all(a == 0 for a in g) for g in lts):
        return []
    if not lts or not monomial_ideal_is_zero_dim(lts, ring.n):
        raise PositiveDimensionError(
            "no pure variable power among the leading terms: positive dimension"
        )
    caps = [None] * ring.n
    for g in lts:
        nz = [i for i, a in enumerate(g) if a]
        if len(nz) == 1:
            i = nz[0]
            caps[i] = g[i] if caps[i] is None else min(caps[i], g[i])
    box = [()]
    for c in caps:
        box = [e + (a,) for e in box for a in range(c)]
    out = [m for m in box if not any(mono_divides(g, m) for g in lts)]
    out.sort(key=ring.order.key)
    return out


def multiplication_matrices(gb, basis=None):
    """Matrices of multiplication by each variable on the staircase basis."""
    ring = gb.ring
    p = ring.field.p
    B = basis if basis is not None else staircase(gb)
    index = {m: i for i, m in enumerate(B)}
    D = len(B)
    mats = []
    for v in range(ring.n):
        ev = tuple(1 if i == v else 0 for i in range(ring.n))
        M = np.zeros((D, D), dtype=np.int64)
        for col, b in enumerate(B):
            m = mono_mul(b, ev)
            if m in index:
                M[index[m], col] = 1
                continue
            nf = reduce_poly(ring.monomial(m), gb.polys)
            for e, c in nf.terms:
                M[index[e], col] = c
        mats.append(M % p)
    return mats
