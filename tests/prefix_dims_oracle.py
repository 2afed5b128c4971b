"""Definition-based prefix ideal dimensions, the reference for
`engine.prefix_ideal_dims`.

dim (f_1..f_i)_e is the rank of the Macaulay matrix of every multiple
u*f_j of weighted degree e, j <= i: no signature criterion, no harvest, no
certificate, and every input's rows built, monomial inputs included.  The
restricted dimension is the same rank with x_{i+1}..x_n set to zero: the
rows u*f_j(x_1..x_i, 0..0), u a monomial in x_1..x_i.  Ranks come from the
row-by-row elimination of `elimination_oracle`.
"""

import numpy as np
from elimination_oracle import eliminate_rows

from wgb.monomial import monomials_of_wdeg


def _ranks(polys, degrees, weights, e, p):
    """The rank of the degree-e Macaulay matrix of polys[:i], i = 1..len(polys),
    for polynomials given as {exponents: coefficient} in len(weights)
    variables."""
    cols = {c: j for j, c in enumerate(monomials_of_wdeg(weights, e))}
    rows, owner = [], []
    for j, (f, dj) in enumerate(zip(polys, degrees)):
        if not f or dj > e:
            continue
        for u in monomials_of_wdeg(weights, e - dj):
            row = [0] * len(cols)
            for exps, c in f.items():
                row[cols[tuple(a + b for a, b in zip(u, exps))]] = c
            rows.append(row)
            owner.append(j)
    lead = eliminate_rows(np.array(rows, dtype=np.int64), p)[0] if rows else []
    return [sum(1 for k, o in zip(lead, owner) if o < i and k >= 0) for i in range(1, len(polys) + 1)]


def prefix_dims_by_rank(sys, bounds):
    """(dims, restricted) as `prefix_ideal_dims(sys, bounds)` gives them."""
    W = sys.ring.weights.weights
    n, m, p = len(W), sys.m, sys.ring.field.p
    top = max(bounds, default=-1)
    out = [[[0] * (top + 1)] + [[0] * (u + 1) for u in bounds] for _ in range(2)]
    full = [dict(f.terms) for f in sys.polys]
    for e in range(top + 1):
        ranks = _ranks(full, sys.degrees, W, e, p)
        for i in range(1, m + 1):
            if e > bounds[i - 1]:
                continue
            out[0][i][e] = ranks[i - 1]
            if i >= n:  # no variable is set to zero
                out[1][i][e] = ranks[i - 1]
                continue
            # x_{i+1}..x_n set to zero: drop the terms in them, keep x_1..x_i
            cut = [{x[:i]: c for x, c in f.items() if not any(x[i:])} for f in full[:i]]
            out[1][i][e] = _ranks(cut, sys.degrees[:i], W[:i], e, p)[-1]
    return out
