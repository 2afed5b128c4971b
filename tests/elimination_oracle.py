"""Row-by-row elimination, the reference for `linalg.row_echelon`.

This is the loop the matrix engine ran on each degree's matrix before the
blocked kernel: every row is reduced at its leading column by the rows
kept so far, one pivot at a time, until that column is free, then made
monic and kept.  Once the kept rows fill every column the remaining rows
are counted as reductions to zero without being reduced.  One numpy call
per row and pivot hit, but each step is plain row reduction, which is
what makes it a check on the blocked kernel.
"""

import numpy as np


def eliminate_rows(A, p):
    """Leading column of each row of A after reduction by the rows above
    it (-1 when it reduces to zero), and the kept rows, in row order, in
    echelon form but not reduced."""
    pivots = {}
    store = []
    lead = []
    ncols = A.shape[1]
    for r in range(len(A)):
        if len(store) == ncols:
            lead += [-1] * (len(A) - r)
            break
        vec = np.asarray(A[r], dtype=np.int64) % p
        nz = np.flatnonzero(vec)
        jcol = int(nz[0]) if nz.size else None
        while jcol in pivots:
            vec = (vec - int(vec[jcol]) * store[pivots[jcol]]) % p
            nz = np.flatnonzero(vec)
            jcol = int(nz[0]) if nz.size else None
        if jcol is None:
            lead.append(-1)
            continue
        if vec[jcol] != 1:
            vec = (vec * pow(int(vec[jcol]), p - 2, p)) % p
        pivots[jcol] = len(store)
        store.append(vec)
        lead.append(jcol)
    return lead, store
