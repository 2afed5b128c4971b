"""Linear algebra over GF(p), p < 2^31: one elimination kernel and one
modular product.

Matrices are int32 or int64 arrays with entries in [0, p).  Matrix
products run as float64 BLAS calls, exact while every sum stays below
2^53, and are reduced mod p in int64 (np.fmod on float64 is ~40x slower);
above that the operands are split into 16-bit halves (Dumas-Giorgi-Pernet,
"Dense linear algebra over word-size prime fields: the FFLAS and FFPACK
packages", TOMS 2008).  Matrix products, tiles, gathered rows and blocks
are reduced mod p with _mod's floor division, as numpy's int64 remainder
by a scalar is some 2-3x slower on them; vectors and single rows keep %,
which is cheaper below a few hundred entries.
The elimination follows the recursive row rank profile scheme of
Dumas-Pernet-Sultan (ISSAC 2015), with two base cases: a sparse matrix
goes whole to a row-by-row loop, and a dense block of at most BASE_ROWS
rows to a step that clears each pivot from the whole block at once, with
the same paper's delayed reduction: its updates accumulate in int64, and
it is folded mod p only when their headroom runs out.
reduce_rows clears many pivot columns in one product (a bottom half by
its top half, a top half by the bottom half's pivots), in tiles sized to
the matrix; clear_column clears one pivot column from kept rows: the
row loop's back-substitution and the FGLM walk.
A count-only signature run calls row_rank_profile once per window of
degrees, on a block-diagonal matrix, and a dense one is eliminated block
by block.  The kernel looks for no other structure in its input: the
unit rows of a signature matrix (the multiples of single-term inputs)
never reach it, as the matrix engine reads their pivots off its column
table.
"""

import math
import mmap

import numpy as np

# float64 represents every integer up to 2^53 exactly
_FLOAT_EXACT = 2**53
# the split products sum k terms below 2^47 (int64) or 2^32 (float64)
MAX_INNER = 2**16
# A matrix whose rows average at most SPARSE_ROW_NONZEROS nonzero entries
# is eliminated row by row, whole, at any size.  There a row whose leading
# column is free costs no arithmetic, and sparse rows meet few pivots: most
# matrices of a signature run on mixed powers are like that, and the
# blocked path costs them more than it saves.  A dense block of at most
# BASE_ROWS rows clears each pivot from the block's later rows (and, for
# the reduced form, the kept rows above) with one in-place int64 update of
# an unreduced copy: a few numpy calls per pivot, where the row loop makes
# one per pair of rows, and a fold mod p only after as many updates as
# int64 has room for, (2^63 - p) // (p - 1)^2 (never inside a block at
# p = 65521, every 8 near 2^30, every 2 at 2^31 - 1); the recursion's
# products take the larger blocks.
BASE_ROWS = 16
SPARSE_ROW_NONZEROS = 8
# reduce_rows works on tiles of rows and columns whose float64 operands
# and products have at most about this many entries, or an eighth of the
# matrix reduced when that is more: its temporaries stay a small fraction
# of the matrix, and a large matrix is not cut into millions of tiny
# products
_BLOCK_ENTRIES = 1 << 13
# zeros maps arrays of at least this many bytes
_MAPPED_BYTES = 128 << 10


def zeros(shape, dtype):
    """A zero-filled array, from 128 KiB on in an anonymous mapping.  Its
    pages are touched only when written and go back to the system with the
    last view of the array; a large malloc block, once freed, raises
    malloc's thresholds and keeps the next ones resident in the heap.  A
    small array is a plain np.zeros: a mapping costs some 30 times as much
    to make."""
    count = math.prod(shape)
    itemsize = np.dtype(dtype).itemsize
    if count * itemsize < _MAPPED_BYTES:
        return np.zeros(shape, dtype)
    buf = mmap.mmap(-1, count * itemsize)
    return np.frombuffer(buf, dtype=dtype)[:count].reshape(shape)


def _mod(X, p):
    """X mod p, in place on an int64 array X, which it returns: X - (X // p) p.
    numpy's int64 floor division by a scalar is some 2x as fast as its
    remainder on 5000 entries, but its three calls cost more than one %
    below about 500.  Exact for X >= p - 2^63."""
    X -= X // p * p
    return X


def matmul_mod(A, B, p):
    """A @ B mod p for entries in [0, p), exact for p < 2^31 and an inner
    dimension k below MAX_INNER.  A and B may be vectors.

    A product with a vector, or with k = 1, stays in int64, where numpy
    runs it without float copies: one product while k (p - 1)^2 < 2^63,
    two over the vector's 16-bit halves above.  Other products are float64
    BLAS calls: one while k (p - 1)^2 < 2^53, four over the 16-bit halves
    of both operands above.
    """
    k = A.shape[-1]
    if k >= MAX_INNER:
        raise ValueError(f"inner dimension {k} is not below {MAX_INNER}")
    if A.ndim == 1 or B.ndim == 1 or k == 1:
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if k * (p - 1) ** 2 < 2**63:
            return (A @ B) % p
        if A.ndim == 1:
            hi, lo = (A >> 16) @ B, (A & 0xFFFF) @ B
        else:
            hi, lo = A @ (B >> 16), A @ (B & 0xFFFF)
        return (hi % p * (1 << 16) + lo % p) % p
    if k * (p - 1) ** 2 < _FLOAT_EXACT:
        return _mod((np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64)).astype(np.int64), p)
    a1, a0 = (h.astype(np.float64) for h in np.divmod(A, 1 << 16))
    b1, b0 = (h.astype(np.float64) for h in np.divmod(B, 1 << 16))
    hi = _mod((a1 @ b1).astype(np.int64), p)
    mid = _mod((a1 @ b0 + a0 @ b1).astype(np.int64), p)
    lo = _mod((a0 @ b0).astype(np.int64), p)
    # hi * (2^32 mod p) < 2^62, mid * 2^16 < 2^47: the sum fits in int64
    return _mod(hi * ((1 << 32) % p) + mid * (1 << 16) + lo, p)


def reduce_rows(X, piv, E, p):
    """Clear the entries of X in the pivot columns piv with the reduced
    echelon rows E (E[:, piv] is the identity), in place, mod p.  The
    products run on tiles of max(_BLOCK_ENTRIES, X.size // 8) entries, each
    made and folded by _clear_tile; a vector X keeps %."""
    if X.ndim == 1:
        X -= matmul_mod(X[piv], E, p)
        X %= p
        return
    k, n = E.shape
    budget = max(_BLOCK_ENTRIES, X.size // 8)
    rows = max(1, budget // max(1, k))
    cols = max(1, budget // max(1, k, min(rows, len(X))))
    for r in range(0, len(X), rows):
        C = X[r : r + rows, piv].astype(np.float64)
        for s in range(0, n, cols):
            _clear_tile(X[r : r + rows, s : s + cols], C, E[:, s : s + cols], p)


def _clear_tile(part, C, E, p):
    """part -= C @ E mod p, in place, for float64 C and a tile E of echelon
    rows.  While k (p - 1)^2 < 2^53 the float64 product is exact and the
    difference of it and a residue fits in int64, so the tile is folded once,
    with _mod; above that the product is matmul_mod's split one."""
    if C.shape[1] * (p - 1) ** 2 < _FLOAT_EXACT:
        product = (C @ E.astype(np.float64)).astype(np.int64)
    else:
        product = matmul_mod(C, E, p)
    part[:] = _mod(part - product, p)


def clear_column(E, rows, j, row, p):
    """Subtract from the given rows of E their column-j entry times row, in
    place, mod p.  row is monic at j and zero left of it, so only the
    columns j: change, and the rows end up zero at j; the products are
    formed in int64."""
    X = E[rows, j:].astype(np.int64)
    X -= X[:, :1] * row[j:]
    E[rows, j:] = _mod(X, p)


def row_echelon(A, p):
    """Row rank profile and reduced row echelon form of A over GF(p).

    Returns (lead, E): lead[r] is the leading column of row r after
    reduction by the rows above it, or -1 when it reduces to zero; E holds
    one row per independent row, in row order, monic at its leading column
    and zero at every other row's leading column.  A must be an int32 or
    int64 array with entries in [0, p) (ValueError otherwise); it is
    overwritten, and E is a view of its first rows.
    """
    return _eliminate(A, p, True)


def row_rank_profile(A, p):
    """The lead of row_echelon(A, p), without the reduced form: the steps
    that only clear entries above the pivots are left out, and the
    diagonal blocks of a dense matrix of more than BASE_ROWS rows are
    eliminated one by one.  A is overwritten."""
    return _eliminate(A, p, False)[0]


def _eliminate(A, p, reduced):
    """(lead, E) as row_echelon gives them; unless reduced, only lead.  An
    entry outside [0, p) is refused: the row loop would keep a row whose
    pivot entry is 0 mod p."""
    unsigned = np.uint32 if A.itemsize == 4 else np.uint64  # negatives wrap above p
    if A.size and A.view(unsigned).max() >= p:
        raise ValueError(f"matrix entries must lie in [0, {p})")
    return _echelon(A, p, reduced)


def _echelon(A, p, reduced):
    """(lead, E) as row_echelon gives them; unless reduced, only lead.  A
    sparse matrix goes to the row loop whole and a dense block of at most
    BASE_ROWS rows to _echelon_block; a larger dense one is split in two
    halves of rows (or, unless reduced, into its diagonal blocks)."""
    m, n = A.shape
    if np.count_nonzero(A) <= SPARSE_ROW_NONZEROS * m:
        return _echelon_rows(A, p, reduced)
    if m <= BASE_ROWS:
        return _echelon_block(A, p, reduced)
    if not reduced:
        blocks = _diagonal_blocks(A)
        if len(blocks) > 1:
            lead = np.full(m, -1, dtype=np.int64)
            for r0, r1, c0, c1 in blocks:
                got = _echelon(A[r0:r1, c0:c1], p, False)[0]
                lead[r0:r1] = np.where(got >= 0, got + c0, -1)
            return lead, None
    # echelon the top half, reduce the bottom half by it in one product,
    # echelon the bottom half, then (for the reduced form) clear its pivots
    # from the top half
    h = m // 2
    lead_t, E_t = _echelon(A[:h], p, True)  # reduce_rows needs E_t[:, piv] = I
    r_t = len(E_t)
    if r_t == n:
        return np.concatenate([lead_t, np.full(m - h, -1, dtype=np.int64)]), E_t
    bottom = A[h:]
    if r_t:
        reduce_rows(bottom, lead_t[lead_t >= 0], E_t, p)
    lead_b, E_b = _echelon(bottom, p, reduced)
    lead = np.concatenate([lead_t, lead_b])
    if not reduced:
        return lead, None
    r_b = len(E_b)
    if r_b and r_t:
        reduce_rows(E_t, lead_b[lead_b >= 0], E_b, p)
    # move the bottom rows up under the top ones, in pieces that do not
    # overlap (none when the top half is independent)
    gap = h - r_t
    for s in range(0, r_b if gap else 0, gap or 1):
        e = min(s + gap, r_b)
        A[r_t + s : r_t + e] = A[h + s : h + e]
    return lead, A[: r_t + r_b]


def _echelon_block(A, p, reduced):
    """A dense block, one pivot at a time, on one int64 copy B of it: each
    row r in order, already reduced by the rows above, leads at its first
    nonzero entry j; it is made monic and kept, and one in-place update
    B[:, j:] -= c B[r, j:], c = B[:, j] mod p, clears column j from every
    later row and, when reduced, from every other row.  An update takes at
    most (p - 1)^2 off an entry in [0, p), so B is folded mod p with _mod
    after every (2^63 - p) // (p - 1)^2 updates, and the kept rows when they
    are written to A; row r is folded when it is reached after an update."""
    m, n = A.shape
    lead = np.full(m, -1, dtype=np.int64)
    B = A.astype(np.int64)
    headroom = (2**63 - p) // (p - 1) ** 2
    kept, updates = [], 0  # updates since the last fold
    for r in range(m):
        row = B[r]
        if updates:
            row %= p
        nz = row.nonzero()[0]
        if not nz.size:
            continue
        j = int(nz[0])
        if row[j] != 1:
            row[j:] *= pow(int(row[j]), p - 2, p)
            row[j:] %= p
        lead[r] = j
        kept.append(r)
        rest = B if reduced else B[r + 1 :]
        c = rest[:, j] % p
        if reduced:
            c[r] = 0
        rest[:, j:] -= c[:, None] * row[j:]
        updates += 1
        if updates == headroom:
            _mod(B, p)
            updates = 0
        if len(kept) == n:
            break
    if not reduced:
        return lead, None
    k = len(kept)
    A[:k] = _mod(B[kept], p)
    return lead, A[:k]


def _diagonal_blocks(A):
    """(first row, end row, first column, end column) of each diagonal block
    of A: the rows split before row r when every nonzero entry of the rows
    above lies left of every nonzero entry of the rows from r on.  A run of
    zero rows has no column."""
    m, n = A.shape
    top, bottom = np.flatnonzero(A[0]), np.flatnonzero(A[-1])
    if not len(top) or not len(bottom) or top[-1] >= bottom[0]:
        return [(0, m, 0, n)]  # the first and the last row share a block
    nonzero = A != 0
    has = nonzero.any(axis=1)
    first = np.where(has, nonzero.argmax(axis=1), n)
    last = np.where(has, n - 1 - nonzero[:, ::-1].argmax(axis=1), -1)
    reach = np.maximum.accumulate(last)
    start = np.minimum.accumulate(first[::-1])[::-1]
    cuts = [0] + (np.flatnonzero(reach[:-1] < start[1:]) + 1).tolist() + [m]
    return [(r0, r1, start[r0], max(reach[r1 - 1] + 1, start[r0])) for r0, r1 in zip(cuts, cuts[1:])]


def _echelon_rows(A, p, reduced):
    """The base case of a sparse matrix, whole at any size: row by row,
    each row is reduced at its leading column by the rows kept so far until
    that column is free, then made monic and kept; when reduced,
    back-substitution then clears each pivot column, rightmost first, from
    the other kept rows with clear_column."""
    m, n = A.shape
    if not n:  # argmax needs a column
        return np.full(m, -1, dtype=np.int64), (A[:0] if reduced else None)
    nonzero = A != 0
    first = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1).tolist()
    del nonzero
    lead = np.full(m, -1, dtype=np.int64)
    pivots = {}  # column -> kept row; kept rows overwrite A from the top
    for r in range(m):
        if len(pivots) == n:
            break
        j = first[r]
        if j < 0:
            continue
        vec = A[r]
        if j in pivots:
            vec = vec.astype(np.int64)  # products of residues need int64
        while j in pivots:
            vec = (vec - vec[j] * A[pivots[j]]) % p
            nz = vec.nonzero()[0]  # np.flatnonzero costs 4x as much on short rows
            j = int(nz[0]) if nz.size else -1
        if j < 0:
            continue
        if vec[j] != 1:
            vec = (vec.astype(np.int64) * pow(int(vec[j]), p - 2, p)) % p
        k = len(pivots)
        A[k] = vec
        pivots[j] = k
        lead[r] = j
    if not reduced:
        return lead, None
    E = A[: len(pivots)]
    # a kept row is zero left of its own pivot, so clearing the pivot
    # columns rightmost first never brings back an entry cleared before
    for j, k in sorted(pivots.items(), reverse=True):
        hit = E[:, j].nonzero()[0]
        if len(hit) > 1:  # row k is one of them
            clear_column(E, hit[hit != k], j, E[k], p)
    return lead, E
