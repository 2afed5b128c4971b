"""The GF(p) elimination kernel against the row-by-row oracle."""

import numpy as np
import pytest
from elimination_oracle import eliminate_rows

from wgb.linalg import BASE_ROWS, SPARSE_ROW_NONZEROS, row_echelon

PRIMES = (2, 3, 65521, 2**31 - 1)


def _assert_kernel_matches_oracle(A, p):
    want_lead, kept = eliminate_rows(A, p)
    lead, E = row_echelon(A.copy(), p)
    assert lead.tolist() == want_lead
    piv = lead[lead >= 0]
    assert E.shape == (len(piv), A.shape[1])
    assert ((E >= 0) & (E < p)).all()
    # reduced row echelon form: zero left of its own pivot, the identity in
    # the pivot columns ...
    for k, j in enumerate(piv.tolist()):
        assert not E[k, :j].any()
    assert E[:, piv].tolist() == np.eye(len(piv), dtype=np.int64).tolist()
    # ... and the row space of the oracle's kept rows, as many as there are
    if kept:
        K = np.array(kept, dtype=object)
        assert ((K[:, piv] @ E.astype(object) - K) % p == 0).all()


def _random_matrices(rng, p, m, n):
    """Dense, sparse, rank-deficient, with zero and duplicate rows."""
    dense = rng.integers(0, p, size=(m, n), dtype=np.int64)
    sparse = dense * (rng.random((m, n)) < 2.0 / n)
    k = max(1, min(m, n) // 3)
    low_rank = (
        rng.integers(0, p, size=(m, k), dtype=np.int64).astype(object)
        @ rng.integers(0, p, size=(k, n), dtype=np.int64).astype(object)
    ) % p
    holes = dense.copy()
    holes[rng.random(m) < 0.3] = 0
    dup = dense[rng.integers(0, max(1, m // 2), size=m)]
    return [dense, sparse, low_rank.astype(np.int64), holes, dup]


@pytest.mark.parametrize("p", PRIMES)
def test_row_echelon_matches_oracle(p):
    rng = np.random.default_rng(p % 1000)
    shapes = [
        (1, 1), (3, 7), (7, 3),
        (BASE_ROWS, 20), (BASE_ROWS + 1, 20),  # both sides of the threshold
        (40, 70), (70, 40), (130, 90), (90, 130),
    ]
    for m, n in shapes:
        for A in _random_matrices(rng, p, m, n):
            _assert_kernel_matches_oracle(A, p)
    zero = np.zeros((30, 12), dtype=np.int64)
    _assert_kernel_matches_oracle(zero, p)


@pytest.mark.parametrize("p", PRIMES)
def test_row_echelon_full_rank_before_last_row(p):
    # full rank after the first rows: the rest reduce to zero without being
    # reduced, on the row loop and on the blocked path
    rng = np.random.default_rng(7)
    for m, n in [(6, 4), (200, 25)]:
        A = rng.integers(0, p, size=(m, n), dtype=np.int64)
        A[:n] = np.eye(n, dtype=np.int64) + np.triu(A[:n], 1)
        lead, E = row_echelon(A.copy(), p)
        assert lead[:n].tolist() == list(range(n))
        assert (lead[n:] == -1).all() and len(E) == n
        _assert_kernel_matches_oracle(A, p)


def test_row_echelon_takes_both_paths(monkeypatch):
    # a dense matrix over the threshold is split; a sparse one of the same
    # size goes to the row loop whole
    import wgb.linalg as linalg

    calls = []
    inner = linalg._echelon_rows

    def counted(A, p):
        calls.append(A.shape[0])
        return inner(A, p)

    monkeypatch.setattr(linalg, "_echelon_rows", counted)
    rng = np.random.default_rng(3)
    m = 8 * BASE_ROWS
    dense = rng.integers(0, 65521, size=(m, 100), dtype=np.int64)
    row_echelon(dense, 65521)
    assert len(calls) > 1 and max(calls) <= BASE_ROWS
    calls.clear()
    sparse = np.zeros((m, 100), dtype=np.int64)
    sparse[np.arange(m), rng.integers(0, 100, size=m)] = 1
    assert np.count_nonzero(sparse) <= SPARSE_ROW_NONZEROS * m
    row_echelon(sparse, 65521)
    assert calls == [m]


def test_row_echelon_int32_storage():
    # the matrix engine stores its matrices as int32; every product of two
    # residues must still be formed in int64
    rng = np.random.default_rng(11)
    for p in (65521, 2**31 - 1):
        for m, n in [(BASE_ROWS, 30), (60, 40)]:
            A = rng.integers(0, p, size=(m, n), dtype=np.int64)
            A[m // 2 :] = A[: m - m // 2]  # dependent rows reduce through products
            lead, E = row_echelon(A.astype(np.int32), p)
            assert lead.tolist() == eliminate_rows(A, p)[0]
            assert E.tolist() == row_echelon(A.copy(), p)[1].tolist()
