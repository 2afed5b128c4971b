"""The GF(p) elimination kernel against the row-by-row oracle."""

import sys

import numpy as np
import pytest
from elimination_oracle import eliminate_rows

from wgb.linalg import BASE_ROWS, SPARSE_ROW_NONZEROS, row_echelon, row_rank_profile

PRIMES = (2, 3, 65521, 2**31 - 1)
SHAPES = [
    (1, 1), (3, 7), (7, 3),
    (BASE_ROWS, 20), (BASE_ROWS + 1, 20),  # both sides of the threshold
    (40, 70), (70, 40), (130, 90), (90, 130),
]


def _assert_kernel_matches_oracle(A, p):
    want_lead, kept = eliminate_rows(A, p)
    assert row_rank_profile(A.copy(), p).tolist() == want_lead
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
    for m, n in SHAPES:
        for A in _random_matrices(rng, p, m, n):
            _assert_kernel_matches_oracle(A, p)
    zero = np.zeros((30, 12), dtype=np.int64)
    _assert_kernel_matches_oracle(zero, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("path", ["rows", "blocked"])
def test_row_rank_profile_matches_oracle_on_each_path(p, path, monkeypatch):
    # the count-only call leaves out the clearing steps of both paths: force
    # every matrix onto the row loop, or split it down to single rows
    import wgb.linalg as linalg

    if path == "rows":
        monkeypatch.setattr(linalg, "BASE_ROWS", 10**9)
    else:
        monkeypatch.setattr(linalg, "BASE_ROWS", 1)
        monkeypatch.setattr(linalg, "SPARSE_ROW_NONZEROS", -1)
    rng = np.random.default_rng(p % 997)
    for m, n in SHAPES:
        for A in _random_matrices(rng, p, m, n) + [np.zeros((m, n), dtype=np.int64)]:
            want = eliminate_rows(A, p)[0]
            assert row_rank_profile(A.copy(), p).tolist() == want
            assert row_rank_profile(A.astype(np.int32), p).tolist() == want
            assert row_echelon(A.copy(), p)[0].tolist() == want


def test_row_rank_profile_skips_the_clearing_steps(monkeypatch):
    # the clearing steps reduce kept echelon rows: the row loop's final pass
    # and the blocked path's update of the top half.  The count-only call
    # makes neither for the whole matrix; its top halves stay reduced, as
    # the reduction of each bottom half by its top half needs them
    import wgb.linalg as linalg

    calls = []  # (clearing step?, rows of the matrix being echelonned)
    inner = linalg.reduce_rows

    def recorded(X, piv, E, p):
        caller = sys._getframe(1)
        clearing = caller.f_code.co_name == "_echelon_rows" or X is caller.f_locals.get("E_t")
        calls.append((clearing, caller.f_locals["A"].shape[0]))
        return inner(X, piv, E, p)

    monkeypatch.setattr(linalg, "reduce_rows", recorded)
    rng = np.random.default_rng(5)
    for m, n in [(BASE_ROWS, 20), (8 * BASE_ROWS, 60)]:
        A = rng.integers(0, 65521, size=(m, n), dtype=np.int64)
        A[1::4] = A[::4]  # dependent rows
        row_echelon(A.copy(), 65521)
        full = list(calls)
        calls.clear()
        assert row_rank_profile(A.copy(), 65521).tolist() == eliminate_rows(A, 65521)[0]
        assert (True, m) in full and (True, m) not in calls
        assert sum(c for c, _ in calls) < sum(c for c, _ in full)
        assert [c for c in calls if not c[0]] == [c for c in full if not c[0]]
        calls.clear()


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

    def counted(A, p, reduced):
        calls.append(A.shape[0])
        return inner(A, p, reduced)

    monkeypatch.setattr(linalg, "_echelon_rows", counted)
    rng = np.random.default_rng(3)
    m = 8 * BASE_ROWS
    dense = rng.integers(0, 65521, size=(m, 100), dtype=np.int64)
    row_echelon(dense, 65521)
    assert len(calls) > 1 and max(calls) <= BASE_ROWS
    calls.clear()
    # two entries a row
    sparse = np.zeros((m, 100), dtype=np.int64)
    sparse[np.arange(m), rng.integers(0, 50, size=m)] = 1
    sparse[np.arange(m), rng.integers(50, 100, size=m)] = 1
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


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0)])
def test_kernel_accepts_a_matrix_without_rows_or_columns(shape):
    for dtype in (np.int64, np.int32):
        A = np.zeros(shape, dtype=dtype)
        assert row_rank_profile(A.copy(), 7).tolist() == [-1] * shape[0]
        lead, E = row_echelon(A.copy(), 7)
        assert lead.tolist() == [-1] * shape[0]
        assert E.shape == (0, shape[1])


def _signature_shaped(rng, p, n):
    """Matrices whose leading rows hold one nonzero entry each, as the
    multiples of pure powers do in a signature run, in every arrangement:
    the matrix engine reads such rows off itself, and the kernel, which
    looks for none, must still get them right."""
    def units(k, cols):
        U = np.zeros((k, n), dtype=np.int64)
        U[np.arange(k), cols] = rng.integers(1, p, size=k)
        return U

    def rest(m, density):
        return rng.integers(0, p, size=(m, n), dtype=np.int64) * (rng.random((m, n)) < density)

    repeated = rng.integers(0, n // 2, size=n)  # repeated columns
    late = rest(12, 0.3)
    late[5] = units(1, [repeated[0]])[0]  # a unit row after the first other one
    late[8] = units(1, [n - 1])[0]
    every = units(n + 3, np.concatenate([rng.permutation(n), repeated[:3]]))
    return [
        np.vstack([units(n, repeated), rest(30, 0.3)]),
        np.vstack([units(n, repeated), rest(60, 0.9)]),  # a dense rest, split
        np.vstack([units(3, repeated[:3]), late]),
        np.vstack([every, rest(10, 0.5)]),  # the unit rows take every column
        every,  # every row a unit row
        (rest(20, 0.5) + units(20, rng.integers(0, n, size=20))) % p,  # no unit row
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_leading_unit_rows_match_oracle(p):
    rng = np.random.default_rng(p % 991)
    for n in (6, 25):
        for A in _signature_shaped(rng, p, n):
            _assert_kernel_matches_oracle(A, p)
            _assert_kernel_matches_oracle(A.astype(np.int32), p)


def _signature_matrix(run, d, n_inputs):
    """The whole degree-d signature matrix of a run, in its state before
    the degree, every row built in Python: rows u*f_i in input order,
    multipliers increasing, the u divisible by a leading monomial harvested
    for an earlier input skipped.  Returns it with each row's input."""
    from wgb.monomial import mono_divides, mono_mul, monomials_of_wdeg

    cols = {c: j for j, c in enumerate(run.table(d)[0])}
    harvest = list(zip(map(tuple, run.lms.tolist()), run.tags.tolist()))
    rows, owner = [], []
    for i, f in enumerate(run.inputs[:n_inputs]):
        if not f or f.wdeg() > d:
            continue
        earlier = [lm for lm, t in harvest if t < i]
        for u in sorted(monomials_of_wdeg(run.ws.weights, d - f.wdeg()), key=run.ring.order.key):
            if not any(mono_divides(lm, u) for lm in earlier):
                row = [0] * len(cols)
                for e, c in f.terms:
                    row[cols[mono_mul(u, e)]] = c
                rows.append(row)
                owner.append(i)
    return np.array(rows, dtype=np.int64).reshape(-1, len(cols)), np.array(owner)


def test_leading_unit_rows_never_reach_the_row_loop(monkeypatch):
    # on the signature matrices of a mixed-power sequence the kernel gets no
    # row of the leading pure powers: only the other rows, on the columns
    # the powers' multiples leave free.  Mapped back to the whole matrix,
    # its leads and the unit rows' read-off ones are the oracle's
    import wgb.engine as engine
    from wgb.engine import prefix_ideal_dims
    from wgb.structure import froberg_sequence

    sys = froberg_sequence((2, 1, 1), (4, 3, 3), 4)
    units = 3  # the pure powers lead
    state = {}
    real_degree = engine._MatrixRun.run_degree

    def run_degree(run, d, n_inputs=None):
        state["full"], state["owner"] = _signature_matrix(run, d, n_inputs)
        state["kernel"] = None
        got = real_degree(run, d, n_inputs)
        full, owner = state["full"], state["owner"]
        if len(full):
            # the pivots per input, read-off unit rows included, are the oracle's
            lead = np.array(eliminate_rows(full, run.p)[0])
            input_pivots = np.diff([0] + run.prefix_pivots[d]).tolist()
            assert input_pivots == np.bincount(owner[lead >= 0], minlength=len(run.inputs)).tolist()
            seen.append((len(full), int((owner < units).sum()), state["kernel"]))
        return got

    def kernel(A, p):
        full, owner = state["full"], state["owner"]
        unit = owner < units
        free = np.flatnonzero(~full[unit].any(axis=0))
        assert A.tolist() == full[~unit][:, free].tolist()
        lead = row_rank_profile(A.copy(), p)
        oracle = np.array(eliminate_rows(full, p)[0])
        assert np.where(lead >= 0, free[lead], -1).tolist() == oracle[~unit].tolist()
        state["kernel"] = len(A)
        return lead

    seen = []  # (rows, unit rows, rows the kernel got) of each degree
    monkeypatch.setattr(engine._MatrixRun, "run_degree", run_degree)
    monkeypatch.setattr(engine, "row_rank_profile", kernel)
    prefix_ideal_dims(sys, [10] * 4, [10] * 4)
    assert all(k is None or k == m - u for m, u, k in seen)
    rows, unit_rows = (sum(c) for c in list(zip(*seen))[:2])
    assert unit_rows > rows // 2 and any(0 < u < m and k for m, u, k in seen)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("bad", ["at least p", "multiple of p", "negative"])
def test_entries_outside_the_field_refused(dtype, bad):
    # each used to hang the row loop or be misread
    p = 5
    entry = {"at least p": p + 2, "multiple of p": 2 * p, "negative": -3}[bad]
    for A in ([[0, entry, 1], [0, 1, 0], [1, 0, 0]],  # the row loop
              [[0, entry, 0], [1, 1, 1]]):  # a leading unit row
        for eliminate in (row_echelon, row_rank_profile):
            with pytest.raises(ValueError, match=r"entries must lie in \[0, 5\)"):
                eliminate(np.array(A, dtype=dtype), p)
    # the same matrices with entries reduced mod p are accepted
    A = np.array([[0, entry % p, 0], [1, 1, 1]], dtype=dtype)
    assert row_rank_profile(A, p).tolist() == ([1, 0] if entry % p else [-1, 0])
