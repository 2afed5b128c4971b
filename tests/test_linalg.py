"""The GF(p) elimination kernel against the row-by-row oracle."""

import sys

import numpy as np
import pytest
from elimination_oracle import eliminate_rows

from wgb.linalg import BASE_ROWS, SPARSE_ROW_NONZEROS, row_echelon, row_rank_profile

PRIMES = (2, 3, 65521, 2**31 - 1)
# the largest prime below 2^30: the dense block step folds its int64 copy
# mod p after every 8 updates, inside a block of BASE_ROWS rows
P30 = 1073741789
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


@pytest.mark.parametrize("p", PRIMES + (P30,))
def test_row_echelon_matches_oracle(p):
    rng = np.random.default_rng(p % 1000)
    for m, n in SHAPES:
        for A in _random_matrices(rng, p, m, n):
            _assert_kernel_matches_oracle(A, p)
    zero = np.zeros((30, 12), dtype=np.int64)
    _assert_kernel_matches_oracle(zero, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("path", ["rows", "block", "blocked"])
def test_row_rank_profile_matches_oracle_on_each_path(p, path, monkeypatch):
    # the count-only call leaves out the clearing steps of every path: force
    # every matrix onto the row loop or onto the dense block step whole, or
    # split it down to single rows
    import wgb.linalg as linalg

    if path == "rows":
        monkeypatch.setattr(linalg, "SPARSE_ROW_NONZEROS", 10**9)
    else:
        monkeypatch.setattr(linalg, "BASE_ROWS", 10**9 if path == "block" else 1)
        monkeypatch.setattr(linalg, "SPARSE_ROW_NONZEROS", -1)
    rng = np.random.default_rng(p % 997)
    for m, n in SHAPES:
        for A in _random_matrices(rng, p, m, n) + [np.zeros((m, n), dtype=np.int64)]:
            want = eliminate_rows(A, p)[0]
            assert row_rank_profile(A.copy(), p).tolist() == want
            assert row_rank_profile(A.astype(np.int32), p).tolist() == want
            assert row_echelon(A.copy(), p)[0].tolist() == want


def test_row_rank_profile_skips_the_clearing_steps(monkeypatch):
    # the clearing steps reduce kept echelon rows: the row loop's
    # back-substitution (clear_column), the dense block step's update of
    # the rows above a pivot, and the blocked path's update of the top half.
    # The count-only call makes none for the whole matrix; its top halves
    # stay reduced, as the reduction of each bottom half by its top half
    # needs them
    import wgb.linalg as linalg

    p = 65521
    calls = []  # (clearing step?, rows of the matrix being echelonned)
    inner_reduce, inner_clear = linalg.reduce_rows, linalg.clear_column

    def recorded(X, piv, E, p):
        caller = sys._getframe(1)
        calls.append((X is caller.f_locals.get("E_t"), caller.f_locals["A"].shape[0]))
        return inner_reduce(X, piv, E, p)

    def clearing(E, rows, j, row, p):
        caller = sys._getframe(1)
        assert caller.f_code.co_name == "_echelon_rows"
        calls.append((True, caller.f_locals["A"].shape[0]))
        return inner_clear(E, rows, j, row, p)

    def block_updates(frame, event, arg):
        # the dense block step's updates, seen line by line as the rows of
        # its int64 copy B that change mod p, other than the pivot row r:
        # rows above r are cleared, rows below it are not clearing steps
        if frame.f_code.co_name != "_echelon_block":
            return None
        last = []

        def line(frame, event, arg):
            B, r = frame.f_locals.get("B"), frame.f_locals.get("r")
            if B is None:
                return line
            now = B % p
            if last and last[1] is not None:
                changed = np.flatnonzero((now != last[0]).any(axis=1))
                m = frame.f_locals["A"].shape[0]
                if (changed < last[1]).any():
                    calls.append((True, m))
                if (changed > last[1]).any():
                    calls.append((False, m))
            last[:] = [now, r]
            return line

        return line

    monkeypatch.setattr(linalg, "reduce_rows", recorded)
    monkeypatch.setattr(linalg, "clear_column", clearing)
    rng = np.random.default_rng(5)
    tracer = sys.gettrace()
    sys.settrace(block_updates)
    try:
        for m, n in [(BASE_ROWS, 20), (8 * BASE_ROWS, 60)]:
            A = rng.integers(0, p, size=(m, n), dtype=np.int64)
            A[1::4] = A[::4]  # dependent rows
            row_echelon(A.copy(), p)
            full = list(calls)
            calls.clear()
            assert row_rank_profile(A.copy(), p).tolist() == eliminate_rows(A, p)[0]
            assert (True, m) in full and (True, m) not in calls
            assert sum(c for c, _ in calls) < sum(c for c, _ in full)
            assert (False, min(m, BASE_ROWS)) in calls  # the updates were seen
            assert [c for c in calls if not c[0]] == [c for c in full if not c[0]]
            calls.clear()
    finally:
        sys.settrace(tracer)


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
    # a dense matrix over the threshold is split down to leaves of the dense
    # block step; a sparse one of the same size goes to the row loop whole
    import wgb.linalg as linalg

    calls = []  # the rows of each leaf, of either base case

    def counted(inner):
        def leaf(A, p, reduced):
            calls.append(A.shape[0])
            return inner(A, p, reduced)
        return leaf

    monkeypatch.setattr(linalg, "_echelon_rows", counted(linalg._echelon_rows))
    monkeypatch.setattr(linalg, "_echelon_block", counted(linalg._echelon_block))
    rng = np.random.default_rng(3)
    m, n = 8 * BASE_ROWS, 16 * BASE_ROWS  # rows of full rank stay dense
    dense = rng.integers(0, 65521, size=(m, n), dtype=np.int64)
    row_echelon(dense, 65521)
    assert len(calls) > 1 and max(calls) <= BASE_ROWS
    calls.clear()
    # two entries a row
    sparse = np.zeros((m, n), dtype=np.int64)
    sparse[np.arange(m), rng.integers(0, n // 2, size=m)] = 1
    sparse[np.arange(m), rng.integers(n // 2, n, size=m)] = 1
    assert np.count_nonzero(sparse) <= SPARSE_ROW_NONZEROS * m
    row_echelon(sparse, 65521)
    assert calls == [m]


@pytest.mark.parametrize("p", (2, 3, 65521, P30, 2**31 - 1))
def test_mod_matches_the_remainder_down_to_the_headroom(p):
    # the dense block step lets entries fall to -headroom (p - 1)^2 before it
    # folds them with _mod, which must then agree with numpy's %
    from wgb.linalg import _mod

    low = -((2**63 - p) // (p - 1) ** 2) * (p - 1) ** 2
    rng = np.random.default_rng(p % 967)
    X = np.concatenate([
        np.array([low, low + 1, low + p - 1, -p, -1, 0, 1, p - 1], dtype=np.int64),
        rng.integers(low, p, size=4000, dtype=np.int64),
        rng.integers(-(p**2), p, size=4000, dtype=np.int64),
    ])
    want = X % p
    assert _mod(X, p) is X and X.tolist() == want.tolist()
    assert ((want >= 0) & (want < p)).all()
    for scalar in (low, -1, 0, p - 1):  # a 0-d product of two vectors
        assert _mod(np.int64(scalar), p) == scalar % p


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


def _dense_blocks(rng, p, m, n):
    """The random matrices of _random_matrices, one of full rank, one with
    zero-led rows (their first columns zero, the first column zero in every
    row), and L U for unit triangular L (m x m) and U (m x n) whose other
    entries are p - 1: the forward elimination's multipliers and pivot rows
    are L and U, so each update takes the most, (p - 1)^2, off an entry and
    the dense block step must fold as often as int64 needs."""
    dense = rng.integers(0, p, size=(m, n), dtype=np.int64)
    # a unit lower triangular r x r minor on random rows and columns
    r = min(m, n)
    rows, cols = rng.choice(m, size=r, replace=False), rng.choice(n, size=r, replace=False)
    full = dense.copy()
    full[np.ix_(rows, cols)] = np.tril(dense[:r, :r], -1) + np.eye(r, dtype=np.int64)
    zero_led = dense.copy()
    zero_led[:, 0] = 0
    for i in np.flatnonzero(rng.random(m) < 0.5):
        zero_led[i, : rng.integers(1, n + 1)] = 0
    L = np.tril(np.full((m, m), p - 1, dtype=object), -1) + np.eye(m, dtype=object)
    U = np.triu(np.full((m, n), p - 1, dtype=object), 1) + np.eye(m, n, dtype=object)
    worst = (L @ U % p).astype(np.int64)
    return _random_matrices(rng, p, m, n) + [full, zero_led, worst]


@pytest.mark.parametrize("p", PRIMES + (P30,))
def test_dense_block_step_matches_oracle(p, monkeypatch):
    # every block of 1 to BASE_ROWS rows goes to the dense block step, wide,
    # square and tall, stored as int64 and as int32
    import wgb.linalg as linalg

    monkeypatch.setattr(linalg, "SPARSE_ROW_NONZEROS", -1)  # none is sparse
    leaves = []
    inner = linalg._echelon_block
    monkeypatch.setattr(linalg, "_echelon_block", lambda A, p, reduced: leaves.append(A.shape) or inner(A, p, reduced))
    rng = np.random.default_rng(p % 977)
    for m in range(1, BASE_ROWS + 1):
        for n in sorted({1, max(1, m // 2), m, m + 1, 3 * m + 2}):
            for A in _dense_blocks(rng, p, m, n) + [np.zeros((m, n), dtype=np.int64)]:
                for M in (A, A.astype(np.int32)):
                    leaves.clear()
                    _assert_kernel_matches_oracle(M, p)
                    assert leaves == [(m, n), (m, n)]  # row_rank_profile, row_echelon


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("budget", ["fixed", "scaled"])
def test_reduce_rows_tiles_match_oracle(p, budget, monkeypatch):
    # reduce_rows tiles its products to max(_BLOCK_ENTRIES, X.size // 8)
    # entries: at these sizes the fixed budget sets every tile, and with
    # _BLOCK_ENTRIES = 1 the scaled one does
    import wgb.linalg as linalg

    if budget == "scaled":
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 1)
    assert max(m * n for m, n in SHAPES) // 8 < 1 << 13
    products = []
    inner = linalg._clear_tile
    monkeypatch.setattr(linalg, "_clear_tile", lambda part, C, E, p: products.append(E.shape) or inner(part, C, E, p))
    rng = np.random.default_rng(p % 971)
    for m, n in SHAPES:
        for A in _random_matrices(rng, p, m, n):
            _assert_kernel_matches_oracle(A, p)
            _assert_kernel_matches_oracle(A.astype(np.int32), p)
    for width in (3, 5):
        for A in _banded(rng, p, 90, 130, width):
            _assert_kernel_matches_oracle(A, p)
    # the scaled budget cuts the products to 1/8 of a matrix
    assert products and (max(c for _, c in products) < 130) == (budget == "scaled")


def test_reduce_rows_tiles_scale_with_the_matrix(monkeypatch):
    # on a large matrix each tile is about an eighth of it: a few dozen
    # products, not the hundreds that tiles of _BLOCK_ENTRIES would take
    import wgb.linalg as linalg
    from wgb.linalg import reduce_rows

    p = 65521
    rng = np.random.default_rng(13)
    X = rng.integers(0, p, size=(600, 500), dtype=np.int64)
    piv = np.sort(rng.choice(500, size=300, replace=False))
    E = rng.integers(0, p, size=(300, 500), dtype=np.int64)
    E[:, piv] = np.eye(300, dtype=np.int64)
    want = (X - X[:, piv] @ E % p) % p  # 300 (p - 1)^2 < 2^63
    products = []
    inner = linalg._clear_tile
    monkeypatch.setattr(linalg, "_clear_tile", lambda part, C, E, p: products.append(E.shape) or inner(part, C, E, p))
    assert X.size // 8 > linalg._BLOCK_ENTRIES  # the scaled budget sets the tiles
    for entries, most in ((linalg._BLOCK_ENTRIES, 64), (X.size, 1)):  # then one tile
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", entries)
        products.clear()
        got = X.copy()
        reduce_rows(got, piv, E, p)
        assert (got == want).all() and 0 < len(products) <= most


def _banded(rng, p, m, n, width):
    """Sparse matrices of m rows, each nonzero on at most width columns from
    its leading one on, the leading columns ascending with gaps: as they
    stand, plus copies with repeated, summed and zero rows, in shuffled row
    order.  Their kept rows carry entries at several later pivot columns."""
    lead = np.sort(rng.choice(n - width + 1, size=m, replace=False))
    A = np.zeros((m, n), dtype=np.int64)
    for r, j in enumerate(lead.tolist()):
        A[r, j : j + width] = rng.integers(1, p, size=width) * (rng.random(width) < 0.8)
        A[r, j] = rng.integers(1, p)
    mixed = A.copy()
    k = rng.choice(m, size=(3, m // 8), replace=False)
    mixed[k[0]] = mixed[k[1]]  # repeated rows
    mixed[k[2]] = (A[k[0]] + A[k[2]]) % p  # sums of two rows
    mixed[k[1][: m // 16]] = 0
    return [A, A[rng.permutation(m)], mixed[rng.permutation(m)]]


@pytest.mark.parametrize("p", PRIMES)
def test_banded_matrices_chain_the_back_substitution(p):
    # banded matrices stay on the row loop whole, and clearing one pivot
    # column from a kept row brings in entries at later pivot columns, so
    # the back-substitution's clears chain
    rng = np.random.default_rng(p % 983)
    for m, n, width in [(BASE_ROWS + 4, BASE_ROWS + 16, 3), (60, 80, 5), (200, 230, 7)]:
        for A in _banded(rng, p, m, n, width):
            assert m > BASE_ROWS and np.count_nonzero(A) <= SPARSE_ROW_NONZEROS * m
            lead, kept = eliminate_rows(A, p)
            piv = [j for j in lead if j >= 0]
            later = (np.array(kept)[:, piv] != 0).sum(axis=1) - 1
            assert later.max() >= width - 1
            _assert_kernel_matches_oracle(A, p)
            _assert_kernel_matches_oracle(A.astype(np.int32), p)


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


@pytest.mark.parametrize("p", PRIMES)
def test_block_diagonal_matrices_match_oracle(p, monkeypatch):
    # a count-only run stacks the matrices of a window of degrees on the
    # diagonal; row_rank_profile eliminates each diagonal block on its own
    import wgb.linalg as linalg

    rng = np.random.default_rng(p % 997)
    split = []
    real = linalg._diagonal_blocks
    monkeypatch.setattr(linalg, "_diagonal_blocks", lambda A: split.append(len(real(A))) or real(A))
    for shapes in ([(20, 30), (25, 10), (12, 40)], [(30, 30), (1, 5), (30, 30)], [(40, 20), (40, 20)]):
        blocks = [rng.integers(0, p, size=s, dtype=np.int64) for s in shapes]
        A = np.zeros((sum(r for r, _ in shapes), sum(c for _, c in shapes)), dtype=np.int64)
        r = c = 0
        for B in blocks:
            B[rng.random(len(B)) < 0.2] = 0  # zero rows inside a block
            B[0, 0] = B[-1, -1] = 1  # a block spans its rows and columns
            A[r : r + len(B), c : c + B.shape[1]] = B
            r, c = r + len(B), c + B.shape[1]
        for M in (A, A.astype(np.int32)):
            split.clear()
            _assert_kernel_matches_oracle(M, p)
            assert len(shapes) in split  # row_rank_profile took the blocks apart
        # a row across two blocks joins them
        joined = A.copy()
        joined[shapes[0][0] - 1, -1] = 1
        _assert_kernel_matches_oracle(joined, p)


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
    # the powers' multiples leave free in the degrees those rows have.
    # Mapped back to the whole matrix, its leads and the unit rows'
    # read-off ones are the oracle's
    import wgb.engine as engine
    from wgb.engine import prefix_ideal_dims
    from wgb.structure import froberg_sequence

    sys = froberg_sequence((2, 1, 1), (4, 3, 3), 4)
    units = 3  # the pure powers lead
    state = {}
    real_degree = engine._MatrixRun.run_degree

    def run_degree(run, window, n_inputs=None):
        # a window's matrix is the oracle's per-degree blocks stacked on
        # the diagonal, each from the run's state before the window
        blocks = [_signature_matrix(run, d, n_inputs) for d in window]
        full = np.zeros((sum(len(b) for b, _ in blocks), sum(b.shape[1] for b, _ in blocks)), dtype=np.int64)
        r = c = 0
        for b, _ in blocks:
            full[r : r + len(b), c : c + b.shape[1]] = b
            r, c = r + len(b), c + b.shape[1]
        state["full"], state["owner"] = full, np.concatenate([owner for _, owner in blocks])
        # the columns of the degrees with a row past the pure powers
        state["reached"] = np.repeat([(owner >= units).any() for _, owner in blocks], [b.shape[1] for b, _ in blocks])
        state["kernel"] = None
        got = real_degree(run, window, n_inputs)
        for d, (full, owner) in zip(window, blocks):
            if len(full):
                # the pivots per input, read-off unit rows included, are the oracle's
                lead = np.array(eliminate_rows(full, run.p)[0])
                input_pivots = np.diff([0] + run.prefix_pivots[d]).tolist()
                assert input_pivots == np.bincount(owner[lead >= 0], minlength=len(run.inputs)).tolist()
        if len(state["full"]):
            seen.append((len(state["full"]), int((state["owner"] < units).sum()), state["kernel"]))
        return got

    def kernel(A, p):
        full, owner = state["full"], state["owner"]
        unit = owner < units
        free = np.flatnonzero(~full[unit].any(axis=0) & state["reached"])
        assert A.tolist() == full[~unit][:, free].tolist()
        lead = row_rank_profile(A.copy(), p)
        oracle = np.array(eliminate_rows(full, p)[0])
        assert np.where(lead >= 0, free[lead], -1).tolist() == oracle[~unit].tolist()
        state["kernel"] = len(A)
        return lead

    seen = []  # (rows, unit rows, rows the kernel got) of each window
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
