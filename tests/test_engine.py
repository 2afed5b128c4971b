"""Groebner engines: Buchberger, matrix variant, pullback strategy, elimination."""

import math
import random
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from spolynomial_oracle import spolynomial_audit

from wgb import (
    MonomialOrder,
    PolyRing,
    PolySystem,
    PrimeField,
    buchberger,
    elimination_gb,
    expand_rational,
    gb_via_homw,
    hom_w,
    macaulay_snp,
    macaulay_weak,
    matrix_gb_whomog,
    reduce_poly,
    spoly,
    truncate_semiregular,
    weighted_bezout,
)
from wgb.engine import prefix_ideal_dims
from wgb.errors import (
    BudgetExceededError,
    EmptySupportError,
    IncompleteBasisError,
    InsufficientWindowError,
    NotWHomogeneousError,
)
from wgb.fglm import staircase
from wgb.monomial import monomials_of_wdeg
from wgb.series import monomial_census
from wgb.structure import (
    is_regular_sequence,
    is_snp,
    random_affine_system,
    random_w_homogeneous_system,
)


def ring(weights, p=65521, names=None):
    return PolyRing(PrimeField(p), weights, names=names)


def test_single_polynomial_is_its_own_basis():
    R = ring((2, 1))
    x, y = R.gens()
    gb = buchberger(PolySystem(R, [x ** 2 + y ** 4]))
    assert len(gb.polys) == 1
    assert gb.stats.reductions_to_zero == 0
    assert gb.stats.observed_dreg == -1  # no pair was reduced


def test_snp_example_basis_content():
    # (X^2 + Y^3, XY) with weights (3, 2): the pair reduction contributes
    # Y^4 = Y*(X^2+Y^3) - X*(XY)
    R = ring((3, 2), names=("X", "Y"))
    X, Y = R.gens()
    gb = buchberger(PolySystem(R, [X ** 2 + Y ** 3, X * Y]))
    assert sorted(str(g) for g in gb.polys) == ["X*Y", "X^2 + Y^3", "Y^4"]
    assert spolynomial_audit(gb)


def test_regular_system_staircase_size():
    sys = random_w_homogeneous_system((2, 1), (4, 4), seed=5)
    gb = buchberger(sys)
    assert len(staircase(gb)) == weighted_bezout((2, 1), (4, 4)) == 8


def test_buchberger_correctness_random():
    rng = random.Random(17)
    for seed in range(25):
        n = rng.choice([2, 3])
        W = tuple(rng.choice([1, 2, 3]) for _ in range(n))
        D = tuple(w * rng.choice([1, 2, 3]) for w in W)
        sys = random_w_homogeneous_system(W, D, seed)
        gb = buchberger(sys)
        assert spolynomial_audit(gb)
        for f in sys.polys:
            assert reduce_poly(f, gb.polys).is_zero


def test_matrix_engine_single_power():
    R = ring((3,))
    x = R.gen(0)
    gb = matrix_gb_whomog(
        PolySystem(R, [x ** 4]), expected_series=expand_rational((12,), (3,))
    )
    assert [str(g) for g in gb.polys] == ["X1^4"]
    assert gb.stats.observed_dreg == 12


def test_matrix_engine_table_rows():
    for W, dreg in [((3, 2, 1), 13), ((3, 1, 2), 14), ((1, 2, 3), 15)]:
        sys = random_w_homogeneous_system(W, (6, 6, 6), seed=2)
        gb = matrix_gb_whomog(sys, expected_series=expand_rational((6, 6, 6), W))
        assert gb.stats.observed_dreg == dreg
        assert spolynomial_audit(gb)


def test_matrix_engine_rejects_affine():
    R = ring((2, 1))
    x, y = R.gens()
    with pytest.raises(NotWHomogeneousError):
        matrix_gb_whomog(PolySystem(R, [x + y]))


def test_matrix_matches_buchberger():
    rng = random.Random(23)
    for seed in range(30):
        n = rng.choice([2, 3])
        W = tuple(rng.choice([1, 2]) for _ in range(n))
        D = tuple(w * rng.choice([2, 3]) for w in W)
        sys = random_w_homogeneous_system(W, D, seed + 100)
        gb1 = buchberger(sys)
        gb2 = matrix_gb_whomog(sys)  # stops on its own certificate
        assert [g.terms for g in gb1.polys] == [g.terms for g in gb2.polys]
        # regular: max w full degrees past the series degree sum(D - W)
        assert gb2.stats.observed_dreg <= sum(D) - sum(W) + max(W)


def test_matrix_engine_self_certified_stop():
    # without a series the run certifies itself at sum(D - W) + max w = 15:
    # degrees 13 to 15 have full rank
    sys = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=2)
    gb = matrix_gb_whomog(sys)
    assert gb.stats.observed_dreg == 15
    assert [g.terms for g in gb.polys] == [g.terms for g in buchberger(sys).polys]


def test_matrix_engine_reaches_every_input():
    # W = (2,), D = (4, 4) at p = 7: the truncated series 1 + T^2 - T^4 ..
    # has a zero coefficient at degree 1 from the weight gap alone, and the
    # inputs lie at degree 4
    sys = random_w_homogeneous_system((2,), (4, 4), seed=1, field=7)
    gb = matrix_gb_whomog(sys)
    assert [str(g) for g in gb.polys] == [str(g) for g in buchberger(sys).polys] == ["X1^2"]


def test_matrix_engine_underdetermined_and_degenerate_input():
    R = ring((1, 1, 1), p=7, names=("X", "Y", "Z"))
    X, Y, Z = R.gens()
    f = X * Y + Z ** 2
    cases = [
        [f, f],  # a repeated polynomial
        [X * Y, X * Z],  # a common factor: a positive-dimensional ideal
        [X ** 0, X],  # a constant
        [X ** 0 * 3, f],
        [f, Y ** 3 - X * Z ** 2],
    ]
    cases += [
        list(random_w_homogeneous_system(W, D, seed, field=p).polys)
        for W, D in [((2, 1, 1), (4,)), ((3, 2, 1), (6, 6)), ((1, 1, 1, 1), (2, 3))]
        for seed in range(3)
        for p in (2, 3, 65521)
    ]
    for polys in cases:
        sys = PolySystem(polys[0].ring, polys)
        gb = matrix_gb_whomog(sys)
        assert [g.terms for g in gb.polys] == [g.terms for g in buchberger(sys).polys], polys
    assert [str(g) for g in matrix_gb_whomog(PolySystem(R, [X ** 0, X])).polys] == ["1"]


def test_reduced_basis_unique_across_pair_orders():
    # shuffling the input polynomials must not change the reduced basis
    rng = random.Random(31)
    for seed in range(20):
        sys = random_w_homogeneous_system((2, 1, 1), (4, 2, 2), seed)
        polys = list(sys.polys)
        rng.shuffle(polys)
        shuffled = PolySystem(sys.ring, polys)
        a = buchberger(sys)
        b = buchberger(shuffled)
        assert [g.terms for g in a.polys] == [g.terms for g in b.polys]


def test_gb_via_homw_trivial_weights_identity():
    sys = random_w_homogeneous_system((1, 1), (3, 3), seed=8)
    a = buchberger(sys)
    b = gb_via_homw(sys)
    assert [g.terms for g in a.polys] == [g.terms for g in b.polys]


def test_gb_via_homw_equivalence():
    rng = random.Random(5)
    for seed in range(30):
        n = rng.choice([2, 3])
        W = tuple(rng.choice([1, 2, 3]) for _ in range(n))
        D = tuple(w * rng.choice([1, 2, 3]) for w in W)
        sys = random_w_homogeneous_system(W, D, seed + 500)
        direct = buchberger(sys)
        pulled = gb_via_homw(sys)
        assert [g.terms for g in direct.polys] == [g.terms for g in pulled.polys]


def test_gb_via_homw_keeps_the_order_of_the_ring():
    # the image is computed under lex and pulls back to the lex basis, not
    # to a relabelled one
    sys = random_w_homogeneous_system((2, 1, 1), (4, 4, 4), seed=1)
    lex_sys = sys.with_order(MonomialOrder.lex((2, 1, 1)))
    pulled = gb_via_homw(lex_sys)
    assert pulled.ring == lex_sys.ring
    assert pulled.order.kind == "lex"
    assert spolynomial_audit(pulled)
    direct = buchberger(lex_sys)
    assert [g.terms for g in pulled.polys] == [g.terms for g in direct.polys]
    assert len(pulled.polys) == 11
    assert len(buchberger(sys).polys) == 9


@st.composite
def _cross_engine_systems(draw):
    """Weighted homogeneous systems with n <= 3, weights 1 to 3 and degrees
    up to 6, square or with one extra equation, at every test modulus."""
    n = draw(st.integers(1, 3))
    W = tuple(draw(st.integers(1, 3)) for _ in range(n))
    D = tuple(draw(st.integers(2, 6)) for _ in range(n + draw(st.integers(0, 1))))
    assume(all(monomials_of_wdeg(W, d) for d in D))
    assume(math.prod(sorted(D)[:n]) <= 24)
    p = draw(st.sampled_from([2, 3, 7, 65521, 2**31 - 1]))
    return random_w_homogeneous_system(W, D, draw(st.integers(0, 10**6)), field=p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_cross_engine_systems())
def test_engines_agree_term_for_term(sys):
    from interreduce_oracle import interreduce_fixpoint

    import wgb.engine as engine

    terms = lambda gb: [g.terms for g in gb.polys]
    lex_sys = sys.with_order(MonomialOrder.lex(sys.ring.weights))
    calls = []
    real = engine._interreduce

    def recorded(ring, G):
        out = real(ring, G)
        calls.append((ring, list(G), out))
        return out

    with mock.patch.object(engine, "_interreduce", recorded):
        grevlex = buchberger(sys)
        assert terms(gb_via_homw(sys)) == terms(grevlex)
        assert terms(gb_via_homw(lex_sys)) == terms(buchberger(lex_sys))
    assert terms(matrix_gb_whomog(sys)) == terms(grevlex)
    for ring_, G, out in calls:
        assert [f.terms for f in out] == [f.terms for f in interreduce_fixpoint(ring_, G)]


def test_spoly_transport():
    # the substitution preserves S-polynomials on weighted homogeneous input
    rng = random.Random(71)
    for seed in range(25):
        W = (3, 2, 1) if seed % 2 else (2, 1)
        D = tuple(w * rng.choice([1, 2]) for w in W[: len(W)])
        sys = random_w_homogeneous_system(W, (D[0], D[-1]), seed)
        f, g = sys.polys
        lhs = hom_w(spoly(f, g))
        rhs = spoly(hom_w(f), hom_w(g))
        assert lhs.coeff_map() == rhs.coeff_map()


def test_determinism_bit_identical():
    sys1 = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=9)
    sys2 = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=9)
    a = buchberger(sys1)
    b = buchberger(sys2)
    assert [g.terms for g in a.polys] == [g.terms for g in b.polys]
    assert a.stats.as_dict() == b.stats.as_dict()
    m1 = matrix_gb_whomog(sys1, expected_series=expand_rational((6, 6, 6), (3, 2, 1)))
    m2 = matrix_gb_whomog(sys2, expected_series=expand_rational((6, 6, 6), (3, 2, 1)))
    assert [g.terms for g in m1.polys] == [g.terms for g in m2.polys]
    assert m1.stats.as_dict() == m2.stats.as_dict()


def test_observed_dreg_below_bounds():
    # regular systems respect the weak bound; SNP systems (with the degree
    # hypothesis) respect the sharp bound
    rng = random.Random(3)
    checked_reg = checked_snp = 0
    for seed in range(12):
        W = rng.choice([(2, 1), (3, 2, 1), (2, 2, 1)])
        D = tuple(w * rng.choice([2, 3]) for w in W)
        sys = random_w_homogeneous_system(W, D, seed + 40)
        gb = matrix_gb_whomog(sys, expected_series=expand_rational(D, W))
        if is_regular_sequence(sys).regular:
            checked_reg += 1
            assert gb.stats.observed_dreg <= macaulay_weak(W, D)
        snp = macaulay_snp(W, D)
        if snp.degrees_hypothesis_ok and is_snp(sys).snp:
            checked_snp += 1
            assert gb.stats.observed_dreg <= snp.value
    assert checked_reg >= 10 and checked_snp >= 10


def test_elimination_gb():
    R = ring((1, 1, 2), names=("X", "T1", "T2"))
    X, T1, T2 = R.gens()
    sys = PolySystem(R, [T1 - X, T2 - X ** 2])
    gb, elim = elimination_gb(sys, 1)
    assert [str(f) for f in elim] == ["T1^2 + 65520*T2"]
    with pytest.raises(ValueError):
        elimination_gb(sys, 3)
    gb0, elim0 = elimination_gb(sys, 0)
    assert gb0.order.kind == "wgrevlex"


def test_prefix_ideal_dims_degree_exactness():
    # a degree-truncated run counts the whole ideal exactly on its range:
    # dim I_e = #monomials of degree e - census of the full basis at e
    from wgb.monomial import monomials_of_wdeg
    from wgb.series import staircase_census

    W = (2, 1)
    sys = random_w_homogeneous_system(W, (4, 4), seed=77)
    full = buchberger(sys)
    dims, restricted = prefix_ideal_dims(sys, [6, 6], [6, 6])
    census = staircase_census(full.lt_monomials(), W, 6)
    assert dims[2] == [len(monomials_of_wdeg(W, e)) - census[e] for e in range(7)]
    # setting Y = 0 leaves c*X^2 of f_1 (dense support), whose ideal in k[X]
    # has one monomial in each even degree from 4; with no trailing
    # variable the full prefix is not restricted
    assert restricted[1] == [int(e >= 4 and e % 2 == 0) for e in range(7)]
    assert restricted[2] == dims[2]


def test_incomplete_basis_names_first_divergence():
    # f_3 = f_1: the ideal is (f_1, f_2), whose Hilbert function leaves the
    # generic series of (6, 6, 6) at degree 6, where it misses one generator
    from wgb.series import staircase_census

    W = (3, 2, 1)
    f1, f2, _ = random_w_homogeneous_system(W, (6, 6, 6), seed=2).polys
    sys = PolySystem(f1.ring, [f1, f2, f1])
    expected = expand_rational((6, 6, 6), W)
    with pytest.raises(IncompleteBasisError) as info:
        matrix_gb_whomog(sys, expected_series=expected)
    exc = info.value
    want = buchberger(sys)
    assert [g.terms for g in exc.basis.polys] == [g.terms for g in want.polys]
    assert exc.first_divergence == (6, 5, 4)
    census = staircase_census(want.lt_monomials(), W, 6)
    assert census[:6] == expected.coeffs_upto(5) and census[6] == 5
    assert "degree 6, 5 against 4" in str(exc)


def test_matrix_engine_deadline_keeps_the_run_so_far():
    import wgb.engine as engine

    sys = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=1)
    full = matrix_gb_whomog(sys).stats
    with pytest.raises(BudgetExceededError, match="at degree 6") as info:
        matrix_gb_whomog(sys, deadline=time.monotonic() - 1)
    assert info.value.stats.as_dict() == engine.GBStats(engine="matrix").as_dict()
    # a clock that passes the deadline after degrees 6, 7 and 8 have run
    ticks = iter(range(100))
    clock = SimpleNamespace(monotonic=lambda: next(ticks))
    with mock.patch.object(engine, "time", clock):
        with pytest.raises(BudgetExceededError, match="at degree 9") as info:
            matrix_gb_whomog(sys, deadline=2.5)
    stats = info.value.stats
    assert stats.degrees == [r for r in full.degrees if r.degree < 9]
    assert stats.observed_dreg == 8 and stats.max_matrix_cols == max(r.cols for r in stats.degrees)


@st.composite
def _hilbert_driven_inputs(draw):
    """(system, series) for a Hilbert-driven run: small W and D, square or
    with one extra equation, at p in {2, 3, 7, 65521}; the last input
    sometimes repeats the first, so that the run diverges.  The series is
    the generic one, truncated at its first non-positive coefficient when
    the system is overdetermined or the series is not a polynomial."""
    n = draw(st.integers(1, 3))
    W = tuple(draw(st.integers(1, 3)) for _ in range(n))
    D = tuple(draw(st.integers(2, 6)) for _ in range(n + draw(st.integers(0, 1))))
    assume(all(monomials_of_wdeg(W, d) for d in D))
    assume(math.prod(sorted(D)[:n]) <= 36)
    p = draw(st.sampled_from([2, 3, 7, 65521]))
    sys = random_w_homogeneous_system(W, D, draw(st.integers(0, 10**6)), field=p)
    if len(D) > 1 and draw(st.booleans()):
        sys = PolySystem(sys.ring, list(sys.polys[:-1]) + [sys.polys[0]])
    expected = expand_rational(D, W)
    if len(D) > n or not expected.polynomial:
        try:
            expected = truncate_semiregular(expected)
        except InsufficientWindowError:
            assume(False)
    return sys, expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_hilbert_driven_inputs())
def test_census_divergence_reads_the_runs_own_counts(case):
    # reference: the staircase census of the whole harvest from degree 0
    from wgb.series import staircase_census

    import wgb.engine as engine

    sys, expected = case
    real = engine._MatrixRun.census_divergence
    degrees = []

    def checked(run, series, d):
        got = real(run, series, d)
        upto = series.degree + run.ws.max
        census = staircase_census([g.lm for g in run.basis], run.ws, max(upto, d))
        want = series.coeffs_upto(upto)
        assert got == next(((e, a, b) for e, (a, b) in enumerate(zip(census, want)) if a != b), None)
        assert [run.h(e) for e in range(d + 1)] == census[: d + 1]
        degrees.append(d)
        return got

    with mock.patch.object(engine._MatrixRun, "census_divergence", checked):
        try:
            matrix_gb_whomog(sys, expected_series=expected)
        except IncompleteBasisError:
            pass
    assert degrees


def _interreduce_inputs(monkeypatch, run):
    """The (ring, polys) of every engine._interreduce call made by run()."""
    import wgb.engine as engine

    seen = []
    inner = engine._interreduce

    def record(ring, polys):
        seen.append((ring, list(polys)))
        return inner(ring, polys)

    monkeypatch.setattr(engine, "_interreduce", record)
    run()
    monkeypatch.undo()
    return seen


def _matrix_harvest(monkeypatch, sys):
    """The matrix engine's basis for sys and the rows it harvested."""
    import wgb.engine as engine

    runs = []

    class Recorded(engine._MatrixRun):
        def __init__(self, sys):
            super().__init__(sys)
            runs.append(self)

    monkeypatch.setattr(engine, "_MatrixRun", Recorded)
    gb = matrix_gb_whomog(sys)
    monkeypatch.undo()
    return gb, list(runs[0].basis)


def test_interreduce_matches_fixpoint_oracle(monkeypatch):
    from interreduce_oracle import interreduce_fixpoint

    from wgb.engine import _interreduce

    rng = random.Random(2024)
    cases = []
    for seed in range(16):
        n = rng.choice([2, 3])
        W = tuple(sorted((rng.choice([1, 1, 2, 3]) for _ in range(n)), reverse=True))
        D = tuple(W[0] * rng.choice([2, 3]) + rng.randint(0, 2) for _ in range(n))
        try:
            sys = random_w_homogeneous_system(W, D, seed=seed, field=rng.choice([7, 65521]))
        except EmptySupportError:
            continue
        lex = MonomialOrder.lex(W)
        cases += _interreduce_inputs(monkeypatch, lambda: buchberger(sys))
        cases += _interreduce_inputs(monkeypatch, lambda: buchberger(sys.with_order(lex)))
        cases += _interreduce_inputs(monkeypatch, lambda: elimination_gb(sys, 1))
        # the harvested rows are already reduced: the engine only sorts them
        gb, harvest = _matrix_harvest(monkeypatch, sys)
        want = interreduce_fixpoint(sys.ring, harvest)
        assert [f.terms for f in gb.polys] == [f.terms for f in want], (W, D, seed)
        cases.append((sys.ring, harvest))
    assert len(cases) >= 60
    for R, polys in cases:
        got = [f.terms for f in _interreduce(R, polys)]
        assert got == [f.terms for f in interreduce_fixpoint(R, polys)], (R, polys)


def test_interreduce_one_reduction_per_reduced_element(monkeypatch):
    import wgb.engine as engine

    sys = random_w_homogeneous_system((1, 1, 1), (3, 3, 4), seed=3)
    [(R, G)] = _interreduce_inputs(monkeypatch, lambda: buchberger(sys))
    calls = []
    inner = engine.reduce_poly

    def counted(f, basis):
        calls.append(f)
        return inner(f, basis)

    monkeypatch.setattr(engine, "reduce_poly", counted)
    kept = engine._interreduce(R, G)
    # Buchberger's G has elements whose leading monomial another divides:
    # they are skipped, and each kept element is reduced once
    assert len(G) > len(kept) == len(calls) > 10
    assert [f.lm for f in calls] == [g.lm for g in kept]
    monkeypatch.undo()
    assert [f.terms for f in kept] == [f.terms for f in buchberger(sys).polys]


def _eliminate_through_oracle(monkeypatch):
    """Run the matrix engine's elimination, and the count-only runs' rank
    profiles, through the row-by-row oracle."""
    import numpy as np
    from elimination_oracle import eliminate_rows

    import wgb.engine as engine

    def oracle(A, p):
        lead, kept = eliminate_rows(A, p)
        # the engine harvests reduced rows, as row_echelon returns them: clear
        # each pivot column in the other kept rows, the last pivot first
        piv = [j for j in lead if j >= 0]
        for k in sorted(range(len(kept)), key=piv.__getitem__, reverse=True):
            for i in range(len(kept)):
                if i != k and kept[i][piv[k]]:
                    kept[i] = (kept[i] - int(kept[i][piv[k]]) * kept[k]) % p
        return np.array(lead, dtype=np.int64), np.array(kept, dtype=np.int64).reshape(-1, A.shape[1])

    monkeypatch.setattr(engine, "row_echelon", oracle)
    monkeypatch.setattr(engine, "row_rank_profile", lambda A, p: np.array(eliminate_rows(A, p)[0], dtype=np.int64))


@pytest.mark.parametrize("p", [3, 65521, 2**31 - 1])
def test_matrix_engine_off_default_prime_matches_oracle(p, monkeypatch):
    # at p = 2^31 - 1 every product of the kernel takes the 16-bit halves
    rng = random.Random(p)
    for seed in range(10):
        n = rng.choice([2, 3])
        W = tuple(sorted((rng.choice([1, 1, 2]) for _ in range(n)), reverse=True))
        D = tuple(W[0] * rng.choice([2, 3]) for _ in range(n + rng.choice([0, 1])))
        sys = random_w_homogeneous_system(W, D, seed, field=p)
        bounds = [sum(D[: i + 1]) for i in range(len(D))]
        gb = matrix_gb_whomog(sys)
        dims = prefix_ideal_dims(sys, bounds, bounds)
        with monkeypatch.context() as mp:
            _eliminate_through_oracle(mp)
            want = matrix_gb_whomog(sys)
            assert prefix_ideal_dims(sys, bounds, bounds) == dims
        assert [g.terms for g in gb.polys] == [g.terms for g in want.polys]
        assert gb.stats.as_dict() == want.stats.as_dict()
        assert [g.terms for g in gb.polys] == [g.terms for g in buchberger(sys).polys]


def test_matrix_stats_per_degree_record():
    # overdetermined, so some rows reduce to zero despite the criterion
    gb = matrix_gb_whomog(random_w_homogeneous_system((2, 1, 1), (2, 2, 4, 4), seed=9))
    st = gb.stats
    recs = st.degrees
    assert [r.degree for r in recs] == sorted({r.degree for r in recs})
    assert recs[-1].degree == st.observed_dreg
    assert sum(r.zero_reductions for r in recs) == st.reductions_to_zero > 0
    assert max(r.rows for r in recs) == st.max_matrix_rows
    assert max(r.cols for r in recs) == st.max_matrix_cols
    assert all(r.new_pivots + r.zero_reductions == r.rows for r in recs)
    # per input index: four inputs, the counts summing to the degree's
    assert all(len(r.input_pivots) == len(r.input_zero_reductions) == 4 for r in recs)
    assert all(sum(r.input_pivots) == r.new_pivots for r in recs)
    assert all(sum(r.input_zero_reductions) == r.zero_reductions for r in recs)
    assert sum(r.input_zero_reductions[0] for r in recs) == 0  # f_1 alone has no syzygy
    assert sum(r.skipped for r in recs) > 0
    assert st.as_dict()["degrees"] == [r._asdict() for r in recs]


def test_prefix_ideal_dims_counts_only(monkeypatch):
    # a count-only run harvests leading monomials and tags alone: it builds
    # no Polynomial, never asks for the reduced echelon form, and on these
    # sparse matrices (the row loop) makes no reduce_rows call at all
    import wgb.engine as engine
    import wgb.linalg as linalg

    R = PolyRing(65521, (2, 1, 1))
    x, y, z = R.gens()
    sys = PolySystem(R, [x**2, y**3, (x + y**2 + z**2) ** 2, x * z**2 + y**4], (4, 3, 4, 4))
    bounds = [8, 8, 8, 8]
    want = prefix_ideal_dims(sys, bounds, bounds)
    counts = {"Polynomial": 0, "reduce_rows": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    with monkeypatch.context() as mp:
        mp.setattr(engine, "Polynomial", counting("Polynomial", engine.Polynomial))
        mp.setattr(linalg, "reduce_rows", counting("reduce_rows", linalg.reduce_rows))
        matrix_gb_whomog(sys)
        assert counts["Polynomial"] > 0 and counts["reduce_rows"] > 0
        counts.update(Polynomial=0, reduce_rows=0)
        mp.setattr(engine, "row_echelon", None)
        assert prefix_ideal_dims(sys, bounds, bounds) == want
    assert counts == {"Polynomial": 0, "reduce_rows": 0}


def test_monomial_tables_are_shared_and_read_only():
    import wgb.engine as engine

    W = (3, 2, 1)
    monos, arr, last, radix, codes = engine._monomial_table(W, 7)
    assert engine._monomial_table(W, 7)[1] is arr
    assert sorted(monos) == sorted(monomials_of_wdeg(W, 7)) and isinstance(monos, tuple)
    assert arr.tolist() == [list(m) for m in monos]
    # the column codes ascend along the columns, which searchsorted needs
    assert codes.tolist() == (arr @ radix).tolist() and (codes[1:] > codes[:-1]).all()
    for a in (arr, last, radix, codes):
        with pytest.raises(ValueError):
            a[0] = 0
    assert engine._monomial_table.cache_info().maxsize == engine.MONOMIAL_TABLES


def test_monomial_lists_are_bounded():
    import wgb.monomial as monomial

    from wgb.series import monomial_census

    assert monomial.monomials_of_wdeg.cache_info().maxsize == monomial.MONOMIAL_LISTS
    # a cleared memo rebuilds every list, the recursion's own included
    monomial.monomials_of_wdeg.cache_clear()
    W = (1, 5, 5, 20)
    assert [len(monomials_of_wdeg(W, d)) for d in range(61)] == list(monomial_census(W, 60))


def _random_poly(rng, R, terms, top):
    """A nonzero polynomial of 1 to `terms` random terms with exponents up
    to top, its leading coefficient any nonzero residue."""
    p = R.field.p
    coeffs = {
        tuple(rng.randint(0, top) for _ in range(R.n)): rng.randrange(1, p)
        for _ in range(rng.randint(1, terms))
    }
    return R.from_map(coeffs)


@st.composite
def _oracle_cases(draw):
    """A system under one of the three orders, n <= 3, at every test
    modulus, with a random polynomial and divisor list for the normal form
    (a zero divisor among them), all drawn from one seed.  Weighted
    homogeneous systems have n - 1 to n + 1 equations of degrees up to 6
    (a product up to 36 over the n lowest); affine ones n or n + 1 of
    degrees up to 4 (a product up to 16): with fewer equations the
    first-written loop runs for minutes under lex."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.choice([1, 2, 3, 3])
    W = tuple(rng.randint(1, 3) for _ in range(n))
    homogeneous = rng.random() < 0.5
    m = n + rng.choice([-1, 0, 0, 1] if homogeneous else [0, 0, 1])
    D = tuple(rng.randint(2, 6 if homogeneous else 4) for _ in range(m))
    assume(all(monomials_of_wdeg(W, d) for d in D))
    assume(math.prod(sorted(D)[:n]) <= (36 if homogeneous else 16))
    p = rng.choice([2, 3, 7, 65521, 2**31 - 1])
    orders = [MonomialOrder.wgrevlex(W), MonomialOrder.lex(W)]
    if n > 1:
        orders.append(MonomialOrder.elimination(W, 1))
    make = random_w_homogeneous_system if homogeneous else random_affine_system
    sys = make(W, D, rng.randrange(10**6), field=p).with_order(rng.choice(orders))
    R = sys.ring
    f = _random_poly(rng, R, 10, 5)
    divisors = [_random_poly(rng, R, 4, 3) for _ in range(rng.randint(1, 4))]
    divisors.insert(rng.randint(0, len(divisors)), R.zero())
    return sys, homogeneous, f, divisors


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_oracle_cases())
def test_buchberger_layer_matches_first_written_oracle(case):
    import buchberger_oracle as oracle

    sys, homogeneous, f, divisors = case
    # the normal form, zero divisors and a zero input included
    for g in (f, sys.ring.zero()):
        assert reduce_poly(g, divisors).terms == oracle.reduce_poly(g, divisors).terms
    assert reduce_poly(f, list(sys.polys)).terms == oracle.reduce_poly(f, list(sys.polys)).terms
    got, want = buchberger(sys), oracle.buchberger(sys)
    assert [g.terms for g in got.polys] == [g.terms for g in want.polys]
    if homogeneous:
        # the sugar of a pair is the weighted degree of its lcm
        assert got.stats.as_dict() == want.stats.as_dict()


def test_sugar_keeps_direct_lex_small_on_affine_input():
    # the lowest-weighted-degree selection considered 34,191 pairs here
    for seed in (1, 2, 3):
        sys = random_affine_system((1, 1, 1), (3, 3, 3), seed)
        gb = buchberger(sys.with_order(MonomialOrder.lex((1, 1, 1))))
        assert gb.stats.pairs_considered < 5000
        assert spolynomial_audit(gb)


def test_buchberger_bases_share_exponent_tuples(monkeypatch):
    import wgb.poly as poly

    monkeypatch.setattr(poly, "_MONOMIALS", {})
    sys = random_w_homogeneous_system((2, 1, 1), (4, 4, 4), seed=5)
    lex_sys = sys.with_order(MonomialOrder.lex((2, 1, 1)))
    for s in (sys, lex_sys):
        a, b = buchberger(s), buchberger(s)
        shared = {e: e for f in a.polys for e, _ in f.terms}
        assert len(shared) > 10
        assert all(shared[e] is e for f in b.polys for e, _ in f.terms)


@st.composite
def _prefix_dims_cases(draw):
    """A W-homogeneous system with m < n, m = n or m > n inputs (n <= 3),
    some of them monomials (leading, in the middle or none) and some zero,
    at every test modulus, with degree bounds that often run past the
    degree where a prefix's quotient vanishes; all drawn from one seed.

    Some have f_1 divisible by x_n, so that f_1(x_1..x_{n-1}, 0) = 0 and
    the restricted quotient of prefix 1 never vanishes; some a constant
    f_n after two inputs sharing x_1, so that the unit ideal appears at
    prefix n with a non-regular prefix below it."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.choice([1, 2, 3])
    W = tuple(rng.randint(1, 3) for _ in range(n))
    m = max(1, n + rng.choice([-1, 0, 0, 0, 1, 1, 2]))
    D = [rng.randint(1, 4) for _ in range(m)]
    constant = n <= m and rng.random() < 0.1
    if constant:
        D[n - 1] = 0
    assume(all(monomials_of_wdeg(W, d) for d in D))
    p = rng.choice([2, 3, 7, 65521, 2**31 - 1])
    sys = random_w_homogeneous_system(W, D, rng.randrange(10**6), field=p)
    R = sys.ring
    polys = list(sys.polys)

    def times(v, i):
        """x_v times a dense form of degree D[i] - w_v, or f_i if none."""
        if not monomials_of_wdeg(W, D[i] - W[v]):
            return polys[i]
        q = random_w_homogeneous_system(W, (D[i] - W[v],), rng.randrange(10**6), field=p).polys[0]
        return R.gen(v) * q

    if n > 1 and rng.random() < 0.3:
        polys[0] = times(n - 1, 0)
    if constant and n > 2:
        polys[0], polys[1] = times(0, 0), times(0, 1)
    monomial = {
        "leading": lambda i: i < rng.randint(1, m),
        "middle": lambda i: 0 < i < m - 1 and rng.random() < 0.5,
        "none": lambda i: False,
    }[rng.choice(["leading", "middle", "none", "none"])]
    for i in range(m):
        if monomial(i):
            polys[i] = R.from_map({rng.choice(monomials_of_wdeg(W, D[i])): rng.randrange(1, p)})
    if rng.random() < 0.15:
        polys[rng.randrange(m)] = R.zero()
    top = sum(D) + max(W) + 2
    bounds = [rng.randint(max(D), top) if rng.random() < 0.7 else rng.randint(0, top) for _ in range(m)]
    if n <= m and rng.random() < 0.7:
        bounds[rng.randrange(n - 1, m)] = top  # past R/(f_1..f_n)'s certificate, if any
    return PolySystem(R, polys, D), bounds


def _prefix_dims_unsettled(sys, bounds, dims, restricted, d):
    """The prefixes whose rows degree d of `prefix_ideal_dims` still needs
    once certificate (r) holds, from the exact counts up to degree d - 1:
    those below n asked for at d whose restricted quotient k[x_1..x_i]/J_i
    is not zero in the max(w_1..w_i) degrees below d."""
    W = sys.ring.weights.weights
    need = set()
    for i in range(1, sys.n):
        if i <= sys.m and d <= bounds[i - 1]:
            in_vars = monomial_census(W[:i], d)
            if any(restricted[i][e] != in_vars[e] for e in range(max(d - max(W[:i]), 0), d)):
                need.add(i)
    return need


def test_prefix_ideal_dims_match_the_definition(monkeypatch):
    # the counts equal the rank of every prefix's full Macaulay matrix per
    # degree; once certificate (r) holds, no degree builds the rows of a
    # prefix whose dimensions and restricted counts are both known
    from prefix_dims_oracle import prefix_dims_by_rank

    import wgb.engine as engine

    calls, products = [], []
    real = engine._MatrixRun.run_degree

    def recorded(run, d, n_inputs=None):
        calls.append((d, n_inputs))
        return real(run, d, n_inputs)

    monkeypatch.setattr(engine._MatrixRun, "run_degree", recorded)
    product_form = engine.expand_rational
    monkeypatch.setattr(engine, "expand_rational", lambda *a: products.append(a) or product_form(*a))
    reached = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_prefix_dims_cases())
    def check(case):
        sys, bounds = case
        calls.clear()
        products.clear()
        got = prefix_ideal_dims(sys, bounds, bounds)
        # one oracle run to the largest bound gives every prefix's counts
        top, m, n = max(bounds), sys.m, sys.n
        dims, restricted = prefix_dims_by_rank(sys, [top] * m)
        want = [[dims[0]] + [row[: u + 1] for row, u in zip(dims[1:], bounds)],
                [restricted[0]] + [row[: u + 1] for row, u in zip(restricted[1:], bounds)]]
        assert got == want
        # (r): the first degree where R/(f_1..f_n) is zero in the max w
        # degrees below, f_1..f_n all of positive degree
        free = monomial_census(sys.ring.weights.weights, top)
        regular = next(
            (d for d in range(1, top + 1)
             if n <= m and all(f and f.wdeg() > 0 for f in sys.polys[:n])
             and max(i + 1 for i, u in enumerate(bounds) if u >= d) >= n
             and all(dims[n][e] == free[e] for e in range(max(d - max(sys.ring.weights.weights), 0), d))),
            None,
        )
        # the product form is only needed for a prefix below n that is no
        # monomial ideal
        assert bool(products) == (regular is not None and any(len(f.terms) > 1 for f in sys.polys[: n - 1]))
        reached.append(regular is not None)
        # the prefixes of single-term inputs are counted by their census
        units = next((i for i, f in enumerate(sys.polys) if len(f.terms) > 1), m)
        assert all(built > units for _, built in calls)
        # nor does any degree d > 0 build a prefix whose quotient is zero in
        # the min(max w, d) degrees below d, a constant input's included
        w = max(sys.ring.weights.weights)
        for d, built in calls:
            assert not d or any(dims[built][e] != free[e] for e in range(max(d - w, 0), d)), (d, built)
        if regular is not None:
            for d, built in calls:
                if d >= regular:
                    assert built in _prefix_dims_unsettled(sys, bounds, dims, restricted, d), (d, built)
        # a run whose leading inputs are monomials builds none of their rows
        # and harvests each such pivot as the monomial itself
        if len(sys.polys[0].terms) == 1 and math.prod(sorted(sys.degrees)[: sys.n]) <= 36:
            gb = matrix_gb_whomog(sys)
            assert [g.terms for g in gb.polys] == [g.terms for g in buchberger(sys).polys]

    check()
    assert len(reached) >= 300 and sum(reached) >= len(reached) / 3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_prefix_dims_cases(), st.integers(0, 2**32))
def test_prefix_ideal_dims_restricted_counts_only_when_asked(case, seed):
    # the dimensions do not depend on the restricted counts asked for, and
    # each count asked for is the definition's
    from prefix_dims_oracle import prefix_dims_by_rank

    sys, bounds = case
    rng = random.Random(seed)
    asked = [rng.choice([-1, rng.randint(-1, u), u]) for u in bounds]
    dims, none = prefix_ideal_dims(sys, bounds, [-1] * sys.m)
    got = prefix_ideal_dims(sys, bounds, asked)
    want_dims, want_restricted = prefix_dims_by_rank(sys, [max(bounds)] * sys.m)
    assert dims == got[0] == [want_dims[0]] + [row[: u + 1] for row, u in zip(want_dims[1:], bounds)]
    assert none == [[]] * (sys.m + 1)
    assert got[1] == [[0] * (max(asked) + 1)] + [row[: r + 1] for row, r in zip(want_restricted[1:], asked)]


def test_prefix_ideal_dims_refuses_mismatched_bounds():
    sys = random_w_homogeneous_system((2, 1), (4, 4), seed=77)
    for bounds, asked in [([6, 6], [6]), ([6], [6]), ([6, 6], [6, 7])]:
        with pytest.raises(ValueError):
            prefix_ideal_dims(sys, bounds, asked)


def test_prefix_ideal_dims_counts_each_census_once(monkeypatch):
    # a run counts no monomial ideal twice, and a prefix of n inputs or more,
    # which sets no variable to zero, gets its dims row as its restricted
    # row, in a list of its own
    import wgb.engine as engine

    calls = []
    census = engine.staircase_census
    monkeypatch.setattr(
        engine, "staircase_census", lambda gens, W, N: calls.append((tuple(gens), W, N)) or census(gens, W, N)
    )

    def check(sys, bounds):
        calls.clear()
        dims, restricted = prefix_ideal_dims(sys, bounds, bounds)
        assert len(calls) == len(set(calls))
        for i in range(sys.n, sys.m + 1):
            assert restricted[i] == dims[i] and restricted[i] is not dims[i]

    # single-term inputs past n, and a zero one
    R = PolyRing(7, (2, 1))
    x, y = R.gens()
    check(PolySystem(R, [x**2, y**3, R.zero(), x * y]), [6, 6, 6, 6])
    assert len(calls) == 4

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_prefix_dims_cases())
    def cases(case):
        check(*case)

    cases()
