"""Groebner engines: Buchberger, matrix variant, pullback strategy, elimination."""

import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    spoly,
    weighted_bezout,
)
from wgb.engine import prefix_ideal_dims
from wgb.errors import EmptySupportError, IncompleteBasisError, NotWHomogeneousError
from wgb.fglm import staircase
from wgb.monomial import monomials_of_wdeg
from wgb.structure import is_regular_sequence, is_snp, random_w_homogeneous_system


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
    assert gb.spolynomial_audit()


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
        assert gb.spolynomial_audit()
        for f in sys.polys:
            assert gb.reduce(f).is_zero


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
        assert gb.spolynomial_audit()


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
        gb2 = matrix_gb_whomog(sys)  # window + audit termination
        assert [g.terms for g in gb1.polys] == [g.terms for g in gb2.polys]


def test_matrix_engine_window_missing_an_input_is_incomplete():
    # W = (2,), D = (4, 4): the series 1 + T^2 - T^4 .. is truncated at its
    # zero coefficient of degree 1, so the window ends at degree 2 and
    # builds no row.  The empty harvest passes the S-polynomial audit, but
    # the inputs do not reduce to zero modulo it.
    sys = random_w_homogeneous_system((2,), (4, 4), seed=1, field=7)
    with pytest.raises(IncompleteBasisError, match="input unreduced"):
        matrix_gb_whomog(sys)
    assert [str(g) for g in buchberger(sys).polys] == ["X1^2"]


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
    assert pulled.spolynomial_audit()
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
    try:
        assert terms(matrix_gb_whomog(sys)) == terms(grevlex)
    except IncompleteBasisError:
        pass
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
    dims = prefix_ideal_dims(sys, [6, 6])
    census = staircase_census(full.lt_monomials(), W, 6)
    assert dims[2] == [len(monomials_of_wdeg(W, e)) - census[e] for e in range(7)]


def test_incomplete_basis_names_first_divergence():
    # dreg is 13: a window ending at 10 leaves leading terms out
    W = (3, 2, 1)
    sys = random_w_homogeneous_system(W, (6, 6, 6), seed=2)
    expected = expand_rational((6, 6, 6), W)
    with pytest.raises(IncompleteBasisError) as info:
        matrix_gb_whomog(sys, expected_series=expected, max_degree=10)
    exc = info.value
    e, got, want = exc.first_divergence
    # every degree up to the window's end is exact
    assert e > 10
    assert want == expected.coeff(e)
    from wgb.series import staircase_census

    census = staircase_census(exc.partial.lt_monomials(), W, e)
    assert census[e] == got > want
    assert census[:e] == expected.coeffs_upto(e - 1)
    assert f"degree {e}, {got} against {want}" in str(exc)
    # with no expected series the divergence is not defined
    with pytest.raises(IncompleteBasisError) as info:
        matrix_gb_whomog(sys, max_degree=10)
    assert info.value.first_divergence is None


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
    """Run the matrix engine's elimination through the row-by-row oracle."""
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


def _matrix_run(sys):
    """The basis, or the partial basis when the window cannot certify one."""
    try:
        return matrix_gb_whomog(sys), True
    except IncompleteBasisError as exc:
        return exc.partial, False


@pytest.mark.parametrize("p", [3, 65521, 2**31 - 1])
def test_matrix_engine_off_default_prime_matches_oracle(p, monkeypatch):
    # at p = 2^31 - 1 every product of the kernel takes the 16-bit halves
    rng = random.Random(p)
    complete = 0
    for seed in range(10):
        n = rng.choice([2, 3])
        W = tuple(sorted((rng.choice([1, 1, 2]) for _ in range(n)), reverse=True))
        D = tuple(W[0] * rng.choice([2, 3]) for _ in range(n + rng.choice([0, 1])))
        sys = random_w_homogeneous_system(W, D, seed, field=p)
        bounds = [sum(D[: i + 1]) for i in range(len(D))]
        gb, ok = _matrix_run(sys)
        dims = prefix_ideal_dims(sys, bounds)
        with monkeypatch.context() as mp:
            _eliminate_through_oracle(mp)
            want, want_ok = _matrix_run(sys)
            assert prefix_ideal_dims(sys, bounds) == dims
        assert ok == want_ok
        assert [g.terms for g in gb.polys] == [g.terms for g in want.polys]
        assert gb.stats.as_dict() == want.stats.as_dict()
        if ok:
            complete += 1
            assert [g.terms for g in gb.polys] == [g.terms for g in buchberger(sys).polys]
    assert complete >= 5


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
    assert sum(r.skipped for r in recs) > 0
    assert st.as_dict()["degrees"] == [r._asdict() for r in recs]
