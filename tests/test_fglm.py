"""Staircase extraction, multiplication matrices, lex change of ordering."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fglm_oracle
import wgb.fglm

from wgb import (
    MonomialOrder,
    PolyRing,
    PolySystem,
    PrimeField,
    buchberger,
    fglm_lex,
    ideal_degree,
    multiplication_matrices,
    quotient_hilbert_series,
    staircase,
)
from wgb.errors import PositiveDimensionError, StaircaseTooLargeError
from wgb.linalg import matmul_mod
from wgb.monomial import monomials_of_wdeg
from wgb.structure import random_affine_system, random_w_homogeneous_system


def ring(weights, names=None):
    return PolyRing(PrimeField(65521), weights, names=names)


def zero_dim_samples(count, rng):
    """Random regular strongly compatible zero-dimensional systems, n <= 3."""
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        n = rng.choice([1, 2, 3])
        W = tuple(rng.choice([1, 2, 3]) for _ in range(n))
        D = tuple(w * rng.choice([1, 2, 3]) for w in W)
        sys = random_w_homogeneous_system(W, D, seed)
        out.append((sys, W, D))
    return out


def test_staircase_examples():
    R = ring((1, 1, 1))
    gb = buchberger(PolySystem(R, list(R.gens())))
    assert staircase(gb) == [(0, 0, 0)]
    sys = random_w_homogeneous_system((2, 1), (4, 4), seed=21)
    gb2 = buchberger(sys)
    assert len(staircase(gb2)) == 8


def test_staircase_positive_dimension_error():
    R = ring((1, 1))
    x, y = R.gens()
    gb = buchberger(PolySystem(R, [x * y]))
    with pytest.raises(PositiveDimensionError):
        staircase(gb)


def test_staircase_matches_quotient_series_degree():
    rng = random.Random(6)
    for sys, W, D in zero_dim_samples(20, rng):
        gb = buchberger(sys)
        B = staircase(gb)
        assert len(B) == ideal_degree(quotient_hilbert_series(gb))


def test_multiplication_matrix_shift():
    R = ring((1,), names=("X",))
    x = R.gen(0)
    gb = buchberger(PolySystem(R, [x ** 2]))
    (M,) = multiplication_matrices(gb)
    assert M.tolist() == [[0, 0], [1, 0]]
    assert (np.linalg.matrix_power(M, 2) % 65521 == 0).all()


def test_multiplication_matrices_commute():
    rng = random.Random(9)
    for sys, W, D in zero_dim_samples(8, rng):
        if sys.n < 2:
            continue
        gb = buchberger(sys)
        mats = multiplication_matrices(gb)
        p = 65521
        # int32 matrices: a raw product would overflow
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert (matmul_mod(mats[i], mats[j], p) == matmul_mod(mats[j], mats[i], p)).all()


def test_multiplication_matrix_trace():
    # (X^2 - 1, Y - X): roots (1,1), (-1,-1): trace of M_X is 0
    R = ring((1, 1), names=("X", "Y"))
    X, Y = R.gens()
    gb = buchberger(PolySystem(R, [X ** 2 - R.one(), Y - X]))
    mats = multiplication_matrices(gb)
    assert int(mats[0].trace()) % 65521 == 0


def test_fglm_already_lex_shaped():
    R = ring((1, 1), names=("X", "Y"))
    X, Y = R.gens()
    sys = PolySystem(R, [X - R.const(1), Y - R.const(2)])
    gb = buchberger(sys)
    lex_gb = fglm_lex(gb)
    direct = buchberger(sys.with_order(MonomialOrder.lex((1, 1))))
    assert [g.terms for g in lex_gb.polys] == [g.terms for g in direct.polys]


def test_fglm_unit_ideal():
    R = ring((1,))
    gb = buchberger(PolySystem(R, [R.one()]))
    lex_gb = fglm_lex(gb)
    assert [str(g) for g in lex_gb.polys] == ["1"]


def test_fglm_matches_direct_lex():
    rng = random.Random(77)
    for sys, W, D in zero_dim_samples(25, rng):
        gb = buchberger(sys)
        lex_gb = fglm_lex(gb)
        direct = buchberger(sys.with_order(MonomialOrder.lex(W)))
        assert [g.terms for g in lex_gb.polys] == [g.terms for g in direct.polys], (W, D)
        assert lex_gb.spolynomial_audit()
        assert len(staircase(lex_gb)) == len(staircase(gb))


def test_fglm_affine_system():
    # works on non-homogeneous zero-dimensional ideals too
    R = ring((1, 1), names=("X", "Y"))
    X, Y = R.gens()
    sys = PolySystem(R, [X ** 2 + Y - R.const(3), Y ** 2 - X])
    gb = buchberger(sys)
    lex_gb = fglm_lex(gb)
    direct = buchberger(sys.with_order(MonomialOrder.lex((1, 1))))
    assert [g.terms for g in lex_gb.polys] == [g.terms for g in direct.polys]


def test_fglm_cost_shape():
    # operation count grows no faster than c * n * degree^3 on a doubling
    # ladder of staircase sizes
    ops = {}
    for k in (3, 4, 5, 6):
        sys = random_w_homogeneous_system((1, 1), (2 ** (k // 2), 2 ** (k - k // 2)), seed=k)
        gb = buchberger(sys)
        lex_gb, stats = fglm_lex(gb, return_stats=True)
        assert stats.degree == 2 ** k
        ops[2 ** k] = stats.field_ops
    cs = {deg: ops[deg] / (2 * deg ** 3) for deg in ops}
    # the per-degree constants stay within a tame band across a 8x ladder
    assert max(cs.values()) / min(cs.values()) < 64, cs


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
def test_fglm_exact_at_every_supported_modulus(p):
    # at p = 2^31 - 1 a plain int64 mat-vec product overflows on this staircase
    sys = random_w_homogeneous_system((1, 1, 1), (3, 3, 4), seed=3, field=p)
    gb = buchberger(sys)
    assert len(staircase(gb)) == 36
    direct = buchberger(sys.with_order(MonomialOrder.lex((1, 1, 1))))
    assert [f.terms for f in fglm_lex(gb).polys] == [f.terms for f in direct.polys]


def test_modulus_bound_enforced():
    with pytest.raises(ValueError, match="2\\^31"):
        PrimeField(2**31 + 11)  # the smallest prime above the bound
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_fglm_rejects_staircase_beyond_exact_range(monkeypatch):
    import wgb.fglm

    monkeypatch.setattr(wgb.fglm, "MAX_STAIRCASE", 36)
    gb = buchberger(random_w_homogeneous_system((1, 1, 1), (3, 3, 4), seed=3))
    with pytest.raises(StaircaseTooLargeError):
        fglm_lex(gb)


def test_matvec_mod_matches_exact_integers():
    rng = np.random.default_rng(5)
    for p in (2, 65521, 2**31 - 1):
        M = rng.integers(0, p, size=(300, 300), dtype=np.int64)
        v = rng.integers(0, p, size=300, dtype=np.int64)
        B = rng.integers(0, p, size=(300, 7), dtype=np.int64)
        Mo, vo, Bo = (X.astype(object) for X in (M, v, B))
        assert matmul_mod(M, v, p).tolist() == ((Mo @ vo) % p).tolist()
        assert matmul_mod(v, M, p).tolist() == ((vo @ Mo) % p).tolist()
        assert matmul_mod(M, B, p).tolist() == ((Mo @ Bo) % p).tolist()
    # At each bound one more term takes the split path; with all entries
    # p - 1 the k = 64 sums are as large as they can be, and with p - 2 the
    # k = 65 sums are odd and beyond the bound, where one product would
    # overflow int64 or round in float64.
    for p, bound, shape in [
        (379625047, 2**63, lambda k: (k,)),  # matrix-vector, int64
        (11863279, 2**53, lambda k: (k, 2)),  # matrix-matrix, float64
    ]:
        assert 64 * (p - 1) ** 2 < bound <= 65 * (p - 2) ** 2
        for k, c in ((64, p - 1), (65, p - 2)):
            M = np.full((3, k), c, dtype=np.int64)
            X = np.full(shape(k), c, dtype=np.int64)
            assert (matmul_mod(M, X, p) == k * c * c % p).all()


def _counting_reduce_poly():
    """Patch wgb.fglm.reduce_poly with a mock that counts its calls."""
    return mock.patch.object(wgb.fglm, "reduce_poly", wraps=wgb.fglm.reduce_poly)


@st.composite
def fglm_inputs(draw):
    """(system, lex source): n <= 3, weights 1 or 2, degrees 2 to 4 (a
    degree product up to 16 homogeneous, 12 affine: direct lex Buchberger
    on affine systems grows fast), at every test modulus.  A quarter of
    the time one equation is left out, which makes the ideal
    positive-dimensional."""
    n = draw(st.integers(1, 3))
    W = tuple(draw(st.sampled_from([1, 2])) for _ in range(n))
    D = tuple(draw(st.integers(2, 4)) for _ in range(n))
    homogeneous = draw(st.booleans())
    assume(all(monomials_of_wdeg(W, d) for d in D))
    assume(math.prod(D) <= (16 if homogeneous else 12))
    if n > 1 and draw(st.integers(0, 3)) == 0:
        D = D[:-1]
    p = draw(st.sampled_from([2, 3, 7, 65521, 2**31 - 1]))
    make = random_w_homogeneous_system if homogeneous else random_affine_system
    sys = make(W, D, draw(st.integers(0, 10**6)), field=p)
    return sys, draw(st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fglm_inputs())
def test_fglm_matches_oracles(case):
    sys, lex_source = case
    lex = MonomialOrder.lex(sys.ring.weights.weights)
    gb = buchberger(sys.with_order(lex) if lex_source else sys)
    try:
        want = fglm_oracle.staircase(gb)
    except PositiveDimensionError:
        with pytest.raises(PositiveDimensionError):
            staircase(gb)
        with pytest.raises(PositiveDimensionError):
            fglm_lex(gb)
        return
    assert staircase(gb) == want
    with _counting_reduce_poly() as reduce_calls:
        mats = multiplication_matrices(gb)
    # a reduced basis needs no polynomial reduction
    assert reduce_calls.call_count == 0
    oracle = fglm_oracle.multiplication_matrices(gb)
    assert all(M.dtype == np.int32 for M in mats)
    assert [M.tolist() for M in mats] == [M.tolist() for M in oracle]
    direct = gb if lex_source else buchberger(sys.with_order(lex))
    assert [f.terms for f in fglm_lex(gb).polys] == [f.terms for f in direct.polys]
