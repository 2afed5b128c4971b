"""Series expansion, truncation, shape analysis and staircase censuses."""

import math
import operator
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from series_oracle import expand_rational_reconvolved, numerator

from wgb import (
    HilbertSeries,
    PolyRing,
    PolySystem,
    PrimeField,
    buchberger,
    delta_semiregular_n_plus_1,
    expand_rational,
    ideal_degree,
    quotient_hilbert_series,
    truncate_semiregular,
    weighted_bezout,
)
from wgb.errors import ArityError, InsufficientWindowError, PositiveDimensionError
from wgb.fglm import staircase
from wgb.monomial import monomials_of_wdeg, wdeg
from wgb.series import monomial_ideal_is_zero_dim, staircase_census
from wgb.structure import is_regular_sequence, random_w_homogeneous_system


def rcd_chains(n, wmax, last=None):
    """Reverse chain-divisible weight vectors, optionally with fixed w_n."""
    out = []

    def rec(chain):
        if len(chain) == n:
            out.append(tuple(reversed(chain)))
            return
        for m in range(chain[-1], wmax + 1):
            if m % chain[-1] == 0:
                rec(chain + [m])

    starts = [last] if last else list(range(1, wmax + 1))
    for s in starts:
        rec([s])
    return sorted(set(w for w in out if w[0] <= wmax))


def test_window_series_refuses_coefficients_past_its_window():
    s = HilbertSeries([1, 2, 3], window=5)
    assert s.coeffs_upto(5) == [1, 2, 3, 0, 0, 0]
    with pytest.raises(InsufficientWindowError, match="coefficient 6 beyond computed window 5"):
        s.coeff(6)
    # a polynomial series knows every coefficient
    assert HilbertSeries([1, 2, 3], polynomial=True).coeff(6) == 0


def test_coeffs_upto_is_the_list_of_coefficients():
    # a slice of the stored list, padded with zeros, for N below, at and
    # above the stored length; a window series still refuses past its window
    for s in (
        HilbertSeries([1, 2, 0, 3], polynomial=True),
        HilbertSeries([], polynomial=True),
        HilbertSeries([1, 2, 3], window=5),
        HilbertSeries([4], window=0),
        expand_rational((2, 2), (1, 1, 1), 6),
    ):
        last = s.window + 3 if s.polynomial else s.window
        for N in range(-3, last + 1):
            assert s.coeffs_upto(N) == [s.coeff(d) for d in range(N + 1)], (s, N)
        if not s.polynomial:
            with pytest.raises(InsufficientWindowError, match=f"coefficient {s.window + 1} beyond computed window {s.window}"):
                s.coeffs_upto(s.window + 1)


def test_quotient_series_refuses_a_negative_window():
    # zero- and positive-dimensional, as the rational expansion refuses it
    for W, D in [((2, 1), (4, 4)), ((1, 1, 1), (2, 2))]:
        gb = buchberger(random_w_homogeneous_system(W, D, seed=5))
        for N in (-1, -4):
            with pytest.raises(ValueError, match="window must be >= 0"):
                quotient_hilbert_series(gb, N)
        assert quotient_hilbert_series(gb, 0).coeffs_upto(0) == [1]


def test_window_series_compare_on_their_common_window():
    short = HilbertSeries([1, 3, 4], window=2)
    assert short == HilbertSeries([1, 3, 4, 4, 4], window=4)
    assert short == HilbertSeries([1, 3, 4, 9], window=3)
    assert short != HilbertSeries([1, 3, 5, 4], window=3)
    assert HilbertSeries([1, 3, 4, 0], window=3) == HilbertSeries([1, 3, 4], window=6)
    # a window series is never equal to a polynomial one
    assert short != HilbertSeries([1, 3, 4], polynomial=True)


def test_geometric_series():
    s = expand_rational((), (1,), 10)
    assert s.coeffs_upto(10) == [1] * 11
    assert not s.polynomial


def test_fig_sequences_exact():
    s = expand_rational((12, 9, 3), (3, 3, 1))
    assert s.polynomial
    assert s.coeffs == [1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 2, 2, 2, 1, 1, 1]
    s2 = expand_rational((6, 6, 6), (3, 2, 2))
    assert s2.coeffs == [1, 0, 2, 1, 3, 2, 2, 3, 1, 2, 0, 1]
    s3 = expand_rational((8, 8, 2), (4, 2, 1))
    assert s3.coeffs == [1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1]
    # overdetermined, and still a polynomial: (1 + T + T^2)^4 (1 - T^3)
    s4 = expand_rational((3,) * 5, (1, 1, 1, 1))
    assert s4.polynomial
    assert s4.coeffs == [1, 4, 10, 15, 15, 6, -6, -15, -15, -10, -4, -1]


@st.composite
def _rational_inputs(draw):
    """Weights 1..5 on 1..4 variables, 0..6 degrees (0 included, many of
    them multiples of a weight so that many series are polynomials) and a
    window of None, 0, below delta or above sum(D)."""
    W = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    degree = st.one_of(
        st.integers(0, 9), st.builds(operator.mul, st.sampled_from(W), st.integers(0, 3))
    )
    D = tuple(draw(st.lists(degree, max_size=6)))
    delta = sum(D) - sum(W)
    N = draw(
        st.sampled_from([None, 0])
        | st.integers(0, max(delta - 1, 0))
        | st.integers(sum(D) + 1, sum(D) + 8)
    )
    return D, W, N


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_rational_inputs())
@example(((3,) * 5, (1, 1, 1, 1), None))
@example(((3,) * 5, (1, 1, 1, 1), 2))
@example(((3,) * 5, (1, 1, 1, 1), 20))
@example(((0, 4), (2, 1), None))
@example(((), (2, 3), 0))
def test_expand_matches_reconvolution(args):
    # the census times the numerator, polynomial when coefficients
    # delta+1..sum(D) vanish, against the division checked by multiplying
    # the quotient back out
    D, W, N = args
    got = expand_rational(D, W, N)
    want = expand_rational_reconvolved(D, W, N)
    assert (got.coeffs, got.window, got.polynomial) == (want.coeffs, want.window, want.polynomial)


def test_expand_exactness_property():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randrange(1, 4)
        W = tuple(rng.randrange(1, 5) for _ in range(n))
        m = rng.randrange(0, 4)
        D = tuple(rng.randrange(1, 9) for _ in range(m))
        N = 25
        s = expand_rational(D, W, N)
        # multiply the window back by prod(1 - T^w): must equal the numerator
        c = s.coeffs_upto(N)
        for w in W:
            c = [c[i] - (c[i - w] if i >= w else 0) for i in range(N + 1)]
        num = numerator(D)
        num = num[: N + 1] + [0] * max(0, N + 1 - len(num))
        assert c == num


def test_truncate_semiregular():
    s = expand_rational((12, 9, 6, 6, 3), (3, 3, 1))
    t = truncate_semiregular(s)
    assert t.coeffs == [1, 1, 1, 2, 2, 2, 1, 1, 1]
    assert t.degree == 8
    # all-positive polynomial unchanged
    ci = expand_rational((12, 9, 3), (3, 3, 1))
    assert truncate_semiregular(ci).coeffs == ci.coeffs
    # 1, -1 truncates to the constant 1
    t2 = truncate_semiregular(HilbertSeries([1, -1, 5], window=2))
    assert t2.coeffs == [1] and t2.degree == 0
    with pytest.raises(InsufficientWindowError):
        truncate_semiregular(HilbertSeries([1, 2, 3], window=2))


def _plateau(W, D):
    """delta, sigma and mu of the shape statement for degrees in the order
    given: delta = sum(d_i - w_i), sigma = min(delta*, delta // 2) with
    delta* the sum over the first n - 1, and mu = delta - 2 sigma."""
    delta = sum(D) - sum(W)
    sigma = min(sum(D[:-1]) - sum(W[:-1]), delta // 2)
    return delta, sigma, delta - 2 * sigma


def _rises(a, top):
    """The degrees up to top where the coefficients a strictly increase."""
    return [d for d in range(top + 1) if a[d] > (a[d - 1] if d else 0)]


def test_validate_ci_shape_cases():
    # off the hypotheses the shape breaks.  W = (3, 2, 2) is not reverse
    # chain-divisible: the series stays self-reciprocal but falls at once,
    # inside its rise to sigma = 5
    W, D = (3, 2, 2), (6, 6, 6)
    a = expand_rational(D, W).coeffs
    assert a == a[::-1] and _plateau(W, D)[1] == 5 and a[0] > a[1]
    # w_1 = 4 does not divide d_3 = 2: below sigma = 5 the series rises at
    # 0 and 4, not every w_2 = 2
    W, D = (4, 2, 1), (8, 8, 2)
    a = expand_rational(D, W).coeffs
    assert _plateau(W, D)[1] == 5 and _rises(a, 5) == [0, 4]


def test_ci_shape_grid():
    # the guarantees hold for reverse chain-divisible weights with w_n = 1
    # and all degrees divisible by the top weight, sorted ascending:
    # self-reciprocal of degree delta, rising to sigma, flat to sigma + mu,
    # falling after, and rising exactly at the multiples of w_{n-1}
    for n in (1, 2, 3):
        for W in rcd_chains(n, 6, last=1):
            ds = [d for d in range(W[0], 19, W[0])]
            for D in combinations_with_replacement(ds, n):
                delta, sigma, mu = _plateau(W, D)
                a = expand_rational(D, W).coeffs
                assert len(a) == delta + 1 and a == a[::-1], (W, D)
                assert all(map(operator.le, a[:sigma], a[1 : sigma + 1])), (W, D)
                assert len(set(a[sigma : sigma + mu + 1])) == 1, (W, D)
                assert all(map(operator.ge, a[sigma + mu :], a[sigma + mu + 1 :])), (W, D)
                if n >= 2:
                    rises = _rises(a, sigma)
                    assert rises == list(range(0, rises[-1] + 1, W[-2])), (W, D)


def test_series_readers_match_their_coefficients_and_refuse_past_a_window():
    # the truncation cuts at the first coefficient <= 0 that coefficient-wise
    # reads find, on windows longer than the stored list too
    rng = random.Random(8)
    for _ in range(200):
        coeffs = [rng.randrange(-2, 6) for _ in range(rng.randrange(0, 8))]
        s = HilbertSeries(coeffs, window=rng.randrange(0, 10), polynomial=rng.random() < 0.3)
        limit = s.degree if s.polynomial else s.window
        cut = next((d for d in range(limit + 1) if s.coeff(d) <= 0), None)
        if cut is not None:
            assert truncate_semiregular(s).coeffs == s.coeffs[:cut]
        elif not s.polynomial:
            with pytest.raises(InsufficientWindowError):
                truncate_semiregular(s)


def test_delta_semiregular_n_plus_1_values():
    # hand expansions, truncated before the first coefficient <= 0:
    # W=(1,1), D=(2,2,2): (1+T)^2 (1-T^2) = 1 + 2T + 0T^2 - ...  -> 1;
    # W=(2,1), D=(4,4,4): (1+T^2)(1+T+T^2+T^3)(1-T^4)
    #   = 1 + T + 2T^2 + 2T^3 + 0T^4 - ...  -> 3
    assert delta_semiregular_n_plus_1((1, 1), (2, 2, 2)) == 1
    assert delta_semiregular_n_plus_1((3, 3, 1), (12, 9, 6, 3)) == 11
    assert delta_semiregular_n_plus_1((2, 1), (4, 4, 4)) == 3
    # the degrees are a multiset: the order they are given in is irrelevant
    assert delta_semiregular_n_plus_1((1, 1), (6, 2, 2)) == 2
    assert delta_semiregular_n_plus_1((1, 1), (2, 2, 6)) == 2
    with pytest.raises(ArityError):
        delta_semiregular_n_plus_1((2, 1), (4, 4))


def test_delta_formula_vs_truncation():
    # The closed form equals the truncated-series degree, ties (a first
    # non-positive coefficient equal to zero) included; the acceptance
    # suite runs the same check on a larger grid.
    ties = 0
    for n in (1, 2, 3):
        for W in rcd_chains(n, 4, last=1):
            ds = [d for d in range(W[0], 13, W[0])]
            for D in combinations_with_replacement(ds, n + 1):
                t = truncate_semiregular(expand_rational(D, W, sum(D) + 2))
                assert delta_semiregular_n_plus_1(W, D) == t.degree, (W, D)
                assert delta_semiregular_n_plus_1(W, tuple(reversed(D))) == t.degree, (W, D)
                if t.coeff(t.degree + 1) == 0:
                    ties += 1
    # the grid does exercise the tie case
    assert ties > 0
    # pinned instance where both routes agree
    assert (
        truncate_semiregular(expand_rational((12, 9, 6, 3), (3, 3, 1))).degree
        == delta_semiregular_n_plus_1((3, 3, 1), (12, 9, 6, 3))
        == 11
    )


def test_semiregular_negative_window():
    # after the truncation degree, coefficients stay non-positive through
    # delta* + d_m
    for n in (1, 2):
        for W in rcd_chains(n, 3, last=1):
            ds = [d for d in range(W[0], 10, W[0])]
            for D in combinations_with_replacement(ds, n + 1):
                W_, D_ = tuple(W), tuple(D)
                dstar = sum(D_[:-1]) - sum(W_)
                upper = dstar + D_[-1]
                s = expand_rational(D_, W_, max(upper + 1, 4))
                t = truncate_semiregular(s)
                for d in range(t.degree + 1, upper + 1):
                    assert s.coeff(d) <= 0, (W_, D_, d)


def test_census_recursion_vs_enumeration():
    from census_oracle import staircase_census_enumerate

    rng = random.Random(8)
    cases = []
    for _ in range(120):
        n = rng.randrange(1, 4)
        W = tuple(rng.randrange(1, 4) for _ in range(n))
        k = rng.randrange(0, 6)
        gens = [tuple(rng.randrange(0, 5) for _ in range(n)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        cases.append((gens, W, rng.randrange(0, 11)))
    # the unit ideal, alone and beside other generators, and no generator
    for W in [(1,), (2, 1), (3, 2, 1)]:
        unit = (0,) * len(W)
        others = [(2,) + unit[1:], (1,) * len(W)]
        for N in (0, 7):
            cases += [([unit], W, N), (others[:1] + [unit] + others[1:], W, N), ([], W, N)]
    for gens, W, N in cases:
        assert staircase_census(gens, W, N) == staircase_census_enumerate(gens, W, N)


def test_quotient_series_examples():
    R = PolyRing(PrimeField(65521), (1, 1, 1))
    gb = buchberger(PolySystem(R, list(R.gens())))
    s = quotient_hilbert_series(gb)
    assert s.polynomial and s.coeffs == [1]
    assert ideal_degree(s) == 1

    R1 = PolyRing(PrimeField(65521), (1,))
    gb1 = buchberger(PolySystem(R1, [R1.gen(0) ** 2]))
    s1 = quotient_hilbert_series(gb1)
    assert s1.coeffs == [1, 1]
    assert ideal_degree(s1) == 2


@st.composite
def _square_systems(draw):
    """Small dense square W-homogeneous systems at p in {2, 3, 7, 65521};
    the last input sometimes repeats the first."""
    n = draw(st.integers(1, 3))
    W = tuple(draw(st.integers(1, 3)) for _ in range(n))
    D = tuple(draw(st.integers(1, 6)) for _ in range(n))
    assume(all(monomials_of_wdeg(W, d) for d in D))
    assume(math.prod(D) <= 36)
    p = draw(st.sampled_from([2, 3, 7, 65521]))
    sys = random_w_homogeneous_system(W, D, draw(st.integers(0, 10**6)), field=p)
    if n > 1 and draw(st.integers(0, 3)) == 0:
        sys = PolySystem(sys.ring, list(sys.polys[:-1]) + [sys.polys[0]])
    return sys


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_square_systems())
def test_quotient_series_matches_rational_for_regular(sys):
    # the Buchberger census meets the rational form exactly when the
    # signature run calls the sequence regular; a positive-dimensional
    # quotient has no polynomial series and counts as unequal
    W, D = sys.ring.weights.weights, sys.degrees
    expected = expand_rational(D, W)
    try:
        s = quotient_hilbert_series(buchberger(sys))
    except PositiveDimensionError:
        s = None
    assert (s == expected) == is_regular_sequence(sys).regular
    if s == expected:
        assert ideal_degree(s) == weighted_bezout(W, D)


_R = PolyRing(7, (2, 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_square_systems())
@example(PolySystem(_R, [_R.gen(0) ** 3, _R.gen(1) ** 2]))  # the top of the window is reached
@example(PolySystem(_R, [_R.gen(0) + _R.gen(1) ** 2, _R.one()]))  # the unit ideal
def test_zero_dim_quotient_series_counts_the_staircase(sys):
    # the FGLM staircase counted by weighted degree is the oracle for the
    # pivot-recursion census, with N absent, below the degree and above it
    gb = buchberger(sys)
    lts = gb.lt_monomials()
    assume(monomial_ideal_is_zero_dim(lts, sys.n) or lts == [(0,) * sys.n])
    degrees = [wdeg(m, sys.ring.weights) for m in staircase(gb)]
    want = [degrees.count(d) for d in range(max(degrees, default=-1) + 1)]
    for N in (None, max(len(want) - 2, 0), len(want) + 3):
        s = quotient_hilbert_series(gb, N)
        assert s.polynomial and s.coeffs == want and s.window == max(N or 0, len(want) - 1)


def test_ideal_degree_requires_polynomial():
    with pytest.raises(PositiveDimensionError):
        ideal_degree(HilbertSeries([1, 1, 1], window=2))


def test_dlp_pattern_ideal_degrees():
    # full-scale pattern checked through the series route at its real size
    s = expand_rational((8,) * 5, (2, 2, 2, 2, 1))
    assert s.polynomial and ideal_degree(s) == 2048
    s2 = expand_rational((16,) * 5, (2, 2, 2, 2, 1))
    assert ideal_degree(s2) == 65536
