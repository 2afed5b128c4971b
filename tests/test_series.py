"""Series expansion, truncation, shape analysis and staircase censuses."""

import random
from itertools import combinations_with_replacement

import pytest

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
    series_delta,
    series_integrate,
    shape_params,
    truncate_semiregular,
    validate_ci_shape,
)
from wgb.errors import ArityError, InsufficientWindowError, PositiveDimensionError
from wgb.series import _numerator, staircase_census
from wgb.structure import random_w_homogeneous_system


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
        num = _numerator(D)
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


def test_shape_params_examples():
    sh = shape_params((3, 3, 1), (12, 9, 3))
    assert (sh.delta, sh.sigma, sh.mu) == (17, 6, 5)
    sh2 = shape_params((4, 2, 1), (8, 8, 2))
    assert (sh2.delta, sh2.sigma, sh2.mu) == (11, 5, 1)
    sh3 = shape_params((1,), (5,))
    assert sh3.delta == 4 and sh3.sigma == 0
    assert shape_params((3, 3, 1), (12, 9, 3)).delta_j == (0, 6, 17)


def test_validate_ci_shape_cases():
    W, D = (3, 3, 1), (12, 9, 3)
    rep = validate_ci_shape(expand_rational(D, W), W, D)
    assert rep.self_reciprocal and rep.monotone_pattern_ok and rep.step_width_ok
    W, D = (3, 2, 2), (6, 6, 6)
    rep = validate_ci_shape(expand_rational(D, W), W, D)
    assert rep.self_reciprocal and not rep.monotone_pattern_ok
    W, D = (4, 2, 1), (8, 8, 2)
    rep = validate_ci_shape(expand_rational(D, W), W, D)
    assert not rep.step_width_ok


def test_ci_shape_grid():
    # the guarantees hold for reverse chain-divisible weights with w_n = 1
    # and all degrees divisible by the top weight
    for n in (1, 2, 3):
        for W in rcd_chains(n, 6, last=1):
            ds = [d for d in range(W[0], 19, W[0])]
            for D in combinations_with_replacement(ds, n):
                rep = validate_ci_shape(expand_rational(D, W), W, D)
                assert rep.self_reciprocal, (W, D)
                assert rep.monotone_pattern_ok, (W, D)
                assert rep.step_width_ok, (W, D)


def test_delta_and_integrate():
    geo = HilbertSeries([1] * 11, window=10)
    d = series_delta(geo)
    assert d.coeffs_upto(10) == [1] + [0] * 10
    i = series_integrate(d)
    assert i.coeffs_upto(10) == [1] * 11
    rng = random.Random(4)
    for _ in range(100):
        window = rng.randrange(1, 12)
        coeffs = [rng.randrange(-5, 9) for _ in range(window + 1)]
        s = HilbertSeries(coeffs, window=window)
        assert series_delta(series_integrate(s)).coeffs_upto(window) == coeffs
        assert series_integrate(series_delta(s)).coeffs_upto(window) == coeffs


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
    for _ in range(120):
        n = rng.randrange(1, 4)
        W = tuple(rng.randrange(1, 4) for _ in range(n))
        k = rng.randrange(0, 6)
        gens = [tuple(rng.randrange(0, 5) for _ in range(n)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        N = rng.randrange(0, 11)
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


def test_quotient_series_matches_rational_for_regular():
    sys = random_w_homogeneous_system((2, 1), (4, 4), seed=12)
    gb = buchberger(sys)
    s = quotient_hilbert_series(gb)
    expected = expand_rational((4, 4), (2, 1))
    assert s.coeffs_upto(expected.degree + 2) == expected.coeffs_upto(expected.degree + 2)
    assert ideal_degree(s) == 8


def test_ideal_degree_requires_polynomial():
    with pytest.raises(PositiveDimensionError):
        ideal_degree(HilbertSeries([1, 1, 1], window=2))


def test_dlp_pattern_ideal_degrees():
    # full-scale pattern checked through the series route at its real size
    s = expand_rational((8,) * 5, (2, 2, 2, 2, 1))
    assert s.polynomial and ideal_degree(s) == 2048
    s2 = expand_rational((16,) * 5, (2, 2, 2, 2, 1))
    assert ideal_degree(s2) == 65536
