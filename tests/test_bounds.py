"""Degree bounds, denumerants, Frobenius numbers, asymptotics, costs."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from wgb import (
    asymptotic_dreg,
    bounds_report,
    conjectured_dreg,
    delta_semiregular_n_plus_1,
    estimate_costs,
    expand_rational,
    frobenius_number,
    hermite_largest_root,
    macaulay_snp,
    macaulay_weak,
    sylvester_denumerant,
    weighted_bezout,
)
from wgb.monomial import monomials_of_wdeg


def test_macaulay_weak_values():
    assert macaulay_weak((3, 2, 1), (6, 6, 6)) == 15
    assert macaulay_weak((20, 5, 5, 1), (60, 60, 60, 60)) == 229
    # trivial weights give the classical bound sum(d_i - 1) + 1
    assert macaulay_weak((1, 1, 1), (4, 5, 6)) == 4 + 5 + 6 - 3 + 1


def test_macaulay_snp_values():
    assert macaulay_snp((3, 2, 1), (6, 6, 6)).value == 13
    assert macaulay_snp((1, 2, 3), (6, 6, 6)).value == 15
    assert macaulay_snp((3, 1, 2), (6, 6, 6)).value == 14
    # hypothesis failure: (2,1)/(2,1): the general prefix form applies
    snp = macaulay_snp((2, 1), (2, 1))
    assert not snp.degrees_hypothesis_ok
    assert snp.general == 2
    assert snp.value == 1  # the simple form, invalid here


def test_snp_below_weak_grid():
    # non-increasing weights: the sharp form never exceeds the weak form
    for n in (1, 2, 3, 4):
        for W in combinations_with_replacement(range(1, 9), n):
            Wd = tuple(reversed(W))  # non-increasing
            for D in combinations_with_replacement(range(1, 25, 7), n):
                assert macaulay_snp(Wd, D).value <= macaulay_weak(Wd, D)


def test_frobenius_examples():
    assert frobenius_number((2, 3)) == 1
    assert frobenius_number((1, 5, 20)) == -1
    assert frobenius_number((3, 5, 11)) == 7
    assert frobenius_number((3, 5)) == 7
    with pytest.raises(ValueError):
        frobenius_number((2, 4))


def test_frobenius_brute_force_grid():
    for a in range(2, 9):
        for b in range(2, 9):
            if math.gcd(a, b) != 1:
                continue
            # pairwise closed form ab - a - b
            assert frobenius_number((a, b)) == a * b - a - b
    # three and four weights: the last degree a reachability sieve misses
    for n in (3, 4):
        for ws in combinations_with_replacement(range(2, 10), n):
            if math.gcd(*ws) != 1:
                continue
            top = max(ws) ** 2
            reach = [True] + [False] * top
            for v in range(1, top + 1):
                reach[v] = any(v >= w and reach[v - w] for w in ws)
            assert frobenius_number(ws) == max(v for v in range(top + 1) if not reach[v]), ws


def test_conjectured_dreg_values():
    assert conjectured_dreg((20, 5, 5, 1), (60, 60, 60, 60)) == 210
    assert conjectured_dreg((1, 5, 5, 20), (60, 60, 60, 60)) == 220
    assert conjectured_dreg((3, 2, 1), (6, 6, 6)) == 13
    # past 2^53, where d0 / w_n as a float drops the last digits
    assert conjectured_dreg((3, 1), (3 * 10**17 + 3,) * 2) == 6 * 10**17 + 3
    assert conjectured_dreg((3, 2), (3 * 10**17, 2 * 10**17 + 1)) == 5 * 10**17 - 4  # d0 + 1
    with pytest.raises(ValueError):
        conjectured_dreg((2, 4), (4, 8))  # gcd > 1, no unit weight


def test_conjectured_dreg_vs_series_gap():
    # the coefficient at d0 vanishes: past the polynomial degree when some
    # weight is 1, by self-reciprocality at delta - g otherwise
    from wgb.bounds import first_gap_degree

    for W in [(2, 1), (3, 1), (2, 2, 1), (3, 2, 1), (3, 2), (5, 3)]:
        wn = W[-1]
        ds = [w * k for w, k in zip(W, (2, 3, 2))]
        D = tuple(ds[: len(W)])
        s = expand_rational(D, W, sum(D))
        d0 = first_gap_degree(W, D)
        assert s.coeff(d0) == 0, (W, D)
        assert conjectured_dreg(W, D) == wn * math.ceil(d0 / wn), (W, D)
        if 1 in W:
            assert d0 == s.degree + 1
    # with a unit weight and reverse chain-divisible weights the zero at
    # d0 really is the first one: all earlier coefficients are positive
    for W, D in [((2, 1), (4, 2)), ((2, 2, 1), (4, 6, 2)), ((3, 1), (6, 3))]:
        s = expand_rational(D, W, sum(D))
        d0 = first_gap_degree(W, D)
        assert all(s.coeff(d) > 0 for d in range(d0)), (W, D)
        assert s.coeff(d0) == 0


def test_weighted_bezout():
    assert weighted_bezout((2, 2, 2, 2, 1), (16,) * 5) == 65536
    assert weighted_bezout((1, 1, 1), (3, 4, 5)) == 60
    assert weighted_bezout((3, 2, 1), (6, 6, 6)) == 36
    assert weighted_bezout((2, 3), (3, 4)) == Fraction(2)


def test_bezout_integral_on_strongly_compatible():
    for W in [(2, 1), (3, 2, 1), (4, 2, 2)]:
        for ks in product((1, 2, 3), repeat=len(W)):
            D = tuple(w * k for w, k in zip(W, ks))
            assert weighted_bezout(W, D).denominator == 1


def test_denumerant_examples():
    assert sylvester_denumerant(0, (3, 2, 1)) == 1
    for d in range(12):
        assert sylvester_denumerant(d, (1, 1, 1)) == (d + 1) * (d + 2) // 2
    assert sylvester_denumerant(6, (3, 2, 1)) == 7


def test_denumerant_brute_force():
    for n in (1, 2, 3):
        for W in combinations_with_replacement((1, 2, 3, 5, 8), n):
            for d in range(0, 21, 3):
                assert sylvester_denumerant(d, W) == len(monomials_of_wdeg(W, d))


def test_hermite_roots():
    assert hermite_largest_root(1) == 0.0
    assert abs(hermite_largest_root(2) - 1 / math.sqrt(2)) < 1e-9
    assert abs(hermite_largest_root(3) - math.sqrt(1.5)) < 1e-9
    # H_4 = 16x^4 - 48x^2 + 12: largest root sqrt((3+sqrt(6))/2)
    assert abs(hermite_largest_root(4) - math.sqrt((3 + math.sqrt(6)) / 2)) < 1e-9
    with pytest.raises(ValueError):
        hermite_largest_root(0)


def test_asymptotic_dreg():
    # k = 1: alpha_1 = 0
    assert asymptotic_dreg(10, 1, 4, 2) == 10.0
    # trivial-weight specialization
    n, k, d0 = 20, 2, 3
    got = asymptotic_dreg(n, k, d0, 1)
    want = n * (d0 - 1) / 2 - hermite_largest_root(2) * math.sqrt(n * (d0 ** 2 - 1) / 6)
    assert abs(got - want) < 1e-12
    with pytest.raises(ValueError):
        asymptotic_dreg(10, 1, 5, 2)


def test_asymptotic_agrees_with_n_plus_1_formula():
    for n in (50, 100, 200):
        for w0 in (1, 2, 4):
            d0 = 2 * w0
            W = (w0,) * (n - 1) + (1,)
            D = (d0,) * (n + 1)
            exact = delta_semiregular_n_plus_1(W, D)
            asym = asymptotic_dreg(n, 1, d0, w0)
            assert abs(exact - asym) / asym <= 0.05 + 1e-12


def test_estimate_costs():
    c_f5, c_fglm, width, surrogate = estimate_costs((2, 2, 2, 2, 1), 10, 65536)
    assert width == sylvester_denumerant(10, (2, 2, 2, 2, 1))
    assert c_f5 == float(width) ** 3
    assert c_fglm == 5 * 65536.0 ** 3
    # trivial weights: surrogate is the plain binomial power
    c_f5, _, _, surrogate = estimate_costs((1, 1, 1), 5, 10)
    assert surrogate == float(math.comb(3 + 5 - 1, 5)) ** 3
    # weight product scales the surrogate by (prod w)^-omega at equal dreg
    _, _, _, s1 = estimate_costs((1, 1, 1), 6, 10)
    _, _, _, s2 = estimate_costs((2, 2, 2), 6, 10)
    assert abs(s2 - s1 / 8 ** 3) < 1e-6 * s1


def test_omega_validation():
    with pytest.raises(ValueError):
        estimate_costs((1, 1, 1), 5, 10, omega=1.5)
    with pytest.raises(ValueError):
        bounds_report((2, 1), (4, 4), omega=3.5)
    assert bounds_report((2, 1), (4, 4), omega=2.376).omega == 2.376


def test_bounds_report_assembly():
    rep = bounds_report((20, 5, 5, 1), (60, 60, 60, 60))
    assert rep.macaulay_weak == 229
    assert rep.macaulay_snp == 210
    assert rep.conjectured_dreg == 210
    assert rep.d0 == 210
    assert rep.frobenius_g is None
    assert rep.bezout_degree == Fraction(60 ** 4, 500)
    assert rep.snp_hypothesis_ok and rep.strongly_compatible
    rep2 = bounds_report((2,) * 4 + (1,), (8,) * 5, k_extra=1)
    assert rep2.alpha_k == 0.0
    assert rep2.asymptotic_dreg == 5 * (8 - 2) / 2
