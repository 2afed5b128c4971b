"""Degree bounds and cost estimates for weighted homogeneous solving.

Collects the weighted Macaulay bounds (the weak max-weight form, the sharp
simultaneous-Noether-position form, and its prefix-max generalization), the
conjectured exact degree of regularity, the weighted Bezout degree, the
Sylvester denumerant, the Frobenius number, the asymptotic semi-regular
degree of regularity, and the matrix-size / F5 / FGLM cost formulas.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, gcd, log, sqrt
from typing import Optional

from .errors import ArityError
from .monomial import as_weights
from .series import monomial_census


def _check_square(weights, degrees):
    W = as_weights(weights)
    D = tuple(degrees)
    if len(D) != len(W):
        raise ArityError(f"need one degree per weight ({len(W)}), got {len(D)}")
    return W, D


def macaulay_weak(weights, degrees):
    """sum(d_i - w_i) + max(w_j): valid for any regular square system."""
    W, D = _check_square(weights, degrees)
    return sum(d - w for d, w in zip(D, W)) + W.max


@dataclass(frozen=True)
class SnpBound:
    value: int                 # sum(d_i - w_i) + w_n
    general: int               # max_k sum_{i<=k}(d_i - w_i) + w_k
    degrees_hypothesis_ok: bool  # d_j >= w_{j-1} for all j >= 2
    strongly_compatible: bool


def macaulay_snp(weights, degrees):
    """Sharp bound under simultaneous Noether position, plus its prefix-max variant.

    The simple form sum(d_i - w_i) + w_n needs d_j >= w_{j-1}; the report
    carries that hypothesis flag and the prefix-max general form which
    holds without it.
    """
    W, D = _check_square(weights, degrees)
    value = sum(d - w for d, w in zip(D, W)) + W[len(W) - 1]
    general = max(
        sum(D[i] - W[i] for i in range(k + 1)) + W[k] for k in range(len(W))
    )
    hyp = all(D[j] >= W[j - 1] for j in range(1, len(W)))
    strong = all(d % w == 0 for d, w in zip(D, W))
    return SnpBound(value, general, hyp, strong)


def frobenius_number(weights):
    """Largest weighted degree with no monomials at all.

    Returns -1 when some weight is 1 (every degree is reachable); requires
    coprime weights otherwise.  It is the last zero of the monomial census
    up to (w_min - 1)(w_max - 1), past Schur's bound g <= (w_min - 1)(w_max
    - 1) - 1 (Brauer, "On a problem of partitions", Amer. J. Math. 1942).
    """
    W = as_weights(weights)
    if 1 in W.weights:
        return -1
    g = 0
    for w in W:
        g = gcd(g, w)
    if g > 1:
        raise ValueError(f"weights {W.weights} have gcd {g} > 1: no Frobenius number")
    census = monomial_census(W.weights, (min(W) - 1) * (W.max - 1))
    return max(d for d, count in enumerate(census) if not count)


def first_gap_degree(weights, degrees):
    """The degree d_0 of the first unexpected zero coefficient.

    delta - g with g the Frobenius number (zero coefficients then appear by
    self-reciprocality); that is delta + 1 when some weight is 1.
    """
    W, D = _check_square(weights, degrees)
    return sum(d - w for d, w in zip(D, W)) - frobenius_number(W)


def conjectured_dreg(weights, degrees):
    """First multiple of w_n at or above the first-gap degree d_0."""
    W, D = _check_square(weights, degrees)
    d0 = first_gap_degree(W, D)
    wn = W[len(W) - 1]
    return -(-d0 // wn) * wn  # an integer ceiling: d0 may pass 2^53


def weighted_bezout(weights, degrees):
    """prod(d_i) / prod(w_i) as an exact fraction."""
    W, D = _check_square(weights, degrees)
    num = 1
    for d in D:
        num *= d
    return Fraction(num, W.product)


def sylvester_denumerant(d, weights):
    """Number of monomials of weighted degree exactly d."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return monomial_census(as_weights(weights).weights, d)[d]


def hermite_largest_root(k):
    """Largest root of the k-th physicists' Hermite polynomial."""
    if k <= 0:
        raise ValueError("k must be >= 1")
    # imported here: numpy.polynomial adds to the import time of every
    # command, and only the asymptotic estimates need it
    from numpy.polynomial.hermite import hermroots

    # the roots are symmetric about 0; abs() turns H_1's root -0.0 into 0.0
    return abs(float(hermroots([0] * k + [1])[-1]))


def asymptotic_dreg(n, k, d0, w0):
    """Leading asymptotics of the degree of regularity for n+k equal-degree
    semi-regular equations with weights (w0,..,w0,1) and degrees d0."""
    if k <= 0:
        raise ValueError("k must be >= 1")
    if w0 <= 0 or d0 % w0:
        raise ValueError("w0 must divide d0")
    alpha = 0.0 if k == 1 else hermite_largest_root(k)
    return n * (d0 - w0) / 2.0 - alpha * sqrt(n * (d0 * d0 - w0 * w0) / 6.0)


def _float_pow(base, exponent):
    if base <= 0:
        return 0.0
    try:
        return float(base) ** exponent
    except OverflowError:
        l = exponent * log(base)
        return float("inf") if l > 700.0 else exp(l)


def estimate_costs(weights, dreg, deg, omega=3.0):
    """Matrix width at dreg, F5 cost, its closed-form surrogate, FGLM cost.

    The F5 cost is matrix_size^omega; the surrogate replaces the exact
    denumerant by binom(n+dreg-1, dreg) / prod(w_i); FGLM costs n*deg^omega.
    omega is the linear-algebra exponent, in [2, 3].
    """
    if not 2.0 <= omega <= 3.0:
        raise ValueError("omega must lie in [2, 3]")
    W = as_weights(weights)
    n = len(W)
    matrix_size = sylvester_denumerant(dreg, W)
    c_f5 = _float_pow(matrix_size, omega)
    surrogate = _float_pow(comb(n + dreg - 1, dreg) / W.product, omega)
    c_fglm = n * _float_pow(deg, omega)
    return c_f5, c_fglm, matrix_size, surrogate


@dataclass(frozen=True)
class BoundsReport:
    """Every numeric bound for one square weighted system."""

    weights: tuple
    degrees: tuple
    macaulay_weak: int
    macaulay_snp: int
    macaulay_general: int
    snp_hypothesis_ok: bool
    strongly_compatible: bool
    conjectured_dreg: int
    d0: int
    frobenius_g: Optional[int]
    bezout_degree: Fraction
    denumerant_at_dreg: int
    omega: float
    c_f5: float
    c_f5_surrogate: float
    c_fglm: float
    alpha_k: Optional[float] = None
    asymptotic_dreg: Optional[float] = None


def bounds_report(weights, degrees, omega=3.0, k_extra=None):
    """Assemble the full report; asymptotics only for the equal-degree
    (w0,..,w0,1) pattern, where k_extra counts equations beyond n."""
    W, D = _check_square(weights, degrees)
    snp = macaulay_snp(W, D)
    dreg = conjectured_dreg(W, D)
    d0 = first_gap_degree(W, D)
    frob = None
    if not any(w == 1 for w in W):
        frob = frobenius_number(W)
    bez = weighted_bezout(W, D)
    c_f5, c_fglm, width, surrogate = estimate_costs(
        W, dreg, int(bez) if bez.denominator == 1 else float(bez), omega
    )
    alpha = None
    asym = None
    ws = W.weights
    if k_extra and len(set(ws[:-1])) == 1 and ws[-1] == 1 and len(set(D)) == 1:
        w0 = ws[0]
        if D[0] % w0 == 0:
            alpha = 0.0 if k_extra == 1 else hermite_largest_root(k_extra)
            asym = asymptotic_dreg(len(W), k_extra, D[0], w0)
    return BoundsReport(
        weights=W.weights,
        degrees=D,
        macaulay_weak=macaulay_weak(W, D),
        macaulay_snp=snp.value,
        macaulay_general=snp.general,
        snp_hypothesis_ok=snp.degrees_hypothesis_ok,
        strongly_compatible=snp.strongly_compatible,
        conjectured_dreg=dreg,
        d0=d0,
        frobenius_g=frob,
        bezout_degree=bez,
        denumerant_at_dreg=width,
        omega=omega,
        c_f5=c_f5,
        c_f5_surrogate=surrogate,
        c_fglm=c_fglm,
        alpha_k=alpha,
        asymptotic_dreg=asym,
    )
