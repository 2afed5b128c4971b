"""Rational expansion by separate numerator, division and reconvolution,
the reference for `series.expand_rational`.

The numerator prod(1 - T^d_i) is built as its own polynomial, divided by
prod(1 - T^w_j) on a window, and the series is called a polynomial when
its quotient up to delta = sum(d) - sum(w), multiplied back by
prod(1 - T^w_j), gives the numerator again: the definition of exact
division, with no use of the monomial census.
"""

from wgb.monomial import as_weights
from wgb.series import HilbertSeries, default_window


def numerator(D):
    """Coefficients of prod(1 - T^d) over the degrees D."""
    num = [1]
    for d in D:
        new = [0] * (len(num) + d)
        for i, c in enumerate(num):
            new[i] += c
            new[i + d] -= c
        num = new
    return num


def divide_window(coeffs, W, N):
    """Coefficients 0..N of coeffs / prod(1 - T^w) over the weights W."""
    c = coeffs[: N + 1] + [0] * max(0, N + 1 - len(coeffs))
    for w in W:
        for i in range(w, N + 1):
            c[i] += c[i - w]
    return c


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def expand_rational_reconvolved(degrees, weights, N=None):
    """`series.expand_rational`, deciding polynomiality by reconvolution."""
    W = as_weights(weights)
    D = tuple(degrees)
    if N is None:
        N = default_window(W, D)
    num = numerator(D)
    delta = sum(D) - W.total
    if delta >= 0:
        q = divide_window(num, W.weights, delta)
        recon = convolve(q, numerator(W.weights))
        padded = num + [0] * (len(recon) - len(num))
        if recon == padded:
            return HilbertSeries(q, window=max(N, delta), polynomial=True)
    return HilbertSeries(divide_window(num, W.weights, N), window=N, polynomial=False)
