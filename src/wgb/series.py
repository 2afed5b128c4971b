"""Hilbert series of weighted graded algebras.

Everything here is exact integer arithmetic on coefficient windows of the
rational series  prod(1 - T^d_i) / prod(1 - T^w_j)  and on staircase
censuses of monomial ideals.
"""

from functools import lru_cache

from .errors import (
    ArityError,
    InsufficientWindowError,
    PositiveDimensionError,
)
from .monomial import as_weights, mono_divides, wdeg


# ---------------------------------------------------------------------------
# series container
# ---------------------------------------------------------------------------

class HilbertSeries:
    """A coefficient window a_0..a_N, or an exact polynomial.

    Polynomial series know all their coefficients (zero beyond the stored
    degree); window series only know the stored window and refuse to
    answer beyond it.
    """

    __slots__ = ("coeffs", "window", "polynomial")

    def __init__(self, coeffs, window=None, polynomial=False):
        coeffs = list(coeffs)
        if polynomial:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        self.coeffs = coeffs
        self.polynomial = polynomial
        if window is None:
            window = len(coeffs) - 1
        self.window = max(window, len(coeffs) - 1)

    @property
    def degree(self):
        """Degree as a polynomial (-1 for zero); error if only a window."""
        if not self.polynomial:
            raise PositiveDimensionError("series is a truncated window, not a polynomial")
        return len(self.coeffs) - 1

    def coeff(self, d):
        if d < 0:
            return 0
        if d < len(self.coeffs):
            return self.coeffs[d]
        if self.polynomial:
            return 0
        if d <= self.window:
            return 0
        raise InsufficientWindowError(
            f"coefficient {d} beyond computed window {self.window}"
        )

    def coeffs_upto(self, N):
        """[coeff(0), .., coeff(N)], a slice of the stored list."""
        if N > self.window and not self.polynomial:
            raise InsufficientWindowError(
                f"coefficient {self.window + 1} beyond computed window {self.window}"
            )
        head = self.coeffs[: max(N + 1, 0)]
        return head + [0] * (N + 1 - len(head))

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        if self.polynomial and other.polynomial:
            return self.coeffs == other.coeffs
        N = min(self.window, other.window)
        return self.polynomial == other.polynomial and self.coeffs_upto(N) == other.coeffs_upto(N)

    def __repr__(self):
        kind = "poly" if self.polynomial else f"window<= {self.window}"
        return f"HilbertSeries({self.coeffs}, {kind})"


# ---------------------------------------------------------------------------
# rational expansion
# ---------------------------------------------------------------------------

def default_window(weights, degrees):
    """Smallest window on which the shape statements are checkable."""
    W = as_weights(weights)
    D = tuple(degrees)
    m, n = len(D), len(W)
    if m == n:
        return max(0, sum(D) - W.total) + W.max + 1
    if m > n:
        dstar = max(0, sum(D[:-1]) - W.total)
        return dstar + D[-1] + 1
    return sum(D) + W.max + 1


def expand_rational(degrees, weights, N=None):
    """Exact coefficients of prod(1-T^d_i)/prod(1-T^w_j) up to degree N.

    The monomial census (the coefficients of 1/prod(1-T^w_j)) is multiplied
    by each 1 - T^d.  With delta = sum(d) - sum(w) >= 0 the product is taken
    up to sum(d): the series is a polynomial, flagged as such and knowing all
    its coefficients, exactly when its coefficients delta+1..sum(d) vanish
    (then its part past delta starts above sum(d), yet times prod(1-T^w) it
    is the numerator less a polynomial of degree <= sum(d), so it is zero).
    With delta < 0 it never is.
    """
    W = as_weights(weights)
    D = tuple(degrees)
    if any(d < 0 for d in D):
        raise ValueError("degrees must be non-negative")
    if N is None:
        N = default_window(W, D)
    if N < 0:
        raise ValueError("window must be >= 0")
    delta = sum(D) - W.total
    top = max(N, sum(D)) if delta >= 0 else N
    c = list(monomial_census(W.weights, top))
    for d in D:
        for e in range(top, d - 1, -1):
            c[e] -= c[e - d]
    if delta >= 0 and not any(c[delta + 1 : sum(D) + 1]):
        return HilbertSeries(c[: delta + 1], window=max(N, delta), polynomial=True)
    return HilbertSeries(c[: N + 1], window=N, polynomial=False)


def truncate_semiregular(s):
    """Drop everything from the first coefficient <= 0 onward.

    An all-positive polynomial series is returned unchanged; a window
    series with no non-positive coefficient in the window is an error
    (the window was too small to locate the truncation point).
    """
    limit = s.degree if s.polynomial else s.window
    for d, a in enumerate(s.coeffs_upto(limit)):
        if a <= 0:
            return HilbertSeries(s.coeffs[:d], polynomial=True)
    if s.polynomial:
        return s
    raise InsufficientWindowError(
        f"no non-positive coefficient up to degree {s.window}; enlarge the window"
    )


def semiregular_truncation_degree(weights, degrees):
    """Degree of the semi-regular truncation of prod(1-T^d_i)/prod(1-T^w_j).

    The window is doubled until a non-positive coefficient shows; None if
    none does in eight tries (the series of an underdetermined system
    stays positive).
    """
    window = None
    for _ in range(8):
        s = expand_rational(degrees, weights, window)
        try:
            return truncate_semiregular(s).degree
        except InsufficientWindowError:
            window = 2 * (s.window + 1)
    return None


def delta_semiregular_n_plus_1(weights, degrees):
    """Closed-form degree of the truncated series for n+1 polynomials.

    With the degrees sorted ascending, delta = sum_{i<=n} d_i - sum w_i and
    s = w_{n-1} (s = 1 when n = 1), the degree is

        min( delta , s * ceil((delta + d_{n+1} + 1 - s) / (2 s)) - 1 ).

    Hypotheses: reverse chain-divisible weights, w_n = 1, w_1 | d_i.  The
    series of the first n degrees then rises every s degrees and is
    self-reciprocal about delta, so times 1 - T^(d_{n+1}) its first
    non-positive coefficient (a zero counts) sits at the first multiple of
    s at or past (delta + d_{n+1} + 1 - s) / 2, or at delta + 1 if sooner.
    With unit weights: min(delta, floor((sum d_i - n - 1) / 2)).
    """
    W = as_weights(weights)
    D = tuple(sorted(degrees))
    n = len(W)
    if len(D) != n + 1:
        raise ArityError(f"need n+1 = {n + 1} degrees, got {len(D)}")
    delta = sum(D[:n]) - W.total
    s = W[n - 2] if n >= 2 else 1
    return min(delta, s * -(-(delta + D[n] + 1 - s) // (2 * s)) - 1)


# ---------------------------------------------------------------------------
# monomial counts and staircase censuses of monomial ideals
# ---------------------------------------------------------------------------

# the counts of at most this many (weights, N) pairs are kept
@lru_cache(maxsize=1024)
def monomial_census(weights, N):
    """Number of monomials of each weighted degree 0..N, as a tuple: the
    Sylvester denumerants of a tuple of weights.  No weights give the
    monomial 1 alone."""
    c = [1][: N + 1] + [0] * N
    for w in weights:
        for i in range(w, N + 1):
            c[i] += c[i - w]
    return tuple(c)


def _minimalize(gens):
    out = []
    for g in sorted(gens, key=sum):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return out


def staircase_census(lt_monomials, weights, N):
    """Count monomials of each weighted degree <= N outside <lt_monomials>.

    Pivot recursion: split on one variable occurrence,
    census(I) = census(I + <x_j>) + T^(w_j) * census(I : x_j),
    down to ideals of pure powers, whose census is a rational expansion.
    """
    W = as_weights(weights)
    ws = W.weights
    gens = _minimalize(tuple(g) for g in lt_monomials)
    cache = {}

    def rec(gens, N):
        if N < 0:
            return []
        key = (tuple(sorted(gens)), N)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if all(sum(1 for a in g if a) <= 1 for g in gens):
            # pure powers, no generator or the unit monomial (a factor
            # 1 - T^0 = 0): a product over the free census
            res = expand_rational([wdeg(g, ws) for g in gens], ws, N).coeffs_upto(N)
        else:
            counts = [0] * len(ws)
            for g in gens:
                if sum(1 for a in g if a) > 1:
                    for j, a in enumerate(g):
                        if a:
                            counts[j] += 1
            j = counts.index(max(counts))
            pivot = tuple(1 if i == j else 0 for i in range(len(ws)))
            added = _minimalize([pivot] + [g for g in gens if g[j] == 0])
            colon = _minimalize([tuple(max(a - p, 0) for a, p in zip(g, pivot)) for g in gens])
            res = rec(added, N).copy()
            shifted = rec(colon, N - ws[j])
            for d, c in enumerate(shifted):
                res[d + ws[j]] += c
        cache[key] = res
        return res

    return list(rec(gens, N))


def monomial_ideal_is_zero_dim(lt_monomials, n):
    """True iff the monomial ideal contains a pure power of every variable."""
    have = [False] * n
    for g in lt_monomials:
        nz = [i for i, a in enumerate(g) if a]
        if len(nz) == 1:
            have[nz[0]] = True
    return all(have)


def quotient_hilbert_series(gb, N=None):
    """Hilbert series of the quotient by the leading-term ideal of a basis,
    the census of the pivot recursion, whose cost does not grow with the
    counts.

    For zero-dimensional ideals the full polynomial is returned: with a_i
    the least exponent of a pure power of x_i among the leading monomials,
    no monomial outside them lies above the window sum (a_i - 1) * w_i.
    Otherwise a window up to N, which is then required.  A negative N is
    refused.
    """
    if N is not None and N < 0:
        raise ValueError("window must be >= 0")
    ring = gb.ring
    W = ring.weights
    lts = gb.lt_monomials()
    if any(all(a == 0 for a in g) for g in lts):
        return HilbertSeries([], window=N or 0, polynomial=True)
    if monomial_ideal_is_zero_dim(lts, ring.n):
        top = sum((min(g[i] for g in lts if g[i] == sum(g)) - 1) * w for i, w in enumerate(W))
        return HilbertSeries(staircase_census(lts, W, top), window=N, polynomial=True)
    if N is None:
        raise PositiveDimensionError(
            "positive-dimensional quotient: a window N is required"
        )
    return HilbertSeries(staircase_census(lts, W, N), window=N, polynomial=False)


def ideal_degree(s):
    """Vector-space dimension of a zero-dimensional quotient: HS(1)."""
    if not s.polynomial:
        raise PositiveDimensionError("series is not a polynomial; degree undefined")
    return sum(s.coeffs)
