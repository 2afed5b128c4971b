"""Structural oracles and system generators.

Every verdict is read off the prefix Hilbert functions of one signature
run of the sequence (`engine.prefix_ideal_dims`).  Regularity compares the
quotient's Hilbert function with the rational product form; Noether
position of a prefix f_1..f_i compares R/(f_1..f_i, x_{i+1}..x_n), counted
from the same run's pivots in x_1..x_i, with the product form of the
prefix extended by the trailing variables; semi-regularity is decided both
by graded multiplication-map ranks (the definition) and by prefix series
truncation (certifying under reverse chain-divisible weights with degrees
divisible by the top weight, advisory otherwise).
"""

import random
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ArityError,
    EmptySupportError,
    InsufficientWindowError,
    NonPositiveDegreeError,
)
from .field import DEFAULT_MODULUS
from .monomial import (
    as_weights,
    divisors,
    monomials_of_wdeg,
    monomials_of_wdeg_at_most,
    wdeg,
)
from .order import MonomialOrder
from .poly import PolyRing, PolySystem
# buchberger is not called here; perfbench/tracing.py wraps this binding
from .engine import buchberger, prefix_ideal_dims  # noqa: F401
from .series import (
    default_window,
    expand_rational,
    monomial_census,
    semiregular_truncation_degree,
    truncate_semiregular,
)
# not called here; perfbench/tracing.py wraps this binding
from .series import staircase_census  # noqa: F401


# ---------------------------------------------------------------------------
# weight-system predicates
# ---------------------------------------------------------------------------

def is_reverse_chain_divisible(weights):
    """w_{i+1} | w_i for every i."""
    W = as_weights(weights)
    return all(W[i + 1] != 0 and W[i] % W[i + 1] == 0 for i in range(len(W) - 1))


def is_strongly_w_compatible(weights, degrees):
    """d_i divisible by w_i, componentwise."""
    W = as_weights(weights)
    D = tuple(degrees)
    if len(D) > len(W):
        raise ArityError(f"{len(D)} degrees for {len(W)} weights")
    return all(d % w == 0 for d, w in zip(D, W))


def divisor_of_wdegree(m2, d1, weights):
    """Some divisor of m2 with weighted degree exactly d1, or None."""
    W = as_weights(weights)
    if wdeg(m2, W) < d1:
        raise ValueError("monomial degree below the requested divisor degree")
    for cand in divisors(m2):
        if wdeg(cand, W) == d1:
            return cand
    return None


# ---------------------------------------------------------------------------
# regularity / Noether position
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    certified: bool     # exact (zero-dimensional window closure) vs window-only
    window: int
    first_mismatch: Optional[tuple] = None  # (degree, got, expected)

    def __bool__(self):
        return self.regular


def _wgrevlex_system(sys):
    order = MonomialOrder.wgrevlex(sys.ring.weights)
    if sys.ring.order == order:
        return sys
    return sys.with_order(order)


def _verdict_system(sys):
    """The system under weighted grevlex, refused when an input's declared
    degree is not positive."""
    for i, d in enumerate(sys.degrees):
        if d <= 0:
            raise NonPositiveDegreeError(
                f"polynomial #{i + 1} has declared degree {d}; structural verdicts "
                f"need positive degrees"
            )
    return _wgrevlex_system(sys)


def _hilbert_functions(sys, bounds, restricted_bounds):
    """([h_0, .., h_m], r) off one signature run: h_i(e) = dim
    (R/(f_1..f_i))_e up to bounds[i-1], h_0 up to the largest bound, and r
    the restricted dimensions of `prefix_ideal_dims`, r_i up to
    restricted_bounds[i-1] (-1 for none).  With no input there is no run:
    h_0 and r_0 reach the empty sequence's window, the window of every
    verdict on it."""
    W = sys.ring.weights
    if not bounds:
        top = default_window(W, ())
        return [list(monomial_census(W.weights, top))], [[0] * (top + 1)]
    dims, restricted = prefix_ideal_dims(sys, bounds, restricted_bounds)
    free = list(monomial_census(W.weights, max(bounds)))
    h = [free] + [[free[e] - dim for e, dim in enumerate(row)] for row in dims[1:]]
    return h, restricted


def _regularity_verdict(W, degrees, window, h):
    """Compare the quotient Hilbert function h up to the window with the
    rational product form of the degrees (exact when square)."""
    got = h[: window + 1]
    want = expand_rational(degrees, W, window).coeffs_upto(window)
    square = len(degrees) == len(W)
    if got == want:
        return RegularityVerdict(True, square, window)
    d = next(i for i in range(window + 1) if got[i] != want[i])
    return RegularityVerdict(False, square, window, (d, got[d], want[d]))


def _extended(sys, i):
    """Degrees of f_1..f_i extended by the trailing variables x_{i+1}..x_n,
    and the window of their product form."""
    degrees = sys.degrees[:i] + sys.ring.weights.weights[i:]
    return degrees, default_window(sys.ring.weights, degrees)


def _noether_verdict(sys, i, restricted):
    """Noether position of the prefix f_1..f_i: the Hilbert function of
    R/(f_1..f_i, x_{i+1}..x_n), the degree-e monomials of x_1..x_i less the
    restricted ideal dimension, against the extended product form."""
    degrees, window = _extended(sys, i)
    free = monomial_census(sys.ring.weights.weights[:i], window)
    g = [free[e] - dim for e, dim in enumerate(restricted[i][: window + 1])]
    return _regularity_verdict(sys.ring.weights, degrees, window, g)


def _require_at_most_n(sys, what):
    sys = _verdict_system(sys)
    sys.require_w_homogeneous()
    if sys.m > sys.n:
        raise ArityError(f"{what} is for m <= n systems")
    return sys


def is_regular_sequence(sys):
    """Quotient Hilbert function against the rational product form over all
    declared degrees, on `series.default_window`.

    Exact for m = n (the comparison window closes the staircase); for
    m < n the verdict means "regular up to the window degree".  A zero
    polynomial generates nothing and still counts with its declared degree.
    """
    sys = _require_at_most_n(sys, "regularity")
    window = default_window(sys.ring.weights, sys.degrees)
    h, _ = _hilbert_functions(sys, [window] * sys.m, [-1] * sys.m)
    return _regularity_verdict(sys.ring.weights, sys.degrees, window, h[-1])


def is_noether_position(sys):
    """Noether position w.r.t. the first m variables: the sequence extended
    by the trailing variables X_{m+1}..X_n is regular."""
    sys = _require_at_most_n(sys, "Noether position")
    window = _extended(sys, sys.m)[1]
    asked = [window if i == sys.m else -1 for i in range(1, sys.m + 1)]
    _, restricted = _hilbert_functions(sys, [window] * sys.m, asked)
    return _noether_verdict(sys, sys.m, restricted)


@dataclass(frozen=True)
class SnpVerdict:
    snp: bool
    first_failing_prefix: Optional[int]
    prefix_verdicts: tuple

    def __bool__(self):
        return self.snp


def is_snp(sys):
    """Simultaneous Noether position: every prefix in Noether position."""
    sys = _require_at_most_n(sys, "Noether position")
    windows = [_extended(sys, i)[1] for i in range(1, sys.m + 1)]
    _, restricted = _hilbert_functions(sys, windows, windows)
    return _snp(sys, restricted)


def _snp(sys, restricted):
    verdicts = tuple(_noether_verdict(sys, i, restricted) for i in range(1, sys.m + 1))
    failing = next((i for i, v in enumerate(verdicts, 1) if not v), None)
    return SnpVerdict(failing is None, failing, verdicts)


# ---------------------------------------------------------------------------
# semi-regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiregularVerdict:
    semiregular: Optional[bool]   # None when inconclusive
    rank_ok: Optional[bool]
    series_ok: bool
    series_certifying: bool
    window: int
    truncation_degree: Optional[int]
    first_failure: Optional[tuple] = None  # (i, d, rank deficiency)

    def __bool__(self):
        return bool(self.semiregular)


def is_semiregular(sys, d_max=None):
    """Both semi-regularity tests: graded ranks and prefix series.

    Rank method (the definition): for every i and every degree d up to
    d_max >= 0, multiplication by f_i between the graded pieces of the prefix
    quotient is full rank.  Series method: every prefix quotient matches
    the truncation of its rational series; certifying for coprime reverse
    chain-divisible weights (w_n = 1) with d_1..d_n divisible by w_1,
    advisory otherwise.

    Both read the Hilbert functions h_i of the prefix quotients R/I_i off
    one signature run (`prefix_ideal_dims`): the rank of multiplication by
    f_i from degree d is h_{i-1}(d + d_i) - h_i(d + d_i).
    """
    return _semiregular(_verdict_system(sys), d_max, [0] * sys.m, False)[0]


def _semiregular(sys, d_max, windows, noether):
    """The verdict of `is_semiregular`, the prefix Hilbert functions
    [h_0, .., h_m] it is read from, each h_i (i >= 1) read up to
    windows[i-1] at least, and, for Noether position when noether is set,
    the restricted ideal dimensions of the same run, each as far as its
    h_i (none otherwise)."""
    W = sys.ring.weights
    D = sys.degrees
    m, n = sys.m, sys.n

    trunc = semiregular_truncation_degree(W, D)
    if d_max is None:
        base = trunc if trunc is not None else max(0, sum(D) - W.total)
        d_max = base + W.max
    elif d_max < 0:
        raise ValueError(f"d_max must be >= 0, got {d_max}")
    inconclusive = trunc is not None and d_max < trunc

    # h_i is read up to d_max + d_i (multiplication by f_i) and, as the
    # domain side, up to d_max + d_{i+1}
    bounds = [max(d_max + max(D[i - 1 : i + 1]), 0, windows[i - 1]) for i in range(1, m + 1)]
    h, restricted = _hilbert_functions(sys, bounds, bounds if noether else [-1] * m)

    first_failure = None
    for i in range(1, m + 1):
        di = D[i - 1]
        for d in range(d_max + 1):
            dom, cod = h[i - 1][d], h[i - 1][d + di]
            rank = cod - h[i][d + di]
            if rank < min(dom, cod):
                first_failure = (i, d, min(dom, cod) - rank)
                break
        if first_failure is not None:
            break
    rank_ok = first_failure is None

    series_ok = True
    for i in range(1, m + 1):
        s = expand_rational(D[:i], W, d_max)
        try:
            want = truncate_semiregular(s).coeffs_upto(d_max)
        except InsufficientWindowError:
            want = s.coeffs_upto(d_max)
        if h[i][: d_max + 1] != want:
            series_ok = False
            break

    # the truncation comparison is a theorem only for coprime reverse
    # chain-divisible weights (w_n = 1) with the leading degrees divisible
    # by the top weight; otherwise structural zero coefficients make the
    # truncated series cut too early and the method is advisory
    certifying = (
        is_reverse_chain_divisible(W)
        and W[n - 1] == 1
        and m >= n
        and all(D[i] % W[0] == 0 for i in range(min(n, m)))
    )
    semiregular = None if (inconclusive and rank_ok) else rank_ok
    verdict = SemiregularVerdict(
        semiregular=semiregular,
        rank_ok=rank_ok,
        series_ok=series_ok,
        series_certifying=certifying,
        window=d_max,
        truncation_degree=trunc,
        first_failure=first_failure,
    )
    return verdict, h, restricted


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _random_system(kind, support, weights, degrees, seed, field):
    """Uniform nonzero coefficients on support(W, d_i), deterministic under
    (kind, seed, W, D, p)."""
    ring = PolyRing(field, weights)
    W, p = ring.weights, ring.field.p
    D = tuple(degrees)
    rng = random.Random(f"wgb-{kind}|{p}|{W.weights}|{D}|{seed}")
    polys = []
    for d in D:
        if not monomials_of_wdeg(W.weights, d):
            raise EmptySupportError(
                f"no monomials of weighted degree {d} for weights {W.weights} "
                f"(Sylvester denumerant 0)"
            )
        terms = sorted(support(W.weights, d), key=ring.order.key, reverse=True)
        polys.append(ring.from_map({m: rng.randrange(1, p) for m in terms}))
    return PolySystem(ring, polys, D)


def random_w_homogeneous_system(weights, degrees, seed, field=DEFAULT_MODULUS):
    """Dense support on all monomials of weighted degree exactly d_i,
    uniform nonzero coefficients, deterministic under (seed, W, D, p)."""
    return _random_system("hom", monomials_of_wdeg, weights, degrees, seed, field)


def random_affine_system(weights, degrees, seed, field=DEFAULT_MODULUS):
    """Dense support on all monomials of weighted degree <= d_i."""
    return _random_system("aff", monomials_of_wdeg_at_most, weights, degrees, seed, field)


def froberg_sequence(weights, degrees, d_extra):
    """(X_1^(d_1/w_1), .., X_n^(d_n/w_n), (X_1 + X_2^(w_1/w_2) + .. + X_n^(w_1/w_n))^(d_extra/w_1)).

    Needs reverse chain-divisible weights, strongly compatible degrees and
    w_1 | d_extra.
    """
    ring = PolyRing(DEFAULT_MODULUS, weights)
    W = ring.weights
    D = tuple(degrees)
    n = ring.n
    if len(D) != n:
        raise ArityError(f"need {n} degrees, got {len(D)}")
    if not is_reverse_chain_divisible(W):
        raise ValueError(f"weights {W.weights} are not reverse chain-divisible")
    if not is_strongly_w_compatible(W, D):
        raise ValueError(f"degrees {D} are not strongly compatible with {W.weights}")
    if d_extra % W[0]:
        raise ValueError(f"{d_extra} is not divisible by the top weight {W[0]}")
    polys = []
    for i in range(n):
        e = [0] * n
        e[i] = D[i] // W[i]
        polys.append(ring.monomial(e))
    mixed = ring.zero()
    for i in range(n):
        e = [0] * n
        e[i] = W[0] // W[i]
        mixed = mixed + ring.monomial(e)
    polys.append(mixed ** (d_extra // W[0]))
    return PolySystem(ring, polys, D + (d_extra,))


def inversion_system(f_list):
    """Tagged system (T_i - f_i) with weights (1,..,1, deg f_1,.., deg f_m).

    The tag variables are appended after the original ones; by the weight
    choice each T_i joins the top weighted-degree component, which is in
    Noether position with respect to the tags.
    """
    if not f_list:
        raise ValueError("need at least one polynomial")
    base = f_list[0].ring
    n = base.n
    m = len(f_list)
    degs = []
    for f in f_list:
        d = max(sum(e) for e, _ in f.terms) if f.terms else -1
        if d < 1:
            raise ValueError("inversion inputs must have total degree >= 1")
        degs.append(d)
    names = base.names + tuple(f"T{i+1}" for i in range(m))
    W = as_weights((1,) * n + tuple(degs))
    ring = PolyRing(base.field, W, MonomialOrder.wgrevlex(W), names)
    polys = []
    for i, f in enumerate(f_list):
        terms = {tuple(e) + (0,) * m: -c for e, c in f.terms}
        tag = [0] * (n + m)
        tag[n + i] = 1
        terms[tuple(tag)] = terms.get(tuple(tag), 0) + 1
        polys.append(ring.from_map(terms))
    return PolySystem(ring, polys, tuple(degs))


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    weights: tuple
    degrees: tuple
    reverse_chain_divisible: bool
    strongly_w_compatible: bool
    hyp_degrees_vs_weights: bool   # d_j >= w_{j-1} for j >= 2
    hyp_top_weight_divides: bool   # w_1 | d_i
    hyp_last_weight_one: bool
    regular: Optional[RegularityVerdict]
    snp: Optional[SnpVerdict]
    semiregular: SemiregularVerdict

    def as_dict(self):
        return {
            "weights": list(self.weights),
            "degrees": list(self.degrees),
            "reverse_chain_divisible": self.reverse_chain_divisible,
            "strongly_w_compatible": self.strongly_w_compatible,
            "hypotheses": {
                "degrees_vs_weights": self.hyp_degrees_vs_weights,
                "top_weight_divides_degrees": self.hyp_top_weight_divides,
                "last_weight_one": self.hyp_last_weight_one,
            },
            "regular": _summary(self.regular, "regular", "certified", "window", "first_mismatch"),
            "snp": _summary(self.snp, "snp", "first_failing_prefix"),
            "semiregular": _summary(
                self.semiregular, "semiregular", "rank_ok", "series_ok", "series_certifying",
                "window", "first_failure",
            ),
        }


def _summary(verdict, flag, *fields):
    """{"verdict": verdict.<flag>, field: verdict.<field>, ..}, or None."""
    if verdict is None:
        return None
    return {"verdict": getattr(verdict, flag), **{f: getattr(verdict, f) for f in fields}}


def structure_report(sys, d_max=None):
    """Every verdict of `StructureReport`, all read off one signature run."""
    sys = _verdict_system(sys)
    W = sys.ring.weights
    D = sys.degrees
    m, n = sys.m, sys.n
    # every h_i is read up to the regularity window, which builds no extra
    # row (the rows of every input are built that far for h_m anyway), and
    # up to the window of its prefix's Noether position
    window = default_window(W, D) if m <= n else 0
    windows = [max(window, _extended(sys, i)[1]) if m <= n else 0 for i in range(1, m + 1)]
    semi, h, restricted = _semiregular(sys, d_max, windows, m <= n)
    regular = _regularity_verdict(W, D, window, h[m]) if m <= n else None
    snp = _snp(sys, restricted) if m <= n else None
    return StructureReport(
        weights=W.weights,
        degrees=D,
        reverse_chain_divisible=is_reverse_chain_divisible(W),
        strongly_w_compatible=is_strongly_w_compatible(W, D[: min(m, n)]),
        hyp_degrees_vs_weights=all(D[j] >= W[j - 1] for j in range(1, min(m, n))),
        hyp_top_weight_divides=all(d % W[0] == 0 for d in D[: min(m, n)]),
        hyp_last_weight_one=W[n - 1] == 1,
        regular=regular,
        snp=snp,
        semiregular=semi,
    )
