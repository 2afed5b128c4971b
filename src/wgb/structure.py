"""Structural oracles and system generators.

Every verdict is read off the prefix Hilbert functions of signature runs
(`engine.prefix_ideal_dims`).  Regularity compares the quotient's Hilbert
function with the rational product form; Noether position appends the
trailing variables and tests regularity; semi-regularity is decided both by
graded multiplication-map ranks (the definition) and by prefix series
truncation (certifying under reverse chain-divisible weights with degrees
divisible by the top weight, advisory otherwise).
"""

import random
from dataclasses import dataclass
from typing import Optional

from .errors import ArityError, EmptySupportError, InsufficientWindowError
from .field import PrimeField
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
    semiregular_truncation_degree,
    staircase_census,
    truncate_semiregular,
)


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


def _hilbert_functions(sys, bounds, top):
    """[h_0, .., h_m] with h_i(e) = dim (R/(f_1..f_i))_e for e up to
    bounds[i-1] (h_0 up to top), all read off one signature run."""
    free = staircase_census([], sys.ring.weights, top)
    return [free] + [
        [free[e] - dim for e, dim in enumerate(dims)]
        for dims in prefix_ideal_dims(sys, bounds)[1:]
    ]


def _regularity_verdict(sys, window, h):
    """Compare the quotient Hilbert function h up to the window with the
    rational product form."""
    square = sys.m == sys.n
    got = h[: window + 1]
    want = expand_rational(sys.degrees, sys.ring.weights, window).coeffs_upto(window)
    if got == want:
        return RegularityVerdict(True, square, window)
    d = next(i for i in range(window + 1) if got[i] != want[i])
    return RegularityVerdict(False, square, window, (d, got[d], want[d]))


def is_regular_sequence(sys, window=None):
    """Quotient Hilbert function against the rational product form.

    Exact for m = n (the comparison window closes the staircase); for
    m < n the verdict means "regular up to the window degree".
    """
    sys = _wgrevlex_system(sys)
    sys.require_w_homogeneous()
    if sys.m > sys.n:
        raise ArityError("regularity is for m <= n systems")
    if any(f.is_zero for f in sys.polys):
        return RegularityVerdict(False, True, 0, (0, None, None))
    if window is None:
        window = default_window(sys.ring.weights, sys.degrees)
    h = _hilbert_functions(sys, [window] * sys.m, window)
    return _regularity_verdict(sys, window, h[-1])


def is_noether_position(sys):
    """Noether position w.r.t. the first m variables: the sequence extended
    by the trailing variables X_{m+1}..X_n is regular."""
    sys = _wgrevlex_system(sys)
    sys.require_w_homogeneous()
    ring = sys.ring
    m, n = sys.m, sys.n
    if m > n:
        raise ArityError("Noether position is for m <= n systems")
    polys = list(sys.polys) + [ring.gen(j) for j in range(m, n)]
    degrees = tuple(sys.degrees) + tuple(ring.weights[j] for j in range(m, n))
    return is_regular_sequence(PolySystem(ring, polys, degrees))


@dataclass(frozen=True)
class SnpVerdict:
    snp: bool
    first_failing_prefix: Optional[int]
    prefix_verdicts: tuple

    def __bool__(self):
        return self.snp


def is_snp(sys):
    """Simultaneous Noether position: every prefix in Noether position."""
    return _snp(_wgrevlex_system(sys))


def _snp(sys, regular=None):
    """SNP verdict; `regular`, when given, is the regularity verdict of the
    prefix m = n, the whole square system."""
    verdicts = tuple(
        regular if regular is not None and i == sys.n
        else is_noether_position(PolySystem(sys.ring, sys.polys[:i], sys.degrees[:i]))
        for i in range(1, sys.m + 1)
    )
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
    d_max, multiplication by f_i between the graded pieces of the prefix
    quotient is full rank.  Series method: every prefix quotient matches
    the truncation of its rational series; certifying for coprime reverse
    chain-divisible weights (w_n = 1) with d_1..d_n divisible by w_1,
    advisory otherwise.

    Both read the Hilbert functions h_i of the prefix quotients R/I_i off
    one signature run (`prefix_ideal_dims`): the rank of multiplication by
    f_i from degree d is h_{i-1}(d + d_i) - h_i(d + d_i).
    """
    return _semiregular(_wgrevlex_system(sys), d_max)[0]


def _semiregular(sys, d_max, window=0):
    """The verdict of `is_semiregular` and the prefix Hilbert functions
    [h_0, .., h_m] it is read from, each read up to the window at least."""
    sys.require_w_homogeneous()
    if any(f.is_zero for f in sys.polys):
        raise ValueError("zero polynomial in the sequence")
    W = sys.ring.weights
    D = sys.degrees
    m, n = sys.m, sys.n

    trunc = semiregular_truncation_degree(W, D)
    if d_max is None:
        base = trunc if trunc is not None else max(0, sum(D) - W.total)
        d_max = base + W.max
    inconclusive = trunc is not None and d_max < trunc

    # h_i is read up to d_max + d_i (multiplication by f_i) and, as the
    # domain side, up to d_max + d_{i+1}
    bounds = [max(d_max + max(D[i - 1 : i + 1]), 0, window) for i in range(1, m + 1)]
    h = _hilbert_functions(sys, bounds, max(bounds + [window]))

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
        s = expand_rational(D[:i], W, max(d_max, 0))
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
    return verdict, h


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _make_ring(field, weights, names=None):
    W = as_weights(weights)
    field = field if isinstance(field, PrimeField) else PrimeField(field or 65521)
    return PolyRing(field, W, MonomialOrder.wgrevlex(W), names)


def random_w_homogeneous_system(weights, degrees, seed, field=None, names=None):
    """Dense support on all monomials of weighted degree exactly d_i,
    uniform nonzero coefficients, deterministic under (seed, W, D, p)."""
    ring = _make_ring(field, weights, names)
    W, p = ring.weights, ring.field.p
    D = tuple(degrees)
    rng = random.Random(f"wgb-hom|{p}|{W.weights}|{D}|{seed}")
    polys = []
    for d in D:
        support = sorted(monomials_of_wdeg(W.weights, d), key=ring.order.key, reverse=True)
        if not support:
            raise EmptySupportError(
                f"no monomials of weighted degree {d} for weights {W.weights} "
                f"(Sylvester denumerant 0)"
            )
        polys.append(ring.from_map({m: rng.randrange(1, p) for m in support}))
    return PolySystem(ring, polys, D)


def random_affine_system(weights, degrees, seed, field=None, names=None):
    """Dense support on all monomials of weighted degree <= d_i."""
    ring = _make_ring(field, weights, names)
    W, p = ring.weights, ring.field.p
    D = tuple(degrees)
    rng = random.Random(f"wgb-aff|{p}|{W.weights}|{D}|{seed}")
    polys = []
    for d in D:
        if not monomials_of_wdeg(W.weights, d):
            raise EmptySupportError(
                f"no monomials of weighted degree {d} for weights {W.weights} "
                f"(Sylvester denumerant 0)"
            )
        support = sorted(
            monomials_of_wdeg_at_most(W.weights, d), key=ring.order.key, reverse=True
        )
        polys.append(ring.from_map({m: rng.randrange(1, p) for m in support}))
    return PolySystem(ring, polys, D)


def froberg_sequence(weights, degrees, d_extra, field=None, names=None):
    """(X_1^(d_1/w_1), .., X_n^(d_n/w_n), (X_1 + X_2^(w_1/w_2) + .. + X_n^(w_1/w_n))^(d_extra/w_1)).

    Needs reverse chain-divisible weights, strongly compatible degrees and
    w_1 | d_extra.
    """
    ring = _make_ring(field, weights, names)
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


def inversion_system(f_list, tag_names=None):
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
    names = base.names + tuple(
        tag_names[i] if tag_names else f"T{i+1}" for i in range(m)
    )
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
            "regular": None
            if self.regular is None
            else {
                "verdict": self.regular.regular,
                "certified": self.regular.certified,
                "window": self.regular.window,
                "first_mismatch": self.regular.first_mismatch,
            },
            "snp": None
            if self.snp is None
            else {
                "verdict": self.snp.snp,
                "first_failing_prefix": self.snp.first_failing_prefix,
            },
            "semiregular": {
                "verdict": self.semiregular.semiregular,
                "rank_ok": self.semiregular.rank_ok,
                "series_ok": self.semiregular.series_ok,
                "series_certifying": self.semiregular.series_certifying,
                "window": self.semiregular.window,
                "first_failure": self.semiregular.first_failure,
            },
        }


def structure_report(sys, d_max=None):
    """Every verdict of `StructureReport`.  Regularity and semi-regularity
    are read off one shared signature run; SNP adds one run per prefix
    shorter than n and takes the regularity verdict for the prefix m = n."""
    sys = _wgrevlex_system(sys)
    W = sys.ring.weights
    D = sys.degrees
    m, n = sys.m, sys.n
    # reading every h_i up to the regularity window builds no extra row:
    # the rows of every input are built that far for h_m anyway
    window = default_window(W, D) if m <= n else 0
    semi, h = _semiregular(sys, d_max, window)
    regular = _regularity_verdict(sys, window, h[m]) if m <= n else None
    snp = _snp(sys, regular) if m <= n else None
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
