"""Groebner basis engines.

Two routes: a Buchberger loop with lowest-weighted-degree pair selection
and the two classical pair criteria, and a degree-by-degree Macaulay
matrix engine for weighted homogeneous input that applies the signature
criterion to skip rows reducible by earlier leading terms (eliminating the
trivial syzygies) and measures the observed degree of regularity as the
largest degree whose matrix was actually built and reduced.
"""

import heapq
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .bounds import macaulay_weak
from .errors import (
    BudgetExceededError,
    IncompleteBasisError,
    NotInImageError,
    NotWHomogeneousError,
)
from .linalg import row_echelon, zeros
from .monomial import (
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_wdeg,
    wdeg,
)
from .order import WGREVLEX, MonomialOrder
from .poly import Polynomial, reduce_poly, spoly
from .series import semiregular_truncation_degree, staircase_census
from .transform import hom_w_inverse, hom_w_system


class DegreeRecord(NamedTuple):
    """Counts of one degree's matrix in the signature engine."""

    degree: int
    rows: int  # rows built
    skipped: int  # rows the signature criterion skipped
    cols: int
    new_pivots: int
    zero_reductions: int


@dataclass
class GBStats:
    pairs_considered: int = 0
    reductions_to_zero: int = 0
    observed_dreg: int = -1
    max_matrix_rows: int = 0
    max_matrix_cols: int = 0
    engine: str = ""
    # one DegreeRecord per matrix the signature engine built
    degrees: list = field(default_factory=list)

    def as_dict(self):
        return {
            "engine": self.engine,
            "pairs_considered": self.pairs_considered,
            "reductions_to_zero": self.reductions_to_zero,
            "observed_dreg": self.observed_dreg,
            "max_matrix_rows": self.max_matrix_rows,
            "max_matrix_cols": self.max_matrix_cols,
            "degrees": [rec._asdict() for rec in self.degrees],
        }


class GroebnerBasis:
    """A reduced Groebner basis, sorted by leading monomial, with its run
    statistics.  Every engine returns one: its elements are monic, no
    leading monomial divides another, and no tail term lies in the
    leading-term ideal."""

    __slots__ = ("ring", "polys", "stats")

    def __init__(self, ring, polys, stats):
        self.ring = ring
        self.polys = tuple(polys)
        self.stats = stats

    @property
    def order(self):
        return self.ring.order

    def lt_monomials(self):
        return [f.lm for f in self.polys]

    def reduce(self, f):
        return reduce_poly(f, self.polys)

    def spolynomial_audit(self):
        """Buchberger criterion: every S-polynomial reduces to zero."""
        G = self.polys
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                if mono_lcm(G[i].lm, G[j].lm) == mono_mul(G[i].lm, G[j].lm):
                    continue
                if not reduce_poly(spoly(G[i], G[j]), G).is_zero:
                    return False
        return True

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} polys, {self.ring!r})"

    def __iter__(self):
        return iter(self.polys)


def _interreduce(ring, G):
    """The reduced basis of the ideal of a Groebner basis G.

    The monic elements are taken in increasing leading-monomial order; one
    whose leading monomial a kept element divides is skipped, and each kept
    element's tail is reduced once against the kept elements below it (a
    larger leading monomial cannot divide a term below its own).  On a
    Groebner basis a term that some leading monomial of G divides is also
    divisible by a kept one, so this is the unique reduced basis, and two
    elements with one leading monomial give the same element.
    """
    key = ring.order.key
    done = []  # reduced elements, increasing leading monomial
    for f in sorted((f.monic() for f in G if f), key=lambda f: key(f.lm)):
        if not any(mono_divides(g.lm, f.lm) for g in done):
            done.append(reduce_poly(f, done))
    return done


def buchberger(sys):
    """Buchberger with lowest-weighted-degree-first pair selection, under
    the order of the system's ring.

    Applies the coprime-leading-term and chain criteria; the observed
    degree of regularity is the largest weighted degree of the lcm over
    pairs that were actually reduced.
    """
    ring = sys.ring
    okey = ring.order.key
    ws = ring.weights
    stats = GBStats(engine="buchberger")
    G = [f.monic() for f in sys.polys if f]
    if not G:
        return GroebnerBasis(ring, (), stats)

    heap = []

    def push_pair(i, j):
        l = mono_lcm(G[i].lm, G[j].lm)
        heapq.heappush(heap, (wdeg(l, ws), okey(l), i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    treated = set()
    while heap:
        _, _, i, j = heapq.heappop(heap)
        treated.add((i, j))
        stats.pairs_considered += 1
        lmi, lmj = G[i].lm, G[j].lm
        l = mono_lcm(lmi, lmj)
        if l == mono_mul(lmi, lmj):
            continue  # coprime leading terms
        chain = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(G[k].lm, l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in treated and b in treated:
                    chain = True
                    break
        if chain:
            continue
        stats.observed_dreg = max(stats.observed_dreg, wdeg(l, ws))
        h = reduce_poly(spoly(G[i], G[j]), G)
        if h.is_zero:
            stats.reductions_to_zero += 1
            continue
        h = h.monic()
        t = len(G)
        G.append(h)
        for i2 in range(t):
            push_pair(i2, t)

    polys = _interreduce(ring, G)
    return GroebnerBasis(ring, polys, stats)


def _divisible(monos, lms):
    """For each row of the exponent array monos: is it divisible by a row
    of lms?"""
    return (lms[None, :, :] <= monos[:, None, :]).all(axis=2).any(axis=1)


class _MatrixRun:
    """Shared degree-by-degree signature elimination.

    Harvested basis elements are tagged with the input index of the row
    that produced them, so the criterion for index i tests divisibility
    against leading terms discovered for indices < i only.
    """

    def __init__(self, sys):
        sys.require_w_homogeneous()
        if sys.ring.order.kind != WGREVLEX:
            raise NotWHomogeneousError("matrix engine requires the weighted grevlex order")
        self.ring = sys.ring
        self.p = sys.ring.field.p
        self.ws = sys.ring.weights
        self.inputs = [f.monic() for f in sys.polys if f]
        self.degrees = [f.wdeg() for f in self.inputs]
        self._terms = [
            (np.array([e for e, _ in f.terms], dtype=np.int64), np.array([c for _, c in f.terms]))
            for f in self.inputs
        ]
        self.basis = []      # harvested polynomials
        self.tags = []       # input index that produced each one
        self.prefix_pivots = {}  # degree -> pivots after the rows of inputs 0..i
        self.stats = GBStats(engine="matrix")
        self._monomials = {}

    def _sorted_monomials(self, d):
        """Monomials of weighted degree d, largest first, as tuples and as an
        exponent array (cached)."""
        hit = self._monomials.get(d)
        if hit is None:
            # on one weighted degree, weighted grevlex is the reverse of lex
            # on the reversed exponents
            n = self.ring.n
            monos = sorted(monomials_of_wdeg(self.ws.weights, d), key=itemgetter(*range(n - 1, -1, -1)))
            hit = self._monomials[d] = (monos, np.array(monos, dtype=np.int64).reshape(-1, n))
        return hit

    def run_degree(self, d, n_inputs=None):
        """Build and reduce the degree-d matrix; returns True if any row existed.

        Rows u*f_i come in input order, multipliers u increasing; the
        signature criterion skips the u divisible by the leading term of an
        element harvested for an earlier input.  Only the rows of the first
        n_inputs inputs are built when given.  Columns are the degree-d
        monomials, largest first.
        """
        lms = np.array([g.lm for g in self.basis], dtype=np.int64).reshape(-1, self.ring.n)
        tags = np.array(self.tags, dtype=np.int64)
        blocks = []
        skipped = 0
        for i, di in enumerate(self.degrees[:n_inputs]):
            if di > d:
                continue
            mults = self._sorted_monomials(d - di)[1][::-1]
            blocked = _divisible(mults, lms[tags < i])
            skipped += int(blocked.sum())
            mults = mults[~blocked]
            if len(mults):
                blocks.append((i, mults))
        nrows = sum(len(mults) for _, mults in blocks)
        if not nrows:
            return False
        cols, col_arr = self._sorted_monomials(d)
        ncols = len(cols)
        self.stats.max_matrix_rows = max(self.stats.max_matrix_rows, nrows)
        self.stats.max_matrix_cols = max(self.stats.max_matrix_cols, ncols)

        # mixed-radix codes, the last exponent the most significant digit,
        # increase along the columns and locate each product
        radix, size = [], 1
        for w in self.ws.weights:
            radix.append(size)
            size *= d // w + 1
        radix = np.array(radix, dtype=np.int64 if size < 2**63 else object)
        codes = col_arr @ radix
        A = zeros((nrows, ncols), np.int32)  # entries below p < 2^31
        row_input = np.empty(nrows, dtype=np.int64)
        r0 = 0
        for i, mults in blocks:
            exps, coeffs = self._terms[i]
            # the code of a product is the sum of the codes
            products = (mults @ radix)[:, None] + (exps @ radix)[None, :]
            at = np.searchsorted(codes, products)
            A[np.arange(r0, r0 + len(mults))[:, None], at] = coeffs
            row_input[r0 : r0 + len(mults)] = i
            r0 += len(mults)

        lead, E = row_echelon(A, self.p)
        independent = lead >= 0
        new_pivots = np.bincount(row_input[independent], minlength=len(self.inputs))
        self.prefix_pivots[d] = list(accumulate(new_pivots.tolist()))
        zero = nrows - len(E)
        self.stats.reductions_to_zero += zero
        self.stats.observed_dreg = max(self.stats.observed_dreg, d)
        self.stats.degrees.append(DegreeRecord(d, nrows, skipped, ncols, len(E), zero))

        # a new leading monomial not divisible by an earlier one is harvested;
        # two of one degree never divide each other
        harvest = ~_divisible(col_arr[lead[independent]], lms)
        producers = row_input[independent]
        for k in np.flatnonzero(harvest).tolist():
            row = E[k]
            nz = np.flatnonzero(row)
            terms = tuple(zip([cols[j] for j in nz.tolist()], row[nz].tolist()))
            self.basis.append(Polynomial(self.ring, terms))
            self.tags.append(int(producers[k]))
        return True

    def census_divergence(self, expected):
        """(degree, got, expected) at the first degree where the census of
        the basis so far leaves the expected series, or None."""
        upto = expected.degree + self.ws.max
        got = staircase_census([g.lm for g in self.basis], self.ws, upto)
        want = expected.coeffs_upto(upto)
        return next(((e, a, b) for e, (a, b) in enumerate(zip(got, want)) if a != b), None)


def matrix_gb_whomog(sys, expected_series=None, max_degree=None, deadline=None):
    """Degree-by-degree signature matrix engine for weighted homogeneous input.

    Stops when the supplied (polynomial) Hilbert series certifies the
    leading-term ideal, or else runs to the weak Macaulay window and checks
    the Buchberger criterion.  A window exhausted without either
    certificate raises IncompleteBasisError carrying the partial basis.
    """
    run = _MatrixRun(sys)
    ring = run.ring
    if not run.inputs:
        return GroebnerBasis(ring, (), run.stats)
    if expected_series is not None and not expected_series.polynomial:
        raise ValueError("Hilbert-driven termination needs a polynomial series")

    if max_degree is not None:
        d_stop = max_degree
    else:
        D = tuple(run.degrees)
        m, n = len(D), ring.n
        if m == n:
            d_stop = macaulay_weak(run.ws, D) + run.ws.max
        elif m > n:
            trunc = semiregular_truncation_degree(run.ws, D)
            if trunc is None:
                raise RuntimeError("could not locate the series truncation degree")
            d_stop = trunc + run.ws.max
        else:
            raise ValueError(
                "underdetermined weighted homogeneous input needs an explicit max_degree"
            )

    complete = False
    for d in range(min(run.degrees), d_stop + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError(
                f"matrix engine exceeded its budget at degree {d}", stats=run.stats
            )
        run.run_degree(d)
        if expected_series is not None and run.census_divergence(expected_series) is None:
            complete = True
            break

    # each harvested row is already reduced: it is a row of the reduced
    # echelon form of a matrix spanning I_d, so it is monic and its tail
    # lies on non-pivot columns, the monomials outside LT(I)
    polys = sorted(run.basis, key=lambda f: ring.order.key(f.lm))
    gb = GroebnerBasis(ring, polys, run.stats)
    if complete:
        return gb
    if expected_series is not None:
        e, got, want = divergence = run.census_divergence(expected_series)
        raise IncompleteBasisError(
            f"window [{min(run.degrees)}, {d_stop}] exhausted without matching the "
            f"expected Hilbert series: the census first leaves it at degree {e}, "
            f"{got} against {want}",
            partial=gb,
            stats=run.stats,
            first_divergence=divergence,
        )
    # the harvest lies in the ideal; it is a basis of it once it reduces
    # every input to zero and passes the Buchberger criterion
    if all(gb.reduce(f).is_zero for f in run.inputs) and gb.spolynomial_audit():
        return gb
    raise IncompleteBasisError(
        f"window [{min(run.degrees)}, {d_stop}] exhausted and the partial basis leaves "
        "an input unreduced or fails the S-polynomial audit",
        partial=gb,
        stats=run.stats,
    )


def prefix_ideal_dims(sys, up_to_degrees):
    """Row i lists dim (f_1..f_i)_e for e = 0..up_to_degrees[i-1] (row 0,
    the zero ideal, up to the largest bound), all from one signature run.

    Rows enter each degree's matrix in input order, and the criterion only
    skips a row u*f_i whose u is divisible by the leading term of an element
    of (f_1..f_{i-1}), a row already in the span of earlier rows.  So the
    pivot count after the rows of f_1..f_i is dim (f_1..f_i)_e.  Harvesting
    too few leading terms, or leaving out the rows of prefixes no longer
    asked for, only skips fewer rows and keeps the counts exact.
    """
    if any(f.is_zero for f in sys.polys):
        raise ValueError("zero polynomial in the sequence")
    run = _MatrixRun(sys)
    m = len(run.inputs)
    if len(up_to_degrees) != m:
        raise ValueError(f"need {m} degree bounds, got {len(up_to_degrees)}")
    top = max(up_to_degrees, default=-1)
    dims = [[0] * (top + 1)] + [[0] * (u + 1) for u in up_to_degrees]
    for d in range(top + 1):
        k = max(i + 1 for i, u in enumerate(up_to_degrees) if u >= d)
        if not run.run_degree(d, n_inputs=k):
            continue
        for i, c in enumerate(run.prefix_pivots[d][:k]):
            if d <= up_to_degrees[i]:
                dims[i + 1][d] = c
    return dims


def gb_via_homw(sys):
    """Compute through the weight substitution and pull back.

    The substitution preserves S-polynomials and pulls the image order
    back to the order of the system's ring: under lex a_i * w_i compares
    as a_i does, and under the graded orders the total degree of the image
    is the weighted degree.  So the reduced basis of the image system
    pulls back, in its order, to the reduced basis of the input.
    """
    sys.require_w_homogeneous()
    gb_img = buchberger(hom_w_system(sys))
    ws = sys.ring.weights
    pulled = []
    for g in gb_img.polys:
        try:
            pulled.append(hom_w_inverse(g, ws))
        except NotInImageError as exc:  # cannot happen for weighted homogeneous input
            raise RuntimeError(
                f"engine inconsistency: image basis element {g} not in the "
                f"substitution image: {exc}"
            ) from exc
    return GroebnerBasis(sys.ring, pulled, replace(gb_img.stats, engine="homw"))


def elimination_gb(sys, k):
    """Basis under the block order eliminating the first k variables.

    Returns the pair (basis, elimination basis), the latter being the
    elements free of the first k variables.
    """
    n = sys.ring.n
    if k >= n:
        raise ValueError(f"cannot eliminate {k} of {n} variables")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        order = MonomialOrder.wgrevlex(sys.ring.weights)
    else:
        order = MonomialOrder.elimination(sys.ring.weights, k)
    gb = buchberger(sys.with_order(order))
    elim = [f for f in gb.polys if all(e[i] == 0 for e, _ in f.terms for i in range(k))]
    return gb, elim
