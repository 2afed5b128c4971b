"""Groebner basis engines.

Two routes: a Buchberger loop with sugar pair selection and the two
classical pair criteria, and a degree-by-degree Macaulay matrix engine for
weighted homogeneous input that applies the signature criterion to skip
rows reducible by earlier leading terms (eliminating the trivial
syzygies) and measures the observed degree of regularity as the largest
degree whose matrix was actually built and reduced.
"""

import heapq
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import accumulate, count
from operator import itemgetter, le
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExceededError,
    IncompleteBasisError,
    NotInImageError,
    NotWHomogeneousError,
)
from .linalg import row_echelon, row_rank_profile, zeros
from .monomial import mono_divides, monomials_of_wdeg, wdeg
from .order import WGREVLEX, MonomialOrder
from .poly import Polynomial, reduce_poly, spoly
from .series import expand_rational, monomial_census, staircase_census
# not called here; perfbench/tracing.py wraps this binding
from .series import semiregular_truncation_degree  # noqa: F401
from .transform import hom_w_inverse, hom_w_system


class DegreeRecord(NamedTuple):
    """Counts of one degree's matrix in the signature engine."""

    degree: int
    rows: int  # rows the criterion kept, unit rows read off unbuilt included
    skipped: int  # rows the signature criterion skipped
    cols: int
    new_pivots: int
    zero_reductions: int
    input_pivots: tuple  # new pivots per input index
    input_zero_reductions: tuple  # zero reductions per input index


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
    """Buchberger with sugar pair selection, under the order of the
    system's ring.

    A pair is taken lowest sugar first (Giovini, Mora, Niesi, Robbiano and
    Traverso, ISSAC 1991): an input's sugar is its weighted degree, a pair's
    is the larger of sugar(f) + wdeg(lcm) - wdeg(lm f) over its two
    elements, and a new element has its pair's.  On weighted homogeneous
    input that is wdeg(lcm), lowest-weighted-degree-first selection.
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
    # parallel to G: leading monomials, their weighted degrees, and sugars
    lms = [f.lm for f in G]
    lm_degs = [wdeg(m, ws) for m in lms]
    sugars = [f.wdeg() for f in G]

    heap = []

    def push_pair(i, j):
        l = tuple(map(max, lms[i], lms[j]))
        dl = wdeg(l, ws)
        sugar = max(sugars[i] - lm_degs[i], sugars[j] - lm_degs[j]) + dl
        heapq.heappush(heap, (sugar, okey(l), i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    treated = set()
    while heap:
        sugar, _, i, j = heapq.heappop(heap)  # i < j
        treated.add((i, j))
        stats.pairs_considered += 1
        lmi, lmj = lms[i], lms[j]
        if not any(map(min, lmi, lmj)):
            continue  # coprime leading terms
        l = tuple(map(max, lmi, lmj))
        # chain criterion: a third leading monomial divides l and both of
        # its pairs with i and j are treated
        for k, lmk in enumerate(lms):
            if (
                all(map(le, lmk, l))
                and k != i
                and k != j
                and ((k, i) if k < i else (i, k)) in treated
                and ((k, j) if k < j else (j, k)) in treated
            ):
                break
        else:
            stats.observed_dreg = max(stats.observed_dreg, wdeg(l, ws))
            h = reduce_poly(spoly(G[i], G[j]), G)
            if h.is_zero:
                stats.reductions_to_zero += 1
                continue
            h = h.monic()
            t = len(G)
            G.append(h)
            lms.append(h.lm)
            lm_degs.append(wdeg(h.lm, ws))
            sugars.append(sugar)
            for i2 in range(t):
                push_pair(i2, t)

    polys = _interreduce(ring, G)
    return GroebnerBasis(ring, polys, stats)


def _divisible(monos, lms):
    """For each row of the exponent array monos: is it divisible by a row
    of lms?"""
    return (lms[None, :, :] <= monos[:, None, :]).all(axis=2).any(axis=1)


# the monomial tables of at most this many (weights, degree) pairs are kept
MONOMIAL_TABLES = 1024


@lru_cache(maxsize=MONOMIAL_TABLES)
def _monomial_table(weights, d):
    """Monomials of weighted degree d, largest first, as tuples, as an
    exponent array and as the index of their last variable (0 for the
    monomial 1), with the radix of the degree's column codes and the code
    of each monomial; the arrays are read-only, as the memo shares them."""
    # on one weighted degree, weighted grevlex is the reverse of lex on the
    # reversed exponents
    n = len(weights)
    monos = tuple(sorted(monomials_of_wdeg(weights, d), key=itemgetter(*range(n - 1, -1, -1))))
    arr = np.array(monos, dtype=np.int64).reshape(-1, n)
    last = ((arr > 0) * np.arange(n)).max(axis=1)
    # mixed-radix codes, the last exponent the most significant digit,
    # increase along the columns and locate each product
    radix, size = [], 1
    for w in weights:
        radix.append(size)
        size *= d // w + 1
    radix = np.array(radix, dtype=np.int64 if size < 2**63 else object)
    codes = arr @ radix
    for a in (arr, last, radix, codes):
        a.flags.writeable = False
    return monos, arr, last, radix, codes


class _MatrixRun:
    """Shared degree-by-degree signature elimination.

    Harvested basis elements are tagged with the input index of the row
    that produced them, so the criterion for index i tests divisibility
    against leading terms discovered for indices < i only.  A zero input
    keeps its index and builds no row.  A count_only run keeps the leading
    monomials and tags of its harvest but no polynomial, and asks the
    kernel for the rank profile alone.  It harvests the monomial of every
    single-term input up front, tagged with that input: the monomial lies
    in the ideal of every longer prefix, so a multiplier it divides lies in
    LT(f_1..f_{i-1}) for each later input i.  It never counts the rows of
    the leading single-term inputs, and keeps no DegreeRecord."""

    def __init__(self, sys, count_only=False):
        sys.require_w_homogeneous()
        if sys.ring.order.kind != WGREVLEX:
            raise NotWHomogeneousError("matrix engine requires the weighted grevlex order")
        self.ring = sys.ring
        self.p = sys.ring.field.p
        self.ws = sys.ring.weights
        # row scaling changes neither the reduced echelon form nor the rank
        # profile, so the inputs are taken as given
        self.inputs = list(sys.polys)
        self.degrees = [f.wdeg() for f in self.inputs]  # -1 for a zero input
        self._terms = [
            (np.array([e for e, _ in f.terms], dtype=np.int64), np.array([c for _, c in f.terms]))
            for f in self.inputs
        ]
        # the leading inputs of at most one term, whose rows are unit rows
        self.units = next((i for i, f in enumerate(self.inputs) if len(f.terms) > 1), len(self.inputs))
        self.count_only = count_only
        self.basis = []  # harvested polynomials, none when count_only
        # leading monomials of the harvest, and the input index that produced each
        single = [i for i, f in enumerate(self.inputs) if count_only and len(f.terms) == 1]
        self.lms = np.array([self.inputs[i].lm for i in single], dtype=np.int64).reshape(-1, self.ring.n)
        self.tags = np.array(single, dtype=np.int64)
        self.prefix_pivots = {}  # degree -> pivots after the rows of inputs 0..i
        self.lcm_degree = -1  # largest lcm degree of two harvested lms sharing a variable
        self._paired = 0  # harvested elements counted in lcm_degree
        self.table = partial(_monomial_table, self.ws.weights)

    def run_degree(self, d, n_inputs=None):
        """Build and reduce the degree-d matrix; returns its DegreeRecord, or
        for a count-only run the pivot columns and the input producing each,
        and None when the degree has no row.

        Rows u*f_i come in input order, multipliers u increasing; the
        signature criterion skips the u divisible by the leading term of an
        element harvested for an earlier input.  Only the rows of the first
        n_inputs inputs are built when given.  Columns are the degree-d
        monomials, largest first.

        The rows of the leading inputs of one term are never built: each is
        a unit row, a pivot on its column the first time the column appears
        and a reduction to zero after that.  Reducing a later row by a unit
        pivot only clears its entry in that column, so the other rows are
        built on the columns those pivots leave free.  A count-only run
        harvests no pivot of the last input it builds: only the criterion
        of a later input would read it.
        """
        lms, tags = self.lms, self.tags
        m = len(self.inputs)
        n_inputs = m if n_inputs is None else n_inputs
        blocks = []
        built = np.zeros(m, dtype=np.int64)  # rows per input
        skipped = 0
        for i in range(self.units if self.count_only else 0, n_inputs):
            di = self.degrees[i]
            if not 0 <= di <= d:
                continue
            mults = self.table(d - di)[1][::-1]
            blocked = _divisible(mults, lms[tags < i])
            skipped += int(blocked.sum())
            mults = mults[~blocked]
            if len(mults):
                blocks.append((i, mults))
                built[i] = len(mults)
        # the unit pivots, one on each column a leading single-term input's
        # monomial divides
        first = self._first_divisors(d, n_inputs)
        taken = first < m
        if not built.any() and not taken.any():
            return None
        cols, col_arr, _, radix, codes = self.table(d)
        unit = np.flatnonzero(taken)
        pivots, producers = [unit], [first[unit]]
        rest = [(i, mults) for i, mults in blocks if i >= self.units]
        if rest:
            free = np.flatnonzero(~taken)
            where = np.full(len(cols), -1, dtype=np.int64)
            where[free] = np.arange(len(free))
            A = zeros((int(built[self.units :].sum()), len(free)), np.int32)
            r0 = 0
            for i, mults in rest:
                # the code of a product is the sum of the codes
                products = (mults @ radix)[:, None] + (self._terms[i][0] @ radix)[None, :]
                at = where[np.searchsorted(codes, products)]
                r, t = np.nonzero(at >= 0)
                A[r0 + r, at[r, t]] = self._terms[i][1][t]  # entries below p < 2^31
                r0 += len(mults)
            lead, E = (row_rank_profile(A, self.p), None) if self.count_only else row_echelon(A, self.p)
            independent = lead >= 0
            row_input = np.repeat([i for i, _ in rest], [len(mults) for _, mults in rest])
            pivots.append(free[lead[independent]])
            producers.append(row_input[independent])
        pivots = np.concatenate(pivots)
        producers = np.concatenate(producers)
        # the pivots of degree d per prefix
        new_pivots = np.bincount(producers, minlength=m)
        self.prefix_pivots[d] = list(accumulate(new_pivots.tolist()))

        # a new leading monomial not divisible by an earlier one is harvested;
        # two of one degree never divide each other.  A count-only run has
        # harvested the divisor of every unit pivot up front
        if self.count_only:
            fresh = len(unit) + np.flatnonzero(producers[len(unit) :] < n_inputs - 1)
        else:
            fresh = np.arange(len(pivots))
        harvest = fresh[~_divisible(col_arr[pivots[fresh]], lms)] if len(fresh) else fresh
        if len(harvest):
            self.lms = np.concatenate([lms, col_arr[pivots[harvest]]])
            self.tags = np.concatenate([tags, producers[harvest]])
        if self.count_only:
            return pivots, producers
        for k in harvest.tolist():
            if k < len(unit):  # a unit pivot is the monomial itself
                terms = ((cols[pivots[k]], 1),)
            else:
                row = E[k - len(unit)]
                nz = np.flatnonzero(row)
                terms = tuple(zip([cols[j] for j in free[nz].tolist()], row[nz].tolist()))
            self.basis.append(Polynomial(self.ring, terms))
        nrows = int(built.sum())
        per_input = tuple(new_pivots.tolist()), tuple((built - new_pivots).tolist())
        return DegreeRecord(d, nrows, skipped, len(cols), len(producers), nrows - len(producers), *per_input)

    def _first_divisors(self, d, n_inputs):
        """For each degree-d column, the first of the leading single-term
        inputs among the first n_inputs whose monomial divides it, or the
        number of inputs when none does.  Their rows are unit rows, and a
        row the criterion skips lies on a column an earlier one's monomial
        divides, so the first row on a column, its pivot, is that input's."""
        monos = self.table(d)[1]
        first = np.full(len(monos), len(self.inputs))
        for i in reversed(range(min(n_inputs, self.units))):
            if 0 <= self.degrees[i] <= d:
                first[(self._terms[i][0] <= monos).all(axis=1)] = i
        return first

    def h(self, e):
        """dim (R/I)_e once the run has passed e: monomials less pivots."""
        return len(self.table(e)[0]) - self.prefix_pivots.get(e, [0])[-1]

    def certified(self, d):
        """Whether certificate (a) or (b) of matrix_gb_whomog holds after d."""
        if all(self.h(e) == 0 for e in range(d - self.ws.max + 1, d + 1)):
            return True
        if d < max(self.degrees):
            return False
        # fold the elements harvested since the last call into lcm_degree
        lms = self.lms
        w = np.array(self.ws.weights, dtype=np.int64)
        for j in range(self._paired, len(lms)):
            shared = lms[:j][(lms[:j, lms[j] > 0] > 0).any(axis=1)]
            if len(shared):
                self.lcm_degree = max(self.lcm_degree, int((np.maximum(shared, lms[j]) @ w).max()))
        self._paired = len(lms)
        return self.lcm_degree <= d

    def census_divergence(self, expected, d):
        """(degree, got, expected) at the first degree where the census of
        the harvest leaves the expected series, or None: h(e) up to d, where
        the harvest holds the leading monomials of I_e, and above d the
        monomials no harvested leading monomial divides."""
        for e, want in enumerate(expected.coeffs_upto(expected.degree + self.ws.max)):
            got = self.h(e) if e <= d else int((~_divisible(self.table(e)[1], self.lms)).sum())
            if got != want:
                return e, got, want
        return None


def matrix_gb_whomog(sys, expected_series=None, deadline=None):
    """Degree-by-degree signature matrix engine for weighted homogeneous input.

    After degree d the harvest holds the leading monomials of I_e, e <= d:
    each degree's matrix spans I_e and every new pivot no earlier leading
    monomial divides is harvested.  The run stops after the first degree d
    where one certificate holds:

    * given an expected (polynomial) Hilbert series, the census of the
      harvest meets it through max w degrees past its last term;
    * (a) h(e) = dim (R/I)_e is zero in degrees d - max w + 1 .. d: a
      monomial of degree e > d is x_i times one of degree e - w_i >= e -
      max w, so by induction every monomial above d is a leading monomial
      of the harvest;
    * (b) d >= max D and every two harvested leading monomials sharing a
      variable have their lcm at degree <= d: every input and every such
      S-polynomial lies in some I_e, e <= d, where the harvest is complete,
      so it reduces them to zero; coprime pairs need no reduction.

    (b) holds once d passes the degrees of the reduced basis and their
    lcms, so the run always ends.  A run certified before the census meets
    the expected series raises IncompleteBasisError with the basis, which
    is complete, and the first degree where the ideal's Hilbert function
    leaves the series.
    """
    run = _MatrixRun(sys)
    ring = run.ring
    stats = GBStats(engine="matrix")
    if not any(run.inputs):
        return GroebnerBasis(ring, (), stats)
    if expected_series is not None and not expected_series.polynomial:
        raise ValueError("Hilbert-driven termination needs a polynomial series")

    divergence = None
    for d in count(min(d for d in run.degrees if d >= 0)):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError(
                f"matrix engine exceeded its budget at degree {d}", stats=stats
            )
        record = run.run_degree(d)
        if record is not None:
            stats.degrees.append(record)
            stats.max_matrix_rows = max(stats.max_matrix_rows, record.rows)
            stats.max_matrix_cols = max(stats.max_matrix_cols, record.cols)
            stats.reductions_to_zero += record.zero_reductions
            stats.observed_dreg = d
        if expected_series is not None:
            divergence = run.census_divergence(expected_series, d)
            if divergence is None:
                break
        if run.certified(d):
            break

    # each harvested row is already reduced: it is a row of the reduced
    # echelon form of a matrix spanning I_d, so it is monic and its tail
    # lies on non-pivot columns, the monomials outside LT(I)
    polys = sorted(run.basis, key=lambda f: ring.order.key(f.lm))
    gb = GroebnerBasis(ring, polys, stats)
    if divergence is None:
        return gb
    e, got, want = divergence
    raise IncompleteBasisError(
        f"the basis is complete at degree {d}, but its census leaves the expected "
        f"Hilbert series at degree {e}, {got} against {want}",
        basis=gb, first_divergence=divergence,
    )


def prefix_ideal_dims(sys, up_to_degrees, restricted_up_to):
    """(dims, restricted) from one signature run: row i of dims lists dim
    (f_1..f_i)_e for e = 0..up_to_degrees[i-1], and row i of restricted dim
    (f_1..f_i)_e with x_{i+1}..x_n set to zero for e =
    0..restricted_up_to[i-1], a bound of -1 asking for none; row 0, the
    zero ideal, reaches the largest bound of its kind.  No restricted count
    is asked past its prefix's dimensions.

    Rows enter each degree's matrix in input order, and the criterion only
    skips a row u*f_i whose u is divisible by the leading term of an element
    of (f_1..f_{i-1}), a row already in the span of earlier rows.  So the
    pivots after the rows of f_1..f_i (a zero f_i has none) are the leading
    monomials of (f_1..f_i)_e.  Harvesting too few leading terms, or leaving
    out the rows of prefixes no longer asked for, only skips fewer rows and
    keeps them exact.  Under weighted grevlex a W-homogeneous I has
    in(I + (x_{i+1}..x_n)) = in(I) + (x_{i+1}..x_n), the reverse-lex
    property (Bayer-Stillman 1987; Eisenbud, Commutative Algebra, Prop.
    15.12), so the restricted dimension counts those on x_1..x_i alone: it
    is dim (J_i)_e, J_i = (f_j(x_1..x_i, 0..0))_{j <= i} in k[x_1..x_i].
    A prefix of i >= n inputs sets no variable to zero, so its restricted
    row is a copy of its dims row, and only the prefixes of fewer than n
    inputs keep a restricted count below.

    One rule settles every count.  Each count of each prefix is its census
    (the monomials of degree e, in x_1..x_i for the restricted one) less the
    dimension of its quotient, and that is counted off the run's pivots
    until a closed form for it is known, in one of three ways:

    * from the start, when f_1..f_i have one term at most: (f_1..f_i) and
      J_i are monomial ideals, J_i generated by the monomials free of
      x_{i+1}..x_n, and the pivot recursion of staircase_census counts
      their quotients in every degree (Bayer-Stillman, Computation of
      Hilbert functions, JSC 1992);
    * from the first degree d > 0 after min(w, d) degrees in a row where the
      quotient is zero, w = max W (max(w_1..w_i) for J_i): by the argument
      of certificate (a) of matrix_gb_whomog, every monomial of degree d is
      x_v times a leading monomial, so it is one too, and the quotient stays
      zero;
    * (r) when R/(f_1..f_n) becomes zero that way and d_1..d_n > 0: f_1..f_n
      is a homogeneous system of parameters of R, so a regular sequence, as
      R is graded Cohen-Macaulay (Bruns-Herzog, Cohen-Macaulay Rings, Thm
      2.1.2), and so is each prefix f_1..f_i, whose quotient has the series
      prod_{j <= i} (1 - T^d_j) / prod (1 - T^w_v) (Stanley, Hilbert
      functions of graded algebras, 1978).

    Each degree builds the rows of f_1..f_j alone, j the longest prefix
    whose dimension is not known (asked for at this degree or below the
    longest one that is) or whose restricted count is not known and asked
    for.  When the leading inputs have one term, a degree where no later
    input has a row and no restricted count is unknown makes no run: every
    longer prefix has their ideal there, whose census is known.  The run
    ends at the first degree where every count asked for is known.
    """
    run = _MatrixRun(sys, count_only=True)
    m, n = len(run.inputs), run.ring.n
    if len(up_to_degrees) != m or len(restricted_up_to) != m:
        raise ValueError(f"need {m} degree bounds of each kind, got {len(up_to_degrees)} and {len(restricted_up_to)}")
    if any(r > u for r, u in zip(restricted_up_to, up_to_degrees)):
        raise ValueError("a restricted count is asked past its prefix's dimensions")
    W = run.ws.weights
    top = max(up_to_degrees, default=-1)
    # per count (dimension, restricted) and prefix: its bound, its census,
    # the width of its certificate, its quotient by degree once known, and
    # its quotient in each degree so far; the restricted count only for the
    # short prefixes, of fewer than n inputs
    short = min(m, n - 1)
    bounds = [list(up_to_degrees), list(restricted_up_to[:short])]
    census = [[monomial_census(W, top)] * m, [monomial_census(W[:i], top) for i in range(1, short + 1)]]
    width = [[run.ws.max] * m, [max(W[:i]) for i in range(1, short + 1)]]
    known = [[None] * m, [None] * short]
    quotients = [[[] for _ in range(m)], [[] for _ in range(short)]]
    for i in range(1, run.units + 1):
        gens = [f.lm for f in run.inputs[:i] if f]
        # a zero input leaves the ideal of the prefix below it as it was
        same = i > 1 and not run.inputs[i - 1]
        known[0][i - 1] = known[0][i - 2] if same else staircase_census(gens, W, top)
        if i <= short and bounds[1][i - 1] >= 0:
            known[1][i - 1] = staircase_census([g[:i] for g in gens if not any(g[i:])], W[:i], top)
    none = [0] * m
    for d in range(top + 1):
        asked = [i for i, u in enumerate(up_to_degrees) if u >= d]
        counts = [(0, i) for i in range(asked[-1] + 1)] + [(1, i) for i, r in enumerate(bounds[1]) if r >= d]
        for c, i in counts:
            # d > 0: the monomial 1 is no multiple of a variable
            if d and known[c][i] is None and not any(quotients[c][i][-min(width[c][i], d) :]):
                known[c][i] = [0] * (top + 1)
                if c == 0 and i + 1 == n and min(run.degrees[:n]) > 0:
                    # (r) for the prefixes below n past the monomial ones,
                    # none of which has a zero quotient (Krull)
                    for j in range(run.units, n - 1):
                        known[0][j] = expand_rational(run.degrees[: j + 1], W, top).coeffs_upto(top)
        unknown = [(c, i) for c, i in counts if known[c][i] is None]
        if not unknown:
            break
        built = max(i for _, i in unknown) + 1
        # an unknown restricted count is one of a prefix past the leading
        # single-term inputs, and reads their pivots
        restricted = any(c for c, _ in unknown)
        if not run.units or restricted or any(0 <= di <= d for di in run.degrees[run.units : built]):
            got = run.run_degree(d, n_inputs=built)
            pivots = [run.prefix_pivots.get(d, none), none]
            if got is not None and restricted:
                # a pivot of input j on a monomial whose last variable is x_v
                # lies in x_1..x_i for the prefixes i >= max(j, v)
                at, producers = got
                tally = np.bincount(np.maximum(producers, run.table(d)[2][at]), minlength=m)
                pivots[1] = list(accumulate(tally.tolist()))
        else:
            # no input past the leading single-term ones has a row: every
            # longer prefix has their ideal in degree d
            pivots = [[census[0][0][d] - known[0][run.units - 1][d]] * m, none]
        for c, i in counts:
            quotients[c][i].append(census[c][i][d] - pivots[c][i] if known[c][i] is None else known[c][i][d])
    # each quotient as counted, then its closed form
    rows = [[[0] * (top + 1)], [[0] * (max(restricted_up_to, default=-1) + 1)]]
    for c in (0, 1):
        for i, u in enumerate(bounds[c]):
            q = quotients[c][i] + (known[c][i] or [])[len(quotients[c][i]) :]
            rows[c].append([a - b for a, b in zip(census[c][i][: u + 1], q)])
    rows[1] += [row[: r + 1] for row, r in zip(rows[0][short + 1 :], restricted_up_to[short:])]
    return rows


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
