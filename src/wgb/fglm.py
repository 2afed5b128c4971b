"""Change of ordering for zero-dimensional ideals.

Dense FGLM by linear algebra, with no polynomial reduction: the input is
a reduced basis, as every engine returns.  The staircase is grown as an
order ideal from 1.  The multiplication matrices are filled border
monomial by border monomial in increasing order: a leading monomial's
column is minus its element's tail, and any other border monomial's
column is one product of an earlier column by a multiplication matrix,
over that column's nonzero support (Faugere-Gianni-Lazard-Mora, JSC 1993;
Faugere-Mou, ISSAC 2011).  The walk then takes lex monomials in increasing
order, forms each one's normal-form vector the same way, and tests it for
linear dependence against a reduced row echelon form with its
transformation appended: one product reduces a candidate, a new pivot
is cleared from the echelon rows with linalg.clear_column, and a
dependency yields exactly one reduced lex basis element.  Field
operations are counted so the n * degree^3 cost shape is observable.

When x_i occurs in the basis only as a power of x_i^(g_i), the walk runs
on the preimage under X_i -> X_i^(g_i), whose staircase is prod(g_i)
times smaller, and its lex basis is pulled back.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import PositiveDimensionError, StaircaseTooLargeError
from .linalg import MAX_INNER, clear_column, matmul_mod, reduce_rows, zeros
from .order import MonomialOrder
# not called here; perfbench/tracing.py wraps this binding
from .poly import reduce_poly  # noqa: F401
from .engine import GBStats, GroebnerBasis
from .series import monomial_ideal_is_zero_dim
from .transform import hom_w, hom_w_inverse


def _shift(m, v, s):
    """m with its v-th exponent moved by s."""
    return m[:v] + (m[v] + s,) + m[v + 1 :]


def staircase(gb):
    """Monomials outside the leading-term ideal, sorted by the basis order.

    Grown from 1 a total degree at a time: a monomial is in the staircase
    when it is not a leading monomial and each of its parents m / x_u
    already is (a leading monomial dividing m properly divides a parent).
    Errors out when some variable has no pure power among the leading
    terms (positive-dimensional ideal).
    """
    ring = gb.ring
    n = ring.n
    lts = gb.lt_monomials()
    if any(all(a == 0 for a in g) for g in lts):
        return []
    if not lts or not monomial_ideal_is_zero_dim(lts, n):
        raise PositiveDimensionError(
            "no pure variable power among the leading terms: positive dimension"
        )
    leading = set(lts)
    level = [(0,) * n]
    found = set(level)
    while level:
        children = {_shift(m, v, 1) for m in level for v in range(n)}
        level = [
            m
            for m in children
            if m not in leading
            and all(not m[u] or _shift(m, u, -1) in found for u in range(n))
        ]
        found.update(level)
    return sorted(found, key=ring.order.key)


# the modular products are exact for inner dimensions below this, so it
# bounds the staircase walked, the preimage's when the basis reduces
MAX_STAIRCASE = MAX_INNER
# echelon rows are copied out this many at a time, to keep copies small
_GATHER_ROWS = 64


@dataclass
class FglmStats:
    """degree: the staircase size D of the input.  walk_staircase: the
    size D' of the staircase walked, D / prod(g_i) when x_i occurs only as
    a power of x_i^(g_i), else D.  field_ops: the walk's multiply-adds,
    D' * |support| for each normal-form product (the support of the
    parent's vector) and 2D' per echelon row met while reducing a candidate
    or clearing a new pivot; building the multiplication matrices is not
    counted."""

    field_ops: int = 0
    degree: int = 0
    walk_staircase: int = 0


def _support_product(M, vec, p):
    """M @ vec mod p over the nonzero entries of vec only."""
    supp = vec.nonzero()[0]  # np.flatnonzero costs 4x as much on short rows
    return matmul_mod(M[:, supp], vec[supp], p), len(supp)


def multiplication_matrices(gb, basis=None):
    """Matrices of multiplication by each variable on the staircase basis.

    Column b of the v-th matrix is the normal form of x_v * b: a unit
    vector when x_v * b is in the staircase.  The other products, the
    border monomials, are handled in increasing order, each once for every
    column it fills.  A leading monomial has minus its element's tail as
    normal form, the elements being monic and reduced.  Any other border
    monomial m has a border parent m / x_k, and NF(m) = M_k NF(m / x_k) is
    one product over the support of NF(m / x_k): that support lies below
    m / x_k, so the columns x_k * s it reads are filled already, the order
    being multiplicative.

    The matrices are int32 with entries in [0, p), stored column-major.
    """
    ring = gb.ring
    n = ring.n
    p = ring.field.p
    B = basis if basis is not None else staircase(gb)
    index = {m: i for i, m in enumerate(B)}
    D = len(B)
    # columns are written and read whole
    mats = [zeros((D, D), np.int32).T for _ in range(n)]
    border = {}  # border monomial -> the (variable, column) pairs it fills
    for v in range(n):
        for col, b in enumerate(B):
            m = _shift(b, v, 1)
            row = index.get(m)
            if row is None:
                border.setdefault(m, []).append((v, col))
            else:
                mats[v][row, col] = 1
    leading = {g.lm: g for g in gb.polys}
    for m in sorted(border, key=ring.order.key):
        cells = border[m]
        g = leading.get(m)
        if g is not None:
            nf = np.zeros(D, dtype=np.int64)
            for e, c in g.terms[1:]:
                nf[index[e]] = -c % p
        else:
            # a leading monomial properly divides m = x_v * b, so some
            # parent m / x_k = x_v * (b / x_k), k != v, is a border monomial
            v, col = cells[0]
            b = B[col]
            k = next(
                k for k in range(n)
                if k != v and b[k] and _shift(m, k, -1) not in index
            )
            parent = mats[v][:, index[_shift(b, k, -1)]]
            nf, _ = _support_product(mats[k], parent, p)
        for v, col in cells:
            mats[v][:, col] = nf
    return mats


def fglm_lex(gb, return_stats=False):
    """Reduced lex Groebner basis of the same zero-dimensional ideal.

    Let g_i be the gcd of the exponents of x_i in the basis (1 when x_i
    never occurs).  The basis is then the image, under X_i -> X_i^(g_i), of
    a reduced basis over the ring with weights w_i * g_i, which keeps the
    order and every weighted degree.  The ring is a free module over that
    preimage ring, on the x^a with every a_i < g_i, so the image of the
    preimage's reduced lex basis is the reduced lex basis, and the
    staircase is prod(g_i) copies of the preimage's.  The walk runs once,
    on the preimage.
    """
    g = _substitution_exponents(gb)
    if all(k == 1 for k in g):
        out, stats = _lex_walk(gb)
    else:
        pre = [hom_w_inverse(f, g) for f in gb.polys]
        lex_pre, stats = _lex_walk(GroebnerBasis(pre[0].ring, pre, gb.stats))
        target = gb.ring.with_order(MonomialOrder.lex(gb.ring.weights))
        polys = [hom_w(f, g, target) for f in lex_pre.polys]
        out = GroebnerBasis(target, polys, lex_pre.stats)
        stats.degree *= math.prod(g)
    return (out, stats) if return_stats else out


def _substitution_exponents(gb):
    """Per variable, the gcd of its exponents in the basis, 1 if none."""
    columns = zip(*(e for f in gb.polys for e, _ in f.terms))
    return tuple(math.gcd(*col) or 1 for col in columns) or (1,) * gb.ring.n


def _lex_walk(gb):
    """The FGLM walk on gb's own staircase: (lex basis, FglmStats).

    fglm_lex calls it once, never itself: perfbench/tracing.py wraps
    fglm_lex and assumes its spans never nest."""
    ring = gb.ring
    p = ring.field.p
    n = ring.n
    B = staircase(gb)
    D = len(B)
    lex = MonomialOrder.lex(ring.weights)
    target = ring.with_order(lex)
    stats = FglmStats(degree=D, walk_staircase=D)
    if D >= MAX_STAIRCASE:
        raise StaircaseTooLargeError(
            f"staircase of {D} monomials to walk; the exact mat-vec products "
            f"need fewer than {MAX_STAIRCASE}"
        )

    if D == 0:
        return GroebnerBasis(target, (target.one(),), GBStats(engine="fglm")), stats

    mats = multiplication_matrices(gb, B)
    index = {m: i for i, m in enumerate(B)}

    accepted = []            # lex staircase monomials, in discovery order
    accepted_index = {}
    # their normal-form coordinate vectors, one row each; entries below p
    vectors = zeros((D, D), np.int32)
    # reduced echelon rows over the accepted vectors, each followed by its
    # transformation: row = sum(trans[j] * vectors[j])
    ech = zeros((D, 2 * D), np.int32)
    ech_pivots = np.zeros(D, dtype=np.int64)
    basis_out = []

    unit = (0,) * n
    heap = [(lex.key(unit), unit)]
    seen = {unit}

    while heap:
        _, mono = heapq.heappop(heap)
        # all smaller lex staircase monomials are accepted by now, so mono
        # is a multiple of a lex leading term iff some parent is not
        if any(mono[v] and _shift(mono, v, -1) not in accepted_index for v in range(n)):
            continue
        if mono == unit:
            vec = np.zeros(D, dtype=np.int64)
            vec[index[unit]] = 1
        else:
            # x_v times an accepted parent's vector
            v = next(v for v in range(n) if mono[v])
            parent = vectors[accepted_index[_shift(mono, v, -1)]]
            vec, support = _support_product(mats[v], parent, p)
            stats.field_ops += D * support

        # [vec | 0] reduced by the echelon rows: [work | -lam], where
        # vec = work + sum(lam[j] * vectors[j])
        row = np.zeros(2 * D, dtype=np.int64)
        row[:D] = vec
        # only the echelon rows at whose pivots vec is nonzero take part,
        # gathered a block at a time
        r = len(accepted)
        used = vec[ech_pivots[:r]].nonzero()[0]
        stats.field_ops += len(used) * 2 * D
        for s in range(0, len(used), _GATHER_ROWS):
            u = used[s : s + _GATHER_ROWS]
            reduce_rows(row, ech_pivots[u], ech[u], p)
        nz = row[:D].nonzero()[0]
        if nz.size == 0:
            # vec == sum(lam_j * vectors[j]): one reduced lex basis element
            terms = {mono: 1}
            for j in range(len(accepted)):
                c = int(row[D + j])
                if c:
                    terms[accepted[j]] = c
            basis_out.append(target.from_map(terms))
            continue
        piv = int(nz[0])
        row[D + len(accepted)] = 1
        row = (row * pow(int(row[piv]), p - 2, p)) % p
        hit = ech[:r, piv].nonzero()[0]
        stats.field_ops += len(hit) * 2 * D
        for s in range(0, len(hit), _GATHER_ROWS):
            clear_column(ech, hit[s : s + _GATHER_ROWS], piv, row, p)
        ech[r] = row
        ech_pivots[r] = piv
        accepted_index[mono] = r
        vectors[r] = vec
        accepted.append(mono)
        for v in range(n):
            child = _shift(mono, v, 1)
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (lex.key(child), child))

    polys = sorted(basis_out, key=lambda f: lex.key(f.lm))
    return GroebnerBasis(target, polys, GBStats(engine="fglm")), stats
