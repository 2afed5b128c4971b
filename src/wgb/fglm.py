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
transformation appended: one product reduces a candidate, and a
dependency yields exactly one reduced lex basis element.  Field
operations are counted so the n * degree^3 cost shape is observable.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import PositiveDimensionError, StaircaseTooLargeError
from .linalg import MAX_INNER, matmul_mod, reduce_rows, zeros
from .order import MonomialOrder
# not called here; perfbench/tracing.py wraps this binding
from .poly import reduce_poly  # noqa: F401
from .engine import GBStats, GroebnerBasis
from .series import monomial_ideal_is_zero_dim


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


# the modular products are exact for inner dimensions below this
MAX_STAIRCASE = MAX_INNER
# echelon rows are copied out this many at a time, to keep copies small
_GATHER_ROWS = 64


@dataclass
class FglmStats:
    """degree: the staircase size D.  field_ops: the walk's multiply-adds,
    D * |support| for each normal-form product (the support of the parent's
    vector) and 2D per echelon row met while reducing a candidate or
    clearing a new pivot; building the multiplication matrices is not
    counted."""

    field_ops: int = 0
    degree: int = 0


def _support_product(M, vec, p):
    """M @ vec mod p over the nonzero entries of vec only."""
    supp = np.flatnonzero(vec)
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
    """Reduced lex Groebner basis of the same zero-dimensional ideal."""
    ring = gb.ring
    p = ring.field.p
    n = ring.n
    B = staircase(gb)
    D = len(B)
    lex = MonomialOrder.lex(ring.weights)
    target = ring.with_order(lex)
    stats = FglmStats(degree=D)
    if D >= MAX_STAIRCASE:
        raise StaircaseTooLargeError(
            f"staircase of {D} monomials; the exact mat-vec products need fewer "
            f"than {MAX_STAIRCASE}"
        )

    if D == 0:
        out = GroebnerBasis(target, (target.one(),), GBStats(engine="fglm"))
        return (out, stats) if return_stats else out

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
        used = np.flatnonzero(vec[ech_pivots[:r]])
        stats.field_ops += len(used) * 2 * D
        for s in range(0, len(used), _GATHER_ROWS):
            u = used[s : s + _GATHER_ROWS]
            reduce_rows(row, ech_pivots[u], ech[u], p)
        nz = np.flatnonzero(row[:D])
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
        hit = np.flatnonzero(ech[:r, piv])
        stats.field_ops += len(hit) * 2 * D
        for s in range(0, len(hit), _GATHER_ROWS):
            h = hit[s : s + _GATHER_ROWS]
            cleared = ech[h]
            reduce_rows(cleared, [piv], row[None, :], p)
            ech[h] = cleared
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
    out = GroebnerBasis(target, polys, GBStats(engine="fglm"))
    return (out, stats) if return_stats else out
