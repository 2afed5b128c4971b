"""Change of ordering for zero-dimensional ideals.

Plain dense FGLM: extract the staircase, build the multiplication
matrices by normal forms, then walk lex monomials in increasing order,
testing each normal-form vector for linear dependence against a reduced
row echelon form with its transformation appended: one product reduces
a candidate, and a dependency yields exactly one reduced lex basis
element.  Field operations are counted so the n * degree^3 cost shape is
observable.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import PositiveDimensionError, StaircaseTooLargeError
from .linalg import MAX_INNER, matmul_mod, reduce_rows, zeros
from .monomial import mono_divides, mono_mul
from .order import MonomialOrder
from .poly import reduce_poly
from .engine import GBStats, GroebnerBasis
from .series import monomial_ideal_is_zero_dim


def staircase(gb):
    """Monomials outside the leading-term ideal, sorted by the basis order.

    Errors out when some variable has no pure power among the leading
    terms (positive-dimensional ideal).
    """
    ring = gb.ring
    lts = gb.lt_monomials()
    if any(all(a == 0 for a in g) for g in lts):
        return []
    if not lts or not monomial_ideal_is_zero_dim(lts, ring.n):
        raise PositiveDimensionError(
            "no pure variable power among the leading terms: positive dimension"
        )
    caps = [None] * ring.n
    for g in lts:
        nz = [i for i, a in enumerate(g) if a]
        if len(nz) == 1:
            i = nz[0]
            caps[i] = g[i] if caps[i] is None else min(caps[i], g[i])
    box = [()]
    for c in caps:
        box = [e + (a,) for e in box for a in range(c)]
    out = [m for m in box if not any(mono_divides(g, m) for g in lts)]
    out.sort(key=ring.order.key)
    return out


# the modular products are exact for inner dimensions below this
MAX_STAIRCASE = MAX_INNER
# echelon rows are copied out this many at a time, to keep copies small
_GATHER_ROWS = 64


@dataclass
class FglmStats:
    field_ops: int = 0
    degree: int = 0


def multiplication_matrices(gb, basis=None):
    """Matrices of multiplication by each variable on the staircase basis."""
    ring = gb.ring
    p = ring.field.p
    B = basis if basis is not None else staircase(gb)
    index = {m: i for i, m in enumerate(B)}
    D = len(B)
    mats = []
    for v in range(ring.n):
        ev = tuple(1 if i == v else 0 for i in range(ring.n))
        M = np.zeros((D, D), dtype=np.int64)
        for col, b in enumerate(B):
            m = mono_mul(b, ev)
            if m in index:
                M[index[m], col] = 1
                continue
            nf = reduce_poly(ring.monomial(m), gb.polys)
            for e, c in nf.terms:
                M[index[e], col] = c
        mats.append(M % p)
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
        out = GroebnerBasis(target, (target.one(),), True, GBStats(engine="fglm"))
        return (out, stats) if return_stats else out

    mats = multiplication_matrices(gb, B)
    index = {m: i for i, m in enumerate(B)}

    accepted = []            # lex staircase monomials, in discovery order
    accepted_index = {}
    vectors = []             # their normal-form coordinate vectors (length D)
    # reduced echelon rows over the accepted vectors, each followed by its
    # transformation: row = sum(trans[j] * vectors[j])
    ech = zeros((D, 2 * D), np.int64)
    ech_pivots = np.zeros(D, dtype=np.int64)
    lex_lts = []
    basis_out = []

    def nf_vector(mono):
        for v in range(n):
            if mono[v]:
                parent = tuple(a - (1 if i == v else 0) for i, a in enumerate(mono))
                j = accepted_index.get(parent)
                if j is not None:
                    stats.field_ops += D * D
                    return matmul_mod(mats[v], vectors[j], p)
        raise RuntimeError("candidate without accepted parent")

    unit = (0,) * n
    heap = [(lex.key(unit), unit)]
    seen = {unit}

    while heap:
        _, mono = heapq.heappop(heap)
        if any(mono_divides(lt, mono) for lt in lex_lts):
            continue
        if mono == unit:
            vec = np.zeros(D, dtype=np.int64)
            vec[index[unit]] = 1
        else:
            vec = nf_vector(mono)

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
            lex_lts.append(mono)
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
        accepted_index[mono] = len(accepted)
        accepted.append(mono)
        vectors.append(vec)
        for v in range(n):
            child = tuple(a + (1 if i == v else 0) for i, a in enumerate(mono))
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (lex.key(child), child))

    polys = sorted(basis_out, key=lambda f: lex.key(f.lm))
    out = GroebnerBasis(target, polys, True, GBStats(engine="fglm"))
    return (out, stats) if return_stats else out
