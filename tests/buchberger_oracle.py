"""Normal form and Buchberger loop as first written, the reference for
`poly.reduce_poly` and `engine.buchberger`.

The monomial helpers are generator expressions over `zip`, the divisor
search keeps the first hit in a tuple, and every divisor's leading
coefficient is inverted.  The loop selects the pair of lowest weighted
degree of the lcm (the normal strategy) and scans the basis elements for
the chain criterion through `mono_divides`, and ends with the one-pass
interreduction of `engine._interreduce`.  On weighted homogeneous
input the sugar of a pair is that degree, so the two loops consider the
same pairs in the same order.
"""

import heapq
from bisect import insort

from wgb.engine import GBStats, GroebnerBasis
from wgb.monomial import wdeg


def mono_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def mono_divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def mono_div(v, u):
    return tuple(b - a for a, b in zip(u, v))


def mono_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def reduce_poly(f, basis):
    """Full normal form of f modulo a list of polynomials, greatest
    monomial first, each term reduced by the first divisor in list order."""
    ring = f.ring
    divs = [(g.lm, ring.field.inv(g.lc), g.terms) for g in basis if g]
    if not divs or f.is_zero:
        return f
    p = ring.field.p
    key = ring.order.key
    tail = dict(f.terms)
    pending = sorted((key(m), m) for m in tail)
    out = {}
    while pending:
        _, m = pending.pop()
        c = tail.pop(m, None)
        if c is None:
            continue
        c %= p
        if c == 0:
            continue
        hit = None
        for lm, lcinv, terms in divs:
            if mono_divides(lm, m):
                hit = (lcinv, terms)
                break
        if hit is None:
            out[m] = c
            continue
        lcinv, terms = hit
        shift = mono_div(m, terms[0][0])
        factor = (c * lcinv) % p
        for e, k in terms[1:]:
            em = mono_mul(e, shift)
            old = tail.get(em)
            if old is None:
                tail[em] = (-factor * k) % p
                insort(pending, (key(em), em))
            else:
                tail[em] = (old - factor * k) % p
    return ring.from_map(out)


def spoly(f, g):
    f = f.monic()
    g = g.monic()
    l = mono_lcm(f.lm, g.lm)
    return f.mono_mul(mono_div(l, f.lm)) - g.mono_mul(mono_div(l, g.lm))


def buchberger(sys):
    """Buchberger with lowest-weighted-degree-first pair selection and the
    coprime and chain criteria."""
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
            continue
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
        G.append(h.monic())
        for i2 in range(len(G) - 1):
            push_pair(i2, len(G) - 1)

    key = ring.order.key
    done = []
    for f in sorted((f.monic() for f in G), key=lambda f: key(f.lm)):
        if not any(mono_divides(g.lm, f.lm) for g in done):
            done.append(reduce_poly(f, done))
    return GroebnerBasis(ring, done, stats)
