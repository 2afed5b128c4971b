"""Output checks that share no code with the program under test.

Monomial orders, normal forms, staircase counts and censuses are written
out here from their definitions; the program's polynomials are only read
through their `terms` and field modulus.  Each check returns None when the
output passes and a one-line reason when it does not.
"""

import heapq

from inputs import monomials


class Order:
    """A monomial order given by an ascending sort key and its reversal."""

    def __init__(self, key, inv_key):
        self.key = key
        self.inv_key = inv_key

    def leading(self, terms):
        """(monomial, coefficient) of the largest term."""
        return max(terms, key=lambda t: self.key(t[0]))


def wgrevlex(weights):
    """Weighted degree first, ties to the smaller last differing exponent."""
    ws = tuple(weights)
    return Order(
        lambda e: (sum(w * a for w, a in zip(ws, e)), tuple(-a for a in reversed(e))),
        lambda e: (-sum(w * a for w, a in zip(ws, e)), tuple(reversed(e))),
    )


LEX = Order(tuple, lambda e: tuple(-a for a in e))


def divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def leading_monomials(polys, order):
    return [order.leading(f.terms)[0] for f in polys]


def reduces_to_zero(f, basis, order):
    """True iff the normal form of f modulo basis under order is zero.

    Terms are eliminated largest first; the first largest term no leading
    monomial divides stays in the normal form, so it decides the answer.
    """
    if not f.terms:
        return True
    p = f.ring.field.p
    divs = []
    for g in basis:
        lm, lc = order.leading(g.terms)
        inv = pow(lc, p - 2, p)
        divs.append((lm, [(e, c * inv % p) for e, c in g.terms if e != lm]))
    rest = {e: c % p for e, c in f.terms}
    heap = [(order.inv_key(e), e) for e in rest]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = rest.pop(m) % p
        if not c:
            continue
        hit = next((d for d in divs if divides(d[0], m)), None)
        if hit is None:
            return False
        lm, tail = hit
        shift = tuple(a - b for a, b in zip(m, lm))
        for e, k in tail:
            em = tuple(a + b for a, b in zip(e, shift))
            if em not in rest:
                heapq.heappush(heap, (order.inv_key(em), em))
            rest[em] = (rest.get(em, 0) - c * k) % p
    return True


def staircase_size(lms, n, limit):
    """Number of monomials in n variables outside <lms>, or limit + 1 if more.

    The outside set is closed under division, so every member is reached
    from 1 by raising exponents in non-decreasing variable order.
    """
    count = 0
    stack = [((0,) * n, 0)]
    while stack:
        m, first = stack.pop()
        if any(divides(g, m) for g in lms):
            continue
        count += 1
        if count > limit:
            break
        for v in range(first, n):
            stack.append((m[:v] + (m[v] + 1,) + m[v + 1 :], v))
    return count


def census(lms, weights, upto):
    """Monomials outside <lms> of each weighted degree 0..upto."""
    return [
        sum(1 for m in monomials(weights, d) if not any(divides(g, m) for g in lms))
        for d in range(upto + 1)
    ]


def check_grevlex_basis(gb, sys, series, reference, dreg_bound):
    """The matrix engine's basis against the properties it must have.

    series is the expected quotient series (a coefficient list), reference
    the reduced basis from another engine, dreg_bound the weighted
    Macaulay bound or None.
    """
    W = sys.ring.weights.weights
    order = wgrevlex(W)
    lms = leading_monomials(gb.polys, order)
    upto = len(series) - 1 + max(W)
    want = series + [0] * (upto + 1 - len(series))
    got = census(lms, W, upto)
    if got != want:
        d = next(i for i in range(upto + 1) if got[i] != want[i])
        return f"census {got[d]} != expected {want[d]} at degree {d}"
    bad = next((i for i, f in enumerate(sys.polys) if not reduces_to_zero(f, gb.polys, order)), None)
    if bad is not None:
        return f"input {bad} does not reduce to zero modulo the basis"
    if dreg_bound is not None and gb.stats.observed_dreg > dreg_bound:
        return f"observed dreg {gb.stats.observed_dreg} > Macaulay bound {dreg_bound}"
    if [f.terms for f in gb.polys] != [f.terms for f in reference.polys]:
        return "basis differs from the reference basis"
    return None


def check_lex_basis(gb, lex, sys, bezout):
    """A grevlex basis and the lex basis derived from it.

    The inputs reduce to zero modulo the grevlex basis and its staircase has
    bezout monomials; every lex element reduces to zero modulo it and the
    lex leading terms leave bezout monomials outside, which makes the lex
    set a Groebner basis of the same ideal; it must also be reduced.
    """
    W = sys.ring.weights.weights
    n = len(W)
    order = wgrevlex(W)
    lms = leading_monomials(gb.polys, order)
    got = staircase_size(lms, n, bezout)
    if got != bezout:
        return f"grevlex staircase has {got} monomials, expected {bezout}"
    if not all(reduces_to_zero(f, gb.polys, order) for f in sys.polys):
        return "an input does not reduce to zero modulo the grevlex basis"
    bad = next((i for i, f in enumerate(lex.polys) if not reduces_to_zero(f, gb.polys, order)), None)
    if bad is not None:
        return f"lex element {bad} does not reduce to zero modulo the grevlex basis"
    lex_lms = leading_monomials(lex.polys, LEX)
    got = staircase_size(lex_lms, n, bezout)
    if got != bezout:
        return f"lex leading terms leave {got} monomials outside, expected {bezout}"
    for i, f in enumerate(lex.polys):
        lm, lc = LEX.leading(f.terms)
        if lc != 1:
            return f"lex element {i} is not monic"
        if any(j != i and divides(g, lm) for j, g in enumerate(lex_lms)):
            return f"lex leading term {i} is not minimal"
        if any(e != lm and any(divides(g, e) for g in lex_lms) for e, _ in f.terms):
            return f"lex element {i} has a reducible tail term"
    return None


def check_semiregular(verdict, weights, oracle):
    """A mixed-power sequence's verdict against what must hold.

    oracle is (rank_ok, first_failure) from the definition-based rank
    oracle for a rank failure, or None.  With w_1 = .. = w_{n-1} the
    sequence is semi-regular (strong Lefschetz for monomial complete
    intersections), and on the certifying subgrid the series verdict is
    the rank verdict.
    """
    if len(set(weights[:-1])) <= 1 and verdict.semiregular is not True:
        return "not semi-regular although w_1 = .. = w_{n-1}"
    if oracle is not None and oracle != (verdict.rank_ok, verdict.first_failure):
        return f"rank clause {verdict.rank_ok, verdict.first_failure} != oracle {oracle}"
    if verdict.series_certifying and verdict.series_ok != verdict.rank_ok:
        return "certifying series verdict differs from the rank verdict"
    return None


def check_square_structure(report, basis, bezout):
    """Regularity verdict = semi-regular rank clause = (staircase == bezout)."""
    n = len(report.weights)
    lms = leading_monomials(basis.polys, wgrevlex(report.weights))
    by_staircase = staircase_size(lms, n, bezout) == bezout
    regular = report.regular.regular
    if not (regular == report.semiregular.rank_ok == by_staircase):
        return (
            f"regular {regular}, rank clause {report.semiregular.rank_ok}, "
            f"staircase of {bezout} {by_staircase}"
        )
    return None
