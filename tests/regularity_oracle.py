"""Buchberger-based oracles for regularity and Noether position.

`is_regular_sequence` compares the staircase census of a Buchberger basis
with the rational product form; `noether_position_substitute` sets the
trailing variables to zero and tests regularity in the first m variables.
Neither shares code with the signature run that `wgb.structure` reads its
Hilbert functions from, which is what makes them a check.
"""

from wgb import PolyRing, PolySystem, buchberger
from wgb.errors import ArityError
from wgb.monomial import as_weights
from wgb.order import MonomialOrder
from wgb.series import expand_rational, staircase_census
from wgb.structure import RegularityVerdict, _wgrevlex_system


def is_regular_sequence(sys, window=None):
    """Quotient Hilbert series against the rational product form.

    Exact for m = n (the comparison window closes the staircase); for
    m < n the verdict means "regular up to the window degree".
    """
    sys = _wgrevlex_system(sys)
    sys.require_w_homogeneous()
    W = sys.ring.weights
    D = sys.degrees
    m, n = sys.m, sys.n
    if m > n:
        raise ArityError("regularity is for m <= n systems")
    if any(f.is_zero for f in sys.polys):
        return RegularityVerdict(False, True, 0, (0, None, None))
    square = m == n
    if window is None:
        if square:
            window = max(0, sum(D) - W.total) + W.max + 1
        else:
            window = sum(D) + W.max + 1
    expected = expand_rational(D, W, window)
    gb = buchberger(sys)
    got = staircase_census(gb.lt_monomials(), W, window)
    want = expected.coeffs_upto(window)
    if got == want:
        return RegularityVerdict(True, square, window)
    d = next(i for i in range(window + 1) if got[i] != want[i])
    return RegularityVerdict(False, square, window, (d, got[d], want[d]))


def noether_position_substitute(sys):
    """Noether position w.r.t. the first m variables: set the trailing
    variables to zero and test regularity in m variables."""
    sys = _wgrevlex_system(sys)
    sys.require_w_homogeneous()
    ring = sys.ring
    m, n = sys.m, sys.n
    if m > n:
        raise ArityError("Noether position is for m <= n systems")
    Wm = as_weights(ring.weights.weights[:m])
    sub = PolyRing(ring.field, Wm, MonomialOrder.wgrevlex(Wm), ring.names[:m])
    polys = []
    for f in sys.polys:
        kept = {
            e[:m]: c for e, c in f.terms if all(a == 0 for a in e[m:])
        }
        polys.append(sub.from_map(kept))
    return is_regular_sequence(PolySystem(sub, polys, sys.degrees))


def snp_substitute(sys):
    """(SNP verdict, first failing prefix), every prefix tested by
    `noether_position_substitute`."""
    for i in range(1, sys.m + 1):
        prefix = PolySystem(sys.ring, sys.polys[:i], sys.degrees[:i])
        if not noether_position_substitute(prefix).regular:
            return False, i
    return True, None
