"""The Buchberger criterion, a check on the bases the engines return.

No engine runs it: the matrix engine stops on certificates read off its own
run.  The tests check the bases against the definition.
"""

from wgb import reduce_poly, spoly
from wgb.monomial import mono_lcm, mono_mul


def spolynomial_audit(gb):
    """Every S-polynomial of two elements with non-coprime leading
    monomials reduces to zero modulo the basis."""
    G = gb.polys
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if mono_lcm(G[i].lm, G[j].lm) == mono_mul(G[i].lm, G[j].lm):
                continue
            if not reduce_poly(spoly(G[i], G[j]), G).is_zero:
                return False
    return True
