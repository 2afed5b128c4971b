"""Brute-force staircase census, the reference for `series.staircase_census`.

It enumerates every monomial of each weighted degree and tests it against
every generator, which is the definition of the census and so a check on
the recursion.
"""

from wgb.monomial import mono_divides, monomials_of_wdeg


def staircase_census_enumerate(lt_monomials, weights, N):
    """Monomials outside the ideal of lt_monomials, per weighted degree 0..N."""
    gens = [tuple(g) for g in lt_monomials]
    return [
        sum(1 for m in monomials_of_wdeg(weights, d) if not any(mono_divides(g, m) for g in gens))
        for d in range(N + 1)
    ]
