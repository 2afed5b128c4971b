"""Inputs of the three workloads, made by the benchmark from the seed.

Systems are built through `PolyRing`/`PolySystem` with the benchmark's own
monomial enumeration and random coefficients, and the expected Hilbert
series are expanded here with plain integer arithmetic, so neither the
program's generators nor its series code can change a workload.
"""

import random
from itertools import product
from math import prod

from wgb.poly import PolyRing, PolySystem

MODULUS = 65521
BIG_PRIME = 2**31 - 1


def monomials(weights, d):
    """Exponent tuples of weighted degree exactly d."""
    if not weights:
        return [()] if d == 0 else []
    w, rest = weights[0], weights[1:]
    return [(a,) + m for a in range(d // w + 1) for m in monomials(rest, d - w * a)]


def dense_system(weights, degrees, label, p=MODULUS):
    """Every monomial of weighted degree d_i, coefficients uniform in [1, p)."""
    rng = random.Random(f"perfbench|{label}|{weights}|{degrees}|{p}")
    ring = PolyRing(p, weights)
    polys = [
        ring.from_map({m: rng.randrange(1, p) for m in monomials(weights, d)})
        for d in degrees
    ]
    return PolySystem(ring, polys, degrees)


def rational_series(degrees, weights, upto):
    """Coefficients 0..upto of prod(1 - T^d) / prod(1 - T^w)."""
    c = [0] * (upto + 1)
    c[0] = 1
    for d in degrees:
        for i in range(upto, d - 1, -1):
            c[i] -= c[i - d]
    for w in weights:
        for i in range(w, upto + 1):
            c[i] += c[i - w]
    return c


def expected_series(weights, degrees):
    """The quotient series a generic system must have, as a coefficient list.

    Square systems: the rational form, a polynomial of degree
    sum(d) - sum(w).  Overdetermined ones: the rational form cut at its
    first non-positive coefficient.
    """
    top = sum(degrees) - sum(weights)
    if len(degrees) == len(weights):
        c = rational_series(degrees, weights, top + max(weights))
        if any(c[top + 1 :]) or c[top] <= 0:
            raise ValueError(f"{weights}/{degrees}: the series is not a polynomial")
        return c[: top + 1]
    c = rational_series(degrees, weights, top)
    cut = next((i for i, a in enumerate(c) if a <= 0), None)
    if cut is None:
        raise ValueError(f"{weights}/{degrees}: no non-positive coefficient")
    return c[:cut]


def bezout(weights, degrees):
    """prod(d) / prod(w), the size of the staircase of a regular square system."""
    q, r = divmod(prod(degrees), prod(weights))
    if r:
        raise ValueError(f"{weights}/{degrees}: prod(d) is not a multiple of prod(w)")
    return q


def rcd_weights(n, wmax):
    """Reverse chain-divisible weights (w_{i+1} | w_i) with entries <= wmax."""
    out = []

    def rec(chain):
        if len(chain) == n:
            out.append(tuple(reversed(chain)))
            return
        for m in range(chain[-1], wmax + 1):
            if m % chain[-1] == 0:
                rec(chain + [m])

    for start in range(1, wmax + 1):
        rec([start])
    return out


def mixed_power_grid():
    """The (W, D, extra degree) points of the mixed-power semi-regularity grid:
    n <= 3 variables, reverse chain-divisible weights <= 4, w_i | d_i <= 8,
    w_1 | extra degree <= 8; 7672 points."""
    grid = []
    for n in (1, 2, 3):
        for W in rcd_weights(n, 4):
            for D in product(*[range(w, 9, w) for w in W]):
                for dx in range(W[0], 9, W[0]):
                    grid.append((W, D, dx))
    return grid


def mixed_power_sequence(weights, degrees, d_extra):
    """(X_1^(d_1/w_1), .., X_n^(d_n/w_n), (X_1 + X_2^(w_1/w_2) + ..)^(d_extra/w_1))."""
    ring = PolyRing(MODULUS, weights)
    n = len(weights)

    def power(i, a):
        return ring.monomial(tuple(a if j == i else 0 for j in range(n)))

    polys = [power(i, d // w) for i, (d, w) in enumerate(zip(degrees, weights))]
    mixed = ring.zero()
    for i, w in enumerate(weights):
        mixed = mixed + power(i, weights[0] // w)
    polys.append(mixed ** (d_extra // weights[0]))
    return PolySystem(ring, polys, tuple(degrees) + (d_extra,))
