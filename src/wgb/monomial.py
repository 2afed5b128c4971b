"""Exponent-vector monomials and weight systems.

Monomials are plain tuples of non-negative ints; all helpers here are pure
functions on those tuples.  A WeightSystem fixes one positive weight per
variable and defines the weighted degree sum(w_i * a_i).
"""

from functools import lru_cache
from math import prod
from operator import add, le, sub

from .errors import DimensionError


class WeightSystem:
    """A positive integer weight per variable."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(int(w) for w in weights)
        if not ws:
            raise ValueError("need at least one weight")
        if any(w < 1 for w in ws):
            raise ValueError(f"weights must be >= 1, got {ws}")
        self.weights = ws

    @classmethod
    def trivial(cls, n):
        return cls((1,) * n)

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def __eq__(self, other):
        return isinstance(other, WeightSystem) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return f"WeightSystem{self.weights}"

    @property
    def total(self):
        return sum(self.weights)

    @property
    def product(self):
        return prod(self.weights)

    @property
    def max(self):
        return max(self.weights)


def as_weights(w):
    """Coerce a WeightSystem or iterable of ints to a WeightSystem."""
    return w if isinstance(w, WeightSystem) else WeightSystem(w)


def wdeg(exps, weights):
    """Weighted degree sum(w_i * a_i) of an exponent tuple."""
    ws = weights.weights if isinstance(weights, WeightSystem) else tuple(weights)
    if len(exps) != len(ws):
        raise DimensionError(
            f"monomial has {len(exps)} exponents but {len(ws)} weights given"
        )
    return sum(w * a for w, a in zip(ws, exps))


def mono_mul(u, v):
    return tuple(map(add, u, v))


def mono_divides(u, v):
    """True iff u divides v."""
    return all(map(le, u, v))


def mono_div(v, u):
    """Quotient v / u; u must divide v."""
    return tuple(map(sub, v, u))


def mono_lcm(u, v):
    return tuple(map(max, u, v))


# the monomials of at most this many (weights, degree) pairs are kept, the
# recursion's own lists for the trailing weights included
MONOMIAL_LISTS = 1024


@lru_cache(maxsize=MONOMIAL_LISTS)
def monomials_of_wdeg(weights, d):
    """All exponent tuples of weighted degree exactly d, as a tuple.

    Ordering is the raw recursive one (ascending in the first variable);
    callers sort by their monomial order.
    """
    ws = weights if isinstance(weights, tuple) else tuple(weights)
    if len(ws) == 0:
        return ((),) if d == 0 else ()
    if len(ws) == 1:
        w = ws[0]
        return ((d // w,),) if d % w == 0 else ()
    out = []
    w0 = ws[0]
    for a in range(d // w0 + 1):
        for rest in monomials_of_wdeg(ws[1:], d - w0 * a):
            out.append((a,) + rest)
    return tuple(out)


def monomials_of_wdeg_at_most(weights, d):
    """All exponent tuples of weighted degree <= d."""
    ws = tuple(weights)
    out = []
    for e in range(d + 1):
        out.extend(monomials_of_wdeg(ws, e))
    return out
