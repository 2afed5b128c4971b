"""Monomial orders: weighted grevlex, lex, and block elimination orders.

The weighted grevlex order is defined as the pullback of ordinary grevlex
through the substitution X_i -> t_i^(w_i): u < v iff the image of u is
grevlex-smaller than the image of v.  Concretely this compares weighted
degrees first and breaks ties on the last differing exponent, smaller
exponent winning.

Each order has one key function, compiled once: a flat tuple of ints
that ascends with the order.  Weighted grevlex maps e to (wdeg, -e_n, ..,
-e_1), lex to e itself, and an elimination order to the weighted grevlex
key of the first block followed by that of the rest.  Keys assume
exponent tuples of the right arity; `compare` validates.
"""

from operator import mul, neg

from .errors import DimensionError
from .monomial import WeightSystem, as_weights

WGREVLEX = "wgrevlex"
LEX = "lex"
ELIM = "elim"


def _wgrevlex_key(ws):
    def key(e):
        return (sum(map(mul, ws, e)), *map(neg, reversed(e)))

    return key


def _build_key(kind, ws, block):
    if kind == WGREVLEX:
        return _wgrevlex_key(ws)
    if kind == LEX:
        return tuple
    head, tail = _wgrevlex_key(ws[:block]), _wgrevlex_key(ws[block:])
    return lambda e: head(e[:block]) + tail(e[block:])


class MonomialOrder:
    """A total multiplicative order on exponent tuples of fixed length.

    kind is one of "wgrevlex", "lex", "elim".  For "elim", the first
    `block` variables are compared first (each block under weighted
    grevlex for its slice of the weights).
    """

    __slots__ = ("kind", "weights", "block", "key")

    def __init__(self, kind, weights, block=0):
        if kind not in (WGREVLEX, LEX, ELIM):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.weights = as_weights(weights)
        n = len(self.weights)
        if kind == ELIM and not (0 < block < n):
            raise ValueError(f"elimination block must be in (0, {n}), got {block}")
        self.block = block if kind == ELIM else 0
        self.key = _build_key(self.kind, self.weights.weights, self.block)

    @classmethod
    def wgrevlex(cls, weights):
        return cls(WGREVLEX, weights)

    @classmethod
    def lex(cls, n_or_weights):
        ws = (
            n_or_weights
            if isinstance(n_or_weights, (WeightSystem, tuple, list))
            else (1,) * n_or_weights
        )
        return cls(LEX, ws)

    @classmethod
    def elimination(cls, weights, k):
        return cls(ELIM, weights, block=k)

    @property
    def n(self):
        return len(self.weights)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.weights == other.weights
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.weights, self.block))

    def __repr__(self):
        if self.kind == ELIM:
            return f"MonomialOrder(elim:{self.block}, W={self.weights.weights})"
        return f"MonomialOrder({self.kind}, W={self.weights.weights})"

    def compare(self, u, v):
        """-1, 0 or 1 as u <, =, > v."""
        if len(u) != self.n or len(v) != self.n:
            raise DimensionError(
                f"monomials {u}, {v} for an order on {self.n} variables"
            )
        ku, kv = self.key(u), self.key(v)
        if ku < kv:
            return -1
        if ku > kv:
            return 1
        return 0
