"""Monomial orders: weighted grevlex, lex, and block elimination orders.

The weighted grevlex order is defined as the pullback of ordinary grevlex
through the substitution X_i -> t_i^(w_i): u < v iff the image of u is
grevlex-smaller than the image of v.  Concretely this compares weighted
degrees first and breaks ties on the last differing exponent, smaller
exponent winning.

Key functions are compiled once per order; `key` sorts ascending and
`inv_key` is its reversal (for max-first heaps).  Both assume exponent
tuples of the right arity; `compare` validates.
"""

from .errors import DimensionError
from .monomial import WeightSystem, as_weights

WGREVLEX = "wgrevlex"
LEX = "lex"
ELIM = "elim"


def _build_keys(kind, ws, block):
    if kind == WGREVLEX:
        def key(e, ws=ws):
            return (sum(w * a for w, a in zip(ws, e)), tuple(-a for a in reversed(e)))

        def inv_key(e, ws=ws):
            return (-sum(w * a for w, a in zip(ws, e)), tuple(reversed(e)))

    elif kind == LEX:
        def key(e):
            return tuple(e)

        def inv_key(e):
            return tuple(-a for a in e)

    else:
        w1, w2 = ws[:block], ws[block:]

        def key(e, w1=w1, w2=w2, k=block):
            h, t = e[:k], e[k:]
            return (
                sum(w * a for w, a in zip(w1, h)),
                tuple(-a for a in reversed(h)),
                sum(w * a for w, a in zip(w2, t)),
                tuple(-a for a in reversed(t)),
            )

        def inv_key(e, w1=w1, w2=w2, k=block):
            h, t = e[:k], e[k:]
            return (
                -sum(w * a for w, a in zip(w1, h)),
                tuple(reversed(h)),
                -sum(w * a for w, a in zip(w2, t)),
                tuple(reversed(t)),
            )

    return key, inv_key


class MonomialOrder:
    """A total multiplicative order on exponent tuples of fixed length.

    kind is one of "wgrevlex", "lex", "elim".  For "elim", the first
    `block` variables are compared first (each block under weighted
    grevlex for its slice of the weights).
    """

    __slots__ = ("kind", "weights", "block", "key", "inv_key")

    def __init__(self, kind, weights, block=0):
        if kind not in (WGREVLEX, LEX, ELIM):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.weights = as_weights(weights)
        n = len(self.weights)
        if kind == ELIM and not (0 < block < n):
            raise ValueError(f"elimination block must be in (0, {n}), got {block}")
        self.block = block if kind == ELIM else 0
        self.key, self.inv_key = _build_keys(self.kind, self.weights.weights, self.block)

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
