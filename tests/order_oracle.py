"""Nested sort keys, the reference for the flat keys of `wgb.order`.

Each key is written out from the definition of its order: weighted
grevlex compares the weighted degree, then the reversed exponents with
the smaller last differing exponent winning; lex compares the exponents;
an elimination order compares the first block under weighted grevlex and
breaks ties on the rest under weighted grevlex.  The reversed exponents
stay an inner tuple, as the order's keys were written before they were
flattened.
"""


def wgrevlex_key(weights):
    ws = tuple(weights)

    def key(e):
        return (sum(w * a for w, a in zip(ws, e)), tuple(-a for a in reversed(e)))

    return key


def lex_key(e):
    return tuple(e)


def elimination_key(weights, k):
    head, tail = wgrevlex_key(weights[:k]), wgrevlex_key(weights[k:])

    def key(e):
        return head(e[:k]) + tail(e[k:])

    return key
