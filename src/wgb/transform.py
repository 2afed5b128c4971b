"""The weight substitution X_i -> t_i^(w_i) and weighted homogenization.

The substitution is an injective graded ring morphism from the weighted
graded algebra to the standard-graded one; a weighted homogeneous input of
weighted degree d maps to an ordinary homogeneous polynomial of total
degree d.  Its partial inverse recovers the preimage whenever every t_i
exponent is divisible by w_i.
"""

from .errors import NotInImageError
from .monomial import WeightSystem, as_weights, wdeg
from .order import ELIM, MonomialOrder
from .poly import PolyRing, PolySystem


def _image_order(order):
    """Pull the order kind over to the trivially weighted image ring."""
    n = len(order.weights)
    triv = WeightSystem.trivial(n)
    if order.kind == ELIM:
        return MonomialOrder.elimination(triv, order.block)
    return MonomialOrder(order.kind, triv)


def image_ring(ring):
    """The standard-graded ring the substitution maps into."""
    return PolyRing(ring.field, WeightSystem.trivial(ring.n), _image_order(ring.order), ring.names)


def hom_w(f):
    """Substitute X_i -> t_i^(w_i); indices are reused for the image variables."""
    ring = f.ring
    ws = ring.weights
    target = image_ring(ring)
    terms = {}
    for e, c in f.terms:
        image = tuple(a * w for a, w in zip(e, ws))
        terms[image] = c
    return target.from_map(terms)


def hom_w_inverse(g, weights):
    """Inverse of hom_w on its image; raises NotInImageError otherwise."""
    ws = as_weights(weights)
    ring = g.ring
    source = PolyRing(
        ring.field,
        ws,
        MonomialOrder(ring.order.kind, ws, ring.order.block)
        if ring.order.kind == ELIM
        else MonomialOrder(ring.order.kind, ws),
        ring.names,
    )
    terms = {}
    for e, c in g.terms:
        pre = []
        for i, (a, w) in enumerate(zip(e, ws)):
            if a % w:
                raise NotInImageError(
                    f"term {dict(zip(ring.names, e))}: exponent {a} of "
                    f"{ring.names[i]} is not divisible by weight {w}"
                )
            pre.append(a // w)
        terms[tuple(pre)] = c
    return source.from_map(terms)


def hom_w_system(sys):
    ring = image_ring(sys.ring)
    return PolySystem(ring, [hom_w(f) for f in sys.polys], sys.degrees)


def w_homogenize_affine(f):
    """Homogenize with a weight-1 variable appended last.

    The output is homogeneous for (w_1..w_n, 1) of weighted degree equal to
    the weighted degree of f; substituting 1 for the new variable gives f
    back.
    """
    ring = f.ring
    ws = ring.weights
    wh = WeightSystem(ws.weights + (1,))
    target = PolyRing(ring.field, wh, MonomialOrder.wgrevlex(wh), ring.names + ("H",))
    if f.is_zero:
        return target.zero()
    d = f.wdeg()
    terms = {}
    for e, c in f.terms:
        gap = d - wdeg(e, ws)
        terms[e + (gap,)] = c
    return target.from_map(terms)


def dehomogenize(fh):
    """Drop the last variable (set it to 1), returning to the affine ring."""
    ring = fh.ring
    ws = WeightSystem(ring.weights.weights[:-1])
    target = PolyRing(ring.field, ws, MonomialOrder.wgrevlex(ws), ring.names[:-1])
    acc = {}
    for e, c in fh.terms:
        base = e[:-1]
        acc[base] = acc.get(base, 0) + c
    return target.from_map(acc)


def w_homogeneous_components(f, weights=None):
    """Split f into its weighted homogeneous components, keyed by degree."""
    ring = f.ring
    ws = as_weights(weights) if weights is not None else ring.weights
    if weights is not None and ws != ring.weights:
        ring = PolyRing(ring.field, ws, MonomialOrder.wgrevlex(ws), ring.names)
    buckets = {}
    for e, c in f.terms:
        buckets.setdefault(wdeg(e, ws), {})[e] = c
    return {d: ring.from_map(m) for d, m in sorted(buckets.items())}


def top_component(f):
    """The component of maximal weighted degree (zero for the zero input)."""
    comps = w_homogeneous_components(f)
    if not comps:
        return f.ring.zero()
    return comps[max(comps)]
