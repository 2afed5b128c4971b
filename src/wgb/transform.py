"""The weight substitution X_i -> t_i^(w_i) and weighted homogenization.

The substitution is an injective graded ring morphism from the weighted
graded algebra to the standard-graded one; a weighted homogeneous input of
weighted degree d maps to an ordinary homogeneous polynomial of total
degree d.  Its partial inverse recovers the preimage whenever every t_i
exponent is divisible by w_i.  Both take any exponent vector in place of
the weights: X_i -> X_i^(g_i) keeps every weighted degree and the order
when the preimage weights are the image's times g_i.
"""

from .errors import NotInImageError
from .monomial import WeightSystem, as_weights, wdeg
from .order import MonomialOrder
from .poly import PolyRing, PolySystem


def _image_order(order):
    """Pull the order kind over to the trivially weighted image ring."""
    return MonomialOrder(order.kind, WeightSystem.trivial(len(order.weights)), order.block)


def image_ring(ring):
    """The standard-graded ring the substitution maps into."""
    return PolyRing(ring.field, WeightSystem.trivial(ring.n), _image_order(ring.order), ring.names)


def hom_w(f, exps=None, target=None):
    """Substitute X_i -> X_i^(exps_i) into target.

    By default exps are the weights and target is the trivially weighted
    image ring; indices are reused for the image variables.
    """
    ring = f.ring
    es = ring.weights if exps is None else as_weights(exps)
    target = image_ring(ring) if target is None else target
    terms = {}
    for e, c in f.terms:
        terms[tuple(a * g for a, g in zip(e, es))] = c
    return target.from_map(terms)


def _scaled(ws, exps):
    return WeightSystem(tuple(w * g for w, g in zip(ws.weights, exps.weights)))


def hom_w_inverse(g, exps):
    """Inverse of hom_w on its image; raises NotInImageError otherwise.

    X_i^a -> X_i^(a / exps_i), into the ring whose weights, and those of
    its order of the same kind and block, are g's times exps: every
    weighted degree and the order are kept.  On the trivially weighted
    image ring that is the ring graded by exps.
    """
    es = as_weights(exps)
    ring = g.ring
    order = ring.order
    source = PolyRing(
        ring.field,
        _scaled(ring.weights, es),
        MonomialOrder(order.kind, _scaled(order.weights, es), order.block),
        ring.names,
    )
    terms = {}
    for e, c in g.terms:
        pre = []
        for i, (a, k) in enumerate(zip(e, es)):
            if a % k:
                raise NotInImageError(
                    f"term {dict(zip(ring.names, e))}: exponent {a} of "
                    f"{ring.names[i]} is not divisible by {k}"
                )
            pre.append(a // k)
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
