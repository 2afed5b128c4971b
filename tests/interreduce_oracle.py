"""Fixpoint interreduction, the reference for `engine._interreduce`.

It sweeps the elements in increasing order, reduces each one against all
the others, and starts the sweep again from the first element after every
change, until a whole sweep changes nothing.  That costs about k^2/2
reductions for k elements, but each step is the definition of a reduced
generating set, which is what makes it a check on the one-pass version.
"""

from wgb import reduce_poly


def interreduce_fixpoint(ring, polys):
    """Fixpoint interreduction: monic, minimal leading terms, reduced tails.

    Accepts any generating set; on a Groebner basis this produces the
    unique reduced basis.
    """
    sort_key = lambda f: (ring.order.key(f.lm), f.terms)
    work = [f.monic() for f in polys if f]
    changed = True
    while changed:
        changed = False
        work.sort(key=sort_key)
        for i in range(len(work)):
            h = reduce_poly(work[i], work[:i] + work[i + 1 :])
            if h.is_zero:
                work.pop(i)
                changed = True
                break
            h = h.monic()
            if h.terms != work[i].terms:
                work[i] = h
                changed = True
                break
    work.sort(key=sort_key)
    return work
