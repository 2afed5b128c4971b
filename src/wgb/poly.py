"""Sparse multivariate polynomials over GF(p) with an attached monomial order."""

from bisect import insort
from operator import add, le, sub

from .errors import ArityError, DimensionError, FieldMismatchError, NotWHomogeneousError
from .field import PrimeField
from .monomial import (
    as_weights,
    mono_div,
    mono_lcm,
    mono_mul,
    wdeg,
)
from .order import MonomialOrder


# the polynomials from_map builds share their exponent tuples through one
# dict of at most this many tuples, cleared whole when full; its keys are
# tuples of Python ints, never numpy ints
MONOMIALS = 1 << 16
_MONOMIALS = {}


class PolyRing:
    """GF(p)[X_1..X_n] graded by a weight system, with a fixed monomial order."""

    __slots__ = ("field", "weights", "order", "names")

    def __init__(self, field, weights, order=None, names=None):
        if not isinstance(field, PrimeField):
            field = PrimeField(field)
        self.field = field
        self.weights = as_weights(weights)
        self.order = order if order is not None else MonomialOrder.wgrevlex(self.weights)
        if len(self.order.weights) != len(self.weights):
            raise DimensionError("order and ring have different variable counts")
        n = len(self.weights)
        self.names = tuple(names) if names else tuple(f"X{i+1}" for i in range(n))
        if len(self.names) != n:
            raise DimensionError("one name per variable required")

    @property
    def n(self):
        return len(self.weights)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.weights == other.weights
            and self.order == other.order
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.weights, self.order, self.names))

    def __repr__(self):
        return f"PolyRing({self.field}, W={self.weights.weights}, {self.order.kind})"

    def with_order(self, order):
        return PolyRing(self.field, self.weights, order, self.names)

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.normalize(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.n, c),))

    def gen(self, i):
        e = [0] * self.n
        e[i] = 1
        return Polynomial(self, ((tuple(e), 1),))

    def gens(self):
        return [self.gen(i) for i in range(self.n)]

    def monomial(self, exps):
        return self.from_map({tuple(exps): 1})

    def from_map(self, coeff_map):
        """Build from {exponent tuple: coefficient}, normalizing everything.

        Each exponent tuple is replaced by the one shared tuple of Python
        ints with its exponents (see MONOMIALS)."""
        n = self.n
        p = self.field.p
        cleaned = {}
        for e, c in coeff_map.items():
            if len(e) != n:
                raise DimensionError(f"term {tuple(e)} has wrong arity for {self!r}")
            c %= p
            if c:
                shared = _MONOMIALS.get(e)
                if shared is None:
                    if len(_MONOMIALS) >= MONOMIALS:
                        _MONOMIALS.clear()
                    shared = tuple(map(int, e))
                    _MONOMIALS[shared] = shared
                cleaned[shared] = c
        terms = tuple(
            (e, cleaned[e]) for e in sorted(cleaned, key=self.order.key, reverse=True)
        )
        return Polynomial(self, terms)


class Polynomial:
    """Immutable normalized polynomial: terms sorted leading-first, no zeros."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # tuple of (exps, coeff), descending by ring.order

    # -- basic inspection ------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def lm(self):
        """Leading monomial (exponent tuple)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def coeff_map(self):
        return {e: c for e, c in self.terms}

    def wdeg(self):
        """Weighted degree: max over terms (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        ws = self.ring.weights
        return max(wdeg(e, ws) for e, _ in self.terms)

    def is_w_homogeneous(self):
        if not self.terms:
            return True
        ws = self.ring.weights
        degs = {wdeg(e, ws) for e, _ in self.terms}
        return len(degs) == 1

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- arithmetic --------------------------------------------------------
    def _check(self, other):
        if self.ring.field != other.ring.field:
            raise FieldMismatchError(
                f"{self.ring.field} vs {other.ring.field}"
            )
        if self.ring.n != other.ring.n:
            raise DimensionError("variable counts differ")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return self.ring.from_map(acc)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) - c
        return self.ring.from_map(acc)

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((e, p - c) for e, c in self.terms))

    def scale(self, c):
        c = self.ring.field.normalize(c)
        if c == 0:
            return self.ring.zero()
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((e, (k * c) % p) for e, k in self.terms))

    def mono_mul(self, exps):
        """Multiply by X^exps (monomial multiplication keeps sorting)."""
        exps = tuple(exps)
        return Polynomial(self.ring, tuple((mono_mul(e, exps), c) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                acc[e] = acc.get(e, 0) + c1 * c2
        return self.ring.from_map(acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def monic(self):
        if not self.terms:
            return self
        if self.lc == 1:
            return self
        return self.scale(self.ring.field.inv(self.lc))

    # -- display ------------------------------------------------------------
    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(format_term(c, e, self.ring.names) for e, c in self.terms)


def format_term(c, e, names):
    """The coefficient c, then a factor NAME or NAME^a per nonzero exponent
    a of e, joined by '*'; c is left out when it is 1 and a factor follows."""
    factors = [name if a == 1 else f"{name}^{a}" for name, a in zip(names, e) if a]
    if c == 1 and factors:
        return "*".join(factors)
    return "*".join([str(c)] + factors)


def reduce_poly(f, basis):
    """Full normal form of f modulo a list of nonzero polynomials.

    No monomial of the result is divisible by any leading monomial of the
    basis; f minus the result lies in the ideal generated by the basis.
    Works greatest-monomial-first: the pending monomials sit on one list
    sorted by key, the greatest last, with lazy deletion of cancelled terms.
    A term is reduced by the first basis element, in list order, whose
    leading monomial divides it.
    """
    ring = f.ring
    field = ring.field
    divs = [(g.lm, g.terms[1:], 1 if g.lc == 1 else field.inv(g.lc)) for g in basis if g]
    if not divs or f.is_zero:
        return f
    p = field.p
    key = ring.order.key
    tail = dict(f.terms)
    pending = sorted((key(m), m) for m in tail)
    out = {}
    while pending:
        _, m = pending.pop()
        c = tail.pop(m, None)
        if c is None:
            continue
        c %= p
        if c == 0:
            continue
        for lm, rest, lcinv in divs:
            if all(map(le, lm, m)):
                break
        else:
            out[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        factor = c * lcinv % p
        for e, k in rest:
            em = tuple(map(add, e, shift))
            old = tail.get(em)
            if old is None:
                tail[em] = -factor * k % p
                insort(pending, (key(em), em))
            else:
                tail[em] = (old - factor * k) % p
    return ring.from_map(out)


def spoly(f, g):
    """S-polynomial with monic normalization of both inputs."""
    if not f or not g:
        raise ValueError("S-polynomial of a zero polynomial")
    f = f.monic()
    g = g.monic()
    l = mono_lcm(f.lm, g.lm)
    return f.mono_mul(mono_div(l, f.lm)) - g.mono_mul(mono_div(l, g.lm))


class PolySystem:
    """A list of polynomials sharing one ring, with declared weighted degrees."""

    __slots__ = ("ring", "polys", "degrees")

    def __init__(self, ring, polys, degrees=None):
        self.ring = ring
        self.polys = tuple(polys)
        for f in self.polys:
            if f.ring != ring:
                raise FieldMismatchError("system polynomials must share the ring")
        if degrees is None:
            degrees = tuple(f.wdeg() for f in self.polys)
        self.degrees = tuple(degrees)
        if len(self.degrees) != len(self.polys):
            raise ArityError(
                f"{len(self.degrees)} degrees for {len(self.polys)} polynomials"
            )
        for i, (f, d) in enumerate(zip(self.polys, self.degrees)):
            if f and f.wdeg() != d:
                raise ArityError(
                    f"polynomial #{i + 1} has weighted degree {f.wdeg()}, declared {d}"
                )

    @property
    def m(self):
        return len(self.polys)

    @property
    def n(self):
        return self.ring.n

    @property
    def weights(self):
        return self.ring.weights

    def is_w_homogeneous(self):
        return all(f.is_w_homogeneous() for f in self.polys)

    def require_w_homogeneous(self):
        for i, f in enumerate(self.polys):
            if not f.is_w_homogeneous():
                raise NotWHomogeneousError(
                    f"polynomial #{i + 1} is not weighted homogeneous"
                )

    def with_order(self, order):
        ring = self.ring.with_order(order)
        polys = [ring.from_map(f.coeff_map()) for f in self.polys]
        return PolySystem(ring, polys, self.degrees)

    def __repr__(self):
        return f"PolySystem(m={self.m}, n={self.n}, W={self.weights.weights})"
