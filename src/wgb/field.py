"""Arithmetic over a prime field GF(p), p a prime below 2^31."""

DEFAULT_MODULUS = 65521
# every product of two residues fits in int64 with room for one addition,
# which the row loop and the mod-p steps of wgb.linalg rely on; its
# products stay exact below the bound by splitting operands into 16-bit
# halves once k * (p - 1)^2 reaches 2^53 (float64) or 2^63 (int64)
MODULUS_BOUND = 2**31


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """GF(p) with elements stored as plain ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p=DEFAULT_MODULUS):
        if p >= MODULUS_BOUND:
            raise ValueError(f"modulus {p} is not below the supported bound 2^31")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def normalize(self, a):
        return a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in prime field")
        return pow(a, self.p - 2, self.p)
