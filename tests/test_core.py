"""Field, monomial, order and polynomial arithmetic."""

import random

import pytest

from wgb import (
    MonomialOrder,
    PolyRing,
    PolySystem,
    PrimeField,
    WeightSystem,
    reduce_poly,
    spoly,
    wdeg,
)
from wgb.errors import ArityError, DimensionError, FieldMismatchError
from wgb.monomial import mono_lcm, mono_mul, monomials_of_wdeg


def test_prime_field_basics():
    F = PrimeField(7)
    assert F.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ValueError):
        PrimeField(15)


def test_default_modulus_is_prime():
    assert PrimeField().p == 65521


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem((0, 1))
    W = WeightSystem((3, 2, 1))
    assert W.total == 6 and W.product == 6 and W.max == 3


def test_wdeg_examples():
    assert wdeg((1, 2, 0), (3, 2, 1)) == 7
    assert wdeg((0, 0, 0), (5, 7, 11)) == 0
    assert wdeg((2, 0, 5), (4, 2, 1)) == 13
    with pytest.raises(DimensionError):
        wdeg((1, 2), (3, 2, 1))


def test_compare_examples():
    o = MonomialOrder.wgrevlex((2, 1))
    assert o.compare((1, 0), (1, 0)) == 0
    # X1 vs X2^2: images tie in degree, grevlex tiebreak
    assert o.compare((1, 0), (0, 2)) == 1
    lex = MonomialOrder.lex(2)
    assert lex.compare((1, 0), (0, 9)) == 1
    with pytest.raises(DimensionError):
        o.compare((1, 0, 0), (0, 1, 0))


def test_wgrevlex_is_grevlex_pullback():
    # exhaustive on all pairs of monomials of weighted degree <= 12, n <= 3
    grevlex = MonomialOrder.wgrevlex((1, 1, 1))
    for W in [(2, 1, 1), (3, 2, 1), (4, 2, 1), (2, 2, 2)]:
        o = MonomialOrder.wgrevlex(W)
        monos = [m for d in range(13) for m in monomials_of_wdeg(W, d)]
        images = {m: tuple(a * w for a, w in zip(m, W)) for m in monos}
        gkey = grevlex.key
        okey = o.key
        ranked = sorted(monos, key=okey)
        ranked_img = sorted(monos, key=lambda m: gkey(images[m]))
        assert ranked == ranked_img
        for u in monos:
            for v in monos:
                assert (okey(u) < okey(v)) == (gkey(images[u]) < gkey(images[v]))


def test_flat_keys_sort_as_the_nested_oracle_keys():
    # every monomial of weighted degree <= 10, sorted by the order's flat
    # key and by the nested key it replaced: the same sequence
    import order_oracle

    for W in [(1, 1, 1), (2, 1, 1), (3, 2, 1), (1, 2, 3), (4, 2, 1, 1), (2, 3, 1, 1)]:
        monos = [m for d in range(11) for m in monomials_of_wdeg(W, d)]
        rng = random.Random(str(W))
        rng.shuffle(monos)
        cases = [(MonomialOrder.wgrevlex(W), order_oracle.wgrevlex_key(W))]
        cases.append((MonomialOrder.lex(W), order_oracle.lex_key))
        cases += [
            (MonomialOrder.elimination(W, k), order_oracle.elimination_key(W, k))
            for k in range(1, len(W))
        ]
        for order, oracle in cases:
            assert all(
                type(order.key(m)) is tuple and all(type(a) is int for a in order.key(m))
                for m in monos
            ), order
            assert sorted(monos, key=order.key) == sorted(monos, key=oracle), order


def test_order_is_total_and_multiplicative():
    rng = random.Random(42)
    for kind in ["wgrevlex", "lex", "elim"]:
        if kind == "elim":
            o = MonomialOrder.elimination((3, 2, 1, 1), 2)
        elif kind == "lex":
            o = MonomialOrder.lex((3, 2, 1, 1))
        else:
            o = MonomialOrder.wgrevlex((3, 2, 1, 1))
        for _ in range(300):
            u = tuple(rng.randrange(5) for _ in range(4))
            v = tuple(rng.randrange(5) for _ in range(4))
            w = tuple(rng.randrange(5) for _ in range(4))
            cuv = o.compare(u, v)
            assert cuv == -o.compare(v, u)
            if cuv == 0:
                assert u == v
            # multiplicative
            assert o.compare(mono_mul(u, w), mono_mul(v, w)) == cuv
            # transitivity through sorting consistency
            trip = sorted([u, v, w], key=o.key)
            assert o.compare(trip[0], trip[2]) <= 0


def test_trivial_weights_match_grevlex():
    rng = random.Random(7)
    o1 = MonomialOrder.wgrevlex((1, 1, 1))
    for _ in range(1000):
        u = tuple(rng.randrange(8) for _ in range(3))
        v = tuple(rng.randrange(8) for _ in range(3))
        du, dv = sum(u), sum(v)
        if du != dv:
            want = -1 if du < dv else 1
        else:
            want = 0
            for a, b in zip(reversed(u), reversed(v)):
                if a != b:
                    want = 1 if a < b else -1
                    break
        assert o1.compare(u, v) == want


@pytest.fixture
def ring7():
    return PolyRing(PrimeField(7), (1, 1), names=("X", "Y"))


def test_poly_add_identity(ring7):
    x, y = ring7.gens()
    f = x * x + 3 * y
    assert (f + ring7.zero()).terms == f.terms
    assert (f - f).is_zero


def test_difference_of_squares(ring7):
    x, y = ring7.gens()
    f = (x + y) * (x - y)
    assert f.terms == (x * x - y * y).terms


def test_binomial_cube():
    R = PolyRing(PrimeField(5), (1,), names=("X",))
    x = R.gen(0)
    f = (x + R.one()) ** 3
    assert f.coeff_map() == {(3,): 1, (2,): 3, (1,): 3, (0,): 1}


def test_field_mismatch_rejected():
    a = PolyRing(PrimeField(5), (1,)).gen(0)
    b = PolyRing(PrimeField(7), (1,)).gen(0)
    with pytest.raises(FieldMismatchError):
        a + b


def test_poly_normalization_invariants(ring7):
    f = ring7.from_map({(2, 0): 7, (1, 1): 3})  # 7 == 0 mod 7
    assert all(c != 0 for _, c in f.terms)
    keys = [ring7.order.key(e) for e, _ in f.terms]
    assert keys == sorted(keys, reverse=True)
    assert ring7.from_map({}).is_zero


def test_from_map_shares_python_int_exponent_tuples(ring7, monkeypatch):
    import numpy as np

    import wgb.poly as poly

    monkeypatch.setattr(poly, "_MONOMIALS", {})
    f = ring7.from_map({(np.int64(2), np.int64(1)): 3, (np.int64(0), np.int64(1)): 1})
    for e, _ in f.terms:
        assert type(e) is tuple and all(type(a) is int for a in e)
    assert all(type(a) is int for e in poly._MONOMIALS for a in e)
    # an equal tuple of Python ints, or of numpy ints, maps to the same object
    g = ring7.from_map({(2, 1): 5, (np.int64(0), np.int64(1)): 2})
    assert [e for e, _ in g.terms] == [e for e, _ in f.terms]
    assert all(a is b for (a, _), (b, _) in zip(f.terms, g.terms))


def test_shared_monomials_stay_within_their_bound(ring7, monkeypatch):
    import wgb.poly as poly

    monkeypatch.setattr(poly, "_MONOMIALS", {})
    monkeypatch.setattr(poly, "MONOMIALS", 5)
    x, y = ring7.gens()
    for k in range(12):
        f = ring7.from_map({(k, j): j + 1 for j in range(3)})
        assert len(poly._MONOMIALS) <= 5
        assert f.coeff_map() == {(k, j): j + 1 for j in range(3)}
    assert ((x + y) ** 4).coeff_map() == {(4 - j, j): [1, 4, 6, 4, 1][j] for j in range(5)}
    assert len(poly._MONOMIALS) <= 5


def test_reduce_examples(ring7):
    x, y = ring7.gens()
    g = x * x + y
    assert reduce_poly(g, [g]).is_zero
    assert reduce_poly(x * x, [x]).is_zero
    # one division step: X^2 Y + Y mod X^2 - 1 -> 2 Y
    f = x * x * y + y
    r = reduce_poly(f, [x * x - ring7.one()])
    assert r.terms == (2 * y).terms
    assert reduce_poly(f, []).terms == f.terms


def test_reduce_idempotent_and_no_divisible_monomials():
    rng = random.Random(3)
    R = PolyRing(PrimeField(65521), (2, 1, 1))
    for _ in range(50):
        f = R.from_map(
            {tuple(rng.randrange(4) for _ in range(3)): rng.randrange(1, 65521) for _ in range(8)}
        )
        G = [
            R.from_map(
                {tuple(rng.randrange(3) for _ in range(3)): rng.randrange(1, 65521) for _ in range(4)}
            )
            for _ in range(2)
        ]
        G = [g for g in G if g]
        nf = reduce_poly(f, G)
        assert reduce_poly(nf, G).terms == nf.terms
        for e, _ in nf.terms:
            assert not any(
                all(a <= b for a, b in zip(g.lm, e)) for g in G
            )


def test_spoly_examples(ring7):
    x, y = ring7.gens()
    f = x * x + y * y
    g = x * y + ring7.one()
    s = spoly(f, g)
    # y*(x^2+y^2) - x*(xy+1) = y^3 - x
    assert s.terms == (y ** 3 - x).terms
    assert spoly(f, f).is_zero
    with pytest.raises(ValueError):
        spoly(f, ring7.zero())


def test_spoly_whomogeneous_degree():
    R = PolyRing(PrimeField(65521), (3, 2), names=("X", "Y"))
    X, Y = R.gens()
    f = X ** 2 + Y ** 3
    g = X * Y
    s = spoly(f, g)
    assert s.is_w_homogeneous()
    lcm = mono_lcm(f.lm, g.lm)
    assert s.wdeg() == wdeg(lcm, (3, 2))


def test_system_degree_declaration():
    R = PolyRing(PrimeField(7), (2, 1))
    x, y = R.gens()
    sys = PolySystem(R, [x ** 2 + y ** 4, y])
    assert sys.degrees == (4, 1)
    assert sys.is_w_homogeneous()


def test_system_rejects_wrong_declared_degree():
    R = PolyRing(PrimeField(7), (1, 1), names=("X", "Y"))
    X, Y = R.gens()
    with pytest.raises(ArityError, match="declared 3"):
        PolySystem(R, [X ** 2, X * Y], (2, 3))
    assert PolySystem(R, [X ** 2, R.zero()], (2, 5)).degrees == (2, 5)


def test_system_rejects_polynomials_of_another_ring():
    # x + y^2 is homogeneous under W = (2, 1) only: a system of R1 took its
    # declared degree from R2's weights and got a basis outside the ideal
    R1 = PolyRing(PrimeField(7), (1, 1))
    R2 = PolyRing(PrimeField(7), (2, 1))
    x, y = R2.gens()
    with pytest.raises(FieldMismatchError):
        PolySystem(R1, [x + y ** 2, y ** 3])
    lex = PolyRing(PrimeField(7), (2, 1), MonomialOrder.lex((2, 1)))
    for other in (lex, PolyRing(PrimeField(5), (2, 1)), PolyRing(PrimeField(7), (2, 1), names=("A", "B"))):
        with pytest.raises(FieldMismatchError):
            PolySystem(other, [x + y ** 2])
    # an equal ring made apart is the same ring
    assert PolySystem(PolyRing(PrimeField(7), (2, 1)), [x + y ** 2]).degrees == (2,)
    assert PolySystem(R2, [x + y ** 2]).with_order(lex.order).ring == lex
