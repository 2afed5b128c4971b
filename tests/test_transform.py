"""Weight substitution, homogenization, component splitting."""

import random

import pytest

from wgb import (
    PolyRing,
    PrimeField,
    dehomogenize,
    hom_w,
    hom_w_inverse,
    w_homogeneous_components,
    w_homogenize_affine,
)
from wgb.errors import NotInImageError
from wgb.structure import random_affine_system, random_w_homogeneous_system
from wgb.transform import top_component


def rand_poly(ring, rng, maxexp=4, nterms=6):
    return ring.from_map(
        {
            tuple(rng.randrange(maxexp) for _ in range(ring.n)): rng.randrange(1, ring.field.p)
            for _ in range(nterms)
        }
    )


def test_hom_w_constants_and_trivial_weights():
    R = PolyRing(PrimeField(7), (2, 1))
    assert hom_w(R.const(3)).coeff_map() == {(0, 0): 3}
    R1 = PolyRing(PrimeField(7), (1, 1))
    rng = random.Random(0)
    for _ in range(20):
        f = rand_poly(R1, rng)
        assert hom_w(f).coeff_map() == f.coeff_map()


def test_hom_w_substitution_example():
    R = PolyRing(PrimeField(7), (2, 1))
    f = R.from_map({(1, 0): 1, (0, 2): 1})  # X1 + X2^2
    g = hom_w(f)
    assert g.coeff_map() == {(2, 0): 1, (0, 2): 1}
    assert all(sum(e) == 2 for e, _ in g.terms)


def test_hom_w_is_graded_ring_morphism():
    rng = random.Random(5)
    R = PolyRing(PrimeField(65521), (3, 2, 1))
    for _ in range(30):
        f, g = rand_poly(R, rng), rand_poly(R, rng)
        assert hom_w(f * g).coeff_map() == (hom_w(f) * hom_w(g)).coeff_map()
        assert hom_w(f + g).coeff_map() == (hom_w(f) + hom_w(g)).coeff_map()
    for seed in range(10):
        sys = random_w_homogeneous_system((3, 2, 1), (6,), seed)
        f = sys.polys[0]
        img = hom_w(f)
        assert all(sum(e) == 6 for e, _ in img.terms)


def test_hom_w_inverse_round_trip_and_errors():
    rng = random.Random(11)
    R = PolyRing(PrimeField(65521), (2, 1))
    for _ in range(100):
        f = rand_poly(R, rng)
        assert hom_w_inverse(hom_w(f), (2, 1)).coeff_map() == f.coeff_map()
    img = PolyRing(PrimeField(65521), (1, 1))
    t1 = img.gen(0)
    with pytest.raises(NotInImageError):
        hom_w_inverse(t1 ** 3, (2, 1))
    g = img.from_map({(4, 1): 1, (0, 5): 1})
    back = hom_w_inverse(g, (2, 1))
    assert back.coeff_map() == {(2, 1): 1, (0, 5): 1}


def test_homogenize_affine():
    R = PolyRing(PrimeField(7), (3,), names=("X",))
    x = R.gen(0)
    fh = w_homogenize_affine(x + R.one())
    assert fh.ring.weights.weights == (3, 1)
    assert fh.coeff_map() == {(1, 0): 1, (0, 3): 1}
    assert fh.is_w_homogeneous()
    # already homogeneous input keeps H-exponent zero
    g = x ** 2
    gh = w_homogenize_affine(g)
    assert all(e[-1] == 0 for e, _ in gh.terms)


def test_homogenize_round_trip():
    rng = random.Random(2)
    for seed in range(100):
        W = rng.choice([(1, 1), (2, 1), (3, 2)])
        R = PolyRing(PrimeField(65521), W)
        f = rand_poly(R, rng)
        if f.is_zero:
            continue
        assert dehomogenize(w_homogenize_affine(f)).coeff_map() == f.coeff_map()


def test_components_sum_and_sizes():
    # dense support of weighted degree <= 4 for weights (1,2,2,2),
    # split under the trivial grading and under (1,2,2,2)
    sys = random_affine_system((1, 2, 2, 2), (4,), seed=9)
    f = sys.polys[0]
    by_total = w_homogeneous_components(f, (1, 1, 1, 1))
    assert [len(by_total[d]) for d in range(5)] == [1, 4, 10, 4, 1]
    by_w = w_homogeneous_components(f, (1, 2, 2, 2))
    assert [len(by_w[d]) for d in range(5)] == [1, 1, 4, 4, 10]
    total = f.ring.zero()
    for comp in w_homogeneous_components(f).values():
        total = total + comp
    assert total.coeff_map() == f.coeff_map()


def test_single_component_for_homogeneous():
    sys = random_w_homogeneous_system((3, 2, 1), (6,), seed=4)
    f = sys.polys[0]
    comps = w_homogeneous_components(f)
    assert list(comps) == [6]
    assert comps[6].coeff_map() == f.coeff_map()
    assert w_homogeneous_components(f.ring.zero()) == {}


def test_top_component_is_homogenization_at_h_zero():
    rng = random.Random(13)
    for seed in range(30):
        W = rng.choice([(2, 1), (3, 2), (1, 1, 1)])
        R = PolyRing(PrimeField(65521), W)
        f = rand_poly(R, rng)
        if f.is_zero:
            continue
        fh = w_homogenize_affine(f)
        at_h0 = {e[:-1]: c for e, c in fh.terms if e[-1] == 0}
        assert top_component(f).coeff_map() == at_h0


def test_is_w_homogeneous_examples():
    R = PolyRing(PrimeField(7), (2, 1))
    x, y = R.gens()
    assert R.zero().is_w_homogeneous()
    assert (x + y ** 2).is_w_homogeneous()
    assert not (x + y).is_w_homogeneous()
