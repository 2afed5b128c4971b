"""Structural oracles, divisibility proposition, generators."""

import random
from dataclasses import replace
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import regularity_oracle
import wgb.engine
import wgb.structure
from wgb import (
    PolyRing,
    PolySystem,
    PrimeField,
    divisor_of_wdegree,
    expand_rational,
    froberg_sequence,
    inversion_system,
    is_noether_position,
    is_regular_sequence,
    is_reverse_chain_divisible,
    is_semiregular,
    is_snp,
    is_strongly_w_compatible,
    quotient_hilbert_series,
    random_affine_system,
    random_w_homogeneous_system,
    structure_report,
    truncate_semiregular,
    wdeg,
)
from wgb.engine import buchberger, elimination_gb
from wgb.errors import ArityError, EmptySupportError, NonPositiveDegreeError
from wgb.monomial import monomials_of_wdeg, monomials_of_wdeg_at_most
from wgb.structure import RegularityVerdict


def ring(weights, names=None):
    return PolyRing(PrimeField(65521), weights, names=names)


def test_reverse_chain_divisible():
    assert is_reverse_chain_divisible((4, 2, 1))
    assert not is_reverse_chain_divisible((3, 2, 1))
    assert is_reverse_chain_divisible((5, 5, 5))


def test_strongly_w_compatible():
    assert is_strongly_w_compatible((3, 2, 1), (6, 6, 6))
    assert not is_strongly_w_compatible((2, 5), (4, 8))
    assert is_strongly_w_compatible((2, 5), ())
    with pytest.raises(ArityError):
        is_strongly_w_compatible((2,), (4, 4))


def test_divisor_of_wdegree_examples():
    assert divisor_of_wdegree((1, 2, 0), 6, (3, 2, 1)) is None
    m = (2, 3, 1)
    assert divisor_of_wdegree(m, wdeg(m, (4, 2, 1)), (4, 2, 1)) == m
    assert divisor_of_wdegree((0, 3, 0), 4, (4, 2, 1)) == (0, 2, 0)


def test_divisibility_proposition_equivalence():
    # for non-increasing weights: divisors of every admissible degree exist
    # at every admissible target iff the weights are reverse chain-divisible
    def has_violation(W):
        n = len(W)
        for d2 in range(1, 25):
            for m2 in monomials_of_wdeg(W, d2):
                i = next((j for j, a in enumerate(m2) if a), None)
                if i is None:
                    continue
                for d1 in range(W[i], d2 + 1, W[i]):
                    if divisor_of_wdegree(m2, d1, W) is None:
                        return True
        return False

    for n in (2, 3):
        seen_rcd = seen_non = 0
        for W in product(range(1, 7), repeat=n):
            if any(W[i] < W[i + 1] for i in range(n - 1)):
                continue  # keep non-increasing weights only
            violated = has_violation(W)
            if is_reverse_chain_divisible(W):
                seen_rcd += 1
                assert not violated, W
            else:
                seen_non += 1
                assert violated, W
        assert seen_rcd and seen_non


def test_regular_sequence_examples():
    R = ring((2, 5), names=("X", "Y"))
    X, Y = R.gens()
    assert not is_regular_sequence(PolySystem(R, [X ** 2, X ** 4])).regular
    # pure powers are regular for any strongly compatible degrees
    for W in [(2, 1), (3, 2, 1), (4, 2, 2)]:
        Rn = ring(W)
        for ks in product((1, 2), repeat=len(W)):
            polys = [g ** k for g, k in zip(Rn.gens(), ks)]
            assert is_regular_sequence(PolySystem(Rn, polys)).regular


def test_regular_sequence_with_zero_polynomial():
    # a zero polynomial generates nothing: h is read off the nonzero ones and
    # compared with the product form over every declared degree
    R = ring((1, 1, 1))
    X = R.gen(0)
    sys = PolySystem(R, [X ** 2, R.zero()], (2, 3))
    assert is_regular_sequence(sys) == RegularityVerdict(False, False, 7, (3, 7, 6))
    assert regularity_oracle.is_regular_sequence(sys) == is_regular_sequence(sys)
    # the zero input keeps its index, so every verdict has one
    from semiregular_oracle import rank_clause

    rep = structure_report(sys)
    assert rep.regular == is_regular_sequence(sys)
    assert rep.snp == is_snp(sys) == regularity_oracle.snp_extended(sys)
    assert not rep.snp and rep.snp.first_failing_prefix == 2
    assert rep.semiregular == is_semiregular(sys)
    assert (rep.semiregular.rank_ok, rep.semiregular.first_failure) == (False, (2, 0, 1))
    assert rank_clause(sys, 3) == (False, (2, 0, 1))
    # with no nonzero polynomial, h is the free census
    R2 = ring((1, 1))
    only_zero = PolySystem(R2, [R2.zero()], (2,))
    assert is_regular_sequence(only_zero) == RegularityVerdict(False, False, 4, (2, 3, 2))
    assert regularity_oracle.is_regular_sequence(only_zero) == is_regular_sequence(only_zero)


def test_constant_inputs_are_refused():
    # a constant is a unit: 1 - T^0 = 0 makes the product form identically
    # zero, and the unit ideal's zero quotient would match it
    R = ring((1, 2), names=("X", "Y"))
    X, Y = R.gens()
    for polys in ([X, R.const(1)], [R.const(3), Y], [R.const(1)]):
        sys = PolySystem(R, polys)
        for verdict in (is_regular_sequence, is_noether_position, is_snp, is_semiregular, structure_report):
            with pytest.raises(NonPositiveDegreeError, match=r"polynomial #\d has declared degree 0"):
                verdict(sys)
    # a zero input of positive declared degree is still judged
    assert not is_regular_sequence(PolySystem(R, [X, R.zero()], (1, 2))).regular


def test_empty_sequence_verdicts():
    # no input, no run: R itself is regular up to the window, and
    # R/(x_1..x_n) is in Noether position, on the window max w + 1
    empty = PolySystem(ring((2, 1)), [])
    assert is_regular_sequence(empty) == RegularityVerdict(True, False, 3)
    assert is_noether_position(empty) == RegularityVerdict(True, True, 3)
    assert is_snp(empty).snp and is_snp(empty).prefix_verdicts == ()
    rep = structure_report(empty)
    assert rep.regular == is_regular_sequence(empty)
    assert rep.snp == is_snp(empty)
    assert rep.semiregular == is_semiregular(empty)
    assert rep.semiregular.semiregular and rep.semiregular.window == 2


def test_generic_systems_regular():
    for seed in range(20):
        sys = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed)
        assert is_regular_sequence(sys).regular


def test_noether_position_examples():
    R = ring((3, 2), names=("X", "Y"))
    X, Y = R.gens()
    snp = is_snp(PolySystem(R, [X ** 2 + Y ** 3, X * Y]))
    assert snp.snp
    single = PolySystem(R, [X * Y])
    assert is_regular_sequence(single).regular
    assert not is_noether_position(single).regular
    # pure squares under trivial weights
    R3 = ring((1, 1, 1))
    sys = PolySystem(R3, [g ** 2 for g in R3.gens()])
    assert is_snp(sys).snp


def test_np_characterizations_agree():
    rng = random.Random(2)
    for seed in range(50):
        n = rng.choice([2, 3])
        W = tuple(rng.choice([1, 2]) for _ in range(n))
        m = rng.randrange(1, n + 1)
        D = tuple(w * rng.choice([1, 2]) for w in W[:m])
        sys = random_w_homogeneous_system(W, D, seed + 900)
        a = is_noether_position(sys).regular
        b = regularity_oracle.noether_position_substitute(sys).regular
        assert a == b, (W, D, seed)


def test_semiregular_rank_counterexample():
    R = ring((1, 1), names=("X", "Y"))
    X, Y = R.gens()
    v = is_semiregular(PolySystem(R, [X ** 2, X * Y]), d_max=5)
    assert v.semiregular is False
    assert v.first_failure == (2, 1, 1)
    assert not v.series_ok


def test_regular_is_semiregular():
    for seed in range(5):
        sys = random_w_homogeneous_system((2, 1), (4, 4), seed)
        v = is_semiregular(sys)
        assert v.semiregular and v.rank_ok and v.series_ok


def test_froberg_example():
    fs = froberg_sequence((2, 1), (4, 4), 4)
    assert [str(f) for f in fs.polys] == [
        "X1^2",
        "X2^4",
        "X1^2 + 2*X1*X2^2 + X2^4",
    ]
    v = is_semiregular(fs)
    assert v.semiregular and v.rank_ok and v.series_ok and v.series_certifying
    gb = buchberger(fs)
    s = quotient_hilbert_series(gb)
    want = truncate_semiregular(expand_rational((4, 4, 4), (2, 1)))
    assert s.coeffs == want.coeffs


def test_froberg_homogeneous_case():
    fs = froberg_sequence((1, 1), (2, 2), 2)
    assert [str(f) for f in fs.polys] == ["X1^2", "X2^2", "X1^2 + 2*X1*X2 + X2^2"]


def test_froberg_last_poly_homogeneous():
    for W, D, dx in [((2, 1), (4, 4), 6), ((4, 2, 1), (4, 2, 3), 8), ((3, 3, 3), (6, 3, 9), 3)]:
        fs = froberg_sequence(W, D, dx)
        last = fs.polys[-1]
        assert last.is_w_homogeneous()
        assert last.wdeg() == dx
    with pytest.raises(ValueError):
        froberg_sequence((3, 2, 1), (6, 6, 6), 6)  # not reverse chain-divisible
    with pytest.raises(ValueError):
        froberg_sequence((2, 1), (4, 4), 3)  # top weight does not divide


def test_froberg_degenerate_corner_not_semiregular():
    # when every term of the mixed sum collapses into the pure-power
    # ideal the construction fails to be semi-regular (here the added
    # polynomial is literally the sum of the other three)
    fs = froberg_sequence((2, 1, 1), (2, 2, 2), 2)
    from wgb.poly import reduce_poly

    assert reduce_poly(fs.polys[-1], list(fs.polys[:-1])).is_zero
    v = is_semiregular(fs, d_max=5)
    assert v.semiregular is False
    assert v.first_failure == (4, 0, 1)
    # partial rank loss: modulo (X1, X2^4, X3^4) the added X1 + X2^2 + X3^2
    # is X2^2 + X3^2, which sends X2^2 - X3^2 to X2^4 - X3^4 = 0, so the map
    # from degree 2 into the 3-dimensional degree-4 piece has rank 2
    v = is_semiregular(froberg_sequence((2, 1, 1), (2, 4, 4), 2))
    assert v.semiregular is False
    assert v.first_failure == (4, 2, 1)


def test_semiregular_methods_agree_when_certifying():
    # on coprime reverse chain-divisible weights with degrees divisible by
    # the top weight, the rank and series verdicts coincide
    from itertools import product as iproduct

    for W in [(1,), (1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        ds = [d for d in (W[0], 2 * W[0]) ]
        for D in iproduct(ds, repeat=len(W)):
            for dx in (W[0], 2 * W[0]):
                fs = froberg_sequence(W, D, dx)
                cap = max(sum(D) - sum(W), 0) + max(W)
                v = is_semiregular(fs, d_max=cap)
                assert v.series_certifying, (W, D, dx)
                assert v.rank_ok == v.series_ok, (W, D, dx)


def test_semiregular_inconclusive_window():
    fs = froberg_sequence((2, 1), (4, 4), 4)
    v = is_semiregular(fs, d_max=1)  # below the truncation degree 3
    assert v.semiregular is None


def test_negative_d_max_is_rejected():
    # nothing would be checked below degree 0: the rank clause held
    # vacuously, and with no truncation degree the verdict was semi-regular
    R = PolyRing(7, (1, 1, 1))
    x = R.gens()[0]
    sys = PolySystem(R, [x**2, x**2], (2, 2))
    v = is_semiregular(sys)
    assert (v.semiregular, v.first_failure) == (False, (2, 0, 1))
    assert is_semiregular(sys, d_max=0).first_failure == (2, 0, 1)
    for check in (is_semiregular, structure_report):
        with pytest.raises(ValueError, match="d_max"):
            check(sys, d_max=-1)


def test_random_homogeneous_support_and_determinism():
    a1 = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=1)
    a2 = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=1)
    b = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=2)
    assert [f.terms for f in a1.polys] == [f.terms for f in a2.polys]
    assert [f.terms for f in a1.polys] != [f.terms for f in b.polys]
    # same dense support, different coefficients
    assert [sorted(e for e, _ in f.terms) for f in a1.polys] == [
        sorted(e for e, _ in f.terms) for f in b.polys
    ]
    for f, d in zip(a1.polys, a1.degrees):
        assert f.is_w_homogeneous()
        assert len(f) == len(monomials_of_wdeg((3, 2, 1), d))


def test_random_affine_support():
    sys = random_affine_system((2, 1), (4, 3), seed=3)
    for f, d in zip(sys.polys, sys.degrees):
        assert len(f) == len(monomials_of_wdeg_at_most((2, 1), d))
        assert f.wdeg() == d


def test_empty_support_error():
    with pytest.raises(EmptySupportError):
        random_w_homogeneous_system((2, 5), (3,), seed=1)
    with pytest.raises(EmptySupportError):
        random_affine_system((2, 5), (3,), seed=1)
    sys = random_w_homogeneous_system((2, 5), (0,), seed=1)
    assert sys.polys[0].wdeg() == 0 and not sys.polys[0].is_zero


def test_inversion_system_shape():
    R = ring((1,), names=("X",))
    x = R.gen(0)
    inv = inversion_system([x])
    assert inv.ring.weights.weights == (1, 1)
    assert [str(f) for f in inv.polys] == ["T1 - X"] or [
        str(f) for f in inv.polys
    ] == ["65520*X + T1"]
    inv2 = inversion_system([x, x ** 2])
    gb, rel = elimination_gb(inv2, 1)
    assert len(rel) == 1
    r = rel[0]
    # the relation is T2 - T1^2 up to sign
    assert {e for e, _ in r.terms} == {(0, 2, 0), (0, 0, 1)}


def test_inversion_elementary_symmetric_independent():
    R = ring((1, 1), names=("X", "Y"))
    X, Y = R.gens()
    inv = inversion_system([X + Y, X * Y])
    gb, rel = elimination_gb(inv, 2)
    assert rel == []


def test_inversion_top_components_noether():
    # highest components are T_i - top(f_i); they are in Noether position
    # with respect to the tag variables, i.e. after moving the tags to the
    # front, substituting the trailing X's to zero leaves (T_1, T_2)
    R = ring((1, 1), names=("X", "Y"))
    X, Y = R.gens()
    fs = [X ** 2 + X * Y + Y, X ** 3 + X]
    inv = inversion_system(fs)
    from wgb.transform import top_component

    tops = [top_component(f) for f in inv.polys]
    n, m = 2, 2
    perm = list(range(n, n + m)) + list(range(n))  # tags first
    permuted_ring = ring(
        tuple(inv.ring.weights[i] for i in perm),
        names=tuple(inv.ring.names[i] for i in perm),
    )
    permuted = [
        permuted_ring.from_map({tuple(e[i] for i in perm): c for e, c in f.terms})
        for f in tops
    ]
    sysT = PolySystem(permuted_ring, permuted)
    assert regularity_oracle.noether_position_substitute(sysT).regular
    assert is_noether_position(sysT).regular


def test_snp_implies_np_implies_regular():
    rng = random.Random(10)
    for seed in range(25):
        n = rng.choice([2, 3])
        W = tuple(sorted((rng.choice([1, 2]) for _ in range(n)), reverse=True))
        D = tuple(w * rng.choice([1, 2, 3]) for w in W)
        sys = random_w_homogeneous_system(W, D, seed + 300)
        snp = is_snp(sys).snp
        np_ = is_noether_position(sys).regular
        reg = is_regular_sequence(sys).regular
        if snp:
            assert np_
        if np_:
            assert reg


def test_structure_report_round():
    sys = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=1)
    rep = structure_report(sys)
    d = rep.as_dict()
    assert d["strongly_w_compatible"] is True
    assert d["reverse_chain_divisible"] is False
    assert d["regular"]["verdict"] is True
    assert d["snp"]["verdict"] is True
    assert d["semiregular"]["verdict"] is True
    assert d["regular"]["first_mismatch"] is None


def test_structure_report_names_first_mismatch():
    R = ring((2, 5), names=("X", "Y"))
    X, Y = R.gens()
    sys = PolySystem(R, [X ** 2, X ** 4])
    d = structure_report(sys).as_dict()
    assert d["regular"]["verdict"] is False
    # in degree 8 the quotient by (X^2) has no monomial (X^4 is the only
    # one), and the product form's coefficient is -1
    assert d["regular"]["first_mismatch"] == (8, 0, -1)


def _counting(module, name):
    """Patch module.<name> with a mock that counts its calls."""
    return mock.patch.object(module, name, wraps=getattr(module, name))


def test_structure_report_shares_one_run():
    # one signature run, on the input system itself, serves regularity,
    # Noether position of every prefix and semi-regularity; no Buchberger
    # basis
    for W, D in [((3, 2, 1), (6, 6, 6)), ((2, 2, 1, 1), (4, 4, 4, 4))]:
        sys = random_w_homogeneous_system(W, D, seed=1)
        with (
            _counting(wgb.structure, "prefix_ideal_dims") as runs,
            _counting(wgb.structure, "buchberger") as bases,
            _counting(wgb.engine, "buchberger") as engine_bases,
        ):
            rep = structure_report(sys)
        assert (runs.call_count, bases.call_count, engine_bases.call_count) == (1, 0, 0)
        assert runs.call_args.args[0] is sys
        for verdict in (is_snp, is_noether_position):
            with _counting(wgb.structure, "prefix_ideal_dims") as runs:
                verdict(sys)
            assert runs.call_count == 1 and runs.call_args.args[0] is sys
        separate = replace(
            rep,
            regular=is_regular_sequence(sys),
            snp=is_snp(sys),
            semiregular=is_semiregular(sys),
        )
        assert rep == separate
        assert rep.as_dict() == separate.as_dict()


def _run_degree_calls(monkeypatch, windows=None):
    """The (degree, n_inputs) of every degree _MatrixRun.run_degree builds,
    a window as one per degree, in order; each window also goes to windows
    when given."""
    calls = []
    real = wgb.engine._MatrixRun.run_degree

    def recorded(run, window, n_inputs=None):
        calls.extend((d, n_inputs) for d in window)
        if windows is not None:
            windows.append(window)
        return real(run, window, n_inputs)

    monkeypatch.setattr(wgb.engine._MatrixRun, "run_degree", recorded)
    return calls


def _assert_oracle_verdicts(rep, sys):
    """The report's verdicts against the Buchberger-based oracles."""
    from semiregular_oracle import rank_clause

    assert rep.regular == regularity_oracle.is_regular_sequence(sys)
    assert (rep.snp.snp, rep.snp.first_failing_prefix) == regularity_oracle.snp_substitute(sys)
    semi = rep.semiregular
    assert (semi.rank_ok, semi.first_failure) == rank_clause(sys, semi.window)


def test_regular_square_report_builds_no_row_past_its_certificate(monkeypatch):
    # R/(f_1..f_4) has the series (1 + T + T^2)^4, zero from degree 9, which
    # certificate (a) reads after degree 9: f_1..f_4 is a regular sequence,
    # every prefix's dimensions follow from the product form, and each
    # restricted quotient k[x_1..x_i]/J_i is zero by then too
    sys = random_w_homogeneous_system((1, 1, 1, 1), (3, 3, 3, 3), seed=11)
    calls = _run_degree_calls(monkeypatch)
    rep = structure_report(sys)
    assert [d for d, _ in calls] == list(range(10))
    assert rep.regular and rep.snp and rep.semiregular
    _assert_oracle_verdicts(rep, sys)


def test_square_report_keeps_the_rows_of_an_unsettled_prefix(monkeypatch):
    # f_1 = X2*q vanishes at X2 = X3 = 0, so the restricted quotient of
    # prefix 1, k[X1]/(0), never vanishes and its rows are built to the end;
    # prefix 2's, k[X1, X2]/(X2*q, f_2), is zero-dimensional
    R = ring((1, 1, 1))
    X2 = R.gen(1)
    f1, f2, f3 = random_w_homogeneous_system((1, 1, 1), (3, 3, 3), seed=5).polys
    q = random_w_homogeneous_system((1, 1, 1), (2,), seed=6).polys[0]
    sys = PolySystem(R, [X2 * q, f2, f3])
    calls = _run_degree_calls(monkeypatch)
    rep = structure_report(sys)
    # the series (1 + T + T^2)^3 is zero from degree 7, read after degree 7;
    # prefix 1's restricted count is read up to its Noether window, 7 too,
    # so no row of f_1 alone is built past it
    assert [d for d, n in calls if n == 3] == list(range(8))
    assert [(d, n) for d, n in calls if d > 7] == []
    assert rep.semiregular.window + 3 == 10
    assert rep.regular and not rep.snp and rep.snp.first_failing_prefix == 1
    _assert_oracle_verdicts(rep, sys)


def test_mixed_power_semiregular_builds_only_what_its_counts_read(monkeypatch):
    # is_semiregular asks for no restricted count: no staircase_census call
    # in fewer variables, and no kernel row or column below the dense
    # input's degree 2, where the pure powers' unit pivots give every count.
    # Each pure power is harvested up front, so no row of the dense input
    # has a multiplier a pure power divides, not even one x^6 that its own
    # pivot x^2 divides
    W = (1, 1, 1)
    sys = froberg_sequence(W, (6, 6, 6), 2)
    windows = []
    calls = _run_degree_calls(monkeypatch, windows)
    census = wgb.engine.staircase_census
    weights = []
    monkeypatch.setattr(wgb.engine, "staircase_census", lambda gens, ws, N: weights.append(ws) or census(gens, ws, N))
    kernel = wgb.engine.row_rank_profile
    shapes = []
    monkeypatch.setattr(wgb.engine, "row_rank_profile", lambda A, p: shapes.append((windows[-1], A.shape)) or kernel(A, p))
    assert is_semiregular(sys).semiregular
    assert weights and all(ws == W for ws in weights)
    assert calls
    # per degree d >= 2 of a window, one row per multiplier of degree d - 2
    # outside the pure powers, on the monomials of degree d outside them
    outside = census([f.lm for f in sys.polys[:3]], W, 20)
    assert sum(map(len, (w for w, _ in shapes))) > 3
    for w, shape in shapes:
        assert shape == (sum(outside[d - 2] for d in w if d >= 2), sum(outside[d] for d in w if d >= 2))


def test_mixed_power_semiregular_eliminates_one_window(monkeypatch):
    # one input builds rows, so no harvest reaches a row and the run
    # eliminates every degree it needs, 2 to 9, in one block-diagonal matrix
    sys = froberg_sequence((1, 1, 1), (6, 6, 6), 2)
    kernel = wgb.engine.row_rank_profile
    shapes = []
    monkeypatch.setattr(wgb.engine, "row_rank_profile", lambda A, p: shapes.append(A.shape) or kernel(A, p))
    assert is_semiregular(sys).semiregular
    assert shapes == [(108, 156)]


def test_mixed_power_semiregular_windows_tile_from_degree_0(monkeypatch):
    # every degree goes through run_degree, the ones below the dense input's
    # too, in windows that tile the degrees from 0 without a gap; those
    # degrees have the pure powers' unit pivots alone, so the kernel still
    # gets the one matrix of degrees 2 to 9
    sys = froberg_sequence((1, 1, 1), (6, 6, 6), 2)
    calls = _run_degree_calls(monkeypatch)
    kernel = wgb.engine.row_rank_profile
    shapes = []
    monkeypatch.setattr(wgb.engine, "row_rank_profile", lambda A, p: shapes.append(A.shape) or kernel(A, p))
    assert is_semiregular(sys).semiregular
    assert [d for d, _ in calls] == list(range(calls[-1][0] + 1))
    assert shapes == [(108, 156)]


def test_square_report_windows_write_rows_in_place(monkeypatch):
    # a dense square report eliminates windows of several degrees where
    # several inputs build rows.  Each row is written at its place, degree
    # after degree, into the one array the kernel gets, and the kernel's
    # block split finds one block per degree that has rows: f_1 is dense
    # and x_3 has weight 1, so every degree from d_1 on has a row of f_1
    import wgb.linalg as linalg

    sys = random_w_homogeneous_system((2, 1, 1), (4, 4, 6), seed=0)
    windows = []
    _run_degree_calls(monkeypatch, windows)
    made, shapes, split = [], [], []
    mapped = wgb.engine.zeros
    monkeypatch.setattr(wgb.engine, "zeros", lambda shape, dtype: made.append(shape) or mapped(shape, dtype))
    kernel = wgb.engine.row_rank_profile

    def recorded(A, p):
        shapes.append(A.shape)
        window = windows[-1]
        if len(window) >= 2 and sum(d <= window[-1] for d in sys.degrees) >= 2:
            split.append((len(linalg._diagonal_blocks(A)), sum(d >= sys.degrees[0] for d in window)))
        return kernel(A, p)

    monkeypatch.setattr(wgb.engine, "row_rank_profile", recorded)
    structure_report(sys)
    assert made == shapes  # one array per kernel call, the one it gets
    assert len(split) >= 2 and all(blocks == degrees for blocks, degrees in split)
@st.composite
def regularity_inputs(draw):
    """W-homogeneous systems with n <= 3, weights 1 to 3, m <= n, at every
    test modulus.  Half of them are made non-regular on purpose: one
    polynomial repeats an earlier one, is a power of an earlier one, is
    free of one variable, or is zero."""
    n = draw(st.integers(1, 3))
    W = tuple(draw(st.integers(1, 3)) for _ in range(n))
    m = draw(st.integers(1, n))
    D = tuple(draw(st.integers(1, 6)) for _ in range(m))
    assume(all(monomials_of_wdeg(W, d) for d in D))
    p = draw(st.sampled_from([2, 3, 7, 65521, 2**31 - 1]))
    sys = random_w_homogeneous_system(W, D, draw(st.integers(0, 10**6)), field=p)
    polys, degrees = list(sys.polys), list(sys.degrees)
    kind = draw(st.sampled_from(["generic", "repeat", "power", "free", "zero"]))
    j = draw(st.integers(0, m - 1))
    i = draw(st.integers(0, j))
    if kind in ("repeat", "power") and i < j:
        k = 1 if kind == "repeat" else draw(st.integers(2, 3))
        polys[j], degrees[j] = polys[i] ** k, degrees[i] * k
    elif kind == "free":
        v = draw(st.integers(0, n - 1))
        polys[j] = sys.ring.from_map({e: c for e, c in polys[j].terms if e[v] == 0})
    elif kind == "zero":
        polys[j] = sys.ring.zero()
    return PolySystem(sys.ring, polys, degrees)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(regularity_inputs())
def test_regularity_matches_oracle(sys):
    assert is_regular_sequence(sys) == regularity_oracle.is_regular_sequence(sys)
    snp = is_snp(sys)
    assert (snp.snp, snp.first_failing_prefix) == regularity_oracle.snp_substitute(sys)
    assert (
        is_noether_position(sys).regular
        == regularity_oracle.noether_position_substitute(sys).regular
    )
    # the count of pivots in the leading variables against the run of the
    # system with the trailing variables appended, field for field
    assert is_noether_position(sys) == regularity_oracle.noether_position_extended(sys)
    assert snp == regularity_oracle.snp_extended(sys)
    rep = structure_report(sys)
    assert rep.regular == is_regular_sequence(sys)
    assert rep.snp == snp
    assert rep.semiregular == is_semiregular(sys)


def test_semiregular_matches_rank_oracle():
    # the verdict read off one signature run equals the definition: ranks
    # of the multiplication maps on the prefix quotients (tests/semiregular_oracle.py)
    from semiregular_oracle import rank_clause

    R = ring((1, 1), names=("X", "Y"))
    X, Y = R.gens()
    cases = [PolySystem(R, [X ** 2, X * Y])]
    for W, dxs in [((2, 1, 1), (2, 4)), ((4, 2, 1), (4, 8))]:
        for D in product(*[(w, 2 * w) for w in W]):
            cases += [froberg_sequence(W, D, dx) for dx in dxs]
    for seed, (W, D) in enumerate([
        ((1, 1), (2, 2, 2)),
        ((2, 1), (2, 4, 4)),
        ((1, 1, 1), (2, 2, 2, 2)),
        ((2, 1, 1), (2, 2, 2, 2)),
        ((2, 1, 1), (2, 2, 4)),
        ((3, 2, 1), (3, 4, 6, 6)),
    ]):
        cases.append(random_w_homogeneous_system(W, D, seed=4200 + seed))
    failures = 0
    for sys in cases:
        v = is_semiregular(sys)
        ok, first = rank_clause(sys, v.window)
        assert v.semiregular is ok, (sys.ring.weights, sys.degrees)
        assert (v.rank_ok, v.first_failure) == (ok, first), (sys.ring.weights, sys.degrees)
        failures += not ok
    assert failures >= 3
