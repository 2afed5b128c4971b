"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines, or `python tests/test_acceptance.py` for the standalone report.

Two criteria assert corrected statements:

* criterion 6: the mixed-power construction is semi-regular on the part
  of the grid with w_1 = .. = w_{n-1} (strong Lefschetz for monomial
  complete intersections), but not everywhere: on 260 of 7672 sequences,
  all with w_2 < w_1, the mixed sum only supports exponents that are
  multiples of w_1/w_i and collapses into, or loses rank against, the
  pure-power ideal in any characteristic (smallest case: weights
  (2,1,1), degrees (2,2,2), extra degree 2, where the added polynomial
  is the sum of the other three).  The criterion asserts semi-regularity
  where it is a theorem, confirms every rank failure with the
  definition-based oracle in `semiregular_oracle.py`, and checks the
  series and quotient clauses on the certifying subgrid, where the series
  method is a theorem; off it the series method is advisory and its
  mismatches are only counted.
* criterion 7: the closed form of `delta_semiregular_n_plus_1` equals the
  truncated-series degree on the whole grid, ties (a first non-positive
  coefficient equal to zero) included.
"""

import random
import time
from itertools import combinations_with_replacement, product

from wgb import (
    MonomialOrder,
    buchberger,
    conjectured_dreg,
    delta_semiregular_n_plus_1,
    expand_rational,
    fglm_lex,
    froberg_sequence,
    gb_via_homw,
    is_regular_sequence,
    is_semiregular,
    is_snp,
    macaulay_snp,
    macaulay_weak,
    matrix_gb_whomog,
    quotient_hilbert_series,
    random_w_homogeneous_system,
    staircase,
    sylvester_denumerant,
    truncate_semiregular,
    weighted_bezout,
)
from wgb.bench import measured_dreg
from wgb.bounds import asymptotic_dreg
from wgb.fixtures import DREG_BY_WEIGHT_ORDER, ORDER_IMPACT, SERIES_SEQUENCES


def _report(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {cid}: {status}{' - ' if detail else ''}{detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def _rcd_weights(n, wmax, last=None):
    out = []

    def rec(chain):
        if len(chain) == n:
            out.append(tuple(reversed(chain)))
            return
        for m in range(chain[-1], wmax + 1):
            if m % chain[-1] == 0:
                rec(chain + [m])

    for start in [last] if last else range(1, wmax + 1):
        rec([start])
    return sorted(set(w for w in out if w[0] <= wmax))


def criterion_1():
    """Measured degree of regularity for (6,6,6) across weight orders."""
    t0 = time.time()
    seeds = (1, 2, 3, 4, 5)
    for row in DREG_BY_WEIGHT_ORDER:
        W, D = row["weights"], row["degrees"]
        if macaulay_weak(W, D) != row["macaulay_weak"]:
            return False, f"weak bound off for {W}"
        if macaulay_snp(W, D).value != row["macaulay_snp"]:
            return False, f"sharp bound off for {W}"
        values = [measured_dreg(W, D, s) for s in seeds]
        hits = values.count(row["dreg"])
        if hits < 4:
            return False, f"dreg {row['dreg']} hit only {hits}/5 for {W}: {values}"
    return time.time() - t0 < 60, f"{time.time() - t0:.1f}s for 15 runs"


def criterion_2():
    """Bound columns for degrees (60,60,60,60) in both weight orders."""
    for row in ORDER_IMPACT:
        W, D = row["weights"], row["degrees"]
        if macaulay_weak(W, D) != row["macaulay_weak"]:
            return False, f"weak bound for {W}"
        if macaulay_snp(W, D).value != row["macaulay_snp"]:
            return False, f"sharp bound for {W}"
        if conjectured_dreg(W, D) != row["conjectured"]:
            return False, f"conjectured bound for {W}"
    return True, "229/210/210 and 229/229/220 (full-scale run behind `wgb bench table2 --full`)"


def criterion_3():
    """Reference coefficient sequences, coefficient for coefficient."""
    for row in SERIES_SEQUENCES:
        s = expand_rational(row["degrees"], row["weights"])
        if row["truncate"]:
            t = truncate_semiregular(s)
            if t.coeffs != row["coeffs"] or t.degree != row["truncation_degree"]:
                return False, row["id"]
        else:
            if s.coeffs != row["coeffs"]:
                return False, row["id"]
    return True, f"{len(SERIES_SEQUENCES)} pinned sequences exact"


def criterion_4():
    """Staircase sizes against the weighted Bezout degree, and the lex
    basis against direct lex Buchberger, on 50 zero-dimensional systems."""
    t0 = time.time()
    rng = random.Random(404)
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        n = rng.choice([1, 2, 3])
        W = tuple(rng.choice([1, 2, 3]) for _ in range(n))
        D = tuple(w * rng.choice([1, 2, 3]) for w in W)
        sys = random_w_homogeneous_system(W, D, seed=7000 + seed)
        if not is_regular_sequence(sys).regular:
            continue
        gb = buchberger(sys)
        if len(staircase(gb)) != weighted_bezout(W, D):
            return False, f"staircase size vs Bezout for {W}/{D}"
        lex_gb = fglm_lex(gb)
        direct = buchberger(sys.with_order(MonomialOrder.lex(W)))
        if [g.terms for g in lex_gb.polys] != [g.terms for g in direct.polys]:
            return False, f"lex bases differ for {W}/{D}"
        done += 1
    dt = time.time() - t0
    return dt < 120, f"50 systems in {dt:.1f}s"


def criterion_5():
    """Pullback-strategy basis equals the direct basis, term for term."""
    t0 = time.time()
    rng = random.Random(505)
    done = 0
    while done < 100:
        n = rng.choice([1, 2, 3])
        W = tuple(rng.choice([1, 2, 3, 4]) for _ in range(n))
        m = rng.choice(list(range(1, n + 1)) + [n + 1])
        D = tuple(min(W[0] * rng.choice([1, 2, 3]), 12) for _ in range(m))
        sys = random_w_homogeneous_system(W, D, seed=8000 + done)
        direct = buchberger(sys)
        pulled = gb_via_homw(sys)
        if [g.terms for g in direct.polys] != [g.terms for g in pulled.polys]:
            return False, f"bases differ for {W}/{D}"
        done += 1
    dt = time.time() - t0
    return dt < 120, f"100 systems in {dt:.1f}s"


def criterion_6():
    """Semi-regularity of the mixed-power construction on the exhaustive
    grid, with the claims that hold.

    * w_1 = .. = w_{n-1} (at most one weight below w_1): every graded piece
      lies in one K[X_1^(w_1/w_1), .., X_n^(w_1/w_n)]-component, on which
      multiplication by powers of the linear form has maximal rank (strong
      Lefschetz for monomial complete intersections); every sequence is
      semi-regular.
    * Every rank failure (all of them have w_2 < w_1) is confirmed by the
      definition-based oracle, with the same first failure; there are 260,
      as the oracle alone finds on this grid.
    * On the certifying subgrid (reverse chain-divisible weights, w_n = 1,
      w_1 | d_i) the series verdict equals the rank verdict, and every
      semi-regular sequence has the truncated series as quotient series.
      Off it the series method is advisory; its mismatches are counted.
    """
    from wgb.errors import IncompleteBasisError
    from semiregular_oracle import rank_clause

    t0 = time.time()
    checked = advisory = 0
    rank_bad = []
    lefschetz_bad = []
    oracle_bad = []
    series_bad = []
    quot_bad = []
    for n in (1, 2, 3):
        for W in _rcd_weights(n, 4):
            d_lists = [list(range(w, 9, w)) for w in W]
            for D in product(*d_lists):
                for dx in range(W[0], 9, W[0]):
                    fs = froberg_sequence(W, D, dx)
                    delta_ci = sum(D) - sum(W)
                    v = is_semiregular(fs, d_max=max(delta_ci, 0) + max(W))
                    checked += 1
                    if not v.rank_ok:
                        rank_bad.append((W, D, dx))
                        if rank_clause(fs, v.window) != (False, v.first_failure):
                            oracle_bad.append((W, D, dx))
                    if len(set(W[:-1])) <= 1 and v.semiregular is not True:
                        lefschetz_bad.append((W, D, dx))
                    if not v.series_certifying:
                        advisory += v.series_ok != v.rank_ok
                        continue
                    if v.series_ok != v.rank_ok:
                        series_bad.append((W, D, dx))
                    if not v.semiregular:
                        continue
                    want = truncate_semiregular(expand_rational(D + (dx,), W))
                    try:
                        gb = matrix_gb_whomog(fs, expected_series=want)
                    except IncompleteBasisError:
                        quot_bad.append((W, D, dx))
                        continue
                    if quotient_hilbert_series(gb).coeffs != want.coeffs:
                        quot_bad.append((W, D, dx))
    dt = time.time() - t0
    detail = (
        f"{checked} sequences in {dt:.0f}s: {len(rank_bad)} rank failures "
        f"({len(rank_bad) - len(oracle_bad)} confirmed by the oracle), "
        f"{advisory} advisory series mismatches, {len(quot_bad)} quotient failures"
    )
    for what, bad in [
        ("not semi-regular with w_1 = .. = w_{n-1}", lefschetz_bad),
        ("rank verdict not confirmed by the oracle", oracle_bad),
        ("certifying series verdict differs from the rank verdict", series_bad),
        ("quotient series differs from the truncated series", quot_bad),
    ]:
        if bad:
            return False, f"{detail}; {len(bad)} {what}, e.g. {bad[0]}"
    if checked != 7672 or len(rank_bad) != 260:
        return False, f"{detail}; expected 7672 sequences and 260 rank failures"
    return dt < 600, detail


def criterion_7():
    """Closed-form degree equals the truncated-series degree on the grid,
    including the ties where the first non-positive coefficient is zero."""
    mismatches = []
    total = 0
    for n in (1, 2, 3, 4):
        for W in _rcd_weights(n, 20, last=1):
            ds = list(range(W[0], 21, W[0]))
            for D in combinations_with_replacement(ds, n + 1):
                total += 1
                formula = delta_semiregular_n_plus_1(W, D)
                trunc = truncate_semiregular(expand_rational(D, W, sum(D) + 2))
                if formula != trunc.degree:
                    mismatches.append((W, D, formula, trunc.degree))
                    if len(mismatches) >= 3:
                        return False, (
                            f"first counterexamples (of many) after {total} grid points: "
                            + "; ".join(
                                f"W={w} D={d}: formula {f} vs series degree {t}"
                                for w, d, f, t in mismatches
                            )
                        )
    if mismatches:
        return False, f"{len(mismatches)} mismatches over {total} grid points"
    return True, f"{total} grid points"


def criterion_8():
    """Denumerant against brute-force monomial enumeration."""
    t0 = time.time()

    def census_box(ws, cap):
        counts = [0] * (cap + 1)

        def rec(i, deg):
            if i == len(ws):
                counts[deg] += 1
                return
            w = ws[i]
            a = deg
            while a <= cap:
                rec(i + 1, a)
                a += w

        rec(0, 0)
        return counts

    cap = 40
    for n in (1, 2, 3, 4):
        for W in combinations_with_replacement(range(1, 9), n):
            brute = census_box(W, cap)
            for d in range(cap + 1):
                if sylvester_denumerant(d, W) != brute[d]:
                    return False, f"d={d}, W={W}"
    dt = time.time() - t0
    return dt < 30, f"all d <= {cap}, n <= 4, w <= 8 in {dt:.1f}s"


def criterion_9():
    """Observed degree of regularity never exceeds the applicable bound."""
    rng = random.Random(909)
    reg_checked = snp_checked = 0
    seed = 0
    while reg_checked < 50 or snp_checked < 50:
        seed += 1
        if seed > 500:
            return False, f"sampling stalled at {reg_checked}/{snp_checked}"
        n = rng.choice([2, 3])
        W = tuple(sorted((rng.choice([1, 2, 3]) for _ in range(n)), reverse=True))
        D = tuple(w * rng.choice([2, 3]) for w in W)
        sys = random_w_homogeneous_system(W, D, seed=9000 + seed)
        gb = matrix_gb_whomog(sys, expected_series=expand_rational(D, W))
        observed = gb.stats.observed_dreg
        if reg_checked < 50 and is_regular_sequence(sys).regular:
            reg_checked += 1
            if observed > macaulay_weak(W, D):
                return False, f"regular system above weak bound: {W}/{D}"
        snp = macaulay_snp(W, D)
        if snp_checked < 50 and snp.degrees_hypothesis_ok and is_snp(sys).snp:
            snp_checked += 1
            if observed > snp.value:
                return False, f"SNP system above sharp bound: {W}/{D}"
    # the reference-table instances obey their bounds too
    for row in DREG_BY_WEIGHT_ORDER:
        W, D = row["weights"], row["degrees"]
        observed = measured_dreg(W, D, 1)
        if observed > macaulay_weak(W, D):
            return False, f"table instance above weak bound: {W}"
        if macaulay_snp(W, D).degrees_hypothesis_ok and observed > macaulay_snp(W, D).value:
            return False, f"table instance above sharp bound: {W}"
    return True, f"{reg_checked} regular + {snp_checked} SNP instances, zero violations"


def criterion_10():
    """First-order agreement of the asymptotic formula with the exact
    n+1 closed form."""
    for n in (50, 100, 200):
        for w0 in (1, 2, 4):
            d0 = 2 * w0
            W = (w0,) * (n - 1) + (1,)
            D = (d0,) * (n + 1)
            exact = delta_semiregular_n_plus_1(W, D)
            asym = asymptotic_dreg(n, 1, d0, w0)
            rel = abs(exact - asym) / asym
            if rel > 0.05 + 1e-12:
                return False, f"n={n}, w0={w0}: relative gap {rel:.4f}"
    return True, "relative gap <= 5% on all nine instances"


CRITERIA = [
    ("1 dreg-by-weight-order", criterion_1),
    ("2 order-impact bounds", criterion_2),
    ("3 figure sequences", criterion_3),
    ("4 Bezout staircases + lex change of order", criterion_4),
    ("5 pullback-strategy equivalence", criterion_5),
    ("6 mixed-power semi-regularity grid", criterion_6),
    ("7 n+1 closed form vs series degree", criterion_7),
    ("8 denumerant brute force", criterion_8),
    ("9 bound dominance audit", criterion_9),
    ("10 asymptotic consistency", criterion_10),
]


def test_criterion_01():
    ok, detail = criterion_1()
    _report("1 dreg-by-weight-order", ok, detail)


def test_criterion_02():
    ok, detail = criterion_2()
    _report("2 order-impact bounds", ok, detail)


def test_criterion_03():
    ok, detail = criterion_3()
    _report("3 figure sequences", ok, detail)


def test_criterion_04():
    ok, detail = criterion_4()
    _report("4 Bezout staircases + lex change of order", ok, detail)


def test_criterion_05():
    ok, detail = criterion_5()
    _report("5 pullback-strategy equivalence", ok, detail)


def test_criterion_06():
    ok, detail = criterion_6()
    _report("6 mixed-power semi-regularity grid", ok, detail)


def test_criterion_07():
    ok, detail = criterion_7()
    _report("7 n+1 closed form vs series degree", ok, detail)


def test_criterion_08():
    ok, detail = criterion_8()
    _report("8 denumerant brute force", ok, detail)


def test_criterion_09():
    ok, detail = criterion_9()
    _report("9 bound dominance audit", ok, detail)


def test_criterion_10():
    ok, detail = criterion_10()
    _report("10 asymptotic consistency", ok, detail)


if __name__ == "__main__":
    failures = 0
    for name, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # surface crashes as failures
            ok, detail = False, f"exception: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {name}: {status}{' - ' if detail else ''}{detail}")
        failures += 0 if ok else 1
    raise SystemExit(1 if failures else 0)
