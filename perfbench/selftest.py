"""Quick self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must pass the program's output on a small input and reject a
corrupted copy of it: a grevlex basis with one coefficient changed (also
when the reference basis carries the same change), a lex basis with an
element dropped or a coefficient changed, and flipped structure verdicts
or a moved first rank failure.
It also confirms that the fixed p = 2^31 - 1 instances of the lex workload
still fail.  Exits 1 if any case goes the wrong way.
"""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "wgb" / "__init__.py").is_file():
    sys.exit(f"selftest: no program sources at {ROOT / 'src' / 'wgb'}")
sys.path.insert(0, str(ROOT / "src"))

import wgb.engine as engine  # noqa: E402
import wgb.fglm as fglm  # noqa: E402
from wgb.poly import Polynomial  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from inputs import bezout, dense_system, expected_series, mixed_power_sequence  # noqa: E402
from wgb.series import HilbertSeries  # noqa: E402


def bump(polys, i, j):
    """Copy of polys with coefficient j of element i changed."""
    f = polys[i]
    p = f.ring.field.p
    terms = list(f.terms)
    e, c = terms[j]
    terms[j] = (e, c % (p - 1) + 1)
    return polys[:i] + (Polynomial(f.ring, tuple(terms)),) + polys[i + 1 :]


class Basis:
    def __init__(self, polys, stats):
        self.polys = polys
        self.stats = stats


def main():
    results = []

    def expect(what, reason, reject):
        ok = (reason is not None) == reject
        results.append(ok)
        verdict = "rejected" if reason else "passed"
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {verdict}" + (f" ({reason})" if reason else ""))

    W, D = (3, 1, 2), (6, 6, 6)
    sys_ = dense_system(W, D, "selftest")
    series = expected_series(W, D)
    gb = engine.matrix_gb_whomog(sys_, expected_series=HilbertSeries(series, polynomial=True))
    ref = engine.buchberger(sys_)
    bound = sum(D) - sum(W) + max(W)
    expect("grevlex basis", checks.check_grevlex_basis(gb, sys_, series, ref, bound), False)
    bad = Basis(bump(gb.polys, 2, 1), gb.stats)
    expect("grevlex basis, one coefficient changed",
           checks.check_grevlex_basis(bad, sys_, series, ref, bound), True)
    expect("grevlex basis, same change in the reference",
           checks.check_grevlex_basis(bad, sys_, series, bad, bound), True)

    W, D = (2, 1, 1), (4, 4, 6)
    sys_ = dense_system(W, D, "selftest")
    gb = engine.buchberger(sys_)
    lex = fglm.fglm_lex(gb)
    n = bezout(W, D)
    expect("lex basis", checks.check_lex_basis(gb, lex, sys_, n), False)
    expect("lex basis, last element dropped",
           checks.check_lex_basis(gb, Basis(lex.polys[:-1], None), sys_, n), True)
    longest = max(range(len(lex.polys)), key=lambda i: len(lex.polys[i].terms))
    expect("lex basis, one coefficient changed",
           checks.check_lex_basis(gb, Basis(bump(lex.polys, longest, 1), None), sys_, n), True)

    lex_workload = workloads.Lex()
    for op in lex_workload.setup(0):
        if op.fault:
            reason = lex_workload.check(op, lex_workload.run(op))
            expect(f"lex {op.label} at p = 2^31 - 1 (recorded fault)", reason, True)

    structure = workloads.Structure(ROOT)
    for W, D, dx in [((1, 1), (2, 2), 2), ((2, 1, 1), (2, 2, 2), 2), ((4, 2, 1), (4, 4, 4), 4)]:
        op = workloads.Op("selftest", mixed_power_sequence(W, D, dx), data={"W": W})
        op.data["d_max"] = max(sum(D) - sum(W), 0) + max(W)
        v = structure.run(op)
        expect(f"verdict {W}/{D}+{dx}", structure.check(op, v), False)
        flipped = replace(v, semiregular=not v.semiregular, rank_ok=not v.rank_ok,
                          first_failure=None if not v.rank_ok else (1, 0, 1))
        expect(f"verdict {W}/{D}+{dx}, flipped", structure.check(op, flipped), True)
        if not v.rank_ok:
            i, d, k = v.first_failure
            moved = replace(v, first_failure=(i, d + 1, k))
            expect(f"verdict {W}/{D}+{dx}, first failure moved", structure.check(op, moved), True)

    W, D = (2, 1, 1), (4, 4, 6)
    op = workloads.Op("selftest", dense_system(W, D, "selftest"),
                      data={"W": W, "square": True, "bezout": bezout(W, D)})
    rep = structure.run(op)
    expect("structure report", structure.check(op, rep), False)
    flipped = replace(rep, regular=replace(rep.regular, regular=not rep.regular.regular))
    expect("structure report, regularity flipped", structure.check(op, flipped), True)

    print(f"{sum(results)}/{len(results)} cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
