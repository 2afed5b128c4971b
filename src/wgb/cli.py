"""Command-line surface.

Subcommands: gen, gb, hilbert, bounds, structure, fglm, invert, bench.
Every report-producing command accepts --json; the default is an
indented key-value rendering.
"""

import argparse
import json
import sys as _sys
from dataclasses import asdict
from fractions import Fraction

from .bench import RUNNERS
from .bounds import bounds_report
from .engine import buchberger, elimination_gb, gb_via_homw, matrix_gb_whomog
from .errors import EmptySupportError, IncompleteBasisError
from .field import DEFAULT_MODULUS
from .fglm import fglm_lex, staircase
from .order import MonomialOrder
from .series import expand_rational, ideal_degree, quotient_hilbert_series, truncate_semiregular
from .structure import (
    inversion_system,
    random_affine_system,
    random_w_homogeneous_system,
    structure_report,
)
from .sysio import format_polynomial, load_system, render_report, write_system


def _ints(text):
    return tuple(int(x) for x in text.replace(" ", "").split(",") if x)


def _emit(args, data):
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2, default=_json_default))
    else:
        print(render_report(data))


def _json_default(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else int(v)
    if isinstance(v, tuple):
        return list(v)
    return str(v)


def _gb_payload(gb, extra=None):
    data = {
        "order": gb.order.kind if gb.order.kind != "elim" else f"elim:{gb.order.block}",
        "size": len(gb.polys),
        "reduced": True,  # every engine returns the reduced basis
        "stats": gb.stats.as_dict(),
        "basis": [format_polynomial(f) for f in gb.polys],
    }
    if extra:
        data.update(extra)
    return data


def cmd_gen(args):
    maker = random_affine_system if args.affine else random_w_homogeneous_system
    sys = maker(_ints(args.weights), _ints(args.degrees), args.seed, field=args.modulus)
    text = write_system(sys)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _parse_order_flag(flag, weights):
    if flag == "wgrevlex":
        return MonomialOrder.wgrevlex(weights)
    if flag == "lex":
        return MonomialOrder.lex(weights)
    if flag.startswith("elim:"):
        return MonomialOrder.elimination(weights, int(flag.split(":", 1)[1]))
    raise ValueError(f"unknown order {flag!r}")


def cmd_gb(args):
    sys = load_system(args.system)
    order = _parse_order_flag(args.order, sys.ring.weights)
    extra = None
    if args.order.startswith("elim:"):
        k = int(args.order.split(":", 1)[1])
        gb, elim = elimination_gb(sys, k)
        extra = {"elimination_basis": [format_polynomial(f) for f in elim]}
    elif args.engine == "buchberger":
        gb = buchberger(sys.with_order(order))
    elif args.engine == "matrix":
        expected = None
        if args.hilbert_driven:
            expected = expand_rational(sys.degrees, sys.ring.weights)
            # an overdetermined series can be a polynomial with negative
            # coefficients; a square one may have inner zeros, kept as they are
            if sys.m > sys.n or not expected.polynomial:
                expected = truncate_semiregular(expected)
        gb = matrix_gb_whomog(sys.with_order(order), expected_series=expected)
    elif args.engine == "homw":
        gb = gb_via_homw(sys.with_order(order))
    else:
        raise ValueError(f"unknown engine {args.engine!r}")
    _emit(args, _gb_payload(gb, extra))
    return 0


def cmd_hilbert(args):
    if args.system:
        sys = load_system(args.system)
        gb = buchberger(sys)
        s = quotient_hilbert_series(gb, N=args.window)
        data = {
            "kind": "quotient",
            "polynomial": s.polynomial,
            "coeffs": s.coeffs,
        }
        if s.polynomial:
            data["degree"] = s.degree
            data["ideal_degree"] = ideal_degree(s)
    else:
        if not (args.weights and args.degrees):
            raise SystemExit("hilbert: need a system file or --weights/--degrees")
        W, D = _ints(args.weights), _ints(args.degrees)
        s = expand_rational(D, W, args.window)
        data = {
            "kind": "rational",
            "weights": list(W),
            "degrees": list(D),
            "polynomial": s.polynomial,
            "coeffs": s.coeffs if s.polynomial else s.coeffs_upto(s.window),
        }
        if s.polynomial:
            data["degree"] = s.degree
        if args.truncate:
            t = truncate_semiregular(s)
            data["truncated_coeffs"] = t.coeffs
            data["truncation_degree"] = t.degree
    _emit(args, data)
    return 0


def cmd_bounds(args):
    W, D = _ints(args.weights), _ints(args.degrees)
    rep = bounds_report(W, D, omega=args.omega, k_extra=args.k_extra)
    data = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(rep).items()}
    if rep.alpha_k is None:
        del data["alpha_k"], data["asymptotic_dreg"]
    _emit(args, data)
    return 0


def cmd_structure(args):
    sys = load_system(args.system)
    rep = structure_report(sys, d_max=args.dmax)
    _emit(args, rep.as_dict())
    return 0


def cmd_fglm(args):
    sys = load_system(args.system)
    gb = buchberger(sys)
    lex_gb, stats = fglm_lex(gb, return_stats=True)
    data = _gb_payload(
        lex_gb,
        extra={
            "staircase_size": stats.degree,
            "field_ops": stats.field_ops,
            "source_staircase": len(staircase(gb)),
        },
    )
    _emit(args, data)
    return 0


def cmd_invert(args):
    sys = load_system(args.system)
    tagged = inversion_system(list(sys.polys))
    n = sys.ring.n
    gb, relations = elimination_gb(tagged, n)
    data = {
        "tag_weights": list(tagged.ring.weights),
        "relations": [format_polynomial(f) for f in relations],
        "stats": gb.stats.as_dict(),
    }
    _emit(args, data)
    return 0


def cmd_bench(args):
    runner = RUNNERS[args.target]
    if args.target == "table2":
        report = runner(full=args.full, budget_seconds=args.budget)
    elif args.target == "table1":
        report = runner(seeds=tuple(range(1, args.seeds + 1)))
    else:
        report = runner()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=_json_default)
    _emit(args, report)
    return 0 if report["ok"] else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="wgb", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random system file")
    g.add_argument("--weights", required=True)
    g.add_argument("--degrees", required=True)
    g.add_argument("--affine", action="store_true")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("gb", help="Groebner basis of a system file")
    b.add_argument("system")
    b.add_argument("--order", default="wgrevlex", help="wgrevlex | lex | elim:K")
    b.add_argument("--engine", default="buchberger", choices=["buchberger", "matrix", "homw"])
    b.add_argument("--hilbert-driven", action="store_true",
                   help="matrix engine: stop via the generic-series certificate")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_gb)

    h = sub.add_parser("hilbert", help="series expansion or quotient series")
    h.add_argument("system", nargs="?")
    h.add_argument("--weights")
    h.add_argument("--degrees")
    h.add_argument("--window", type=int)
    h.add_argument("--truncate", action="store_true")
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=cmd_hilbert)

    c = sub.add_parser("bounds", help="degree bounds and cost estimates")
    c.add_argument("--weights", required=True)
    c.add_argument("--degrees", required=True)
    c.add_argument("--omega", type=float, default=3.0)
    c.add_argument("--k-extra", type=int, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_bounds)

    s = sub.add_parser("structure", help="structural oracles for a system file")
    s.add_argument("system")
    s.add_argument("--dmax", type=int, default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_structure)

    f = sub.add_parser("fglm", help="lex basis via change of ordering")
    f.add_argument("system")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_fglm)

    i = sub.add_parser("invert", help="relations between the input polynomials")
    i.add_argument("system")
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=cmd_invert)

    be = sub.add_parser("bench", help="regenerate reference tables and diff")
    be.add_argument("target", choices=sorted(RUNNERS))
    be.add_argument("--full", action="store_true")
    be.add_argument("--budget", type=float, default=1800.0)
    be.add_argument("--seeds", type=int, default=5)
    be.add_argument("--out")
    be.add_argument("--json", action="store_true")
    be.set_defaults(func=cmd_bench)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EmptySupportError, IncompleteBasisError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
