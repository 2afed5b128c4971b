"""The three workloads: their operations, how each is run and checked.

An operation is one system or one sequence.  `run` is the timed call into
the program; `check` runs after the timed region and returns None or a
reason.  Calls go through module attributes (`engine.buchberger`, not a
name imported at load time) so the traced run's wrappers see them.
"""

import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

import wgb.engine as engine
import wgb.fglm as fglm
import wgb.structure as structure
from wgb.series import HilbertSeries

import checks
from inputs import (
    BIG_PRIME,
    bezout,
    dense_system,
    expected_series,
    mixed_power_grid,
    mixed_power_sequence,
)

# fglm_lex multiplies int64 matrices by vectors, (p-1)^2 * staircase
# overflows int64 at this modulus, and the lex basis comes out wrong
BIG_PRIME_FAULT = "fglm_lex overflows int64 at p = 2^31 - 1"


@dataclass
class Op:
    label: str
    sys: object
    fault: str = None          # a recorded program fault this operation hits
    data: dict = field(default_factory=dict)
    reference: object = None   # made on first check, outside the timed region


def _dense_ops(specs, seed, **kw):
    return [
        Op(f"{W}/{D}#{k}", dense_system(W, D, f"{seed}.{k}", **kw), data={"W": W, "D": D})
        for W, D, k in specs
    ]


class DenseGB:
    """Matrix engine, Hilbert-driven, on dense random W-homogeneous systems."""

    name = "dense-gb"
    SPECS = (
        [(W, (6, 6, 6), k) for W in [(3, 2, 1), (3, 1, 2), (1, 2, 3)] for k in range(4)]
        + [
            ((2, 2, 2, 1), (8, 8, 8, 8), 0),
            ((20, 5, 5, 1), (20, 20, 20, 20), 0),
            ((1, 5, 5, 20), (20, 20, 20, 20), 0),
            ((1, 1, 1, 1), (3, 3, 3, 3, 3), 0),
        ]
    )

    def setup(self, seed):
        ops = _dense_ops(self.SPECS, seed)
        for op in ops:
            W, D = op.data["W"], op.data["D"]
            op.data["series"] = expected_series(W, D)
            op.data["hs"] = HilbertSeries(op.data["series"], polynomial=True)
            square = len(D) == len(W)
            op.data["dreg_bound"] = sum(D) - sum(W) + max(W) if square else None
        return ops

    def run(self, op):
        return engine.matrix_gb_whomog(op.sys, expected_series=op.data["hs"])

    def check(self, op, gb):
        if op.reference is None:
            op.reference = engine.buchberger(op.sys)
        return checks.check_grevlex_basis(
            gb, op.sys, op.data["series"], op.reference, op.data["dreg_bound"]
        )

    def fingerprint(self, gb):
        return gb.stats.observed_dreg, tuple(f.terms for f in gb.polys)

    def counts(self, gb):
        return {
            "engine.matrix.max_cols": gb.stats.max_matrix_cols,
            "engine.matrix.max_rows": gb.stats.max_matrix_rows,
            "engine.matrix.zero_reductions": gb.stats.reductions_to_zero,
            "engine.basis_size": len(gb.polys),
        }


class Lex:
    """The `wgb fglm` path: a Buchberger basis, then the change to lex."""

    name = "lex"
    SPECS = [
        ((2, 2, 1), (14, 14, 14), 0),
        ((1, 1, 1), (6, 6, 7), 0),
        ((3, 2, 1), (12, 12, 12), 0),
        ((2, 1, 1), (8, 8, 8), 0),
    ]
    # fixed inputs, whatever the seed: they fail on every run until the
    # overflow is mended
    BIG_PRIME_SPECS = [
        ((1, 1, 1), (5, 5, 5), 0),
        ((2, 1, 1), (6, 6, 8), 0),
    ]

    def setup(self, seed):
        ops = _dense_ops(self.SPECS, seed)
        for op in _dense_ops(self.BIG_PRIME_SPECS, "fixed", p=BIG_PRIME):
            op.fault = BIG_PRIME_FAULT
            ops.append(op)
        for op in ops:
            op.data["bezout"] = bezout(op.data["W"], op.data["D"])
        return ops

    def run(self, op):
        gb = engine.buchberger(op.sys)
        lex, stats = fglm.fglm_lex(gb, return_stats=True)
        return gb, lex, stats

    def check(self, op, out):
        gb, lex, _ = out
        return checks.check_lex_basis(gb, lex, op.sys, op.data["bezout"])

    def fingerprint(self, out):
        gb, lex, _ = out
        return tuple(f.terms for f in gb.polys), tuple(f.terms for f in lex.polys)

    def counts(self, out):
        gb, _, stats = out
        return {
            "engine.buchberger.pairs": gb.stats.pairs_considered,
            "engine.buchberger.zero_reductions": gb.stats.reductions_to_zero,
            "fglm.field_ops": stats.field_ops,
            "fglm.staircase_size": stats.degree,
        }


def _load_rank_oracle(root):
    """The definition-based rank oracle kept beside the tests."""
    path = Path(root) / "tests" / "semiregular_oracle.py"
    spec = importlib.util.spec_from_file_location("semiregular_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.rank_clause


class Structure:
    """Semi-regularity verdicts on a fixed sample of the mixed-power grid,
    and structure reports on dense square systems."""

    name = "structure"
    GRID_STEP = 40
    SQUARE_SPECS = [
        ((3, 2, 1), (6, 6, 6), 0),
        ((2, 2, 1), (8, 8, 8), 0),
        ((2, 1, 1), (4, 4, 6), 0),
        ((1, 1, 1, 1), (3, 3, 3, 3), 0),
    ]

    def __init__(self, root):
        self.rank_clause = _load_rank_oracle(root)

    def setup(self, seed):
        ops = []
        for W, D, dx in mixed_power_grid()[:: self.GRID_STEP]:
            op = Op(f"{W}/{D}+{dx}", mixed_power_sequence(W, D, dx), data={"W": W})
            op.data["d_max"] = max(sum(D) - sum(W), 0) + max(W)
            ops.append(op)
        for op in _dense_ops(self.SQUARE_SPECS, seed):
            op.data["square"] = True
            op.data["bezout"] = bezout(op.data["W"], op.data["D"])
            ops.append(op)
        return ops

    def run(self, op):
        if op.data.get("square"):
            return structure.structure_report(op.sys)
        return structure.is_semiregular(op.sys, d_max=op.data["d_max"])

    def check(self, op, out):
        W = op.data["W"]
        if op.data.get("square"):
            if op.reference is None:
                op.reference = engine.buchberger(op.sys)
            return checks.check_square_structure(out, op.reference, op.data["bezout"])
        oracle = None if out.rank_ok else self.rank_clause(op.sys, out.window)
        return checks.check_semiregular(out, W, oracle)

    def fingerprint(self, out):
        return out

    def counts(self, out):
        return {}


def make(name, root):
    if name == DenseGB.name:
        return DenseGB()
    if name == Lex.name:
        return Lex()
    if name == Structure.name:
        return Structure(root)
    raise ValueError(f"unknown workload {name!r}")
