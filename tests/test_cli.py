"""CLI surface and the system file format."""

import json
import os
import subprocess
import sys as _sys
from pathlib import Path
from unittest import mock

import pytest

import wgb.cli
from wgb.cli import main
from wgb.structure import random_affine_system, random_w_homogeneous_system
from wgb.sysio import (
    SystemFormatError,
    parse_polynomial,
    parse_system,
    write_system,
)


def test_round_trip_homogeneous():
    sys = random_w_homogeneous_system((3, 2, 1), (6, 6, 6), seed=4)
    back = parse_system(write_system(sys))
    assert back.ring == sys.ring
    assert [f.terms for f in back.polys] == [f.terms for f in sys.polys]


def test_round_trip_affine():
    sys = random_affine_system((2, 1), (4, 3), seed=4)
    back = parse_system(write_system(sys))
    assert [f.terms for f in back.polys] == [f.terms for f in sys.polys]


def test_parse_rejects_undeclared_variable():
    text = "p 7\nvars X Y\nweights 1 1\npoly X + Z\n"
    with pytest.raises(SystemFormatError):
        parse_system(text)


def test_parse_expression_forms():
    sys = parse_system("p 13\nvars X Y\nweights 2 1\npoly -X^2 + 3*X*Y - 5\n")
    f = sys.polys[0]
    assert f.coeff_map() == {(2, 0): 12, (1, 1): 3, (0, 0): 8}
    with pytest.raises(SystemFormatError):
        parse_polynomial("X +", sys.ring)


def test_gen_and_gb(tmp_path, capsys):
    out = tmp_path / "sys.txt"
    assert main(["gen", "--weights", "3,2,1", "--degrees", "6,6,6", "--seed", "1",
                 "--out", str(out)]) == 0
    sys = parse_system(out.read_text())
    assert sys.m == 3 and all(f.is_w_homogeneous() for f in sys.polys)
    assert main(["gb", str(out), "--engine", "matrix", "--hilbert-driven", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["observed_dreg"] == 13
    assert data["reduced"] is True
    degrees = data["stats"]["degrees"]
    assert degrees[-1]["degree"] == 13
    assert sum(r["zero_reductions"] for r in degrees) == data["stats"]["reductions_to_zero"]
    # per input index, one entry per equation
    assert all(len(r["input_pivots"]) == 3 and sum(r["input_pivots"]) == r["new_pivots"] for r in degrees)
    assert all(sum(r["input_zero_reductions"]) == r["zero_reductions"] for r in degrees)


def test_gen_affine_support(tmp_path):
    out = tmp_path / "aff.txt"
    assert main(["gen", "--weights", "2,1", "--degrees", "4,4", "--affine",
                 "--seed", "2", "--out", str(out)]) == 0
    sys = parse_system(out.read_text())
    from wgb.monomial import monomials_of_wdeg_at_most

    for f, d in zip(sys.polys, sys.degrees):
        assert len(f) == len(monomials_of_wdeg_at_most((2, 1), d))


def test_gen_empty_support_error_exit():
    assert main(["gen", "--weights", "2,5", "--degrees", "3"]) == 2


def test_gb_engines_agree(tmp_path, capsys):
    out = tmp_path / "s.txt"
    main(["gen", "--weights", "2,1", "--degrees", "4,4", "--seed", "3", "--out", str(out)])
    bases = {}
    for engine in ("buchberger", "matrix", "homw"):
        assert main(["gb", str(out), "--engine", engine, "--json"]) == 0
        bases[engine] = json.loads(capsys.readouterr().out)["basis"]
    assert bases["buchberger"] == bases["matrix"] == bases["homw"]


def test_gb_matrix_underdetermined(tmp_path, capsys):
    # two equations in three variables: the matrix engine stops on its own
    # certificate
    out = tmp_path / "u.txt"
    main(["gen", "--weights", "1,1,1", "--degrees", "2,2", "--seed", "4", "--out", str(out)])
    bases = {}
    for engine in ("buchberger", "matrix"):
        assert main(["gb", str(out), "--engine", engine, "--json"]) == 0
        bases[engine] = json.loads(capsys.readouterr().out)["basis"]
    assert bases["matrix"] == bases["buchberger"]
    assert len(bases["matrix"]) > 2


def test_bounds_cli(capsys):
    assert main(["bounds", "--weights", "20,5,5,1", "--degrees", "60,60,60,60",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["macaulay_weak"] == 229
    assert data["macaulay_snp"] == 210
    assert data["conjectured_dreg"] == 210


def test_hilbert_cli(capsys):
    assert main(["hilbert", "--weights", "3,3,1", "--degrees", "12,9,6,6,3",
                 "--truncate", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["truncated_coeffs"] == [1, 1, 1, 2, 2, 2, 1, 1, 1]
    assert data["truncation_degree"] == 8


def test_fglm_cli(tmp_path, capsys):
    out = tmp_path / "s.txt"
    main(["gen", "--weights", "2,1", "--degrees", "4,4", "--seed", "5", "--out", str(out)])
    assert main(["fglm", str(out), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["staircase_size"] == 8
    # 2a + b = 4 makes every exponent of X2 even: the walk takes the
    # preimage's 4 monomials
    assert data["walk_staircase"] == 4
    assert data["order"] == "lex"


def test_invert_cli(tmp_path, capsys):
    f = tmp_path / "inv.txt"
    f.write_text("p 65521\nvars X\nweights 1\npoly X\npoly X^2\n")
    assert main(["invert", str(f), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tag_weights"] == [1, 1, 2]
    assert data["relations"] == ["T1^2 - T2"]


def test_structure_cli(tmp_path, capsys):
    out = tmp_path / "s.txt"
    main(["gen", "--weights", "2,1", "--degrees", "4,4", "--seed", "6", "--out", str(out)])
    assert main(["structure", str(out), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["regular"]["verdict"] is True
    assert data["semiregular"]["verdict"] is True
    assert main(["structure", str(out), "--dmax", "0"]) == 0
    capsys.readouterr()
    assert main(["structure", str(out), "--dmax", "-1"]) == 2
    assert "d_max must be >= 0" in capsys.readouterr().err


def test_structure_cli_refuses_a_constant_input(tmp_path, capsys):
    # the factor 1 - T^0 = 0 makes the product form 0, which the unit
    # ideal's zero quotient would match: no verdict is printed
    out = tmp_path / "c.txt"
    out.write_text("p 7\nvars X Y\nweights 1 2\npoly X\npoly 1\n")
    assert main(["structure", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "polynomial #2 has declared degree 0" in captured.err


def test_bench_exit_codes(capsys):
    assert main(["bench", "figures", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert main(["bench", "dlp-pattern"]) == 0
    capsys.readouterr()
    assert main(["bench", "table2"]) == 0
    capsys.readouterr()


def test_gb_hilbert_driven_overdetermined(tmp_path, capsys):
    # the series of (1,1,1,1), D = (3,)^5 is a polynomial with negative
    # coefficients; it is truncated before it drives the matrix engine
    out = tmp_path / "od.txt"
    assert main(["gen", "--weights", "1,1,1,1", "--degrees", "3,3,3,3,3", "--seed", "1",
                 "--out", str(out)]) == 0
    assert main(["gb", str(out), "--engine", "matrix", "--hilbert-driven", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 25
    assert data["stats"]["observed_dreg"] == 6


def test_modulus_above_bound_exits_2(capsys):
    assert main(["gen", "--weights", "1,1", "--degrees", "2,2",
                 "--modulus", str(2**31 + 11)]) == 2
    assert "2^31" in capsys.readouterr().err


def test_gb_hilbert_driven_underdetermined_exits_2(tmp_path, capsys):
    # two quadrics in three variables: the generic series 1 + 3T + 5T^2 + ..
    # never ends, so there is no series to stop on
    out = tmp_path / "ud.txt"
    assert main(["gen", "--weights", "1,1,1", "--degrees", "2,2", "--seed", "4",
                 "--out", str(out)]) == 0
    assert main(["gb", str(out), "--engine", "matrix", "--hilbert-driven"]) == 2
    err = capsys.readouterr().err
    assert "--hilbert-driven needs m >= n" in err and "not a polynomial" in err
    assert main(["gb", str(out), "--engine", "matrix"]) == 0


def test_gb_hilbert_driven_square_without_polynomial_series_exits_2(tmp_path, capsys):
    # W = (2, 1), D = (3, 3): (1 - T^3)^2 / ((1 - T)(1 - T^2)) is not a
    # polynomial, so no regular sequence has these degrees; refused before
    # the run, which would leave the truncated series at degree 4
    out = tmp_path / "sq.txt"
    assert main(["gen", "--weights", "2,1", "--degrees", "3,3", "--seed", "1",
                 "--out", str(out)]) == 0
    with mock.patch.object(wgb.cli, "matrix_gb_whomog") as run:
        assert main(["gb", str(out), "--engine", "matrix", "--hilbert-driven"]) == 2
    assert run.call_count == 0
    err = capsys.readouterr().err
    assert "of weights (2, 1) has degrees (3, 3)" in err and "not a polynomial" in err
    assert main(["gb", str(out), "--engine", "matrix"]) == 0


@pytest.mark.parametrize("engine", [None, "buchberger", "homw"])
def test_gb_hilbert_driven_refuses_an_engine_other_than_matrix(engine, tmp_path, capsys):
    # only the matrix engine stops on the series; the others ran without it
    out = tmp_path / "s.txt"
    main(["gen", "--weights", "2,1", "--degrees", "4,4", "--seed", "3", "--out", str(out)])
    flags = ["--engine", engine] if engine else []
    assert main(["gb", str(out), *flags, "--hilbert-driven"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--hilbert-driven is for --engine matrix, not --engine {engine or 'buchberger'}" in captured.err


@pytest.mark.parametrize("engine", ["matrix", "homw"])
def test_gb_elimination_order_refuses_an_engine_other_than_buchberger(engine, tmp_path, capsys):
    # an elimination order ran Buchberger whatever --engine said
    out = tmp_path / "s.txt"
    main(["gen", "--weights", "2,1", "--degrees", "4,4", "--seed", "3", "--out", str(out)])
    assert main(["gb", str(out), "--order", "elim:1", "--engine", engine, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--order elim:1 runs Buchberger, not --engine {engine}" in captured.err


@pytest.mark.parametrize("flags", [["--truncate"], ["--weights", "1,1,1", "--degrees", "2,2"]])
def test_hilbert_of_a_system_refuses_the_rational_options(flags, tmp_path, capsys):
    # the quotient series of a system file read neither
    out = tmp_path / "zd.txt"
    main(["gen", "--weights", "2,1", "--degrees", "4,4", "--seed", "5", "--out", str(out)])
    assert main(["hilbert", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flags[0]} is for a rational series, not a system file" in captured.err


@pytest.mark.parametrize("target", ["dlp-pattern", "figures", "table1"])
def test_bench_full_is_refused_but_for_table2(target, capsys):
    assert main(["bench", target, "--full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--full is for table2, not {target}" in captured.err


def test_closed_stdout_exits_quietly(tmp_path):
    # `wgb gb ... | head -5`: the reader is gone before the basis is printed
    out = tmp_path / "sys.txt"
    assert main(["gen", "--weights", "3,2,1", "--degrees", "6,6,6", "--seed", "1",
                 "--out", str(out)]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [_sys.executable, "-m", "wgb.cli", "gb", str(out), "--engine", "matrix"],
            stdout=w, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_int_lists_split_on_commas_and_whitespace(capsys):
    assert wgb.cli._ints("3 2 1") == wgb.cli._ints("3,2,1") == wgb.cli._ints(" 3, 2 ,1") == (3, 2, 1)
    assert main(["bounds", "--weights", "3 2 1", "--degrees", "6 6 6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["weights"] == [3, 2, 1]
    assert main(["bounds", "--weights", "3,2,x", "--degrees", "6,6,6.5"]) == 2
    assert "not an integer: 'x' in '3,2,x'" in capsys.readouterr().err
    assert main(["gen", "--weights", "2,1", "--degrees", "4;4"]) == 2
    assert "'4;4'" in capsys.readouterr().err


def test_gb_lex_and_elimination_orders(tmp_path, capsys):
    out = tmp_path / "s.txt"
    main(["gen", "--weights", "2,1", "--degrees", "4,4", "--seed", "3", "--out", str(out)])
    assert main(["gb", str(out), "--order", "lex", "--json"]) == 0
    lex = json.loads(capsys.readouterr().out)
    assert lex["order"] == "lex"
    assert main(["fglm", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == lex["basis"]
    assert main(["gb", str(out), "--order", "elim:1", "--json"]) == 0
    elim = json.loads(capsys.readouterr().out)
    assert elim["order"] == "elim:1"
    # the elements free of the eliminated variable X1
    assert elim["elimination_basis"] == [g for g in elim["basis"] if "X1" not in g]
    assert elim["elimination_basis"] == ["X2^6"]


def test_hilbert_zero_dimensional_system(tmp_path, capsys):
    # a regular sequence of weights (2, 1) and degrees (4, 4): the quotient
    # series is (1 - T^4)^2 / ((1 - T^2)(1 - T)), of degree 5 and value 8 at 1
    out = tmp_path / "zd.txt"
    main(["gen", "--weights", "2,1", "--degrees", "4,4", "--seed", "5", "--out", str(out)])
    assert main(["hilbert", str(out), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["polynomial"] is True
    assert data["coeffs"] == [1, 1, 2, 2, 1, 1]
    assert data["degree"] == 5 and data["ideal_degree"] == 8


def test_hilbert_positive_dimensional_system(tmp_path, capsys):
    # two quadrics in three variables: four points, Hilbert function 1, 3, 4, 4, ..
    out = tmp_path / "ud.txt"
    main(["gen", "--weights", "1,1,1", "--degrees", "2,2", "--seed", "4", "--out", str(out)])
    assert main(["hilbert", str(out), "--window", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["polynomial"] is False
    assert data["coeffs"] == [1, 3, 4, 4, 4, 4, 4]
    assert main(["hilbert", str(out)]) == 2
    assert "a window N is required" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["system", "rational"])
def test_hilbert_refuses_a_negative_window(source, tmp_path, capsys):
    out = tmp_path / "ud.txt"
    main(["gen", "--weights", "1,1,1", "--degrees", "2,2", "--seed", "4", "--out", str(out)])
    capsys.readouterr()
    args = [str(out)] if source == "system" else ["--weights", "1,1", "--degrees", "2,2"]
    assert main(["hilbert", *args, "--window", "-1"]) == 2
    assert "window must be >= 0" in capsys.readouterr().err


def test_bench_table1(capsys):
    assert main(["bench", "table1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True and data["entries"]
    assert all(e["match"] for e in data["entries"])


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_bench_table1_refuses_fewer_than_one_seed(seeds, capsys):
    assert main(["bench", "table1", "--seeds", seeds]) == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["1800", "1e-9"])
def test_bench_table2_full_reports_each_rows_seconds(budget, capsys, monkeypatch):
    # each measured_dreg entry gives its wall time, whether the run ends or
    # its budget runs out; a small instance stands in for the 60^4 rows
    import wgb.bench as bench

    real = bench.measured_dreg
    monkeypatch.setattr(bench, "measured_dreg", lambda W, D, seed, deadline: real((2, 1, 1), (4, 4, 4), seed, deadline))
    status = main(["bench", "table2", "--full", "--json", "--budget", budget])
    data = json.loads(capsys.readouterr().out)
    assert status == (0 if data["ok"] else 1)  # the stand-in's dreg is not the row's
    entries = [e for e in data["entries"] if e["id"].endswith("/measured_dreg")]
    assert len(entries) == 2
    for e in entries:
        assert isinstance(e["seconds"], float) and e["seconds"] >= 0
        assert (e["computed"] is None) == (budget == "1e-9")


@pytest.mark.parametrize("budget", ["-5", "0", "nan"])
def test_bench_table2_refuses_a_budget_not_above_zero(budget, capsys):
    # -5 and 0 expired before the first run, and a NaN budget never expired
    assert main(["bench", "table2", "--full", "--budget", budget]) == 2
    assert "--budget must be greater than 0" in capsys.readouterr().err
