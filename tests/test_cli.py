"""CLI behaviour: parsing, payload schemas, exit codes, output hygiene."""

from __future__ import annotations

import json
import math
import re
import shlex
import time

import pytest

from fslab.cli import main, parse_atoms, parse_complex_literal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----- complex literal parsing -----

@pytest.mark.parametrize(
    "text,want",
    [
        ("0.5-0.25i", complex(0.5, -0.25)),
        ("0+1i", 1j),
        ("-1.5+2e-3i", complex(-1.5, 0.002)),
        ("3.25-0i", complex(3.25, 0.0)),
    ],
)
def test_complex_literal_accepts(text, want):
    assert parse_complex_literal(text) == want


@pytest.mark.parametrize("text", ["1 + 2i", "1+2j", "2i", "i", "1", "1+i", "++1i", ""])
def test_complex_literal_rejects(text):
    from fslab.cli import _UsageError

    with pytest.raises(_UsageError):
        parse_complex_literal(text)


def test_parse_atoms():
    m = parse_atoms("0.5:0,0.5:3.14159")
    assert len(m.atoms) == 2
    from fslab.cli import _UsageError

    with pytest.raises(_UsageError):
        parse_atoms("0.5")
    with pytest.raises(_UsageError):
        parse_atoms("a:b")


# ----- bound -----

def test_bound_real_payload(capsys):
    code, out, _ = run(capsys, "bound", "--mu", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == 1
    assert set(payload) == {
        "format", "tau", "sigma", "mu", "case", "breakpoints", "value", "scaled_value",
    }
    assert payload["case"] == 2
    assert abs(payload["value"] - 11 / 9) < 1e-12
    assert len(payload["breakpoints"]) == 3


def test_bound_complex_payload(capsys):
    code, out, _ = run(capsys, "bound", "--mu", "0+1i", "--complex")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"format", "value"}
    want = (3 * math.sqrt(2) + 6 * math.sqrt(3.25)) / 3
    assert abs(payload["value"] - want) < 1e-12


def test_bound_usage_errors(capsys):
    code, _, err = run(capsys, "bound", "--mu", "abc")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "bound", "--mu", "1+2i")  # complex without --complex
    assert code == 1
    code, _, err = run(capsys, "bound")
    assert code == 1


def test_bound_domain_error(capsys):
    code, _, err = run(capsys, "bound", "--mu", "0.5", "--alpha", "1.5")
    assert code == 2 and "domain error" in err


# ----- sweep -----

def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "5")
    assert code == 0
    assert "\r" not in out
    lines = out.splitlines()
    assert lines[0] == "mu,case,value,scaled_value,complex_bound"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == -2.0
    assert first[1] == "1"
    assert float(first[2]) == 11.0  # (9 + 24)/3 at mu = -2


def _sweep_rows(capsys, par, *argv):
    flags = ["--lambda", repr(par.lam), "--delta", repr(par.delta),
             "--alpha", repr(par.alpha), "--beta", repr(par.beta)]
    code, out, err = run(capsys, "sweep", *flags, *argv)
    assert code == 0 and err == ""
    if "json" in argv:
        return [tuple(r.values()) for r in json.loads(out)["rows"]]
    return [
        (float(mu), int(case), float(v), float(s), float(cb))
        for mu, case, v, s, cb in (line.split(",") for line in out.splitlines()[1:])
    ]


def test_sweep_csv_values_roundtrip(capsys):
    # every row is exactly what the scalar routes give at its mu
    from fslab import ClassParams, bound_complex, bound_real
    from fslab.bounds import breakpoints

    from conftest import EDGE_PARAMS

    p0 = ClassParams(0, 0, 0, 0)
    mu1, mu2, mu3 = breakpoints(p0)  # 1/3, 2/3 and 1: grid points of the second input
    # alpha an ulp below 1, where roundoff puts mu1 an ulp above mu2; ties
    # still go to the lower case, as in bound_real
    ptie = ClassParams(0.832814051553602, 0.6482777505987233, 1 - 2**-53, 7.150671740303428e-10)
    tie1, tie2, _ = breakpoints(ptie)
    assert tie1 > tie2
    inputs = [
        (p0, ["--steps", "11", "--mu-min", "0", "--mu-max", "1"]),
        (p0, ["--steps", "4", "--mu-min", "0", "--mu-max", repr(mu3)]),
        (p0, ["--steps", "11", "--mu-min", "3", "--mu-max", "-2"]),
        (p0, ["--steps", "1", "--mu-min", "0.5"]),
        (ClassParams(0.3, 0.1, 0.2, 0.1), ["--steps", "41", "--output", "json"]),
        (ptie, ["--steps", "2", "--mu-min", repr(tie2), "--mu-max", repr(tie1)]),
        *((par, ["--steps", "101", "--mu-min", "-5", "--mu-max", "5"]) for par in EDGE_PARAMS),
    ]
    for par, argv in inputs:
        rows = _sweep_rows(capsys, par, *argv)
        assert len(rows) == int(argv[1])
        for mu, case, value, scaled, cb in rows:
            rep = bound_real(par, mu)
            assert (case, value, scaled) == (rep.case_id, rep.value, rep.scaled_value), (par, mu)
            assert cb == bound_complex(par, mu), (par, mu)
        if par is p0 and argv[1] == "4":
            assert [r[0] for r in rows] == [0.0, mu1, mu2, mu3]
        if par is ptie:
            assert [r[1] for r in rows] == [1, 1]


@pytest.mark.parametrize(
    "argv,code,want_out,want_err",
    [
        (
            ["--mu-min=-1.7e308", "--mu-max=-1e308", "--steps", "3"],
            0,
            "mu,case,value,scaled_value,complex_bound\n"
            "-1.6999999999999999e+308,1,inf,inf,inf\n"
            "-1.35e+308,1,inf,inf,inf\n"
            "-1e+308,1,inf,inf,inf\n",
            "",
        ),
        (
            ["--mu-min=-1e308", "--mu-max", "1e308", "--steps", "5"],
            2,
            "",
            "domain error: mu must be finite, got nan\n",
        ),
    ],
)
def test_sweep_overflow(capsys, argv, code, want_out, want_err):
    # values overflow to inf silently; an overflowed step makes the first mu
    # nan (0 * inf), which is named like bound_real names it
    assert run(capsys, "sweep", *argv) == (code, want_out, want_err)


@pytest.mark.parametrize("steps", ["1000001", "1000000000"])
def test_sweep_steps_cap_is_usage_error(capsys, steps):
    # rejected before the grid is allocated
    t0 = time.perf_counter()
    code, out, err = run(capsys, "sweep", "--steps", steps)
    assert code == 1 and out == "" and "usage error" in err
    assert time.perf_counter() - t0 < 0.1


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == 1
    assert len(payload["rows"]) == 3
    assert set(payload["rows"][0]) == {"mu", "case", "value", "scaled_value", "complex_bound"}


def test_sweep_validation(capsys):
    code, _, _ = run(capsys, "sweep", "--steps", "0")
    assert code == 1
    code, _, _ = run(capsys, "sweep", "--mu-min", "inf")
    assert code == 2


# ----- verify -----

def test_verify_payload(capsys):
    code, out, _ = run(capsys, "verify", "--mu", "0.5", "--samples", "200", "--refine", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"format", "bound", "best_value", "margin", "attained"}
    assert payload["attained"] is True
    assert abs(payload["bound"] - 11 / 9) < 1e-12


def test_verify_byte_identical(capsys):
    args = ("verify", "--mu", "0.7", "--samples", "150", "--refine", "1", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_complex(capsys):
    code, out, _ = run(
        capsys, "verify", "--mu", "0+1i", "--complex", "--samples", "100", "--refine", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["attained"] is False
    assert payload["margin"] > 0


def test_verify_budget_domain_error(capsys):
    code, _, err = run(capsys, "verify", "--samples", "0")
    assert code == 2 and "domain error" in err


def test_verify_reports_violation_on_known_window(capsys):
    # alpha=0.6, mu=1.25 sits on the window where the piecewise value is
    # exceeded by real members; the tool must say so via exit code 3
    code, _, err = run(
        capsys, "verify", "--alpha", "0.6", "--mu", "1.25",
        "--samples", "500", "--refine", "2", "--seed", "7",
    )
    assert code == 3
    assert "verification failure" in err
    assert "exceeded" in err


def test_violation_prints_a_member_line_that_reproduces_it(capsys):
    code, _, err = run(
        capsys, "verify", "--alpha", "0.6", "--mu", "1.25",
        "--samples", "500", "--refine", "2", "--seed", "7",
    )
    assert code == 3
    reported = float(re.search(r"member value (\S+) ", err).group(1))
    [line] = [ln for ln in err.splitlines() if ln.startswith("fslab member ")]
    code, out, _ = run(capsys, *shlex.split(line)[1:])
    assert code == 0
    a = [complex(*pair) for pair in json.loads(out)["a"]]
    assert abs(a[3] - 1.25 * a[2] ** 2) == reported


# ----- sharp -----

def test_sharp_payload(capsys):
    code, out, _ = run(capsys, "sharp", "--mu", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"format", "case", "bound", "attained_value", "residual"}
    assert payload["case"] == 2
    assert abs(payload["residual"]) <= 1e-8


def test_sharp_across_cases(capsys):
    for mu, case in [(-1.0, 1), (0.5, 2), (0.8, 3), (2.0, 4)]:
        code, out, _ = run(capsys, "sharp", "--mu", str(mu))
        assert code == 0
        assert json.loads(out)["case"] == case


def test_sharp_general_params(capsys):
    code, out, _ = run(
        capsys, "sharp", "--mu", "0.4", "--lambda", "0.5", "--delta", "0.25",
        "--alpha", "0.1", "--beta", "0.2",
    )
    assert code == 0
    assert abs(json.loads(out)["residual"]) <= 1e-8


# ----- reduce -----

def test_reduce_difference_is_zero(capsys):
    code, out, _ = run(
        capsys, "reduce", "--preset", "ad2", "--mu", "0.5",
        "--lambda", "0.6", "--alpha", "0.2", "--beta", "0.3",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "format", "preset", "mu", "value", "specialized_value", "difference",
    }
    assert payload["difference"] == 0.0


def test_reduce_classical_note(capsys):
    code, out, _ = run(capsys, "reduce", "--preset", "keogh-merkes", "--mu", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert "note" in payload
    assert "11/9" in payload["note"]
    assert abs(payload["value"] - 11 / 9) < 1e-12


def test_reduce_rejects_contradicting_flag(capsys):
    code, _, err = run(
        capsys, "reduce", "--preset", "keogh-merkes", "--mu", "0.5", "--beta", "0.2"
    )
    assert code == 2 and "domain error" in err


def test_reduce_unknown_preset(capsys):
    code, _, _ = run(capsys, "reduce", "--preset", "nope", "--mu", "0.5")
    assert code == 1  # argparse choices violation is a usage error


# ----- member -----

def test_member_koebe(capsys):
    code, out, _ = run(
        capsys, "member", "--p-atoms", "1:0", "--q-atoms", "1:0", "--order", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"format", "a", "b", "c"}
    assert payload["a"] == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
    assert payload["c"] == [[1.0, 0.0]] + [[2.0, 0.0]] * 4


def test_member_atom_usage_error(capsys):
    code, _, err = run(capsys, "member", "--p-atoms", "1:0:0", "--q-atoms", "1:0")
    assert code == 1 and "usage error" in err


def test_member_measure_domain_error(capsys):
    code, _, _ = run(capsys, "member", "--p-atoms", "0.9:0", "--q-atoms", "1:0")
    assert code == 2


def test_member_order_floor_is_usage_error(capsys):
    code, _, err = run(
        capsys, "member", "--p-atoms", "1:0", "--q-atoms", "1:0", "--order", "2"
    )
    assert code == 1 and "usage error" in err


@pytest.mark.parametrize("order", ["1001", "1000000000"])
def test_member_order_cap_is_usage_error(capsys, order):
    # rejected before any construction, which is quadratic in the order
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "member", "--p-atoms", "1:0", "--q-atoms", "1:0", "--order", order
    )
    assert code == 1 and out == "" and "usage error" in err
    assert time.perf_counter() - t0 < 0.1
