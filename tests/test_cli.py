"""CLI behaviour: parsing, payload schemas, exit codes, output hygiene."""

from __future__ import annotations

import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import textwrap
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fslab.cli
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


@pytest.mark.parametrize("text", ["1 + 2i", "1+2j", "2i", "i", "1", "1+i", "++1i", "", "1+2i\n"])
def test_complex_literal_rejects(text):
    # not an a+bi literal, a trailing newline included: None, no error of its own
    assert parse_complex_literal(text) is None


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
    code, out, _ = run(capsys, "bound", "--mu", "0+1i")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"format", "value"}
    want = (3 * math.sqrt(2) + 6 * math.sqrt(3.25)) / 3
    assert abs(payload["value"] - want) < 1e-12


def test_bound_usage_errors(capsys):
    for mu in ("abc", "1 + 2i", "1+2i\n"):
        code, _, err = run(capsys, "bound", "--mu", mu)
        assert (code, err) == (1, f"usage error: --mu must be a real number or an a+bi literal, got {mu!r}\n")
    # the literal picks the route; there is no flag for it
    code, _, err = run(capsys, "bound", "--complex", "--mu", "1+2i")
    assert code == 1 and err.startswith("usage error: unrecognized arguments: --complex")
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
            0,
            "mu,case,value,scaled_value,complex_bound\n"
            "-1e+308,1,inf,inf,inf\n"
            "-5.0000000000000001e+307,1,inf,inf,inf\n"
            "0,1,3,9,3\n"
            "5.0000000000000001e+307,4,inf,inf,inf\n"
            "1e+308,4,inf,inf,inf\n",
            "",
        ),
    ],
)
def test_sweep_overflow(capsys, argv, code, want_out, want_err):
    # values overflow to inf silently; a step that overflows (the width of
    # the range is past the float range) still gives the finite grid
    assert run(capsys, "sweep", *argv) == (code, want_out, want_err)


@pytest.mark.parametrize("steps", [2, 4, 7, 8, 24, 1001])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sweep_over_the_whole_float_range(capsys, steps, sign):
    # from -DBL_MAX to DBL_MAX (or back) the step overflows, and at 4, 7 and
    # 8 steps the grid's last point rounds past mu_max unless it is kept
    # within the range: every mu is finite, the first is mu_min and none
    # leaves the range
    lo, hi = -sign * sys.float_info.max, sign * sys.float_info.max
    code, out, err = run(capsys, "sweep", f"--mu-min={lo!r}", f"--mu-max={hi!r}", "--steps", str(steps))
    assert (code, err) == (0, "")
    mus = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert len(mus) == steps and all(map(math.isfinite, mus))
    assert mus[0] == lo
    assert min(lo, hi) <= min(mus) and max(mus) <= max(lo, hi)


@pytest.mark.parametrize("steps", ["1000001", "1000000000"])
def test_sweep_steps_cap_is_usage_error(capsys, steps):
    # rejected before the grid is allocated
    t0 = time.perf_counter()
    code, out, err = run(capsys, "sweep", "--steps", steps)
    assert code == 1 and out == "" and "usage error" in err
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("steps", ["1", "13", "14", "50"])
def test_sweep_blocks_are_invisible(capsys, monkeypatch, steps):
    # the CSV is written in blocks of rows; the bytes do not depend on them
    argv = ("sweep", "--steps", steps, "--alpha", "0.3", "--mu-min=-3", "--mu-max", "4")
    whole = run(capsys, *argv)
    monkeypatch.setattr(fslab.cli, "_SWEEP_BLOCK", 7)
    assert run(capsys, *argv) == whole
    assert whole[0] == 0 and len(whole[1].splitlines()) == 1 + int(steps)


def test_sweep_whose_last_point_overflows_stays_finite(capsys):
    # the step is finite but the last of 65,665 points, past the first CSV
    # block, rounds past mu_max to inf: the grid is built in quarters and
    # stays finite and within the range
    mu_max = sys.float_info.max
    code, out, err = run(capsys, "sweep", "--mu-min", "0", "--mu-max", repr(mu_max), "--steps", "65665")
    assert (code, err) == (0, "")
    mus = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert len(mus) == 65665 and all(map(math.isfinite, mus))
    assert mus[0] == 0.0 and max(mus) <= mu_max


_DBL_MAX = sys.float_info.max

# (mu_min, mu_max, steps): the grids a sweep once printed past an end or
# without its first point, and the float range's edges
_FIXED_GRIDS = [
    (-3.0, -1.3, 51),  # the last point once printed as -1.2999999999999998
    (-1e-3, 2e18, 28),  # and this one as 2.0000000000000003e18
    (5e-324, -_DBL_MAX, 13),  # the first point once printed as 0
    (_DBL_MAX, 5e-324, 13),  # and this last one as 0
    (_DBL_MAX, -5e-324, 25),  # its last point, -0.0, stays as it was (tests/test_bits.py)
    *((lo, -lo, steps) for lo in (-_DBL_MAX, _DBL_MAX) for steps in (2, 7, 1001)),
    (-0.0, 5.0, 11), (-0.0, -5.0, 11), (-0.0, -_DBL_MAX, 7),
    (2.5, 2.5, 9), (-0.0, 0.0, 3), (1e308, 1e308, 4),
    (-2.0, 3.0, 2), (3.0, -2.0, 2), (0.5, 7.0, 1),
]


def _random_grids(n):
    """n seeded (mu_min, mu_max, steps): decimal ends, the float range's
    edges and subnormals, ends of any magnitude, zero widths and descending
    ranges, at 2 to 300 steps."""
    rng = np.random.default_rng(31)
    specials = (_DBL_MAX, -_DBL_MAX, 5e-324, -5e-324, 0.0, -0.0, 3e-310, -2.2250738585072014e-308, 1e308)

    def end(kind):
        if kind == 0:
            return round(float(rng.uniform(-100, 100)), int(rng.integers(0, 4)))
        if kind == 1:
            return specials[rng.integers(len(specials))]
        return float(rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-323, 308.25))

    for _ in range(n):
        lo = end(rng.integers(3))
        hi = lo if rng.random() < 0.05 else end(rng.integers(3))
        yield lo, hi, int(np.exp(rng.uniform(np.log(2), np.log(300))))


def _check_grid(capsys, lo, hi, steps):
    """The printed mu of the sweep: finite, within [mu_min, mu_max], the
    first mu_min, and each equal to mu_min + i * step to the bit wherever
    that lies within the range."""
    code, out, err = run(capsys, "sweep", f"--mu-min={lo!r}", f"--mu-max={hi!r}", "--steps", str(steps))
    assert (code, err) == (0, ""), (lo, hi, steps)
    mus = [float(line.split(",", 1)[0]) for line in out.splitlines()[1:]]
    assert len(mus) == steps and mus[0] == lo + 0.0, (lo, hi, steps)
    step = (hi - lo) / (steps - 1) if steps > 1 else 0.0
    for i, mu in enumerate(mus):
        assert math.isfinite(mu) and min(lo, hi) <= mu <= max(lo, hi), (lo, hi, steps, i, mu)
        want = lo + i * step
        if min(lo, hi) <= want <= max(lo, hi):
            assert mu.hex() == want.hex(), (lo, hi, steps, i, mu, want)


@pytest.mark.parametrize("lo,hi,steps", _FIXED_GRIDS)
def test_sweep_grid_is_within_its_range(capsys, lo, hi, steps):
    _check_grid(capsys, lo, hi, steps)


def test_sweep_grid_is_within_its_range_on_random_grids(capsys, monkeypatch):
    # only the mu column is read, so the bounds are stubbed out
    monkeypatch.setattr(fslab.cli, "_grid_bounds", lambda params, mu: (np.ones(mu.size, np.int64),) * 4)
    for lo, hi, steps in _random_grids(2000):
        _check_grid(capsys, lo, hi, steps)


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


# ----- sweep: the CSV rows are exactly one %-formatting per row -----

_ROW_FORMAT = "%.17g,%d,%.17g,%.17g,%.17g\n"


def _check_csv_rows(values):
    """_csv_rows over columns that each hold every value, in another order."""
    v = np.asarray(values, dtype=np.float64)
    cols = (v, np.arange(v.size) % 4 + 1, v[::-1].copy(), -v, np.roll(v, 1))
    want = "".join(_ROW_FORMAT % row for row in zip(*(c.tolist() for c in cols)))
    assert fslab.cli._csv_rows(*cols) == want


_float_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    # sign, an exponent near the fixed-notation range 1e-4 <= |v| < 1e17, any mantissa
    st.builds(
        lambda sign, exp, mant: sign << 63 | exp << 52 | mant,
        st.integers(0, 1),
        st.integers(1023 - 16, 1023 + 59),
        st.integers(0, 2**52 - 1),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_float_bits, min_size=1, max_size=40))
def test_csv_rows_match_percent_formatting_on_any_bits(bits):
    _check_csv_rows(np.array(bits, dtype=np.uint64).view(np.float64))


def _halfway_values(rng):
    """m 2**(X-17) with m odd and X the decimal exponent: each lies exactly
    halfway between two 17-digit decimals, so %.17g rounds it to even."""
    for X in range(-4, 16):
        lo, hi = math.ceil(10.0**X * 2.0 ** (17 - X)), min(10.0 ** (X + 1) * 2.0 ** (17 - X), 2.0**53)
        for m in rng.integers(lo, hi, 200) | 1:
            v = math.ldexp(float(m), X - 17)
            if 10.0**X <= v < 10.0 ** (X + 1):
                yield v


def _near_powers_of_ten():
    """30 ulps either side of each 10**k, k = -6..18."""
    for k in range(-6, 19):
        below = above = float(f"1e{k}")
        yield below
        for _ in range(30):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            yield below
            yield above


_SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    math.inf, -math.inf, math.nan, 1e17, -1e17, math.nextafter(1e17, 0.0), 1e16,
    1e-4, -1e-4, math.nextafter(1e-4, 0.0), 1.7976931348623157e308,
]


def test_csv_rows_match_percent_formatting_on_edge_families():
    halfway = list(_halfway_values(np.random.default_rng(0)))
    assert len(halfway) > 3000
    for v in halfway[::97]:  # each is a halfway case of the 17-digit rounding
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v
    _check_csv_rows(halfway + [-v for v in halfway])
    _check_csv_rows(list(_near_powers_of_ten()))
    _check_csv_rows(_SPECIAL_VALUES)
    for v in _SPECIAL_VALUES:  # a row of its own, between rows of the fast path
        _check_csv_rows([0.5, v, 2.5])


def test_csv_rows_longest_fallback_row_fits_its_slot():
    # no float prints longer than these 24 characters under %.17g, so a
    # %-formatted row has at most 102 bytes and fits its 104-byte slot whole
    longest = (-2.2250738585072014e-308, 4, -1.7976931348623157e308,
               -4.9406564584124654e-324, -1.2345678901234567e-300)
    assert {len("%.17g" % v) for v in longest[:1] + longest[2:]} == {24}
    assert len(_ROW_FORMAT % longest) == 102 <= 4 * fslab.cli._CSV_FIELD
    rows = [(0.5, 1, 0.25, 0.75, 1.5), longest, (2.5, 2, 0.125, 0.375, 3.5)]
    cols = [np.array(c) for c in zip(*rows)]
    assert fslab.cli._csv_rows(*cols) == "".join(_ROW_FORMAT % r for r in rows)


@pytest.mark.parametrize("column", [0, 2, 3, 4], ids=["mu", "value", "scaled_value", "complex_bound"])
def test_csv_rows_any_float_field_sends_its_row_to_the_fallback(column):
    # one field off the fast path, in the first, a middle or the last row of
    # a block whose every other field is on it, %-formats exactly that row
    n = 9
    fast = [np.linspace(0.5, 4.5, n) * (1 + c) for c in range(5)]
    fast[1] = np.arange(n) % 4 + 1
    assert fslab.cli._decimal17(np.concatenate(fast[:1] + fast[2:]))[0].all()
    for row in (0, n // 2, n - 1):
        for v in (0.0, 1e17, math.inf, 5e-324):
            cols = [c.copy() for c in fast]
            cols[column][row] = v
            want = "".join(_ROW_FORMAT % r for r in zip(*(c.tolist() for c in cols)))
            assert fslab.cli._csv_rows(*cols) == want, (row, v)


def test_csv_rows_shift_the_point_at_both_ends_of_the_field():
    # fixed-notation fields whose point sits at either end of the 22
    # character slots, or is dropped with the trailing zeros, all on the
    # fast path
    widest = -0.00012345678901234567  # X = -4, 17 digits: every slot is used
    values = [
        widest, -widest,
        12345678901234567.0, -12345678901234567.0,  # X = 16, 17 digits: no point
        1234567890123456.7, -1234567890123456.7,  # X = 15: one fractional digit
        -9876543210987654.3,  # X = 15, rounded to an integer: no point
        0.25, 1234.5, 100.0, -100.0,  # trailing zeros trimmed
    ]
    assert len("%.17g" % widest) == 1 + 22
    assert "." not in "%.17g" % values[2]
    assert ("%.17g" % values[4]).split(".")[1] == "8"
    assert fslab.cli._decimal17(np.array(values))[0].all()
    for v in values:  # all four float fields of a row
        cols = (np.full(3, v), np.array([1, 2, 3]), np.full(3, v), np.full(3, -v), np.full(3, v))
        assert fslab.cli._csv_rows(*cols) == "".join(_ROW_FORMAT % r for r in zip(*(c.tolist() for c in cols)))
    _check_csv_rows(values)


def _sweep_argvs():
    """(kind, argv) of random sweeps; kinds 0 and 2 have rows on both sides
    of the formatter's fast path, kind 1 only rows off it."""
    rng = np.random.default_rng(12)
    for i in range(12):
        lam = float(rng.random())
        par = ("--lambda", repr(lam), "--delta", repr(lam * rng.random()),
               "--alpha", repr(float(rng.random())), "--beta", repr(float(rng.random())))
        steps = int(rng.integers(2, 3000))
        kind = i % 4
        if kind == 0:  # mu = 0 on the grid: a dyadic step from a multiple of it
            h = 2.0 ** -int(rng.integers(1, 12))
            k = int(rng.integers(1, steps))
            lo, hi = -k * h, (steps - 1 - k) * h
        elif kind == 1:  # 0 < |mu| < 1e-4, which %g writes in scientific notation
            lo, hi = -float(rng.uniform(1e-6, 1e-4)), float(rng.uniform(1e-6, 1e-4))
        elif kind == 2:  # a huge --mu-max: |mu| and the bounds pass 1e17
            lo, hi = -float(rng.uniform(0.5, 2)), 10 ** float(rng.uniform(17, 300))
        else:
            lo, hi = -(10 ** float(rng.uniform(-5, 3))), 10 ** float(rng.uniform(-5, 3))
        argv = (*par, "--mu-min", repr(lo), "--mu-max", repr(hi), "--steps", str(steps))
        yield pytest.param(kind, argv, id=" ".join(argv[-6:]))


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("kind,argv", _sweep_argvs())
def test_sweep_output_is_one_formatting_per_row(capsys, monkeypatch, kind, argv, block):
    # the CSV and JSON a sweep prints, byte for byte, against each row's
    # bound_real and bound_complex through %-formatting and json.dumps
    from fslab import ClassParams, bound_complex, bound_real

    if block is not None:
        monkeypatch.setattr(fslab.cli, "_SWEEP_BLOCK", block)
    opts = dict(zip(argv[::2], argv[1::2]))
    par = ClassParams(*(float(opts[f]) for f in ("--lambda", "--delta", "--alpha", "--beta")))
    lo, hi, steps = float(opts["--mu-min"]), float(opts["--mu-max"]), int(opts["--steps"])
    rows = []
    # kept within the range: rounding carries two of these grids past mu_max
    for mu in np.clip(lo + np.arange(steps) * ((hi - lo) / (steps - 1)), *sorted((lo, hi))).tolist():
        rep = bound_real(par, mu)
        rows.append((mu, rep.case_id, rep.value, rep.scaled_value, bound_complex(par, mu)))
    fast = {all(1e-4 <= abs(v) < 1e17 for v in (r[0], *r[2:])) for r in rows}
    if kind in (0, 2):
        assert fast == {True, False}
    elif kind == 1:
        assert fast == {False}
    csv = "mu,case,value,scaled_value,complex_bound\n" + "".join(_ROW_FORMAT % r for r in rows)
    assert run(capsys, "sweep", *argv) == (0, csv, "")
    doc = json.dumps({"format": 1, "rows": [dict(zip(fslab.cli._SWEEP_COLUMNS, r)) for r in rows]})
    assert run(capsys, "sweep", *argv, "--output", "json") == (0, doc + "\n", "")


REFAULT_SWEEPS = textwrap.dedent("""
    import contextlib
    import io
    import resource
    from fslab.cli import main

    ranges = [("-2.0", "3.0"), ("-50.0", "50.0")]

    def sweep(i):
        lo, hi = ranges[i % 2]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--steps", "2001", "--mu-min", lo, "--mu-max", hi]) == 0

    for i in range(10):
        sweep(i)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(10, 110):
        sweep(i)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="measures glibc's heap on Linux")
def test_sweep_does_not_refault_its_heap():
    # the package's import-time warm-up raises glibc's mmap and trim
    # thresholds, so a sweep's row matrix and formatting temporaries stay on
    # the heap between ops; without it they were trimmed and faulted back
    # in, about 240 minor faults per op (fslab/__init__.py)
    src = str(Path(fslab.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", REFAULT_SWEEPS], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert float(out) <= 5.0


REFAULT_LONG_SWEEPS = textwrap.dedent("""
    import contextlib
    import resource
    from fslab.cli import main

    class Sink:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    def sweep(output):
        with contextlib.redirect_stdout(Sink()):
            assert main(["sweep", "--steps", "100000", "--mu-min=-3", "--mu-max", "5", "--output", output]) == 0

    for output in ("csv", "json"):
        sweep(output)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sweep(output)
        sweep(output)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 2)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="measures glibc's heap on Linux")
def test_long_sweep_does_not_refault_its_blocks():
    # each block's arrays stay below the warm-up's 4 MiB mmap threshold, so
    # a 100,000-row sweep keeps them on the heap from block to block; with
    # 32,768-row blocks glibc mapped and faulted in every block afresh, about
    # 12,600 minor faults per sweep as CSV and 17,700 as JSON
    src = str(Path(fslab.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", REFAULT_LONG_SWEEPS], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert [float(v) <= 50.0 for v in out.split()] == [True, True], out


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
        capsys, "verify", "--mu", "0+1i", "--samples", "100", "--refine", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["attained"] is False
    assert payload["margin"] > 0


def test_verify_budget_domain_error(capsys):
    code, _, err = run(capsys, "verify", "--samples", "0")
    assert code == 2 and "domain error" in err


@pytest.mark.parametrize(
    "flag,value", [("--samples", "10000001"), ("--samples", "10000000000"), ("--refine", "101"), ("--refine", "1000000000")]
)
def test_verify_budget_cap_is_usage_error(capsys, flag, value):
    # rejected before any search, which is linear in both
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", flag, value)
    assert code == 1 and out == "" and "usage error" in err
    assert time.perf_counter() - t0 < 0.1


def test_verify_budget_caps_are_inclusive(capsys, monkeypatch):
    # the caps themselves pass through to the search (stubbed to stay fast)
    from fslab import SearchBudget, verify_inequality

    budgets = []

    def search(params, mu, budget):
        budgets.append(budget)
        return verify_inequality(params, mu, SearchBudget(n_samples=1, n_refine=0))

    monkeypatch.setattr(fslab.cli, "verify_inequality", search)
    code, _, _ = run(capsys, "verify", "--samples", "10000000", "--refine", "100")
    assert code == 0
    assert (budgets[0].n_samples, budgets[0].n_refine) == (10_000_000, 100)


def test_verify_help_gives_the_ranges(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "1..10000000" in out and "0..100" in out


def test_cli_defaults_are_the_library_defaults(capsys):
    # verify's budget flags and member's --order default to, and their help
    # quotes, SearchBudget's field defaults and DEFAULT_ORDER
    from fslab import DEFAULT_ORDER, SearchBudget

    parser = fslab.cli._build_parser()
    args = parser.parse_args(["verify"])
    budget = SearchBudget()
    assert (args.samples, args.refine, args.max_atoms, args.seed) == (
        budget.n_samples, budget.n_refine, budget.max_atoms, budget.seed)
    assert parser.parse_args(["member", "--p-atoms", "1:0", "--q-atoms", "1:0"]).order == DEFAULT_ORDER
    for argv, quoted in ((["verify", "--help"], (budget.n_samples, budget.n_refine)),
                         (["member", "--help"], (DEFAULT_ORDER,))):
        with pytest.raises(SystemExit):
            main(argv)
        out = " ".join(capsys.readouterr().out.split())
        assert [f"(default {v})" in out for v in quoted] == [True] * len(quoted)


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


# The largest mu at which bound_real's value at the default parameters is
# finite: one float up, its intermediate terms overflow and it reads inf.
# bound_complex at mu + 0i turns inf at the same float.
_LAST_FINITE_MU = 1.498077612385263e307


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--samples", "300", "--mu", "{}"),
        ("verify", "--samples", "300", "--mu", "{}+0i"),
        ("sharp", "--mu", "{}"),
    ],
)
def test_overflowing_mu_is_a_domain_error(capsys, argv):
    # one domain error line, nothing on stdout, no numpy warning (tier-1
    # turns a RuntimeWarning into an error) and no OverflowError
    def at(mu):
        return run(capsys, *(a.format(repr(mu)) for a in argv))

    code, out, err = at(_LAST_FINITE_MU)
    assert (code, err) == (0, "")
    assert math.isfinite(json.loads(out)["bound"])
    for mu in (math.nextafter(_LAST_FINITE_MU, math.inf), 1e308):
        code, out, err = at(mu)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"domain error: the bound overflows at mu = \S+\n", err), err


def _sharp_params():
    """The edge tuples (P0 among them), the CLI's domain-edge tuples and four
    random ones."""
    from fslab import ClassParams

    from conftest import EDGE_PARAMS, random_params

    rng = np.random.default_rng(83)
    ends = (0.0, 1.0 - 2.0**-52)
    edges = (ClassParams(1.0, d, a, b) for d in (1.0, 0.0) for a in ends for b in ends)
    return list(dict.fromkeys([*EDGE_PARAMS, *edges, *(random_params(rng) for _ in range(4))]))


@pytest.mark.parametrize("par", _sharp_params(), ids=repr)
def test_sharp_is_the_library_bit_for_bit(capsys, par):
    # fslab sharp formats the library's witness check, with mu on each
    # breakpoint and one ulp either side of it
    from fslab import bound_real, extremal_member, fs_functional, sharpness_residual
    from fslab.bounds import breakpoints

    flags = ("--lambda", repr(par.lam), "--delta", repr(par.delta),
             "--alpha", repr(par.alpha), "--beta", repr(par.beta))
    for bp in breakpoints(par):
        for mu in (math.nextafter(bp, -math.inf), bp, math.nextafter(bp, math.inf)):
            code, out, err = run(capsys, "sharp", *flags, "--mu", repr(mu))
            assert (code, err) == (0, ""), (mu, err)
            payload = json.loads(out)
            report = bound_real(par, mu)
            attained = abs(fs_functional(extremal_member(par, mu, report.case_id, 3), mu))
            assert payload["case"] == report.case_id
            assert payload["bound"].hex() == report.value.hex()
            assert payload["attained_value"].hex() == attained.hex()
            assert payload["residual"].hex() == sharpness_residual(par, mu).hex()


@pytest.mark.parametrize("mu", [1e308, -1e308])
def test_sharp_overflow_is_the_library_error(capsys, mu):
    from fslab import ClassParams, DomainError, sharpness_residual

    with pytest.raises(DomainError) as info:
        sharpness_residual(ClassParams(0, 0, 0, 0), mu)
    assert run(capsys, "sharp", "--mu", repr(mu)) == (2, "", f"domain error: {info.value}\n")


# ----- subcommands -----

def test_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{bound,sweep,verify,sharp,member}" in capsys.readouterr().out
    # a published special case is `bound` with the pinned flags left at 0
    code, out, err = run(capsys, "reduce", "--preset", "keogh-merkes", "--mu", "0.5")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "invalid choice" in err


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


# ----- domain edges -----

_EDGE_AB = (0.0, 1.0 - 2.0**-52)


def _both_parts(m: str) -> str:
    """The complex literal with real and imaginary part both m."""
    return f"{m}{m}i" if m.startswith("-") else f"{m}+{m}i"


def _edge_argvs():
    """Every subcommand at alpha, beta in _EDGE_AB and lam = delta = 1, and
    bound and sharp at lam = 1, delta = 0, with mu on each breakpoint of the
    tuple, at +-1e308 and at the smallest subnormal."""
    from fslab import ClassParams
    from fslab.bounds import breakpoints

    for alpha in _EDGE_AB:
        for beta in _EDGE_AB:
            ab = ("--alpha", repr(alpha), "--beta", repr(beta))
            flags = ("--lambda", "1", "--delta", "1", *ab)
            yield ("member", *flags, "--p-atoms", "0.5:0,0.5:3.14", "--q-atoms", "1:1.5")
            for mu in (*breakpoints(ClassParams(1.0, 1.0, alpha, beta)), 1e308, -1e308, 5e-324):
                m = repr(mu)
                yield ("bound", *flags, "--mu", m)
                yield ("bound", *flags, "--mu", f"{m}+0i")
                yield ("bound", *flags, "--mu", _both_parts(m))
                yield ("sweep", *flags, "--mu-min", m, "--mu-max", m, "--steps", "1")
                yield ("sweep", *flags, "--mu-min", m, "--steps", "3", "--output", "json")
                yield ("verify", *flags, "--samples", "200", "--mu", m)
                yield ("verify", *flags, "--samples", "200", "--mu", _both_parts(m))
                yield ("sharp", *flags, "--mu", m)
            # lam = 1 with delta = 0 has breakpoints of its own
            flags = ("--lambda", "1", "--delta", "0", *ab)
            for mu in (*breakpoints(ClassParams(1.0, 0.0, alpha, beta)), 1e308, -1e308, 5e-324):
                yield ("bound", *flags, "--mu", repr(mu))
                yield ("sharp", *flags, "--mu", repr(mu))


_EDGE_COMMANDS = [
    ("bound", "--mu", "-2e-1"),
    ("sweep", "--mu-min", "-1e1"),
    ("bound", "--mu", "-1-2i"),
    ("sharp", "--mu", "1e16"),
    ("bound", "--mu", "1e308+1e308i"),
    ("bound", "--alpha", "0.5", "--beta", "0.5", "--mu", "1e308+1e308i"),
    # mu = mu2 at 1 - alpha = 2.6e-8, where roundoff in case 2's c_1 reaches -8.6e-9
    ("sharp", "--lambda", "0.3950893773108496", "--alpha", "0.9999999736028787", "--mu", "0.7247970314550558"),
    ("verify", "--samples", "200", "--lambda", "0.3950893773108496", "--alpha", "0.9999999736028787",
     "--mu", "0.7247970314550558"),
]


@pytest.mark.parametrize("argv", [*_edge_argvs(), *_EDGE_COMMANDS], ids=" ".join)
def test_domain_edges(capsys, argv):
    # an exception out of main is what the console script prints as a
    # traceback, so it fails this test by escaping
    code, out, err = run(capsys, *argv)
    assert code in (0, 2, 3), err
    if code == 2:  # the one domain error an edge input may meet
        assert err.startswith("domain error: the bound overflows at mu = "), err
    assert "Traceback" not in err
    assert not re.search(r"\bnan\b", out, re.IGNORECASE), out


@pytest.mark.parametrize("argv", _EDGE_COMMANDS[:3], ids=" ".join)
def test_negative_values_in_any_float_form(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    flag, value = argv[-2:]
    assert run(capsys, *argv[:-2], f"{flag}={value}") == (0, out, "")


def test_sharp_tolerance_is_relative(capsys):
    # the residual is one ulp of the bound, far above 1e-8 in absolute terms
    code, out, _ = run(capsys, "sharp", "--mu", "1e16")
    payload = json.loads(out)
    assert payload["residual"] == -8.0
    assert payload["bound"] == math.nextafter(payload["attained_value"], 0.0)
    assert code == 0


@pytest.mark.parametrize("alpha_beta", [(), ("--alpha", "0.5", "--beta", "0.5")])
def test_complex_bound_overflows_to_inf(capsys, alpha_beta):
    code, out, err = run(capsys, "bound", *alpha_beta, "--mu", "1e308+1e308i")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == math.inf


_FRESH_COMMANDS = [
    *((argv, 0, "") for argv in _EDGE_COMMANDS[2:]),
    # raised inside the library, reported by main
    (("sharp", "--mu", "1e308"), 2, "domain error: the bound overflows at mu = 1e+308\n"),
]


@pytest.mark.parametrize(
    "argv,code,err", _FRESH_COMMANDS, ids=[" ".join(argv) for argv, _, _ in _FRESH_COMMANDS]
)
def test_edge_commands_in_a_fresh_interpreter(argv, code, err):
    # the console script's path, where an escaping exception is a traceback
    src = str(Path(fslab.cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fslab.cli", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (code, err)
