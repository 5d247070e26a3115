"""Command-line interface.

Subcommands:

    bound   one bound evaluation: the four-branch value for a real mu, the
            triangle-inequality route for an a+bi one
    sweep   CSV table of both bounds over a mu grid (plot-ready; rendering
            is out of scope by design)
    verify  randomized search vs the bound, JSON report
    sharp   witness attainment at one real mu, JSON report
    member  coefficient table for a member given explicitly by atoms

JSON outputs carry a schema version field "format": 1. CSV uses '.' decimals,
17 significant digits, and plain newline line endings regardless of locale.
sweep's CSV is byte for byte "%.17g" per value: values with 1e-4 <= |v| < 1e17
go through an exact 17-digit conversion in numpy, and rows with any other
value, or with one a few ulps below a power of ten, fall back to per-row
%-formatting. sweep writes CSV and JSON in blocks.
Exit codes: 0 success, 1 usage, 2 domain error, 3 verification failure.
verify exits 3 wherever the search beats the bound beyond tolerance; for real
mu on the known case-3/4 window with alpha > 0 that is the expected outcome
(see fslab.bounds), not a tool defect.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Sequence

import numpy as np

from .bounds import _grid_bounds, bound_complex, bound_real
from .errors import DomainError, FslabError, ViolationError
from .extremal import _witness_check
from .members import DEFAULT_ORDER, ClassParams, HerglotzMeasure, member_from_pq
from .search import SearchBudget, verify_inequality

SCHEMA_VERSION = 1

# Residual at a witness larger than SHARP_TOL * max(1, bound) in modulus is a
# verification failure: relative, since one ulp of a large bound exceeds 1e-8.
SHARP_TOL = 1e-8

# Largest --order `member` accepts: construction is quadratic in the order
# (about 0.4 s end to end at 1000), and nothing needs more.
_MAX_ORDER = 1000

# Largest --steps `sweep` accepts: about 0.7 s end to end at the cap as CSV
# and 3.7 s as JSON (2-vCPU Intel Xeon virtual machine), and a plot needs far
# fewer rows.
_MAX_STEPS = 1_000_000

# Rows `sweep` formats and writes at a time, CSV or JSON, so its memory
# stays flat in --steps. A block's arrays stay below the 4 MiB mmap threshold
# of the allocator warm-up (:mod:`fslab`), so glibc keeps them on the heap:
# 32,768-row blocks were mapped and faulted in afresh, about 20,000 minor
# faults per 200,000-row sweep against 2 at 2,048 rows.
_SWEEP_BLOCK = 2048

# Bytes of one float field in _csv_rows: a sign, 22 character slots (up to
# 21 characters and a point) and 3 separator bytes.
_CSV_FIELD = 26

# Largest --samples and --refine `verify` accepts, which is more search than
# a check needs: about 2 s end to end at the --samples cap. At the --refine
# cap the polish stops at its fixed point well before 100 passes (which would
# be about 82,000 evaluations over 4 + 4 atoms): over 780 random (params, mu),
# half of them complex, maximize_fs at 10,000 samples and 4 atoms took a
# median 2.6-4.0 ms per batch and at most 32 ms, with at most 8,068 polish
# evaluations (2-vCPU Intel Xeon virtual machine).
_MAX_SAMPLES = 10_000_000
_MAX_REFINE = 100

# The flags whose values are real or complex numbers.
_NUMBER_FLAGS = ("--lambda", "--delta", "--alpha", "--beta", "--mu", "--mu-min", "--mu-max")

_SWEEP_COLUMNS = ("mu", "case", "value", "scaled_value", "complex_bound")

_COMPLEX_RE = re.compile(
    r"(?P<re>[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2); the domain errors own that code here
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def parse_complex_literal(text: str) -> complex | None:
    """'a+bi' / 'a-bi', both parts required and nothing else in the text (no
    space or trailing newline), as a complex; None for any other text."""
    m = _COMPLEX_RE.fullmatch(text)
    return None if m is None else complex(float(m.group("re")), float(m.group("im")))


def _is_number(text: str) -> bool:
    """Whether text parses as a float or as an a+bi complex literal."""
    try:
        float(text)
    except ValueError:
        return parse_complex_literal(text) is not None
    return True


def _attach_negative_numbers(argv: Sequence[str]) -> list[str]:
    """argv with every '--flag -number' pair of a _NUMBER_FLAGS flag written
    as '--flag=-number'.

    argparse takes a token that starts with '-' for an option unless it looks
    like a plain negative decimal, so values such as -2e-1 or -1-2i would
    read as flags; joined to their flag they are always values.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _NUMBER_FLAGS and tok.startswith("-") and _is_number(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def parse_atoms(text: str) -> HerglotzMeasure:
    """Parse 'w:theta[,w:theta...]' into a measure."""
    pairs = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise _UsageError(f"expected w:theta, got {chunk!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise _UsageError(f"bad atom {chunk!r}: {exc}") from None
    return HerglotzMeasure(tuple(pairs))


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lambda", dest="lam", type=float, default=0.0, help="lam in [delta, 1]")
    sub.add_argument("--delta", type=float, default=0.0, help="delta in [0, lam]")
    sub.add_argument("--alpha", type=float, default=0.0, help="alpha in [0, 1)")
    sub.add_argument("--beta", type=float, default=0.0, help="beta in [0, 1)")


def _params(args: argparse.Namespace) -> ClassParams:
    return ClassParams(args.lam, args.delta, args.alpha, args.beta)


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="fslab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("bound", help="evaluate the bound at one mu")
    _add_param_flags(sub)
    sub.add_argument("--mu", required=True, help="real number, or a+bi for the triangle-inequality bound")

    sub = subs.add_parser("sweep", help="CSV of bounds over a mu grid")
    _add_param_flags(sub)
    sub.add_argument("--mu-min", type=float, default=-2.0)
    sub.add_argument("--mu-max", type=float, default=3.0)
    sub.add_argument(
        "--steps", type=int, default=51, help=f"number of grid rows, 1..{_MAX_STEPS} (default 51)"
    )
    sub.add_argument("--output", choices=("csv", "json"), default="csv")

    sub = subs.add_parser("verify", help="randomized search vs the bound")
    _add_param_flags(sub)
    sub.add_argument("--mu", default="0.5", help="real number, or a+bi (default 0.5)")
    budget = SearchBudget()  # the one owner of the defaults
    sub.add_argument(
        "--samples", type=int, default=budget.n_samples,
        help=f"random samples, 1..{_MAX_SAMPLES} (default {budget.n_samples})",
    )
    sub.add_argument(
        "--refine", type=int, default=budget.n_refine,
        help=f"at most N polish passes, 0..{_MAX_REFINE} (default {budget.n_refine})",
    )
    sub.add_argument("--max-atoms", type=int, default=budget.max_atoms)
    sub.add_argument("--seed", type=int, default=budget.seed)

    sub = subs.add_parser("sharp", help="attainment at one real mu")
    _add_param_flags(sub)
    sub.add_argument("--mu", type=float, required=True)

    sub = subs.add_parser("member", help="coefficient table for explicit atoms")
    _add_param_flags(sub)
    sub.add_argument("--p-atoms", required=True, help="w:theta[,w:theta...]")
    sub.add_argument("--q-atoms", required=True, help="w:theta[,w:theta...]")
    sub.add_argument(
        "--order", type=int, default=DEFAULT_ORDER, help=f"jet order, 3..{_MAX_ORDER} (default {DEFAULT_ORDER})"
    )

    return parser


def _parse_mu(args: argparse.Namespace) -> complex | float:
    """--mu as a float, or as a complex for an a+bi literal."""
    try:
        return float(args.mu)
    except ValueError:
        mu = parse_complex_literal(args.mu)
    if mu is None:
        raise _UsageError(f"--mu must be a real number or an a+bi literal, got {args.mu!r}")
    return mu


def _cmd_bound(args: argparse.Namespace) -> int:
    params = _params(args)
    mu = _parse_mu(args)
    if isinstance(mu, complex):
        _emit_json({"format": SCHEMA_VERSION, "value": bound_complex(params, mu)})
        return 0
    report = bound_real(params, mu)
    _emit_json(
        {
            "format": SCHEMA_VERSION,
            "tau": params.tau,
            "sigma": params.sigma,
            "mu": report.mu,
            "case": report.case_id,
            "breakpoints": list(report.breakpoints),
            "value": report.value,
            "scaled_value": report.scaled_value,
        }
    )
    return 0


@functools.cache  # built on first use, so importing the CLI stays cheap
def _csv_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999 as a 4 x 10,000 uint8 table (row 0 the
    thousands), and the doubles 10**0 .. 10**20, all exact."""
    n = np.arange(10_000, dtype=np.int16)  # narrow: the temporaries count in peak memory
    digits = (n // np.array([[1000], [100], [10], [1]], np.int16) % 10 + ord("0")).astype(np.uint8)
    return digits, np.array([float(10**k) for k in range(21)])


def _scaled_round(a: np.ndarray, exp: np.ndarray, pow10: np.ndarray) -> np.ndarray:
    """a * 10**(16 - exp) rounded to an int64, ties to even, with no error.

    For exp in [-4, 16] the power is an exact double, so Dekker's
    TwoProduct (Numer. Math. 18, 1971) gives the product exactly as hi + lo.
    Where the result is at least 10**16, hi >= 2**53 is an even integer and
    |lo| <= ulp(hi) / 2, so hi + rint(lo) is the product correctly rounded,
    halfway cases to even. Smaller results are only ever rejected.
    """
    p = pow10[16 - exp]
    hi = a * p
    t = a * 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = p * 134217729.0
    p_hi = t - (t - p)
    p_lo = p - p_hi
    lo = a_lo * p_lo - (((hi - a_hi * p_hi) - a_lo * p_hi) - a_hi * p_lo)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where 1e-4 <= |v| < 1e17, "%.17g" % v is fixed notation: the 17-digit
    integer D = round(|v| 10**(16 - X)) placed by the decimal exponent X.
    Returns the mask of the v where X = floor(log10 |v|) gives such a D (it
    misses a few ulps below a power of ten), X (int8) and D's digits (17 rows
    of ASCII, the most significant first); X and D mean nothing off the mask.
    """
    digit_table, pow10 = _csv_tables()
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # some numpy builds flag comparing nan
        ok = (a >= 1e-4) & (a < 1e17)
    a[~ok] = 1.0
    exp = np.clip(np.floor(np.log10(a)).astype(np.int8), -4, 16)
    d = _scaled_round(a, exp, pow10)
    ok &= (d >= 10**16) & (d < 10**17)
    # a leading digit, then four groups of four through the table
    high, low = np.divmod(d, 10**8)
    high = high.astype(float)
    low = low.astype(float)
    top = np.floor(high / 1e4)  # exact floors: the integers are below 1e9
    lead = np.floor(top / 1e4)
    mid = np.floor(low / 1e4)
    digits = np.empty((17, x.size), np.uint8)
    digits[0] = lead + ord("0")
    for i, group in enumerate((top - lead * 1e4, high - top * 1e4, mid, low - mid * 1e4)):
        digits[1 + 4 * i : 5 + 4 * i] = np.take(digit_table, group.astype(np.intp), axis=1)
    return ok, exp, digits


def _csv_rows(mu, case_id, value, scaled, complex_bound) -> str:
    """The CSV lines of the given columns, byte for byte what
    "%.17g,%d,%.17g,%.17g,%.17g" % row plus a newline gives for each row.

    Each row fills a slot of 4 _CSV_FIELD bytes, NUL where unused, one field
    per float. A float field is its sign, then 22 slots over the characters
    E_0..E_20 = "0000" and _decimal17's digits: slot j holds E_j up to the
    units digit E_{4+X}, then the point at 5 + X, then E_{j-1}. The field
    shows slot j for 4 + min(X, 0) <= j < 5 + max(k, X + 1), where the last
    nonzero digit is the k-th, and the point only when characters follow it.
    That drops trailing fractional zeros and a bare point, as %g does. Case
    ids are 1..4, one digit each. A row with a value off _decimal17's mask is
    %-formatted into its slot instead.
    """
    n = mu.size
    x = np.stack((mu, value, scaled, complex_bound), axis=1).ravel()
    ok, exp, digits = _decimal17(x)
    k = np.max((digits != ord("0")) * np.arange(1, 18, dtype=np.int8)[:, None], axis=0)
    end = 5 + np.maximum(k, exp + 1)
    j = np.arange(22, dtype=np.int8)[:, None]
    text = np.zeros((_CSV_FIELD, x.size), np.uint8)
    text[0] = np.signbit(x) * np.uint8(ord("-"))
    chars = text[1:23]
    chars[:5] = ord("0")
    chars[5:] = digits
    np.copyto(chars[4:21], digits, where=j[4:21] <= 4 + exp)
    chars *= j >= 4 + np.minimum(exp, 0)
    chars *= j < end
    point = (6 + exp.astype(np.intp)) * x.size + np.arange(x.size)  # text[6 + X, i]
    text.reshape(-1)[point] = (6 + exp < end) * np.uint8(ord("."))
    rows = text.reshape(_CSV_FIELD, n, 4)  # [byte, row, field]
    rows[23] = ord(",")
    rows[23, :, 3] = ord("\n")
    rows[24, :, 0] = case_id + ord("0")
    rows[25, :, 0] = ord(",")
    slow = np.flatnonzero(~(ok[0::4] & ok[1::4] & ok[2::4] & ok[3::4]))
    cols = (mu, case_id, value, scaled, complex_bound)
    lines = ["%.17g,%d,%.17g,%.17g,%.17g\n" % r for r in zip(*(c[slow].tolist() for c in cols))]
    # at most 102 bytes (four 24-byte floats like -2.2250738585072014e-308, the case
    # digit, four commas and a newline): the "S" dtype NUL-pads each row to its 104-byte slot
    slots = np.array(lines, f"S{4 * _CSV_FIELD}").view(np.uint8).reshape(-1, 4, _CSV_FIELD)
    rows[:, slow] = slots.transpose(2, 0, 1)
    return text.T.tobytes().translate(None, b"\0").decode("ascii")


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.steps < 1:
        raise _UsageError("--steps must be positive")
    if args.steps > _MAX_STEPS:
        raise _UsageError(f"--steps must be at most {_MAX_STEPS}")
    if not (math.isfinite(args.mu_min) and math.isfinite(args.mu_max)):
        raise DomainError("mu grid endpoints must be finite")
    if args.steps == 1:
        grid = np.array([args.mu_min])
    else:
        # mu_min + i * step, every point finite, within [mu_min, mu_max] and
        # the first mu_min: in quarters where the width or the last point
        # overflows (a power of two moves no bit outside the subnormal range),
        # clipped to the scaled ends, so no quarter overflows, and then to the
        # ends themselves, which the quarter of a subnormal end may miss; the
        # first point is set for the same reason.
        lo, hi, n = args.mu_min, args.mu_max, args.steps - 1
        s = 1.0 if math.isfinite(lo + n * ((hi - lo) / n)) else 0.25
        step = (hi * s - lo * s) / n
        a, b = sorted((lo, hi))
        grid = np.clip(np.clip(lo * s + np.arange(args.steps) * step, a * s, b * s) / s, a, b)
        grid[0] = lo + 0 * step
    starts = range(0, grid.size, _SWEEP_BLOCK)
    if args.output == "json":
        # the bytes of json.dumps({"format": ..., "rows": [...]}), in pieces
        sys.stdout.write(f'{{"format": {SCHEMA_VERSION}, "rows": [')
        for start in starts:
            block = grid[start : start + _SWEEP_BLOCK]
            columns = [col.tolist() for col in (block, *_grid_bounds(params, block))]
            rows = [dict(zip(_SWEEP_COLUMNS, r)) for r in zip(*columns)]
            sys.stdout.write((", " if start else "") + json.dumps(rows)[1:-1])
        sys.stdout.write("]}\n")
        return 0
    sys.stdout.write(",".join(_SWEEP_COLUMNS) + "\n")
    for start in starts:
        block = grid[start : start + _SWEEP_BLOCK]
        sys.stdout.write(_csv_rows(block, *_grid_bounds(params, block)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.samples > _MAX_SAMPLES:
        raise _UsageError(f"--samples must be at most {_MAX_SAMPLES}")
    if args.refine > _MAX_REFINE:
        raise _UsageError(f"--refine must be at most {_MAX_REFINE}")
    params = _params(args)
    mu = _parse_mu(args)
    budget = SearchBudget(args.samples, args.refine, args.max_atoms, args.seed)
    report = verify_inequality(params, mu, budget)
    _emit_json(
        {
            "format": SCHEMA_VERSION,
            "bound": report.bound,
            "best_value": report.best_value,
            "margin": report.margin,
            "attained": report.attained,
        }
    )
    return 0


def _cmd_sharp(args: argparse.Namespace) -> int:
    report, attained = _witness_check(_params(args), args.mu)
    residual = report.value - attained
    _emit_json(
        {
            "format": SCHEMA_VERSION,
            "case": report.case_id,
            "bound": report.value,
            "attained_value": attained,
            "residual": residual,
        }
    )
    return 0 if abs(residual) <= SHARP_TOL * max(1.0, report.value) else 3


def _cmd_member(args: argparse.Namespace) -> int:
    if args.order < 3:
        raise _UsageError("--order must be at least 3")
    if args.order > _MAX_ORDER:
        raise _UsageError(f"--order must be at most {_MAX_ORDER}")
    params = _params(args)
    member = member_from_pq(
        params, parse_atoms(args.p_atoms), parse_atoms(args.q_atoms), args.order
    )
    _emit_json(
        {
            "format": SCHEMA_VERSION,
            "a": [_pair(z) for z in member.a],
            "b": [_pair(z) for z in member.b],
            "c": [_pair(z) for z in member.c],
        }
    )
    return 0


def _member_command(exc: ViolationError) -> str:
    """A `fslab member` line that rebuilds the member a violation reports.

    Floats are written with repr, which round-trips exactly.
    """
    par = exc.params

    def atoms(m: HerglotzMeasure) -> str:
        return ",".join(f"{w!r}:{t!r}" for w, t in m.atoms)

    return (
        f"fslab member --lambda {par.lam!r} --delta {par.delta!r} "
        f"--alpha {par.alpha!r} --beta {par.beta!r} "
        f"--p-atoms {atoms(exc.p_measure)} --q-atoms {atoms(exc.q_measure)}"
    )


_COMMANDS = {
    "bound": _cmd_bound,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "sharp": _cmd_sharp,
    "member": _cmd_member,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_numbers(sys.argv[1:] if argv is None else argv))
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ViolationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        sys.stderr.write(f"the member, reproduced by:\n{_member_command(exc)}\n")
        return 3
    except FslabError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
