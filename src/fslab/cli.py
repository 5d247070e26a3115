"""Command-line interface.

Subcommands:

    bound   one bound evaluation (real mu by default, --complex for the
            triangle-inequality route)
    sweep   CSV table of both bounds over a mu grid (plot-ready; rendering
            is out of scope by design)
    verify  randomized search vs the bound, JSON report
    sharp   witness attainment at one real mu, JSON report
    reduce  named specialization vs the general formula (difference is 0
            by construction), JSON report
    member  coefficient table for a member given explicitly by atoms

JSON outputs carry a schema version field "format": 1. CSV uses '.' decimals,
17 significant digits, and plain newline line endings regardless of locale.
Exit codes: 0 success, 1 usage, 2 domain error, 3 verification failure.
verify exits 3 wherever the search beats the bound beyond tolerance; for real
mu on the known case-3/4 window with alpha > 0 that is the expected outcome
(see fslab.bounds), not a tool defect.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Sequence

import numpy as np

from .bounds import (
    KM_SIGN_NOTE,
    REDUCTION_PRESETS,
    _grid_bounds,
    bound_complex,
    bound_real,
    reduction_bound,
)
from .errors import CaseRangeError, DomainError, FslabError, NearSingular, ViolationError
from .extremal import extremal_member
from .members import ClassParams, HerglotzMeasure, fs_functional, member_from_pq
from .search import SearchBudget, verify_inequality

SCHEMA_VERSION = 1

# Residual at a witness larger than this in modulus is a verification failure.
SHARP_TOL = 1e-8

# Largest --order `member` accepts: construction is quadratic in the order
# (about 0.45 s end to end at 1000), and nothing needs more.
_MAX_ORDER = 1000

# Largest --steps `sweep` accepts: memory grows by about 500 bytes per row
# (about 0.5 GiB and 4 s end to end at the cap), and a plot needs far fewer.
_MAX_STEPS = 1_000_000

_SWEEP_COLUMNS = ("mu", "case", "value", "scaled_value", "complex_bound")

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2); the domain errors own that code here
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def parse_complex_literal(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' with both parts required and no spaces allowed."""
    if any(ch.isspace() for ch in text):
        raise _UsageError(f"complex literal may not contain spaces: {text!r}")
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise _UsageError(
            f"expected a complex literal of the form a+bi, got {text!r}"
        )
    return complex(float(m.group("re")), float(m.group("im")))


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


def _build_parser() -> _Parser:
    parser = _Parser(prog="fslab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("bound", help="evaluate the bound at one mu")
    _add_param_flags(sub)
    sub.add_argument("--mu", required=True, help="real number, or a+bi with --complex")
    sub.add_argument(
        "--complex",
        dest="use_complex",
        action="store_true",
        help="parse --mu as a+bi and use the triangle-inequality bound",
    )

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
    sub.add_argument("--mu", default="0.5", help="real number, or a+bi with --complex (default 0.5)")
    sub.add_argument("--complex", dest="use_complex", action="store_true")
    sub.add_argument("--samples", type=int, default=10_000)
    sub.add_argument("--refine", type=int, default=3)
    sub.add_argument("--max-atoms", type=int, default=3)
    sub.add_argument("--seed", type=int, default=42)

    sub = subs.add_parser("sharp", help="attainment at one real mu")
    _add_param_flags(sub)
    sub.add_argument("--mu", type=float, required=True)

    sub = subs.add_parser("reduce", help="named specialization vs the general path")
    sub.add_argument("--preset", required=True, choices=sorted(REDUCTION_PRESETS))
    sub.add_argument("--mu", type=float, required=True)
    _add_param_flags(sub)

    sub = subs.add_parser("member", help="coefficient table for explicit atoms")
    _add_param_flags(sub)
    sub.add_argument("--p-atoms", required=True, help="w:theta[,w:theta...]")
    sub.add_argument("--q-atoms", required=True, help="w:theta[,w:theta...]")
    sub.add_argument(
        "--order", type=int, default=8, help=f"jet order, 3..{_MAX_ORDER} (default 8)"
    )

    return parser


def _parse_mu(args: argparse.Namespace) -> complex | float:
    raw = str(args.mu)
    if args.use_complex:
        return parse_complex_literal(raw)
    try:
        return float(raw)
    except ValueError:
        raise _UsageError(
            f"--mu must be a real number (use --complex for a+bi), got {raw!r}"
        ) from None


def _cmd_bound(args: argparse.Namespace) -> int:
    params = _params(args)
    mu = _parse_mu(args)
    if args.use_complex:
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
        step = (args.mu_max - args.mu_min) / (args.steps - 1)
        with np.errstate(invalid="ignore"):  # an overflowed step: 0 * inf is nan
            grid = args.mu_min + np.arange(args.steps) * step
    columns = [col.tolist() for col in (grid, *_grid_bounds(params, grid))]
    if args.output == "json":
        rows = [dict(zip(_SWEEP_COLUMNS, r)) for r in zip(*columns)]
        _emit_json({"format": SCHEMA_VERSION, "rows": rows})
        return 0
    out = [",".join(_SWEEP_COLUMNS)]
    out.extend("%.17g,%d,%.17g,%.17g,%.17g" % r for r in zip(*columns))
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _params(args)
    mu = _parse_mu(args)
    budget = SearchBudget(
        n_samples=args.samples,
        n_refine=args.refine,
        max_atoms=args.max_atoms,
        seed=args.seed,
    )
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
    params = _params(args)
    report = bound_real(params, args.mu)
    member = extremal_member(params, args.mu, report.case_id)
    attained = abs(fs_functional(member, args.mu))
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
    return 0 if abs(residual) <= SHARP_TOL else 3


def _cmd_reduce(args: argparse.Namespace) -> int:
    fixed, free_names = REDUCTION_PRESETS[args.preset]
    # reject explicit values that contradict what the preset pins to zero
    for name, flag in (("lam", "--lambda"), ("delta", "--delta"), ("alpha", "--alpha"), ("beta", "--beta")):
        value = getattr(args, name)
        if name not in free_names and value != fixed.get(name, 0.0):
            raise DomainError(f"preset {args.preset!r} fixes {flag[2:]}={fixed.get(name, 0.0)}")
    free = {name: getattr(args, name) for name in free_names}
    value = reduction_bound(args.preset, args.mu, **free)
    full = bound_real(_params(args), args.mu).value
    payload = {
        "format": SCHEMA_VERSION,
        "preset": args.preset,
        "mu": args.mu,
        "value": value,
        "specialized_value": full,
        "difference": value - full,
    }
    if args.preset == "keogh-merkes":
        payload["note"] = KM_SIGN_NOTE
    _emit_json(payload)
    return 0


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
    "reduce": _cmd_reduce,
    "member": _cmd_member,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (DomainError, CaseRangeError, NearSingular) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    except ViolationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        if exc.p_measure is not None:
            sys.stderr.write(f"the member, reproduced by:\n{_member_command(exc)}\n")
        return 3
    except FslabError as exc:  # any future subtype: treat as domain-level
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
