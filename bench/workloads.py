"""The benchmark's three workloads: seeded inputs, the op each one times, and
the invariant checks that decide whether an op's output is correct.

Inputs come from the benchmark's own RNG (``random.Random`` keyed by
workload, seed and op index), never from fslab, so the library receives only
generated inputs and the input stream does not change when the library does.
Ops call fslab through its package namespace and stable public signatures
only, and look every function up at call time so the tracer's wrappers see
the calls. Checks are invariants, not pinned values, so a change that alters
the search's random stream stays valid; they run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import fslab
import fslab.cli

# verify: the default search budget, pinned so the work per op stays fixed
# even if the library's defaults change.
N_SAMPLES = 10_000
N_REFINE = 3
MAX_ATOMS = 3

SWEEP_STEPS = 2001
SWEEP_RANGES = ((-2.0, 3.0), (-50.0, 50.0))  # the CLI default, and a wide one
SWEEP_HEADER = ("mu", "case", "value", "complex_bound")

WITNESS_ORDER = 8
WITNESS_MAX_ATOMS = 4

# Edge tuples (lam, delta, alpha, beta) mixed into the uniform draws.
EDGE_PARAMS = (
    (1.0, 1.0, 0.0, 0.0),
    (1.0, 1.0, 0.95, 0.95),
    (0.4, 0.2, 0.95, 0.95),
    (0.0, 0.0, 0.0, 0.0),
)
EDGE_EVERY = 5  # op indices i with i % EDGE_EVERY == EDGE_EVERY - 1 use an edge tuple

# Check tolerances.
UPPER_RTOL = 1e-9  # search never beats the trusted bound
ATTAIN_RTOL = 1e-6  # seeded witnesses attain every real-mu branch
SWEEP_ATOL = 1e-12  # paper value never exceeds the complex bound on a sweep row
RESIDUAL_TOL = 1e-8  # witness sharpness
TRANSFORM_TOL = 1e-14  # A_2 = tau a_2, A_3 = sigma a_3


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int, int], Any]  # (seed, op index) -> input
    run: Callable[[Any], Any]  # the timed op
    check: Callable[[Any, Any], tuple[list[str], float]]  # -> (problems, best_to_bound)
    fingerprint: Callable[[Any], str] | None  # repeat-determinism key, or None
    samples_per_op: int  # random samples the op requests from the search
    trace_ops: int  # ops in a traced run; fixed so counts repeat exactly
    span_ops: int  # leading traced ops whose spans are kept in full


# Parameters and mu come from additive-recurrence (Kronecker) sequences,
# u_k(j) = frac(shift_k + j * alpha_k), one per op kind with its shifts drawn
# from the seed, so a run's few ops of each kind cover the domain evenly and
# averages over a run's ops vary less from seed to seed than with independent
# draws. alpha is Roberts' R_d choice, 1 / phi_d^(k+1), with phi_d the
# positive root of x^(d+1) = x + 1.
_DIMS = 6


def _r_alphas(d: int) -> tuple[float, ...]:
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return tuple((1.0 / phi ** (k + 1)) % 1.0 for k in range(d))


_ALPHAS = _r_alphas(_DIMS)


def _rng(workload: str, seed: int, i: int) -> random.Random:
    # string seeds are hashed with SHA-512, so the stream is stable across
    # processes and Python hash randomization
    return random.Random(f"{workload}/{seed}/{i}")


def _point(workload: str, seed: int, i: int, kinds: int) -> tuple[float, ...]:
    """Op i is point i // kinds of the sequence of its kind, i % kinds."""
    shifts = random.Random(f"{workload}/{seed}/kind{i % kinds}")
    return tuple((shifts.random() + (i // kinds) * alpha) % 1.0 for alpha in _ALPHAS)


def _params_at(u: tuple[float, ...], i: int) -> tuple[float, float, float, float]:
    if i % EDGE_EVERY == EDGE_EVERY - 1:
        return EDGE_PARAMS[(i // EDGE_EVERY) % len(EDGE_PARAMS)]
    return (u[0], u[1] * u[0], u[2], u[3])


def _between(lo: float, hi: float, u: float) -> float:
    return lo + u * (hi - lo)


def scale_factors(params: tuple[float, float, float, float]) -> tuple[float, float]:
    """(tau, sigma), written out here so the inputs do not depend on fslab."""
    lam, delta, _, _ = params
    return 1.0 + lam - delta + 2.0 * lam * delta, 1.0 + 2.0 * lam - 2.0 * delta + 6.0 * lam * delta


def breakpoints(params: tuple[float, float, float, float]) -> tuple[float, float, float]:
    """(mu1, mu2, mu3) of the paper's four-branch value."""
    _, _, alpha, beta = params
    tau, sigma = scale_factors(params)
    t2, s3, c = tau * tau, 3.0 * sigma, 2.0 - alpha - beta
    return (
        2.0 * (1.0 - beta) * t2 / (s3 * c),
        2.0 * t2 / s3,
        2.0 * (2.0 - beta) * (3.0 - 2.0 * alpha - beta) * t2 / (s3 * c * c),
    )


def _draw_atoms(rng: random.Random, max_atoms: int) -> tuple[tuple[float, float], ...]:
    n = rng.randint(1, max_atoms)
    weights = [1.0 - rng.random() for _ in range(n)]  # in (0, 1]
    total = math.fsum(weights)
    return tuple((w / total, rng.uniform(0.0, 2.0 * math.pi)) for w in weights)


# ----- verify: one default-budget search per op -----


@dataclass(frozen=True)
class VerifyInput:
    params: tuple[float, float, float, float]
    mu: float | complex
    search_seed: int


def make_verify_input(seed: int, i: int) -> VerifyInput:
    rng = _rng("verify", seed, i)
    u = _point("verify", seed, i, 3)  # kinds below
    params = _params_at(u, i)
    mu1, mu2, mu3 = breakpoints(params)
    kind = i % 3
    if kind == 0:  # real mu, cases 1-2
        mu: float | complex = _between(mu1 - 1.0, mu2, u[4])
    elif kind == 1:  # real mu, the case-3/4 window (search may beat bound_real)
        mu = _between(mu2, mu3 + (mu3 - mu2), u[4])
    else:  # complex mu
        mu = complex(_between(mu1 - 1.0, mu3 + 1.0, u[4]), rng.choice((-1.0, 1.0)) * _between(0.1, 2.0, u[5]))
    return VerifyInput(params, mu, rng.getrandbits(32))


def run_verify(inp: VerifyInput) -> Any:
    budget = fslab.SearchBudget(
        n_samples=N_SAMPLES, n_refine=N_REFINE, max_atoms=MAX_ATOMS, seed=inp.search_seed
    )
    return fslab.maximize_fs(fslab.ClassParams(*inp.params), inp.mu, budget)


def check_verify(inp: VerifyInput, res: Any) -> tuple[list[str], float]:
    problems = []
    params = fslab.ClassParams(*inp.params)
    trusted = fslab.bound_complex(params, inp.mu)
    best = res.best_value
    if not math.isfinite(best) or not best <= trusted * (1.0 + UPPER_RTOL):
        problems.append(f"best_value {best!r} above bound_complex {trusted!r}")
    if not isinstance(inp.mu, complex):
        paper = fslab.bound_real(params, inp.mu).value
        if not best >= paper * (1.0 - ATTAIN_RTOL):
            problems.append(f"best_value {best!r} below the attained bound_real {paper!r}")
    if not res.evaluations >= N_SAMPLES:
        problems.append(f"evaluations {res.evaluations} < n_samples {N_SAMPLES}")
    return problems, best / trusted


def fingerprint_verify(res: Any) -> str:
    m = res.best_member
    return repr((res.best_value, res.bound, res.evaluations, m.a, m.p_measure.atoms, m.q_measure.atoms))


# ----- sweep: one in-process `fslab sweep` per op -----


@dataclass(frozen=True)
class SweepInput:
    params: tuple[float, float, float, float]
    mu_min: float
    mu_max: float

    def argv(self) -> list[str]:
        lam, delta, alpha, beta = self.params
        return [
            "sweep",
            "--lambda", repr(lam),
            "--delta", repr(delta),
            "--alpha", repr(alpha),
            "--beta", repr(beta),
            "--mu-min", repr(self.mu_min),
            "--mu-max", repr(self.mu_max),
            "--steps", str(SWEEP_STEPS),
        ]


def make_sweep_input(seed: int, i: int) -> SweepInput:
    mu_min, mu_max = SWEEP_RANGES[i % len(SWEEP_RANGES)]
    return SweepInput(_params_at(_point("sweep", seed, i, len(SWEEP_RANGES)), i), mu_min, mu_max)


def run_sweep(inp: SweepInput) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fslab.cli.main(inp.argv())
    return code, buf.getvalue()


def check_sweep(inp: SweepInput, out: tuple[int, str]) -> tuple[list[str], float]:
    code, text = out
    if code != 0:
        return [f"exit code {code}"], math.nan
    lines = text.splitlines()
    if not lines:
        return ["no output"], math.nan
    header = lines[0].split(",")
    if not set(SWEEP_HEADER) <= set(header):
        return [f"header {lines[0]!r} lacks one of {SWEEP_HEADER}"], math.nan
    col = {name: header.index(name) for name in SWEEP_HEADER}
    rows = lines[1:]
    problems = []
    if len(rows) != SWEEP_STEPS:
        problems.append(f"{len(rows)} data rows, expected {SWEEP_STEPS}")
    prev_mu, prev_case = -math.inf, 0
    ratio_sum = 0.0
    for n, line in enumerate(rows, start=1):
        cells = line.split(",")
        try:
            mu = float(cells[col["mu"]])
            case = int(cells[col["case"]])
            value = float(cells[col["value"]])
            bound = float(cells[col["complex_bound"]])
            others = [float(c) for c in cells]
        except (IndexError, ValueError):
            problems.append(f"row {n} unparsable: {line!r}")
            break
        if not all(math.isfinite(v) for v in others):
            problems.append(f"row {n} not finite: {line!r}")
            break
        if not mu > prev_mu:
            problems.append(f"row {n}: mu {mu!r} does not increase")
            break
        if case < prev_case:
            problems.append(f"row {n}: case {case} after case {prev_case}")
            break
        if not value <= bound + SWEEP_ATOL:
            problems.append(f"row {n}: value {value!r} above complex_bound {bound!r}")
            break
        prev_mu, prev_case = mu, case
        ratio_sum += value / bound
    return problems, ratio_sum / max(1, len(rows))


# ----- witness: sharpness, spot checks and an order-8 member per op -----


@dataclass(frozen=True)
class WitnessInput:
    params: tuple[float, float, float, float]
    mu: float
    case_id: int
    p_atoms: tuple[tuple[float, float], ...]
    q_atoms: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class WitnessOutput:
    residual: float
    extremal: Any
    extremal_in_class: bool
    transform_in_class: bool
    member: Any
    member_in_class: bool


def make_witness_input(seed: int, i: int) -> WitnessInput:
    rng = _rng("witness", seed, i)
    u = _point("witness", seed, i, 4)
    params = _params_at(u, i)
    mu1, mu2, mu3 = breakpoints(params)
    case_id = 1 + i % 4
    lo, hi = ((mu1 - 2.0, mu1), (mu1, mu2), (mu2, mu3), (mu3, mu3 + 2.0))[case_id - 1]
    # stay off the breakpoints, where the case id is a tie
    mu = _between(lo, hi, 1e-6 + (1.0 - 2e-6) * u[4])
    return WitnessInput(
        params, mu, case_id, _draw_atoms(rng, WITNESS_MAX_ATOMS), _draw_atoms(rng, WITNESS_MAX_ATOMS)
    )


def run_witness(inp: WitnessInput) -> WitnessOutput:
    params = fslab.ClassParams(*inp.params)
    residual = fslab.sharpness_residual(params, inp.mu, WITNESS_ORDER)
    extremal = fslab.extremal_member(params, inp.mu, inp.case_id, WITNESS_ORDER)
    extremal_ok = fslab.membership_spotcheck(extremal)
    transform_ok = fslab.transform_spotcheck(extremal)
    member = fslab.member_from_pq(
        params, fslab.HerglotzMeasure(inp.p_atoms), fslab.HerglotzMeasure(inp.q_atoms), WITNESS_ORDER
    )
    return WitnessOutput(
        residual, extremal, extremal_ok, transform_ok, member, fslab.membership_spotcheck(member)
    )


def check_witness(inp: WitnessInput, out: WitnessOutput) -> tuple[list[str], float]:
    problems = []
    if not abs(out.residual) <= RESIDUAL_TOL:
        problems.append(f"sharpness residual {out.residual!r}")
    for flag in ("extremal_in_class", "transform_in_class", "member_in_class"):
        if getattr(out, flag) is not True:
            problems.append(f"{flag} is {getattr(out, flag)!r}")
    tau, sigma = scale_factors(inp.params)
    for label, member in (("extremal", out.extremal), ("member", out.member)):
        transformed = fslab.libera_transform(member)
        big_a = getattr(transformed, "coeffs", transformed)
        a = member.a
        if not (abs(big_a[2] - tau * a[2]) <= TRANSFORM_TOL and abs(big_a[3] - sigma * a[3]) <= TRANSFORM_TOL):
            problems.append(f"{label}: transform breaks A_2 = tau a_2 or A_3 = sigma a_3")
    a = out.extremal.a
    attained = abs(a[3] - inp.mu * a[2] ** 2)
    return problems, attained / fslab.bound_complex(fslab.ClassParams(*inp.params), inp.mu)


WORKLOADS = {
    "verify": Workload(
        "verify", make_verify_input, run_verify, check_verify, fingerprint_verify,
        samples_per_op=N_SAMPLES, trace_ops=3, span_ops=1,
    ),
    "sweep": Workload(
        "sweep", make_sweep_input, run_sweep, check_sweep, None,
        samples_per_op=0, trace_ops=100, span_ops=2,
    ),
    "witness": Workload(
        "witness", make_witness_input, run_witness, check_witness, None,
        samples_per_op=0, trace_ops=2000, span_ops=20,
    ),
}
