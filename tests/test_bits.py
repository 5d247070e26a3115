"""The bits of the library's results and of `fslab sweep`, pinned across
commits by sha256 digests over fixed inputs built here.

The README promises bitwise determinism for a given seed and budget. A
change that moves a digest changes results: if it does so on purpose, it
updates the digest and says so in CHANGES.md. The search and witness digests
are taken twice in one process, from cleared member jet caches and then from
the jets the first pass cached, so a cache cannot move a bit either.
"""

from __future__ import annotations

import hashlib

from fslab import (
    ClassParams,
    HerglotzMeasure,
    SearchBudget,
    extremal_member,
    libera_transform,
    maximize_fs,
    member_from_pq,
    membership_spotcheck,
    sharpness_residual,
    transform_spotcheck,
)
from fslab import members
from fslab.bounds import breakpoints
from fslab.cli import main

from conftest import EDGE_PARAMS


def _text(v) -> str:
    """Every bit of a number, a sequence of them, or a measure."""
    if isinstance(v, HerglotzMeasure):
        return _text(v.atoms)
    if isinstance(v, (tuple, list)):
        return "(" + " ".join(map(_text, v)) + ")"
    if isinstance(v, complex):
        return f"{v.real.hex()}{v.imag.hex()}j"
    if isinstance(v, float):
        return v.hex()
    return repr(v)


def _digest(lines) -> str:
    return hashlib.sha256("".join(_text(line) + "\n" for line in lines).encode()).hexdigest()


_PAR = ClassParams(0.3, 0.1, 0.2, 0.1)
_DEFECT = ClassParams(0.0, 0.0, 0.6, 0.0)  # the case-3/4 window holds mu = 1.25


def _searches():
    """(params, mu, budget): real mu in cases 1 and 2, the case-3/4 window,
    complex mu, and the four edge tuples, at the default budget and others."""
    mu1, mu2, _ = breakpoints(_PAR)
    yield _PAR, mu1 - 0.5, None
    yield _PAR, (mu1 + mu2) / 2, None
    yield _DEFECT, 1.25, None
    yield _DEFECT, 1.25, SearchBudget(n_samples=5001, n_refine=1, max_atoms=4, seed=7)
    yield _DEFECT, 1.25 + 0.25j, None
    yield _PAR, 1j, SearchBudget(n_samples=12_000, max_atoms=1, seed=3)
    for par in EDGE_PARAMS:
        yield par, 0.7, None
        yield par, -0.4 + 1.3j, None


def _cold_then_warm(lines) -> tuple[str, str]:
    """The digest of lines() with both member jet caches cleared, then again
    on the jets the first pass left cached."""
    members._herglotz.cache_clear()
    members._denominators.cache_clear()
    return _digest(lines()), _digest(lines())


def _search_lines():
    lines = []
    for par, mu, budget in _searches():
        res = maximize_fs(par, mu, budget)
        member = res.best_member
        lines.append((res.best_value, res.bound, member.p_measure, member.q_measure, member.a))
    return lines


def test_search_bits():
    digest = "7c55997f912628ec7f498616b70018399fba1098353f93a74c1c5856c0243116"
    assert _cold_then_warm(_search_lines) == (digest, digest)


def test_search_evaluations():
    # the evaluations each search makes, pinned apart from its results: the
    # polish's stop rule moves these and no result
    evals = [maximize_fs(par, mu, budget).evaluations for par, mu, budget in _searches()]
    assert evals == [10109, 10421, 10579, 5264, 11100, 12164, 10317, 10110, 10421, 10110, 10733, 10164, 10417, 10164]


def _witness_lines():
    lines = []
    for par in (_PAR, _DEFECT, *EDGE_PARAMS):
        mu1, mu2, mu3 = breakpoints(par)
        mus = (mu1 - 1.0, mu1, (mu1 + mu2) / 2, mu2, (mu2 + mu3) / 2, mu3, mu3 + 1.0)
        lines.append(tuple(sharpness_residual(par, mu) for mu in mus))
        for case_id, mu in ((1, None), (2, (mu1 + mu2) / 2), (3, None), (4, None)):
            member = extremal_member(par, mu, case_id)
            lines.append((member.a, member.b, member.c, libera_transform(member),
                          membership_spotcheck(member), transform_spotcheck(member)))
    p = HerglotzMeasure(((0.25, 1.0), (0.75, 2.5)))
    q = HerglotzMeasure(((0.2, 0.5), (0.3, 3.0), (0.5, -2.0)))
    member = member_from_pq(_PAR, p, q, 8)
    lines.append((member.a, member.b, member.c, member.qk, member.d))
    return lines


def test_witness_bits():
    digest = "6674c093bbfcbb5efaec36fd0a7302777140abab0f094f5b53b65427f70c0917"
    assert _cold_then_warm(_witness_lines) == (digest, digest)


_SWEEP_FLAGS = ("--lambda", "0.3", "--delta", "0.1", "--alpha", "0.2", "--beta", "0.1")

# (mu_min, mu_max, steps): the default grid, the bench's two, one through 0,
# one reaching 2e18 (past the CSV formatter's fast path), 4,546 rows around
# mu = 1000 (all 177 values of a 200,000-row grid of that range, some a few
# ulps below 1000, where the formatter falls back to %-formatting), a grid
# whose last point rounding once carried past mu_max, one across the whole
# float range, and one built in quarters whose last point is -0.0, as it was
# before the grid was kept within its range
_SWEEP_GRIDS = (
    ("-2.0", "3.0", "51"), ("-2.0", "3.0", "2001"), ("-50.0", "50.0", "2001"), ("-1.0", "1.0", "999"),
    ("-1e-3", "2e18", "28"), ("999.99999999999", "1000.00000000001", "4546"), ("-3", "-1.3", "51"),
    ("1.7976931348623157e308", "-1.7976931348623157e308", "7"), ("1.7976931348623157e308", "-5e-324", "25"),
)


def test_sweep_bits(capsys):
    lines = []
    for lo, hi, steps in _SWEEP_GRIDS:
        for output in ("csv", "json"):
            argv = ["sweep", *_SWEEP_FLAGS, f"--mu-min={lo}", "--mu-max", hi, "--steps", steps, "--output", output]
            assert main(argv) == 0
            lines.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert _digest(lines) == "b703bc19a3dd235ea75f60e8620ce4675c7471e97344a6aa35268bba934706a8"
