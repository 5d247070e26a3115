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
import math
import sys

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
from fslab import members, search
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


def _polishes():
    """(params, mu, budget) whose polishes run many rounds: at most 100 of
    them from 4-atom incumbents, for real and complex mu, in the case-3/4
    window and out of it."""
    _, mu2, mu3 = breakpoints(_PAR)
    for par, mu in ((_DEFECT, 1.25), (_DEFECT, 1.25 + 0.25j), (_PAR, (mu2 + mu3) / 2), (_PAR, -0.4 + 1.3j)):
        for seed in (1, 2):
            yield par, mu, SearchBudget(n_refine=100, max_atoms=4, seed=seed)


def _cold_then_warm(lines) -> tuple[str, str]:
    """The digest of lines() with both member jet caches cleared, then again
    on the jets the first pass left cached."""
    members._herglotz.cache_clear()
    members._denominators.cache_clear()
    return _digest(lines()), _digest(lines())


def _search_lines(searches=_searches):
    lines = []
    for par, mu, budget in searches():
        res = maximize_fs(par, mu, budget)
        member = res.best_member
        lines.append((res.best_value, res.bound, member.p_measure, member.q_measure, member.a))
    return lines


def _polish_lines():
    return _search_lines(_polishes)


_SEARCH_DIGEST = "7c55997f912628ec7f498616b70018399fba1098353f93a74c1c5856c0243116"
_POLISH_DIGEST = "8b56d2e1a8a237cfcf1fde4feeeca73d48a3c49177ffb38c03a897cd4c29a25a"
_WITNESS_DIGEST = "6674c093bbfcbb5efaec36fd0a7302777140abab0f094f5b53b65427f70c0917"
_SWEEP_DIGEST = "b703bc19a3dd235ea75f60e8620ce4675c7471e97344a6aa35268bba934706a8"


def test_search_bits():
    assert _cold_then_warm(_search_lines) == (_SEARCH_DIGEST, _SEARCH_DIGEST)


def test_search_evaluations():
    # the evaluations each search makes, pinned apart from its results: the
    # polish's stop rule moves these and no result
    evals = [maximize_fs(par, mu, budget).evaluations for par, mu, budget in _searches()]
    assert evals == [10109, 10421, 10579, 5264, 11100, 12164, 10317, 10110, 10421, 10110, 10733, 10164, 10417, 10164]


def test_polish_bits():
    assert _cold_then_warm(_polish_lines) == (_POLISH_DIGEST, _POLISH_DIGEST)


def test_polish_evaluations():
    evals = [maximize_fs(par, mu, budget).evaluations for par, mu, budget in _polishes()]
    assert evals == [10579, 10579, 12414, 14876, 10417, 10417, 10164, 10110]


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
    assert _cold_then_warm(_witness_lines) == (_WITNESS_DIGEST, _WITNESS_DIGEST)


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


def _sweep_digest(capsys) -> str:
    lines = []
    for lo, hi, steps in _SWEEP_GRIDS:
        for output in ("csv", "json"):
            argv = ["sweep", *_SWEEP_FLAGS, f"--mu-min={lo}", "--mu-max", hi, "--steps", steps, "--output", output]
            assert main(argv) == 0
            lines.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return _digest(lines)


def test_sweep_bits(capsys):
    assert _sweep_digest(capsys) == _SWEEP_DIGEST


def _compensated_sum(iterable, /, start=0, *, complexes=False):
    """Builtin sum as CPython 3.12 and 3.13 compute it: from an int start,
    ints are added exactly while they fit a C long; from a float on,
    floats are added with Neumaier's compensation and machine-size ints
    plainly, in double precision, and the correction joins the total when
    that run ends; anything else (a complex number, say) is added plainly.

    With complexes, as CPython 3.14 computes it: a complex total goes on
    with the same compensation in each part, for complex terms in both
    parts and for floats in the real part (machine-size ints are added to
    it plainly), and 3.14 adds a real number and a complex one as C99 does,
    so the complex number keeps its imaginary part, -0.0 included. No 3.14
    interpreter has checked this emulation: it follows CPython's source."""
    long = range(-(2**63), 2**63)  # a C long

    def plus(total, item):
        if complexes and isinstance(total, complex) != isinstance(item, complex):
            real, z = (total, item) if isinstance(item, complex) else (item, total)
            if isinstance(real, (int, float)):
                return complex(z.real + real, z.imag)
        return total + item

    def step(acc, x):  # acc = [sum, correction]
        t = acc[0] + x
        acc[1] += (acc[0] - t) + x if abs(acc[0]) >= abs(x) else (x - t) + acc[0]
        acc[0] = t

    def result(acc):
        return acc[0] + acc[1] if acc[1] and math.isfinite(acc[1]) else acc[0]

    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) not in (int, bool) or item not in long or total + item not in long:
                total = plus(total, item)
                break
            total += item
    if type(total) is float:
        acc = [total, 0.0]
        for item in items:
            if type(item) is float:
                step(acc, item)
            elif isinstance(item, int) and item in long:
                acc[0] += float(item)
            else:
                total = plus(result(acc), item)
                break
        else:
            return result(acc)
    if complexes and type(total) is complex:
        re, im = [total.real, 0.0], [total.imag, 0.0]
        for item in items:
            if type(item) is complex:
                step(re, item.real)
                step(im, item.imag)
            elif type(item) is float:
                step(re, item)
            elif isinstance(item, int) and item in long:
                re[0] += float(item)
            else:
                total = plus(complex(result(re), result(im)), item)
                break
        else:
            return complex(result(re), result(im))
    for item in items:
        total = plus(total, item)
    return total


_SUM_CASES = (
    [0.1] * 10, [1e100, 1.0, -1e100], [0.6, 0.3, 0.1], [0.7, 0.2, 0.1, 1e-17], [-0.0], [-0.0, -0.0],
    [2, 0.5, 1, 1e-17], [1e308, 1e308, -1e308], [float("inf"), 1.0], [0.5 + 1j, 0.25, 1e-17],
)


def test_compensated_sum_is_the_one_of_python_3_12():
    # the emulation adds differently from a plain loop, and on Python 3.12
    # and 3.13 it is builtin sum, bit for bit
    assert _compensated_sum([1e100, 1.0, -1e100]) == 1.0 != (1e100 + 1.0) - 1e100
    if (3, 12) <= sys.version_info < (3, 14):
        for case in _SUM_CASES:
            assert repr(_compensated_sum(case)) == repr(sum(case)), case


def test_compensated_sum_adds_complex_numbers_as_python_3_14():
    # complex terms are compensated part by part, and a real start keeps a
    # complex term's -0.0 imaginary part; on Python 3.14 and later the
    # emulation must be builtin sum, bit for bit
    terms = [1e100 + 1e100j, 1.0 + 1.0j, -1e100 - 1e100j]
    assert _compensated_sum(terms, complexes=True) == 1.0 + 1.0j != _compensated_sum(terms) == 0j
    assert repr(_compensated_sum([complex(1.0, -0.0)], complexes=True)) == "(1-0j)"
    assert repr(_compensated_sum([1e100 + 0j, 1.0, -1e100], complexes=True)) == "(1+0j)"
    assert _compensated_sum([0.25, 1e-17, 0.5j], complexes=True) == 0.25 + 0.5j
    if sys.version_info >= (3, 14):
        for case in _SUM_CASES:
            assert repr(_compensated_sum(case, complexes=True)) == repr(sum(case)), case


def test_no_library_bit_moves_with_a_compensated_sum(monkeypatch, capsys):
    # builtin sum compensates float additions from Python 3.12 on and complex
    # ones from 3.14 on; with either sum in both modules that once called it
    # on their results' terms, every digest keeps its bits (while the search
    # totalled weights with builtin sum, its digest moved, and so did the
    # search and witness digests under the 3.14 sum while member builds
    # added complex terms with it)
    for complexes in (False, True):
        def compensated(iterable, /, start=0):
            return _compensated_sum(iterable, start, complexes=complexes)

        for module in (search, members):
            monkeypatch.setattr(module, "sum", compensated, raising=False)
        assert _cold_then_warm(_search_lines) == (_SEARCH_DIGEST, _SEARCH_DIGEST)
        assert _cold_then_warm(_polish_lines) == (_POLISH_DIGEST, _POLISH_DIGEST)
        assert _cold_then_warm(_witness_lines) == (_WITNESS_DIGEST, _WITNESS_DIGEST)
        assert _sweep_digest(capsys) == _SWEEP_DIGEST
