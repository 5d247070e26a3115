"""Tests of the benchmark itself: the tracer's self-time arithmetic and the
output checks that feed failed ops.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import math
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fslab  # noqa: E402
import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


# ----- tracer -----


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def nested_namespace(clock: FakeClock) -> types.SimpleNamespace:
    ns = types.SimpleNamespace()

    def leaf() -> None:
        clock.now += 5

    def mid() -> None:
        clock.now += 2
        ns.leaf()
        clock.now += 3
        ns.leaf()
        clock.now += 1

    def op() -> str:
        clock.now += 4
        ns.mid()
        clock.now += 7
        return "done"

    ns.leaf, ns.mid, ns.op = leaf, mid, op
    return ns


def traced_namespace(span_ops: int = 1, span_cap: int = 100):
    clock = FakeClock()
    ns = nested_namespace(clock)
    targets = [
        tracer.Target("leaf", ns.leaf, [(ns, "leaf")]),
        tracer.Target("mid", ns.mid, [(ns, "mid")]),
    ]
    return ns, tracer.Tracer(targets, span_ops=span_ops, span_cap=span_cap, clock=clock)


def test_self_time_on_nested_spans():
    ns, tr = traced_namespace()
    result, wall = tr.op(ns.op)
    assert (result, wall) == ("done", 27)
    per = tr.per_name()
    # name -> (calls, self ns, inclusive ns)
    assert per["leaf"] == (2, 10, 10)
    assert per["mid"] == (1, 6, 16)
    assert per[tracer.ROOT] == (1, 11, 27)
    # every nanosecond of the op lands in exactly one span's self time
    assert sum(self_ns for _, self_ns, _ in per.values()) == wall


def test_offline_self_times_match_running_aggregate():
    ns, tr = traced_namespace()
    tr.op(ns.op)
    columns = [tr.spans[f] for f in ("id", "name", "parent", "start", "end")]
    spans = list(zip(*columns))
    offline = tracer.self_times(spans)
    by_name: dict[str, int] = {}
    for span_id, name_idx, *_ in spans:
        name = tr.names[name_idx]
        by_name[name] = by_name.get(name, 0) + offline[span_id]
    assert by_name == {name: self_ns for name, (_, self_ns, _) in tr.per_name().items()}


def test_self_times_subtracts_only_direct_children():
    spans = [(0, "a", -1, 0, 100), (1, "b", 0, 10, 60), (2, "c", 1, 20, 50), (3, "b", 0, 70, 80)]
    assert tracer.self_times(spans) == {0: 40, 1: 20, 2: 30, 3: 10}


def test_wrappers_only_live_inside_an_op():
    ns, tr = traced_namespace()
    leaf = ns.leaf
    tr.op(ns.op)
    assert ns.leaf is leaf
    ns.leaf()  # untraced call between ops
    assert tr.per_name()["leaf"][0] == 2


def test_spans_kept_for_a_bounded_prefix_only():
    ns, tr = traced_namespace(span_ops=1)
    for _ in range(3):
        tr.op(ns.op)
    assert set(tr.spans["op"]) == {0}
    assert len(tr.spans["id"]) == 4  # root, mid, two leaves
    assert tr.per_name()["leaf"][0] == 6

    ns, tr = traced_namespace(span_ops=5, span_cap=6)
    for _ in range(3):
        tr.op(ns.op)
    assert len(tr.spans["id"]) == 6 and tr.truncated
    assert tr.per_name()["leaf"][0] == 6  # aggregates are never truncated


def test_resolve_finds_every_alias_and_tolerates_missing_names():
    target = tracer.resolve("members.member_from_pq")
    owners = {getattr(owner, "__name__", None) for owner, _ in target.slots}
    assert {"fslab", "fslab.members", "fslab.search", "fslab.extremal"} <= owners
    post_init = tracer.resolve("members.HerglotzMeasure.post_init")
    assert post_init.slots == [(fslab.members.HerglotzMeasure, "__post_init__")]
    assert tracer.resolve("members.no_such_function") is None
    assert tracer.resolve("nosuchmodule.f") is None
    assert tracer.resolve("members.NoSuchClass.post_init") is None


def test_library_internal_calls_are_caught():
    names = ("extremal.sharpness_residual", "bounds.bound_real", "members.member_from_pq",
             "members.HerglotzMeasure.post_init")
    original = fslab.members.HerglotzMeasure.__post_init__
    tr = tracer.Tracer([tracer.resolve(n) for n in names])
    params = fslab.ClassParams(0.3, 0.1, 0.2, 0.4)
    tr.op(lambda: fslab.sharpness_residual(params, 0.5))  # case 2: two measures
    per = tr.per_name()
    assert [per[n][0] for n in names] == [1, 1, 1, 2]
    assert fslab.members.HerglotzMeasure.__post_init__ is original


# ----- workload inputs -----


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed_and_index(name):
    make = workloads.WORKLOADS[name].make_input
    assert make(7, 3) == make(7, 3)
    assert make(7, 3) != make(8, 3)


def test_witness_cases_cover_all_branches():
    cases = {fslab.bound_real(fslab.ClassParams(*inp.params), inp.mu).case_id
             for inp in (workloads.make_witness_input(1, i) for i in range(8))}
    assert cases == {1, 2, 3, 4}


# ----- output checks: a good output passes, each corruption is flagged -----


def verify_result(best, evaluations=workloads.N_SAMPLES):
    return types.SimpleNamespace(best_value=best, evaluations=evaluations)


def test_verify_check_flags_corrupt_results():
    inp = workloads.VerifyInput((0.3, 0.1, 0.2, 0.4), 0.5, 1)
    params = fslab.ClassParams(*inp.params)
    paper = fslab.bound_real(params, inp.mu).value
    trusted = fslab.bound_complex(params, inp.mu)
    problems, ratio = workloads.check_verify(inp, verify_result(paper))
    assert problems == [] and ratio == paper / trusted
    assert workloads.check_verify(inp, verify_result(trusted * 1.001))[0]
    assert workloads.check_verify(inp, verify_result(paper * 0.99))[0]
    assert workloads.check_verify(inp, verify_result(paper, evaluations=10))[0]
    assert workloads.check_verify(inp, verify_result(math.nan))[0]


def test_verify_check_allows_beating_the_paper_value_on_complex_and_window_mu():
    window = workloads.VerifyInput((0.0, 0.0, 0.6, 0.0), 1.25, 1)  # the pinned 0.68 > 0.65 case
    assert workloads.check_verify(window, verify_result(0.68))[0] == []
    cplx = workloads.VerifyInput((0.3, 0.1, 0.2, 0.4), complex(0.5, 0.5), 1)
    assert workloads.check_verify(cplx, verify_result(0.01))[0] == []


def test_verify_fingerprint_is_bitwise():
    member = fslab.member_from_pq(
        fslab.ClassParams(0, 0, 0, 0), fslab.HerglotzMeasure(((1.0, 0.0),)), fslab.HerglotzMeasure(((1.0, 0.0),))
    )
    res = types.SimpleNamespace(best_value=1.0, bound=1.0, evaluations=5, best_member=member)
    assert workloads.fingerprint_verify(res) == workloads.fingerprint_verify(res)
    other = types.SimpleNamespace(best_value=math.nextafter(1.0, 2.0), bound=1.0, evaluations=5, best_member=member)
    assert workloads.fingerprint_verify(res) != workloads.fingerprint_verify(other)


@pytest.fixture(scope="module")
def sweep_case():
    inp = workloads.make_sweep_input(3, 1)  # the wide mu range
    return inp, workloads.run_sweep(inp)


def corrupt_row(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_check_passes_real_output(sweep_case):
    inp, (code, text) = sweep_case
    problems, ratio = workloads.check_sweep(inp, (code, text))
    assert problems == [] and 0.0 < ratio <= 1.0


def test_sweep_check_flags_corrupt_output(sweep_case):
    inp, (code, text) = sweep_case
    lines = text.splitlines()
    last_case = int(lines[-1].split(",")[1])
    assert last_case > 1
    corrupt = [
        (2, text),
        (0, "\n".join(lines[:-1]) + "\n"),  # a row missing
        (0, "\n".join(lines + lines[-1:]) + "\n"),  # a row repeated
        (0, corrupt_row(text, len(lines) - 1, 1, "1")),  # case decreases
        (0, corrupt_row(text, 5, 2, "1e6")),  # value above the complex bound
        (0, corrupt_row(text, 5, 3, "nan")),  # not finite
        (0, corrupt_row(text, 5, 0, "x")),  # unparsable
        (0, text.replace("complex_bound", "cb", 1)),  # header changed
        (0, ""),
    ]
    for case in corrupt:
        assert workloads.check_sweep(inp, case)[0], case[1][:80]


@pytest.fixture(scope="module")
def witness_case():
    inp = workloads.make_witness_input(3, 1)
    return inp, workloads.run_witness(inp)


def test_witness_check_passes_real_output(witness_case):
    inp, out = witness_case
    problems, ratio = workloads.check_witness(inp, out)
    assert problems == [] and 0.0 < ratio <= 1.0


def test_witness_check_flags_corrupt_output(witness_case):
    inp, out = witness_case
    d = list(out.member.d)
    d[3] *= 1.0 + 1e-9  # breaks A_3 = sigma a_3
    corrupt = [
        dataclasses.replace(out, residual=1e-6),
        dataclasses.replace(out, extremal_in_class=False),
        dataclasses.replace(out, transform_in_class=False),
        dataclasses.replace(out, member_in_class=False),
        dataclasses.replace(out, member=dataclasses.replace(out.member, d=tuple(d))),
    ]
    for bad in corrupt:
        assert workloads.check_witness(inp, bad)[0], bad


# ----- reporting -----


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert worker.tail([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert worker.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert worker.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert worker.tail([float(i) for i in range(1, 10_001)]) == (99.0, 9900.0)
    assert worker.tail([3.0]) == (50.0, 3.0)
