"""Per-layer call tracing from outside the library.

The tracer wraps named functions and replaces every module attribute that
refers to one (for example ``fslab.member_from_pq``, ``fslab.search.member_from_pq``
and ``fslab.members.member_from_pq`` all become the same wrapper), so calls
made inside the library are caught as well as the benchmark's own. A name
such as ``members.HerglotzMeasure.post_init`` wraps the dataclass hook that
runs on every construction. A name that no longer resolves is skipped and
reports zero calls, so the same benchmark measures code from which a layer
has been removed.

Each call is a span with a parent. The tracer keeps, per (name, parent
name), the call count and the self time: the span's duration minus the time
its traced child spans cover. Full spans (id, name, parent, start, end, op)
are kept only for a bounded prefix of ops; later ops are aggregated only.
Wrappers are installed around each traced op and removed after it, so the
benchmark's untraced ops and output checks run on the original functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

ROOT = "op"  # the span that encloses one whole op

SPAN_FIELDS = ("id", "name", "parent", "start", "end", "op")


@dataclass
class Target:
    """A function to trace and the (owner, attribute) slots that hold it."""

    name: str
    original: Callable[..., Any]
    slots: list[tuple[Any, str]]


def resolve(name: str, package: str = "fslab") -> Target | None:
    """Find ``module.attr`` or ``module.Class.post_init`` inside ``package``
    (``numpy.default_rng`` means ``numpy.random.default_rng``), and every
    attribute of the package's loaded modules that refers to it.

    Returns None when the name does not resolve.
    """
    parts = name.split(".")
    if parts[0] == "numpy":
        module_name, attrs = "numpy.random", parts[1:]
    else:
        module_name, attrs = f"{package}.{parts[0]}", parts[1:]
    attrs = ["__post_init__" if a == "post_init" else a for a in attrs]
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    original = vars(owner).get(attrs[-1]) if isinstance(owner, type) else getattr(owner, attrs[-1], None)
    if not callable(original):
        return None
    slots = [(owner, attrs[-1])]
    if not isinstance(owner, type):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner:
                continue
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            slots += [(mod, attr) for attr, value in vars(mod).items() if value is original]
    return Target(name, original, slots)


class Tracer:
    """Span recorder with bounded memory.

    ``names`` index the aggregates; index 0 is the op root. ``clock`` returns
    integer nanoseconds and is replaceable for tests.
    """

    def __init__(
        self,
        targets: Iterable[Target],
        span_ops: int = 1,
        span_cap: int = 200_000,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.targets = list(targets)
        self.names = [ROOT] + [t.name for t in self.targets]
        self.span_ops = span_ops
        self.span_cap = span_cap
        self._clock = clock
        self._stack: list[list[int]] = []  # frames: [name index, child ns, span id]
        self._next_id = 0
        self._record = False
        self.truncated = False
        self.calls: defaultdict[tuple[int, int], int] = defaultdict(int)
        self.self_ns: defaultdict[tuple[int, int], int] = defaultdict(int)
        self.total_ns = [0] * len(self.names)  # inclusive time per name
        self.ops = 0
        self.max_gap_share = 0.0  # largest share of one op's wall time outside every traced span
        self.spans = {field: array("q") for field in SPAN_FIELDS}
        self._patches = []
        for idx, target in enumerate(self.targets, start=1):
            wrapper = self._wrap(idx, target.original)
            self._patches += [(owner, attr, target.original, wrapper) for owner, attr in target.slots]

    def _wrap(self, idx: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack, clock, close = self._stack, self._clock, self._close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # wrappers are installed only inside op(), so the root is on the stack
            frame = [idx, 0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, stack[-1], start, end)

        return traced

    def _close(self, frame: list[int], parent: list[int] | None, start: int, end: int) -> None:
        duration = end - start
        idx = frame[0]
        if parent is not None:
            parent[1] += duration
            key = (idx, parent[0])
        else:
            key = (idx, -1)
        self.calls[key] += 1
        self.self_ns[key] += duration - frame[1]
        self.total_ns[idx] += duration
        if self._record:
            if len(self.spans["id"]) >= self.span_cap:
                self._record = False
                self.truncated = True
                return
            row = (frame[2], idx, parent[2] if parent is not None else -1, start, end, self.ops)
            for field, value in zip(SPAN_FIELDS, row):
                self.spans[field].append(value)

    def _install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def op(self, fn: Callable[..., Any], *args: Any) -> tuple[Any, int]:
        """Run fn(*args) as one traced op; return its result and wall ns."""
        frame = [0, 0, self._next_id]
        self._next_id += 1
        self._record = self.ops < self.span_ops and not self.truncated
        self._stack.append(frame)
        self._install()
        start = self._clock()
        try:
            result = fn(*args)
        finally:
            end = self._clock()
            self._uninstall()
            self._stack.pop()
            self._close(frame, None, start, end)
            if end > start:
                self.max_gap_share = max(self.max_gap_share, (end - start - frame[1]) / (end - start))
            self._record = False
            self.ops += 1
        return result, end - start

    def per_name(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, self ns, inclusive ns), summed over parents."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for (idx, _), n in self.calls.items():
            calls[idx] += n
        for (idx, _), ns in self.self_ns.items():
            self_ns[idx] += ns
        return {name: (calls[i], self_ns[i], self.total_ns[i]) for i, name in enumerate(self.names)}

    def by_parent(self) -> list[dict[str, Any]]:
        return [
            {
                "name": self.names[idx],
                "parent": self.names[parent] if parent >= 0 else None,
                "calls": n,
                "self_ns": self.self_ns[(idx, parent)],
            }
            for (idx, parent), n in sorted(self.calls.items())
        ]

    def dump(self, path: Any, extra: dict[str, Any]) -> None:
        """Write the aggregates and the kept spans as one JSON file."""
        payload = dict(extra)
        payload.update(
            names=self.names,
            ops=self.ops,
            span_ops=min(self.ops, self.span_ops),
            truncated=self.truncated,
            by_parent=self.by_parent(),
            spans={field: col.tolist() for field, col in self.spans.items()},
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans: Iterable[tuple[int, str, int, int, int]]) -> dict[int, int]:
    """Self ns per span id from full spans (id, name, parent id, start, end);
    parent id -1 marks a root. This is the offline form of the tracer's
    running aggregate and is what the tests hold it to."""
    spans = list(spans)
    covered: defaultdict[int, int] = defaultdict(int)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {span_id: (end - start) - covered[span_id] for span_id, _, _, start, end in spans}
