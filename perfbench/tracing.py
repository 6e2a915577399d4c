"""In-memory spans around calls into the library's public functions.

A `Tracer` replaces module attributes (and the callable fields of a
`CryptoSuite`) with wrappers that record a span per call: name, start, end,
parent span and session id, plus an optional byte size and an exact modexp
count taken from the library's own `count_exponentiations()`. `restore()`
puts every original back. Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import defaultdict
from time import perf_counter

from blindsigncrypt import group_math

# span fields, kept as a list so the end time can be filled in at exit
NAME, START, END, PARENT, SESSION, SIZE, COUNT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.session = 0
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.session, 0, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = perf_counter()

    def wrapper(self, name, fn, size=None, count=False):
        """A traced stand-in for fn. size(args, result) gives the span's bytes;
        count=True stores the modexp count of calls that return normally."""

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                if count:
                    with group_math.count_exponentiations() as counter:
                        result = fn(*args, **kwargs)
                    self.spans[idx][COUNT] = counter.count
                else:
                    result = fn(*args, **kwargs)
                if size is not None:
                    self.spans[idx][SIZE] = size(args, result)
                return result
            finally:
                self.end(idx)

        return traced

    def patch(self, owner, attr: str, name: str, size=None, count=False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(name, original, size, count))

    def patch_modexp(self, module, fixed_bases: set[int]) -> None:
        """Wrap module.modexp, naming each call fixed- or variable-base by its base."""
        original = module.modexp
        fixed = self.wrapper("group_math.modexp.fixed", original)
        var = self.wrapper("group_math.modexp.var", original)

        def modexp(base, exp, p):
            return (fixed if base in fixed_bases else var)(base, exp, p)

        self._patches.append((module, "modexp", original))
        module.modexp = modexp

    def instrument_suite(self, suite, remember: bool = True):
        """Wrap the callable fields of one CryptoSuite instance in place."""
        data_len = lambda args, _result: len(args[-1])
        for attr in ("hash", "keyed_hash", "cipher_encrypt", "cipher_decrypt"):
            if not hasattr(suite, attr):
                continue
            name = "crypto_suite.cipher" if attr.startswith("cipher") else f"crypto_suite.{attr}"
            if remember:
                self.patch(suite, attr, name, size=data_len)
            else:
                setattr(suite, attr, self.wrapper(name, getattr(suite, attr), size=data_len))
        return suite

    def patch_factory(self, owner, attr: str) -> None:
        """Wrap a suite factory so that the suites it makes while recording are traced."""
        original = getattr(owner, attr)

        def make(*args, **kwargs):
            suite = original(*args, **kwargs)
            return self.instrument_suite(suite, remember=False) if self.recording else suite

        self._patches.append((owner, attr, original))
        setattr(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON list per line (times in µs from the first span)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            for s in self.spans:
                out.write(json.dumps([s[NAME], round((s[START] - t0) * 1e6, 3),
                                      round((s[END] - t0) * 1e6, 3), s[PARENT],
                                      s[SESSION], s[SIZE], s[COUNT]]) + "\n")


class SpanSummary:
    """Per-name durations, self times, sizes and counts of a finished trace."""

    def __init__(self, spans: list[list]):
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self.duration = defaultdict(list)
        self.self_time = defaultdict(list)
        self.size = defaultdict(int)
        self.counts = defaultdict(list)
        self.roots = 0.0        # wall time of the spans with no parent
        self.root_self = 0.0    # the part of it outside every library span
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            self.duration[s[NAME]].append(dur)
            self.self_time[s[NAME]].append(dur - child_time[i])
            self.size[s[NAME]] += s[SIZE]
            if s[COUNT] is not None:
                self.counts[s[NAME]].append(s[COUNT])
            if s[PARENT] < 0:
                self.roots += dur
                self.root_self += dur - child_time[i]
        self.children_of = defaultdict(float)  # (parent name, child name) -> time
        for s in spans:
            if s[PARENT] >= 0:
                parent = spans[s[PARENT]][NAME]
                self.children_of[(parent, s[NAME])] += s[END] - s[START]

    def calls(self, name: str) -> int:
        return len(self.duration.get(name, ()))

    def median_us(self, name: str, self_only: bool = True) -> float | None:
        values = (self.self_time if self_only else self.duration).get(name)
        return statistics.median(values) * 1e6 if values else None

    def total_self(self, prefix: str) -> float:
        return sum(sum(v) for k, v in self.self_time.items() if k.startswith(prefix))

    def total(self, name: str) -> float:
        return sum(self.duration.get(name, ()))

    def count_sum(self, *names: str) -> int:
        return sum(sum(self.counts.get(n, ())) for n in names)
