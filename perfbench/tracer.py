"""In-memory span tracer for the traced benchmark run.

The tracer wraps the package's public functions from the outside: each
wrapped callable opens a span on entry and closes it on exit.  A span records
its name, start, end, parent span and operation id, plus an optional grid
size used to split latencies.  Spans stay in a list until the run writes them
out at the end.  Self time is a span's duration minus the durations of its
direct children, so nested layers never count the same interval twice.

Wrappers are installed at every module binding that refers to the original
object (for example ``multiply`` is bound in ``spectral``, ``elliptic``,
``evolution``, ``paraproduct``, ``cli`` and the package root), so calls made
from inside the package are seen as well as calls made by the benchmark.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index, op id, grid n].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str, n: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.op, n])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top was {popped}")

    def active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def summary(self) -> dict:
        """Per-name calls, self seconds, and latency samples by grid size."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _n in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        latency: dict[tuple[str, int], list[float]] = defaultdict(list)
        for i, (name, start, end, _parent, _op, n) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            latency[(name, n)].append(dur)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "latency": dict(latency),
            "counters": dict(self.counters),
        }


class TraceSession:
    """Installs wrappers once and routes them to the tracer of the current pass."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self.installed: list[str] = []

    # -- wrapper factories ---------------------------------------------------

    def span_wrapper(self, name, fn, *, label=None, size=None, after=None):
        """Wrap ``fn`` in a span called ``name`` (plus ``.label(args)`` if given)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            span = name if label is None else f"{name}.{label(args, kwargs)}"
            idx = tr.open(span, size(args, kwargs) if size is not None else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if after is not None:
                after(tr, result, args, kwargs)
            return result

        return traced

    def counter_wrapper(self, fn, after):
        """Wrap ``fn`` so that ``after`` can count its work, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tr = self.tracer
            if tr is not None:
                after(tr, result, args, kwargs)
            return result

        return counted

    # -- installation --------------------------------------------------------

    def rebind_function(self, module, attr: str, wrapper_of, package: str) -> None:
        """Replace every binding of ``module.attr`` inside ``package``."""
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    bound += 1
                    self.installed.append(f"{mod_name}.{key}")
        if bound == 0:
            raise RuntimeError(f"no binding of {module.__name__}.{attr} found to wrap")

    def rebind_method(self, cls, attr: str, wrapper_of) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrapper_of(raw.__func__)))
        else:
            setattr(cls, attr, wrapper_of(raw))
        self.installed.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")

    def rebind_module_attr(self, module, attr: str, wrapper_of) -> None:
        setattr(module, attr, wrapper_of(getattr(module, attr)))
        self.installed.append(f"{module.__name__}.{attr}")


def write_spans(path: str, passes: list[Tracer]) -> None:
    """Write every recorded span as CSV: pass,name,start,end,parent,op,n."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,name,start,end,parent,op,n\n")
        for k, tr in enumerate(passes):
            for name, start, end, parent, op, n in tr.spans:
                fh.write(f"{k},{name},{start:.9f},{end:.9f},{parent},{op},{n}\n")
