"""Spans around the benchmark's calls into the library.

The benchmark reaches mpotomo only through a namespace holding its modules.
In a traced round each module is replaced by a proxy that records one span
(name, start, end, parent span, group) around every call to a public
function. Spans stay in memory and are written out when the run ends.
Classes such as ReconstructionConfig pass through the proxy untouched.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import SimpleNamespace

MODULES = ("pauli", "operators", "states", "measurement", "reconstruction",
           "metrics", "sweep", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    group: int | str | None


class Tracer:
    """In-memory span recorder.

    `group` tags new spans: the job index inside a job, "setup<i>" inside
    the i-th set-up, None in probes.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.group: int | str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, self.group))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def layer_seconds(self, name: str) -> float:
        """Seconds a layer takes, or 0.0 if the run never called it.

        The median over traced jobs of the time each job spent in `name`;
        for a function no job calls, the same over set-up runs; for one
        called only in probes, the median per call.
        """
        spans = [s for s in self.spans if s.name == name]
        for kind in (int, str):
            per_group: dict = defaultdict(float)
            for s in spans:
                if isinstance(s.group, kind):
                    per_group[s.group] += s.end - s.start
            if per_group:
                return statistics.median(per_group.values())
        calls = [s.end - s.start for s in spans]
        return statistics.median(calls) if calls else 0.0

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def span_name(qualname: str, args, kwargs) -> str:
    """Span name of one call; CLI calls and reconstructions are split.

    `cli.main` is named after its subcommand and `reconstruct_mpo` after
    its regularizer, so that each shows as its own layer.
    """
    if qualname == "cli.main":
        argv = args[0] if args else kwargs["argv"]
        return f"cli.{argv[0]}"
    if qualname == "reconstruction.reconstruct_mpo":
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        mode = cfg.regularizer.mode if cfg is not None else "truncated_pinv"
        return f"{qualname}.{mode}"
    return qualname


class TracedModule:
    """Proxy for one mpotomo module that spans every public function call."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._prefix = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, attr):
        obj = getattr(self._module, attr)
        if attr.startswith("_") or not inspect.isfunction(obj):
            return obj
        qualname = f"{self._prefix}.{attr}"
        tracer = self._tracer

        def traced(*args, **kwargs):
            with tracer.span(span_name(qualname, args, kwargs)):
                return obj(*args, **kwargs)

        return traced


def library(tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace of the mpotomo modules, traced when a tracer is given."""
    mods = {n: importlib.import_module(f"mpotomo.{n}") for n in MODULES}
    if tracer is not None:
        mods = {n: TracedModule(m, tracer) for n, m in mods.items()}
    return SimpleNamespace(**mods)
