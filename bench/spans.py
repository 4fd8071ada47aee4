"""In-memory span tracing of brushdyn's layers, installed from outside.

A Tracer replaces the public functions of the layer modules with wrappers
that record one span (name, start, end, parent) per call. Nothing in
``src/`` changes; the wrappers live only in the process that installs them
and are removed again by ``Tracer.uninstall``.

Run as a script, this module is the traced stand-in for
``python -m brushdyn``:

    PYTHONPATH=src python bench/spans.py SPANS.json COMMAND [ARGS...]

It installs the wrappers, runs ``brushdyn.cli.main`` with the given
arguments, writes the spans and counts to SPANS.json and exits with main's
code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter
from typing import Callable

# Layer modules of the package, in the order they are reported.
LAYERS = ("config", "regime1", "classify", "regime2", "sweep", "cli")

# cli's other functions run only inside main (the subcommands through a
# dispatch table a module attribute cannot reach), so their cost is
# main's self time.
_CLI_ENTRY = ("main",)


def _count_simulate(counts: Counter, args: tuple, kwargs: dict, traj) -> None:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    counts["regime2.simulate.samples"] += len(traj.samples)
    counts["regime2.simulate.cycles"] += len(traj.cycle_peaks)
    # The SimConfig time grid: t_k = k*dt up to the last full step in t_end.
    counts["regime2.simulate.steps"] += math.floor(cfg.t_end / cfg.dt + 1e-9)


def _count_sweep(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["sweep.rows"] += len(result.rows)
    for row in result.rows:
        counts[f"sweep.status.{row.status}"] += 1


# Work counted from the arguments and result of a successful call, where
# the work happens.
COUNTERS = {"regime2.simulate": _count_simulate, "sweep.run_sweep": _count_sweep}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent]


class Tracer:
    """Records spans around calls into the wrapped functions, and the
    COUNTERS of their work."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original: Callable) -> Callable:
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module of brushdyn.

        Every module attribute bound to a wrapped function is replaced, so
        ``from .config import load_config`` bindings in other modules are
        traced too.
        """
        modules = {
            layer: importlib.import_module(f"brushdyn.{layer}") for layer in LAYERS
        }
        wrappers: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and (layer != "cli" or attr in _CLI_ENTRY)
                ):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            covered[span.parent].append((span.start, span.end))
    result = []
    for span, children in zip(spans, covered):
        busy = 0.0
        last_end = span.start
        for start, end in sorted(children):
            start = max(start, last_end)
            if end > start:
                busy += end - start
                last_end = end
        result.append((span.end - span.start) - busy)
    return result


def _traced_cli(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from brushdyn import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": [span.as_list() for span in tracer.spans],
                 "counts": tracer.counts},
                handle,
            )
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_cli(sys.argv[1:]))
