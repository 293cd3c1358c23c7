"""Spans and counts around calls into the dqc1lpn modules, taken from outside.

The program is not edited: ``Tracer.install`` replaces every public function
of the seven modules with a wrapper, both where it is defined and wherever
another module bound the same function by name (``lpn.kron_all``,
``dqc1.embed``, ``noise.embed``, ``cli.as_bits``, ...), and ``uninstall``
puts the originals back. The oracle closure is wrapped by wrapping the value
``lpn.make_oracle`` returns.

A span is (name, start, end, parent, job, self seconds); self seconds are the
duration minus the time of the direct child spans. Spans stay in memory and
are written out by ``write`` when the run ends. Counts are kept per job:
``<name>.calls`` for every wrapped function, plus the work counts below.
``*.bytes`` and ``*.flops`` are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "lpn", "dqc1", "circuits", "qstate", "noise", "infomeasures")


def _matmul_flops(dim: int) -> int:
    """Real flops of one dense complex dim x dim matmul (8 per multiply-add)."""
    return 8 * dim**3


def _learn_counts(args, kwargs, result):
    hidden = getattr(args[0], "hidden", None)
    wrong = sum(int(a) != b for a, b in zip(result.s_hat, hidden)) if hidden else 0
    return {
        "lpn.queries": sum(step.queries for step in result.steps),
        "lpn.wrong_bits": wrong,
    }


def _shot_counts(bind):
    def counts(args, kwargs, result):
        call = bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        return {"dqc1.shots": a["L"] * a["Q"] * len(a["observables"])}
    return counts


def _count_hooks(package) -> dict:
    """Span name -> fn(args, kwargs, result) -> {count name: amount}."""
    return {
        "lpn.learn": _learn_counts,
        "dqc1.sample_expectations": _shot_counts(
            inspect.signature(package.dqc1.sample_expectations).bind
        ),
        "circuits.kron_all": lambda a, k, r: {"circuits.kron_all.bytes": r.nbytes},
        # U rho U^dag: two matmuls
        "qstate.apply_unitary": lambda a, k, r: {
            "qstate.apply_unitary.flops": 2 * _matmul_flops(a[0].dim)
        },
        # sum_i K_i rho K_i^dag: two matmuls per Kraus operator
        "qstate.apply_channel": lambda a, k, r: {
            "qstate.apply_channel.flops": 2 * len(a[1].operators) * _matmul_flops(a[0].dim)
        },
        "infomeasures.quantum_discord": lambda a, k, r: {
            "infomeasures.discord_evals": r.iterations
        },
    }


class Tracer:
    def __init__(self, package_name: str = "dqc1lpn"):
        self.package = importlib.import_module(package_name)
        self.modules = {m: importlib.import_module(f"{package_name}.{m}") for m in MODULES}
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.job = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._hooks = _count_hooks(self.package)
        self._patches = self._plan()

    def _plan(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every binding to wrap."""
        names = {}
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        make_oracle = self.modules["lpn"].make_oracle
        wrappers[make_oracle] = self._wrap("lpn.make_oracle", self._oracle_factory(make_oracle))
        patches = []
        for mod in (self.package, *self.modules.values()):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        return patches

    def _oracle_factory(self, make_oracle):
        @functools.wraps(make_oracle)
        def factory(s, *args, **kwargs):
            oracle = self._wrap("lpn.oracle", make_oracle(s, *args, **kwargs))
            oracle.hidden = [int(b) for b in s]
            return oracle
        return factory

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self.counts[self.job]
            counts[calls] += 1
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[index] = (name, start, end, parent, self.job, duration - frame[1])
                if self._stack:
                    self._stack[-1][1] += duration
            if hook is not None:
                counts.update(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def seconds(self, jobs) -> tuple[Counter, Counter]:
        """Inclusive and self seconds per span name over the given jobs."""
        jobs = set(jobs)
        inclusive, own = Counter(), Counter()
        for name, start, end, _, job, self_s in self.spans:
            if job in jobs:
                inclusive[name] += end - start
                own[name] += self_s
        return inclusive, own

    def total_counts(self, jobs) -> Counter:
        total = Counter()
        for job in jobs:
            total.update(self.counts.get(job, {}))
        return total

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job, self_s in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job, "self_s": self_s}))
                handle.write("\n")
