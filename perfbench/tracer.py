"""Per-function timing wrappers for the traced benchmark run.

`install` replaces every public function of the given modules, in every
module namespace that holds it (so `from .x import y` aliases are timed
too), with a wrapper that aggregates into one `Stat` per function:
calls, total time and self time (total minus the time spent in wrapped
callees).  Generator functions are timed per `next()`, and the items they
produce are counted as `yielded`.  Nothing is kept per call, so hot
leaves cost a few counters each.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Stat:
    calls: int = 0
    yielded: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


# A probe sees (stat, args, result) after each call and adds work counts.
Probe = Callable[[Stat, tuple, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # one accumulator of wrapped-callee time per open span
        self._children: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, name: str, fn, probe: Probe | None = None):
        stat = self.stat(name)
        clock = self.clock
        children = self._children

        def close_span(started: float) -> None:
            dt = clock() - started
            stat.total_s += dt
            stat.self_s += dt - children.pop()
            if children:
                children[-1] += dt

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        children.append(0.0)
                        started = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close_span(started)
                        stat.yielded += 1
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            children.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(started)
            if probe is not None:
                probe(stat, args, result)
            return result
        return wrapper

    def install(self, modules, only: dict[str, set[str]] | None = None,
                methods: dict[type, tuple[str, ...]] | None = None,
                probes: dict[str, Probe] | None = None) -> None:
        """Wrap the public functions defined in `modules`.

        Stats are named `<module>.<qualname>` after the defining module's
        last dotted part.  `only` restricts a module (by that short name)
        to the listed functions; `methods` adds class methods by name.
        """
        only = only or {}
        probes = probes or {}
        defined = {m.__name__ for m in modules}
        wrappers: dict[int, object] = {}

        def key_of(fn) -> str:
            return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        def wrapped(fn):
            if id(fn) not in wrappers:
                key = key_of(fn)
                wrappers[id(fn)] = self.wrap(key, fn, probes.get(key))
            return wrappers[id(fn)]

        def wanted(fn) -> bool:
            if not inspect.isfunction(fn) or fn.__name__.startswith("_"):
                return False
            if fn.__module__ not in defined:
                return False
            short = fn.__module__.rsplit(".", 1)[-1]
            return short not in only or fn.__name__ in only[short]

        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if wanted(obj):
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapped(obj))
        for cls, names in (methods or {}).items():
            for name in names:
                fn = vars(cls)[name]
                self._saved.append((cls, name, fn))
                setattr(cls, name, wrapped(fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
