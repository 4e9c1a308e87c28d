"""Call tracing from outside the program.

``Tracer`` replaces the public functions, class constructors and public
methods of the traced modules with timing wrappers, and restores the
originals on exit.  Functions are also replaced wherever another module
of the package bound them by name (``from .qmath import derive_rng``),
and constructors are traced through the class's ``__post_init__`` (or
``__init__``), so constructions through any binding of the class are
seen.  The wrappers read only the clock: they consume no random draw and
change no output.

Each record is keyed by (callee, caller) over the traced names, so a
call can be attributed to the span that caused it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "ipea_sim"
LAYERS = ("qmath", "photonics", "qpe", "tomography", "config", "experiments", "cli")


class Tracer:
    def __init__(self, keep_instances=()):
        # (name, parent) -> [calls, inclusive seconds]
        self.records: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0])
        self.instances: dict[str, list] = defaultdict(list)
        self._keep = set(keep_instances)
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, constructor: bool = False):
        records, stack = self.records, self._stack
        keep = constructor and name.rsplit(".", 1)[0] in self._keep
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                rec = records[(name, parent)]
                rec[0] += 1
                rec[1] += elapsed
                if keep:
                    self.instances[name.rsplit(".", 1)[0]].append(args[0])

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        wrappers = {}  # original function -> its wrapper
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(f"{layer}.{attr}", obj)
        # Replace the function in its own module and in every module that
        # imported it by name.
        for module in modules + [sys.modules[PACKAGE]]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        return self

    def _patch_class(self, name: str, cls) -> None:
        ctor = "__post_init__" if "__post_init__" in vars(cls) else "__init__"
        if inspect.isfunction(vars(cls).get(ctor)):
            self._patch(cls, ctor, self._wrap(f"{name}.{ctor}", vars(cls)[ctor], True))
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"{name}.{attr}", obj))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries -------------------------------------------------------

    def calls(self, name: str, exclude_parents=()) -> int:
        return sum(r[0] for (n, parent), r in self.records.items()
                   if n == name and parent not in exclude_parents)

    def seconds(self, name: str, exclude_parents=()) -> float:
        return sum(r[1] for (n, parent), r in self.records.items()
                   if n == name and parent not in exclude_parents)
