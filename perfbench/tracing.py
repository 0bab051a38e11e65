"""Layer tracer installed from outside the program.

The traced run wraps every public function and method of every
``repro`` module, records one span per call and one per resume of a
generator, and puts the original attributes back on :meth:`Tracer.uninstall`.
Nothing under ``src/`` knows about it.

A span is four numbers kept in flat arrays while the run is live:
the name id, the start and end (``time.perf_counter``) and the index of
the span that was open when it started (``-1`` at the root).  A
layer's self time is the sum over its spans of duration minus the
duration of their direct children.

Generator functions are not timed when called (the call only builds a
generator); the generator is handed back inside :class:`GenProxy`-style
objects that time each ``send``/``throw`` and pass values, exceptions,
``close`` and the return value through unchanged, so ``yield from`` and
the simcore kernel see the same protocol as before.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: The repo's packages that get per-layer metrics.  Every other
#: ``repro`` module (cluster, resilience, faults, parallel, analysis,
#: top-level modules) is traced too, under ``OTHER``, so its time is
#: not charged to whichever layer called it.
LAYERS = (
    "simcore", "network", "service", "storage", "client",
    "observability", "workloads", "scenarios", "experiments", "modis",
)
OTHER = "other"

#: Command-line front ends: never on a workload's call path.
SKIP_MODULES = ("repro.cli", "repro.__main__")

WRAPPER_MARK = "__perfbench_wrapper__"

PlainHook = Callable[[tuple, dict, Any], None]
GenHook = Callable[[Any, Optional[BaseException]], None]


def layer_of(module_name: str) -> str:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def import_all(package: str = "repro") -> List[Any]:
    """Import every module of ``package`` and return them sorted by name."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name not in SKIP_MODULES:
            importlib.import_module(info.name)
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if (name == package or name.startswith(package + "."))
        and name not in SKIP_MODULES
        and sys.modules[name] is not None
    ]


def is_wrapper(obj: Any) -> bool:
    func = getattr(obj, "__func__", obj)  # staticmethod / classmethod
    return getattr(func, WRAPPER_MARK, False) is True


def _mark(wrapper: Callable, fn: Callable) -> Callable:
    for attr in ("__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, None) or wrapper.__name__)
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    setattr(wrapper, WRAPPER_MARK, True)
    return wrapper


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Name table: index is the name id stored in each span.
        self.names: List[str] = []
        self.layers: List[str] = []
        #: Calls per name id (generator functions count creations).
        self.calls: List[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: List[int] = [-1]
        self._ids: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._plain_hooks: Dict[str, PlainHook] = {}
        self._gen_hooks: Dict[str, GenHook] = {}
        self.proxy_class = self._make_proxy_class()

    # -- hooks -------------------------------------------------------------
    def on_return(self, qualname: str, hook: PlainHook) -> None:
        """Call ``hook(args, kwargs, result)`` after each call of the
        plain function ``qualname`` (``module:Class.method``)."""
        self._plain_hooks[qualname] = hook

    def on_finish(self, qualname: str, hook: GenHook) -> None:
        """Call ``hook(return_value, exception)`` when a generator made
        by ``qualname`` returns or raises."""
        self._gen_hooks[qualname] = hook

    def name_id(self, qualname: str) -> int:
        return self._ids[qualname]

    # -- span recording ----------------------------------------------------
    def _make_proxy_class(self) -> type:
        ends = self.span_end
        name_app = self.span_name.append
        start_app = self.span_start.append
        end_app = ends.append
        parent_app = self.span_parent.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        perf = time.perf_counter

        class GenProxy:
            """Times each resume of ``gen`` as a span of name ``nid``."""

            __slots__ = ("_gen", "_nid", "_hook")

            def __init__(self, gen: GeneratorType, nid: int,
                         hook: Optional[GenHook]) -> None:
                self._gen = gen
                self._nid = nid
                self._hook = hook

            def __iter__(self) -> "GenProxy":
                return self

            def _resume(self, method: Callable, *args: Any) -> Any:
                i = len(ends)
                name_app(self._nid)
                parent_app(stack[-1])
                end_app(0.0)
                push(i)
                start_app(perf())
                try:
                    return method(*args)
                except StopIteration as stop:
                    if self._hook is not None:
                        self._hook(stop.value, None)
                    raise
                except BaseException as exc:
                    if self._hook is not None:
                        self._hook(None, exc)
                    raise
                finally:
                    ends[i] = perf()
                    pop()

            def send(self, value: Any = None) -> Any:
                return self._resume(self._gen.send, value)

            __next__ = send

            def throw(self, *args: Any) -> Any:
                return self._resume(self._gen.throw, *args)

            def close(self) -> None:
                self._gen.close()

            def __getattr__(self, name: str) -> Any:
                # __name__, gi_frame, gi_running, ... of the real generator.
                return getattr(self._gen, name)

        return GenProxy

    def _register(self, qualname: str, layer: str) -> int:
        nid = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        self.calls.append(0)
        self._ids[qualname] = nid
        return nid

    def _wrap(self, fn: Callable, qualname: str, layer: str) -> Callable:
        return self._wrapper(fn, self._register(qualname, layer))

    def _wrapper(self, fn: Callable, nid: int) -> Callable:
        calls = self.calls
        proxy = self.proxy_class
        gen_hook = self._gen_hooks.get(self.names[nid])

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[nid] += 1
                return proxy(fn(*args, **kwargs), nid, gen_hook)
        else:
            ends = self.span_end
            name_app = self.span_name.append
            start_app = self.span_start.append
            end_app = ends.append
            parent_app = self.span_parent.append
            stack = self._stack
            push = stack.append
            pop = stack.pop
            perf = time.perf_counter
            hook = self._plain_hooks.get(self.names[nid])

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[nid] += 1
                i = len(ends)
                name_app(nid)
                parent_app(stack[-1])
                end_app(0.0)
                push(i)
                start_app(perf())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = perf()
                    pop()
                if hook is not None:
                    hook(args, kwargs, result)
                if type(result) is GeneratorType:
                    return proxy(result, nid, gen_hook)
                return result

        return _mark(wrapper, fn)

    # -- install / uninstall -----------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules: List[Any]) -> None:
        """Wrap the public functions and methods defined in ``modules``.

        Module-level functions are then re-bound in every module that
        imported them by name, so ``from x import f`` call sites are
        traced too.  References captured in containers at import time
        (registries, dispatch tables) keep the original and are charged
        to their caller's span.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_original: Dict[int, Callable] = {}
        for mod in modules:
            layer = layer_of(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(
                        obj, f"{mod.__name__}:{obj.__qualname__}", layer
                    )
                    by_original[id(obj)] = wrapped
                    self._patch(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, mod.__name__, layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapped = by_original.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapped is not None and wrapped.__wrapped__ is obj:  # type: ignore[attr-defined]
                    self._patch(mod, attr, wrapped)

    def _wrap_class(self, cls: type, module: str, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{module}:{cls.__qualname__}.{attr}"
            if inspect.isfunction(member):
                new: Any = self._wrap(member, qualname, layer)
            elif isinstance(member, (staticmethod, classmethod)):
                new = type(member)(self._wrap(member.__func__, qualname, layer))
            else:
                continue
            try:
                self._patch(cls, attr, new)
            except (AttributeError, TypeError):
                self._patches.pop()  # class refuses attribute assignment

    def wrap_instance_attrs(self, cls: type, attrs: Tuple[str, ...]) -> None:
        """Also trace callables that ``cls.__init__`` stores on each
        instance under ``attrs`` (pre-bound fast paths that shadow the
        class's methods), counting them under the methods' names."""
        prefix = f"{cls.__module__}:{cls.__qualname__}."
        layer = layer_of(cls.__module__)
        nids = {
            a: self._ids[prefix + a] if prefix + a in self._ids
            else self._register(prefix + a, layer)
            for a in attrs
        }
        init = cls.__dict__["__init__"]
        make = self._wrapper

        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            for attr, nid in nids.items():
                setattr(obj, attr, make(getattr(obj, attr), nid))

        self._patch(cls, "__init__", _mark(__init__, init))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.span_end)

    def self_times(self) -> np.ndarray:
        """Self time (seconds) per name id."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        n = len(dur)
        child = np.bincount(parents + 1, weights=dur, minlength=n + 1)[1:]
        return np.bincount(
            names, weights=dur - child, minlength=len(self.names)
        )

    def write_spans(self, path: str) -> None:
        """Write the name table and the span arrays as one ``.npz``."""
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_start=np.frombuffer(self.span_start),
            span_end=np.frombuffer(self.span_end),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
