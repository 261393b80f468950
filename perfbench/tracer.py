"""In-memory span tracing of aracodes' public functions, from outside.

``Tracer.patched()`` replaces each traced function at every place it is
looked up: every ``aracodes`` module attribute bound to the function
object (``cli`` and ``sim`` import ``build_catalog_pair`` by name,
``codec.decode`` reads ``peel_decode`` and ``outer_decode`` as module
globals) and, for methods, the class attribute.  A target that no longer
exists raises at patch time, and ``require_fired`` raises for a target
that never produced a span, so a rename cannot drop a layer silently.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _note_p(args, kwargs, result):
    return float(args[1] if len(args) > 1 else kwargs["p"])


def _note_result(args, kwargs, result):
    return result


def _note_unresolved(args, kwargs, result):
    return (bool(result.success), float(result.unresolved_after_peel), bool(result.rescued_by_outer))


#: (module, qualified name, note) for every traced function.  ``note``
#: keeps a small value from the call for counts that must repeat exactly.
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("constructions", "build_catalog_pair", None),
    ("powerseries", "PowerSeries.__call__", None),
    ("powerseries", "reciprocal", None),
    ("tilting", "threshold_search", None),
    ("tilting", "de_residual", None),
    ("tilting", "truncate_pair", None),
    ("tilting", "stability", None),
    ("nonneg", "polya_verify", lambda a, k, r: r.verdict),
    ("nonneg", "first_coefficients_min", None),
    ("codec", "instantiate", None),
    ("codec", "encode", None),
    ("codec", "graph_reduce_instance", None),
    ("codec", "peel_decode", _note_result),
    ("codec", "outer_decode", _note_result),
    ("codec", "decode", _note_unresolved),
    ("codec", "ml_reference_decode", None),
    ("codec", "gf2_eliminate", None),
    ("sim", "bec_channel", _note_p),
    ("sim", "run_sweep", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    note: object = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items()) if n == "aracodes" or n.startswith("aracodes.")]
        undo = []
        try:
            for mod_name, qualname, note in TARGETS:
                module = importlib.import_module(f"aracodes.{mod_name}")
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                if attr not in vars(owner):
                    raise AttributeError(f"traced target {mod_name}.{qualname} no longer exists")
                orig = vars(owner)[attr]
                wrapper = self._wrap(f"{mod_name}.{qualname}", orig, note)
                for site in [owner] if owner_name else modules:
                    for key, value in list(vars(site).items()):
                        if value is orig:
                            setattr(site, key, wrapper)
                            undo.append((site, key, orig))
            yield self
        finally:
            for site, key, orig in reversed(undo):
                setattr(site, key, orig)

    def require_fired(self) -> None:
        """Raise unless every target produced at least one span."""
        fired = {s.name for s in self.spans}
        missing = [f"{m}.{q}" for m, q, _ in TARGETS if f"{m}.{q}" not in fired]
        if missing:
            raise RuntimeError(f"traced spans never fired: {', '.join(missing)}")

    def child_ms(self) -> list[float]:
        """Per span, the time covered by its direct children (self = ms - child_ms)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.ms
        return covered

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows: name, start, end, parent, note."""
        return [[s.name, s.start, s.end, s.parent, _jsonable(s.note)] for s in self.spans]


def _jsonable(note):
    return list(note) if isinstance(note, tuple) else note
