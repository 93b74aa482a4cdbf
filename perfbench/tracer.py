"""Layer spans recorded from outside the program.

The tracer wraps public functions and methods of the ``repro`` package at
run time and restores them afterwards; no file of the package changes.
Each wrapped call opens a span on a stack.  A layer's *self time* is the
duration of its spans minus the part covered by child spans, so nested
layers (the scheduler kernel inside the redundancy optimizer inside the
mapping search) are never counted twice.

Functions imported by name (``from repro.engine.fingerprint import
stable_context_fingerprint``) are bound in every importing module, so a
function is replaced at every ``repro.*`` module attribute that refers to
it: its use sites, not only its definition.  Methods are replaced on the
defining class and on every subclass that overrides them.

Hooks (``before`` / ``after``) gather counts such as bytes written; their
cost is recorded as ``bookkeeping_s`` and excluded from every layer.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[..., Any]


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found


class Tracer:
    """Span stack, per-layer self time, call counts and extra counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.bookkeeping_s = 0.0
        # One [child_seconds] cell per open span.
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the tallies (the patches stay installed)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.bookkeeping_s = 0.0

    def wrap(
        self,
        layer: str,
        function: Callable[..., Any],
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> Callable[..., Any]:
        """Return ``function`` wrapped in a span of ``layer``.

        ``before(tracer, args)`` runs ahead of the span and its return value
        is handed to ``after(tracer, args, result, token)``, which runs once
        the span has closed.
        """
        tracer = self
        stack = self._stack

        @wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = None
            if before is not None:
                token = tracer._bookkeep(before, tracer, args)
            tracer.calls[layer] += 1
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tracer.self_s[layer] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                tracer._bookkeep(after, tracer, args, result, token)
            return result

        return traced

    def _bookkeep(self, hook: Hook, *args: Any) -> Any:
        start = perf_counter()
        try:
            return hook(*args)
        finally:
            elapsed = perf_counter() - start
            self.bookkeeping_s += elapsed
            if self._stack:
                # Keep hook cost out of the enclosing layer's self time.
                self._stack[-1][0] += elapsed

    # ------------------------------------------------------------------
    def patch_function(
        self,
        layer: str,
        module_name: str,
        name: str,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> None:
        """Wrap ``module_name.name`` wherever a ``repro`` module binds it.

        A missing module or attribute raises: a renamed or moved function
        must fail the traced run, not silently drop its layer.
        """
        original = getattr(importlib.import_module(module_name), name)
        traced = self.wrap(layer, original, before, after)
        for module in list(sys.modules.values()):
            module_id = getattr(module, "__name__", "") or ""
            if module_id != "repro" and not module_id.startswith("repro."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, traced)

    def patch_method(
        self,
        layer: str,
        cls: type,
        name: str,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> None:
        """Wrap ``cls.name`` where it is defined and every override of it.

        The search starts at the class of ``cls``'s method resolution order
        that defines ``name``, so an inherited method is wrapped once for
        all the classes sharing it.
        """
        owner = next((k for k in cls.__mro__ if name in vars(k)), None)
        if owner is None or not callable(vars(owner)[name]):
            raise AttributeError(f"{cls.__name__}.{name} is not a method")
        for klass in _subclasses(owner):
            original = vars(klass).get(name)
            if original is not None:
                self._set(klass, name, self.wrap(layer, original, before, after))

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
