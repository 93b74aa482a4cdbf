"""R002 — kernel-contract conformance and cache-key/kernels isolation.

Kernel backends are bit-identical drop-ins (PERFORMANCE.md): a backend that
silently narrows the abstract contract — missing method, drifted signature,
shared mutable class state — can pass the equivalence suite on the inputs it
happens to see and still diverge in production.  And because backend
*selection* must never influence results, no code reachable from cache-key
computation may import the kernels package: a key that observes the selected
kernel would fragment the warm store by speed knob.

Checks, per class deriving (directly or transitively — stacked backends
like ``reference`` → ``array`` inherit the contract along with the code) from a
family base (``SFPKernel`` / ``SchedulerKernel``):

* every abstract method of the base (body = ``raise NotImplementedError``)
  is implemented somewhere along the inheritance chain; defects of an
  override (still abstract, drifted signature) are reported once, on the
  class that wrote it, not on every descendant that inherits it;
* an override's signature matches the base declaration exactly — same
  argument names, order, defaults, and the same varargs/kwargs shape
  (annotations are mypy's job, not this rule's);
* the *batch* contract methods (``batch_probability_exceeds`` /
  ``batch_schedule``) have a total scalar fallback in the base, so they are
  not abstract — but any override must still match the base signature
  exactly and stay implemented;
* the attributes ``name`` (non-empty) and ``description`` are declared on
  the class itself — stacked backends are distinct table entries and must
  not alias a parent's identity;
* no class-level assignment binds a mutable container (list/dict/set) —
  per-instance buffers belong in ``__init__``, shared class state breaks the
  one-instance-per-process isolation the parallel sweep relies on.

Plus, per cache-key module (``engine/fingerprint.py``, ``engine/store.py``):
the module's runtime import closure must not contain ``repro.kernels``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.model import Violation
from repro.lint.project import ClassInfo, FunctionNode, LintModule, Project
from repro.lint.registry import LintRule, register_rule

#: Family base classes whose subclasses must conform.
FAMILY_BASES: Tuple[str, ...] = (
    "repro.kernels.base.SFPKernel",
    "repro.kernels.sched_base.SchedulerKernel",
)

#: Class attributes every backend must declare.
REQUIRED_CLASS_ATTRS: Tuple[str, ...] = ("name", "description")

#: Non-abstract batch entry point per family base: total scalar fallback in
#: the base, exact-signature override required of any backend overriding it.
BATCH_CONTRACT_METHODS: Dict[str, str] = {
    "repro.kernels.base.SFPKernel": "batch_probability_exceeds",
    "repro.kernels.sched_base.SchedulerKernel": "batch_schedule",
}

#: Modules computing cache keys; their import closure must avoid kernels.
CACHE_KEY_MODULES: Tuple[str, ...] = (
    "repro.engine.fingerprint",
    "repro.engine.store",
)

#: Package that must stay unreachable from cache-key modules.
KERNELS_PACKAGE = "repro.kernels"

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}


@register_rule
class KernelContractRule(LintRule):
    """Backends implement the full contract; cache keys never see kernels."""

    rule_id = "R002"
    title = "kernel-contract conformance and cache-key isolation"
    rationale = (
        "backends must be bit-identical drop-ins with matching signatures, "
        "and kernel selection must never be observable from cache-key code"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for base_qualname in FAMILY_BASES:
            base = project.classes.get(base_qualname)
            if base is None:
                continue
            abstract = _abstract_methods(base)
            for subclass in _subclasses_of(project, base):
                yield from self._check_backend(project, subclass, base, abstract)
        yield from self._check_cache_key_isolation(project)

    # ------------------------------------------------------------------
    def _check_backend(
        self,
        project: Project,
        subclass: ClassInfo,
        base: ClassInfo,
        abstract: List[str],
    ) -> Iterator[Violation]:
        module = project.modules[subclass.module]
        for method_name in abstract:
            owner, implementation = _resolve_method(
                project, subclass, base, method_name
            )
            if implementation is None:
                yield self._violation(
                    module,
                    subclass,
                    subclass.node,
                    f"backend {subclass.name} does not implement abstract "
                    f"method {method_name}() of {base.name}",
                )
                continue
            if owner is not subclass:
                # Inherited from an intermediate backend; any defect of that
                # override is reported once, on the class that wrote it.
                continue
            if _still_abstract(implementation.node):
                yield self._violation(
                    module,
                    subclass,
                    implementation.node,
                    f"backend {subclass.name}.{method_name}() still raises "
                    f"NotImplementedError — the contract is unimplemented",
                )
                continue
            mismatch = _signature_mismatch(
                base.methods[method_name].node, implementation.node
            )
            if mismatch is not None:
                yield self._violation(
                    module,
                    subclass,
                    implementation.node,
                    f"backend {subclass.name}.{method_name}() signature "
                    f"drifts from {base.name}: {mismatch}",
                )
        yield from self._check_batch_contract(module, subclass, base)
        yield from self._check_class_attrs(module, subclass)
        yield from self._check_mutable_state(module, subclass)

    def _check_batch_contract(
        self,
        module: LintModule,
        subclass: ClassInfo,
        base: ClassInfo,
    ) -> Iterator[Violation]:
        batch_name = BATCH_CONTRACT_METHODS.get(base.qualname)
        if batch_name is None or batch_name not in base.methods:
            return
        override = subclass.methods.get(batch_name)
        if override is None:
            return
        if _still_abstract(override.node):
            yield self._violation(
                module,
                subclass,
                override.node,
                f"backend {subclass.name}.{batch_name}() raises "
                f"NotImplementedError — the batch contract is total; "
                f"inherit the scalar fallback instead of disabling it",
            )
            return
        mismatch = _signature_mismatch(base.methods[batch_name].node, override.node)
        if mismatch is not None:
            yield self._violation(
                module,
                subclass,
                override.node,
                f"backend {subclass.name}.{batch_name}() signature "
                f"drifts from {base.name}: {mismatch}",
            )

    def _check_class_attrs(
        self, module: LintModule, subclass: ClassInfo
    ) -> Iterator[Violation]:
        declared = _class_level_assignments(subclass.node)
        for attr in REQUIRED_CLASS_ATTRS:
            if attr not in declared:
                yield self._violation(
                    module,
                    subclass,
                    subclass.node,
                    f"backend {subclass.name} must declare the attribute "
                    f"{attr!r}",
                )
                continue
            value = declared[attr]
            if attr == "name" and isinstance(value, ast.Constant):
                if not (isinstance(value.value, str) and value.value):
                    yield self._violation(
                        module,
                        subclass,
                        value,
                        f"backend {subclass.name} declares an empty name",
                    )

    def _check_mutable_state(
        self, module: LintModule, subclass: ClassInfo
    ) -> Iterator[Violation]:
        for attr, value in _class_level_assignments(subclass.node).items():
            if value is None:
                continue
            if _is_mutable_literal(value):
                yield self._violation(
                    module,
                    subclass,
                    value,
                    f"backend {subclass.name}.{attr} is mutable class state "
                    f"shared by every instance; allocate per-instance "
                    f"buffers in __init__ instead",
                )

    def _check_cache_key_isolation(self, project: Project) -> Iterator[Violation]:
        for module_name in CACHE_KEY_MODULES:
            module = project.modules.get(module_name)
            if module is None:
                continue
            closure = project.runtime_import_closure(module_name)
            offenders = sorted(
                name
                for name in closure
                if name == KERNELS_PACKAGE or name.startswith(KERNELS_PACKAGE + ".")
            )
            if offenders:
                yield Violation(
                    rule=self.rule_id,
                    module=module.name,
                    path=module.path,
                    line=1,
                    column=0,
                    symbol="",
                    message=(
                        f"cache-key module {module_name} reaches the kernels "
                        f"package at runtime via {', '.join(offenders)}; "
                        f"kernel selection must not leak into cache keys"
                    ),
                )

    def _violation(
        self, module: LintModule, subclass: ClassInfo, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.rule_id,
            module=module.name,
            path=module.path,
            line=getattr(node, "lineno", subclass.node.lineno),
            column=getattr(node, "col_offset", 0),
            symbol=subclass.qualname,
            message=message,
        )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _resolved_bases(project: Project, class_info: ClassInfo) -> List[ClassInfo]:
    """The written base classes that resolve to project classes, in order."""
    module = project.modules[class_info.module]
    resolved = (
        project.resolve_base_class(module, written)
        for written in class_info.bases
    )
    return [base for base in resolved if base is not None]


def _derives_from(
    project: Project, class_info: ClassInfo, base: ClassInfo, seen: Set[str]
) -> bool:
    """Does ``class_info`` reach ``base`` through any chain of bases?"""
    if class_info.qualname in seen:
        return False
    seen.add(class_info.qualname)
    for parent in _resolved_bases(project, class_info):
        if parent is base or _derives_from(project, parent, base, seen):
            return True
    return False


def _subclasses_of(project: Project, base: ClassInfo) -> List[ClassInfo]:
    """All project classes deriving from ``base``, directly or transitively.

    Stacked backends (``array`` on top of ``reference``) inherit the
    family contract through intermediate classes, so a
    direct-bases-only scan would silently exempt exactly the backends most
    likely to drift.
    """
    result = [
        class_info
        for module in project.modules.values()
        for class_info in module.classes.values()
        if class_info is not base and _derives_from(project, class_info, base, set())
    ]
    return sorted(result, key=lambda info: info.qualname)


def _resolve_method(
    project: Project, class_info: ClassInfo, base: ClassInfo, method_name: str
) -> Tuple[Optional[ClassInfo], Optional[FunctionInfo]]:
    """Nearest definition of ``method_name`` below ``base``.

    Walks the inheritance chain breadth-first from ``class_info`` (written
    base order, cycle-guarded) and stops before the family base, so the
    base's own abstract declaration or scalar fallback never counts as an
    implementation.  Returns ``(owner, method)`` or ``(None, None)``.
    """
    queue: List[ClassInfo] = [class_info]
    seen: Set[str] = set()
    while queue:
        current = queue.pop(0)
        if current is base or current.qualname in seen:
            continue
        seen.add(current.qualname)
        method = current.methods.get(method_name)
        if method is not None:
            return current, method
        queue.extend(_resolved_bases(project, current))
    return None, None


def _abstract_methods(base: ClassInfo) -> List[str]:
    return sorted(
        name for name, info in base.methods.items() if _still_abstract(info.node)
    )


def _still_abstract(node: FunctionNode) -> bool:
    """Is the (docstring-stripped) body a single ``raise NotImplementedError``?"""
    body = list(node.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _signature_tuple(node: FunctionNode) -> Tuple[object, ...]:
    args = node.args
    return (
        tuple(a.arg for a in args.posonlyargs),
        tuple(a.arg for a in args.args),
        args.vararg.arg if args.vararg else None,
        tuple(a.arg for a in args.kwonlyargs),
        args.kwarg.arg if args.kwarg else None,
        tuple(ast.unparse(default) for default in args.defaults),
        tuple(
            ast.unparse(default) if default is not None else None
            for default in args.kw_defaults
        ),
    )


def _signature_mismatch(base: FunctionNode, override: FunctionNode) -> Optional[str]:
    base_signature = _signature_tuple(base)
    override_signature = _signature_tuple(override)
    if base_signature == override_signature:
        return None
    return (
        f"expected ({ast.unparse(base.args)}), "
        f"got ({ast.unparse(override.args)})"
    )


def _class_level_assignments(node: ast.ClassDef) -> dict:
    assignments: dict = {}
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    assignments[target.id] = statement.value
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                assignments[statement.target.id] = statement.value
    return assignments


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in _MUTABLE_CALLS
    return False
