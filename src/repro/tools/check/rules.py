"""The five project-invariant rule families of ``repro check``.

Each rule is a pure AST pass — nothing here imports or executes the
code under scrutiny, so the checker can run on broken trees and on
known-bad test corpora alike.  Rule ids (stable, used in
``# repro: ignore[...]`` suppressions and ``--rule`` selection):

``determinism``
    No wall-clock, entropy, or unseeded RNG in the study-producing
    layers; randomness must flow from seeded ``repro.util.rng``
    streams.  Also bans iterating directly over set displays or bare
    ``set()``/``frozenset()`` calls, whose order leaks hash
    randomization into output.

``lock-discipline``
    Attributes declared via :func:`repro.util.concurrency.guarded_by`
    may only be touched inside ``with self.<lock>:`` (``__init__``
    excepted — the object is not yet shared there).

``merge-algebra``
    A class that defines ``merge`` is a combinable state and
    must also define ``state_dict``/``from_state`` and be listed in
    the differential harness registry, so the merge laws stay tested.

``hot-path``
    Classes on the per-row hot path declare ``__slots__`` (and only
    assign declared slots); designated hot scan functions allocate no
    objects inside their loops.

``wire-symmetry``
    ``from_dict`` may only read keys its ``to_dict`` writes, and the
    checkpoint payload schema (``state_dict`` key fingerprints of the
    registered merge-algebra classes) must match the committed
    snapshot, with ``CHECKPOINT_VERSION`` bumped on any change.
"""

from __future__ import annotations

import ast
import json

from repro.tools.check import Finding, Module, Project, Rule

# ---------------------------------------------------------------------------
# shared AST helpers


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _module_dotted(relpath: str) -> str:
    """Import path of a project-relative source file.

    ``src/repro/core/episodes.py`` -> ``repro.core.episodes``.
    """
    path = relpath
    if path.startswith("src/"):
        path = path[len("src/") :]
    if path.endswith("/__init__.py"):
        path = path[: -len("/__init__.py")]
    elif path.endswith(".py"):
        path = path[: -len(".py")]
    return path.replace("/", ".")


def _finding(
    rule: "Rule", module: Module, node: ast.AST, message: str
) -> Finding:
    return Finding(
        rule=rule.id,
        severity=rule.default_severity,
        path=module.relpath,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


def _class_methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    """Directly defined methods of a class, by name."""
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _decorator_call(node: ast.expr) -> tuple[str | None, ast.Call | None]:
    """(callable name, Call node) of a decorator expression."""
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return (name.rsplit(".", 1)[-1] if name else None, node)
    name = _dotted(node)
    return (name.rsplit(".", 1)[-1] if name else None, None)


def _string_args(call: ast.Call) -> list[str]:
    return [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]


def _dict_written_keys(func: ast.FunctionDef) -> set[str]:
    """String keys a function writes: dict-literal keys + subscript
    stores (``payload["key"] = ...``), at any nesting depth."""
    keys: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Store
        ):
            if isinstance(node.slice, ast.Constant) and isinstance(
                node.slice.value, str
            ):
                keys.add(node.slice.value)
    return keys


def _dict_read_keys(func: ast.FunctionDef) -> set[str]:
    """String keys a function reads from mapping payloads: constant
    subscript loads, ``.get(...)``/``.pop(...)`` first arguments, and
    constant left operands of ``in``/``not in``."""
    keys: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Load
        ):
            if isinstance(node.slice, ast.Constant) and isinstance(
                node.slice.value, str
            ):
                keys.add(node.slice.value)
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "pop")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                keys.add(node.args[0].value)
        elif isinstance(node, ast.Compare):
            if (
                isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
                and any(
                    isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
                )
            ):
                keys.add(node.left.value)
    return keys


# ---------------------------------------------------------------------------
# determinism


#: Fully-qualified callables banned in deterministic layers.
_BANNED_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived id",
    "uuid.uuid4": "OS entropy",
}

#: Module prefixes where every call is banned (entropy sources).
_BANNED_PREFIXES = ("secrets.",)


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local alias -> canonical dotted path, from top-level imports."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


class DeterminismRule(Rule):
    id = "determinism"
    description = (
        "no wall clock, entropy, or unseeded RNG in study-producing "
        "code; no iteration over bare sets"
    )
    default_paths = (
        "src/repro/core",
        "src/repro/analysis",
        "src/repro/scenario",
    )

    def check(self, module: Module, options: dict, project: Project):
        aliases = _import_map(module.tree)

        def resolve(func: ast.expr) -> str | None:
            dotted = _dotted(func)
            if dotted is None:
                return None
            head, _, rest = dotted.partition(".")
            canonical = aliases.get(head)
            if canonical is None:
                return None
            return f"{canonical}.{rest}" if rest else canonical

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                resolved = resolve(node.func)
                if resolved is None:
                    continue
                reason = _BANNED_CALLS.get(resolved)
                if reason is not None:
                    yield _finding(
                        self,
                        module,
                        node,
                        f"call to {resolved} ({reason}) breaks "
                        "reproducibility; derive values from the study "
                        "inputs or a repro.util.rng stream",
                    )
                elif resolved.startswith(_BANNED_PREFIXES):
                    yield _finding(
                        self,
                        module,
                        node,
                        f"call to {resolved} (OS entropy) breaks "
                        "reproducibility",
                    )
                elif resolved == "random.Random" or resolved.endswith(
                    ".random.Random"
                ):
                    if not node.args and not node.keywords:
                        yield _finding(
                            self,
                            module,
                            node,
                            "unseeded random.Random() seeds from OS "
                            "entropy; pass a seed derived via "
                            "repro.util.rng",
                        )
                elif resolved.startswith("random."):
                    yield _finding(
                        self,
                        module,
                        node,
                        f"module-level {resolved}() uses the shared, "
                        "unseeded global RNG; use a repro.util.rng "
                        "stream",
                    )
                elif resolved.startswith("numpy.random.") or resolved.startswith(
                    "np.random."
                ):
                    if resolved.endswith(".default_rng") and (
                        node.args or node.keywords
                    ):
                        continue
                    yield _finding(
                        self,
                        module,
                        node,
                        f"{resolved} bypasses the seeded "
                        "repro.util.rng streams",
                    )
            elif isinstance(node, ast.For):
                yield from self._set_iteration(module, node.iter)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                for generator in node.generators:
                    yield from self._set_iteration(module, generator.iter)

    def _set_iteration(self, module: Module, iterable: ast.expr):
        bare_set = isinstance(iterable, ast.Set) or (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        )
        if bare_set:
            yield _finding(
                self,
                module,
                iterable,
                "iterating a bare set leaks hash-randomized order into "
                "downstream output; wrap it in sorted()",
            )


# ---------------------------------------------------------------------------
# lock discipline


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    description = (
        "attributes declared with @guarded_by are only touched inside "
        "`with self.<lock>`"
    )
    default_paths = ("src/repro/api",)

    def check(self, module: Module, options: dict, project: Project):
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guarded: dict[str, str] = {}
            for decorator in cls.decorator_list:
                name, call = _decorator_call(decorator)
                if name != "guarded_by" or call is None:
                    continue
                strings = _string_args(call)
                if len(strings) >= 2:
                    lock = strings[0]
                    for attribute in strings[1:]:
                        guarded[attribute] = lock
            if not guarded:
                continue
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name == "__init__":
                    continue
                yield from self._check_method(module, cls, method, guarded)

    def _check_method(
        self,
        module: Module,
        cls: ast.ClassDef,
        method: ast.FunctionDef,
        guarded: dict[str, str],
    ):
        held_locks: set[str] = set()

        def visit(node: ast.AST):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = set()
                for item in node.items:
                    dotted = _dotted(item.context_expr)
                    if dotted and dotted.startswith("self."):
                        lock = dotted[len("self.") :]
                        if lock not in held_locks:
                            acquired.add(lock)
                    # the context expressions themselves run unlocked
                    yield from visit(item.context_expr)
                held_locks.update(acquired)
                for child in node.body:
                    yield from visit(child)
                held_locks.difference_update(acquired)
                return
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted and dotted.startswith("self."):
                    attribute = dotted[len("self.") :].split(".")[0]
                    lock = guarded.get(attribute)
                    if lock is not None and lock not in held_locks:
                        yield _finding(
                            self,
                            module,
                            node,
                            f"{cls.name}.{attribute} is @guarded_by"
                            f'("{lock}") but {method.name}() touches it '
                            f"outside `with self.{lock}`",
                        )
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        for statement in method.body:
            yield from visit(statement)


# ---------------------------------------------------------------------------
# merge algebra


def _registry_entries(project: Project, registry_rel: str) -> set[str] | None:
    """Dotted class names in the harness ``MERGE_ALGEBRA_REGISTRY``.

    ``None`` when the registry file or the tuple is missing.
    """
    path = project.root / registry_rel
    if not path.is_file():
        return None
    try:
        registry_module = project.module(path)
    except SyntaxError:
        return None
    for node in registry_module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name)
            and target.id == "MERGE_ALGEBRA_REGISTRY"
            for target in node.targets
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
            return {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            }
    return None


class MergeAlgebraRule(Rule):
    id = "merge-algebra"
    description = (
        "classes defining merge() also define state_dict()/from_state() "
        "and are registered in the differential merge harness"
    )
    default_paths = ("src/repro",)

    def check(self, module: Module, options: dict, project: Project):
        registry_rel = options.get("registry")
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = _class_methods(cls)
            if "merge" not in methods:
                continue
            missing = [
                name
                for name in ("state_dict", "from_state")
                if name not in methods
            ]
            if missing:
                yield _finding(
                    self,
                    module,
                    cls,
                    f"{cls.name} defines merge() but not "
                    f"{' or '.join(missing)}: mergeable state must be "
                    "checkpointable so the differential harness can "
                    "round-trip it",
                )
            if registry_rel is None:
                continue
            entries = _registry_entries(project, registry_rel)
            dotted = f"{_module_dotted(module.relpath)}.{cls.name}"
            if entries is None:
                yield _finding(
                    self,
                    module,
                    cls,
                    f"merge harness registry {registry_rel} does not "
                    "define MERGE_ALGEBRA_REGISTRY",
                )
            elif dotted not in entries:
                yield _finding(
                    self,
                    module,
                    cls,
                    f"{dotted} defines merge() but is not listed in "
                    f"MERGE_ALGEBRA_REGISTRY ({registry_rel}); register "
                    "it so the merge laws are differentially tested",
                )


# ---------------------------------------------------------------------------
# hot-path hygiene


#: Base classes that manage their own storage; subclasses are exempt
#: from the ``__slots__`` requirement.
_SLOTS_EXEMPT_BASES = {
    "Enum",
    "IntEnum",
    "StrEnum",
    "Flag",
    "IntFlag",
    "Protocol",
    "NamedTuple",
    "TypedDict",
}

_DEFAULT_HOT_FUNCTIONS = ("_scan_segments", "detect_day_columns")


def _base_name(node: ast.expr) -> str | None:
    dotted = _dotted(node)
    if dotted is not None:
        return dotted.rsplit(".", 1)[-1]
    if isinstance(node, ast.Subscript):  # e.g. Generic[V], Protocol[T]
        return _base_name(node.value)
    return None


def _slots_declaration(cls: ast.ClassDef) -> set[str] | None:
    """Declared slot names, or ``None`` if the class has no
    ``__slots__`` assignment."""
    for node in cls.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in targets
        ):
            continue
        names: set[str] = set()
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.add(element.value)
        elif isinstance(value, ast.Constant) and isinstance(
            value.value, str
        ):
            names.add(value.value)
        return names
    return None


def _dataclass_slots(cls: ast.ClassDef) -> bool:
    """True for ``@dataclass(..., slots=True)``."""
    for decorator in cls.decorator_list:
        name, call = _decorator_call(decorator)
        if name != "dataclass" or call is None:
            continue
        for keyword in call.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


class HotPathRule(Rule):
    id = "hot-path"
    description = (
        "hot-path classes declare __slots__ (and only assign declared "
        "slots); hot scan functions allocate nothing inside loops"
    )
    default_paths = (
        "src/repro/core",
        "src/repro/netbase/prefix.py",
        "src/repro/netbase/rib.py",
        "src/repro/scenario/archive.py",
    )

    def check(self, module: Module, options: dict, project: Project):
        hot_functions = set(
            options.get("hot-functions", _DEFAULT_HOT_FUNCTIONS)
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in hot_functions
            ):
                yield from self._check_hot_function(module, node)

    def _check_class(self, module: Module, cls: ast.ClassDef):
        if cls.name.endswith(("Error", "Exception", "Warning")):
            return
        base_names = {_base_name(base) for base in cls.bases}
        if base_names & _SLOTS_EXEMPT_BASES:
            return
        slots = _slots_declaration(cls)
        if slots is None:
            if _dataclass_slots(cls):
                return
            yield _finding(
                self,
                module,
                cls,
                f"{cls.name} is on the per-row hot path but declares no "
                "__slots__ (use @dataclass(slots=True) or an explicit "
                "tuple)",
            )
            return
        if cls.bases:
            # Inherited slots are invisible to a static pass; the
            # declaration requirement above is still enforced.
            return
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in slots
                ):
                    yield _finding(
                        self,
                        module,
                        node,
                        f"{cls.name}.{method.name}() assigns "
                        f"self.{node.attr}, which is not a declared "
                        "slot of the class",
                    )

    def _check_hot_function(self, module: Module, func: ast.FunctionDef):
        def visit(node: ast.AST, in_loop: bool):
            if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
                in_loop = True
            elif in_loop:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id[:1].isupper()
                ):
                    yield _finding(
                        self,
                        module,
                        node,
                        f"{func.name}() instantiates "
                        f"{node.func.id} inside its scan loop; hoist "
                        "construction out of the per-row path",
                    )
                elif isinstance(
                    node,
                    (
                        ast.ListComp,
                        ast.SetComp,
                        ast.DictComp,
                        ast.GeneratorExp,
                    ),
                ):
                    yield _finding(
                        self,
                        module,
                        node,
                        f"{func.name}() builds a comprehension inside "
                        "its scan loop; hoist the allocation out of the "
                        "per-row path",
                    )
            for child in ast.iter_child_nodes(node):
                yield from visit(child, in_loop)

        for statement in func.body:
            yield from visit(statement, False)


# ---------------------------------------------------------------------------
# wire / checkpoint schema symmetry


class WireSymmetryRule(Rule):
    id = "wire-symmetry"
    description = (
        "from_dict reads only keys to_dict writes; checkpoint payload "
        "schema matches the committed snapshot at CHECKPOINT_VERSION"
    )
    default_paths = ("src/repro",)

    def check(self, module: Module, options: dict, project: Project):
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = _class_methods(cls)
            writer = methods.get("to_dict")
            reader = methods.get("from_dict")
            if writer is None or reader is None:
                continue
            written = _dict_written_keys(writer)
            read = _dict_read_keys(reader)
            orphaned = sorted(read - written)
            if orphaned:
                yield _finding(
                    self,
                    module,
                    reader,
                    f"{cls.name}.from_dict() reads key(s) "
                    f"{', '.join(repr(key) for key in orphaned)} that "
                    f"{cls.name}.to_dict() never writes",
                )

    # -- checkpoint schema snapshot ------------------------------------

    def current_schema(self, options: dict, project: Project) -> dict:
        """The live schema fingerprint: ``CHECKPOINT_VERSION`` plus the
        ``state_dict`` key sets of every registered class."""
        registry_rel = options.get(
            "registry", "tests/analysis/test_merge_properties.py"
        )
        entries = _registry_entries(project, registry_rel)
        if entries is None:
            raise ValueError(
                f"merge harness registry {registry_rel} does not define "
                "MERGE_ALGEBRA_REGISTRY"
            )
        classes: dict[str, list[str]] = {}
        for dotted in sorted(entries):
            module_dotted, _, class_name = dotted.rpartition(".")
            source = (
                project.root
                / "src"
                / (module_dotted.replace(".", "/") + ".py")
            )
            keys: set[str] = set()
            if source.is_file():
                module = project.module(source)
                for cls in ast.walk(module.tree):
                    if (
                        isinstance(cls, ast.ClassDef)
                        and cls.name == class_name
                    ):
                        state_dict = _class_methods(cls).get("state_dict")
                        if state_dict is not None:
                            keys = _dict_written_keys(state_dict)
                        break
            classes[dotted] = sorted(keys)
        return {
            "checkpoint_version": self._checkpoint_version(
                options, project
            ),
            "classes": classes,
        }

    def _checkpoint_version(
        self, options: dict, project: Project
    ) -> int | None:
        source_rel = options.get("version-source", "src/repro/api/service.py")
        source = project.root / source_rel
        if not source.is_file():
            return None
        module = project.module(source)
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if any(
                isinstance(target, ast.Name)
                and target.id == "CHECKPOINT_VERSION"
                for target in targets
            ) and isinstance(value, ast.Constant):
                return value.value
        return None

    def finalize(self, options: dict, project: Project):
        schema_rel = options.get("schema")
        if schema_rel is None:
            return  # snapshot check not configured (e.g. corpus runs)
        snapshot_path = project.root / schema_rel
        anchor_rel = options.get("version-source", "src/repro/api/service.py")
        if not snapshot_path.is_file():
            yield Finding(
                rule=self.id,
                severity=self.default_severity,
                path=schema_rel,
                line=1,
                col=1,
                message=(
                    "checkpoint schema snapshot is missing; run "
                    "`repro check --write-schema`"
                ),
            )
            return
        snapshot = json.loads(snapshot_path.read_text())
        try:
            current = self.current_schema(options, project)
        except ValueError as error:
            yield Finding(
                rule=self.id,
                severity=self.default_severity,
                path=schema_rel,
                line=1,
                col=1,
                message=str(error),
            )
            return
        version_bumped = (
            current["checkpoint_version"] != snapshot.get("checkpoint_version")
        )
        changed = sorted(
            dotted
            for dotted in set(current["classes"])
            | set(snapshot.get("classes", {}))
            if current["classes"].get(dotted)
            != snapshot.get("classes", {}).get(dotted)
        )
        if changed and not version_bumped:
            yield Finding(
                rule=self.id,
                severity=self.default_severity,
                path=anchor_rel,
                line=1,
                col=1,
                message=(
                    "checkpoint payload schema changed for "
                    f"{', '.join(changed)} without bumping "
                    "CHECKPOINT_VERSION; bump it, then run "
                    "`repro check --write-schema`"
                ),
            )
        elif changed or version_bumped:
            yield Finding(
                rule=self.id,
                severity=self.default_severity,
                path=schema_rel,
                line=1,
                col=1,
                message=(
                    "checkpoint schema snapshot is stale; run "
                    "`repro check --write-schema` to record the new "
                    "schema"
                ),
            )


#: Every rule the checker runs, in report order.
ALL_RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    LockDisciplineRule(),
    MergeAlgebraRule(),
    HotPathRule(),
    WireSymmetryRule(),
)
