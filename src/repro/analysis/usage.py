"""USE001-USE002: no code without a consumer.

* **USE001** (project level) — every ``def`` and ``class`` in a module or
  class body under ``src/repro`` must be referred to from some ``.py`` under
  ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``.  A reference
  is an ``ast.Name``, the attribute of an ``ast.Attribute``, or a string
  literal passed as the second argument of ``getattr``/``hasattr``.  Import
  statements, ``__all__`` assignments, the definition's own body and
  everything under ``tests/`` are not consumers: a definition only a test
  reaches is code the program does not run.  Names are matched without type
  resolution, so a name used anywhere keeps every definition of that name.
  Dunder names are skipped, and the frozen seed-engine oracle is exempt.
  The pass runs whenever the lint selection includes the package's
  ``__init__.py`` and reports only definitions in linted files, where an
  inline waiver can be read.

* **USE002** (per file) — a module-level import binding nothing in its own
  module reads.  Names listed in ``__all__`` or used in a string annotation
  count as read; ``__init__.py`` files (whose imports are the package's
  surface) and ``from __future__`` imports are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from .findings import Finding
from .registry import Rule, RuleContext, register

__all__ = ["TRIGGER_SUFFIX", "check_project"]

#: Linting this file triggers the project-level pass.
TRIGGER_SUFFIX = "repro/__init__.py"

#: Directories (under the root) whose code counts as a consumer.
_CONSUMER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Where the definitions USE001 holds to account live.
_DEFINITION_DIR = Path("src") / "repro"

#: The frozen seed-engine snapshot is an oracle, never edited.
_EXEMPT_SUFFIXES = ("repro/perf/seed_engine.py",)

_DEFINITION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@register
class UnusedDefinitionRule(Rule):  # detlint: ignore[USE001]
    """Catalogue entry: USE001 runs at project level via check_project."""

    rule_id = "USE001"
    title = "definition nothing outside tests refers to"
    rationale = ("A function, method or class that only tests reach is "
                 "mechanism without a consumer: it costs reading and "
                 "upkeep and proves nothing about a run.  Delete it, or "
                 "waive it inline when something outside Python's name "
                 "lookup (a decorator registry) is its consumer.")

    def check(self, ctx) -> List[Finding]:
        return []


@register
class UnusedImportRule(Rule):  # detlint: ignore[USE001]
    rule_id = "USE002"
    title = "module-level import nothing in its module reads"
    rationale = ("An import no line of its module reads is a dependency "
                 "edge with no purpose: it hides what a module really uses "
                 "and keeps deleted names alive in review.")

    def check(self, ctx: RuleContext) -> List[Finding]:
        if ctx.rel.endswith("__init__.py"):
            return []
        read = _names_read(ctx.tree)
        findings: List[Finding] = []
        for node in _module_imports(ctx.tree):
            for alias in node.names:
                bound = _bound_name(node, alias)
                if bound is not None and bound not in read:
                    findings.append(self.finding(
                        ctx, alias,
                        f"`{bound}` is imported but never read in this "
                        f"module — delete the import"))
        return findings


def _module_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements outside every function and class body."""
    stack = list(reversed(tree.body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _DEFINITION_NODES):
            # Descend into if/try/with/for bodies, never into a def or class.
            stack.extend(reversed([
                child for child in ast.iter_child_nodes(node)
                if isinstance(child, (ast.stmt, ast.excepthandler))]))


def _bound_name(node: ast.stmt, alias: ast.alias):
    """The local name an import alias binds (None when it binds nothing)."""
    if isinstance(node, ast.ImportFrom):
        if node.module == "__future__" or alias.name == "*":
            return None
        return alias.asname or alias.name
    return alias.asname or alias.name.split(".", 1)[0]


def _names_read(tree: ast.Module) -> Set[str]:
    """Every name the module loads, lists in ``__all__`` or annotates."""
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif _is_all_assignment(node) and node.value is not None:
            read.update(constant.value for constant in ast.walk(node.value)
                        if isinstance(constant, ast.Constant)
                        and isinstance(constant.value, str))
        for annotation in _annotations(node):
            read.update(_string_annotation_names(annotation))
    return read


def _annotations(node: ast.AST) -> Iterator[ast.AST]:
    if isinstance(node, ast.arg) and node.annotation is not None:
        yield node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            and node.returns is not None:
        yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _string_annotation_names(annotation: ast.AST) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (name.id for name in ast.walk(parsed)
                        if isinstance(name, ast.Name))


def _is_all_assignment(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets)


# ---------------------------------------------------------------------------
# USE001: the project-level pass
# ---------------------------------------------------------------------------

def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """(qualified name, node) of each def/class in a module or class body."""
    stack = [(node, "") for node in reversed(tree.body)]
    while stack:
        node, prefix = stack.pop()
        if not isinstance(node, _DEFINITION_NODES):
            continue
        qualname = prefix + node.name
        if not (node.name.startswith("__") and node.name.endswith("__")):
            yield qualname, node
        if isinstance(node, ast.ClassDef):
            stack.extend((child, qualname + ".")
                         for child in reversed(node.body))


def _references(tree: ast.Module, wanted: Set[str]) -> Iterator[Tuple[str, int]]:
    """(name, line) of every reference to a wanted name.

    Import statements and ``__all__`` lists hold no references by
    construction: they name things with alias strings and string constants.
    """
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            name = node.args[1].value
        if name in wanted:
            yield name, node.lineno
        stack.extend(ast.iter_child_nodes(node))


def _parse_tree(root: Path, directory: str) -> Iterator[Tuple[str, ast.Module]]:
    base = root / directory
    if not base.is_dir():
        return
    for path in sorted(base.rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (SyntaxError, UnicodeDecodeError):
            continue  # SYN001 reports it when the file is linted
        yield path.relative_to(root).as_posix(), tree


def check_project(root: Path) -> List[Finding]:
    """USE001 findings for every definition under ``src/repro`` of ``root``."""
    trees = [parsed for directory in _CONSUMER_DIRS
             for parsed in _parse_tree(root, directory)]
    prefix = _DEFINITION_DIR.as_posix() + "/"
    definitions = [(rel, qualname, node) for rel, tree in trees
                   if rel.startswith(prefix)
                   and not rel.endswith(_EXEMPT_SUFFIXES)
                   for qualname, node in _definitions(tree)]
    wanted = {node.name for _, _, node in definitions}
    # name -> (file, line) of every reference to it
    references: Dict[str, List[Tuple[str, int]]] = {}
    for rel, tree in trees:
        for name, line in _references(tree, wanted):
            references.setdefault(name, []).append((rel, line))
    findings: List[Finding] = []
    for rel, qualname, node in definitions:
        # The definition's own span, decorators included, is no consumer.
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        last = node.end_lineno
        if not any(site != rel or not first <= line <= last
                   for site, line in references.get(node.name, ())):
            findings.append(Finding(
                rule="USE001", path=rel, line=node.lineno,
                col=node.col_offset + 1,
                message=(f"`{qualname}` is referred to nowhere outside tests "
                         f"— delete it or give it a consumer")))
    return findings
