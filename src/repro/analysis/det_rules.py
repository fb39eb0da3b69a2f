"""Determinism rules (DET001-DET005).

Every guarantee the golden-trace gate makes — byte-identical fingerprints
across serial/parallel sweeps and both coalesce modes — rests on the absence
of a small set of nondeterminism sources.  These rules prove that absence
statically, at authoring time, instead of discovering it dynamically when a
golden trace drifts.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .findings import Finding
from .registry import Rule, RuleContext, node_parent, register

__all__ = ["OUTPUT_MODULE_SUFFIXES"]

#: Modules whose output feeds fingerprints / golden traces / exported trace
#: files.  DET003 and DET005 apply their strictest form here: any
#: interpreter-dependent ordering or identity in these files lands directly
#: in checked-in bytes.
OUTPUT_MODULE_SUFFIXES = (
    "repro/scenarios/fingerprint.py",
    "repro/obs/recorder.py",
    "repro/obs/export.py",
    "repro/orchestrator/hashing.py",
    "repro/orchestrator/store.py",
    "repro/serving/slo.py",
)

#: numpy.random members that *construct* an explicitly-seeded generator.
#: Calling one with a seed argument is the sanctioned pattern; calling one
#: with no arguments seeds from OS entropy and is exactly the bug DET001
#: exists to catch.
_SEEDED_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Wall-clock entry points.  ``Environment.now`` is the only clock simulation
#: code may consult; wall-clock *measurement* (bench walls, sweep walls) goes
#: through :class:`repro.perf.Stopwatch`, whose module is the one waiver.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_CLOCK_WHITELIST = ("repro/perf/timing.py",)

#: The single module allowed to touch ``os.environ`` (DET004).  Every knob —
#: REPRO_NO_COALESCE, REPRO_PROFILE, REPRO_JOBS, REPRO_CACHE_DIR — is read
#: through a named accessor there, so the full set of environmental inputs to
#: a run is auditable in one place.
_ENV_WHITELIST = ("repro/core/config.py",)

#: Reducers whose result does not depend on input order: a generator
#: expression feeding one of these may iterate an unsorted dict/set view.
_ORDER_INSENSITIVE_SINKS = frozenset({
    "any", "all", "sum", "min", "max", "len",
    "set", "frozenset", "sorted", "dict", "Counter",
})


@register
class UnseededRandomRule(Rule):  # detlint: ignore[USE001]
    rule_id = "DET001"
    title = "unseeded random-source call"
    rationale = ("All randomness must derive from the spec seed root via an "
                 "explicitly seeded np.random.Generator; module-level RNGs "
                 "seed from OS entropy and break run-to-run byte identity.")

    def check(self, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            message = self._classify(resolved, node)
            if message is not None:
                findings.append(self.finding(ctx, node, message))
        return findings

    def _classify(self, resolved: str, node: ast.Call) -> Optional[str]:
        seeded = bool(node.args or node.keywords)
        if resolved == "random" or resolved.startswith("random."):
            member = resolved.split(".", 1)[1] if "." in resolved else "random"
            if member == "Random" and seeded:
                return None
            return (f"call into the process-global `random` module "
                    f"({resolved}) — derive an explicitly seeded "
                    f"np.random.Generator from the spec seed root instead")
        if resolved.startswith("numpy.random."):
            member = resolved[len("numpy.random."):]
            if member in _SEEDED_CONSTRUCTORS:
                if seeded:
                    return None
                return (f"{member}() called without a seed — pass a seed "
                        f"derived from the spec seed root")
            return (f"numpy.random.{member}() uses the module-level global "
                    f"RNG — construct np.random.default_rng(seed) instead")
        return None


@register
class WallClockRule(Rule):  # detlint: ignore[USE001]
    rule_id = "DET002"
    title = "wall-clock read"
    rationale = ("Simulation code takes time from Environment.now; a "
                 "wall-clock read anywhere in a behaviour path makes results "
                 "machine- and load-dependent.  Wall-clock measurement for "
                 "reporting goes through repro.perf.Stopwatch (the one "
                 "whitelisted module).")

    def check(self, ctx: RuleContext) -> List[Finding]:
        if ctx.rel_matches(_CLOCK_WHITELIST):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved == "time.localtime" and (node.args or node.keywords):
                # localtime(secs) is a pure conversion; only the no-arg form
                # reads the clock.
                continue
            if resolved in _CLOCK_CALLS:
                findings.append(self.finding(
                    ctx, node,
                    f"wall-clock read {resolved}() — simulation behaviour "
                    f"must use Environment.now; wall-clock measurement goes "
                    f"through repro.perf.Stopwatch"))
        return findings


@register
class UnsortedIterationRule(Rule):  # detlint: ignore[USE001]
    rule_id = "DET003"
    title = "unsorted dict/set iteration in an output module"
    rationale = ("Iteration order over dict views and sets leaks container "
                 "construction history (and, for sets of strings, the "
                 "per-process hash seed) into fingerprint/trace bytes; wrap "
                 "the iterable in sorted(...) before it reaches output.")

    def check(self, ctx: RuleContext) -> List[Finding]:
        if not ctx.rel_matches(OUTPUT_MODULE_SUFFIXES):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                self._check_iter(ctx, node.iter, findings)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                # Dict/set comprehensions are excluded by design: their
                # results are order-insensitive containers (golden output is
                # canonicalised with sort_keys), so iterating an unsorted
                # view into one cannot change output bytes.  Likewise a
                # generator feeding an order-insensitive reducer (any/sum/
                # min/...) — both are pinned as negative fixtures.
                if isinstance(node, ast.GeneratorExp) and self._reduced(node):
                    continue
                for comp in node.generators:
                    self._check_iter(ctx, comp.iter, findings)
        return findings

    def _reduced(self, node: ast.GeneratorExp) -> bool:
        parent = node_parent(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE_SINKS)

    def _check_iter(self, ctx: RuleContext, iter_node: ast.AST,
                    findings: List[Finding]) -> None:
        desc = self._unsafe(iter_node)
        if desc is not None:
            findings.append(self.finding(
                ctx, iter_node,
                f"iteration over {desc} without an enclosing sorted(...) "
                f"feeds container order into golden/trace output"))

    def _unsafe(self, node: ast.AST) -> Optional[str]:
        """A description of the hazard, or None when the iterable is safe."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "sorted":
                    return None
                if func.id in ("enumerate", "reversed", "list", "tuple"):
                    # Order-preserving wrappers: look at what they wrap.
                    return self._unsafe(node.args[0]) if node.args else None
                if func.id in ("set", "frozenset"):
                    return f"{func.id}(...)"
                return None
            if isinstance(func, ast.Attribute) and func.attr in (
                    "keys", "values", "items"):
                return f".{func.attr}() of a dict"
            return None
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal/comprehension"
        return None


@register
class EnvAccessRule(Rule):  # detlint: ignore[USE001]
    rule_id = "DET004"
    title = "os.environ access outside repro.core.config"
    rationale = ("Environment variables are hidden inputs to a run; routing "
                 "every read through repro.core.config's named accessors "
                 "keeps the full set auditable and mockable in one place.")

    def check(self, ctx: RuleContext) -> List[Finding]:
        if ctx.rel_matches(_ENV_WHITELIST):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            resolved = None
            if isinstance(node, ast.Attribute):
                resolved = ctx.resolve(node)
                # Report ``os.environ`` itself once, not its ``.get`` parent
                # chain too: only flag the exact ``environ`` attribute node.
                if resolved != "os.environ":
                    resolved = None
            elif isinstance(node, ast.Call):
                name = ctx.resolve(node.func)
                if name in ("os.getenv", "os.putenv", "os.unsetenv"):
                    resolved = name
            if resolved is not None:
                findings.append(self.finding(
                    ctx, node,
                    f"{resolved} accessed directly — add a named accessor "
                    f"to repro.core.config and read through it"))
        return findings


@register
class IdentityDerivedRule(Rule):  # detlint: ignore[USE001]
    rule_id = "DET005"
    title = "id()/hash()-derived value used as a key or in output"
    rationale = ("id() values are interpreter addresses (recycled and "
                 "allocation-order dependent) and str hash() is salted per "
                 "process; neither may key a container that feeds ordering "
                 "or appear in fingerprint/trace output.")

    def check(self, ctx: RuleContext) -> List[Finding]:
        in_output = ctx.rel_matches(OUTPUT_MODULE_SUFFIXES)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("id", "hash")):
                continue
            where = self._hazard(node, in_output)
            if where is not None:
                findings.append(self.finding(
                    ctx, node,
                    f"{node.func.id}()-derived value {where} — not stable "
                    f"across runs/processes; key on an explicit name or "
                    f"sequence number instead"))
        return findings

    def _hazard(self, node: ast.Call, in_output: bool) -> Optional[str]:
        parent = node_parent(node)
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            return "used as a subscript key"
        if isinstance(parent, ast.Dict) and any(
                key is node for key in parent.keys):
            return "used as a dict key"
        if isinstance(parent, ast.Call):
            name = parent.func.id if isinstance(parent.func, ast.Name) else None
            if name in ("sorted", "hash"):
                return f"passed to {name}()"
        if in_output:
            return "used in an output module"
        return None
