"""AST rules for ``reprolint`` (see :mod:`repro.analysis.lint`).

Each rule encodes one repo-specific invariant the Python type system
cannot see.  The whole reproduction rests on determinism and honest
charge accounting, so the rules are deliberately opinionated about this
codebase rather than general-purpose:

========  ============================================================
SIM001    No wall-clock reads (``time.time``, ``time.perf_counter``,
          ``datetime.now`` ...) outside ``repro.perf`` / benchmarks /
          tests.  Simulated time (``engine.now``) is the only clock the
          library may consult; a stray wall-clock read silently couples
          results to host speed.
SIM002    No unseeded module-level RNG (``random.random()``,
          ``np.random.rand()``, ``random.Random()`` / ``default_rng()``
          with no seed).  All randomness must flow through an explicit
          seeded generator so every schedule and dataset is
          reproducible from its seed.
SIM003    No iteration over sets (or ``dict.values()`` of hash-keyed
          scratch maps) in contexts that feed scheduling or float
          accumulation order, unless wrapped in ``sorted(...)``.  Set
          iteration order depends on object ids / PYTHONHASHSEED and is
          the classic source of run-to-run fingerprint drift.
SIM004    No ``==`` / ``!=`` on simulated-time floats.  Event times are
          sums of float intervals; exact equality is schedule-dependent.
          Use the epsilon helpers ``time_eq`` / ``time_ne`` from
          :mod:`repro.sim.fluid`.
DEV001    In ``core/`` and ``baselines/``, raw byte moves
          (``SimFile.peek`` / ``peek_view`` / ``poke`` / ``adopt`` / touching ``._data``)
          bypass the charged storage APIs; every byte an algorithm
          moves must be charged to the BRAID device model.  Untimed
          access is for fixtures and validation only.
SIM005    No mutation of shared enclosing-scope / ``self`` state from
          a spawned coroutine body without a named arbiter primitive
          (a ``Semaphore``, or any ``wait`` / ``put`` / ``get`` verb).  Two spawned
          generators writing the same closure cell or attribute race
          under any legal same-instant schedule permutation; route the
          result through a queue or guard it with a lock.
SIM006    No ``sorted``/``min``/``max``/``.sort`` keyed on a *bare*
          simulated-time value.  Same-instant events make such keys
          non-total; ties then resolve by hash/insertion order and the
          result drifts across schedules.  Add a deterministic
          secondary key (``key=lambda x: (x.first_active, x.name)``).
PRG001    Unknown or retired rule id named in a ``# reprolint:``
          pragma.  A typo silently disables nothing; a retired id
          should be dropped (the pragma machinery reports what the
          rule was folded into).
========  ============================================================

Any rule can be silenced on a specific line with a trailing
``# reprolint: disable=<rule>[,<rule>...]`` comment (or for a whole file
with ``# reprolint: disable-file=<rule>``); the escape hatch is meant to
carry a justification in the same comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

#: rule id -> one-line description (shown by ``--list-rules``).
RULES: Dict[str, str] = {
    "SIM001": "wall-clock read outside repro.perf/benchmarks/tests",
    "SIM002": "unseeded module-level RNG (thread a seeded generator)",
    "SIM003": "iteration over an unordered collection without sorted()",
    "SIM004": "==/!= on simulated-time floats (use fluid.time_eq/time_ne)",
    "DEV001": "raw byte move bypassing the charged storage APIs",
    "SIM005": "shared-state mutation from a spawned coroutine without an arbiter",
    "SIM006": "sort/min/max keyed on a bare sim-time value (ties not total)",
    "PRG001": "unknown or retired rule id in a reprolint pragma",
}

#: Rule ids that once existed and were retired; naming one in a pragma
#: is a PRG001 finding explaining where the invariant went.
RETIRED_RULES: Dict[str, str] = {
    "DET001": "folded into SIM003 (iteration-order leaks)",
    "OBS001": "deleted with the metrics registry whose names it checked",
}

#: Path components that exempt a file from a rule.  ``repro.perf`` and
#: the benchmark harnesses measure the *simulator's* wall-clock speed,
#: which is their whole point; tests may freely iterate sets in
#: order-independent assertions.
RULE_EXEMPT_PARTS: Dict[str, Set[str]] = {
    "SIM001": {"perf", "benchmarks", "tests", "examples"},
    "SIM002": set(),
    "SIM003": {"perf", "benchmarks", "tests", "examples"},
    "SIM004": {"tests", "benchmarks", "examples"},
    # Fixtures and validators are the *intended* users of untimed access.
    "DEV001": {"tests", "benchmarks", "examples"},
    # Tests spawn racy fixtures on purpose (the race detector's own
    # test-bed is full of them).
    "SIM005": {"tests", "benchmarks", "examples"},
    "SIM006": {"tests", "benchmarks", "examples"},
    "PRG001": set(),
}

#: DEV001 only applies inside these packages (the sort algorithms); the
#: storage layer itself, fixtures and validators legitimately use
#: untimed access.
_DEV001_PARTS = {"core", "baselines"}

_WALLCLOCK_TIME_FNS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock",
}
_WALLCLOCK_DATETIME_FNS = {"now", "utcnow", "today"}

_UNSEEDED_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "betavariate",
    "expovariate",
    "gammavariate",
    "gauss",
    "lognormvariate",
    "normalvariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "getrandbits",
    "randbytes",
    "seed",
}
_UNSEEDED_NP_RANDOM_FNS = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "bytes",
    "choice",
    "shuffle",
    "permutation",
    "normal",
    "uniform",
    "standard_normal",
    "seed",
}

#: Attributes known (by repo convention) to hold sets on hot objects.
_KNOWN_SET_ATTRS = {"active", "_dirty_keys"}

#: Calls whose argument order determines float accumulation or
#: scheduling order downstream.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "sum"}

#: Simulated-time value names for SIM004.
_TIME_NAMES = {"now", "t0", "t1", "deadline", "first_active", "last_active"}
_TIME_SUFFIXES = ("_time", "_at", "_settled")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains as a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FileChecker(ast.NodeVisitor):
    """Single-pass visitor applying every enabled rule to one module."""

    def __init__(self, path: str, enabled: Set[str], dev001_active: bool):
        self.path = path
        self.enabled = enabled
        self.dev001_active = dev001_active
        self.findings: List[Finding] = []
        # Import aliases discovered in this module.
        self._time_mods: Set[str] = set()
        self._datetime_mods: Set[str] = set()
        self._datetime_classes: Set[str] = set()
        self._random_mods: Set[str] = set()
        self._np_mods: Set[str] = set()
        #: bare name -> fully qualified wall-clock / RNG function.
        self._bare_wallclock: Dict[str, str] = {}
        self._bare_random: Dict[str, str] = {}
        #: Stack of per-function sets of names bound to set objects.
        self._set_bindings: List[Set[str]] = [set()]
        #: Module-local helper functions whose every return value is a
        #: set (pre-scanned in :meth:`visit_Module`), so SIM003 tracking
        #: survives the call boundary: ``for x in _dirty_keys():``.
        self._set_returning: Set[str] = set()

    # -- module pre-scan ------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._scan_set_helpers(node)
        self.generic_visit(node)

    def _scan_set_helpers(self, tree: ast.Module) -> None:
        """Fixpoint over module functions that provably return sets."""
        funcs = [
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        known: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for fn in funcs:
                if fn.name in known:
                    continue
                rets = [
                    n
                    for n in _own_body_nodes(fn)
                    if isinstance(n, ast.Return) and n.value is not None
                ]
                if rets and all(
                    self._static_set_value(r.value, known) for r in rets
                ):
                    known.add(fn.name)
                    changed = True
        self._set_returning = known

    # -- reporting ------------------------------------------------------
    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.enabled:
            self.findings.append(
                Finding(self.path, node.lineno, node.col_offset, rule, message)
            )

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name
            if alias.name == "time":
                self._time_mods.add(name)
            elif alias.name == "datetime":
                self._datetime_mods.add(name)
            elif alias.name == "random":
                self._random_mods.add(name)
            elif alias.name == "numpy":
                self._np_mods.add(name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            name = alias.asname or alias.name
            if node.module == "time" and alias.name in _WALLCLOCK_TIME_FNS:
                self._bare_wallclock[name] = f"time.{alias.name}"
            elif node.module == "datetime" and alias.name == "datetime":
                self._datetime_classes.add(name)
            elif node.module == "random" and alias.name in _UNSEEDED_RANDOM_FNS:
                self._bare_random[name] = f"random.{alias.name}"
        self.generic_visit(node)

    # -- scope tracking for SIM003 --------------------------------------
    def _enter_scope(self, node) -> None:
        self._set_bindings.append(set())
        self.generic_visit(node)
        self._set_bindings.pop()

    visit_FunctionDef = _enter_scope
    visit_AsyncFunctionDef = _enter_scope
    visit_Lambda = _enter_scope

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._binds_set(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_bindings[-1].add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_bindings[-1].discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            node.value is not None
            and isinstance(node.target, ast.Name)
            and self._binds_set(node.value)
        ):
            self._set_bindings[-1].add(node.target.id)
        self.generic_visit(node)

    def _binds_set(self, value: ast.AST) -> bool:
        return self._static_set_value(value, self._set_returning)

    @staticmethod
    def _static_set_value(value: ast.AST, set_helpers: Set[str]) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in ("set", "frozenset") or (
                value.func.id in set_helpers
            )
        if isinstance(value, ast.Attribute):
            return value.attr in _KNOWN_SET_ATTRS
        return False

    # -- SIM003 ---------------------------------------------------------
    def _unordered_reason(self, node: ast.AST) -> Optional[str]:
        """Why iterating ``node`` is order-unstable, or None if it isn't."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a {func.id}() call"
            if isinstance(func, ast.Attribute) and func.attr == "values":
                base = _dotted(func.value) or "<expr>"
                return f"{base}.values()"
            if (
                isinstance(func, ast.Name)
                and func.id in self._set_returning
            ):
                return f"{func.id}() (a local helper returning a set)"
        if isinstance(node, ast.Name):
            for scope in reversed(self._set_bindings):
                if node.id in scope:
                    return f"{node.id!r} (bound to a set above)"
        if isinstance(node, ast.Attribute) and node.attr in _KNOWN_SET_ATTRS:
            return f"set attribute {_dotted(node) or node.attr!r}"
        return None

    def _check_iteration(self, iter_node: ast.AST, context: str) -> None:
        reason = self._unordered_reason(iter_node)
        if reason is not None:
            self._report(
                iter_node,
                "SIM003",
                f"iteration over {reason} in {context}; wrap in sorted(...) "
                f"or restructure to an insertion-ordered container",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set *from* something unordered is fine (the result
        # is unordered anyway); only consuming one in order matters.
        self.generic_visit(node)

    # -- calls: SIM001 / SIM002 / SIM003-order-sensitive / DEV001 -------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        self._check_wallclock(node, dotted)
        self._check_rng(node, dotted)
        self._check_order_sensitive_call(node, dotted)
        self._check_raw_move_call(node)
        self._check_tie_break(node)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call, dotted: Optional[str]) -> None:
        if dotted is None:
            return
        parts = dotted.split(".")
        fq = None
        if len(parts) == 2 and parts[0] in self._time_mods:
            if parts[1] in _WALLCLOCK_TIME_FNS:
                fq = f"time.{parts[1]}"
        elif (
            len(parts) == 3
            and parts[0] in self._datetime_mods
            and parts[1] == "datetime"
            and parts[2] in _WALLCLOCK_DATETIME_FNS
        ):
            fq = dotted
        elif (
            len(parts) == 2
            and parts[0] in self._datetime_classes
            and parts[1] in _WALLCLOCK_DATETIME_FNS
        ):
            fq = f"datetime.{parts[1]}"
        elif len(parts) == 1 and parts[0] in self._bare_wallclock:
            fq = self._bare_wallclock[parts[0]]
        if fq is not None:
            self._report(
                node,
                "SIM001",
                f"wall-clock read {fq}(); simulated code must use the "
                f"engine clock (engine.now) -- wall-clock belongs in "
                f"repro.perf and benchmarks only",
            )

    def _check_rng(self, node: ast.Call, dotted: Optional[str]) -> None:
        if dotted is None:
            return
        parts = dotted.split(".")
        offense = None
        if len(parts) == 2 and parts[0] in self._random_mods:
            if parts[1] in _UNSEEDED_RANDOM_FNS:
                offense = f"module-level random.{parts[1]}()"
            elif parts[1] == "Random" and not node.args and not node.keywords:
                offense = "random.Random() without a seed"
            elif parts[1] == "SystemRandom":
                offense = "random.SystemRandom() (OS entropy, never reproducible)"
        elif len(parts) == 1 and parts[0] in self._bare_random:
            offense = f"module-level {self._bare_random[parts[0]]}()"
        elif len(parts) == 3 and parts[0] in self._np_mods and parts[1] == "random":
            if parts[2] in _UNSEEDED_NP_RANDOM_FNS:
                offense = f"legacy global np.random.{parts[2]}()"
            elif parts[2] == "default_rng" and not node.args and not node.keywords:
                offense = "np.random.default_rng() without a seed"
        if offense is not None:
            self._report(
                node,
                "SIM002",
                f"{offense}; thread an explicitly seeded generator "
                f"(np.random.default_rng(seed) / random.Random(seed)) instead",
            )

    def _check_order_sensitive_call(
        self, node: ast.Call, dotted: Optional[str]
    ) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "extend":
            name = "extend"
        if name is None:
            return
        for arg in node.args:
            reason = self._unordered_reason(arg)
            if reason is not None:
                self._report(
                    arg,
                    "SIM003",
                    f"{name}(...) consumes {reason} in hash order; wrap in "
                    f"sorted(...) or use an insertion-ordered container",
                )

    def _check_raw_move_call(self, node: ast.Call) -> None:
        if not self.dev001_active:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("peek", "peek_view", "poke", "adopt"):
            self._report(
                node,
                "DEV001",
                f"untimed SimFile.{func.attr}() moves bytes without charging "
                f"the device model; use the timed read/write APIs (or "
                f"justify with a disable pragma and an explicit analytic "
                f"charge)",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.dev001_active and node.attr == "_data":
            self._report(
                node,
                "DEV001",
                "direct access to SimFile._data bypasses charge accounting; "
                "use the timed read/write APIs",
            )
        self.generic_visit(node)

    # -- SIM006 ---------------------------------------------------------
    def _check_tie_break(self, node: ast.Call) -> None:
        """``sorted(..., key=lambda x: x.first_active)`` and friends."""
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id in ("sorted", "min", "max"):
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "sort":
            name = "sort"
        if name is None:
            return
        for kw in node.keywords:
            if kw.arg != "key" or not isinstance(kw.value, ast.Lambda):
                continue
            hit = self._time_like(kw.value.body)
            if hit is not None:
                self._report(
                    kw.value,
                    "SIM006",
                    f"{name}() keyed on bare sim-time value {hit!r}: "
                    f"same-instant events tie and the order falls back to "
                    f"hash/insertion order; add a deterministic secondary "
                    f"key, e.g. key=lambda x: ({hit}, name)",
                )

    # -- SIM004 ---------------------------------------------------------
    @staticmethod
    def _time_like(node: ast.AST) -> Optional[str]:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return None
        if name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES):
            return name
        return None

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _is_none(left) or _is_none(right):
                continue
            hit = self._time_like(left) or self._time_like(right)
            if hit is not None:
                sym = "==" if isinstance(op, ast.Eq) else "!="
                self._report(
                    node,
                    "SIM004",
                    f"{sym} on simulated-time value {hit!r}; event times are "
                    f"float sums -- use time_eq/time_ne from repro.sim.fluid",
                )
        self.generic_visit(node)


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _own_body_nodes(fn: ast.AST):
    """Walk a function body without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` under an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


#: Yielded method calls that count as a named arbiter inside a spawned
#: coroutine body: ``yield sem.acquire()`` / ``yield bar.wait()`` /
#: ``yield q.put(x)`` / ``yield q.get()``.
_ARBITER_VERBS = {"acquire", "wait", "put", "get"}


class _SpawnMutationChecker(ast.NodeVisitor):
    """SIM005: shared-state writes from spawned coroutine bodies.

    Pass 1 collects the names of generator functions handed to
    ``Spawn(...)`` / ``engine.spawn(...)``; pass 2 inspects each such
    function (if it is a generator defined in this module) for
    assignments to ``self`` attributes, ``nonlocal``/``global`` names,
    or subscripts of enclosing-scope objects, and flags them unless the
    body yields an arbiter primitive (``acquire``/``wait``/``put``/
    ``get``).  Heuristic by design: it sees one module at a time and
    trusts names.
    """

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self._spawned: Set[str] = set()

    def check(self, tree: ast.Module) -> List[Finding]:
        self.visit(tree)  # pass 1: spawned callee names
        if self._spawned:
            for node in ast.walk(tree):  # pass 2: inspect their bodies
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in self._spawned
                ):
                    self._check_body(node)
        return self.findings

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_spawn = (isinstance(func, ast.Name) and func.id == "Spawn") or (
            isinstance(func, ast.Attribute) and func.attr == "spawn"
        )
        if is_spawn and node.args and isinstance(node.args[0], ast.Call):
            callee = node.args[0].func
            if isinstance(callee, ast.Name):
                self._spawned.add(callee.id)
            elif isinstance(callee, ast.Attribute):
                self._spawned.add(callee.attr)
        self.generic_visit(node)

    def _check_body(self, fn) -> None:
        body = list(_own_body_nodes(fn))
        if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in body):
            return  # not a generator: plain helper sharing a name
        if any(
            isinstance(n, ast.Yield)
            and isinstance(n.value, ast.Call)
            and isinstance(n.value.func, ast.Attribute)
            and n.value.func.attr in _ARBITER_VERBS
            for n in body
        ):
            return  # body rendezvouses through a named arbiter
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        shared_decl: Set[str] = set()
        for n in body:
            if isinstance(n, (ast.Nonlocal, ast.Global)):
                shared_decl.update(n.names)
            elif isinstance(n, ast.Assign):
                for t in n.targets:
                    if isinstance(t, ast.Name):
                        local.add(t.id)
            elif isinstance(n, (ast.AnnAssign, ast.For)):
                target = n.target
                if isinstance(target, ast.Name):
                    local.add(target.id)
            elif isinstance(n, ast.withitem):
                if isinstance(n.optional_vars, ast.Name):
                    local.add(n.optional_vars.id)
        local -= shared_decl
        for n in body:
            if isinstance(n, ast.Assign):
                targets = n.targets
            elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
                targets = [n.target]
            else:
                continue
            for t in targets:
                desc = self._shared_target(t, local, shared_decl)
                if desc is not None:
                    self.findings.append(
                        Finding(
                            self.path,
                            n.lineno,
                            n.col_offset,
                            "SIM005",
                            f"spawned coroutine {fn.name!r} mutates shared "
                            f"state {desc} with no arbiter primitive in its "
                            f"body; route the result through a queue or "
                            f"guard it with a Semaphore",
                        )
                    )

    @staticmethod
    def _shared_target(
        t: ast.AST, local: Set[str], shared_decl: Set[str]
    ) -> Optional[str]:
        if isinstance(t, ast.Name):
            return t.id if t.id in shared_decl else None
        if isinstance(t, ast.Attribute):
            root = _root_name(t)
            if root == "self":
                return _dotted(t) or f"self.{t.attr}"
            return None
        if isinstance(t, ast.Subscript):
            root = _root_name(t.value)
            if root == "self":
                return f"{_dotted(t.value) or 'self.<attr>'}[...]"
            if root is not None and root not in local:
                return f"{root}[...] (enclosing scope)"
        return None


def rules_for_path(path: str, select: Optional[Iterable[str]] = None) -> Set[str]:
    """The rule ids that apply to ``path`` after exemptions."""
    parts = set(path.replace("\\", "/").split("/"))
    chosen = set(select) if select is not None else set(RULES)
    unknown = chosen - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    return {
        rule
        for rule in chosen
        if not (RULE_EXEMPT_PARTS.get(rule, set()) & parts)
    }


def check_module(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one module's source; returns pragma-filtered findings."""
    enabled = rules_for_path(path, select)
    if not enabled:
        return []
    parts = set(path.replace("\\", "/").split("/"))
    dev001_active = "DEV001" in enabled and bool(parts & _DEV001_PARTS)
    tree = ast.parse(source, filename=path)
    checker = _FileChecker(path, enabled, dev001_active)
    checker.visit(tree)
    findings = checker.findings
    if "SIM005" in enabled:
        findings.extend(_SpawnMutationChecker(path).check(tree))
    from repro.analysis.pragmas import filter_findings, validate_pragmas

    if "PRG001" in enabled:
        findings.extend(validate_pragmas(source, path))
    return filter_findings(findings, source)
