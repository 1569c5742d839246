"""Declarative registries for sorting systems, experiments and profiles.

Replaces the hard-coded lambda dicts that used to live in ``cli.py``:
any module can declare a sorting system with::

    @register_system("my-sort")
    class MySort(SortSystem):
        def __init__(self, fmt=None, config=None): ...

or, for parameterised variants, decorate a factory function with the
same ``(fmt, config)`` signature.  The CLI, the benchmark harness, the
cluster sort service and the tests all consume the same registry, so a
newly registered system is immediately sortable, benchmarkable and
schedulable by name.

Lookups of unknown names raise :class:`~repro.errors.UnknownSystemError`
listing the valid choices.  Built-in entries self-register when their
defining modules import; :func:`_ensure_builtins` imports those modules
lazily so lookups work regardless of what the caller imported first.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import ConfigError, UnknownSystemError

_SYSTEMS: Dict[str, Callable] = {}
_EXPERIMENTS: Dict[str, Callable] = {}
_PROFILES: Dict[str, Callable] = {}
_POLICIES: Dict[str, Callable] = {}

_KINDS = {
    "system": _SYSTEMS,
    "experiment": _EXPERIMENTS,
    "profile": _PROFILES,
    "policy": _POLICIES,
}

_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import every module that registers built-in entries (idempotent)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    # Local imports: these modules import the registry back, so loading
    # them at module scope would cycle.
    import repro.baselines.external_merge_sort  # noqa: F401
    import repro.baselines.modified_key_sort  # noqa: F401
    import repro.baselines.pmsort  # noqa: F401
    import repro.baselines.sample_sort  # noqa: F401
    import repro.bench  # noqa: F401  (registers the experiment entries)
    import repro.cluster.policies  # noqa: F401
    import repro.core.natural_runs  # noqa: F401
    import repro.core.wiscsort  # noqa: F401
    from repro.device.profiles import PROFILE_FACTORIES

    for name, factory in PROFILE_FACTORIES.items():
        if name not in _PROFILES:
            _PROFILES[name] = factory


def _register(table: Dict[str, Callable], kind: str, name: str) -> Callable:
    if not name:
        raise ConfigError(f"{kind} registration needs a non-empty name")

    def decorator(obj: Callable) -> Callable:
        if name in table and table[name] is not obj:
            raise ConfigError(f"{kind} {name!r} is already registered")
        table[name] = obj
        return obj

    return decorator


def register_system(name: str) -> Callable:
    """Class/factory decorator: make a sorting system creatable by name.

    The decorated callable must accept ``(fmt, config=...)`` -- the
    uniform constructor surface every :class:`~repro.core.base.SortSystem`
    exposes.
    """
    return _register(_SYSTEMS, "system", name)


def register_experiment(name: str) -> Callable:
    """Function decorator: make a bench experiment runnable by name."""
    return _register(_EXPERIMENTS, "experiment", name)


def register_profile(name: str) -> Callable:
    """Factory decorator: make a device profile constructible by name."""
    return _register(_PROFILES, "profile", name)


def register_policy(name: str) -> Callable:
    """Class/factory decorator: make an admission policy creatable by name.

    The decorated callable must be constructible with no arguments and
    implement the :class:`repro.cluster.policies.AdmissionPolicy`
    surface (``on_arrival`` / ``pick``); ``--policy`` names on the CLI
    and :class:`~repro.cluster.service.SortService` resolve here.
    """
    return _register(_POLICIES, "policy", name)


def _lookup(kind: str, name: str) -> Callable:
    _ensure_builtins()
    table = _KINDS[kind]
    try:
        return table[name]
    except KeyError:
        raise UnknownSystemError(
            name, kind=kind, choices=tuple(sorted(table))
        ) from None


def get_system(name: str) -> Callable:
    """The registered constructor/factory for a sorting system."""
    return _lookup("system", name)


def get_experiment(name: str) -> Callable:
    """The registered experiment function."""
    return _lookup("experiment", name)


def get_profile(name: str) -> Callable:
    """The registered device-profile factory."""
    return _lookup("profile", name)


def get_policy(name: str) -> Callable:
    """The registered admission-policy class/factory."""
    return _lookup("policy", name)


def create_policy(name: str):
    """Instantiate a registered admission policy."""
    return get_policy(name)()


def create_system(name: str, fmt=None, config=None):
    """Instantiate a registered sorting system with the uniform surface."""
    factory = get_system(name)
    return factory(fmt, config=config)


def available(kind: str = "system") -> Tuple[str, ...]:
    """Sorted names registered under ``kind`` (system/experiment/profile/
    policy) -- what the CLI offers as ``choices=``."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown registry kind {kind!r}; use {sorted(_KINDS)}")
    _ensure_builtins()
    return tuple(sorted(_KINDS[kind]))

