"""Pluggable execution backends.

The engine, code cache and fallback builder talk to a single
:class:`~repro.backends.base.ExecutionBackend` instance; everything
they hand it (cached entries, fallback blocks, the static image) is
backend-neutral.  Two backends ship:

``rvm``
    The default and the semantic oracle: per-instruction predecoded
    closures plus the threaded/naive dispatch loops
    (:mod:`repro.backends.rvm`).

``pycode``
    Closure-composition overlays -- straight-line segments of
    installed code become single generated-and-compiled Python
    closures with holes bound as literals
    (:mod:`repro.backends.pycode`).

Select one with ``--config backend=pycode`` on the CLIs, or
programmatically via ``compile_program(..., backend="pycode")`` (the
``backend`` field of :class:`~repro.runtime.config.RunConfig`).  :func:`get_backend`
resolves names, ``None`` (the default backend) and already-built
instances; :func:`register_backend` lets external code add more.
"""

from __future__ import annotations

from typing import Dict, List, Type, Union

from .base import ExecutionBackend
from .pycode import PycodeBackend
from .rvm import RVMBackend

DEFAULT_BACKEND = "rvm"

_REGISTRY: Dict[str, Type[ExecutionBackend]] = {
    "rvm": RVMBackend,
    "pycode": PycodeBackend,
}


def available_backends() -> List[str]:
    """Registry names, sorted, for error messages and ``--help``."""
    return sorted(_REGISTRY)


def register_backend(name: str, cls: Type[ExecutionBackend]) -> None:
    """Add (or replace) a backend class under ``name``."""
    _REGISTRY[name] = cls


def get_backend(spec: Union[str, ExecutionBackend, None]) -> ExecutionBackend:
    """Resolve ``spec`` into a fresh backend instance.

    ``None`` selects the default (``rvm``); a string is looked up in
    the registry; an instance passes through unchanged (so callers can
    share one backend across programs or inject a custom one).
    """
    if spec is None:
        spec = DEFAULT_BACKEND
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        cls = _REGISTRY[spec]
    except KeyError:
        raise ValueError(
            "unknown backend %r (available: %s)"
            % (spec, ", ".join(available_backends())))
    return cls()


__all__ = [
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "PycodeBackend",
    "RVMBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]
