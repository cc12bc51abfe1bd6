"""One run configuration: the five settings a program run is made of.

The paper's stitcher runs under one policy -- stitch a region version
on its first entry into an unbounded keyed cache, inline, on the
bit-exact VM.  Five settings vary it, each with its own spec grammar:
``backend`` (:mod:`repro.backends`), ``cache``
(:class:`~repro.codecache.CacheConfig`), ``faults``
(:class:`~repro.faults.FaultPlan`), ``tier``
(:class:`~repro.runtime.tiering.TierPolicy`) and ``stitch``
(:class:`~repro.runtime.stitchqueue.StitchQueueConfig`).
:class:`RunConfig` bundles them into one frozen value whose spec is
whitespace-separated ``FIELD=SPEC`` tokens, e.g.
``backend=pycode cache=lru:2 faults=all:0.1 tier=threshold:3``.
:meth:`RunConfig.parse` overrides only the fields a spec names and
:meth:`RunConfig.describe` writes only the non-default fields, in the
order above, so ``parse(describe(c)) == c`` and the default config
describes as ``""``.  The engine, the oracle, the fuzzer, the CLIs'
``--config`` flag and the fuzzer's ``// config:`` reproducer header
all speak this one spec.

``faults`` keeps its spec exactly as given: each run builds a fresh
plan from it (:meth:`RunConfig.fault_plan`), seeded by the caller
unless the spec names ``@SEED``, so a recorded config replays the same
fault schedules.  A plan object is accepted too; runs then share it.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Optional, Union

from ..backends import (
    DEFAULT_BACKEND, ExecutionBackend, available_backends,
)
from ..codecache import CacheConfig
from ..faults import FaultPlan
from .stitchqueue import StitchQueueConfig
from .tiering import TierPolicy

#: The fields, in spec order.
FIELDS = ("backend", "cache", "faults", "tier", "stitch")


def _backend(value):
    if value is None:
        return DEFAULT_BACKEND
    if isinstance(value, str) and value not in available_backends():
        raise ValueError("unknown backend %r (available: %s)"
                         % (value, ", ".join(available_backends())))
    return value


def _faults(value):
    if isinstance(value, str):
        value = value.strip()
        if FaultPlan.parse(value) is None:  # "" or "off"
            return None
    return value


#: field -> coercion of an object or spec string into the field's value.
_COERCE = {"backend": _backend, "cache": CacheConfig.parse,
           "faults": _faults, "tier": TierPolicy.parse,
           "stitch": StitchQueueConfig.parse}


@dataclass(frozen=True)
class RunConfig:
    """Backend, code cache, fault plan, tiering policy and stitch
    scheduling of a run.  Each field accepts its object or its spec
    string (None means the default)."""

    backend: Union[str, ExecutionBackend] = DEFAULT_BACKEND
    cache: CacheConfig = CacheConfig()
    #: a fault spec, kept as given (None: no faults), or a plan object.
    faults: Union[str, FaultPlan, None] = None
    tier: TierPolicy = TierPolicy()
    stitch: StitchQueueConfig = StitchQueueConfig()

    def __post_init__(self) -> None:
        for name, coerce in _COERCE.items():
            object.__setattr__(self, name, coerce(getattr(self, name)))

    @classmethod
    def parse(cls, spec: Union[str, "RunConfig", None],
              base: Optional["RunConfig"] = None) -> "RunConfig":
        """``base`` (default: the default config) with the fields
        ``spec`` names replaced; a RunConfig passes through.  An
        unknown or repeated field, or a bad field spec, raises
        ValueError naming the token."""
        if isinstance(spec, RunConfig):
            return spec
        fields = {}
        for token in (spec or "").split():
            name, sep, text = token.partition("=")
            try:
                if not sep or not text:
                    raise ValueError("want FIELD=SPEC")
                if name not in FIELDS:
                    raise ValueError("unknown field %r (choose from %s)"
                                     % (name, ", ".join(FIELDS)))
                if name in fields:
                    raise ValueError("field %r given twice" % name)
                fields[name] = _COERCE[name](text)
            except ValueError as exc:
                raise ValueError("%s: %s" % (token, exc)) from None
        return dataclasses.replace(base or cls(), **fields)

    @classmethod
    def from_cli(cls, spec: str) -> "RunConfig":
        """:meth:`parse` for a ``--config`` flag: a bad spec prints one
        ``error: --config ...`` line and exits with status 2."""
        try:
            return cls.parse(spec)
        except ValueError as exc:
            print("error: --config %s" % exc, file=sys.stderr)
            raise SystemExit(2)

    def replace(self, **settings) -> "RunConfig":
        """A copy with the named fields replaced by an object or spec;
        a None value keeps the field, so optional overrides pass
        straight through."""
        settings = {name: value for name, value in settings.items()
                    if value is not None}
        return dataclasses.replace(self, **settings) if settings else self

    def describe(self) -> str:
        """The spec of the non-default fields, in :data:`FIELDS`
        order; :meth:`parse` reads it back to an equal config."""
        tokens = []
        for name in FIELDS:
            value = getattr(self, name)
            if value == getattr(_DEFAULT, name):
                continue
            if isinstance(value, ExecutionBackend):
                value = value.name
            tokens.append("%s=%s" % (name, value if isinstance(value, str)
                                     else value.describe()))
        return " ".join(tokens)

    def fault_plan(self, seed: int = 0) -> Optional[FaultPlan]:
        """The fault plan of one run: a fresh plan from the spec
        (seeded by ``seed`` unless it names ``@SEED``), the given plan
        object, or None."""
        if isinstance(self.faults, str):
            return FaultPlan.parse(self.faults, seed=seed)
        return self.faults


_DEFAULT = RunConfig()
