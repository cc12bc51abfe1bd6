"""Divergence localization and reproducer shrinking.

When the oracle finds a divergence, two questions matter for triage:

1. *Which pass is the culprit?*  :func:`localize_divergence` re-runs
   the oracle with each optimization pass of :mod:`repro.opt.pipeline`
   toggled off individually (plus the reachability analysis and the
   stitcher's value-based peepholes, the two dynamic-side
   optimizations), and reports every toggle that makes the divergence
   vanish.  A divergence of a leg on another backend that vanishes
   when the leg runs on rvm names that backend instead.

2. *What is the smallest program that still shows it?*
   :func:`shrink_program` greedily deletes statements from the
   generated program tree (and unwraps control structures around
   their bodies) while the divergence persists, converging on a
   minimal reproducer suitable for ``tests/corpus/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..backends import get_backend
from ..machine.costs import StitcherCosts
from ..opt.pipeline import OptOptions
from ..runtime.config import RunConfig
from .genprog import GenProgram
from .oracle import (
    OracleReport, _compare, _interp_leg, _vm_leg, leg_backend, run_oracle,
)

__all__ = ["AblationResult", "diverged_leg", "localize_divergence",
           "shrink_program", "format_reproducer"]

#: The toggleable passes of the static optimization pipeline.
OPT_PASSES = ("fold", "copyprop", "cse", "algebraic", "dce", "merge")


@dataclass
class AblationResult:
    """Which toggles make the divergence disappear."""

    #: opt/pipeline passes whose removal fixes the program.
    culprit_passes: List[str] = field(default_factory=list)
    #: True if disabling the reachability analysis fixes it.
    reachability_implicated: bool = False
    #: True if disabling stitcher peepholes fixes it.
    peepholes_implicated: bool = False
    #: the diverging leg's backend, when the leg agrees on rvm.
    backend_implicated: str = ""
    #: True if the divergence survives every ablation (a baseline or
    #: front-end bug rather than an optimizer interaction).
    survives_all: bool = False

    def summary(self) -> str:
        parts = list(self.culprit_passes)
        if self.reachability_implicated:
            parts.append("reachability")
        if self.peepholes_implicated:
            parts.append("stitcher-peepholes")
        if self.backend_implicated:
            parts.append("%s-backend" % self.backend_implicated)
        if not parts:
            return "none (survives every pass ablation)"
        return ", ".join(parts)


def _options_without(pass_name: str) -> OptOptions:
    options = OptOptions()
    setattr(options, pass_name, False)
    return options


def diverged_leg(report: OracleReport) -> str:
    """The leg the report's first divergence is about: the side that
    is not the interpreter."""
    divergence = report.divergences[0]
    return divergence.right if divergence.left == "interp" \
        else divergence.left


def _leg_agrees(source: str, args: List[int], leg: str, backend,
                max_cycles: int,
                stitcher_costs: Optional[StitcherCosts] = None) -> bool:
    """Whether ``leg``'s mode on ``backend`` agrees with the
    interpreter (one run, no invariant checks)."""
    mode = "static" if leg == "static" else "dynamic"
    outcome, _, _ = _vm_leg(
        leg, source, args, mode, RunConfig(backend=backend),
        stitcher_costs=stitcher_costs, runs=1, check_invariants=False,
        max_cycles=max_cycles)
    divergences: list = []
    _compare(_interp_leg(source, args), outcome, divergences)
    return not divergences


def localize_divergence(source: str, args: List[int],
                        max_cycles: int = 200_000_000,
                        leg: str = "dynamic",
                        config=None) -> AblationResult:
    """Toggle passes off one at a time; report which ones matter.

    ``leg`` and ``config`` name the oracle leg that diverged and the
    run configuration it ran under: the peephole probe reruns that
    leg's mode on that leg's backend, and a divergence of a leg on
    another backend that vanishes when the leg runs on rvm implicates
    the backend instead of the peepholes."""
    result = AblationResult()
    for pass_name in OPT_PASSES:
        report = run_oracle(source, args,
                            opt_options=_options_without(pass_name),
                            max_cycles=max_cycles)
        if report.ok:
            result.culprit_passes.append(pass_name)
    report = run_oracle(source, args, use_reachability=False,
                        max_cycles=max_cycles)
    if report.ok:
        result.reachability_implicated = True
    # Peepholes and backends only affect one leg: rerun it alone.
    backend = leg_backend(leg, config)
    name = get_backend(backend).name
    if name != "rvm" and _leg_agrees(source, args, leg, "rvm",
                                     max_cycles):
        result.backend_implicated = name
    else:
        costs = StitcherCosts()
        costs.enable_peepholes = False
        result.peepholes_implicated = _leg_agrees(
            source, args, leg, backend, max_cycles, stitcher_costs=costs)
    result.survives_all = not (result.culprit_passes
                               or result.reachability_implicated
                               or result.peepholes_implicated
                               or result.backend_implicated)
    return result


def shrink_program(program: GenProgram,
                   still_diverges: Optional[Callable[[str], bool]] = None,
                   max_rounds: int = 12,
                   max_cycles: int = 200_000_000) -> GenProgram:
    """Greedy statement deletion while the divergence persists.

    ``still_diverges(source)`` defaults to "the three-way oracle still
    reports a real divergence for this program's arguments" (a program
    every leg *rejects* does not count -- a reproducer must compile).
    Deletion is attempted node by node, in rounds, until a fixpoint;
    unwrappable nodes (an ``if`` around a block) are also tried as
    "replace with the body".
    """
    if still_diverges is None:
        args = program.args

        def still_diverges(source: str) -> bool:
            for arg in args:
                report = run_oracle(source, [arg], max_cycles=max_cycles)
                if report.compile_error:
                    return False
                if not report.ok:
                    return True
            return False

    for _ in range(max_rounds):
        changed = False
        for node in program.live_nodes():
            if node.deletable and not node.deleted:
                node.deleted = True
                if still_diverges(program.source):
                    changed = True
                else:
                    node.deleted = False
            if node.unwrappable and not node.unwrapped \
                    and not node.deleted:
                node.unwrapped = True
                if still_diverges(program.source):
                    changed = True
                else:
                    node.unwrapped = False
        if not changed:
            break
    return program


def format_reproducer(program: GenProgram, report: OracleReport,
                      ablation: Optional[AblationResult] = None,
                      title: str = "fuzz reproducer") -> str:
    """Render a corpus file: header comments + minimized source.

    The header is machine-readable enough for ``tests/test_corpus.py``
    to replay the program (``// args:`` drives the oracle).
    """
    lines = ["// %s (seed %d)" % (title, program.seed),
             "// args: %s" % " ".join(str(a) for a in program.args),
             "// features: %s" % ", ".join(program.features)]
    for divergence in report.divergences[:6]:
        lines.append("// divergence: %s" % divergence)
    if ablation is not None:
        lines.append("// implicated: %s" % ablation.summary())
    lines.append("")
    return "\n".join(lines) + program.source
