"""Declarative health rules over metric values -> structured reports.

A rule is one line of text::

    [fail:|warn:] METRIC [rate | / METRIC] OP THRESHOLD

* ``METRIC OP X`` -- compare the metric's value (counter/gauge value,
  histogram count; a metric that never fired reads as 0).
* ``METRIC rate OP X`` -- the value per *kilocycle* of simulated time
  (needs the run's cycle count; 0 cycles -> rate 0).
* ``A / B OP X`` -- ratio of two metric values (B == 0 -> ratio 0,
  so "no denominator yet" never fires a rule).
* ``OP`` is one of ``>`` ``>=`` ``<`` ``<=`` ``==`` ``!=``.
* The optional severity prefix defaults to ``fail``.

Rules evaluate against a flat ``{metric name: number}`` mapping --
either :func:`flatten_snapshot` over the live registry, or
:func:`values_from_result` over a :class:`RunResult` (which is how the
fuzzer health-checks iterations without enabling global metrics),
which replays the run's records through :mod:`repro.obs.sink`.

The result is a :class:`HealthReport`: per-rule values and verdicts
plus an overall status (``ok`` / ``warn`` / ``fail``), consumed by
``python -m repro.obs health``, the fuzzer's silent-degradation flags,
and CI.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .sink import replay

Number = float

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}

SEVERITIES = ("warn", "fail")


class HealthRuleError(ValueError):
    """Malformed rule text."""


@dataclass(frozen=True)
class HealthRule:
    """One parsed rule (see module docstring for the grammar)."""

    metric: str
    op: str
    threshold: float
    mode: str = "value"            # "value" | "rate" | "ratio"
    denominator: Optional[str] = None
    severity: str = "fail"

    def describe(self) -> str:
        if self.mode == "rate":
            expr = "%s rate" % self.metric
        elif self.mode == "ratio":
            expr = "%s / %s" % (self.metric, self.denominator)
        else:
            expr = self.metric
        return "%s: %s %s %g" % (self.severity, expr, self.op,
                                 self.threshold)


def parse_rule(text: str) -> HealthRule:
    """Parse one rule line (comments/blank lines are the caller's
    problem -- see :func:`parse_rules`)."""
    severity = "fail"
    body = text.strip()
    for prefix in SEVERITIES:
        if body.startswith(prefix + ":"):
            severity = prefix
            body = body[len(prefix) + 1:].strip()
            break
    tokens = body.split()
    if len(tokens) < 3:
        raise HealthRuleError("rule %r: expected METRIC OP VALUE" % text)
    op = tokens[-2]
    if op not in _OPS:
        raise HealthRuleError("rule %r: bad operator %r" % (text, op))
    try:
        threshold = float(tokens[-1])
    except ValueError:
        raise HealthRuleError("rule %r: bad threshold %r"
                              % (text, tokens[-1]))
    head = tokens[:-2]
    if len(head) == 1:
        return HealthRule(head[0], op, threshold, severity=severity)
    if len(head) == 2 and head[1] == "rate":
        return HealthRule(head[0], op, threshold, mode="rate",
                          severity=severity)
    if len(head) == 3 and head[1] == "/":
        return HealthRule(head[0], op, threshold, mode="ratio",
                          denominator=head[2], severity=severity)
    raise HealthRuleError("rule %r: bad expression %r"
                          % (text, " ".join(head)))


def parse_rules(text: str) -> List[HealthRule]:
    """Parse a rule file: one rule per line, ``#`` comments and blank
    lines ignored."""
    rules = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rules.append(parse_rule(line))
    return rules


#: Default rule set: red flags (correctness-adjacent degradation) and
#: yellow flags (economic anomalies worth a look).
DEFAULT_RULES = tuple(parse_rules("""
fail: cache.checksum_failures > 0
fail: breaker.trips rate > 0.05
warn: fallback.count / region.entries > 0.1
warn: tier.demotions > 0
warn: fault.injected > 0
"""))


@dataclass
class RuleResult:
    rule: HealthRule
    value: float
    fired: bool

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule.describe(), "metric": self.rule.metric,
                "mode": self.rule.mode, "severity": self.rule.severity,
                "value": self.value, "threshold": self.rule.threshold,
                "op": self.rule.op, "fired": self.fired}


@dataclass
class HealthReport:
    """Outcome of evaluating a rule set against one run."""

    results: List[RuleResult] = field(default_factory=list)
    cycles: Optional[int] = None

    @property
    def fired(self) -> List[RuleResult]:
        return [r for r in self.results if r.fired]

    @property
    def status(self) -> str:
        worst = "ok"
        for result in self.fired:
            if result.rule.severity == "fail":
                return "fail"
            worst = "warn"
        return worst

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        return {"status": self.status, "cycles": self.cycles,
                "fired": len(self.fired),
                "rules": [r.to_dict() for r in self.results]}


def flatten_snapshot(snap: Dict[str, Dict[str, object]]
                     ) -> Dict[str, Number]:
    """Registry snapshot -> flat name->number mapping (counter/gauge
    value; histogram count)."""
    values: Dict[str, Number] = {}
    for name, data in snap.items():
        if data["type"] == "histogram":
            values[name] = data["count"]
        else:
            values[name] = data["value"]
    return values


def values_from_result(result) -> Dict[str, Number]:
    """The metric values a :class:`RunResult`'s records report: the
    values the live registry would hold had metrics been enabled for
    that run alone."""
    return flatten_snapshot(replay(result).snapshot())


def evaluate(values: Dict[str, Number],
             rules: Sequence[HealthRule] = DEFAULT_RULES,
             cycles: Optional[int] = None) -> HealthReport:
    """Evaluate ``rules`` against flat metric ``values``."""
    if cycles is None:
        raw = values.get("vm.cycles")
        cycles = int(raw) if raw else None
    report = HealthReport(cycles=cycles)
    for rule in rules:
        value = float(values.get(rule.metric, 0))
        if rule.mode == "rate":
            value = 1000.0 * value / cycles if cycles else 0.0
        elif rule.mode == "ratio":
            den = float(values.get(rule.denominator, 0))
            value = value / den if den else 0.0
        fired = _OPS[rule.op](value, rule.threshold)
        report.results.append(RuleResult(rule, value, fired))
    return report


def evaluate_result(result,
                    rules: Sequence[HealthRule] = DEFAULT_RULES
                    ) -> HealthReport:
    """Evaluate rules directly against a :class:`RunResult`."""
    return evaluate(values_from_result(result), rules,
                    cycles=result.cycles)


def format_report(report: HealthReport) -> str:
    """Human-readable rendering, one rule per line plus a verdict."""
    lines = ["health: %s (%d/%d rules fired%s)"
             % (report.status.upper(), len(report.fired),
                len(report.results),
                ", %d cycles" % report.cycles if report.cycles else "")]
    for result in report.results:
        marker = "!!" if result.fired else "ok"
        lines.append("  [%s] %-45s value=%g"
                     % (marker, result.rule.describe(), result.value))
    return "\n".join(lines)
