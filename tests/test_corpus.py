"""Regression tests over the fuzz corpus.

Every ``tests/corpus/*.c`` file is either a minimized reproducer
committed when the differential fuzzer (``python -m repro.fuzz``)
found a divergence that was then fixed, or a coverage program for a
runtime path generated programs almost never reach (e.g. reviving
evicted stitches under a one-entry cache).  Replaying them through
the three-way oracle, under the run configuration their ``// config:``
header records, keeps the fixes honest and the rare paths checked; a
short deterministic fuzz run guards the generator/oracle plumbing
itself.  The :class:`RunConfig` spec
contract those headers rely on is pinned here too.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import RunConfig
from repro.dynamic.splitter import _RegionSplitter
from repro.fuzz import (
    _save_unshrunk, fuzz_one, main as fuzz_main, random_config,
    reproducer_config,
)
from repro.testing.ablate import diverged_leg, localize_divergence
from repro.testing.genprog import generate_program
from repro.testing.oracle import FirstExecutionPycode, run_oracle

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.c")) if CORPUS_DIR.is_dir() else []


#: one non-default spec per field, in the form ``describe`` writes.
FIELD_SPECS = ["backend=pycode", "cache=lru:2:64", "faults=stitch.table:0.5",
               "tier=threshold:3,spec=2,versions=4",
               "stitch=async:depth=1,drain=2"]

#: CI's fuzz seeds and iteration counts.
CI_SEEDS = [(0, 200), (11, 75), (23, 100)]


def test_reproducer_headers_round_trip() -> None:
    """Each field alone, all five, and the empty spec: ``describe``
    writes back the spec ``parse`` read, and a ``// config:`` header
    carrying it reads back as the same configuration."""
    for spec in FIELD_SPECS + [" ".join(FIELD_SPECS), ""]:
        config = RunConfig.parse(spec)
        assert config.describe() == spec
        assert (config == RunConfig()) == (spec == "")
        text = "// config: %s\n// args: 3 4\nint main() {}\n" % spec
        assert reproducer_config(text) == ([3, 4], config)
    assert reproducer_config("int main() {}\n") == ([0], RunConfig())


@pytest.mark.parametrize("spec", [
    "bogus=1", "tier=eager tier=threshold:2", "tier", "cache=", "lru:2"])
def test_run_config_rejects_bad_specs(spec: str) -> None:
    with pytest.raises(ValueError,
                       match="^%s: " % re.escape(spec.split()[-1])):
        RunConfig.parse(spec)


def test_every_ci_draw_round_trips() -> None:
    for seed, iters in CI_SEEDS:
        for iteration in range(iters):
            config = RunConfig.parse("faults=all:0.1",
                                     random_config(seed, iteration))
            assert RunConfig.parse(config.describe()) == config


def test_header_overrides_only_the_fields_it_names() -> None:
    """On ``--replay`` a reproducer header pins the fields it names and
    the ``--config`` spec supplies the rest."""
    pinned = RunConfig.parse(" ".join(FIELD_SPECS))
    text = "// config: tier=eager stitch=async:drain=2\nint main() {}\n"
    assert reproducer_config(text, pinned)[1] \
        == pinned.replace(tier="eager", stitch="async:drain=2")


def test_saved_reproducer_replays_as_found(tmp_path: Path) -> None:
    """A reproducer saved through the fuzzer's save path under a config
    with every field non-default and an unseeded faults spec reads
    back through ``--replay``'s reader as the same config, and replays
    every oracle leg's fault schedule exactly: the header keeps the
    spec as given, so each run of a leg still draws its own seed."""
    def fault_counts(config, arg):
        report = run_oracle(program.source, [arg], config=config)
        return {leg: outcome.run_result.fault_counts
                for leg, outcome in report.outcomes.items()
                if outcome.run_result is not None}, report

    config = RunConfig.parse("backend=pycode cache=lru:2 faults=all:0.2 "
                             "tier=threshold:2 stitch=async:drain=2")
    program = generate_program(5)
    found = [fault_counts(config, arg) for arg in program.args]
    _save_unshrunk(str(tmp_path), "found.c", program, found[0][1], config)
    args, recovered = reproducer_config((tmp_path / "found.c").read_text())
    assert (args, recovered) == (program.args, config)
    for arg, (counts, _) in zip(args, found):
        assert any(counts.values())
        assert fault_counts(recovered, arg)[0] == counts


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_reproducer_stays_fixed(path: Path) -> None:
    text = path.read_text()
    args, recorded = reproducer_config(text)
    for arg in args:
        report = run_oracle(text, [arg], config=recorded)
        assert not report.annotation_reject, \
            "%s (arg %d): dynamic leg rejected: %s" \
            % (path.name, arg,
               [o.error for o in report.outcomes.values()])
        assert not report.divergences, \
            "%s (arg %d): %s" % (path.name, arg, report.divergences)


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_reproducer_stays_fixed_under_pycode(path: Path) -> None:
    """Every known-tricky program replays bit-identically with the
    pycode backend driving the primary dynamic legs (the cross-backend
    leg then re-runs rvm, so both directions of the seam are proven
    on the corpus)."""
    text = path.read_text()
    args, recorded = reproducer_config(
        text, RunConfig(backend="pycode"))
    for arg in args:
        report = run_oracle(text, [arg], config=recorded)
        assert not report.divergences, \
            "%s (arg %d): %s" % (path.name, arg, report.divergences)


@pytest.mark.parametrize("backend", [None, "pycode"])
@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_reproducer_replays_under_async_stitching(
        path: Path, backend) -> None:
    """Every known-tricky program replays clean when its dynamic legs
    stitch through the async queue, on both backends -- the queue may
    reschedule compilation but never change results.  Reproducers
    pinned to a specific queue config by their ``// config:`` header
    keep their recorded spec."""
    text = path.read_text()
    args, recorded = reproducer_config(text, RunConfig(
        backend=backend, stitch="async:drain=2,depth=2"))
    for arg in args:
        report = run_oracle(text, [arg], config=recorded)
        assert not report.annotation_reject or report.ok
        assert not report.divergences, \
            "%s (arg %d, config %r): %s" \
            % (path.name, arg, recorded.describe(), report.divergences)


def test_corpus_headers_well_formed() -> None:
    for path in CORPUS_FILES:
        text = path.read_text()
        assert re.search(r"^// args:", text, re.MULTILINE), \
            "%s lacks an // args: header" % path.name


def test_generated_loops_never_assign_their_counter() -> None:
    """No ``for`` body in CI's fuzz programs assigns its own loop
    counter: such a loop can run every oracle leg to the cycle budget
    (a counter stays readable -- it anchors run-time expressions)."""
    header = re.compile(r"for \((j\d+) = 0;")
    offenders = []
    for seed, iters in CI_SEEDS:
        for iteration in range(iters):
            program = generate_program(seed * 1_000_003 + iteration)
            for node in program.live_nodes():
                match = header.search(node.head)
                loop: list = []
                node.render(loop, 0)  # "int jN;", "for (...) {", body
                if match and re.search(r"\b%s [-+*^|&]?= " % match.group(1),
                                       "\n".join(loop[2:])):
                    offenders.append((seed, iteration, match.group(1)))
    assert not offenders, offenders


def _crash(self, vm, entry, int_args=None):
    raise RuntimeError("backend fault")


def test_crashing_leg_is_reported_and_saved(tmp_path: Path,
                                            monkeypatch) -> None:
    """A leg whose run raises something other than a VMError (a host
    fault in a backend) is a ``crash`` outcome that diverges from the
    interpreter: ``fuzz_one`` reports it instead of dying, and the
    fuzz run localizes it to the backend, shrinks the program and
    saves a reproducer."""
    monkeypatch.setattr(FirstExecutionPycode, "execute", _crash)
    config = RunConfig(backend="rvm")
    _, bad, _ = fuzz_one(0, 0, max_stmts=3, config=config)
    assert bad.outcomes["dynamic+pycode"].status == "crash"
    assert diverged_leg(bad) == "dynamic+pycode"
    assert fuzz_main(["--seed", "0", "--iters", "1", "--max-stmts", "3",
                      "--config", "backend=rvm", "--trace-tail", "0",
                      "--corpus-dir", str(tmp_path), "--quiet"]) == 1
    [saved] = tmp_path.glob("*.c")
    text = saved.read_text()
    assert "dynamic+pycode crash (RuntimeError: backend fault)" in text
    assert "// implicated: pycode-backend\n" in text


def _split_fault(self):
    raise RuntimeError("splitter fault")


def test_a_compiler_fault_is_a_crash_outcome(monkeypatch) -> None:
    """An exception from ``compile_program`` other than a
    ``CompileError`` (a bug in the compiler) is the leg's ``crash``
    outcome, as a host fault during a run is, so a fuzz run reports and
    shrinks the program instead of dying."""
    monkeypatch.setattr(_RegionSplitter, "run", _split_fault)
    source = """
        int f(int c, int v) { dynamicRegion (c) { return c * 3 + v; } }
        int main(int x) { return f(2, x); }
    """
    report = run_oracle(source, [1])
    crashed = report.outcomes["dynamic"]
    assert crashed.status == "crash"
    assert crashed.error == "RuntimeError: splitter fault"
    assert report.outcomes["static"].status == "ok"
    assert ("interp", "dynamic") in [(d.left, d.right)
                                     for d in report.divergences]


def test_ablation_names_the_backend_a_divergence_needs(monkeypatch) -> None:
    """A divergence only a pycode leg shows, and that rvm does not,
    implicates the backend, not the stitcher's peepholes (a probe of
    the rvm dynamic leg would always agree)."""
    monkeypatch.setattr(FirstExecutionPycode, "execute", _crash)
    source = "int main(int x) { int s = 0; int i;" \
             " for (i = 0; i < x; i++) s = s + i; return s; }"
    report = run_oracle(source, [3])
    ablation = localize_divergence(source, [3], leg=diverged_leg(report))
    assert ablation.backend_implicated == "pycode"
    assert ablation.summary() == "pycode-backend"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_smoke(seed: int) -> None:
    """A few deterministic fuzzer iterations end-to-end: generated
    programs must either pass the oracle or be legitimate
    annotation rejections -- never diverge."""
    program, bad, _rejected = fuzz_one(seed, seed)
    assert bad is None, \
        "seed %d diverged: %s" % (seed, bad.divergences if bad else None)
    assert program.source  # generator produced something non-trivial
