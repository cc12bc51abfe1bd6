"""Regression tests over the fuzz corpus.

Every ``tests/corpus/*.c`` file is a minimized reproducer committed
when the differential fuzzer (``python -m repro.fuzz``) found a
divergence that was then fixed.  Replaying them through the three-way
oracle, under the configuration their ``// tier:`` / ``// stitch:`` /
``// backend:`` / ``// faults:`` / ``// cache:`` headers record, keeps
the fixes honest; a short deterministic fuzz run guards the
generator/oracle plumbing itself.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.codecache import CacheConfig
from repro.fuzz import fuzz_one, reproducer_config
from repro.testing.oracle import run_oracle

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.c")) if CORPUS_DIR.is_dir() else []


def test_reproducer_headers_round_trip() -> None:
    """Every header the fuzzer writes reads back as the oracle
    configuration it records; ``// cache:`` carries the spec form
    :meth:`CacheConfig.describe` writes."""
    cache = CacheConfig("lru", 2, 64)
    text = ("// stitch: async:drain=2,depth=1\n// tier: threshold:3\n"
            "// backend: pycode\n// faults: stitch.table:0.5@7\n"
            "// cache: %s\n// args: 3 4\nint main() { return 0; }\n"
            % cache.describe())
    assert reproducer_config(text) == ([3, 4], {
        "stitch": "async:drain=2,depth=1", "tier": "threshold:3",
        "backend": "pycode", "faults": "stitch.table:0.5@7",
        "cache_config": cache})
    assert reproducer_config("int main() { return 0; }\n") == ([0], {
        "stitch": None, "tier": None, "backend": None, "faults": None,
        "cache_config": None})


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_reproducer_stays_fixed(path: Path) -> None:
    text = path.read_text()
    args, recorded = reproducer_config(text)
    for arg in args:
        report = run_oracle(text, [arg], **recorded)
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
    args, recorded = reproducer_config(text)
    for arg in args:
        report = run_oracle(text, [arg], **dict(recorded,
                                                backend="pycode"))
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
    pinned to a specific queue config by a ``// stitch:`` header keep
    their recorded spec."""
    text = path.read_text()
    args, recorded = reproducer_config(text)
    stitch = recorded["stitch"] or "async:drain=2,depth=2"
    for arg in args:
        report = run_oracle(text, [arg], **dict(
            recorded, stitch=stitch,
            backend=recorded["backend"] or backend))
        assert not report.annotation_reject or report.ok
        assert not report.divergences, \
            "%s (arg %d, stitch=%s): %s" \
            % (path.name, arg, stitch, report.divergences)


def test_corpus_headers_well_formed() -> None:
    for path in CORPUS_FILES:
        text = path.read_text()
        assert re.search(r"^// args:", text, re.MULTILINE), \
            "%s lacks an // args: header" % path.name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_smoke(seed: int) -> None:
    """A few deterministic fuzzer iterations end-to-end: generated
    programs must either pass the oracle or be legitimate
    annotation rejections -- never diverge."""
    program, bad, _rejected = fuzz_one(seed, seed)
    assert bad is None, \
        "seed %d diverged: %s" % (seed, bad.divergences if bad else None)
    assert program.source  # generator produced something non-trivial
