"""Region keys and constants that the region body never reads.

The splitter's dispatch code reads a region's ``key(...)`` and constant
values at the region entry, after SSA construction and optimization.
Those values must stay defined even when no instruction inside the
region reads the variable; if dead-code elimination deleted the
definition, register allocation would give the undefined temp a
register and versions would be keyed by whatever it held (``(0,)``
and ``(4,)`` for the first program below).  Static mode ignores the
annotations, so its code (and cycles) are unaffected.
"""

from __future__ import annotations

import pytest

from repro.runtime.engine import compile_program

#: the key variable is computed before the region and never read in it.
UNREAD_KEY = """
int f(int a) {
    int x = a * 2;
    int y = 0;
    dynamicRegion key(x) (x) { y = a + 1; }
    return y;
}
int main() { return f(3) * 100 + f(-1); }
"""

#: the same, with the key merged from two definitions (a phi).
UNREAD_MERGED_KEY = """
int f(int a) {
    int x = 1;
    if (a > 0) { x = 2; }
    int y = 0;
    dynamicRegion key(x) (x) { y = a + 1; }
    return y;
}
int main() { return f(3) * 100 + f(-1); }
"""

#: program -> (keys in entry order, static-mode cycles).
CASES = {
    "unread_key": (UNREAD_KEY, [(6,), (-2,)], 87),
    "unread_merged_key": (UNREAD_MERGED_KEY, [(2,), (1,)], 102),
}


@pytest.mark.parametrize("backend", ("rvm", "pycode"))
@pytest.mark.parametrize("case", sorted(CASES))
def test_unread_key_keys_versions_by_its_value(case, backend):
    source, keys, _ = CASES[case]
    result = compile_program(source, mode="dynamic", backend=backend).run()
    assert result.value == 400
    assert [event.kind for event in result.entries] == ["stitch", "stitch"]
    assert [event.key for event in result.entries] == keys


@pytest.mark.parametrize("backend", ("rvm", "pycode"))
@pytest.mark.parametrize("case", sorted(CASES))
def test_static_mode_ignores_unread_key(case, backend):
    source, _, cycles = CASES[case]
    result = compile_program(source, mode="static", backend=backend).run()
    assert result.value == 400
    assert result.entries == []
    assert result.cycles == cycles
