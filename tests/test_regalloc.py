"""Register allocator tests."""

from repro.codegen.regalloc import allocate
from repro.ir.ssa import from_ssa, to_ssa
from repro.machine.isa import FLOAT_ALLOCATABLE, INT_ALLOCATABLE
from repro import compile_program

from helpers import build, interp_run


def prepare(source, func="main"):
    module = build(source)
    f = module.functions[func]
    to_ssa(f)
    from_ssa(f)
    return f


BUSY = """
int main(int a, int b) {
    int c = a + b;
    int d = a - b;
    int e = c * d;
    int f = c + d + e;
    int g = e * f - a;
    int h = g + c;
    return h + d + e + f + g;
}
"""


def test_every_temp_gets_a_location():
    func = prepare(BUSY)
    alloc = allocate(func)
    used = set()
    for block in func.blocks.values():
        for instr in block.all_instrs():
            for value in instr.uses():
                if hasattr(value, "name") and value.name in func.temp_types:
                    used.add(value.name)
            dst = instr.defs()
            if dst is not None:
                used.add(dst.name)
    for name in used:
        assert name in alloc.locations, "no location for %s" % name


def test_registers_come_from_the_pool():
    func = prepare(BUSY)
    alloc = allocate(func)
    valid = set(INT_ALLOCATABLE) | set(FLOAT_ALLOCATABLE)
    for loc in alloc.locations.values():
        if not loc.spilled:
            assert loc.reg in valid


def test_float_temps_get_float_registers():
    func = prepare("""
        int main() {
            float a = 1.5; float b = 2.5;
            float c = a * b + a;
            return (int) c;
        }
    """)
    alloc = allocate(func)
    for name, loc in alloc.locations.items():
        if loc.spilled:
            continue
        if func.temp_types.get(name) == "float":
            assert loc.reg in FLOAT_ALLOCATABLE
        else:
            assert loc.reg in INT_ALLOCATABLE


def test_no_overlapping_live_ranges_share_registers():
    """Simultaneously live temps must not share a register.

    Checked indirectly but strongly: a tiny register pool forces heavy
    reuse, and the program's result must still be correct end to end.
    """
    source = BUSY.replace("int main(int a, int b)", "int main(int a, int b)")
    expected, _ = interp_run(source, args=[9, 4])
    program = compile_program(source, mode="static")
    assert program.run(args=[9, 4]).value == expected


def test_spilling_with_tiny_pool():
    func = prepare(BUSY)
    alloc = allocate(func, int_pool=[1, 2, 3])
    assert alloc.num_spill_slots > 0
    assert all(loc.spilled or loc.reg in (1, 2, 3)
               for loc in alloc.locations.values()
               if func.temp_types.get("x", "int") == "int")


def test_spill_slots_are_dense():
    func = prepare(BUSY)
    alloc = allocate(func, int_pool=[1, 2])
    slots = sorted(loc.spill_slot for loc in alloc.locations.values()
                   if loc.spilled)
    assert slots == list(range(len(slots)))


def test_used_registers_reported():
    func = prepare(BUSY)
    alloc = allocate(func)
    for loc in alloc.locations.values():
        if not loc.spilled:
            assert loc.reg in alloc.used_registers


def test_block_order_starts_at_entry():
    func = prepare(BUSY)
    alloc = allocate(func)
    assert alloc.block_order[0] == func.entry
    assert set(alloc.block_order) == set(func.blocks)


def test_spilled_program_still_correct():
    # Deep expression with many simultaneously-live values: with the
    # real pool this may spill; either way results must match.
    source = """
    int main() {
        int v[26]; int i;
        for (i = 0; i < 26; i++) v[i] = i * i + 1;
        int a0=v[0]; int a1=v[1]; int a2=v[2]; int a3=v[3]; int a4=v[4];
        int a5=v[5]; int a6=v[6]; int a7=v[7]; int a8=v[8]; int a9=v[9];
        int b0=v[10]; int b1=v[11]; int b2=v[12]; int b3=v[13];
        int b4=v[14]; int b5=v[15]; int b6=v[16]; int b7=v[17];
        int b8=v[18]; int b9=v[19]; int c0=v[20]; int c1=v[21];
        int c2=v[22]; int c3=v[23]; int c4=v[24]; int c5=v[25];
        return a0+a1*a2+a3*a4+a5*a6+a7*a8+a9*b0+b1*b2+b3*b4
             + b5*b6+b7*b8+b9*c0+c1*c2+c3*c4+c5
             + (a0+b0+c0)*(a1+b1+c1);
    }
    """
    expected, _ = interp_run(source)
    program = compile_program(source, mode="static")
    assert program.run().value == expected


#: prints, per program, every function's words, every region's
#: template words by block label and every region's block order.
DIGEST = r"""
import json
from repro import compile_program
from repro.bench.workloads import all_workloads
from repro.testing.genprog import generate_program

def words(instrs):
    return [(i.op, i.rd, i.ra, i.rb, i.imm, i.label, i.name,
             repr(i.extra), i.owner) for i in instrs]

sources = {w.name + str(n): w.source
           for n, w in enumerate(all_workloads())}
sources.update(("genprog%d" % seed, generate_program(seed).source)
               for seed in range(12))
out = {}
for name, source in sorted(sources.items()):
    try:
        program = compile_program(source)
    except Exception as exc:
        out[name] = type(exc).__name__
        continue
    out[name] = {fn.name: dict(
        [("code", words(fn.code))]
        + [("%d:%s" % (region.region_id, label), words(block.instrs))
           for region in fn.regions
           for label, block in region.blocks.items()]
        + [("%d:order" % region.region_id, list(region.blocks))
           for region in fn.regions])
        for fn in program.compiled.values()}
print(json.dumps(out))
"""


def test_code_is_independent_of_the_hash_seed():
    """Register numbers and template block order do not depend on the
    process's string hashing: the Table 2 workloads and a few generated
    programs compile to the same words, with each region's blocks in
    the same order, under two hash seeds."""
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    runs = [subprocess.Popen(
        [sys.executable, "-c", DIGEST], stdout=subprocess.PIPE,
        universal_newlines=True,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
        for seed in ("1", "2")]
    outs = [json.loads(run.communicate()[0]) for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert sum(isinstance(code, dict) for code in outs[0].values()) > 12
    assert [name for name in outs[0] if outs[0][name] != outs[1][name]] \
        == []
