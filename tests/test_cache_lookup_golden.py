"""Golden tests for the paper's worked example (sections 2-4).

The cache-lookup routine, compiled for a 512-line, 32-byte-block,
4-way set-associative cache, must stitch into code with the shape the
paper shows at the end of section 4:

* ``tag = addr >> 14`` -- the division by blockSize*numLines became a
  shift;
* ``line = (addr >> 5) & 511`` -- division and modulus became shift
  and mask;
* four unrolled probe copies, one per way;
* no loads of cache geometry (blockSize/numLines/associativity) remain.
"""

import pytest

from repro import compile_program

SOURCE = """
struct SetStructure { int tag; };
struct Line { SetStructure **sets; };
struct Cache { int blockSize; int numLines; Line **lines; int associativity; };

int cacheLookup(uint addr, Cache *cache) {
    dynamicRegion (cache) {
        uint blockSize = (uint)cache->blockSize;
        uint numLines = (uint)cache->numLines;
        uint tag = addr / (blockSize * numLines);
        uint line = (addr / blockSize) % numLines;
        SetStructure **setArray = cache->lines[line]->sets;
        int assoc = cache->associativity;
        int set;
        unrolled for (set = 0; set < assoc; set++) {
            if ((uint)setArray[set] dynamic-> tag == tag)
                return 1;
        }
        return 0;
    }
}

Cache *makeCache(int blockSize, int numLines, int assoc) {
    Cache *c = (Cache*)alloc(sizeof(Cache));
    c->blockSize = blockSize;
    c->numLines = numLines;
    c->associativity = assoc;
    c->lines = (Line**)alloc(numLines);
    int i;
    for (i = 0; i < numLines; i++) {
        Line *ln = (Line*)alloc(sizeof(Line));
        ln->sets = (SetStructure**)alloc(assoc);
        int j;
        for (j = 0; j < assoc; j++) {
            SetStructure *s = (SetStructure*)alloc(sizeof(SetStructure));
            s->tag = 0 - 1;
            ln->sets[j] = s;
        }
        c->lines[i] = ln;
    }
    return c;
}

int main() {
    Cache *c = makeCache(32, 512, 4);
    int r0 = cacheLookup(123456, c);           // miss
    c->lines[(123456 / 32) % 512]->sets[3]->tag = 123456 / (32 * 512);
    int r1 = cacheLookup(123456, c);           // hit in way 3
    return r1 * 10 + r0;
}
"""


@pytest.fixture(scope="module")
def run():
    program = compile_program(SOURCE, mode="dynamic")
    result = program.run()
    return program, result


def stitched_code(program, result):
    """The installed stitched instructions for the one region."""
    # Re-run on a persistent VM to inspect its code memory.
    from repro.machine.loader import load_program
    from repro.machine.vm import VM
    from repro.runtime.engine import _RegionRuntime
    vm = VM()
    program.layout.write_into(vm)
    load_program(vm, program.compiled)
    runtime = _RegionRuntime(program, vm)
    vm.rt_handlers["region_lookup"] = runtime.lookup
    vm.rt_handlers["region_stitch"] = runtime.stitch
    vm.run(program.compiled["main"].base)
    (report,) = [event.report for event in runtime.log.entries
                 if event.kind == "stitch"]
    end = len(vm.code)
    return vm.code[report.entry:end], report


def test_result_correct(run):
    _, result = run
    assert result.value == 10  # miss then hit


def test_single_stitch(run):
    _, result = run
    assert len(result.stitch_reports) == 1


def test_divisions_became_shifts(run):
    program, result = run
    code, report = stitched_code(program, result)
    ops = [i.op for i in code]
    assert "udivq" not in ops
    assert "uremq" not in ops
    assert "divq" not in ops
    shifts = [i for i in code if i.op == "srl"]
    assert len(shifts) >= 2
    # tag = addr >> 14 (blockSize * numLines = 16384 = 2^14)
    assert any(i.imm == 14 for i in shifts)
    # line = (addr >> 5) & 511
    assert any(i.imm == 5 for i in shifts)
    assert any(i.op == "and" and i.imm == 511 for i in code)


def test_strength_reduction_events(run):
    _, result = run
    (report,) = result.stitch_reports
    assert report.peepholes.get("div_to_shift") == 2
    assert report.peepholes.get("mod_to_and") == 1


def test_loop_fully_unrolled_four_ways(run):
    _, result = run
    (report,) = result.stitch_reports
    # 4 body iterations plus the final (false) record.
    assert report.loop_iterations == {1: 5}
    program, _ = run
    code, _ = stitched_code(program, result)
    # four probe loads of the dynamic tag field
    dynamic_probes = [i for i in code if i.op == "ldq" and i.imm == 0
                      and i.ra not in (31,)]
    assert len([i for i in code if i.op == "ldq"]) >= 4


def test_no_geometry_loads_remain(run):
    # blockSize, numLines, associativity and cache->lines were all
    # folded into the code: the only remaining loads walk the per-line
    # sets and read the (dynamic) tags.
    program, result = run
    code, report = stitched_code(program, result)
    loads = [i for i in code if i.op in ("ldq", "ldt")]
    # per paper: the cache->lines pointer is a large constant fetched
    # from the linearized table (1 load), setArray is computed from
    # lines[line] (2 loads), and each of the 4 probes reads setArray[k]
    # and its (dynamic) tag (2 loads each).
    assert len(loads) <= 1 + 2 + 4 * 2
    assert report.holes_patched >= 5


def test_constant_folding_reported(run):
    _, result = run
    (report,) = result.stitch_reports
    opts = report.optimizations_applied()
    assert opts["constant_folding"]
    assert opts["complete_loop_unrolling"]
    assert opts["strength_reduction"]
    # The only constant branch is the unrolled loop's termination test,
    # which counts as unrolling rather than branch elimination.
    assert not opts["static_branch_elimination"]


def test_overhead_accounted(run):
    _, result = run
    breakdown = result.region_cycles("cacheLookup", 1, "dynamic")
    assert breakdown["stitcher"] > 0
    assert breakdown["setup"] > 0
    (report,) = result.stitch_reports
    assert report.cycles == breakdown["stitcher"]
    assert report.directives > 10


def test_speedup_over_static():
    dynamic = compile_program(SOURCE, mode="dynamic")
    static = compile_program(SOURCE, mode="static")
    probes = """
    int drive(Cache *c) {
        int t = 0; int a;
        for (a = 0; a < 40000; a += 61) t += cacheLookup((uint)a, c);
        return t;
    }
    """
    src2 = SOURCE.replace("int main()", probes + "\nint main()").replace(
        "return r1 * 10 + r0;", "drive(c); return r1 * 10 + r0;")
    rd = compile_program(src2, mode="dynamic").run()
    rs = compile_program(src2, mode="static").run()
    assert rd.value == rs.value
    static_cycles = rs.region_cycles("cacheLookup", 1, "static")["region"]
    stitched = rd.region_cycles("cacheLookup", 1, "dynamic")["stitched"]
    assert stitched < static_cycles  # asymptotic win
