"""The section 5 register-actions result.

The paper: applying Wall-style register actions (the stitcher promotes
stack-array elements to registers, deleting loads/stores and address
arithmetic) raises the calculator's speedup from 1.7 to 4.1.

We reproduce the *shape*: register actions must deliver a substantial
further speedup over plain dynamic compilation, by converting the
interpreted expression's stack traffic into register moves.
"""

from repro import compile_program
from repro.bench.harness import measure, region_row
from repro.bench.workloads import calculator_workload

from conftest import record_line


def run_with_register_actions(workload):
    program = compile_program(workload.source, mode="dynamic",
                              register_actions=True)
    result = program.run()
    assert result.value == workload.expected
    return result


def test_register_actions_speedup(benchmark):
    workload = calculator_workload()
    plain = measure(workload)

    result = benchmark.pedantic(
        lambda: run_with_register_actions(workload),
        rounds=1, iterations=1)

    speedup_plain = plain.region.speedup
    speedup_actions = region_row(workload, plain.static_result,
                                 result).speedup
    (report,) = result.stitch_reports
    record_line(
        "register actions (calculator): plain dynamic %.2fx -> with "
        "register actions %.2fx   [paper: 1.7 -> 4.1]   promoted %d "
        "elements, rewrote %d loads / %d stores, deleted %d address "
        "calcs" % (
            speedup_plain, speedup_actions,
            report.reg_actions.get("elements_promoted", 0),
            report.reg_actions.get("loads_rewritten", 0),
            report.reg_actions.get("stores_rewritten", 0),
            report.reg_actions.get("addr_calcs_removed", 0),
        ))
    benchmark.extra_info["speedup_plain"] = round(speedup_plain, 2)
    benchmark.extra_info["speedup_register_actions"] = \
        round(speedup_actions, 2)

    assert report.reg_actions.get("elements_promoted", 0) >= 3
    assert report.reg_actions.get("loads_rewritten", 0) > 10
    # register actions must beat plain dynamic compilation meaningfully
    assert speedup_actions > speedup_plain * 1.2


def test_register_actions_preserve_results():
    workload = calculator_workload(xs=6, ys=6)
    static = compile_program(workload.source, mode="static").run()
    with_actions = compile_program(workload.source, mode="dynamic",
                                   register_actions=True).run()
    assert static.value == with_actions.value == workload.expected
