"""Self-test of the benchmark at tiny sizes.

Run from the root of the checkout: ``python3 -m pytest benchmarks``.  The
tiny workloads take about half a minute; most of it is the density test's
fixed GOF binning, which does not shrink with the sample size.
"""

import dataclasses
import json
import time

import pytest

import run
import spans
from workloads import (
    BAND_CURVE_ROWS,
    TINY,
    CheckError,
    check_coverage,
    check_curve,
    check_profile,
    check_verify,
    check_walk,
    workload_ops,
)


@pytest.fixture(scope="module")
def traced():
    """Traced tiny runs of every workload, with each op's output text."""
    results, outputs = {}, {}
    for workload in run.WORKLOADS:
        results[workload] = run.measure(workload, seed=0, seconds=0, trace=True, tiny=True)
        for op in workload_ops(workload, 0, run.WORK_DIR, tiny=True):
            outputs[op.name] = (run.ROOT / op.output).read_text()
    return results, outputs


def test_tiny_workloads_pass_with_every_layer_metric(traced):
    results, _ = traced
    for workload, result in results.items():
        assert result["correct"], (workload, result["errors"])
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {*spans.METRICS, "tracing_overhead_s"}
    layer = {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in results.items()}
    # 500 replicates: 5 walk draws of the identity samplers, the knight pair,
    # signs for the signed side, plus one walk for the estimator agreement.
    assert layer["verify"]["walk.stream.calls"] == 10 * 500 + 1
    assert layer["verify"]["oracle.joint_density.calls"] > 0
    assert layer["verify"]["oracle.sample_identity_pair.walk_steps"] == 9 * 500 * 1000
    assert layer["export"]["scaling.band_local_time.calls"] == BAND_CURVE_ROWS
    assert layer["coverage"]["curve.coverage_check.steps"] == TINY["budget"]
    for values in layer.values():
        assert 0 < values["cli.self_s"] < values["cli.main.s"]
        assert values["cli.bytes_written"] > 0


def _replace_line(text, index, line):
    lines = text.split("\n")
    lines[index] = line
    return "\n".join(lines)


def test_walk_check_fails_on_corrupted_csv(traced):
    text = traced[1]["walk"]
    steps = TINY["steps"]
    check_walk(text, steps)
    lines = text.split("\n")
    k, site, height = lines[3].split(",")
    corrupted = [
        text.replace("k,site,height", "k,site,h", 1),
        "\n".join(lines[:-2]) + "\n",  # one row short
        _replace_line(text, 3, f"{k},{int(site) + 4},{height}"),  # a step of 3 or 5
        _replace_line(text, 1, "0,0,2"),  # the first block at a site has height 2
        _replace_line(text, 2, "5," + lines[2].split(",", 1)[1]),  # k out of order
        text + "oops\n",
    ]
    for bad in corrupted:
        with pytest.raises(CheckError):
            check_walk(bad, steps)


def test_curve_check_fails_on_corrupted_csv(traced):
    _, outputs = traced
    occupation, band = outputs["curve-occupation"], outputs["curve-band"]
    check_curve(occupation, band=False)
    check_curve(band, band=True)
    lines = occupation.split("\n")
    with pytest.raises(CheckError):  # t not increasing
        check_curve(_replace_line(occupation, 2, lines[3]), band=False)
    t, x, _ = lines[5].split(",")
    with pytest.raises(CheckError):  # zero height at t > 0
        check_curve(_replace_line(occupation, 5, f"{t},{x},0"), band=False)
    with pytest.raises(CheckError):  # a band row missing
        check_curve("\n".join(band.split("\n")[:-2]) + "\n", band=True)


def test_profile_check_fails_on_corrupted_csv(traced):
    _, outputs = traced
    band = outputs["profile-band"]
    check_profile(band, band=True)
    check_profile(outputs["profile-occupation"], band=False)
    lines = band.split("\n")
    y = lines[50].split(",")[0]
    with pytest.raises(CheckError):  # negative local time
        check_profile(_replace_line(band, 50, f"{y},-1"), band=False)
    with pytest.raises(CheckError):  # 100 rows
        check_profile("\n".join(lines[:-2]) + "\n", band=False)
    rows = [r.split(",") for r in lines[1:-1]]
    doubled = [lines[0], *(f"{y},{2 * float(v)!r}" for y, v in rows), ""]
    with pytest.raises(CheckError):  # integrates to about 2t
        check_profile("\n".join(doubled), band=True)


def test_report_checks_fail_on_wrong_reports(traced):
    _, outputs = traced
    report = json.loads(outputs["density"])
    check_verify(outputs["density"], seed=0)
    with pytest.raises(CheckError):
        check_verify(json.dumps({**report, "verdict": "fail"}), seed=0)
    with pytest.raises(CheckError):
        check_verify(outputs["density"], seed=1)
    with pytest.raises(CheckError):
        check_verify(json.dumps({k: v for k, v in report.items() if k != "params"}), seed=0)
    with pytest.raises(CheckError):
        check_verify("{", seed=0)

    coverage = json.loads(outputs["coverage"])
    budget = TINY["budget"]
    check_coverage(outputs["coverage"], budget)
    params = coverage["params"]
    for bad in (
        {**coverage, "verdict": "pass"},
        {**coverage, "params": {**params, "steps_used": budget - 1}},
        {**coverage, "params": {**params, "covered": params["total"]}},
    ):
        with pytest.raises(CheckError):
            check_coverage(json.dumps(bad), budget)


def test_unexpected_exit_code_and_timeout_count_as_failures():
    (op,) = workload_ops("coverage", 0, run.WORK_DIR, tiny=True)
    deadline = time.perf_counter() + 60
    wrong_rc = run.run_op(dataclasses.replace(op, expect_rc=0), False, deadline)
    assert wrong_rc["error"] == "exit code 1, expected 0"
    timed_out = run.run_op(op, False, time.perf_counter())
    assert timed_out["error"] == "timed out"


def test_self_time_subtracts_the_cover_of_child_spans():
    spans_ = [
        ["cli.main", 0.0, 10.0, -1],
        ["walk.stream", 1.0, 3.0, 0],
        ["walk.stream", 2.0, 5.0, 0],  # overlaps its sibling: cover is 4, not 5
        ["walk.stream", 2.5, 2.75, 2],  # nested in a span of its own name
    ]
    assert spans.self_times(spans_) == [6.0, 2.0, 2.75, 0.25]
    metrics = spans.layer_metrics([{"spans": spans_, "counts": {"cli.bytes_written": 7}}])
    assert metrics["walk.stream.calls"] == 3
    assert metrics["walk.stream.s"] == 5.0  # the nested span is not counted twice
    assert metrics["cli.self_s"] == 6.0
    assert metrics["cli.bytes_written"] == 7
