"""Tests of the benchmark's own logic: input generation, digests, span arithmetic."""

import json
from collections import Counter
from pathlib import Path

import pytest

import tracing
import workloads


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_hetero2d_generator_is_byte_identical_per_seed(tmp_path):
    first = workloads.generate_hetero2d(7, tmp_path / "a")
    workloads.generate_hetero2d(7, tmp_path / "b")
    workloads.generate_hetero2d(8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")

    cfg = json.loads(first.read_text())
    assert cfg["seed"] == 7
    assert cfg["grid"]["cells"] == [128, 128]
    assert cfg["solver"]["t_end"] / cfg["solver"]["dt"] == pytest.approx(60)
    assert len(cfg["coefficients"]["schedule"]) == 1


def test_hetero2d_patterns_use_each_level_on_fixed_block_counts(tmp_path):
    workloads.generate_hetero2d(3, tmp_path)
    side = workloads.HETERO_CELLS // workloads.HETERO_BLOCKS
    for csv in sorted(tmp_path.glob("*.csv")):
        rows = [line.split(",") for line in csv.read_text().split()]
        assert [int(i) for i, _ in rows] == list(range(workloads.HETERO_CELLS ** 2))
        counts = Counter(float(v) for _, v in rows)
        assert sorted(counts) == sorted(workloads.HETERO_LEVELS)
        assert sorted(c // side ** 2 for c in counts.values()) == [21, 21, 22]


def test_digest_ignores_summary_only(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "trajectory").mkdir(parents=True)
        (tmp_path / name / "trajectory" / "state_000000.ck").write_bytes(b"\x00\x01")
        (tmp_path / name / "summary.json").write_text(f'{{"runtime_seconds": "{name}"}}')
    assert workloads.digest_outputs(tmp_path / "a") == workloads.digest_outputs(tmp_path / "b")
    (tmp_path / "b" / "trajectory" / "state_000000.ck").write_bytes(b"\x00\x02")
    assert workloads.digest_outputs(tmp_path / "a") != workloads.digest_outputs(tmp_path / "b")


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("pass", 0.0, 10.0, -1),
        _span("cli.run", 1.0, 9.0, 0),
        _span("integrator.step", 2.0, 6.0, 1),
        _span("integrator.solve", 3.0, 5.5, 2),
        _span("output.write", 7.0, 8.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 2.5, 1.0])
    layers = tracing.layer_self_times(spans)
    assert layers == pytest.approx({"unattributed": 2.0, "cli": 3.0, "integrator": 4.0,
                                    "output": 1.0})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_from_wrapped_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("reactions.evaluate", lambda x: x + 1)
    seen = []
    outer = tracer.wrap("integrator.step", lambda x: inner(x) * 2,
                        after=lambda args, result: seen.append((args, result)))
    assert outer(3) == 8
    assert seen == [((3,), 8)]
    assert tracer.spans == [["integrator.step", 0.0, 3.0, -1, 0],
                            ["reactions.evaluate", 1.0, 2.0, 0, 0]]
    assert tracer.stack == []


def test_layer_metrics_from_a_small_pass():
    spans = [
        _span("pass", 0.0, 20.0, -1),
        _span("cli.import", 0.0, 1.0, 0),
        _span("cli.main", 1.0, 19.0, 0),
        _span("cli.run", 2.0, 18.0, 2),
        _span("integrator.run", 3.0, 13.0, 3),
        _span("integrator.step", 4.0, 8.0, 4),
        _span("integrator.solve", 5.0, 7.0, 5),
        _span("integrator.solve", 7.0, 7.5, 5),
        _span("output.step_series", 13.0, 15.0, 3),
        _span("output.write", 13.5, 14.5, 8),
        _span("output.write", 15.0, 16.0, 3),
    ]
    metrics = tracing.layer_metrics(spans, {"integrator.halvings": 1})
    assert metrics["cli.import_s"] == 1.0
    assert metrics["integrator.solve_s"] == 2.5
    assert metrics["integrator.accepted_ratio"] == 0.5
    assert metrics["integrator.step_self_s"] == 1.5
    assert metrics["integrator.run_self_s"] == 6.0
    assert metrics["output.step_series_s"] == 2.0
    assert metrics["output.other_s"] == 1.0   # the nested write counts in step_series
    assert metrics["cli.self_s"] == pytest.approx(1.0 + 2.0 + 16.0 - 10.0 - 2.0 - 1.0)
    assert metrics["cli.check_pct"] == 0.0
    assert metrics["trace.unattributed_s"] == 1.0
    assert metrics["integrator.halvings"] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_quantile(40_000) == 99.9
    assert tracing.tail_quantile(16_000) == 99.9
    assert tracing.tail_quantile(60) == 75.0
    assert tracing.tail_quantile(19) is None
    assert tracing.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50.0) == 3.0
    assert tracing.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 99.0) == 5.0


def test_declared_per_layer_metrics_are_all_computed():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    steps = [_span("integrator.step", float(k), k + 0.5, 0) for k in range(100)]
    computed = set(tracing.layer_metrics([_span("pass", 0.0, 100.0, -1)] + steps, {}))
    computed |= {"proc.cpu_s", "trace.overhead_s"}   # added by the benchmark driver
    assert {m["name"] for m in spec["per_layer"]} <= computed
