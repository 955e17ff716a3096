"""Tests of the benchmark's own code: the self-time reducer, the per-layer
metric derivation, the tracer install/restore, the answer checker and the
run contract.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_of_nested_spans():
    trace = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.child", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 7.0),
        Span(4, 0, "c", 6.5, 7.5),  # overlaps b: the union is counted once
    ]
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_covered_length_clips_to_the_parent():
    assert spans.covered_length([(-1.0, 1.0), (3.0, 9.0)], 0.0, 4.0) == pytest.approx(2.0)
    assert spans.covered_length([], 0.0, 4.0) == 0.0


def test_layer_metrics_on_synthetic_spans():
    trace = [
        Span(0, None, "free_algebra.graded_component", 0.0, 4.0),
        Span(1, 0, "linalg.SpanBuilder.insert", 0.5, 1.0, True),
        Span(2, 0, "linalg.SpanBuilder.insert", 1.0, 1.5, False),
        Span(3, 0, "linalg.SpanBuilder.insert", 1.5, 2.0, True),
        Span(4, 0, "free_algebra.canon_trees", 2.0, 2.5, ((1, 2, 2, 3), 10)),
        Span(5, 0, "free_algebra.canon_trees", 2.5, 2.6, ((1, 2, 2, 3), 10)),
        Span(6, None, "multiplier.multiplier_report", 4.0, 6.0),
        Span(7, 6, "multiplier.present", 4.0, 5.0, 90),
        Span(8, None, "multiplier.multiplier_report", 6.0, 6.5),
        Span(9, None, "multiplier.multiplier_report", 6.5, 7.0),
    ]
    metrics = spans.layer_metrics(trace, Counter({"trees.canonicalize": 7}), 8.0)
    assert metrics["free_algebra.relation_rows"] == 3
    assert metrics["free_algebra.relation_useful_ratio"] == pytest.approx(2 / 3)
    assert metrics["linalg.SpanBuilder.insert.calls"] == 3
    assert metrics["free_algebra.trees"] == 10
    assert metrics["free_algebra.graded_component.self_s"] == pytest.approx(4.0 - 1.5 - 0.6)
    assert metrics["multiplier.dim_E"] == 90
    assert metrics["multiplier.multiplier_report.calls"] == 3
    assert metrics["multiplier.analysis_hit_ratio"] == pytest.approx(2 / 3)
    assert metrics["trees.canonicalize.calls"] == 7
    assert metrics["trace.top_span_share"] == pytest.approx(7.0 / 8.0)


def test_install_traces_every_namespace_and_restores():
    from nlie import free_algebra, graded_dimension, trees

    originals = (free_algebra.graded_component, free_algebra.canonicalize, trees.canonicalize)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert free_algebra.canonicalize is trees.canonicalize
        assert free_algebra.canonicalize is not originals[1]
        free_algebra.clear_caches()
        assert free_algebra.graded_dimension(2, 2, 4) == 3
    finally:
        restore()
    assert (free_algebra.graded_component, free_algebra.canonicalize, trees.canonicalize) == originals
    import nlie

    assert nlie.graded_dimension is graded_dimension
    recorded, counts = tracer.take()
    names = {s.name for s in recorded}
    assert {"free_algebra.graded_dimension", "free_algebra.graded_component",
            "linalg.SpanBuilder.insert", "free_algebra.GradedComponent.build"} <= names
    assert counts["trees.canonicalize"] > 0
    assert all(s.end >= s.start for s in recorded)


def _attempt(job, answers, sha256):
    return workloads.Attempt(job, 0.1, dict(answers), sha256, None)


def test_checker_accepts_pinned_answers():
    pinned = workloads.PINNED["graded(2,4,6)"]
    oracles = {"graded(2,4,6)": [("dim", "witt", workloads.witt(4, 6))]}
    good = _attempt("graded(2,4,6)", pinned["answers"], pinned["sha256"])
    assert workloads.failures([good], workloads.PINNED, oracles) == []


def test_checker_fails_on_a_wrong_pinned_value():
    job = "H(2,2) c=2"
    pinned = workloads.PINNED[job]
    attempts = [_attempt(job, pinned["answers"], pinned["sha256"]) for _ in range(3)]
    wrong = json.loads(json.dumps(workloads.PINNED))
    wrong[job]["answers"]["multiplier_dim"] = 21
    found = workloads.failures(attempts, wrong, {})
    assert len(found) == 3
    assert "multiplier_dim" in found[0][0]


def test_checker_fails_on_digest_oracle_and_raise():
    pinned = workloads.PINNED["graded(2,2,9)"]
    bad_digest = _attempt("graded(2,2,9)", pinned["answers"], "0" * 64)
    bad_oracle = _attempt("graded(2,2,9)", pinned["answers"], pinned["sha256"])
    oracles = {"graded(2,2,9)": [("dim", "witt", 57)]}

    def boom():
        raise RuntimeError("no")

    raised = workloads.run_job(workloads.Job("graded(2,2,9)", boom), before=lambda: None)
    found = workloads.failures([bad_digest, bad_oracle, raised], workloads.PINNED, oracles)
    assert len(found) == 3
    assert "sha256" in found[0][0] and "witt" in found[1][0] and "raised" in found[2][0]


def test_witt_matches_sympy_and_the_pinned_dims():
    from sympy import divisors, mobius

    for d, w in ((4, 6), (2, 9), (4, 3), (3, 7)):
        expected = sum(mobius(k) * d ** (w // k) for k in divisors(w)) // w
        assert workloads.witt(d, w) == expected
    assert workloads.witt(4, 6) == workloads.PINNED["graded(2,4,6)"]["answers"]["dim"] == 670
    assert workloads.witt(2, 9) == workloads.PINNED["graded(2,2,9)"]["answers"]["dim"] == 56
    for job, m, c, value in (("H(2,2) c=2", 2, 2, 20), ("H(2,3) c=1", 3, 1, 14),
                             ("H(2,1) c=3", 1, 3, 9)):
        assert workloads.witt_heisenberg_multiplier(m, c) == value
        assert workloads.PINNED[job]["answers"]["multiplier_dim"] == value


def test_every_job_has_a_pinned_value():
    names = {f"graded({n},{d},{w})" for n, d, w in workloads.GRADED_LAYERS}
    names |= {f"{label} c={c}" for label, _, c in workloads.MULTIPLIER_CASES}
    names.add(f"catalog c_max={workloads.CATALOG_C_MAX}")
    assert names == set(workloads.PINNED)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = set(spans.layer_metrics([], Counter(), 1.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mib"}
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert set(spans.COUNT_METRICS) <= emitted


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0, 2.0, 3.0]) is None
    assert run.tail_percentile([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail_percentile([float(i) for i in range(19)]) is None
    assert run.tail_percentile([float(i) for i in range(20)]) == (50.0, 9.0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
