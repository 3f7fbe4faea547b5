"""Checks that the benchmark's correctness gate and tracer can be trusted.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def _small_pages(tmp_path, gate, seed=3):
    wl = run.PageWorkload("page_batch", paws=(5, 8), inputs=4, degrade_every=4, side=0, tail=0.9)
    wl.prepare(seed, tmp_path, gate)
    return wl


def test_wrong_expected_count_is_counted_as_failure(tmp_path):
    class Tampered(run.PageWorkload):
        def prepare(self, seed, workdir, gate):
            super().prepare(seed, workdir, gate)
            first = self.items[0]
            first.counts = (first.counts[0] + 1,) + first.counts[1:]

    wl = Tampered("page_batch", paws=(5, 8), inputs=4, degrade_every=4, side=0, tail=0.9)
    gate, metrics, _ = run.run_end_to_end(wl, 3, 0.5, tmp_path)
    assert gate.failed > 0
    assert metrics["success_fraction"] == (gate.attempted - gate.failed) / gate.attempted < 1
    assert any("truth" in reason for reason in gate.reasons)


def test_clean_run_has_no_failures(tmp_path):
    gate = run.Gate()
    wl = _small_pages(tmp_path, gate)
    run.reference_pass(wl, gate)
    assert gate.attempted == 2 * len(wl.items) and gate.failed == 0


def test_cli_batch_with_wrong_truth_fails(tmp_path):
    gate = run.Gate()
    wl = run.CliWorkload(batches=2, side=1, tail=0.9)
    wl.prepare(4, tmp_path, gate)
    counts, paws = wl.items[1].expected[0]
    wl.items[1].expected[0] = (counts, paws + 1)
    run.reference_pass(wl, gate)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_traced_outputs_match_untraced_and_wrappers_are_removed(tmp_path):
    gate = run.Gate()
    wl = _small_pages(tmp_path, gate)
    reference = run.reference_pass(wl, gate)
    features = sys.modules["scriptid.features"]
    original = features.trace_contours
    tracer = tracing.Tracer()
    with tracer.installed("ops"):
        assert features.trace_contours is not original
        traced = {i: wl.outcome(item, wl.run(item)) for i, item in enumerate(wl.items)}
    assert features.trace_contours is original
    assert traced == reference
    assert tracer.spans and not any(s.error for s in tracer.spans)


def test_traced_counts_repeat_exactly(tmp_path):
    gate = run.Gate()
    wl = _small_pages(tmp_path, gate)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed("ops"):
            for item in wl.items:
                wl.run(item)
        metrics = tracing.layer_metrics(tracer, lambda when: 1.0)
        counts.append({k: metrics[k] for k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["geometry.trace_contours.calls_per_line"] > 1


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    parent, child = tracing.Span("a", -1, 0, "ops"), tracing.Span("b", 0, 0, "ops")
    parent.start, parent.end = 0.0, 1.0
    child.start, child.end = 0.2, 0.5
    tracer.spans = [parent, child]
    assert tracer.self_times() == [0.7, 0.3]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "page_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
