"""The benchmark's own tests: smoke-sized runs of every workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as cli  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer, analyze, _resolve  # noqa: E402

WORKLOADS = ("rolling", "drifting", "fleet")
#: The workloads BENCHMARK.json names; ``drifting`` runs by hand only.
CONTRACT = ("rolling", "fleet")
SMOKE_SECONDS = "1"


def _config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_metrics_emitted():
    config = _config()
    assert [w["name"] for w in config["workloads"]] == list(CONTRACT)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] \
        == list(cli.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] \
        == list(cli.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _invoke(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = cli.PER_LAYER if trace else cli.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == dict(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in (*expected, ("error_rate", "ratio")):
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in out.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_and_wrappers_are_restored(workload,
                                                     monkeypatch):
    monkeypatch.setattr(workloads, "TRACE_BLOCK", 2)
    originals = [_resolve(module, path) for module, path, _, _ in TARGETS]
    originals = [owner.__dict__[attr] for owner, attr in originals]
    run = workloads.execute(workload, seed=3, seconds=3.0, trace=True)
    assert run.failed == 0 and run.mismatches == 0 and not run.leaks
    traced = sum(1 for frame in run.frames if frame[1])
    assert traced > 0
    analysis = analyze(run.tracer.spans)
    assert analysis["frames"] == traced
    assert analysis["max_frame_gap"] < 0.05
    frame_wall = sum((s[3] - s[2]) * 1e3 for s in run.tracer.spans
                     if s[1] == "session")
    assert sum(analysis["self_ms"].values()) == pytest.approx(
        frame_wall, rel=0.05)
    restored = [_resolve(module, path) for module, path, _, _ in TARGETS]
    assert all(owner.__dict__[attr] is original for (owner, attr), original
               in zip(restored, originals))
    assert run.tracer.originals_restored()


def test_tracer_skips_targets_the_program_no_longer_defines():
    gone = ("repro.streaming.session", "StreamSession.gone", "x", {})
    tracer = Tracer(TARGETS[:1] + (gone,))
    tracer.install()
    try:
        assert tracer.missing == {"repro.streaming.session.StreamSession.gone"}
        assert not tracer.originals_restored()
    finally:
        tracer.uninstall()
    assert tracer.originals_restored()


def test_reference_gate_counts_a_corrupted_frame():
    run = workloads.execute("drifting", seed=4, seconds=1.0, trace=False)
    assert run.checked >= 1 and run.mismatches == 0
    stream, index, deadline, result = run.kept[0]
    result.distances[0, 0] += 1.0
    run.checked = 0
    workloads.check_reference(run)
    assert run.mismatches == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _invoke("rolling", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
