"""Smoke test of the benchmark at tiny sizes (48×64 clips, short training).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that each traced session's self times sum to its wall, that the
traced stage totals match ``PlaybackTelemetry.stage_seconds``, and that
the benchmark reads time only through ``repro.obs.clock``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT)]

import metrics  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

#: Traced self times of one session must add up to its measured wall
#: within 1% (the span opens a few microseconds after the session clock).
SELF_TIME_TOL = 0.01
#: Traced stage totals may differ from the client's own stage accounting
#: by the wrapper overhead: at most 2% of the session wall plus 1 ms.
STAGE_TOL_FRAC, STAGE_TOL_S = 0.02, 1e-3


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.2", "--trace", "0",
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _units("end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] != 0, name
        # The readable table repeats each metric with unit and sample count.
        assert any(line.split()[:1] == [name] and m["unit"] in line
                   and "n=" in line for line in lines), name


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def traced(request):
    run, table, _raw, recorder = bench.run_workload(
        request.param, SEED, 0.2, trace=True, scale=workloads.TINY)
    return run, table, recorder


def test_traced_run_reports_every_per_layer_metric(traced):
    run, table, _recorder = traced
    assert not run.mismatches
    assert {name: unit for name, (_v, unit, _n) in table.items()} \
        == _units("per_layer")
    assert all(math.isfinite(v) for v, _u, _n in table.values())


def test_traced_self_times_sum_to_session_wall(traced):
    run, _table, recorder = traced
    kids = recorder.children()
    sessions = [s for s in run.sessions if s.span is not None]
    assert sessions
    for session in sessions:
        total = sum(recorder.self_seconds(i, kids)
                    for i in recorder.subtree(session.span, kids))
        assert total == pytest.approx(session.wall, rel=SELF_TIME_TOL)
        tags = {recorder.spans[i].session
                for i in recorder.subtree(session.span, kids)}
        assert len(tags) == 1 and None not in tags


def test_traced_stage_totals_match_playback_telemetry(traced):
    run, _table, recorder = traced
    for session in (s for s in run.sessions if s.span is not None):
        stages = session.result.telemetry.stage_seconds
        tolerance = STAGE_TOL_FRAC * session.wall + STAGE_TOL_S
        for stage, seconds in metrics.stage_totals(recorder,
                                                   session).items():
            assert seconds == pytest.approx(stages.get(stage, 0.0),
                                            abs=tolerance), stage


def test_without_program_source_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "play_static",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_reads_no_raw_timer():
    from tests.test_no_raw_timers import TIME_IMPORT, TIMER_CALL, code_lines

    offenders = [f"{path.name}:{lineno}"
                 for path in sorted(HERE.glob("*.py"))
                 for lineno, line in code_lines(path)
                 if TIMER_CALL.search(line) or TIME_IMPORT.search(line)]
    assert not offenders
