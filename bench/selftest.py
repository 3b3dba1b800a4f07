"""Self-tests of the benchmark harness.

    python3 -m pytest bench/selftest.py -q

Every run here is a fresh `bench/run.py` process with --seconds 1, so the
program's caches start cold each time, as they do in a real run.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMED_UNITS = {"ms", "s", "1/s"}


@functools.lru_cache(maxsize=None)
def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    _, result = _run(workload, 5, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # documented defects lower ok_ratio but are not failures
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_digests_and_counts(workload):
    first_detail, first = _run(workload, 5, 1)
    again_detail, again = _run(workload, 5, 1, cwd=BENCH)  # a second, independent process
    assert first_detail["input_digest"] == again_detail["input_digest"]
    assert first_detail["output_digest"] == again_detail["output_digest"]
    for name, metric in first["metrics"].items():
        if metric["unit"] not in TIMED_UNITS and not name.startswith(("host.", "cli.import")):
            assert again["metrics"][name]["value"] == metric["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_gives_other_inputs(workload):
    assert _run(workload, 5, 1)[0]["input_digest"] != _run(workload, 6, 1)[0]["input_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_time_fits_in_the_op(workload):
    detail, _ = _run(workload, 5, 1)
    for wall, program_self in detail["op_walls_ns"]:
        assert 0 <= program_self <= wall
    dump = json.loads((BENCH / ".work" / f"spans-{workload}-5.json").read_text())
    spans = dump["spans"]
    assert spans, "no spans kept"
    # parents are indexed within their op, whose root span has parent -1
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    for k, r in enumerate(roots):
        op_spans = spans[r: roots[k + 1] if k + 1 < len(roots) else len(spans)]
        child_sum = [0] * len(op_spans)
        for name, start, end, parent, op in op_spans:
            assert op == op_spans[0][4]
            if parent >= 0:
                p = op_spans[parent]
                assert p[1] <= start <= end <= p[2], (name, p[0])
                child_sum[parent] += end - start
        selfs = [s[2] - s[1] - c for s, c in zip(op_spans, child_sum)]
        assert all(v >= 0 for v in selfs)
        assert sum(selfs[1:]) <= op_spans[0][2] - op_spans[0][1]


def test_default_seed_is_checked_against_goldens():
    detail, result = _run("fusion", 0, 1)
    assert detail["golden_checked"] > 0 and result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
