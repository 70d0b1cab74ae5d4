"""Self-test of the benchmark at tiny sizes (M = 20, N = 32, 3 trials).

    python3 -m pytest -q bench

Checks that each workload's result names every metric BENCHMARK.json
declares, with its unit, that traced spans nest, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import check_nesting, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = _run(ROOT, "--workload", request.param, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        report_file = ROOT / ".bench_out" / f"{request.param}-seed3-trace{trace}.json"
        out[trace] = (json.loads(lines[-2]), json.loads(lines[-1]),
                      json.loads(report_file.read_text())["report"])
    return out


def test_result_names_every_declared_metric(runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, result, _ = runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert isinstance(result["failed"], int)
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_end_to_end_metrics_are_positive(runs):
    _, result, _ = runs[0]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_report_names_every_command_time(runs):
    report, _, _ = runs[0]
    cmds = workloads.commands(report["workload"], 3, workloads.TINY)
    assert set(report["commands_s"]) == {f"{c.name}_s" for c in cmds}
    for stats in report["commands_s"].values():
        assert stats["n"] >= 2 and stats["median"] > 0
    assert report["environment"]["blas_threads"] <= report["environment"]["nproc"]


def test_spans_nest(runs):
    _, _, report = runs[1]
    assert report["spans"]
    for spans in report["spans"]:
        assert check_nesting(spans) == []
        assert min(self_times(spans).values()) >= 0
        commands = [sp for sp in spans if sp["name"].startswith("cli.")]
        assert [sp["command"] for sp in commands] == list(range(len(commands)))
        assert all(sp["parent"] is None for sp in commands)
        for sp in spans:
            if sp["parent"] is None and not sp["name"].startswith("cli."):
                assert sp["name"] == "goursat.initial_v0" and sp["command"] is None


def test_check_nesting_flags_a_child_outside_its_parent():
    spans = [
        {"id": 0, "name": "cli.kernel", "parent": None, "command": 0, "start": 0.0, "end": 1.0},
        {"id": 1, "name": "goursat.solve_goursat", "parent": 0, "command": 0,
         "start": 0.5, "end": 1.5},
    ]
    assert check_nesting(spans)


def test_inputs_follow_the_seed(tmp_path):
    for name, seed in (("a", 0), ("b", 0), ("c", 1)):
        workloads.write_inputs("controls", seed, tmp_path / name)
    q = {name: (tmp_path / name / "q.csv").read_bytes() for name in "abc"}
    assert q["a"] == q["b"] != q["c"]
    assert workloads.commands("controls", 0, workloads.FULL) \
        != workloads.commands("controls", 1, workloads.FULL)


@pytest.mark.parametrize("n", [1, 2])
def test_sweep_count_repeats_across_seeds(n):
    """The seeded potentials keep the Picard sweep count fixed (M = 200)."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import wavekernel as wk

    counts = set()
    for seed in range(8):
        xs, vals = workloads.potential_samples(seed, n)
        p = wk.sampled_potential(np.asarray(xs), np.asarray(vals))
        counts.add(wk.solve_goursat(p, 1.0, workloads.FULL.h_coarse, 1e-10).iterations)
    assert counts == {9}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
