"""wavekernel benchmark: seeded CLI workloads, timed end to end and per layer.

    python3 bench/run.py --workload {lattice,controls,validate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``).  One process runs the workload's passes one after another, each
pass in a fresh interpreter so its peak RSS can be read when it is reaped.
A pass calls ``wavekernel.cli.main`` in process for every command of the
workload.  Passes repeat until ``--seconds`` have been spent on them (at
least two, so repeated outputs can be compared byte for byte).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from the traced ones, plus the tracing
overhead.  The last stdout line is the result object; the line before it
is a report with the environment, every command's median and percentile,
and each failed operation.  The report and the spans are also written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0          # every run ends well inside the 180 s limit
MIN_PASSES = 2
SETUP_ONLY = 3             # plus one set-up per pass, so at least 5 samples
ROUNDTRIP_MAX = 1e-10
ORACLE_MAX = 1e-2           # validate's own default oracle_rel_tol
MB = 1e6


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit for `end_to_end` or `per_layer` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Spawns workers in one work directory and keeps the run's deadline."""

    def __init__(self, workload: str, seed: int, size: str, work: Path):
        self.workload, self.seed, self.size, self.work = workload, seed, size, work
        self.deadline = time.monotonic() + DEADLINE_S
        # One BLAS thread (at most nproc, as required).  With two threads on a
        # 2-vCPU host the first dense SVD of a process sometimes stalls for
        # ~1 s, which made `bounds` and `validate` times bimodal.
        self.threads = 1
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)

    def spawn(self, script: str, result: Path, *extra: str) -> tuple[dict, float]:
        """Run a bench script to completion; (its JSON result, peak RSS in MB)."""
        argv = [sys.executable, str(BENCH / script), "--root", str(ROOT),
                "--workload", self.workload, "--seed", str(self.seed),
                "--size", self.size, "--result", str(result), *extra]
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL)
        pid = 0
        try:
            while not pid:
                if time.monotonic() > self.deadline:
                    raise BenchError(f"{script} did not finish before the run deadline")
                time.sleep(0.01)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:     # deadline, or this process is being stopped
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError(f"{script} {' '.join(extra)} exited with {proc.returncode}")
        return json.loads(result.read_text()), usage.ru_maxrss * 1024 / MB

    def run_pass(self, k: int, trace: bool) -> dict:
        pdir = self.work / f"pass-{k}"
        pdir.mkdir()
        flags = ("--trace",) if trace else ()
        res, rss = self.spawn("worker.py", self.work / f"pass-{k}.json",
                              "--dir", str(pdir), *flags)
        res.update(index=k, traced=trace, rss_mb=rss, dir=pdir,
                   total_s=sum(c["seconds"] for c in res["commands"]))
        return res

    def setup_sample(self, k: int, env: bool = False) -> dict:
        sdir = self.work / f"setup-{k}"
        sdir.mkdir()
        flags = ("--env",) if env else ()
        res, _ = self.spawn("worker.py", self.work / f"setup-{k}.json",
                            "--dir", str(sdir), "--setup-only", *flags)
        return res


def _digests(out: Path) -> dict[str, str]:
    return {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*")) if f.is_file()}


def _bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    vals = sorted(values)
    out = {"unit": "s", "median": statistics.median(vals), "n": len(vals),
           "percentile": None, "value": None}
    rank = len(vals) - 10
    if rank >= 1:
        out["percentile"] = round(100.0 * rank / len(vals), 2)
        out["value"] = vals[rank - 1]
    return out


def layer_metrics(res: dict, workload: str, size: workloads.Size,
                  cmds: list[workloads.Command]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from tracer import SELF_TIME, self_times

    spans = res["spans"]
    own = self_times(spans)
    m = {name: 0.0 for name in declared("per_layer")}
    for sp in spans:
        name = sp["name"]
        if name.startswith("cli."):
            m["cli.self_s"] += own[sp["id"]]
        elif sp["command"] is not None or name == "goursat.initial_v0":
            m[SELF_TIME[name]] += own[sp["id"]]
        if name == "goursat.solve_goursat":
            m["goursat.sweeps"] += sp["sweeps"]
            m["goursat.peak_mb"] = max(m["goursat.peak_mb"], sp["peak_bytes"] / MB)
        elif name == "control_op.certify_h2_bound":
            m["control_op.trials"] += sp["trials"]
        elif name == "oracle.fd_solve":
            m["oracle.fd_steps"] += sp["steps"]
    n = workloads.DIM[workload]
    T, h = workloads.lattice_of(workload, size)
    M = round(2 * T / h)
    N = workloads.table_n(workload, size)
    # computed from array shapes (complex128), not measured traffic
    m["goursat.lattice_mb"] = (M + 1) ** 2 * n * n * 16 / MB
    m["control_op.table_mb"] = (N + 1) ** 2 * n * n * 16 / MB if N else 0.0
    m["cli.out_mb"] = sum(_bytes(res["dir"] / c.out) for c in cmds) / MB
    return m


def environment(setup_env: dict, threads: int, seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None      # a checkout without .git (an exported tree) has no SHA
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **setup_env, "blas_threads": threads, "git_sha": sha, "seed": seed}


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str,
        work: Path) -> tuple[dict, dict]:
    size = workloads.SIZES[size_name]
    runner = Runner(workload, seed, size_name, work)
    workloads.write_inputs(workload, seed, work / "inputs")
    cmds = workloads.commands(workload, seed, size)

    # fresh interpreters that stop after set-up; they also warm the page cache
    setup_only = [runner.setup_sample(k, env=k == 0) for k in range(SETUP_ONLY)]

    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        p = runner.run_pass(len(passes), trace and len(passes) % 2 == 1)
        p["digests"] = {c.name: _digests(p["dir"] / c.out) for c in cmds}
        if passes and not p["traced"]:   # keep one untraced copy of the outputs
            shutil.rmtree(p["dir"])
        passes.append(p)
    setups = [c["setup_s"] for c in setup_only + passes]

    # Correctness gate: an operation is one command of one pass.  The first
    # pass's outputs stand for all passes, since later ones must match them
    # byte for byte.
    first = passes[0]
    rc0 = {c.name: rec["rc"] for c, rec in zip(cmds, first["commands"])}
    found: dict[str, list[str]] = {c.name: [] for c in cmds}
    oracle = roundtrip = None
    if workload == "validate":
        if rc0["validate"] in (0, 3):
            rep = json.loads((first["dir"] / "validate" / "validate.json").read_text())
            oracle = rep["oracle_rel_l2"]
            if not rep["pass"]:
                found["validate"].append(f"validate failing: {rep['failing']}")
    elif all(rc == 0 for rc in rc0.values()):
        chk, _ = runner.spawn("check.py", work / "check.json", "--dir", str(first["dir"]))
        oracle = chk["oracle_rel_l2"]
    if rc0.get("invert") == 0:
        roundtrip = json.loads(
            (first["dir"] / "invert" / "invert.json").read_text())["roundtrip_rel_l2"]
        if not roundtrip <= ROUNDTRIP_MAX:
            found["invert"].append(f"roundtrip_rel_l2 {roundtrip:.3e} > {ROUNDTRIP_MAX:g}")
    if oracle is None or not oracle <= ORACLE_MAX:
        found[workloads.ORACLE_COMMAND[workload]].append(
            f"oracle_rel_l2 {oracle} > {ORACLE_MAX:g}")
    failures = []
    for p in passes:
        for c, rec in zip(cmds, p["commands"]):
            why = [f"exit code {rec['rc']}"] if rec["rc"] != 0 else []
            if p["digests"][c.name] != first["digests"][c.name]:
                why.append("outputs differ from the first pass")
            why += found[c.name]
            if why:
                failures.append({"pass": p["index"], "command": c.name, "why": why})
    ops = sum(len(p["commands"]) for p in passes)

    untraced = [p for p in passes if not p["traced"]]
    per_command = {f"{c.name}_s": summarize([p["commands"][i]["seconds"] for p in untraced])
                   for i, c in enumerate(cmds)}
    report = {
        "workload": workload, "trace": int(trace), "size": size_name,
        "environment": environment({k: v for k, v in setup_only[0].items()
                                    if k != "setup_s"}, runner.threads, seed),
        "passes": len(passes), "commands_s": per_command,
        "pass_totals_s": [p["total_s"] for p in passes],
        "pass_s": summarize([p["total_s"] for p in untraced]),
        "setup_s": summarize(setups),
        "oracle_rel_l2": oracle, "roundtrip_rel_l2": roundtrip,
        "goursat_sweeps": sorted({p["sweeps"] for p in passes}),
        "failures": failures,
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p, workload, size, cmds) for p in traced]
        overhead = (statistics.median(p["total_s"] for p in traced)
                    - statistics.median(p["total_s"] for p in untraced))
        units = declared("per_layer")
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in units}
        metrics["trace.overhead_s"] = overhead
        report["spans"] = [p["spans"] for p in traced]
    else:
        metrics = {
            "pass_s": report["pass_s"]["median"],
            "setup_s": report["setup_s"]["median"],
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            # The raw gap spreads ~40% across seeds (it follows the seeded
            # control direction), its digits a few %.  No gap measured: 0 digits.
            "oracle_digits": -math.log10(oracle) if oracle else 0.0,
        }
        units = declared("end_to_end")
    result = {
        "correct": not failures, "attempted": ops, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny: self-test sizes (M = 20, N = 32, 3 trials)")
    args = ap.parse_args(argv)
    # a stop request unwinds through the `finally`s that kill and reap workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "wavekernel" / "__init__.py").is_file():
        print(f"error: no wavekernel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.size, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:     # another run still uses it
            pass
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"report": report, "result": result}, indent=1))
    report.pop("spans", None)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
