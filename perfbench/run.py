"""The repository benchmark: CLI experiments and circuit engines, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every workload runs in fresh interpreters (``worker.py``), closed-loop
and single-process: one call at a time, sweeps serial, BLAS pinned to
one thread.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the environment, the per-item times and any failed
check.  The command exits 1 when any output check fails, and 2 without
a result when the checkout has no ``src/repro``.

Workloads: ``cli_cold`` (every CLI experiment on an empty surrogate
cache), ``tables_warm`` (the tabulating experiments on a filled cache)
and ``circuit_engines`` (the batched and scalar circuit engines).
``METRICS.md`` says why each was chosen and what every metric measures.
A workload's timed phase runs in ``PASS_PROCESSES`` fresh interpreters
one after the other, and each item's time is its median over them (and
over the passes of ``circuit_engines``, which repeat until ``--seconds``
is spent).  The CLI workloads time one pass per interpreter.

``--trace 0`` prints the end-to-end metrics ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` runs one untraced and one traced
interpreter side by side (the layer wrappers of ``spans.py``), checks
that both give bitwise identical rows, and prints the per-layer
metrics.  The surrogate cache of ``tables_warm`` lives under
``.perfbench/`` in the checkout, keyed by a hash of ``src/``; the
developer's own cache is never read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import bitwise_problems, check_experiment  # noqa: E402
from spans import layer_metrics, merge  # noqa: E402

WARM_ITEMS = (
    "scaling",
    "surrogate",
    "cascade:physical",
    "timing:physical",
    "integration:physical",
)
# Interpreters per timed phase: more where one pass is short, so that a
# run averages over more of the host's speed drift.
PASS_PROCESSES = {"cli_cold": 1, "tables_warm": 2, "circuit_engines": 2}
ENGINE_CASES = (
    "dc_mc_dense",
    "dc_mc_sparse",
    "transient_mc",
    "ac_sweep",
    "scalar_transient",
)
# Per-item times reported with the per-layer metrics: name -> items summed.
ITEM_GROUPS = {
    "fig4_s": ("fig4",),
    "fig5_s": ("fig5",),
    "fig6_s": ("fig6",),
    "scaling_s": ("scaling",),
    "fabric_s": ("fabric",),
    "surrogate_s": ("surrogate",),
    "physical_s": ("cascade:physical", "timing:physical", "integration:physical"),
    "circuit_figs_s": ("fig2", "cascade", "timing", "integration", "rf"),
    **{f"{case}_s": (case,) for case in ENGINE_CASES},
}
SETUP_SAMPLES = 3
# The whole invocation must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
STATE = ROOT / ".perfbench"
# Closed-loop and single-process: BLAS pinned to one thread (<= nproc).
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """A worker failed to produce a result."""


def _source_hash() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


class Runner:
    """Spawns workers in fresh interpreters and collects their results."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = STATE / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0
        self.live: list[subprocess.Popen] = []
        if workload == "tables_warm":
            self.warm_cache = STATE / f"warm-cache-{_source_hash()}"
            for stale in STATE.glob("warm-cache-*"):
                if stale != self.warm_cache:
                    shutil.rmtree(stale, ignore_errors=True)
        # Bytecode is cached under .perfbench/, so set-up times a warm import.
        self.env = {
            **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONPYCACHEPREFIX": str(STATE / "pycache"),
            "PYTHONHASHSEED": "0",
            **{variable: BLAS_THREADS for variable in BLAS_VARIABLES},
        }

    def start(self, phase: str, **spec) -> dict:
        """Start one worker; every cold-workload worker gets an empty cache."""
        self.spawned += 1
        job = {
            "phase": phase,
            "out": self.work / f"out-{self.spawned}.json",
            "log": self.work / f"log-{self.spawned}.txt",
        }
        if self.workload == "tables_warm":
            cache = self.warm_cache
        else:
            cache = self.work / f"cache-{self.spawned}"
        spec_path = self.work / f"spec-{self.spawned}.json"
        spec_path.write_text(
            json.dumps(
                {
                    "phase": phase,
                    "workload": self.workload,
                    "seed": self.seed,
                    "seconds": self.seconds / PASS_PROCESSES[self.workload],
                    "out": str(job["out"]),
                    **spec,
                }
            )
        )
        with open(job["log"], "wb") as sink:
            job["spawned"] = time.monotonic()
            job["process"] = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT,
                env={**self.env, "REPRO_SURROGATE_CACHE": str(cache)},
                stdout=sink,
                stderr=subprocess.STDOUT,
            )
        self.live.append(job["process"])
        return job

    def finish(self, job: dict) -> dict:
        """Wait for a worker; its result gains ``setup_s`` and ``peak_rss_mb``."""
        process = job["process"]
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                raise BenchmarkError(f"{job['phase']} worker ran past the deadline")
            time.sleep(0.02)
        self.live.remove(process)
        process.returncode = os.waitstatus_to_exitcode(status)
        if process.returncode != 0 or not job["out"].exists():
            tail = job["log"].read_text(errors="replace")[-3000:]
            raise BenchmarkError(
                f"{job['phase']} worker exited with {process.returncode}:\n{tail}"
            )
        result = json.loads(job["out"].read_text())
        result["setup_s"] = result["setup_done"] - job["spawned"]
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result

    def start_pass(self, trace: bool) -> dict:
        if self.workload == "cli_cold":
            return self.start("cli", items=["*"], trace=trace)
        if self.workload == "tables_warm":
            return self.start("cli", items=list(WARM_ITEMS), trace=trace)
        return self.start("engines", trace=trace, probe_supervisor=not trace)

    def close(self) -> None:
        """Kill and reap any worker still running, then drop the work files."""
        for process in self.live:
            process.kill()
            process.wait()
        self.live.clear()
        shutil.rmtree(self.work, ignore_errors=True)


class Outcome:
    """Item times, checks and worker results of untraced or traced passes."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.rows: dict[str, list] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: list[dict] = []
        self.passes = 0

    @property
    def items(self) -> dict[str, float]:
        return {name: statistics.median(times) for name, times in self.samples.items()}

    @property
    def wall_s(self) -> float:
        return sum(self.items.values())

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems

    def add(self, result: dict) -> None:
        self.results.append(result)
        if "items" in result:
            self._add_cli(result["items"])
        else:
            self._add_engines(result)

    def _add_cli(self, items: list[dict]) -> None:
        self.passes += 1
        for item in items:
            name = item["name"]
            self.samples.setdefault(name, []).append(item["seconds"])
            self.attempted += 1
            if item["error"] is not None:
                self._fail([f"{name}: raised {item['error']}"])
                continue
            golden = name.replace(":", "-")
            found = check_experiment(golden, item["rows"], ROOT / "tests" / "golden")
            if name in self.rows:
                found += bitwise_problems(name, item["rows"], self.rows[name])
            self.rows.setdefault(name, item["rows"])
            self._fail(found)

    def _add_engines(self, result: dict) -> None:
        self.passes += len(result["passes"])
        for times in result["passes"]:
            for case, seconds in times.items():
                self.samples.setdefault(case, []).append(seconds)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        for case, digest in result["digests"].items():
            if self.digests.setdefault(case, digest) != digest:
                self._fail([f"{case}: result differs between interpreters"])


def _end_to_end(outcome: Outcome, setups: list[float]) -> dict:
    return {
        "wall_s": {"value": outcome.wall_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": max(result["peak_rss_mb"] for result in outcome.results),
            "unit": "MB",
        },
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_mean", "_per_solve")):
        return "ratio"
    return "count"


def _per_layer(plain: Outcome, traced: Outcome, failure_ratio: float) -> dict:
    raw = merge([result["trace"] for result in traced.results])
    metrics = {
        name: (value, _unit(name))
        for name, value in layer_metrics(raw, traced.passes).items()
    }
    supervised = [r["supervised_over_raw"] for r in plain.results if "supervised_over_raw" in r]
    metrics["sweep.supervised_over_raw"] = (supervised[0] if supervised else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
    items = plain.items
    for name, members in ITEM_GROUPS.items():
        metrics[name] = (sum(items.get(m, 0.0) for m in members), "s")
    metrics["failure_ratio"] = (failure_ratio, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _compare(plain: Outcome, traced: Outcome) -> list[str]:
    problems = []
    for name, rows in plain.rows.items():
        problems += bitwise_problems(name, traced.rows.get(name, []), rows)
    for case, digest in plain.digests.items():
        if traced.digests.get(case) != digest:
            problems.append(f"{case}: result differs when traced")
    return problems


def _measure(runner: Runner, trace: bool):
    """Run the workload; returns (attempted, failed, problems, metrics, plain)."""
    setups = []
    if runner.workload == "tables_warm":
        setups.append(runner.finish(runner.start("fill"))["setup_s"])
    plain = Outcome()
    if not trace:
        for _ in range(PASS_PROCESSES[runner.workload]):
            plain.add(runner.finish(runner.start_pass(trace=False)))
        setups += [result["setup_s"] for result in plain.results]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.finish(runner.start("setup"))["setup_s"])
        metrics = _end_to_end(plain, setups)
        return plain.attempted, plain.failed, plain.problems, metrics, plain
    # Side by side, so that a traced cli_cold run fits the time limit.
    traced = Outcome()
    jobs = [runner.start_pass(trace=False), runner.start_pass(trace=True)]
    plain.add(runner.finish(jobs[0]))
    traced.add(runner.finish(jobs[1]))
    mismatches = _compare(plain, traced)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + len(mismatches)
    problems = plain.problems + traced.problems + mismatches
    metrics = _per_layer(plain, traced, failed / attempted)
    return attempted, failed, problems, metrics, plain


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    runner = Runner(workload, seed, seconds)
    try:
        attempted, failed, problems, metrics, plain = _measure(runner, trace)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        runner.close()

    environment = {**plain.results[0]["environment"], "blas_threads": BLAS_THREADS}
    print(json.dumps({"environment": environment, "workload": workload, "seed": seed}))
    for name, value in plain.items.items():
        print(f"  {name:24s} {value:10.4f} s")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(PASS_PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops and reaps its workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
