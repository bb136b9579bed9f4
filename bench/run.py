"""Benchmark runner for the ``testability`` CLI.

    python3 bench/run.py --workload paper-cv --seed 1 --seconds 40 --trace 0

Run from any directory; the checkout root is the parent of ``bench/``.
One client runs the workload's commands in a closed loop, each in a fresh
``python -m testability.cli`` process, until ``--seconds`` would be
exceeded (at least one pass). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` pairs each CLI pass with an in-process pass that
times every layer (see ``layers.py``) and reports the per-layer metrics.
Every output is checked against independent oracles; the last line of
stdout is one JSON object, and the full record (environment, inputs,
per-command walls, output digests, problems) goes to
``.bench_results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = ".bench_cache"
WORK = ".bench_work"
RESULTS = ".bench_results"
#: Cold starts per run; setup_s is their median.
SETUP_RUNS = 5
#: A single command taking longer than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 150.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    """BLAS threads for every process: the environment's choice, capped at nproc."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(name, "").isdigit():
            return max(1, min(int(os.environ[name]), nproc()))
    return nproc()


class Launcher:
    """The lean child process (``spawn.py``) that starts every CLI command."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "bench", "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log_path: str, env: dict) -> dict:
        """One CLI process: wall time, its own peak RSS, exit code."""
        request = {"argv": [sys.executable, "-m", "testability.cli", *argv], "env": env,
                   "log": log_path, "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def bundle_digest(directory: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def environment(seed: int, threads: int) -> dict:
    try:
        javac = subprocess.run(["javac", "-J-XX:-UsePerfData", "-version"],
                               capture_output=True, text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.SubprocessError) as exc:
        javac = f"unavailable: {exc}"
    commit = None
    if os.path.exists(".git"):  # the benchmark's own checkout need not be a repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "javac": javac,
        "nproc": nproc(),
        "blas_threads": threads,
        "git_commit": commit,
        "seed": seed,
        "machine": platform.machine(),
    }


class Runner:
    """One benchmark run: counts attempts and failures, keeps the record."""

    def __init__(self, workload, seed: int, trace: bool, launcher: Launcher):
        self.workload = workload
        self.launcher = launcher
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.record = {"workload": workload.name, "trace": int(trace),
                       "environment": environment(seed, blas_threads())}
        label = f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.work = os.path.join(WORK, label)
        self.result_path = os.path.join(RESULTS, label + ".json")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "logs"))

    def setup_s(self) -> float:
        """Median cold start of a CLI process until it is ready (``--help``)."""
        walls = []
        for i in range(SETUP_RUNS):
            result = self._command(["--help"], f"setup{i}")
            walls.append(result["wall_s"])
        return statistics.median(walls)

    def _command(self, argv: list[str], name: str) -> dict:
        self.attempted += 1
        result = self.launcher.run(argv, os.path.join(self.work, "logs", name + ".log"),
                                   self.env)
        if result["exit"] != 0:
            self.failed += 1
            self.problems.append(f"{name}: exit code {result['exit']}")
        return result

    def cli_pass(self, inputs, number: int, reference: dict) -> dict:
        """Run the command sequence once into a fresh output directory.

        The first pass is checked against the oracles; every later pass
        must reproduce its output bundle byte for byte.
        """
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        commands = {}
        start = time.perf_counter()
        for name, argv in self.workload.commands(inputs, out, self.seed):
            commands[name] = self._command(argv, f"pass{number}-{name}")
        wall = time.perf_counter() - start
        digest = bundle_digest(out)
        if not reference:
            try:
                problems = self.workload.check(inputs, out)
            except Exception as exc:  # a crashed check is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            reference.update(digest=digest, problems=problems)
        elif digest != reference["digest"]:
            problems = [f"pass {number}: output bundle differs from pass 0"]
        else:
            problems = reference["problems"]
        if problems:
            self.problems.extend(problems)
            self.failed += sum(1 for name in self.workload.blame(problems)
                               if commands[name]["exit"] == 0)
        return {"wall_s": wall, "commands": commands, "digest": digest}

    def traced_pass(self, inputs) -> dict:
        import layers

        self.attempted += 1
        spans = layers.Spans()
        try:
            layers.PASSES[self.workload.name](spans, inputs.path, self.seed, CACHE)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.problems.append(f"traced pass raised {type(exc).__name__}: {exc}")
        return {"spans": spans.values, "inputs": spans.inputs}

    def loop(self, seconds: float, inputs) -> list[dict]:
        """Closed loop of passes until the next one would overrun ``seconds``."""
        passes: list[dict] = []
        reference: dict = {}
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            record = self.cli_pass(inputs, len(passes), reference)
            if self.trace:
                record["traced"] = self.traced_pass(inputs)
            passes.append(record)
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                return passes


def end_to_end(workload, inputs, passes: list[dict], setup: float) -> dict:
    wall = statistics.median(p["wall_s"] for p in passes)
    rss = max(c["rss_mb"] for p in passes for c in p["commands"].values())
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "rows_per_s": {"value": workload.rows(inputs) / wall, "unit": "1/s"},
        "lines_per_s": {"value": workload.lines(inputs) / wall, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(passes: list[dict]) -> dict:
    import layers

    samples: dict[str, list[float]] = {name: [] for name in layers.LAYER_UNITS}
    for p in passes:
        spans = p["traced"]["spans"]
        values = {name: spans.get(name, 0.0) for name in layers.LAYER_UNITS}
        for command, result in p["commands"].items():
            values[f"cli.{command}_s"] = result["wall_s"]
        values["cli.glue_s"] = p["wall_s"] - sum(
            v for name, v in spans.items() if name in layers.ATTRIBUTED)
        for name, value in values.items():
            samples[name].append(value)
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in layers.LAYER_UNITS.items()}


def checkout_problem() -> str | None:
    import generate

    for path in (os.path.join("src", "testability", "cli.py"), generate.FIXTURE_DIR):
        if not os.path.exists(path):
            return f"{path} is missing: run from a checkout of the repository"
    return None


def main(argv: list[str] | None = None) -> int:
    # before numpy loads here or in a CLI process
    threads = str(blas_threads())
    os.environ.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help=argparse.SUPPRESS)  # self-test only
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workload = workloads.WORKLOADS[args.workload]
    launcher = Launcher()
    try:
        runner = Runner(workload, args.seed, bool(args.trace), launcher)
        setup = runner.setup_s()
        inputs = workload.prepare(CACHE, args.seed, args.size)
        passes = runner.loop(args.seconds, inputs)
    finally:
        launcher.close()

    if args.trace:
        metrics = per_layer(passes)
        extra = passes[0]["traced"]["inputs"]
    else:
        metrics = end_to_end(workload, inputs, passes, setup)
        extra = []
    runner.record.update(
        inputs=[inputs.info, *extra], passes=passes, setup_s=setup,
        digest=passes[0]["digest"], problems=runner.problems, metrics=metrics,
        attempted=runner.attempted, failed=runner.failed,
        failed_ratio=runner.failed / runner.attempted,
    )
    os.makedirs(RESULTS, exist_ok=True)
    with open(runner.result_path, "w", encoding="utf-8") as handle:
        json.dump(runner.record, handle, indent=1)
    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
