"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the generators are byte-deterministic for a seed and differ
across seeds, that a generated corpus has no two identical files, that a
tiny run of every workload (untraced and traced) passes its output checks
with a stable digest, and that the runner refuses a directory that is not
a checkout. Scratch files go to ``.bench_work/selftest`` in the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(ROOT, ".bench_work", "selftest")
TINY = {"paper-cv": 60, "bulk-20k": 300, "corpus-extract": 3}

sys.path.insert(0, BENCH)
import generate  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class Generators(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        os.chdir(ROOT)

    def csv_bytes(self, seed: int, rows: int) -> bytes:
        path = os.path.join(SCRATCH, f"m-{seed}-{rows}.csv")
        generate.write_metrics_csv(path, seed, rows)
        with open(path, "rb") as handle:
            return handle.read()

    def corpus(self, seed: int, name: str) -> str:
        root = os.path.join(SCRATCH, name)
        os.makedirs(root)
        generate.write_java_corpus(root, seed, 3)
        return root

    def test_metrics_csv_is_deterministic_per_seed(self):
        self.assertEqual(self.csv_bytes(5, 200), self.csv_bytes(5, 200))
        self.assertNotEqual(self.csv_bytes(5, 200), self.csv_bytes(6, 200))

    def test_corpus_is_deterministic_per_seed(self):
        first, again, other = self.corpus(5, "a"), self.corpus(5, "b"), self.corpus(6, "c")
        self.assertEqual(generate.tree_digest(first), generate.tree_digest(again))
        self.assertNotEqual(generate.tree_digest(first), generate.tree_digest(other))

    def test_corpus_files_are_all_distinct(self):
        root = self.corpus(5, "a")
        digests = []
        for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
            for name in filenames:
                with open(os.path.join(dirpath, name), "rb") as handle:
                    digests.append(hashlib.sha256(handle.read()).hexdigest())
        self.assertEqual(len(digests), 3 * 13)
        self.assertEqual(len(set(digests)), len(digests))


class TinyRuns(unittest.TestCase):
    def result(self, workload: str, trace: int) -> dict:
        proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace), "--size", str(TINY[workload]))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(line["correct"], proc.stderr)
        self.assertEqual(line["failed"], 0)
        path = os.path.join(ROOT, ".bench_results", f"{workload}-seed5-trace{trace}.json")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def test_every_workload_passes_its_checks(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                first = self.result(workload, 0)
                self.assertEqual(self.result(workload, 0)["digest"], first["digest"])
                traced = self.result(workload, 1)
                self.assertEqual(traced["digest"], first["digest"])
                self.assertTrue(all(v["value"] >= 0 or k == "cli.glue_s"
                                    for k, v in traced["metrics"].items()))

    def test_refuses_a_directory_that_is_not_a_checkout(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "paper-cv", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
