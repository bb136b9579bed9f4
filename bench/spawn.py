"""Lean launcher: runs one command per request line, reports its wall and peak RSS.

A child's peak RSS as ``wait4`` reports it starts from the resident size
of the process that spawned it, so the runner, which holds numpy, scipy and
the traced pass's data, cannot spawn the CLI commands itself. This
process imports only the standard library and stays small.

Protocol: each stdin line is a JSON object ``{"argv", "env", "log",
"timeout"}``; each reply line is ``{"wall_s", "rss_mb", "exit"}``. The
launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], env: dict, log_path: str, timeout: float) -> dict:
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["env"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
