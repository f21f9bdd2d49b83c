"""brpmarket benchmark launcher.

    python3 bench/run.py                              # every workload, untraced
    python3 bench/run.py --workload slack-wide --seed 3 --seconds 25 --trace 1
    python3 bench/run.py --orient                     # ROADMAP baseline table

Each workload runs in its own fresh process (bench/worker.py) with the BLAS
and OpenMP thread counts set to 1 and ``src/`` of this checkout on the
import path, so ``setup_s`` and ``peak_rss_mb`` are that workload's own.
The last line of standard output is the result as one JSON object.
``--orient`` prints ms/iter over N x T in the slack regime and the cost of
``to_csv``; it is orientation only and no gated workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("slack-wide", "band-binding", "cli-report")
# run_seconds in BENCHMARK.json
DEFAULT_SECONDS = 25
# Every run ends well inside this; a run that does not is stopped.
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(args: list[str]) -> tuple[int, str]:
    """Run bench/worker.py in a fresh process; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker {args} did not finish within {TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="brpmarket benchmark: " + ", ".join(WORKLOADS))
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--orient", action="store_true",
                        help="print the slack-regime ms/iter and to_csv table")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "brpmarket" / "__init__.py").is_file():
        print(f"error: no brpmarket package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.orient:
        code, out = run_worker(["--orient", "--seed", str(args.seed)])
        print(out, end="")
        return code

    results = {}
    for name in [args.workload] if args.workload else WORKLOADS:
        code, out = run_worker(["--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        result = last_json(out)
        if code != 0 or not isinstance(result, dict):
            print(out, end="", file=sys.stderr)
            print(f"error: workload {name} failed (exit code {code})", file=sys.stderr)
            return 1
        print(out, end="")
        results[name] = result
    if not args.workload:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
