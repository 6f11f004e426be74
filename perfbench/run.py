#!/usr/bin/env python3
"""Run one workload of the QPRAC figure-pipeline benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the
benchmark harness (`perfbench/`, a Cargo package of its own that uses
the repository's crates by path) and the `qprac-serve` binary into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the harness, and
prints its result as the last line of standard output: one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The human-readable
report (every metric with its unit, the checks, and on traced runs the
self-time table) goes to standard error. Exit code 0 means every output
check passed; 1 means a check failed; 2 means the benchmark could not
run (no sources, build failure, bad arguments); 3 means it timed out.
`--workload all` runs every workload in turn, printing each result line
after a `workload: <name>` line, and exits with the highest code.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["sweep_cold", "sweep_warm", "sweep_cluster_warm", "abo_storm"]
# The whole run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    needed = ["Cargo.toml", "crates/bench/Cargo.toml", "crates/serve/Cargo.toml"]
    missing = [n for n in needed if not (root / n).is_file()]
    if missing:
        return fail(
            f"run from the root of a source checkout ({', '.join(missing)} not found)"
        )

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline",
            "--manifest-path", str(HERE / "Cargo.toml"),
            "-p", "qprac-perfbench", "-p", "qprac-serve",
            "--bin", "qprac-perfbench", "--bin", "qprac-serve",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")

    if args.workload != "all":
        return run_one(args, args.workload, target)
    codes = []
    for workload in WORKLOADS:
        print(f"workload: {workload}", flush=True)
        codes.append(run_one(args, workload, target))
    return max(codes)


def run_one(args, workload, target):
    release = target / "release"
    work = target / "perfbench-work" / f"{workload}-{os.getpid()}"
    traces = target / "perfbench-traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    result = work / "result.json"
    cmd = [
        str(release / "qprac-perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", str(release / "qprac-serve"),
        "--work-dir", str(work),
        "--result", str(result),
        "--trace-out", str(traces / f"{workload}.json"),
    ]
    # Its own process group, so a timeout also stops the shards it
    # started. The figure emitters' table output is not needed. SIGTERM
    # becomes SystemExit so the group is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)

    def stop():
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        fail(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    except BaseException:
        stop()
        raise
    line = result.read_text().strip() if result.is_file() else None
    shutil.rmtree(work, ignore_errors=True)
    if line is None or rc not in (0, 1):
        return fail(f"harness exited with {rc} and no result")
    print(line, flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
