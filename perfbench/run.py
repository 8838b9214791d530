#!/usr/bin/env python3
"""End-to-end PaRMIS search benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]

Builds the `perfbench` package (a Cargo package of its own that depends on the
repository's crates by path) in release mode, runs the requested workload in a child
process of its own, checks the child's result against BENCHMARK.json and prints it as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer metrics of the
traced run. `--workload all` runs every workload in turn and prints each one's result
line. The seed defaults to 0x9a920c1e and the run length to BENCHMARK.json's
`run_seconds`. The build goes to $CARGO_TARGET_DIR (default: .bench_build in the
repository root); fleet checkpoint stores go to a fresh directory under .bench_run that
is removed afterwards. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_LIMIT_S = 170.0
# The first run in a fresh checkout also builds; the build alone may take this long.
BUILD_LIMIT_S = 840.0
DEFAULT_SEED = str(0x9A920C1E)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_child(command, timeout, **kwargs):
    """Runs `command` in a process group of its own and returns (exit code, stdout).

    If it does not end in time, or this script is interrupted, the whole group (cargo's
    compiler processes too) is killed and waited for before the error propagates.
    """
    child = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        out, _ = child.communicate(timeout=timeout)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    return child.returncode, out


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        code, _ = run_child(command, BUILD_LIMIT_S, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if code != 0:
        fail(f"build failed with exit code {code}")
    return target / "release" / "perfbench"


def check(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("`correct` is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"`{key}` is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {got} do not match BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"metric {name} is malformed: {m}")


def run_workload(binary, workload, args, expected, budget):
    """Runs one workload in a child process and returns its checked output lines."""
    runs = ROOT / ".bench_run"
    store = runs / f"{workload}-{os.getpid()}-{time.time_ns()}"
    command = [
        str(binary), "--workload", workload, "--seed", args.seed,
        "--seconds", str(args.seconds), "--trace", args.trace, "--store", str(store),
    ]
    try:
        runs.mkdir(exist_ok=True)
        code, out = run_child(command, budget, stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"workload {workload} failed: {e}")
    finally:
        shutil.rmtree(store, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    if code != 0:
        fail(f"workload {workload} exited with code {code}")
    lines = out.splitlines()
    if not lines:
        fail(f"workload {workload} printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line of workload {workload} is not JSON: {e}")
    check(result, expected)
    return lines[:-1] + [json.dumps(result)]


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    section = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    started = time.monotonic()
    binary = build()
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    if budget < RUN_LIMIT_S / 2:
        # This run paid for the build; it still gets a full run window.
        budget = RUN_LIMIT_S
    for workload in names if args.workload == "all" else [args.workload]:
        if args.workload == "all":
            print(f"== {workload}")
        for line in run_workload(binary, workload, args, expected, budget):
            print(line, flush=True)


if __name__ == "__main__":
    main()
