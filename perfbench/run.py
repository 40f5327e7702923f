#!/usr/bin/env python3
"""The cpsdim benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a cpsdim checkout.  Builds the repository's
library, the `cpsdim` executable and the benchmark driver
(perfbench/_driver) in a dune workspace of their own under
.bench_build/, runs one workload in a fresh temporary directory under
.bench_build/tmp/ (removed at exit), and relays the driver's output,
whose last line is the JSON result.  Exits non-zero without a result
line when the sources are missing, the build fails, the driver fails,
or the run exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("casestudy-cold", "serve-churn")
# a run must end within 180 s, or 900 s when it had to build first
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 890

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
WS = BUILD / "ws"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def sync_tree(src, dst):
    """Mirror src into dst, rewriting only files whose bytes differ so
    that an unchanged checkout rebuilds nothing."""
    dst.mkdir(parents=True, exist_ok=True)
    wanted = set()
    for entry in sorted(src.iterdir()):
        wanted.add(entry.name)
        target = dst / entry.name
        if entry.is_dir():
            sync_tree(entry, target)
        elif not target.is_file() or target.read_bytes() != entry.read_bytes():
            shutil.copyfile(entry, target)
    for stale in dst.iterdir():
        if stale.name not in wanted:
            if stale.is_dir():
                shutil.rmtree(stale)
            else:
                stale.unlink()


def clean_env():
    env = dict(os.environ)
    for key in ("CPSDIM_JOBS", "CPSDIM_CACHE"):
        env.pop(key, None)
    # no shared dune cache outside the checkout
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    sources = {"lib": ROOT / "lib", "bin": ROOT / "bin", "driver": BENCH / "_driver"}
    project = ROOT / "dune-project"
    missing = [str(p) for p in [project, *sources.values()] if not p.exists()]
    if missing:
        fail("not a cpsdim checkout, missing: " + ", ".join(missing))
    WS.mkdir(parents=True, exist_ok=True)
    for name, src in sources.items():
        sync_tree(src, WS / name)
    if not (WS / "dune-project").is_file() or (WS / "dune-project").read_bytes() != project.read_bytes():
        shutil.copyfile(project, WS / "dune-project")
    cmd = ["dune", "build", "--root", str(WS), "--profile", "release",
           "./driver/main.exe", "./bin/main.exe"]
    try:
        done = subprocess.run(cmd, env=clean_env(), stdout=sys.stderr,
                              timeout=BUILD_RUN_LIMIT_S - 60)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return WS / "_build/default/driver/main.exe", WS / "_build/default/bin/main.exe"


def stop_group(pgid):
    """Kill whatever the driver left in its process group and wait
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    start = time.monotonic()
    driver, cpsdim = build()
    built = time.monotonic() - start
    limit = BUILD_RUN_LIMIT_S if built > 5 else RUN_LIMIT_S
    timeout = max(1.0, start + limit - 5 - time.monotonic())
    tmp = BUILD / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cpsdim", str(cpsdim), "--tmp", str(tmp)]
    proc = None
    try:
        proc = subprocess.Popen(cmd, env=clean_env(), stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {timeout:.0f} s")
    finally:
        if proc is not None:
            stop_group(proc.pid)
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"driver exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail("driver printed no result line")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
