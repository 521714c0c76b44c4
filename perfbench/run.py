#!/usr/bin/env python3
"""Builds the `mhd` CLI and the perfbench driver from source, then runs one
benchmark workload and prints its result as the last line of stdout.

Run from the repository root:

    python3 perfbench/run.py --workload cli-daily --seed 1 --seconds 40 --trace 0

Binaries go to $CARGO_TARGET_DIR (default `.bench_build`); stores, exported
corpora and traces go under --store-dir (default `.bench_work`). Both are
relative to the repository root. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-daily", "daemon-mixed")
DURABILITY = "rename"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--store-dir", default=".bench_work",
                   help="where stores and exported corpora live (default: .bench_work)")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--corrupt-expected", action="store_true",
                   help="flip one expected byte, to check that the gate fails the run")
    return p.parse_args()


def build(target):
    """Builds `mhd` (the repository workspace) and the driver (its own
    workspace under perfbench/) into one target directory."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "mhd-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def mount_fs_type(path):
    """Filesystem type of the mount holding `path` (longest prefix match)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mnt = fields[1]
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, fstype = mnt, fields[2]
    except OSError:
        pass
    return fstype


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def fingerprint(store_dir):
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_flags": {f: f in flags for f in ("sha_ni", "avx2", "avx512f")},
        "kernel": platform.release(),
        "store_dir": store_dir,
        "store_fs": mount_fs_type(store_dir),
        "durability": DURABILITY,
        "rustc": command_output(["rustc", "-V"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
    }


def main():
    args = parse_args()
    # Without the repository's sources there is no program to measure.
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build(target)

    store_dir = os.path.join(ROOT, args.store_dir)
    os.makedirs(store_dir, exist_ok=True)
    fp = fingerprint(store_dir)
    print("fingerprint " + json.dumps(fp, sort_keys=True), flush=True)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mhd", os.path.join(target, "release", "mhd"),
        "--work-dir", os.path.relpath(store_dir, ROOT),
        "--size", args.size,
    ]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    # Relative paths keep the daemon's Unix socket path short.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)

    # The result line goes last; a copy with the fingerprint stays beside
    # the run's store.
    result = lines[-1] if lines else ""
    try:
        parsed = json.loads(result)
    except ValueError:
        parsed = None
    if parsed is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "fingerprint": fp, "result": parsed}
        path = os.path.join(store_dir, args.workload, "result.json")
        if os.path.isdir(os.path.dirname(path)):
            with open(path, "w") as out:
                json.dump(record, out, indent=1, sort_keys=True)
        print(result, flush=True)
    elif result:
        print(result)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
