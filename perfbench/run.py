#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run it from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that reaches the workspace crates by path; it
is built into $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is the result object; records and span files go to
perfbench/out/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    # Cargo's output goes to stderr: stdout carries only the result.
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    binary = target_dir() / "release" / "perfbench"
    return binary if r.returncode == 0 and binary.is_file() else None


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def commit():
    """HEAD of the repository this file belongs to, if it is a git
    repository's root; "unknown" otherwise."""
    out = command_output(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"])
    lines = out.splitlines() if out else []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in is not always a git repository, so the commit may be unknown)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml", HERE / "Cargo.lock"]
    for base in (ROOT / "crates", HERE / "src"):
        files += [p for p in base.rglob("*") if p.suffix in (".rs", ".toml")]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    env = dict(
        os.environ,
        PERFBENCH_COMMIT=commit(),
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]) or "unknown",
        PERFBENCH_SOURCE_DIGEST=source_digest(),
    )
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", str(HERE / "out"),
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"run.py: the benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
