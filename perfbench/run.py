#!/usr/bin/env python3
"""Build and run the nqpv benchmark.

    python3 perfbench/run.py --workload grover_files|corpus_batch|daemon_open \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` binary and the
`nqpv` binary from source (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload. The
last line of standard output is the JSON result; the exit code is 0 only
when every verdict matched its known answer.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Hard stop for one run, below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "nqpv-cli"],
    ):
        # Cargo's output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.suffix in (".rs", ".toml", ".lock"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no nqpv sources to build")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build(target_dir)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    cmd = [
        str(target_dir / "release" / "perfbench"), "bench", *sys.argv[1:],
        "--nqpv", str(target_dir / "release" / "nqpv"),
        "--rustc", rustc or "unknown",
        "--commit", f"{commit()} source-sha256:{source_digest()}",
    ]
    # Own process group, so a hung run can be stopped with the daemon it
    # launched.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
