#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload banked|cold|churn --seed N --seconds S --trace 0|1

Builds the `elpc-serve` daemon and the benchmark driver (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the driver pinned
to one CPU. The driver boots the daemon, drives the workload and prints one
JSON result as its last stdout line. Build output goes to stderr. Exits
non-zero when the sources are missing, the build fails, or the run fails its
correctness gate.
"""

import hashlib
import os
import subprocess
import sys

SOURCES = ("Cargo.toml", "crates", "shims", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = out.stdout.split()
        # only a repository rooted here describes these sources
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath("."):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if not dirs.sort() and "target" not in d.split(os.sep)
            for f in files
            if f.endswith((".rs", ".toml", ".py", ".md"))
        )
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cargo_build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def main():
    for path in ("Cargo.toml", "crates/serving", "perfbench/Cargo.toml"):
        if not os.path.exists(path):
            fail(f"run from the repository root: {path} is missing")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo_build(["-p", "elpc-serving", "--bin", "elpc-serve"])
    cargo_build(["--manifest-path", "perfbench/Cargo.toml"])
    release = os.path.join(target, "release")
    # The driver, the daemon and its workers share one CPU: at concurrency 1
    # only one of them runs at a time, and no hand-off waits for a second,
    # idle vCPU to be scheduled by the host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cmd = [
        os.path.join(release, "perfbench"),
        "--daemon",
        os.path.join(release, "elpc-serve"),
        "--rev",
        source_revision(),
        "--rustc",
        rustc_version(),
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
