#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

Run from the root of a CDStore checkout:

    python3 perfbench/run.py --workload first-backup --seed 1 --seconds 30 --trace 0

--workload all runs every workload in turn and exits nonzero if any run does.

The first run configures and builds perfbench/ (which builds the cdstore
library from the checkout's own sources) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build. The
benchmark works in a scratch directory under the build directory and removes
it on exit. Build output goes to stderr; the benchmark's report goes to
stdout, ending with one JSON line.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("first-backup", "weekly-homedir", "vm-fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The git commit when there is one, plus a hash of the program sources."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            commit = result.stdout.strip()
    return f"git:{commit},src-sha256:{digest.hexdigest()[:16]}"


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", build_dir, "--target", "cdbench", "-j", jobs],
                            stdout=sys.stderr, check=False)
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "cdbench")


def run(binary, build_dir, workload, args, source):
    """Runs one workload; returns its exit code."""
    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--source-id", source]
    sys.stdout.flush()
    proc = subprocess.Popen(command)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 124
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isdir(os.path.join(root, "perfbench"))):
        fail("run from the root of a CDStore checkout (needs CMakeLists.txt, src/, perfbench/)")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if os.path.commonpath([build_dir, root]) != root:
        fail("the build directory must lie inside the checkout")
    binary = build(root, build_dir)
    source = source_id(root)

    # A SIGTERM unwinds through run()'s finally, which stops the run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run(binary, build_dir, w, args, source) for w in workloads))


if __name__ == "__main__":
    main()
