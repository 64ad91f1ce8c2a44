#!/usr/bin/env python3
"""Build the SCube benchmark from source and run one workload.

    python3 perfbench/run.py --workload build|explore|stream|routed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark package (perfbench/) is
configured and built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the build is incremental, so only the first run
in a checkout compiles. Build output goes to stderr; the benchmark's stdout
(a table, then one JSON result line) is passed through unchanged, and its
exit code is returned. Result and span files land in .bench_out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """sha256 over the program's sources, so a result names the code it
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(bench_dir, build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "scube_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "explore", "stream", "routed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no SCube sources (CMakeLists.txt, src/) in {root}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(bench_dir, build_dir)

    cmd = [os.path.join(build_dir, "scube_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(root, ".bench_out"),
           "--git-sha", git_sha(root), "--src-sha", source_digest(root)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
