#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it once.

Run from the repository root:

    python3 perfbench/run.py --workload tpcc --seed 1 --seconds 6 --trace 0

The Go build cache, temporary files and the binary all live in
.bench_build/ at the repository root. The benchmark's output is passed
through unchanged; its last line is the JSON result. The exit code is the
benchmark's, or 1 when the build fails or the run exceeds its time limit.
"""
import os
import shutil
import signal
import subprocess
import sys

RUN_LIMIT_S = 175  # a run must finish within 180 s; builds are not counted


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    rev = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if got.returncode == 0:
            rev = got.stdout.strip()

    child = subprocess.Popen([binary, *sys.argv[1:], "--rev", rev], cwd=root)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
