#!/usr/bin/env python3
"""Build and run the latr-sim benchmark harness.

From the repository root:

    python3 latrbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Configures and builds latrbench/ (which compiles the library from
src/) into .bench_build/latrbench, then runs the harness with the given
arguments; see latrbench/README.md for the workloads and metrics. Build
output goes to stderr. The harness's stdout ends with one JSON line.
Exits nonzero, without a result, when the library sources are missing
or the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "latrbench")
BINARY = os.path.join(BUILD, "latrbench")
BUILD_TYPE = "RelWithDebInfo"


def source_digest():
    """SHA-256 over the library and harness sources (not their docs)."""
    h = hashlib.sha256()
    for top in ("src", "latrbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".md"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("latrbench: no library sources under src/; nothing to build",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "latrbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=env).returncode != 0:
            print("latrbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    env = dict(os.environ, LATRBENCH_GIT_SHA=git_sha(),
               LATRBENCH_SRC_SHA256=source_digest())
    code = subprocess.run([BINARY] + sys.argv[1:], env=env,
                          cwd=ROOT).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
