#!/usr/bin/env python3
"""Time-to-spectrum benchmark of the qframan library.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Builds the library and the harness (perfbench/CMakeLists.txt) into
.bench_build on first use (or $CARGO_TARGET_DIR when set), then runs the
harness. Its last stdout line is the JSON result record. Scratch files
(checkpoints, series, the traced run's Chrome trace) go to .bench_work.
Exits non-zero without a result when the sources are missing or the build
fails.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
WORK = ".bench_work"
BINARY = "qfr_perfbench"
RUN_TIMEOUT_S = 175
SELFCHECK_TIMEOUT_S = 900


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then an incremental build (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not (
        os.path.isdir(os.path.join(ROOT, "src", "qfr"))
    ):
        log("library sources not found next to perfbench/; nothing to build")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.run(["cmake", "--build", build_dir, "--target", BINARY,
                           "-j", jobs], stdout=sys.stderr).returncode != 0:
            log("build failed")
            return None
    return os.path.join(build_dir, BINARY)


def main(argv):
    os.chdir(ROOT)
    binary = build(os.path.abspath(BUILD))
    if binary is None or not os.path.isfile(binary):
        return 1
    cmd = [binary] + argv + ["--work-dir", WORK]
    timeout = SELFCHECK_TIMEOUT_S if "--selfcheck" in argv else RUN_TIMEOUT_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the harness before raising.
        log("harness exceeded %d s" % timeout)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
