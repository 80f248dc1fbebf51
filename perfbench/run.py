#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench` and the FlexCL library it measures from the checkout's
sources (Release, into .bench_build/ unless CARGO_TARGET_DIR names another
directory), then runs it. The last line of standard output is the run's JSON
result. Exits non-zero without printing a result when the build fails.
Extra arguments (--kernels K, --corrupt) are passed through to the binary.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run may take 180 s in all; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def build(build_root: Path) -> Path:
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    args = [str(binary), *sys.argv[1:],
            "--trace-dir", str(build_root / "traces"),
            "--store-root", str(build_root / "stores")]
    try:
        run = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
