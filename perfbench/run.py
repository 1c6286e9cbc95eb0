#!/usr/bin/env python3
"""Builds and runs the stdchk checkpoint/restart benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fresh_sw --seed 1 --seconds 12 --trace 0

The first run configures and builds perfbench/ (the stdchk library from
src/ plus the benchmark binary) in Release into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build. All
arguments are passed to the binary, whose last stdout line is the JSON
result. Build output goes to stderr.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGET = "stdchk_perfbench"


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "core" / "cluster.h").is_file():
        sys.exit("perfbench: stdchk sources not found under src/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", TARGET, "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / TARGET


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [str(binary), *sys.argv[1:], "--work-dir", str(build_dir / "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
