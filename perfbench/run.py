#!/usr/bin/env python3
"""Build and run the rtpool benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the library and the
benchmark binary rtpool_perfbench (perfbench/CMakeLists.txt) in Release into
the build directory ($CARGO_TARGET_DIR when set, else .bench_build), then
runs it. The binary checks every output; the last line it prints is the
result. A failed build or check exits non-zero without a result.

Workloads: corpus, fig2, serve_cold, serve_resubmit (see BENCHMARK.json).
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("corpus", "fig2", "serve_cold", "serve_resubmit")
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then bring the binary up to date. Output to stderr."""
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "rtpool_perfbench",
         "--parallel", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    bench = subprocess.run([
        os.path.join(build_dir, "rtpool_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--references", os.path.join(HERE, "references.json"),
        "--out-dir", out_dir,
    ])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
