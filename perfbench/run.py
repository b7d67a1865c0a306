#!/usr/bin/env python3
"""Repository benchmark: build perfbench from this checkout and run it.

Run from the repository root:

  python3 perfbench/run.py --workload counting_cp --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --record 0 127   # rewrite perfbench/fingerprints.txt

The first form builds the measuring program (perfbench.cc plus the
simulator sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then measures one workload. Build output goes to
stderr; the program's table and, as the last line of stdout, its JSON
result are passed through unchanged. README.md beside this file describes
the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.txt"
WORKLOADS = ("counting_cp", "btree_sm", "btree_rpc_repl")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", HERE.parent / ".bench_build")
    return Path(base).resolve() / "perfbench"


def sh(cmd):
    """Run a build step with its output on stderr; fail on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build step {cmd[0]} failed: {e}")
    return done.returncode == 0


def build():
    if not (HERE.parent / "src" / "apps" / "workload.h").is_file():
        fail("simulator sources (src/) not found beside perfbench/")
    bdir = build_dir()
    configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (bdir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    if not sh(configure):
        # A cache left by another source tree or generator: start afresh.
        shutil.rmtree(bdir, ignore_errors=True)
        if not sh(configure):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    build_cmd = ["cmake", "--build", str(bdir), "--target", "perfbench",
                 "-j", jobs]
    if not sh(build_cmd):
        fail("build failed")
    return bdir


def record(exe, first, last):
    rows = []
    for w in WORKLOADS:
        out = subprocess.run([str(exe), "--workload", w, "--record", str(first),
                              str(last)], stdout=subprocess.PIPE, text=True,
                             check=True)
        rows += out.stdout.splitlines()
    FINGERPRINTS.write_text(
        "# Simulated fingerprint of each workload's pass at each seed, "
        "written by\n"
        "#   python3 perfbench/run.py --record FIRST LAST\n"
        "# workload seed ops words events completed_at digest\n"
        + "\n".join(rows) + "\n")
    print(f"wrote {len(rows)} rows to {FINGERPRINTS}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=int, nargs=2, metavar=("FIRST", "LAST"))
    args = ap.parse_args()
    if args.record is None and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build()
    exe = bdir / "perfbench"
    if args.record is not None:
        record(exe, *args.record)
        return 0
    out_dir = bdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--fingerprints", str(FINGERPRINTS)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"perfbench exited with code {done.returncode}")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
