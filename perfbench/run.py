#!/usr/bin/env python3
"""Builds and runs the AquaVol end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hit_replay --seed 1 --seconds 10 --trace 0

The first run configures and builds `perfbench/` (which compiles the
library sources under `src/`) into the build directory: `$CARGO_TARGET_DIR`
when set, `.bench_build` otherwise. Later runs rebuild only what changed.
Build output goes to stderr; stdout carries the benchmark's provenance line
and, as its last line, the JSON result. Workload names and each workload's
latency limit ("SLO <n> ms" in its `why`) come from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "include", "perfbench"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "include", "aqua")):
        fail(f"no AquaVol sources under {ROOT} (expected src/ and include/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target", "aquabench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "aquabench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def slo_ms(spec, workload):
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = re.search(r"SLO (\d+(?:\.\d+)?) ms", w["why"])
            if not m:
                fail(f"workload {workload} states no 'SLO <n> ms'")
            return m.group(1)
    fail(f"unknown workload {workload}")


def check_result(spec, line, trace):
    """The last line must carry exactly the metrics BENCHMARK.json names,
    with the units it names."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)}")
    want = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(k for k in set(units) & set(got) if units[k] != got[k])
        fail(f"metric mismatch: missing {missing}, extra {extra}, "
             f"wrong units {wrong}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = load_spec()
    slo = slo_ms(spec, args.workload)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--slo-ms", slo, "--work-dir", work, "--commit", source_id()]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail("benchmark run timed out")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"benchmark exited with {out.returncode}")
    check_result(spec, lines[-1], args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
