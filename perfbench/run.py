#!/usr/bin/env python3
"""Builds the benchmark binary from the sources next to it and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The binary is built with CMake (optimised,
RelWithDebInfo) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; traces go to its work/ subdirectory. Build output
goes to stderr, so the last stdout line is the result object.

An end-to-end run (--trace 0) is PROCESSES benchmark processes that share
the --seconds; each metric is the mean of their values. One process's code and
heap layout alone moved serve_online's throughput by 17% for one seed, so a
single process cannot give a steady figure. Process p solves its own part
of the seed's catalogs (--part p), so a run covers more catalogs; serving
replays the seed's one trace in every process. Processes that report a
digest for the same input must agree on it. Exits non-zero, printing no
result, when the library sources are missing or the build fails, and
non-zero after the result when a check fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("serve_online", "serve_lru", "catalog_contended", "catalog_wide")
PROCESSES = 5
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 880


def source_id(root: Path, build_dir: Path) -> str:
    """A digest of the library and benchmark sources, plus the git commit
    when the checkout is a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and build_dir not in path.parents:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    ident = "tree-sha256:" + digest.hexdigest()[:16]
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        ident = "git:" + commit + " " + ident
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def build(root: Path, build_dir: Path) -> Path:
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for command in (configure,
                    ["cmake", "--build", str(build_dir), "--target",
                     "perfbench", "-j", jobs]):
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)
    return build_dir / "perfbench"


def combine(runs: list) -> dict:
    """One result from several processes' results: counts add up, each
    metric is the mean of the processes' values, and the result is correct
    only if every process was correct and no two report different digests
    for the same input seed."""
    names = list(runs[0]["result"]["metrics"])
    metrics = {}
    for name in names:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        metrics[name] = {"value": sum(values) / len(values),
                         "unit": runs[0]["result"]["metrics"][name]["unit"]}
    digests = {}
    same_digests = True
    for run in runs:
        for seed, digest in run["provenance"]["digests"].items():
            same_digests &= digests.setdefault(seed, digest) == digest
    if not same_digests:
        print("perfbench: result digests differ between processes",
              file=sys.stderr)
    return {
        "correct": same_digests and all(run["result"]["correct"]
                                        for run in runs),
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: library sources not found under {root}/src",
              file=sys.stderr)
        return 2
    build_dir = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                 / "perfbench").resolve()
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    processes = PROCESSES if args.trace == "0" else 1
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds / processes),
               "--trace", args.trace, "--work-dir", str(work_dir),
               "--source", source_id(root, build_dir)]
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = []
    for part in range(processes):
        try:
            proc = subprocess.run(command + ["--part", str(part)],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_BUDGET_S} s", file=sys.stderr)
            return 3
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stdout.write(proc.stdout)
            return proc.returncode or 1
        print(lines[-2])  # the process's provenance line
        runs.append({"provenance": json.loads(lines[-2].split(" ", 1)[1]),
                     "result": json.loads(lines[-1])})
    result = combine(runs)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
