#!/usr/bin/env python3
"""Build snapstab_perf from this checkout, then run one workload.

    python3 bench/perf/run.py --workload sim_rounds --seed 1 --seconds 10 --trace 0

The first call configures and builds bench/perf (RelWithDebInfo) into
.bench_build/perf at the checkout root; later calls only let the build
tool confirm it is up to date. The script then replaces itself with the
benchmark binary, so one run is one process. Every argument is passed on
(see snapstab_perf.cpp); per-run JSON files go to .bench_build/runs unless
--out-dir is given. Standard library only.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "perf"
BINARY = BUILD / "snapstab_perf"


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "bench" / "perf"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "snapstab_perf",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: keep the build's stamp
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    build()
    args = sys.argv[1:]
    if "--out-dir" not in args:
        runs = ROOT / ".bench_build" / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        args += ["--out-dir", str(runs)]
    sha = git_sha()
    if sha and "--sha" not in args:
        args += ["--sha", sha]
    sys.stdout.flush()
    os.execv(str(BINARY), [str(BINARY), *args])


if __name__ == "__main__":
    main()
