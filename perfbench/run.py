#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile-zoo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first form builds perfbench/perfbench.exe
with dune and runs one workload; its last line of output is the JSON result.
--self-test runs every workload twice at reduced length with one seed and
checks that the simulated metrics repeat exactly and the wall-clock ones agree
within the bounds in BENCHMARK.json.  See perfbench/README.md.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["compile-zoo", "serve-mix", "serve-decode"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark executable; a failed build ends the run."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail(f"{ROOT} is not the root of a source checkout (no dune-project)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    cmd = [dune, "build", "--root", ROOT, "-j", "2",
           "./perfbench/perfbench.exe"]
    # no shared build cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                             stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0 or not os.path.isfile(EXE):
        fail(f"build failed (exit {res.returncode})")


def run_exe(args, echo):
    """Run the executable; returns (exit code, stdout lines).  The child
    never outlives this script: a timeout or SIGTERM kills it and waits."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)

    def stop(*_):
        proc.kill()
        proc.wait()
        fail("interrupted")

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    finally:
        signal.signal(signal.SIGTERM, previous)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def metric_lines(lines):
    """The "metric NAME VALUE UNIT" lines of a run, by name."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    # wall-clock metrics of the metric lines, with the bound of the JSON
    # metric they feed; everything else a run prints is simulated or counted
    # and must repeat exactly
    wall = {"setup_s": "setup_s", "compile_s": "host_s",
            "serve_host_s": "host_s", "peak_heap_mb": "peak_heap_mb"}
    problems = []
    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            code, lines = run_exe(["--workload", w, "--seed", "7", "--seconds",
                                   "2", "--trace", "0"], echo=False)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct") or result.get("failed"):
                problems.append(f"{w}: run failed or incorrect: {lines[-3:]}")
            runs.append(metric_lines(lines))
        a, b = runs
        for name in sorted(set(a) | set(b)):
            if name not in a or name not in b:
                problems.append(f"{w}: {name} missing from one run")
                continue
            (va, unit), (vb, _) = a[name], b[name]
            if name in wall:
                bound = bounds[wall[name]]
                spread = abs(va - vb) / min(va, vb)
                status = "ok" if spread <= bound else "OUT OF BOUND"
                print(f"{w:13s} {name:18s} {va:12.6g} {vb:12.6g} {unit:9s}"
                      f" spread {spread:.3f} (bound {bound}) {status}")
                if spread > bound:
                    problems.append(f"{w}: {name} spread {spread:.3f} > {bound}")
            else:
                status = "identical" if va == vb else "DIFFERS"
                print(f"{w:13s} {name:18s} {va:12.6g} {vb:12.6g} {unit:9s} {status}")
                if va != vb:
                    problems.append(f"{w}: {name} differs: {va!r} vs {vb!r}")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)


def main(argv):
    build()
    if argv == ["--self-test"]:
        self_test()
    code, _ = run_exe(argv, echo=True)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
