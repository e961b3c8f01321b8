#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload alg1|ooc_train|rag_serve|semester|all
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--out DIR]

Run from the repository root.  The first call configures and builds the
sagesim libraries plus the benchmark (CMake, Release) under $CARGO_TARGET_DIR
or .bench_build; later calls reuse the build.  Each workload runs in its own
process with no SAGESIM_* variable inherited from the caller.  The last line
of standard output is the run's JSON result.  With --workload all every
workload runs in turn and a summary table is printed; --out DIR also keeps
each run's full output as DIR/<workload>-<seed>-trace<0|1>.txt, the input
of the compare tool (perfbench_compare, built next to perfbench).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["alg1", "ooc_train", "rag_serve", "semester"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build(out):
    """Configures (once) and builds; returns True on success."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(out, workload, seed, seconds, trace):
    """Runs one workload; returns (output text, parsed result) or None."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SAGESIM_")}
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    if done.returncode != 0:
        log(f"perfbench: {workload} exited with {done.returncode}")
        sys.stderr.write(done.stdout)
        return None
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log(f"perfbench: {workload} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {sorted(n for n in want if n in got and got[n] != want[n])}")
        return None
    return done.stdout, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        ran = run_one(out, w, args.seed, args.seconds, args.trace)
        if ran is None:
            return 1
        text, results[w] = ran
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{w}-{args.seed}-trace{args.trace}.txt").write_text(text)
        if len(workloads) == 1:
            sys.stdout.write(text)
            return 0

    names = list(expected_metrics(args.trace))
    print(f"{'metric':34s}" + "".join(f"{w:>16s}" for w in workloads))
    for name in names:
        unit = results[workloads[0]]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':34s}" + "".join(
            f"{results[w]['metrics'][name]['value']:16.6g}" for w in workloads))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:34s}" + "".join(f"{str(results[w][key]):>16s}"
                                     for w in workloads))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items()
                    for n, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
