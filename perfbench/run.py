#!/usr/bin/env python3
"""Whole-network benchmark of the loom library.

Run from the repository root:

    python3 perfbench/run.py --workload alexnet-solo --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the library from src/ in Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs one workload of loom_perfbench with a clean loom environment. It
passes the program's report through and prints, as the last line, one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
Exits non-zero when the build fails or any output check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("alexnet-solo", "nin-solo", "alexnet-serve", "paper-sweep")
# Knobs that would change what is measured; a persisted autotune cache in
# particular would make every run after the first start warm.
CLEARED_ENV = ("LOOM_AUTOTUNE_CACHE", "LOOM_AUTOTUNE_PIN", "LOOM_FUNCTIONAL_BACKEND",
               "LOOM_FUNCTIONAL_SCALAR", "LOOM_SIMD_LEVEL", "LOOM_FORCE_SCALAR_SIMD")
# Workloads run with the autotuner pinned (see BENCHMARK.json). NiN's
# per-process winners flip between lut, lut-outer and bitslice, which moved
# its warm p50 by up to 50% between runs; the server would spend most of a
# run exploring one cell per batch size.
PINNED_BACKEND = {"alexnet-serve": "lut", "nin-solo": "lut"}
# Extra processes per workload that only set up and send the first request;
# setup_s and first_request_ms are medians over them and the measured
# process. The solo set-up fills a process-wide calibration memo, so only a
# fresh process repeats it faithfully.
EXTRA_SETUPS = {"alexnet-solo": 2, "nin-solo": 2}
PREROLL_MS = 1000
RUN_BUDGET_S = 170  # all processes of one run, after the build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build; cmake's own output goes to stderr."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the loom sources (src/) are not next to perfbench/")
        return None
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "loom_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return build_dir / "loom_perfbench"


def run_child(cmd, env, deadline):
    """Run one loom_perfbench process; echo its report, return its last line."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def host_info():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return model


def pinned_mismatches(workload, info):
    """Modelled values that must equal the ones pinned in pinned.json."""
    pinned = json.loads((HERE / "pinned.json").read_text()).get(workload, {})
    bad = []
    for key, want in pinned.items():
        if key in info and float(info[key]) != float(want):
            bad.append(f"{key}: got {info[key]}, pinned {want}")
    return bad


def declared_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_root.resolve() / "perfbench")
    if binary is None:
        return 2

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    if args.workload in PINNED_BACKEND:
        env["LOOM_AUTOTUNE_PIN"] = PINNED_BACKEND[args.workload]
    print(f"info  cpu                      {host_info()}")
    print(f"info  autotune_pin             {env.get('LOOM_AUTOTUNE_PIN', 'none (auto)')}")

    deadline = time.monotonic() + RUN_BUDGET_S
    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]
    preroll = PREROLL_MS
    setups = []
    made = None
    snapshot = binary.parent / f"{args.workload}-{args.seed}-{os.getpid()}.snap"
    serve_args = ["--snapshot", str(snapshot)] if args.workload == "alexnet-serve" else []
    try:
        if serve_args:
            made = run_child(base + ["--write-snapshot", str(snapshot)], env, deadline)
            print(f"info  materialize_ms           {made['materialize_ms']:.1f}")
        if not args.trace:
            for _ in range(EXTRA_SETUPS.get(args.workload, 0)):
                setups.append(run_child(base + ["--setup-only", "--preroll-ms", str(preroll)],
                                        env, deadline))
                preroll = 0  # the host is already busy from here on
        result = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                   "--preroll-ms", str(preroll)] + serve_args, env, deadline)
    finally:
        snapshot.unlink(missing_ok=True)

    metrics = result["metrics"]
    if args.trace and made:
        metrics["serve.registry.materialize_ms"]["value"] = made["materialize_ms"]
    for name in ("setup_s", "first_request_ms") if setups else ():
        samples = [s[name] for s in setups] + [metrics[name]["value"]]
        metrics[name]["value"] = statistics.median(samples)
        print(f"info  {name + '_samples':24s} " + " ".join(f"{v:.4f}" for v in samples))
    correct = result["correct"]
    for bad in pinned_mismatches(args.workload, result.get("info", {})):
        print(f"check pinned {bad} FAILED")
        correct = False
    if sorted(metrics) != sorted(declared_metrics(args.trace)):
        log("perfbench: printed metrics differ from BENCHMARK.json")
        return 3
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
