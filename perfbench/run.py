#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the repository's libraries,
`sosd` and the `sosbench` program) under $CARGO_TARGET_DIR, or `.bench_build`
when that is unset; later runs only rebuild what changed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
`end_to_end` metrics of BENCHMARK.json, with --trace 1 its `per_layer`
metrics; perfbench/layers.json says which workloads exercise each layer
(a layer a workload does not exercise reads 0) and which end-to-end metric
it should move. The exit code is 0 only when every output check passed:
sosbench's digest and read-your-writes checks, and for lifetime_mobile at
the default seed the committed golden rows of bench_lifetime_gap.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden", "bench_lifetime_gap_metrics.json")
GOLDEN_SEED = 7  # bench_lifetime_gap's seed; its run.0.sos.* rows are the SOS row
WORKLOADS = ("lifetime_mobile", "lifetime_cache", "serve_mixed")


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds sosd and sosbench; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target", "sosd", "sosbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))


def golden_mismatches(rows_path):
    """Differences between the run's outcome rows and the committed golden."""
    with open(GOLDEN) as f:
        golden = {r["name"]: r for r in json.load(f)["metrics"] if r["name"].startswith("run.0.sos.")}
    with open(rows_path) as f:
        rows = {r["name"]: r for r in json.load(f)["metrics"]}
    if not golden:
        return ["golden file has no run.0.sos.* rows"]
    problems = [f"{name}: golden {golden[name]} != run {rows.get(name)}"
                for name in golden if rows.get(name) != golden[name]]
    problems += [f"{name}: not in the golden file" for name in rows if name not in golden]
    return problems


def shape_metrics(raw, spec, layers, workload, trace):
    """Orders sosbench's metrics as BENCHMARK.json lists them.

    Every listed metric must come from sosbench, except a per-layer metric
    of a layer this workload does not exercise, which reads 0. Anything else
    (a missing metric, a wrong unit, an unlisted name) is a benchmark bug."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        exercised = not trace or workload in layers[name]["workloads"]
        if name in raw:
            if not exercised:
                raise RuntimeError(f"{name} reported on {workload}, which layers.json excludes")
            if raw[name]["unit"] != unit:
                raise RuntimeError(f"{name} unit {raw[name]['unit']} != BENCHMARK.json {unit}")
            out[name] = raw[name]
        elif exercised:
            raise RuntimeError(f"sosbench did not report {name} on {workload}")
        else:
            out[name] = {"value": 0, "unit": unit}
    extra = set(raw) - set(out)
    if extra:
        raise RuntimeError(f"sosbench reported unlisted metrics: {sorted(extra)}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("digest", "payload"),
                        help="deliberately corrupt a digest or payload (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]

    out_dir = build_dir()
    build(out_dir)
    run_dir = os.path.join(out_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    rows_path = os.path.join(run_dir, f"rows-{os.getpid()}.json")
    cmd = [os.path.join(out_dir, "sosbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--rows-out={rows_path}",
           f"--sosd={os.path.join(out_dir, 'sosd')}", f"--run-dir={os.path.relpath(run_dir)}"]
    if args.inject:
        cmd.append(f"--inject={args.inject}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"sosbench exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    if (proc.returncode == 0) != result["correct"]:
        raise RuntimeError(f"sosbench exit code {proc.returncode} disagrees with its result")

    if args.workload.startswith("lifetime"):
        if args.workload == "lifetime_mobile" and args.seed == GOLDEN_SEED:
            problems = golden_mismatches(rows_path)
            for problem in problems:
                log("GOLDEN MISMATCH " + problem)
            if problems:
                result["correct"] = False
            else:
                log("outcome rows match the bench_lifetime_gap golden")
        os.remove(rows_path)

    result["metrics"] = shape_metrics(result["metrics"], spec, layers, args.workload, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(1)
