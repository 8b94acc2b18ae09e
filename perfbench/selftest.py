#!/usr/bin/env python3
"""Self-test of the benchmark's own output checks.

    python3 perfbench/selftest.py

Run from the repository root (it builds like run.py). Every check the
benchmark makes must fail the run when its input is corrupted, and pass on
the current tree:

  - lifetime digests: --inject digest flips one repetition's digest;
  - the serve oracle: --inject payload flips a byte of a critical read;
  - the golden rows: one corrupted row must be reported;
  - a directory holding only BENCHMARK.json and perfbench/ must exit non-zero
    without printing a result;
  - perfbench/layers.json must cover exactly BENCHMARK.json's per-layer
    metrics.

Exits 0 when every case behaves, 1 otherwise.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # importing run.py must leave nothing behind

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench(args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def main():
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    run = load_run_module()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    names = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    expect(set(layers) == {m["name"] for m in spec["per_layer"]},
           "layers.json lists exactly the per-layer metrics")
    expect(all(set(l["workloads"]) <= names and
               all(m["metric"] in e2e and m["workload"] in names for m in l["moves"])
               for l in layers.values()),
           "layers.json names only known workloads and end-to-end metrics")

    code, result, _ = bench(["--workload", "lifetime_mobile", "--seed", "7", "--seconds", "1",
                             "--trace", "0"])
    expect(code == 0 and result and result["correct"], "lifetime_mobile at the golden seed passes")
    code, result, _ = bench(["--workload", "lifetime_cache", "--seed", "3", "--seconds", "1",
                             "--trace", "1"])
    expect(code == 0 and result and result["correct"], "traced lifetime_cache replay matches")
    code, result, _ = bench(["--workload", "serve_mixed", "--seed", "3", "--seconds", "1",
                             "--trace", "0"])
    expect(code == 0 and result and result["correct"], "serve_mixed oracle passes")

    code, result, err = bench(["--workload", "lifetime_cache", "--seed", "3", "--seconds", "1",
                               "--trace", "0", "--inject", "digest"])
    expect(code != 0 and result and not result["correct"] and "digest" in err,
           "a corrupted lifetime digest fails the run")
    code, result, err = bench(["--workload", "serve_mixed", "--seed", "3", "--seconds", "1",
                               "--trace", "0", "--inject", "payload"])
    expect(code != 0 and result and not result["correct"] and "differs" in err,
           "a corrupted serve payload fails the run")

    scratch = os.path.join(run.build_dir(), "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    with open(run.GOLDEN) as f:
        rows = [r for r in json.load(f)["metrics"] if r["name"].startswith("run.0.sos.")]
    rows_path = os.path.join(scratch, "rows.json")
    with open(rows_path, "w") as f:
        json.dump({"metrics": rows}, f)
    expect(not run.golden_mismatches(rows_path), "the golden rows match themselves")
    rows[0] = dict(rows[0], value=rows[0]["value"] + 1)
    with open(rows_path, "w") as f:
        json.dump({"metrics": rows}, f)
    expect(len(run.golden_mismatches(rows_path)) == 1, "a corrupted golden row is reported")

    bare = os.path.join(scratch, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    # Its own build directory, so no cached configuration of this tree is reused.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    code, result, _ = bench(["--workload", "lifetime_cache", "--seed", "1", "--seconds", "1",
                             "--trace", "0"], cwd=bare, env=env)
    expect(code != 0 and result is None, "a bare benchmark directory fails without a result")
    shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
