"""Checks of the benchmark harness itself.

    python3 bench/selftest.py

1. BENCHMARK.json names the same workloads and metrics, with the same units
   and directions, as run.py and layer_map.json.
2. Negative control: with one deliberately wrong expected answer per pass,
   a run reports correct=false and exactly that many failed ops.
3. The per-layer counts of a traced run repeat exactly across its two
   traced passes.
4. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

import run

QUICK = "complexes-rep"


def _bench(args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def check_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.E2E_UNITS
    want = [{k: m[k] for k in ("name", "unit", "better")} for m in run.load_layer_map()]
    assert manifest["per_layer"] == want, "per_layer differs from layer_map.json"
    return f"{len(manifest['end_to_end'])} end-to-end and {len(want)} per-layer metrics agree"


def check_negative_control():
    code, lines = _bench(["--workload", QUICK, "--seed", "1", "--seconds", "1",
                          "--trace", "0", "--corrupt-oracle"])
    line = json.loads(lines[-1])
    with open(os.path.join(run.RESULTS, f"{QUICK}-seed1-trace0.json"), encoding="utf-8") as fh:
        passes = len(json.load(fh)["report"]["passes"])
    assert code == 0, code
    assert line["correct"] is False, line
    assert line["failed"] == passes, (line["failed"], passes)
    return f"{line['failed']} deliberate failures in {passes} passes reported, correct=false"


def check_counts_repeat():
    code, lines = _bench(["--workload", QUICK, "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert code == 0 and json.loads(lines[-1])["correct"], lines[-1]
    with open(os.path.join(run.RESULTS, f"{QUICK}-seed1-trace1.json"), encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    assert not report["counts_differ_same_hash_seed"], report["counts_differ_same_hash_seed"]
    return (f"counts repeat; under another hash seed these differ: "
            f"{report['counts_differ_other_hash_seed'] or 'none'}")


def check_bare_directory():
    bare = os.path.join(run.RESULTS, f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        code, lines = _bench(["--workload", "knit-fp", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not lines, (code, lines)
    return f"exit code {code}, no result printed"


def main():
    ok = True
    for check in (check_manifest, check_negative_control, check_counts_repeat,
                  check_bare_directory):
        try:
            print(f"PASS {check.__name__}: {check()}")
        except AssertionError as e:
            ok = False
            print(f"FAIL {check.__name__}: {e!r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
