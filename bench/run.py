"""The arcat benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload knit-fp --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; arcat is imported from `src/`.
Each pass runs the workload's whole seeded op list in a fresh child process
(one thread, one op at a time), so every pass pays the interpreter start,
`import arcat` and input building that a user pays.  Passes repeat until
the next one would overrun `--seconds` (at least MIN_PASSES).

With `--trace 0` the last stdout line carries the end-to-end metrics.  Op
times are latencies at the speed probe's reference speed (child.py), each
op's the median over the run's passes: wall_s is their sum over the job
list, op_p50_ms and op_p90_ms their percentiles; setup_s is the median
over passes of launch to first op ready, at reference speed; peak_rss_mb
the median peak RSS.  The uncorrected medians are kept in the report file.
With `--trace 1` it carries the per-layer metrics of bench/layer_map.json
from two traced passes, after one untraced pass that gives the tracing
overhead.  `--workload all` runs the four workloads in turn.

Every op's answer is checked against an oracle outside the timed region; a
failed op is one that raised or whose answer the oracle rejected.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("knit-fp", "tensor-q", "decompose", "complexes-rep")
MIN_PASSES = 3
HASH_SEED = "0"
CHILD_LIMIT_S = 170
E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child(args, deadline, hash_seed=HASH_SEED):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hash_seed
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")] + args,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env,
            cwd=ROOT, timeout=max(5.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
    if "--prepare" in args:
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["launched"] = launched
    result["elapsed"] = time.perf_counter() - launched
    return result


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def _metadata(workload, seed, trace):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        from importlib.metadata import version
        sympy_version = version("sympy")
    except ImportError:
        sympy_version = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "machine": f"{platform.node()} {platform.machine()} {platform.processor()}".strip(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": sympy_version, "git_sha": sha, "PYTHONHASHSEED": HASH_SEED}


def run_workload(workload, seed, seconds, trace, corrupt=False):
    """Runs the passes of one workload; returns (result line, report)."""
    start = time.perf_counter()
    deadline = start + CHILD_LIMIT_S
    job_dir = os.path.join(RESULTS, f"jobs-{workload}-{os.getpid()}")
    prepared = os.path.join(RESULTS, f"prepared-{workload}-{os.getpid()}.pickle")
    base = ["--workload", workload, "--seed", str(seed), "--job-dir", job_dir]
    if corrupt:
        base.append("--corrupt-oracle")
    try:
        _child(base + ["--prepare", prepared], deadline)
        base += ["--prepared", prepared]
        if trace:
            return _traced(workload, seed, base, deadline)
        passes = []
        while True:
            passes.append(_child(base, deadline))
            now = time.perf_counter()
            pass_s = statistics.median(p["elapsed"] for p in passes)
            if len(passes) >= MIN_PASSES and now + pass_s > start + seconds:
                break
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
        if os.path.exists(prepared):
            os.remove(prepared)
    # Each op's time is its latency at the probe's reference speed (see
    # child.py), taken as the median over the run's passes.
    n_ops = len(passes[0]["ops"])
    per_op = [statistics.median(p["latencies"][k] * p["speeds"][k] for p in passes)
              for k in range(n_ops)]
    metrics = {
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p90_ms": 1000 * _quantile(per_op, 90),
        "setup_s": statistics.median((p["ready"] - p["launched"]) * p["setup_speed"]
                                     for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    samples = {"wall_s": len(passes), "op_p50_ms": n_ops, "op_p90_ms": n_ops,
               "setup_s": len(passes), "peak_rss_mb": len(passes)}
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}
    report = {"samples": samples,
              "beyond_p90": sum(1 for x in per_op if 1000 * x > metrics["op_p90_ms"]),
              "raw_wall_s": statistics.median(sum(p["latencies"]) for p in passes),
              "raw_setup_s": statistics.median(p["ready"] - p["launched"] for p in passes),
              "passes": [{"wall_s": sum(p["latencies"]), "setup_s": p["ready"] - p["launched"],
                          "mean_speed": statistics.mean(p["speeds"]),
                          "import_s": p["import_s"], "rss_mb": p["rss_mb"],
                          "failed": [p["ops"][k] for k in p["failed"]]} for p in passes]}
    return line, report


def load_layer_map():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def layer_metrics(specs, traced, untraced_s, import_s):
    """Per-layer metrics of one traced pass."""
    totals = traced["totals"]
    op_s = sum(traced["latencies"])

    def get(name, field):
        calls, incl, self_s, hits = totals.get(name, (0, 0.0, 0.0, 0))
        return {"calls": calls, "s": incl, "self_s": self_s, "hits": hits}[field]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for spec in specs:
        name = spec["name"]
        layer, _, rest = name.partition(".")
        if rest in ("self_s", "share"):
            own = sum(t[2] for n, t in totals.items() if n.startswith(layer + "."))
            values[name] = own if rest == "self_s" else ratio(own, op_s)
        elif name == "linalg.rref.entries":
            values[name] = traced["rref_entries"]
        elif name == "algebra.candidates_per_search":
            values[name] = ratio(get("algebra.candidate", "calls"),
                                 get("algebra.find_idempotent_semisimple", "calls"))
        elif name == "algebra.candidate_hit_ratio":
            values[name] = ratio(get("algebra.candidate", "hits"),
                                 get("algebra.candidate", "calls"))
        elif name == "modcat.presentations_per_ass":
            values[name] = ratio(get("modcat.minimal_presentation", "calls"),
                                 get("modcat.almost_split_sequence", "calls"))
        elif name == "modcat.iso_hit_ratio":
            values[name] = ratio(get("modcat.is_isomorphic", "hits"),
                                 get("modcat.is_isomorphic", "calls"))
        elif name == "cli.import_s":
            values[name] = import_s
        elif name == "trace.overhead_ratio":
            values[name] = ratio(op_s, untraced_s)
        elif name == "trace.unattributed_share":
            values[name] = ratio(op_s - traced["top_s"], op_s)
        else:
            func, _, field = name.rpartition(".")
            if func not in totals:
                raise BenchError(f"{name}: {func} is not traced")
            values[name] = get(func, field)
    return values


def _exact(values, units):
    """The metrics that must repeat exactly: counts and count ratios."""
    return {n: v for n, v in values.items()
            if units[n] == "count" or (units[n] == "ratio" and not n.endswith("share")
                                       and not n.startswith("trace."))}


def _traced(workload, seed, base, deadline):
    tag = f"{workload}-seed{seed}"
    spans = os.path.join(RESULTS, f"spans-{tag}.jsonl.gz")
    plain = _child(base, deadline)
    runs = [_child(base + ["--trace", path], deadline) for path in (spans, "-")]
    other_hash = _child(base + ["--trace", "-"], deadline, hash_seed="1")
    specs = load_layer_map()
    units = {s["name"]: s["unit"] for s in specs}
    untraced_s = sum(plain["latencies"])
    import_s = statistics.median(r["import_s"] for r in [plain] + runs)
    per_run = [layer_metrics(specs, r, untraced_s, import_s) for r in runs]
    first, second = _exact(per_run[0], units), _exact(per_run[1], units)
    values = {n: first[n] if n in first else statistics.median(v[n] for v in per_run)
              for n in per_run[0]}
    hashed = _exact(layer_metrics(specs, other_hash, untraced_s, import_s), units)
    failed = sum(len(r["failed"]) for r in [plain] + runs + [other_hash])
    attempted = sum(len(r["latencies"]) for r in [plain] + runs + [other_hash])
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}
    report = {"spans_file": os.path.relpath(spans, ROOT),
              "spans": runs[0]["spans"],
              "counts_differ_same_hash_seed": sorted(n for n in first if first[n] != second[n]),
              "counts_differ_other_hash_seed": sorted(n for n in first if first[n] != hashed[n])}
    return line, report


def _print_report(meta, line, report, trace):
    print(f"# {meta['workload']} seed {meta['seed']} trace {int(trace)}: "
          f"python {meta['python']}, sympy {meta['sympy']}, nproc {meta['nproc']}, "
          f"git {meta['git_sha']}, PYTHONHASHSEED {meta['PYTHONHASHSEED']}")
    attempted, failed = line["attempted"], line["failed"]
    print(f"  ops attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4f}")
    for name, m in line["metrics"].items():
        samples = f"  n={report['samples'][name]}" if "samples" in report else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{samples}")
    if not trace:
        print(f"  ops beyond p90: {report['beyond_p90']}")
    else:
        print(f"  spans: {report['spans']} in {report['spans_file']}")
        print(f"  counts differing between two traced runs: "
              f"{report['counts_differ_same_hash_seed'] or 'none'}")
        print(f"  counts differing under PYTHONHASHSEED=1: "
              f"{report['counts_differ_other_hash_seed'] or 'none'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="negative control: give the oracle one wrong expected answer")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "arcat", "__init__.py")):
        print(f"bench: no arcat sources under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        meta = _metadata(name, args.seed, args.trace)
        try:
            line, report = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), args.corrupt_oracle)
        except BenchError as e:
            print(f"bench: {name}: {e}", file=sys.stderr)
            return 1
        out = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "result": line, "report": report}, fh, indent=1)
        _print_report(meta, line, report, bool(args.trace))
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok or args.workload != "all" else 3


if __name__ == "__main__":
    sys.exit(main())
