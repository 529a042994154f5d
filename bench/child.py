"""One pass of one workload in a fresh interpreter.

Started by run.py, never by hand.  Imports arcat, builds the seeded inputs,
prints nothing until the end, then writes one JSON line to stdout with the
moment the first op was ready, every op latency, the ops that failed and
why, peak RSS, and (with --trace) the per-function span totals.
`--prepare FILE` instead pickles the workload's shared data (run.py makes
it once per run and hands it to every pass as `--prepared FILE`).

Speed probe: shared virtual machines switch between CPU speed states (1.7x
apart on the 2-vCPU Xeon VM this was written on) for seconds to minutes at
a time.  Untraced passes therefore time a fixed exact-arithmetic kernel, a
row reduction in the workload's field like arcat's own inner loop but
written here so that no arcat change can alter it, before and after every
op and every PROBE_EVERY_S during it, from a SIGALRM handler.  Each op
reports its latency without the probe time inside it and its mean speed
factor (the kernel's reference time / probe time); run.py multiplies the
two.
"""

import argparse
import json
import pickle
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

PROBE_EVERY_S = 0.02
_P = 101
_ROWS = tuple(tuple((i * 7 + j * 13 + i * j) % _P for j in range(10)) for i in range(8))
_QROWS = tuple(tuple(Fraction(x - 50, 1 + (i + j) % 3) for j, x in enumerate(row[:4]))
               for i, row in enumerate(_ROWS[:3]))


def _reduce(rows, inv, normal):
    m = [list(r) for r in rows]
    r = 0
    for j in range(len(m[0])):
        sel = next((i for i in range(r, len(m)) if m[i][j]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        f = inv(m[r][j])
        m[r] = [normal(f * x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j]:
                c = m[i][j]
                m[i] = [normal(x - c * y) for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break


def fp_kernel():
    """Row-reduces a fixed 8 x 10 matrix over F_101."""
    _reduce(_ROWS, lambda a: pow(a, _P - 2, _P), lambda a: a % _P)


def q_kernel():
    """Row-reduces a fixed 3 x 4 matrix over Q."""
    _reduce(_QROWS, lambda a: 1 / a, lambda a: a)


# (kernel, its time in seconds at the reference speed); tensor-q works over Q
PROBES = {"tensor-q": (q_kernel, 200e-6)}
DEFAULT_PROBE = (fp_kernel, 50e-6)


class SpeedProbe:
    """Probe durations, sampled on demand and from a periodic SIGALRM."""

    def __init__(self, workload):
        self.kernel, self.ref_s = PROBES.get(workload, DEFAULT_PROBE)
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, first):
        """Mean of reference time / probe time over samples[first:]."""
        window = self.samples[first:]
        return sum(self.ref_s / c for c in window) / len(window)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--job-dir", required=True)
    ap.add_argument("--prepare", help="pickle the shared data to this file")
    ap.add_argument("--prepared", help="the file --prepare wrote")
    ap.add_argument("--trace", help="trace the ops; write the spans to this "
                    "file as gzipped JSON lines, or to none if it is '-'")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="negative control: expect a wrong answer for one op")
    args = ap.parse_args()
    probe = None if args.trace or args.prepare else SpeedProbe(args.workload)
    if probe:
        probe.sample()
        probe.start()

    t0 = time.perf_counter()
    import arcat.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t0
    import inputs
    import workloads

    if args.prepare:
        with open(args.prepare, "wb") as fh:
            pickle.dump(workloads.prepare(args.workload), fh)
        return
    prepared = None
    if args.prepared:
        with open(args.prepared, "rb") as fh:
            prepared = pickle.load(fh)
    ops = workloads.build(args.workload, args.seed, args.job_dir, prepared)
    ready = time.perf_counter()
    setup_speed = 1.0
    if probe:
        probe.sample()
        setup_speed = probe.speed(0)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(binding_modules=(inputs, workloads))
        tracer.install()
    latencies, speeds, answers, errors = [], [], [], {}
    clock = time.perf_counter
    for k, op in enumerate(ops):
        if tracer:
            tracer.op = k
        if probe:
            probe.sample()
            first = len(probe.samples) - 1
        t0 = clock()
        try:
            answer = op.run()
        except Exception:
            answer = None
            errors[k] = traceback.format_exc(limit=3)
        latency = clock() - t0
        if probe:
            latency -= sum(probe.samples[first + 1:])
            probe.sample()
            speeds.append(probe.speed(first))
        latencies.append(latency)
        answers.append(answer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if probe:
        probe.stop()
    if tracer:
        tracer.op = -1
        tracer.uninstall()

    for k, op in enumerate(ops):
        if k in errors:
            continue
        try:
            comparisons = op.check(answers[k])
            if args.corrupt_oracle and k == 0:
                label, got, want = comparisons[0]
                comparisons[0] = (label, got, ("deliberately wrong", want))
            bad = [c for c in comparisons if c[1] != c[2]]
            if bad:
                errors[k] = "; ".join(f"{label}: got {got!r}, want {want!r}"
                                      for label, got, want in bad)
        except Exception:
            errors[k] = "oracle raised:\n" + traceback.format_exc(limit=3)
    for k in sorted(errors):
        print(f"op {ops[k].name} failed: {errors[k]}", file=sys.stderr)

    result = {"ready": ready, "import_s": import_s,
              "setup_speed": setup_speed, "latencies": latencies,
              "speeds": speeds, "ops": [op.name for op in ops],
              "failed": sorted(errors), "rss_mb": rss_mb}
    if tracer:
        result["totals"] = tracer.totals()
        result["rref_entries"] = tracer.rref_entries
        result["top_s"] = tracer.top_s
        result["spans"] = len(tracer.span_key)
        if args.trace != "-":
            tracer.write_spans(args.trace, result["ops"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
