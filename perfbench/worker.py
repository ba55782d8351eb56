"""One workload in one fresh process; started by ``run.py``.

Set-up (import plus building the fixed inputs) is timed from the first
plsphere import.  The timed phase then repeats one pass of the workload's
ops until ``--seconds`` would be exceeded; ``wall_s`` is the time of one
pass, taking each op's median over the passes, and ``wall_ref`` is
``wall_s`` in units of a reference loop timed between passes.  After each
pass, outside its timing, every result is checked and reduced to counters,
which must equal those of the first pass.

With ``--trace 1`` the first half of the time runs untraced passes, the
second half traced ones, and the set-up is repeated once under the tracer.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
MIN_PASSES = 2
#: about 10 ms of interpreter work on a 2 GHz Xeon
REFERENCE_ITERATIONS = 40000
REFERENCE_REPEATS = 3


def _run_pass(wl, ops, tracer=None) -> tuple[list[float], list]:
    """Run every op once; returns the seconds of each op and its result."""
    times, results = [], []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0 = perf_counter()
        try:
            results.append(wl.run(op))
        except Exception as exc:  # an op that raises is counted as failed
            traceback.print_exc(file=sys.stderr)
            results.append(exc)
        times.append(perf_counter() - t0)
    return times, results


def wall_s(passes: list[list[float]]) -> float:
    """Time of one pass, summing each op's median over the passes, so that
    a stall during one op of one pass does not count."""
    return sum(statistics.median(op_times) for op_times in zip(*passes))


class Ledger:
    """Checks, counters and the attempted/failed tally across passes."""

    def __init__(self, wl, ops):
        self.wl, self.ops = wl, ops
        self.reference: list | None = None
        self.attempted = self.failed = 0

    def add(self, results: list) -> None:
        counters = []
        for k, (op, res) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if isinstance(res, Exception):
                msg, c = f"raised {res!r}", None
            else:
                msg, c = self.wl.check(op, res), self.wl.counters(op, res)
            counters.append(c)
            if msg is None and self.reference is not None and c != self.reference[k]:
                msg = "counters differ from the first pass with the same seed"
            if msg is not None:
                self.failed += 1
                print(f"FAILED {self.wl.name}/{op.label}/{op.kind}: {msg}", file=sys.stderr)
        if self.reference is None:
            self.reference = counters


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop of dict, list and integer work.

    A shared host changes speed by tens of percent from one minute to the
    next.  Timed between passes, in the same process, this loop follows
    that speed, and ``wall_ref`` divides it out.  The program under test
    cannot change it.
    """
    t0 = perf_counter()
    table, row = {}, list(range(64))
    for i in range(REFERENCE_ITERATIONS):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + row[i & 63]
    return perf_counter() - t0


def _timed(wl, inputs, ledger, seconds) -> tuple[list[list[float]], float, list[float]]:
    """Passes until ``seconds`` would be exceeded; the peak resident memory
    after the first pass (later passes only add allocator fragmentation,
    and how many of them fit depends on speed); and reference-loop times
    from before and after every pass."""
    passes = []
    reference = [reference_s() for _ in range(REFERENCE_REPEATS)]
    start = perf_counter()
    while True:
        times, results = _run_pass(wl, inputs.ops)
        passes.append(times)
        reference += [reference_s() for _ in range(REFERENCE_REPEATS)]
        ledger.add(results)
        del results
        if len(passes) == 1:
            peak_rss_mb = _peak_rss_mb()
        if len(passes) >= MIN_PASSES and perf_counter() - start + sum(times) > seconds:
            return passes, peak_rss_mb, reference


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)

    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.smoke, OUT_DIR)
    setup_s = perf_counter() - t0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ledger = Ledger(wl, inputs.ops)
        out: dict = {"setup_s": setup_s}
        if not args.trace:
            passes, out["peak_rss_mb"], reference = _timed(wl, inputs, ledger, args.seconds)
            out["wall_s"] = wall_s(passes)
            out["reference_s"] = statistics.median(reference)
            out["wall_ref"] = out["wall_s"] / out["reference_s"]
            out["passes"] = len(passes)
        else:
            out.update(_traced_run(wl, inputs, ledger, args))
        out["attempted"], out["failed"] = ledger.attempted, ledger.failed
        print(json.dumps(out))
        return 0
    finally:
        inputs.close()


def _traced_run(wl, inputs, ledger, args) -> dict:
    import tracing

    untraced, _, _ = _timed(wl, inputs, ledger, args.seconds / 2)
    tracer = tracing.Tracer()
    labels = [op.label for op in inputs.ops]
    tracer.install()
    try:
        tracer.op = -1
        setup_inputs = wl.setup(args.seed, args.smoke, OUT_DIR)
        setup_inputs.close()
        setup_metrics = tracing.pass_metrics(tracer.spans, 0, labels)
        ranges, traced = [], []
        start = perf_counter()
        while True:
            first = len(tracer.spans)
            times, results = _run_pass(wl, inputs.ops, tracer)
            ranges.append((first, len(tracer.spans)))
            traced.append(times)
            tracer.op = -1
            ledger.add(results)
            del results
            if perf_counter() - start + sum(times) > args.seconds / 2:
                break
    finally:
        tracer.uninstall()
    per_pass = [tracing.pass_metrics(tracer.spans[:end], first, labels) for first, end in ranges]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["complex_core.subdivision_s"] = setup_metrics["complex_core.subdivision_s"]
    metrics["trace.wall_s"] = wall_s(traced)
    metrics["trace.untraced_wall_s"] = wall_s(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"), labels)
    return {"per_layer": metrics, "passes": len(untraced) + len(traced)}


if __name__ == "__main__":
    sys.exit(main())
