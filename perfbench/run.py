"""The plsphere benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one after another
    python3 perfbench/run.py --smoke                  # reduced sizes, both trace modes

Each workload runs in its own fresh, single-threaded ``worker.py`` process.
``setup_s`` is the median over that process and at least ``SETUP_PROBES``
set-up-only processes, run one after another.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  This script does not import plsphere itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spectrum", "pipeline")
DEFAULT_SEED = 1
SETUP_PROBES = 2
#: cheap set-ups get more probes, up to this much probe time in total
SETUP_PROBE_S = 1.0
MAX_SETUP_PROBES = 8
#: a run must end within this many seconds, building included
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float, env: dict) -> dict:
    """Run worker.py with ``args`` and return its last stdout line as JSON."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(root: str, bench: dict, name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    env = _env(root)
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    main = _child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline, env)
    if trace:
        values, declared = main["per_layer"], bench["per_layer"]
    else:
        probes = [main["setup_s"]]
        while len(probes) <= SETUP_PROBES or (sum(probes[1:]) < SETUP_PROBE_S and len(probes) <= MAX_SETUP_PROBES):
            probes.append(_child(common + ["--setup-only"], deadline, env)["setup_s"])
        values = {
            "setup_s": statistics.median(probes),
            "wall_ref": main["wall_ref"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        print(f"{name}\twall_s\t{main['wall_s']:.6g}\ts (not gated; reference loop {main['reference_s']:.6g} s)")
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    differ = set(values) ^ {m["name"] for m in declared}
    if differ:
        print(f"metrics emitted and declared differ: {sorted(differ)}", file=sys.stderr)
    return {
        "correct": not differ and main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }


def _report(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name}\t{metric}\t{m['value']:.6g}\t{m['unit']}")
    print(f"{name}\tfail_ratio\t{result['failed']}/{result['attempted']}\tfailed/attempted ops")


def smoke(root: str, bench: dict) -> int:
    """Every workload at reduced size in both modes; every metric must appear."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(root, bench, name, DEFAULT_SEED, 1.0, trace, smoke=True)
            ok = ok and result["correct"]
            print(f"smoke\t{name}\ttrace={trace}\t{'ok' if result['correct'] else 'FAILED'}\t{len(result['metrics'])} metrics")
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, every workload, both modes")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plsphere", "__init__.py")):
        print("run.py: no src/plsphere here; run from the root of a plsphere checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        if args.smoke:
            return smoke(root, bench)
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_workload(root, bench, name, args.seed, seconds, args.trace, smoke=False)
            _report(name, results[name])
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
