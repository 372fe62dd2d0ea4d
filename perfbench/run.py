#!/usr/bin/env python3
"""perhom benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload hjb1d_study --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; perhom is imported from ``src/``.  The
run starts whole rounds of the workload's operations, each round in a
fresh process, for ``--seconds`` seconds (at least three or five rounds), then
prints one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones, from spans wrapped around perhom's
public functions.

``--seed`` orders the operations of each round.  ``--workload-seed``
(default 0, the recorded media) shifts every medium seed, so that a claim
can be re-checked on media it was not written against.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import layer_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKLOAD_NAMES = ("hjb1d_study", "hjb2d_viscous", "elliptic2d")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"), ("const_err_p50", "1"))
RUN_LIMIT_S = 170.0
# Fewest rounds per run.  The fastest-of-rounds estimate needs about five
# samples of each operation to see past a slow spell; the 2D workloads get
# more than that within --seconds, while a round of the 1D study is 15 s.
MIN_ROUNDS = {"hjb1d_study": 5, "hjb2d_viscous": 3, "elliptic2d": 3}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the operations of each round")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="start rounds for this long (see MIN_ROUNDS)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--workload-seed", type=int, default=0,
                    help="shift of every medium seed (0: recorded media)")
    ap.add_argument("--round", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --- one round, in its own process ------------------------------------------

def run_round(args) -> dict:
    """Build the workload, run every operation once, then check them.

    The first operation starts ``setup`` seconds after the process began
    (the parent adds the interpreter start).  Checks run after the timed
    operations and the peak RSS reading.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.workload_seed)
    ops = wl.ops()
    random.Random(args.seed).shuffle(ops)
    tracer = None
    if args.trace:
        tracer = layer_trace.Tracer()
        layer_trace.install(tracer)

    first_op = time.monotonic()
    outputs, op_s, raised = {}, {}, {}
    t_round = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs[op.name] = op.run()
        except Exception as exc:  # an operation that raises is a failed one
            raised[op.name] = f"{type(exc).__name__}: {exc}"
        op_s[op.name] = time.perf_counter() - t0
    wall = time.perf_counter() - t_round
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        os.makedirs(RUNS, exist_ok=True)
        tracer.dump(os.path.join(
            RUNS, f"{args.workload}-seed{args.seed}-round{args.round}.trace.json"))
    failures = dict(raised)
    errors = []
    if not raised:
        for name, outcome in wl.check(outputs).items():
            errors.extend(outcome.errors)
            if outcome.failure is not None:
                failures[name] = outcome.failure
    else:
        failures.update({op.name: "not checked: another operation raised"
                         for op in ops if op.name not in raised})
    return {"first_op": first_op, "wall_s": wall, "op_s": op_s,
            "rss_mb": rss_mb, "attempted": len(ops), "failures": failures,
            "errors": errors,
            "layers": tracer.metrics() if tracer is not None else None}


# --- the run: rounds until the time is up -------------------------------------

def spawn_round(args, k: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--workload-seed", str(args.workload_seed),
           "--round", str(k)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start))
    end = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"round {k} exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res.pop("first_op") - start
    res["process_s"] = end - start
    return res


def summarize(args, rounds: list) -> dict:
    failures = sum(len(r["failures"]) for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    if args.trace:
        # per round: every round does the same work, so counts repeat exactly
        values = {n: sum(r["layers"][n] for r in rounds) / len(rounds)
                  for n, _ in layer_trace.METRICS}
        calls = values["environment.calls"]
        values["environment.us_per_call"] = (
            1e6 * values["environment.s"] / calls if calls else 0.0)
        units = layer_trace.METRICS
    else:
        errors = [e for r in rounds for e in r["errors"]]
        # The operations are deterministic, and a busy host only ever slows
        # them (by up to 70% on a shared VM, in spells of seconds to
        # minutes), so each operation's fastest round is its cost; the
        # round's wall time is the sum over its operations.
        op_s = [min(r["op_s"][name] for r in rounds) for name in rounds[0]["op_s"]]
        values = {
            "setup_s": rounds[0]["setup_s"],
            "wall_s": sum(op_s),
            "op_p50_s": statistics.median(op_s),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
            "const_err_p50": statistics.median(errors) if errors else float("nan"),
        }
        units = END_TO_END
    metrics = {n: {"value": values[n], "unit": u} for n, u in units}
    return {"correct": failures == 0, "attempted": attempted,
            "failed": failures, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.round is not None:
        print(json.dumps(run_round(args)))
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "perhom", "__init__.py")):
        print("perfbench: no src/perhom in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    while len(rounds) < MIN_ROUNDS[args.workload] or \
            time.monotonic() - start < args.seconds:
        rounds.append(spawn_round(args, len(rounds), deadline))
    result = summarize(args, rounds)
    os.makedirs(RUNS, exist_ok=True)
    record = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"args": vars(args), "rounds": rounds, "result": result}, f,
                  indent=1)
    for r in rounds:
        for name, why in sorted(r["failures"].items()):
            print(f"FAILED {name}: {why}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']}, "
          f"failed = {result['failed']}, rounds = {len(rounds)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
