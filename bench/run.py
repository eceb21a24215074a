"""dynbraid benchmark: one closed-loop client driving ``dynbraid.cli.main``.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload pa_words --seed 1 --seconds 20 --trace 0

One process, one thread: each op is sent after the previous one returns.
The program is imported from ``src/`` of the checkout and receives only the
generated argv.  Every answer is checked by the exact oracles in
``oracles.py``.  With ``--trace 0`` the run measures the end-to-end metrics;
with ``--trace 1`` it replays a fixed prefix of the corpus untraced and then
traced, and reports per-layer metrics (see ``tracing.py``).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench"

SETUP_STARTS = 4  # before and again after the measured loop
# a fresh interpreter imports the CLI and builds its parser (via --help)
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dynbraid.cli as cli\n"
    "if not cli.__file__.startswith(sys.argv[1]): sys.exit(9)\n"
    "cli.main(['--help'])"
)

# ROADMAP baseline ops, timed untraced in every traced run
BASELINE_OPS = {
    "baseline.s3_word_matrix_s": ("pa_words", "matrix", "s3", 3),
    "baseline.regions3_golden_s": ("circle3", "circle", "n3", 3),
    "baseline.dilatation_1_1_1_s": ("non_pa_words", "non_pa", "1 1 1", 1),
    "baseline.matrix_1_2_3_4_s": ("non_pa_words", "non_pa", "1 2 3 4", 1),
}

# which workloads must leave a layer untouched: a nonzero count means the
# workloads no longer separate the layers
BYPASS = {
    "update.traced_apply.calls": ("non_pa_words", "tracks"),
    "regions.find_unstable_direction.calls": ("circle3", "tracks"),
}


def import_program():
    """Import dynbraid.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "dynbraid" / "cli.py").is_file():
        sys.exit(f"error: {SRC}/dynbraid/cli.py not found; run from a dynbraid checkout")
    sys.path.insert(0, str(SRC))
    import dynbraid.cli

    if not Path(dynbraid.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: dynbraid was imported from {dynbraid.cli.__file__}, not {SRC}")
    return dynbraid.cli


def call(cli, argv):
    """Run one op; returns (exit code, stdout, name of an escaping exception)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc, exc = cli.main(argv), None
        except SystemExit as e:  # argparse usage errors
            rc, exc = e.code if isinstance(e.code, int) else 2, None
        except Exception as e:  # an escaping exception fails the op; the run goes on
            rc, exc = None, f"{type(e).__module__}.{type(e).__qualname__}"
    return rc, out.getvalue(), exc


class Ledger:
    """Attempts of a run, the first answer of each distinct op, and verdicts."""

    def __init__(self, ops):
        self.ops = ops
        self.attempts = []  # (op index, latency in s)
        self.answers = {}  # op index -> (rc, stdout, exception name)
        self.unstable = set()  # ops whose answer changed between attempts

    def run(self, cli, index):
        argv = self.ops[index].argv
        t0 = time.perf_counter()
        answer = call(cli, argv)
        latency = time.perf_counter() - t0
        self.attempts.append((index, latency))
        first = self.answers.setdefault(index, answer)
        if first != answer:
            self.unstable.add(index)
        return latency

    def judge(self, oracles):
        """Verdict per distinct op: None (right), or (class, reason)."""
        self.verdicts = {}
        for i, (rc, out, exc) in self.answers.items():
            op = self.ops[i]
            if exc is not None:
                v = ("exception", exc)
            elif i in self.unstable:
                v = ("wrong", "answer changed between attempts")
            elif rc != op.expect_rc:
                v = ("exit code", f"exit {rc}, expected {op.expect_rc}")
            else:
                reason = oracles.check(op, rc, out)
                v = ("wrong", reason) if reason else None
            self.verdicts[i] = v
        return self.verdicts

    def failed(self):
        return sum(1 for i, _ in self.attempts if self.verdicts[i] is not None)

    def wrong(self):
        return sum(1 for v in self.verdicts.values() if v and v[0] == "wrong")

    def self_test(self, oracles):
        """Each oracle kind must reject a corrupted copy of a right answer."""
        tested, blind = [], []
        for i, v in sorted(self.verdicts.items()):
            op = self.ops[i]
            if v is None and op.kind not in tested:
                tested.append(op.kind)
                rc, out, _ = self.answers[i]
                if oracles.check(op, *oracles.corrupt(op, rc, out)) is None:
                    blind.append(op.kind)
        return tested, blind

    def report(self, out):
        kinds = Counter()
        for i, v in self.verdicts.items():
            kinds[(self.ops[i].kind, "ok" if v is None else v[0])] += 1
        summary = ", ".join(f"{k} {c} {verdict}" for (k, verdict), c in sorted(kinds.items()))
        print(f"oracle verdicts per distinct op: {summary}", file=out)
        per_op = Counter(i for i, _ in self.attempts)
        for i, v in sorted(self.verdicts.items()):
            if v is not None:
                print(f"  failed x{per_op[i]}: {self.ops[i].label}: {v[0]}: {v[1]}", file=out)


def tail_latency(latencies):
    """Highest whole percentile with at least ten samples above it.

    Returns (value, percentile, samples); with ten samples or fewer no
    percentile qualifies and the maximum is reported as percentile 100.
    """
    s = sorted(latencies)
    n = len(s)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return s[rank - 1], p, n
    return s[-1], 100, n


def measure_setup(times):
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up start failed: {proc.stderr.decode()[-300:]}")
    return times


def warm_up(cli, ops):
    """Run the first op of each kind once, untimed, so lazy set-up is done."""
    kinds = set()
    for op in ops:
        if op.kind not in kinds:
            kinds.add(op.kind)
            call(cli, op.argv)


def end_to_end(cli, oracles, ops, seconds, out):
    setup_times = measure_setup([])
    warm_up(cli, ops)
    ledger = Ledger(ops)
    # whole passes only, so every run measures the same op mix
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < seconds:
        for i in range(len(ops)):
            ledger.run(cli, i)
        passes += 1
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(measure_setup(setup_times))
    ledger.judge(oracles)
    attempted, failed = len(ledger.attempts), ledger.failed()
    latencies = [lat for _, lat in ledger.attempts]
    tail, pct, n = tail_latency(latencies)
    metrics = {
        "ops_per_s": ((attempted - failed) / wall, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "answered_frac": ((attempted - failed) / attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{attempted} ops in {wall:.3f} s ({passes} passes over {len(ops)} ops), "
          f"{failed} failed", file=out)
    print(f"latency_tail_ms is p{pct} of {n} samples"
          + (" (the maximum: fewer than 11 samples)" if pct == 100 else ""), file=out)
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted})", file=out)
    return ledger, metrics


def traced(cli, oracles, workloads, name, seed, ops, out):
    from tracing import Tracer

    untraced, tracer = Ledger(ops), Tracer()
    warm_up(cli, ops)
    t0 = time.perf_counter()
    for i in range(len(ops)):
        untraced.run(cli, i)
    wall_untraced = time.perf_counter() - t0
    ledger = Ledger(ops)
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i in range(len(ops)):
            tracer.op = i
            ledger.run(cli, i)
        wall_traced = time.perf_counter() - t0
    finally:
        tracer.remove()
    if tracer.missing:
        print(f"not traced (missing): {', '.join(tracer.missing)}", file=out)
    ledger.judge(oracles)
    changed = [i for i in ledger.answers if ledger.answers[i] != untraced.answers[i]]
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (wall_traced / wall_untraced - 1, "frac")
    problems = [f"tracing changed the answer of {ops[i].label}" for i in changed]
    for metric, bypassed in BYPASS.items():
        if name in bypassed and metrics[metric][0] != 0:
            problems.append(f"bypass broken: {metric} = {metrics[metric][0]} on {name}")
    problems += baseline_ops(cli, oracles, workloads, metrics, out)
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{name}-seed{seed}.json"
    tracer.write(spans)
    print(f"{len(tracer.span_start)} spans written to {spans.relative_to(ROOT)}; "
          f"traced {wall_traced:.3f} s vs untraced {wall_untraced:.3f} s", file=out)
    return ledger, metrics, problems


def baseline_ops(cli, oracles, workloads, metrics, out):
    """Time the ROADMAP baseline ops untraced; median of the repeats."""
    problems = []
    for metric, (workload, kind, key, repeats) in BASELINE_OPS.items():
        op = next(o for o in workloads.WORKLOADS[workload](0, None) if o.kind == kind and (
            o.info.get("golden") == key or o.info.get("word") == key))
        ledger = Ledger([op])
        times = [ledger.run(cli, 0) for _ in range(repeats)]
        ledger.judge(oracles)
        if ledger.verdicts[0] is not None:
            problems.append(f"baseline op {op.label}: {ledger.verdicts[0]}")
        metrics[metric] = (statistics.median(times), "s")
        print(f"{metric} = {statistics.median(times):.4f} s ({op.label})", file=out)
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_program()
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    out = sys.stdout
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=out)
        if args.trace:
            ops = ops[: workloads.TRACE_OPS[args.workload]]
            ledger, metrics, problems = traced(cli, oracles, workloads, args.workload,
                                               args.seed, ops, out)
        else:
            ledger, metrics = end_to_end(cli, oracles, ops, args.seconds, out)
            problems = []
        tested, blind = ledger.self_test(oracles)
        problems += [f"self-test: the {kind} oracle accepted a corrupted answer" for kind in blind]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger.report(out)
    print(f"self-test: corrupted answers rejected by the {', '.join(tested)} oracles"
          + (f"; NOT by {', '.join(blind)}" if blind else ""), file=out)
    for p in problems:
        print(f"PROBLEM: {p}", file=out)
    for key, (value, unit) in metrics.items():
        print(f"  {key:58s} {value:.6g} {unit}", file=out)
    result = {
        "correct": ledger.wrong() == 0 and not problems,
        "attempted": len(ledger.attempts),
        "failed": ledger.failed(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
