"""whilep benchmark: one seeded workload per run, one process, one thread.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): corpus, long_program, alloc_run, soundness.
The run builds its inputs from --seed several times (each time
re-importing whilep from ./src and warming up), then runs whole rounds of
ops for --seconds, checking every output; each generated input is screened
for documented defects, untimed, when the run first reaches it.  The
run prints a readable report and,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half the time
untraced, then the same ops again with spans around every layer, and
reports the per-layer metrics, a table of self-time shares and the tracing
overhead; the spans go to bench/out/.

An op fails when it raises (RecursionError included), runs past the per-op
time limit, or fails an output check; any failed op makes the run
incorrect.  In the latency percentiles a failed op counts as the limit
plus the time it ran, so it ranks above every completed op.  Inputs that
hit a documented defect of whilep are not timed: the report lists the
generated inputs screened out for one and the outcome of each fixed probe
that fails at the baseline (see workloads.py).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads
from speed import REFERENCE_S, Speed, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# set up at least SETUP_REPEATS times and for at least SETUP_MIN_S, and
# report the median: a set-up of a tenth of a second varies by a fifth
# between runs, so short ones are repeated more often
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 30
# address-space cap, so that a program whose certificate blows up fails
# with MemoryError instead of exhausting the machine
MEMORY_LIMIT_BYTES = 3 << 30


def load_whilep():
    """Import whilep afresh from ./src and return the package."""
    for name in [m for m in sys.modules if m == "whilep" or m.startswith("whilep.")]:
        del sys.modules[name]
    whilep = importlib.import_module("whilep")
    if Path(whilep.__file__).resolve() != (SRC / "whilep" / "__init__.py").resolve():
        raise ImportError(f"whilep imported from {whilep.__file__}, not {SRC}")
    return whilep


def setup(name: str, seed: int, tiny: bool):
    """Import, build the inputs and warm up; return (W, workload, seconds)."""
    start = time.perf_counter()
    W = load_whilep()
    workload = workloads.WORKLOADS[name](W, seed, tiny)
    # the same warm-up op for every seed, so that set-up time does not
    # depend on which program the seed puts first
    warm = workloads.WORKLOADS[name](W, 0, True).round(0)[0]
    run_op(W, warm, workloads.OP_LIMIT_S[name])
    return W, workload, time.perf_counter() - start


class Record:
    __slots__ = ("label", "start", "seconds", "result", "error", "factor")

    def __init__(self, label, start, seconds, result, error):
        self.label, self.start, self.seconds = label, start, seconds
        self.result, self.error = result, error
        self.factor = 1.0

    @property
    def scaled(self) -> float:
        return self.seconds * self.factor


def run_op(W, op, limit: float) -> Record:
    """Run one op under the time limit; the record's error names a crash,
    a timeout or the output check that failed."""
    result, error = None, None
    start = time.perf_counter()
    try:
        with workloads.time_limit(limit):
            result = op.run(W)
    except workloads.OpTimeout:
        error = "timeout"
    except workloads.CheckFailed as exc:
        error = exc.reason
    except Exception as exc:  # RecursionError, MemoryError, any crash
        error = type(exc).__name__
    return Record(op.label, start, time.perf_counter() - start, result, error)


def run_rounds(W, workload, limit, speed, seconds=None, count=None, tracer=None):
    """Run whole rounds until `seconds` have passed or `count` rounds ran,
    sampling the speed between ops, and give each record the speed factor
    around it.  Returns (records, rounds run)."""
    records = []
    start = time.perf_counter()
    done = 0
    while (time.perf_counter() - start < seconds) if count is None else done < count:
        for op in workload.round(done):
            if tracer is not None:
                tracer.op = len(records)
            records.append(run_op(W, op, limit))
            if tracer is not None:
                tracer.reset_stack()
            speed.between_ops()
        done += 1
    speed.sample(3)
    for r in records:
        r.factor = speed.factor(r.start, r.start + r.seconds)
    return records, done


def percentile(values, q):
    """Linear interpolation between order statistics, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def latencies_ms(name, records):
    """Scaled op latencies; a failed op counts as the limit plus its time."""
    limit_ms = workloads.OP_LIMIT_S[name] * 1000.0
    return [r.scaled * 1000.0 + (limit_ms if r.error else 0.0) for r in records]


def end_to_end(name, records, setup_s):
    lat = latencies_ms(name, records)
    ok = sum(1 for r in records if r.error is None)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(r.scaled for r in records), "op/s"),
        "op_ms.p50": (statistics.median(lat), "ms"),
        "op_ms.tail": (percentile(lat, workloads.TAIL_Q[name]), "ms"),
    }


def path_metrics(records):
    """Optimize/verdict path medians, certificate size and kept share, over
    the ops that ran both paths; zero where a workload runs neither."""
    done = [r for r in records if r.error is None and r.result.optimize_s is not None]
    if not done:
        return {"optimize_ms.p50": (0.0, "ms"), "verdict_ms.p50": (0.0, "ms"),
                "cert_bytes.mean": (0.0, "B"), "kept_ratio": (0.0, "1")}
    leaves = sum(r.result.leaves for r in done)
    return {
        "optimize_ms.p50": (statistics.median(r.result.optimize_s * r.factor for r in done) * 1000.0, "ms"),
        "verdict_ms.p50": (statistics.median(r.result.verdict_s * r.factor for r in done) * 1000.0, "ms"),
        "cert_bytes.mean": (statistics.mean(r.result.cert_bytes for r in done), "B"),
        "kept_ratio": (sum(r.result.kept for r in done) / leaves if leaves else 0.0, "1"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def known_defects(workload, probes):
    """Lines naming each documented defect the run met, and their count:
    screened-out inputs and probes that still fail the baseline's way."""
    lines = [f"  excluded {label}: {defect}" for label, defect in workload.excluded]
    lines += [f"  probe {r.label}: {r.error or 'completes, checks pass'}"
              f" after {r.seconds:.2f} s" for r in probes]
    count = len(workload.excluded) + sum(r.error in workloads.PROBE_DEFECTS for r in probes)
    return [f"known defects met: {count}"] + lines, count


def layer_metrics(tracer, traced, untraced):
    """Per-span calls, self time and errors per op, and the layer counters,
    from the traced pass; raw times."""
    n_ops = len(traced)
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    metrics = {}
    for name in tracing.OP_SPANS:
        metrics[f"{name}.calls"] = (tracer.calls["op"][name] / n_ops, "1/op")
        metrics[f"{name}.self_ms"] = (tracer.self_s["op"][name] * 1000.0 / n_ops, "ms/op")
        metrics[f"{name}.errors"] = (tracer.errors["op"][name] / n_ops, "1/op")
    for name in tracing.SETUP_SPANS:
        metrics[f"setup.{name}.self_ms"] = (tracer.self_s["setup"][name] * 1000.0, "ms")
    c, total = tracer.counters, tracer.total_s["op"]
    ratio = lambda num, den: num / den if den else 0.0
    metrics.update({
        "lang.parse.bytes_per_s": (ratio(c["lang.parse.bytes"], total["lang.parse"]), "B/s"),
        "pointsto.exit_keys": (ratio(c["pointsto.exit_keys"], tracer.calls["op"]["pointsto.annotate"]), "count"),
        "certificate.nodes": (ratio(c["certificate.nodes"], tracer.calls["op"]["certificate.serialize"]), "count"),
        "certificate.serialize.bytes_per_s": (ratio(c["certificate.bytes"], total["certificate.serialize"]), "B/s"),
        "interp.final": (c["interp.Final"] / n_ops, "1/op"),
        "interp.aborted": (c["interp.Aborted"] / n_ops, "1/op"),
        "interp.out_of_fuel": (c["interp.OutOfFuel"] / n_ops, "1/op"),
        "memory.peak_heap_cells": (tracer.peak_heap_cells, "count"),
        "bench.self_ms": ((traced_s - tracer.top_level_s) * 1000.0 / n_ops, "ms/op"),
        "trace.overhead_ms": ((traced_s - untraced_s) * 1000.0 / n_ops, "ms/op"),
    })
    return metrics


def share_table(tracer, traced):
    """Rows of calls, self and inclusive time per op, and the self-time share
    of the traced op time, per layer; the benchmark's own code is the rest."""
    n, traced_s = len(traced), sum(r.seconds for r in traced)
    rows = sorted(((s, name) for name, s in tracer.self_s["op"].items()), reverse=True)
    rows.append((traced_s - tracer.top_level_s, "(benchmark, outside any layer)"))
    lines = [f"  {'layer':32} {'calls/op':>10} {'self ms/op':>11} {'incl ms/op':>11}"
             f" {'share':>7} {'errors':>7}"]
    for seconds, name in rows:
        inclusive = tracer.total_s["op"].get(name, seconds)
        lines.append(f"  {name:32} {tracer.calls['op'][name] / n:10.2f} "
                     f"{seconds * 1000.0 / n:11.3f} {inclusive * 1000.0 / n:11.3f} "
                     f"{100.0 * seconds / traced_s:6.1f}% {tracer.errors['op'][name]:7d}")
    return lines


def is_correct(name, records, probes):
    """No op failed, every output check ran, and each probe either fails
    the documented way or completes with its checks passing."""
    ran = set().union(*(r.result.checks for r in records if r.result is not None))
    wrong = [r for r in records if r.error is not None]
    wrong += [r for r in probes if r.error not in workloads.PROBE_DEFECTS | {None}]
    return not wrong and workloads.CHECKS[name] <= ran, ran


def report(name, args, records, probes, rounds, elapsed, metrics, extra):
    failures = Counter((r.label, r.error) for r in records if r.error is not None)
    correct, ran = is_correct(name, records, probes)
    print(f"workload {name}  seed {args.seed}  python {sys.version.split()[0]}"
          f"  nproc {os.cpu_count()}  trace {args.trace}")
    print(f"rounds {rounds}  ops {len(records)}  failed {sum(failures.values())}"
          f"  measured {elapsed:.2f} s  per-op limit {workloads.OP_LIMIT_S[name]:g} s")
    for (label, error), n in sorted(failures.items()):
        print(f"  failed x{n}: {label}: {error}")
    print(f"checks run: {', '.join(sorted(ran)) or 'none'}")
    for line in extra:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"  {key:42} {value:14.4f} {unit}")
    print(f"correct {correct}")
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "whilep" / "__init__.py").is_file():
        print(f"bench: no whilep package under {SRC}", file=sys.stderr)
        return 2
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, hard))
    sys.path.insert(0, str(SRC))

    name = args.workload
    limit = workloads.OP_LIMIT_S[name]
    # each set-up starts with the previous one's garbage collected and is
    # scaled by the speed measured around it, like an op
    speed = Speed()
    setups, raw_s, min_s = [], 0.0, 0.0 if args.tiny else SETUP_MIN_S
    while len(setups) < SETUP_MAX_REPEATS and (len(setups) < SETUP_REPEATS or raw_s < min_s):
        gc.collect()
        speed.sample(2)
        start = time.perf_counter()
        W, workload, seconds = setup(name, args.seed, args.tiny)
        speed.sample(2)
        setups.append(seconds * speed.factor(start, start + seconds))
        raw_s += seconds
    setup_s = statistics.median(setups)
    # the inputs live for the whole run; keep the collector from rescanning
    # them, as it would not in a process that handles one program
    gc.freeze()
    speed.sample(5)
    if not args.trace:
        records, done = run_rounds(W, workload, limit, speed, seconds=args.seconds)
        metrics = end_to_end(name, records, setup_s)
        q, lat = workloads.TAIL_Q[name], latencies_ms(name, records)
        extra = [f"op_ms.tail is p{q:g}: {sum(1 for v in lat if v > metrics['op_ms.tail'][0])}"
                 f" of {len(lat)} samples lie above it"]
        extra += [f"  {k:42} {v:14.4f} {u}" for k, (v, u) in path_metrics(records).items()]
        extra.append(f"  {'peak_rss_mb':42} {peak_rss_mb():14.4f} MB")
    else:
        untraced, done = run_rounds(W, workload, limit, speed, seconds=args.seconds / 2.0)
        untraced_peak_mb = peak_rss_mb()
        tracer = tracing.Tracer()
        tracer.install({m: sys.modules[m] for m in {t[0] for t in tracing.TARGETS}})
        try:
            again = workloads.WORKLOADS[name](W, args.seed, args.tiny)
            again.prepare(done)
            gc.freeze()
            traced, _ = run_rounds(W, again, limit, speed, count=done, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = path_metrics(untraced)
        metrics["peak_rss_mb"] = (untraced_peak_mb, "MB")
        metrics.update(calibrate(layer_metrics(tracer, traced, untraced), speed.factor()))
        extra = [f"untraced {sum(r.seconds for r in untraced):.3f} s, traced"
                 f" {sum(r.seconds for r in traced):.3f} s over the same {len(traced)} ops"
                 " (raw times)",
                 "self time by layer (traced pass, raw times):"] + share_table(tracer, traced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-{args.seed}.jsonl.gz"
        tracer.dump(spans_path)
        extra.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
                     + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""))
        records = untraced + traced
    probes = [run_op(W, op, limit) for op in workload.probes]
    lines, count = known_defects(workload, probes)
    extra += lines
    if args.trace:
        metrics["known_defects"] = (count, "count")
    factors = [r.factor for r in records]
    extra.append(f"speed factor {speed.factor():.4f} (per op {min(factors):.3f} to"
                 f" {max(factors):.3f}): median reference slice"
                 f" {statistics.median(speed.seconds) * 1000:.4f} ms over {len(speed.seconds)}"
                 f" slices, {REFERENCE_S * 1000:g} ms at reference speed")
    elapsed = sum(r.seconds for r in records)
    correct = report(name, args, records, probes, done, elapsed, metrics, extra)

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.error is not None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
