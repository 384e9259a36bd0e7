"""fairdual benchmark: closed-loop workloads, answer checks, per-layer tracing.

Usage, from the repository root:

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Workloads (see `gen.py` for their inputs and `workloads.py` for their
operations): `exhaustive`, `shares`, `leveled`. The seed fixes a set of
operations. One caller issues the next operation only after the previous one
returns, in one process: a first pass runs every operation once and decides
what was attempted, what failed and every answer; further passes repeat the
set until `--seconds` have passed. Each operation runs under its workload's
wall-time limit.

On a shared host the same code can run up to about 1.7 times slower while a
neighbour is busy, in stretches from milliseconds to minutes. So a fixed
piece of Fraction arithmetic (the pace probe) is timed after every
operation, and each latency sample is scaled by the nominal probe time over
the probe times around it. The run record also gives the uncorrected
figures.

With `--trace 0` the last line of standard output is a JSON object whose
`metrics` are the end-to-end metrics. With `--trace 1` every second pass is
traced, with spans around every layer call; `metrics` are the per-layer
metrics of the first traced pass (uncorrected times), and its spans are
written to `.bench_out/`. Every answer is checked; a wrong answer sets
`correct` to false and the exit code to 1. An operation that raises or reaches its time
limit is a failure, not a wrong answer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gen
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters per run for set-up time; the median is reported.
SETUP_REPS = 5
# The pace probe: Fraction terms summed, timed after every operation.
PROBE_TERMS = 60
# The probe's time on a 2-vCPU KVM guest (Xeon, 4th generation) with no busy
# neighbour; latencies are reported at this pace.
NOMINAL_PROBE_S = 0.00012
# Probes on either side of a sample that give the pace it is corrected by.
PACE_WINDOW = 8

LAYERS = (
    "search.exists_fair",
    "search.count_fair",
    "search.max_nash_welfare",
    "search.check_chores_characterization",
    "criteria.is_fair",
    "shares.mms_share",
    "shares.aps_share",
    "leveled.solve_leveled_efxwc",
    "duality.dualize",
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("certified_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("certified_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("model.instance_from_json.s", "s", "lower"),
    *(
        metric
        for layer in LAYERS
        for metric in (
            (layer + ".s", "s", "lower"),
            (layer + ".calls", "count", "higher"),
            (layer + ".self_s", "s", "lower"),
        )
    ),
    ("search.allocs", "count", "higher"),
    ("search.allocs_per_s", "1/s", "higher"),
    ("search.refutations", "count", "higher"),
    ("criteria.pairs", "count", "higher"),
    ("criteria.criterion_eval.calls", "count", "higher"),
    ("criteria.criterion_eval.s", "s", "lower"),
    ("criteria.evals_per_alloc", "ratio", "lower"),
    ("criteria.evals_per_s", "1/s", "higher"),
    ("shares.mms_share.plan_allocs", "count", "higher"),
    ("shares.aps_share.failed", "count", "lower"),
    ("exactlp.maximize.calls", "count", "higher"),
    ("exactlp.maximize.s", "s", "lower"),
    ("exactlp.maximize.failed", "count", "lower"),
    ("exactlp.maximize.ms_per_call", "ms", "lower"),
    ("leveled.swaps", "count", "higher"),
    ("leveled.swaps_per_s", "1/s", "higher"),
    ("leveled.require_leveled.calls", "count", "higher"),
    ("leveled.require_leveled.s", "s", "lower"),
    ("trace.untraced_certified_per_s", "1/s", "higher"),
    ("trace.traced_certified_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Metrics that exist only while a shim's target name exists.
SHIM_METRICS = {
    "exactlp.maximize": ("exactlp.maximize.", "shares.aps_share.self_s"),
    "criteria.criterion_eval": (
        "criteria.criterion_eval.", "criteria.evals_per_alloc", "criteria.evals_per_s",
    ),
    "leveled.require_leveled": ("leveled.require_leveled.",),
}

NOTES = {
    "shares.mms_share.plan_allocs": "upper bound: the PROP exit can stop a plan early",
    "search.allocs": "exact: sum of checked, plus plan totals of count_fair and mnw",
    "criteria.criterion_eval.calls": "calls made from fairdual.search only",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "fairdual" / "model.py").is_file():
        fail(f"no fairdual sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairdual.model

    if not str(Path(fairdual.model.__file__).resolve()).startswith(str(SRC) + os.sep):
        fail(f"fairdual imported from {fairdual.model.__file__}, not from {SRC}")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def sympy_record() -> dict:
    if importlib.util.find_spec("sympy") is None:
        return {"importable": False, "version": None}
    return {"importable": True, "version": importlib.metadata.version("sympy")}


def measure_setup(inputs_path: Path) -> dict:
    """Median set-up times over SETUP_REPS fresh interpreters, at the nominal pace.

    Set-up is the import of `fairdual.cli` plus the decoding and parsing of
    the inputs. Each interpreter's times are scaled by NOMINAL_PROBE_S over
    the mean of the pace probes it ran between its steps; `setup_raw_s` is
    the median of the unscaled set-up times.
    """
    reps = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(inputs_path)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        times = json.loads(proc.stdout.splitlines()[-1])
        scale = NOMINAL_PROBE_S / times.pop("probe_s")
        raw = sum(times.values())
        reps.append({"setup_raw_s": raw, "setup_s": raw * scale,
                     **{key: value * scale for key, value in times.items()}})
    return {key: statistics.median(rep[key] for rep in reps) for key in reps[0]}


class Record:
    __slots__ = ("index", "op", "seconds", "error", "answer")

    def __init__(self, index, op, seconds, error, answer):
        self.index, self.op, self.seconds = index, op, seconds
        self.error, self.answer = error, answer

    @property
    def timed_out(self) -> bool:
        return self.error is not None and self.error.startswith(OperationTimeout.__name__)


class OperationTimeout(BaseException):
    """Raised inside an operation that reaches its workload's time limit.

    A BaseException, so that no `except Exception` on the way up swallows it.
    """


class Ledger:
    """Answers by operation, shared by every pass of one run.

    The first result of each operation is kept for the answer checks; a
    repeat keeps only its canonical answer, which must equal the first, so
    memory does not grow with the number of passes. Time-outs are neither
    kept nor compared: whether an operation reaches the limit can depend on
    load.
    """

    def __init__(self, workload):
        self.workload = workload
        self.results = {}
        self.answers = {}
        self.changed = set()

    def add(self, index, op, seconds, result, error) -> Record:
        if error is None:
            answer = self.workload.canonical(op, result)
        else:
            answer = ["failed", error.split(":")[0]]
        record = Record(index, op, seconds, error, answer)
        if record.timed_out:
            return record
        if op not in self.answers:
            self.answers[op] = answer
            if error is None:
                self.results[op] = result
        elif not record.timed_out and self.answers[op] != answer:
            self.changed.add(op)
        return record

    def check(self) -> dict:
        """Map op -> failed-check messages."""
        errors = self.workload.check(self.results)
        for op in self.changed:
            errors.setdefault(op, []).append("answer changed between repeats of the operation")
        return errors


class Attempt:
    """Runs one operation under a wall-time limit and records how it ended."""

    def __init__(self, workload, api, ledger, tracer=None):
        self.workload, self.api, self.ledger, self.tracer = workload, api, ledger, tracer
        self.armed = False

    def _expire(self, signum, frame):
        if self.armed:
            raise OperationTimeout(f"no answer within {self.workload.op_limit_s} s")

    def __call__(self, index: int, op) -> Record:
        if self.tracer is not None:
            self.tracer.op = index
        signal.signal(signal.SIGALRM, self._expire)
        begin = perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.workload.op_limit_s)
        try:
            if self.tracer is None:
                result = self.workload.run(self.api, op)
            else:
                result = self.tracer.call("op." + op[0], self.workload.run, self.api, op)
            error = None
        except (Exception, OperationTimeout) as exc:  # every raised operation is a counted failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - begin
        return self.ledger.add(index, op, seconds, result, error)


def _probe_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return total


def pace_probe() -> float:
    """Seconds the fixed probe work takes now, warm and without garbage collection.

    The work runs twice and the second run is timed, so that the caches an
    operation evicted do not count; collection is off, so that garbage an
    operation left is collected on the operation's own time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_work()
        begin = perf_counter()
        _probe_work()
        return perf_counter() - begin
    finally:
        if enabled:
            gc.enable()


class Pass:
    """One pass over the operation set: (operation index, seconds, probe seconds) per operation."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.samples = []


def run_passes(workload, make_api, ledger, seconds: float, tracers=None):
    """Closed loop over the operation set in passes, for `seconds`.

    Pass 0 runs every operation once and fixes the run's outcome: which
    operations were attempted, which failed, and their answers. An operation
    that reaches its time limit there gets one more try before it counts as a
    failure. Later passes repeat every operation that did not time out in
    pass 0, in the same order, until `seconds` have passed since the start,
    and may stop part-way. The pace probe runs after every operation of every
    pass.

    With `tracers` (a factory of fresh Tracers) the odd passes are traced:
    each gets its own Tracer with spans around every layer call and the
    inner-layer shims installed. Pass 1 then always completes, so the first
    tracer covers one whole pass. Returns the pass-0 records, the passes and
    the tracers.
    """
    start = perf_counter()
    plain = Attempt(workload, make_api(), ledger)
    first, passes, traced = [], [Pass(False)], []
    for index, op in enumerate(workload.ops):
        record = plain(index, op)
        if record.timed_out:
            record = plain(index, op)
        first.append(record)
        passes[0].samples.append((index, record.seconds, pace_probe()))
    repeat = [index for index, record in enumerate(first) if not record.timed_out]
    whole = 2 if tracers is not None else 1
    while repeat and (len(passes) < whole or perf_counter() - start < seconds):
        tracer = tracers() if tracers is not None and len(passes) % 2 else None
        if tracer is None:
            attempt, shims = plain, contextlib.nullcontext()
        else:
            attempt, shims = Attempt(workload, make_api(tracer), ledger, tracer), tracer.shims()
            traced.append(tracer)
        current = Pass(tracer is not None)
        passes.append(current)
        with shims:
            for index in repeat:
                if len(passes) > whole and perf_counter() - start >= seconds:
                    break
                record = attempt(index, workload.ops[index])
                current.samples.append((index, record.seconds, pace_probe()))
    return first, passes, traced


def latencies(first: list, passes: list, traced: bool = False, corrected: bool = True) -> list:
    """Each operation's latency in seconds: the median of its samples.

    A corrected sample is scaled to the nominal pace: multiplied by
    NOMINAL_PROBE_S over the mean of the PACE_WINDOW probes on either side of
    it in its pass. Traced samples and untraced ones are kept apart; an
    operation that timed out in pass 0 keeps that time.
    """
    by_op = [[] for _ in first]
    for p in passes:
        if p.traced != traced:
            continue
        probes = [probe for _, _, probe in p.samples]
        for j, (index, seconds, _) in enumerate(p.samples):
            if corrected:
                window = probes[max(0, j - PACE_WINDOW):j + PACE_WINDOW + 1]
                seconds *= NOMINAL_PROBE_S * len(window) / sum(window)
            by_op[index].append(seconds)
    return [
        statistics.median(s) if s and not record.timed_out else record.seconds
        for record, s in zip(first, by_op)
    ]


def pace_record(records, passes, errors, setup) -> dict:
    """The probe's pace over the run, and the latency metrics without correction."""
    probes = [probe for p in passes for _, _, probe in p.samples]
    raw = end_to_end_metrics(records, latencies(records, passes, corrected=False), errors, {"setup_s": None})
    return {
        "fastest_probe_ms": 1000 * min(probes),
        "median_probe_ms": 1000 * statistics.median(probes),
        "mean_probe_ms": 1000 * statistics.fmean(probes),
        "uncorrected": {key: raw[key] for key in ("certified_per_s", "op_p50_ms", "op_p90_ms")},
        "setup_raw_s": setup["setup_raw_s"],
    }


def answer_digest(records: list) -> str:
    """Hash over the canonical answers (or failures) of every operation."""
    answers = [[list(record.op), record.answer] for record in records]
    encoded = json.dumps(answers, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()


def certified(records: list, errors: dict) -> int:
    return sum(r.error is None and r.op not in errors for r in records)


def end_to_end_metrics(records, seconds, errors, setup) -> dict:
    latencies_ms = [s * 1000 for s in seconds]
    p90 = (
        statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
        if len(latencies_ms) > 1 else latencies_ms[0]
    )
    return {
        "setup_s": setup["setup_s"],
        "certified_per_s": certified(records, errors) / sum(seconds),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": p90,
        "certified_ratio": certified(records, errors) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(workload, tracer, records, rates, setup) -> dict:
    totals = tracer.totals()

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    values = {
        "setup.import_s": setup["import_s"],
        "model.instance_from_json.s": setup["instance_from_json_s"],
    }
    for layer in LAYERS:
        for key in ("s", "calls", "self_s"):
            values[f"{layer}.{key}"] = total(layer, key)
    counts = workload.counts([(r.op, r.answer) for r in records if r.error is None])
    allocs = {key: counts.get("allocs_" + key, 0) for key in ("exists", "count", "mnw")}
    search_s = sum(total(f"search.{fn}", "s") for fn in ("exists_fair", "count_fair", "max_nash_welfare"))
    evals_by_parent = tracer.calls_by_parent_name("criteria.criterion_eval")
    evals_in_sweeps = evals_by_parent["search.exists_fair"] + evals_by_parent["search.count_fair"]
    values.update({
        "search.allocs": sum(allocs.values()),
        "search.allocs_per_s": ratio(sum(allocs.values()), search_s),
        "search.refutations": counts.get("refutations", 0),
        "criteria.pairs": counts.get("is_fair_pairs", 0),
        "criteria.criterion_eval.calls": total("criteria.criterion_eval", "calls"),
        "criteria.criterion_eval.s": total("criteria.criterion_eval", "s"),
        "criteria.evals_per_alloc": ratio(evals_in_sweeps, allocs["exists"] + allocs["count"]),
        "criteria.evals_per_s": ratio(
            total("criteria.criterion_eval", "calls"), total("criteria.criterion_eval", "s")
        ),
        "shares.mms_share.plan_allocs": counts.get("mms_plan_allocs", 0),
        "shares.aps_share.failed": total("shares.aps_share", "failed"),
        "exactlp.maximize.calls": total("exactlp.maximize", "calls"),
        "exactlp.maximize.s": total("exactlp.maximize", "s"),
        "exactlp.maximize.failed": total("exactlp.maximize", "failed"),
        "exactlp.maximize.ms_per_call": 1000 * ratio(
            total("exactlp.maximize", "s"), total("exactlp.maximize", "calls")
        ),
        "leveled.swaps": counts.get("swaps", 0),
        "leveled.swaps_per_s": ratio(counts.get("swaps", 0), total("leveled.solve_leveled_efxwc", "s")),
        "leveled.require_leveled.calls": total("leveled.require_leveled", "calls"),
        "leveled.require_leveled.s": total("leveled.require_leveled", "s"),
        "trace.untraced_certified_per_s": rates[0],
        "trace.traced_certified_per_s": rates[1],
        "trace.overhead_ratio": 1 - ratio(rates[1], rates[0]),
    })
    for shim in tracer.absent:
        for name in values:
            if name.startswith(SHIM_METRICS[shim]):
                values[name] = None
    return values


def report(definitions, values) -> dict:
    metrics = {}
    for name, unit, _ in definitions:
        value = values[name]
        note = NOTES.get(name, "")
        if value is None:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
            print(f"  {name:<44} {'absent':>16} {unit}")
        else:
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<44} {value:>16.6f} {unit}" + (f"  ({note})" if note else ""))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_library()
    from workloads import WORKLOADS, make_api

    document = gen.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    inputs_path = OUT / f"inputs-{args.workload}-seed{args.seed}.json"
    inputs_path.write_bytes(gen.dumps(document))
    setup = measure_setup(inputs_path)

    workload = WORKLOADS[args.workload](document)
    ledger = Ledger(workload)
    records, passes, tracers = run_passes(
        workload, make_api, ledger, args.seconds, Tracer if args.trace else None
    )
    errors = ledger.check()

    failed = [r for r in records if r.error is not None]
    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "generator_version": gen.GENERATOR_VERSION,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "sympy": sympy_record(),
        "ops_by_kind": Counter(r.op[0] for r in records),
        "failures_by_error": Counter(r.error.split(":")[0] for r in failed),
        "failed_ratio": len(failed) / len(records),
        "passes": len(passes),
        "pace": pace_record(records, passes, errors, setup),
        "answer_digest": answer_digest(records),
    }
    print("record " + json.dumps(run_record, sort_keys=True))
    for op, messages in sorted(errors.items(), key=str):
        print(f"WRONG ANSWER {op}: {'; '.join(messages)}")

    if args.trace:
        # Both rates over the operations the traced passes ran.
        repeated = [i for i, record in enumerate(records) if not record.timed_out]
        ok = certified([records[i] for i in repeated], errors)
        rates = [
            ok / sum(seconds[i] for i in repeated)
            for seconds in (latencies(records, passes), latencies(records, passes, traced=True))
        ]
        values = per_layer_metrics(workload, tracers[0], records, rates, setup)
        tracers[0].write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = report(PER_LAYER, values)
    else:
        metrics = report(END_TO_END, end_to_end_metrics(records, latencies(records, passes), errors, setup))
        print(f"  {'failed_ratio':<44} {run_record['failed_ratio']:>16.6f} ratio  (operations that raised)")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
