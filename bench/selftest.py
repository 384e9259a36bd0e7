"""Self-test of the benchmark itself.

Usage, from the repository root:  python3 bench/selftest.py

Checks, for every workload, that one seed gives byte-identical generated
inputs and the same answer digest on two runs (and on a traced run), that
another seed gives other inputs, that every metric BENCHMARK.json names is
printed with its unit (traced-only metrics may be marked absent), and that
BENCHMARK.json and run.py define the same metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import gen
import run

SEED = 7
SECONDS = "2"


def bench(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[len("record "):])
    return record, json.loads(lines[-1])


def check_metrics(result: dict, definitions: list, label: str) -> None:
    assert result["correct"] is True, f"{label}: wrong answers"
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in definitions}, f"{label}: metric names differ"
    for m in definitions:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], f"{label}: {m['name']} unit {entry['unit']}"
        if entry["value"] is None:
            assert entry.get("absent") is True, f"{label}: {m['name']} has no value"
        else:
            assert isinstance(entry["value"], (int, float)), f"{label}: {m['name']}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    def rows(metrics):
        return [(m["name"], m["unit"], m["better"]) for m in metrics]

    assert rows(spec["end_to_end"]) == list(run.END_TO_END), "end_to_end differs from run.py"
    assert rows(spec["per_layer"]) == list(run.PER_LAYER), "per_layer differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)

    for workload in gen.WORKLOADS:
        first = gen.dumps(gen.generate(workload, SEED))
        assert first == gen.dumps(gen.generate(workload, SEED)), f"{workload}: inputs differ"
        assert first != gen.dumps(gen.generate(workload, SEED + 1)), f"{workload}: seed ignored"

        record_a, result_a = bench(workload, 0)
        record_b, result_b = bench(workload, 0)
        written = Path(run.OUT / f"inputs-{workload}-seed{SEED}.json").read_bytes()
        assert written == first, f"{workload}: the run used other inputs than the generator gives"
        assert record_a["answer_digest"] == record_b["answer_digest"], f"{workload}: digest differs"
        check_metrics(result_a, spec["end_to_end"], f"{workload} trace=0")

        record_t, result_t = bench(workload, 1)
        assert record_t["answer_digest"] == record_a["answer_digest"], f"{workload}: traced digest differs"
        check_metrics(result_t, spec["per_layer"], f"{workload} trace=1")
        print(f"{workload}: ok (digest {record_a['answer_digest'][:16]})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
