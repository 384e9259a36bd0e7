"""Set-up cost as a command-line user pays it, measured in a fresh interpreter.

Usage: python3 bench/setup_probe.py <repo root> <inputs.json>

Imports `fairdual.cli` (the full import graph) from <repo root>/src, then
decodes the generated inputs and parses every instance through
`instance_from_json`, timing each step. Between the steps it times the
benchmark's pace probe, so that the caller can scale the set-up time to the
nominal pace as it does latencies. Prints one JSON object with the three
times and the mean probe time.
"""

import json
import os
import sys
import time

# Pace probes timed after the import, after every PARSE_CHUNK instances
# parsed (their time is left out of the parse time) and after the parse.
PROBES = 10
PARSE_CHUNK = 64


def main() -> None:
    start = time.perf_counter()
    root, inputs_path = sys.argv[1], sys.argv[2]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fairdual.cli
    from fairdual.model import instance_from_json

    imported = time.perf_counter()
    if not fairdual.cli.__file__.startswith(src + os.sep):
        sys.exit(f"fairdual imported from {fairdual.cli.__file__}, not from {src}")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from run import pace_probe

    probes = [pace_probe() for _ in range(PROBES)]
    begin = time.perf_counter()
    with open(inputs_path) as fh:
        entries = json.load(fh)["instances"]
    decode_s = time.perf_counter() - begin
    parse_s = 0.0
    for first in range(0, len(entries), PARSE_CHUNK):
        begin = time.perf_counter()
        for entry in entries[first:first + PARSE_CHUNK]:
            instance_from_json(entry["instance"])
        parse_s += time.perf_counter() - begin
        probes.append(pace_probe())
    probes += [pace_probe() for _ in range(PROBES)]
    print(json.dumps({
        "import_s": imported - start,
        "decode_s": decode_s,
        "instance_from_json_s": parse_s,
        "probe_s": sum(probes) / len(probes),
    }))


if __name__ == "__main__":
    main()
