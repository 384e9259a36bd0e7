"""Byte-for-byte transcript of the command line.

Runs every subcommand, in text and `--json` form, on small instance files
and on bundled fixtures, error paths included, and compares exit code,
stdout and stderr with `tests/cli_transcript.txt`. The temporary
directory appears there as `<tmp>`. To regenerate the transcript after a
deliberate output change:

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/cli_transcript.txt
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from fairdual.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")

FILES = {
    "goods.json": {
        "agents": 3,
        "types": [
            {"name": "t1", "copies": 2, "values": {"shared": 1}},
            {"name": "t2", "copies": 2, "values": {"shared": 2}},
            {"name": "t3", "copies": 2, "values": {"shared": 3}},
            {"name": "t4", "copies": 2, "values": {"shared": 9}},
        ],
    },
    "witness.json": {"bundles": [["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"]]},
    "chores.json": {
        "agents": 3,
        "types": [
            {"name": "c1", "copies": 2, "values": [-1, -2, -3]},
            {"name": "c2", "copies": 1, "values": {"shared": "-3/2"}},
            {"name": "c3", "copies": 2, "values": [-4, -1, -2]},
        ],
    },
    "chores-alloc.json": {"bundles": [["c1", "c2"], ["c1", "c3"], ["c3"]]},
    "full.json": {
        "agents": 2,
        "types": [
            {"name": "a", "copies": 2, "values": [1, 2]},
            {"name": "b", "copies": 1, "values": [3, 1]},
            {"name": "z", "copies": 0, "values": [5, 5]},
        ],
    },
    "full-alloc.json": {"bundles": [["a", "b"], ["a"]]},
    "mixed.json": {
        "agents": 2,
        "types": [
            {"name": "g", "copies": 1, "values": {"shared": 1}},
            {"name": "c", "copies": 1, "values": {"shared": -1}},
        ],
    },
    "leveled.json": {
        "agents": 2,
        "types": [
            {"name": "a", "copies": 1, "values": {"shared": 1}},
            {"name": "b", "copies": 1, "values": {"shared": 1}},
            {"name": "c", "copies": 1, "values": {"shared": "3/2"}},
        ],
    },
    "tiny-values.json": {
        "agents": 3,
        "types": [
            {"name": "a", "copies": 2, "values": ["1", "1", "1/1000000"]},
            {"name": "b", "copies": 1, "values": ["1", "1/1000000", "1/1000000"]},
            {"name": "c", "copies": 1, "values": ["1", "1/1000000", "1/1000000"]},
            {"name": "d", "copies": 1, "values": ["1/1000000", "1/1000000", "1"]},
        ],
    },
    "not-an-object.json": [1, 2],
    "bad-alloc.json": {"bundles": [["t1"], ["t9"], []]},
}
RAW_FILES = {"malformed.json": '{"agents": 3,\n  "types": [,]}'}

G, W = "<tmp>/goods.json", "<tmp>/witness.json"
C, CA = "<tmp>/chores.json", "<tmp>/chores-alloc.json"
F, FA = "<tmp>/full.json", "<tmp>/full-alloc.json"
MIX, LEV = "<tmp>/mixed.json", "<tmp>/leveled.json"
TINY, BAD = "<tmp>/tiny-values.json", "<tmp>/malformed.json"

CASES = [
    ["--help"],
    *([command, "--help"] for command in (
        "check", "exists", "dualize", "shares", "mnw", "solve-leveled", "replicate", "sweep")),
    # check
    ["check", "--instance", G, "--allocation", W, "--notion", "efx_wc"],
    ["check", "--instance", G, "--allocation", W, "--notion", "efx_wc", "--json"],
    ["check", "--instance", G, "--allocation", W, "--notion", "efx"],
    ["check", "--instance", G, "--allocation", W, "--notion", "efx", "--json"],
    ["check", "--instance", G, "--allocation", W, "--notion", "ef", "--orientation", "goods"],
    ["check", "--instance", C, "--allocation", CA, "--notion", "ef1"],
    ["check", "--instance", C, "--allocation", CA, "--notion", "efx_wc", "--json"],
    ["check", "--instance", G, "--allocation", W, "--notion", "efx", "--orientation", "chores"],
    ["check", "--instance", G, "--allocation", W, "--notion", "nope"],
    ["check", "--instance", G, "--allocation", "<tmp>/bad-alloc.json", "--notion", "ef"],
    ["check", "--instance", F, "--allocation", FA, "--notion", "ef1"],
    # exists
    ["exists", "--instance", G, "--notion", "efx"],
    ["exists", "--instance", G, "--notion", "efx", "--json"],
    ["exists", "--instance", G, "--notion", "efx_wc", "--jobs", "1"],
    ["exists", "--instance", G, "--notion", "efx_wc", "--json"],
    ["exists", "--instance", G, "--notion", "efx_wc", "--all"],
    ["exists", "--instance", G, "--notion", "efx_wc", "--all", "--json"],
    ["exists", "--instance", G, "--notion", "ef", "--all"],
    ["exists", "--instance", G, "--notion", "ef", "--all", "--json"],
    ["exists", "--instance", C, "--notion", "ef1", "--orientation", "chores"],
    ["exists", "--instance", C, "--notion", "efx", "--json"],
    ["exists", "--instance", G, "--notion", "efx", "--budget", "10"],
    ["exists", "--instance", G, "--notion", "efx", "--budget", "81"],
    ["exists", "--instance", G, "--notion", "efx_wc", "--all", "--budget", "5"],
    ["exists", "--instance", MIX, "--notion", "ef1"],
    ["exists", "--instance", MIX, "--notion", "ef1", "--orientation", "goods"],
    ["exists", "--instance", "<tmp>/missing.json", "--notion", "ef1"],
    ["exists", "--instance", BAD, "--notion", "ef1"],
    ["exists", "--instance", "<tmp>/not-an-object.json", "--notion", "ef1"],
    # dualize
    ["dualize", "--instance", G],
    ["dualize", "--instance", G, "--allocation", W, "--json"],
    ["dualize", "--instance", F, "--allocation", FA],
    ["dualize", "--instance", C, "--allocation", CA],
    ["dualize", "--instance", G, "--allocation", BAD],
    # shares
    ["shares", "--instance", G, "--share", "prop", "--agent", "0"],
    ["shares", "--instance", G, "--share", "mms", "--all-agents"],
    ["shares", "--instance", G, "--share", "mms", "--all-agents", "--json"],
    ["shares", "--instance", G, "--share", "tps", "--agent", "2", "--json"],
    ["shares", "--instance", G, "--share", "aps", "--agent", "1", "--entitlement", "1/3"],
    ["shares", "--instance", G, "--share", "aps", "--all-agents", "--json"],
    ["shares", "--instance", C, "--share", "prop", "--all-agents", "--json"],
    ["shares", "--instance", C, "--share", "mms", "--agent", "1"],
    ["shares", "--instance", C, "--share", "aps", "--agent", "0", "--entitlement", "1/2",
     "--json"],
    ["shares", "--instance", TINY, "--share", "prop", "--all-agents"],
    ["shares", "--instance", G, "--share", "prop"],
    ["shares", "--instance", G, "--share", "prop", "--agent", "3"],
    ["shares", "--instance", G, "--share", "mms", "--agent", "-1", "--json"],
    ["shares", "--instance", G, "--share", "mms", "--agent", "0", "--budget", "1"],
    ["shares", "--instance", G, "--share", "aps", "--agent", "0", "--entitlement", "x"],
    # mnw
    ["mnw", "--instance", G],
    ["mnw", "--instance", G, "--json"],
    ["mnw", "--instance", TINY],
    ["mnw", "--instance", TINY, "--json"],
    ["mnw", "--instance", G, "--budget", "5"],
    ["mnw", "--instance", C],
    # solve-leveled
    ["solve-leveled", "--instance", LEV],
    ["solve-leveled", "--instance", LEV, "--json"],
    ["solve-leveled", "--instance", G],
    ["solve-leveled", "--instance", TINY],
    ["solve-leveled", "--instance", F, "--json"],
    # replicate
    ["replicate", "tps-trio"],
    ["replicate", "tps-trio", "cycle-cancel", "--json"],
    ["replicate", "--all"],
    ["replicate", "--all", "--json"],
    ["replicate", "no-efx-four-types", "--budget", "1"],
    ["replicate", "no-such-fixture"],
    ["replicate"],
    # sweep
    ["sweep", "--count", "15", "--seed", "3"],
    ["sweep", "--count", "15", "--seed", "3", "--json"],
    ["sweep", "--count", "15", "--seed", "3", "--plan-cap", "5"],
    ["sweep", "--count", "4", "--seed", "2", "--max-agents", "2", "--max-types", "2",
     "--max-value", "3", "--json"],
    ["sweep", "--count", "-1"],
    ["sweep", "--max-agents", "1"],
    ["sweep", "--max-types", "0", "--json"],
    # argparse usage errors
    ["check", "--instance", G],
    ["shares", "--instance", G, "--share", "nope"],
    ["sweep", "--seed", "x"],
    ["frobnicate"],
]


@contextlib.contextmanager
def _fixed_width():
    """argparse wraps usage and help to the terminal width; pin it."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "100"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _block(label, text):
    lines = [f"{label}:"] + [f"| {line}" for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append("(no newline at end)")
    return lines


def transcript(tmp: Path) -> str:
    """Run every case with its files in `tmp`; `tmp` reads `<tmp>` in the result."""
    for name, payload in FILES.items():
        (tmp / name).write_text(json.dumps(payload), encoding="utf-8")
    for name, text in RAW_FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    lines = []
    with _fixed_width():
        for case in CASES:
            code, out, err = _run([arg.replace("<tmp>", str(tmp)) for arg in case])
            lines.append("$ fairdual " + " ".join(case))
            lines.append(f"exit {code}")
            for label, text in (("stdout", out), ("stderr", err)):
                lines += _block(label, text.replace(str(tmp), "<tmp>"))
            lines.append("")
    return "\n".join(lines)


def test_cli_transcript_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv("FAIRDUAL_ENUM_CAP", raising=False)
    assert transcript(tmp_path) == TRANSCRIPT.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("FAIRDUAL_ENUM_CAP", None)
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(transcript(Path(tmp)))
