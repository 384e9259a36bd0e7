import ast
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdual import cli, fixtures
from fairdual.cli import main
from fairdual.model import allocation_to_json, instance_to_json
from fairdual.sweep import SweepConfig, SweepViolation, run_sweep
from strategies import corrupted, json_allocations, json_values


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def doubled_types(tmp_path):
    return write_json(
        tmp_path / "instance.json",
        {
            "agents": 3,
            "types": [
                {"name": "t1", "copies": 2, "values": {"shared": 1}},
                {"name": "t2", "copies": 2, "values": {"shared": 2}},
                {"name": "t3", "copies": 2, "values": {"shared": 3}},
                {"name": "t4", "copies": 2, "values": {"shared": 9}},
            ],
        },
    )


@pytest.fixture
def witness(tmp_path):
    return write_json(
        tmp_path / "witness.json",
        {"bundles": [["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"]]},
    )


def test_check_fair_exits_zero(doubled_types, witness, capsys):
    code = main(
        ["check", "--instance", doubled_types, "--allocation", witness,
         "--notion", "efx_wc"]
    )
    assert code == 0
    assert "fair" in capsys.readouterr().out


def test_check_unfair_exits_one_with_witnesses(doubled_types, witness, capsys):
    code = main(
        ["check", "--instance", doubled_types, "--allocation", witness,
         "--notion", "efx", "--json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["fair"] is False
    assert [w["envious"] for w in payload["witnesses"]] == [2, 2]
    assert [w["envied"] for w in payload["witnesses"]] == [0, 1]


def test_check_json_witnesses_carry_every_field(doubled_types, witness, capsys):
    for notion, items in (("efx", ["t1", "t3"]), ("ef", [None, None])):
        main(["check", "--instance", doubled_types, "--allocation", witness,
              "--notion", notion, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["witnesses"] == [
            {"envious": 2, "envied": 0, "item": items[0]},
            {"envious": 2, "envied": 1, "item": items[1]},
        ]
        assert [list(w) for w in payload["witnesses"]] == [["envious", "envied", "item"]] * 2


def test_check_orientation_mismatch_is_an_error(doubled_types, witness, capsys):
    """The orientation comes from the instance's signs; no flag can ask for another."""
    with pytest.raises(SystemExit) as exc:
        main(
            ["check", "--instance", doubled_types, "--allocation", witness,
             "--notion", "efx", "--orientation", "chores"]
        )
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --orientation chores" in capsys.readouterr().err


def test_exists_refutation(doubled_types, capsys):
    code = main(["exists", "--instance", doubled_types, "--notion", "efx", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is False
    assert payload["checked"] == 81


def test_exists_witness_and_count(doubled_types, capsys):
    code = main(["exists", "--instance", doubled_types, "--notion", "efx_wc"])
    assert code == 0
    out = capsys.readouterr().out
    assert "exists" in out
    code = main(
        ["exists", "--instance", doubled_types, "--notion", "efx_wc",
         "--all", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 6
    assert payload["witness"]["bundles"]


def test_exists_respects_the_budget_flag(doubled_types, capsys):
    code = main(
        ["exists", "--instance", doubled_types, "--notion", "efx", "--budget", "10"]
    )
    assert code == 2
    assert "no fair allocation within budget 10" in capsys.readouterr().err


def test_the_environment_sets_no_budget(doubled_types, monkeypatch, capsys):
    """`--budget` is the only budget setting; a leftover variable changes nothing."""
    monkeypatch.setenv("FAIRDUAL_ENUM_CAP", "10")
    code = main(["exists", "--instance", doubled_types, "--notion", "efx"])
    assert code == 1
    assert "81 of 81 checked" in capsys.readouterr().out


def test_dualize_round_trip(doubled_types, witness, tmp_path, capsys):
    code = main(
        ["dualize", "--instance", doubled_types, "--allocation", witness]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["allocation"]["bundles"][0] == ["t3"]
    assert payload["dropped"] == []
    dual_instance = write_json(tmp_path / "dual.json", payload["instance"])
    dual_allocation = write_json(tmp_path / "dual-alloc.json", payload["allocation"])
    code = main(
        ["check", "--instance", dual_instance, "--allocation", dual_allocation,
         "--notion", "efx"]
    )
    capsys.readouterr()
    assert code == 0


def test_shares_all_agents_json(doubled_types, capsys):
    code = main(
        ["shares", "--instance", doubled_types, "--share", "mms",
         "--all-agents", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["value"] for row in payload["values"]] == [6, 6, 6]
    assert all("bundles" in row["certificate"] for row in payload["values"])


def test_shares_aps_certificate(tmp_path, capsys):
    chores = write_json(
        tmp_path / "chores.json",
        {
            "agents": 4,
            "types": [
                {"name": f"c{k}", "copies": 3, "values": {"shared": -k}}
                for k in range(2, 7)
            ],
        },
    )
    code = main(
        ["shares", "--instance", chores, "--share", "aps", "--agent", "0",
         "--entitlement", "3/4", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["values"][0]
    assert row["value"] == -16
    prices = dict(row["certificate"]["prices"])
    assert set(prices) == {f"c{k}" for k in range(2, 7)}


@pytest.mark.parametrize(
    "flags",
    [
        ["--share", "prop", "--agent", "-1"],
        ["--share", "mms", "--agent", "-2", "--json"],
        ["--share", "prop", "--agent", "3"],
    ],
)
def test_shares_rejects_an_agent_out_of_range(doubled_types, flags, capsys):
    code = main(["shares", "--instance", doubled_types, *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"agent {flags[3]} out of range: the instance has agents 0..2"
    assert captured.err == f"error: {message}\n"


def test_shares_refuses_an_entitlement_past_one(doubled_types, capsys):
    code = main(
        ["shares", "--instance", doubled_types, "--share", "aps", "--agent", "0",
         "--entitlement", "3/2"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entitlement must lie in [0, 1]" in captured.err


def test_shares_needs_agent_or_all(doubled_types, capsys):
    code = main(["shares", "--instance", doubled_types, "--share", "prop"])
    assert code == 2
    assert "agent" in capsys.readouterr().err
    for agent in ("0", "3"):
        code = main(["shares", "--instance", doubled_types, "--share", "prop",
                     "--agent", agent, "--all-agents"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pass --agent N or --all-agents, not both\n"


def test_mnw_reports_welfare(tmp_path, capsys):
    instance = write_json(
        tmp_path / "mnw.json",
        {
            "agents": 3,
            "types": [
                {"name": "a", "copies": 2, "values": ["1", "1", "1/1000000"]},
                {"name": "b", "copies": 1, "values": ["1", "1/1000000", "1/1000000"]},
                {"name": "c", "copies": 1, "values": ["1", "1/1000000", "1/1000000"]},
                {"name": "d", "copies": 1, "values": ["1/1000000", "1/1000000", "1"]},
            ],
        },
    )
    code = main(["mnw", "--instance", instance, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["welfare"] == 3
    assert payload["bundles"] == [["a", "b", "c"], ["a"], ["d"]]


def test_values_past_a_floats_range_render_in_text_and_json(tmp_path, capsys):
    """Text lines are built under --json too, so neither may overflow a float."""
    huge = 10**400
    goods = write_json(
        tmp_path / "goods.json",
        {
            "agents": 2,
            "types": [
                {"name": "a", "copies": 1, "values": {"shared": huge}},
                {"name": "b", "copies": 1, "values": {"shared": 3 * huge}},
            ],
        },
    )
    shares = ["shares", "--share", "prop", "--all-agents", "--instance"]
    assert main([*shares, goods]) == 0
    assert capsys.readouterr().out == "agent 0: prop = ~2e+400\nagent 1: prop = ~2e+400\n"
    assert main([*shares, goods, "--json"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert [v["value"] for v in values] == [2 * huge, 2 * huge]
    assert main(["mnw", "--instance", goods]) == 0
    assert capsys.readouterr().out.startswith("nash welfare: ~3e+800\n")
    assert main(["mnw", "--instance", goods, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["welfare"] == 3 * huge**2
    # A chore past the range keeps its sign and its leading digits.
    chores = write_json(
        tmp_path / "chores.json",
        {"agents": 2, "types": [{"name": "c", "copies": 1, "values": [-3 * huge, -1]}]},
    )
    assert main([*shares, chores]) == 0
    assert capsys.readouterr().out.startswith("agent 0: prop = ~-1.5e+400\n")


def test_results_past_the_digit_limit_round_in_text(tmp_path, capsys):
    """str() refuses integers past sys.get_int_max_str_digits(), so text output
    rounds them without it; --json has no rounding and exits 2."""
    goods = write_json(
        tmp_path / "goods.json",
        {
            "agents": 2,
            "types": [
                {"name": "a", "copies": 1, "values": {"shared": "1e3000"}},
                {"name": "b", "copies": 1, "values": {"shared": "1e3000"}},
            ],
        },
    )
    assert main(["mnw", "--instance", goods]) == 0
    lines = ["nash welfare: ~1e+6000", "  agent 0: ['a']", "  agent 1: ['b']"]
    assert capsys.readouterr().out.splitlines() == lines
    assert main(["mnw", "--instance", goods, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(-12346 * 10**296), "~-1.2346e+300"),
        (Fraction(-1, 3 * 10**120), "~-3.3333e-121"),
        (Fraction(1, 3 * 10**400), "~3.3333e-401"),
        (Fraction(1, 7 * 10**11), "~1.4286e-12"),
        (Fraction(-4, 3), "-4/3"),
        (Fraction(10**6000), "~1e+6000"),
        (Fraction(-1, 10**5000), "~-1e-5000"),
    ],
)
def test_display_keeps_five_digits_and_the_whole_exponent(value, text):
    assert cli._display(value) == text


def test_solve_leveled(tmp_path, capsys):
    instance = write_json(
        tmp_path / "leveled.json",
        {
            "agents": 2,
            "types": [
                {"name": "t1", "copies": 1, "values": {"shared": "21/20"}},
                {"name": "t2", "copies": 1, "values": {"shared": 1}},
                {"name": "t3", "copies": 2, "values": {"shared": "11/10"}},
            ],
        },
    )
    code = main(["solve-leveled", "--instance", instance, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["bundles"]) == 2
    assert isinstance(payload["swaps"], list)


def test_solve_leveled_json_swaps_carry_every_field(tmp_path, capsys):
    instance = write_json(
        tmp_path / "one-swap.json",
        {
            "agents": 2,
            "types": [
                {"name": "a", "copies": 1, "values": {"shared": 1}},
                {"name": "b", "copies": 1, "values": {"shared": 1}},
                {"name": "c", "copies": 1, "values": {"shared": "3/2"}},
            ],
        },
    )
    assert main(["solve-leveled", "--instance", instance, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["bundles", "initial", "initial_potential", "swaps"]
    assert payload["swaps"] == [
        {"envious": 1, "envied": 0, "gained": "c", "lost": "b", "potential": 3}
    ]
    assert list(payload["swaps"][0]) == ["envious", "envied", "gained", "lost", "potential"]


def test_replicate_single_and_unknown(capsys):
    code = main(["replicate", "tps-trio"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1
    code = main(["replicate", "no-such-fixture"])
    assert code == 2
    assert "no-such-fixture" in capsys.readouterr().err


def test_replicate_refuses_a_path_outside_the_corpus(tmp_path, capsys):
    root = fixtures._data_root()
    copy = tmp_path / "copied.json"
    copy.write_text((root / "tps-trio.json").read_text(encoding="utf-8"))
    outside = os.path.relpath(tmp_path / "copied", root)
    assert outside.startswith("..")
    assert main(["replicate", outside]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_replicate_all_prints_one_line_per_fixture(capsys):
    code = main(["replicate", "--all"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 14
    assert all(line.startswith("PASS") for line in lines)


def test_sweep_small(capsys):
    code = main(["sweep", "--count", "15", "--seed", "3", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["instances"] == 15
    assert payload["skipped"] == 0


def test_sweep_text_reports_skipped_instances(capsys):
    code = main(["sweep", "--count", "15", "--seed", "3", "--plan-cap", "5"])
    assert code == 0
    out = capsys.readouterr().out
    skipped = run_sweep(SweepConfig(seed=3, count=15, plan_cap=5)).skipped
    assert skipped > 0
    assert f"{skipped} instances skipped (plan over 5)" in out


def test_sweep_text_lists_each_violation_with_its_reproducer(monkeypatch, capsys):
    report = run_sweep(SweepConfig(seed=3, count=2))
    reproducer = {"agents": 2, "types": []}
    violation = SweepViolation("bound", 1, "ef1_wc ratio 1/2 below 1", reproducer)
    monkeypatch.setattr(cli, "run_sweep", lambda config: replace(report, violations=(violation,)))
    assert main(["sweep", "--count", "2", "--seed", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "VIOLATION (bound) instance 1: ef1_wc ratio 1/2 below 1",
        '  reproducer: {"agents": 2, "types": []}',
        "violations found",
    ]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-value", "-1"], "max_value must be nonnegative"),
        (["--plan-cap", "-1"], "plan_cap must be positive"),
        (["--plan-cap", "0", "--json"], "plan_cap must be positive"),
        (
            ["--max-agents", "1001", "--max-types", "1000"],
            "max_agents * max_types exceeds 1000000 values",
        ),
    ],
)
def test_sweep_refuses_an_empty_value_range_or_plan_cap(flags, message, capsys):
    assert main(["sweep", "--count", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sweep_flag_defaults_are_the_config_defaults():
    args = vars(cli.build_parser().parse_args(["sweep"]))
    names = {f.name for f in fields(SweepConfig)}
    assert set(args) == names | {"command", "func", "json"}
    assert SweepConfig(**{name: args[name] for name in names}) == SweepConfig()


def test_only_main_prints_a_result_and_picks_an_exit_code():
    tree = ast.parse(inspect.getsource(cli))
    commands = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(commands) == 8
    for node in commands:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert not names & {"print", "OK", "FAIL", "ERROR"}, node.name


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"agents": 3,\n  "types": [,]}')
    code = main(["check", "--instance", str(bad), "--allocation", str(bad),
                 "--notion", "ef1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_file_is_an_error(capsys):
    code = main(["exists", "--instance", "/nonexistent.json", "--notion", "ef1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_load_errors_name_the_path_once(tmp_path, witness, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"agents": 3,')
    missing = str(tmp_path / "missing.json")
    for instance, allocation, path in (
        (str(bad), witness, str(bad)),
        (missing, witness, missing),
        (write_json(tmp_path / "ok.json", {"agents": 2, "types": []}), str(bad), str(bad)),
    ):
        code = main(["check", "--instance", instance, "--allocation", allocation,
                     "--notion", "ef1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count(path) == 1


def test_mixed_instance_is_refused_under_any_orientation(tmp_path, capsys):
    mixed = write_json(
        tmp_path / "mixed.json",
        {
            "agents": 2,
            "types": [
                {"name": "g", "copies": 1, "values": {"shared": 1}},
                {"name": "c", "copies": 1, "values": {"shared": -1}},
            ],
        },
    )
    assert main(["exists", "--instance", mixed, "--notion", "ef1"]) == 2
    assert "mixes goods and chores; no criterion applies" in capsys.readouterr().err


def test_usage_error_from_argparse(doubled_types):
    with pytest.raises(SystemExit):
        main(["check", "--instance", doubled_types])


@pytest.mark.parametrize("crash", [AssertionError("re-check failed"), MemoryError()])
def test_unexpected_exception_exits_two(doubled_types, witness, capsys, monkeypatch, crash):
    def handler(args):
        raise crash

    monkeypatch.setattr(cli, "_cmd_check", handler)
    code = main(
        ["check", "--instance", doubled_types, "--allocation", witness,
         "--notion", "efx_wc"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert type(crash).__name__ in err
    assert err.count("\n") == 1


def test_a_crash_while_rendering_exits_two(doubled_types, witness, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_check", lambda args: (True, {"fair": object()}, []))
    code = main(["check", "--instance", doubled_types, "--allocation", witness,
                 "--notion", "efx_wc", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal TypeError: ")
    assert "not JSON serializable" in captured.err


def _encoded(document) -> bytes:
    return json.dumps(document).encode()


@st.composite
def command_files(draw):
    """An instance file and an allocation file for it, one of them replaced by
    arbitrary bytes, arbitrary JSON or its encoding with one value replaced."""
    instance, allocation = draw(json_allocations())
    documents = [instance_to_json(instance), allocation_to_json(allocation, instance)]
    files = [_encoded(document) for document in documents]
    which = draw(st.integers(0, 1))
    files[which] = draw(
        st.binary(max_size=64)
        | json_values.map(_encoded)
        | corrupted(st.just(documents[which])).map(_encoded)
    )
    return files


FUZZED_COMMANDS = (
    ["check", "--notion", "ef1"],
    ["exists", "--notion", "efx_wc", "--budget", "50"],
    ["exists", "--notion", "ef", "--all", "--budget", "50"],
    ["dualize"],
    ["shares", "--share", "mms", "--all-agents", "--budget", "50"],
    ["shares", "--share", "aps", "--agent", "0"],
    ["mnw", "--budget", "50"],
    ["solve-leveled"],
)


@settings(max_examples=100, deadline=None)
@given(command_files())
def test_malformed_files_get_a_verdict_or_a_clean_error(files):
    """No input file crashes a command: exit 0, 1 or a named error with exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        instance, allocation = Path(tmp) / "instance.json", Path(tmp) / "allocation.json"
        instance.write_bytes(files[0])
        allocation.write_bytes(files[1])
        for command in FUZZED_COMMANDS:
            argv = [*command, "--instance", str(instance)]
            if command[0] in ("check", "dualize"):
                argv += ["--allocation", str(allocation)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert code != 2 or out.getvalue() == "", argv
            assert not err.getvalue().startswith("error: internal"), (argv, err.getvalue())


def _fresh_env(**extra):
    """The environment for a fresh interpreter that imports this fairdual."""
    env = dict(os.environ, **extra)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _exit_code_after_cli_import(check):
    """Import fairdual.cli in a fresh interpreter, then exit with `check`."""
    code = f"import sys, fairdual.cli; sys.exit({check})"
    return subprocess.run([sys.executable, "-c", code], env=_fresh_env()).returncode


def test_cli_import_does_not_load_sympy():
    assert _exit_code_after_cli_import("'sympy' in sys.modules") == 0


def _package_modules():
    """(file name, parsed tree) of every module of the fairdual package."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            yield name, ast.parse(handle.read(), filename=name)


def test_package_imports_the_standard_library_only():
    allowed = sys.stdlib_module_names | {"fairdual"}
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in allowed, (name, module)


def test_every_module_level_import_is_used():
    """A name a module imports at its top level must be read somewhere in that module."""
    for name, tree in _package_modules():
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, (name, sorted(imported - used))


def test_imports_sit_at_module_level_and_form_no_cycle():
    """No function body imports, so the module-level graph shows every dependency.

    A deferred import is how a cycle between modules hides; the graph of
    package-relative imports must also peel down to nothing, leaves first.
    """
    graph = {}
    for name, tree in _package_modules():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        name, node.lineno
                    )
        graph[name[: -len(".py")]] = {
            module
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for module in ([node.module] if node.module else [a.name for a in node.names])
        }
    while graph:
        leaves = [m for m, deps in graph.items() if not deps & graph.keys()]
        assert leaves, f"import cycle among {sorted(graph)}"
        for module in leaves:
            del graph[module]


def test_only_the_fairness_scan_and_the_sweep_walk_the_plan():
    """Nash welfare is a program over own totals, not a plan walk: only
    `search._fair_indices` and `sweep.run_sweep` call `_walk`, and
    `max_nash_welfare` does not name it."""
    callers = set()
    for name, tree in _package_modules():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            named = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
            if func.name == "max_nash_welfare":
                assert "_walk" not in named, name
            if any(
                isinstance(node, ast.Call) and ast.unparse(node.func) == "_walk"
                for node in ast.walk(func)
            ):
                callers.add((name, func.name))
    assert callers == {("search.py", "_fair_indices"), ("sweep.py", "run_sweep")}


def test_no_module_imports_os_or_reads_the_environment():
    """Options come from arguments only, so nothing outside the command line changes a verdict."""
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "os" not in {a.name.split(".")[0] for a in node.names}, name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "os", name
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ("environ", "getenv", "environb"), name
            elif isinstance(node, ast.Name):
                assert node.id not in ("environ", "getenv", "environb"), name


def test_cli_import_does_not_load_multiprocessing():
    check = (
        "'concurrent.futures.process' in sys.modules "
        "or 'multiprocessing' in sys.modules"
    )
    assert _exit_code_after_cli_import(check) == 0


def test_replicate_all_json_does_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-m", "fairdual.cli", "replicate", "--all", "--json"],
            env=_fresh_env(PYTHONHASHSEED=seed),
            capture_output=True,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
