"""Command line frontend.

Every subcommand is a pure adapter over one library entry point: it loads
files, forwards flags and returns `(passed, payload, lines)`. Only `main`
prints, the text lines or, under `--json`, the payload as one JSON document
carrying exact rationals, and only `main` maps the verdict to an exit code.
Codes are a contract: 0 for fair / exists / all pass, 1 for unfair / not
exists / any fail, 2 for usage and budget errors and for any unexpected
exception, rendering included.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from dataclasses import asdict, fields
from fractions import Fraction

from . import fixtures as fixture_corpus
from .criteria import criterion_for, is_fair
from .duality import dualize
from .leveled import solve_leveled_efxwc
from .model import (
    Allocation,
    FairdualError,
    Instance,
    allocation_from_json,
    allocation_to_json,
    format_rational,
    instance_from_json,
    instance_to_json,
    parse_rational,
)
from .search import DEFAULT_ENUM_CAP, count_fair, exists_fair, max_nash_welfare
from .shares import SHARE_KINDS, PriceVector, share_value
from .sweep import SweepConfig, run_sweep

OK, FAIL, ERROR = 0, 1, 2

# Human tables keep rationals short; exact values always travel in --json.
DISPLAY_WIDTH = 12


def _display(value: Fraction) -> str:
    # Size first: str() refuses integers past sys.get_int_max_str_digits().
    limit = 10**DISPLAY_WIDTH
    if abs(value.numerator) < limit and value.denominator < limit:
        text = str(format_rational(value))
        if len(text) <= DISPLAY_WIDTH:
            return text
    # Five digits rounded exactly at any exponent, in a float's style where one holds it.
    exact = decimal.Context(prec=5, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    rounded = exact.divide(value.numerator, value.denominator)
    if abs(rounded.adjusted()) < 300:
        return f"~{float(rounded):.5g}"
    return f"~{exact.normalize(rounded):g}"


def _load(path: str, parse, **kw):
    """Parse the JSON file at `path`; every error names the path once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return parse(data, **kw)
    except OSError as exc:
        raise FairdualError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise FairdualError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise FairdualError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise FairdualError(f"{path}: JSON nested too deeply") from exc
    except FairdualError as exc:
        raise FairdualError(f"{path}: {exc}") from exc


def _instance(path: str) -> Instance:
    return _load(
        path,
        instance_from_json,
        on_notice=lambda msg: print(f"note: {path}: {msg}", file=sys.stderr),
    )


def _bundles_json(allocation: Allocation, instance: Instance) -> list:
    return allocation_to_json(allocation, instance)["bundles"]


def _certificate_json(certificate, instance: Instance):
    if certificate is None:
        return None
    if isinstance(certificate, Allocation):
        return allocation_to_json(certificate, instance)
    if isinstance(certificate, PriceVector):
        return {
            "entitlement": format_rational(certificate.entitlement),
            "prices": {name: format_rational(w) for name, w in certificate.prices},
        }
    return certificate  # truncated-copy count


def _criterion_json(criterion, **rest) -> dict:
    return {"notion": criterion.notion, "orientation": criterion.orientation, **rest}


def _cmd_check(args):
    instance = _instance(args.instance)
    allocation = _load(args.allocation, allocation_from_json)
    criterion = criterion_for(instance, args.notion)
    report = is_fair(instance, allocation, criterion)
    witnesses = [asdict(w) for w in report.witnesses]
    payload = _criterion_json(criterion, fair=report.fair, witnesses=witnesses)
    lines = [f"{criterion}: {'fair' if report.fair else 'unfair'}"] + [
        f"  agent {w.envious} envies agent {w.envied}" + (f" (item {w.item})" if w.item else "")
        for w in report.witnesses
    ]
    return report.fair, payload, lines


def _cmd_exists(args):
    instance = _instance(args.instance)
    criterion = criterion_for(instance, args.notion)
    if args.all:
        count, witness = count_fair(instance, criterion, budget=args.budget)
        payload = _criterion_json(
            criterion, count=count, witness=_certificate_json(witness, instance)
        )
        lines = [f"{criterion}: {count} satisfying allocation(s)"]
        if witness is not None:
            lines.append(f"  first: {_bundles_json(witness, instance)}")
        return count > 0, payload, lines
    certificate = exists_fair(instance, criterion, budget=args.budget)
    payload = _criterion_json(
        criterion,
        exists=certificate.exists,
        checked=certificate.checked,
        plan_total=certificate.plan_total,
        witness=_certificate_json(certificate.witness, instance),
    )
    verdict = "exists" if certificate.exists else "does not exist"
    lines = [
        f"{criterion}: {verdict} "
        f"({certificate.checked} of {certificate.plan_total} checked)"
    ]
    if certificate.witness is not None:
        lines.append(f"  witness: {_bundles_json(certificate.witness, instance)}")
    return certificate.exists, payload, lines


def _cmd_dualize(args):
    instance = _instance(args.instance)
    allocation = _load(args.allocation, allocation_from_json) if args.allocation else None
    result = dualize(instance, allocation)
    payload = {"instance": instance_to_json(result.instance)}
    if result.allocation is not None:
        payload["allocation"] = allocation_to_json(result.allocation, result.instance)
    payload["dropped"] = [
        {
            "position": d.position,
            "name": d.item.name,
            "copies": d.item.copies,
            "values": [format_rational(v) for v in d.values],
        }
        for d in result.dropped
    ]
    return True, payload, [json.dumps(payload, indent=2)]


def _cmd_shares(args):
    instance = _instance(args.instance)
    if args.all_agents == (args.agent is not None):
        both = ", not both" if args.all_agents else ""
        raise FairdualError(f"pass --agent N or --all-agents{both}")
    agents = range(instance.agents) if args.all_agents else [args.agent]
    entitlement = (
        None if args.entitlement is None else parse_rational(args.entitlement)
    )
    rows = [
        (agent, share_value(instance, args.share, agent, entitlement, args.budget))
        for agent in agents
    ]
    payload = {
        "share": args.share,
        "entitlement": None if entitlement is None else format_rational(entitlement),
        "values": [
            {
                "agent": agent,
                "value": format_rational(result.value),
                "certificate": _certificate_json(result.certificate, instance),
            }
            for agent, result in rows
        ],
    }
    lines = [f"agent {agent}: {args.share} = {_display(r.value)}" for agent, r in rows]
    return True, payload, lines


def _cmd_mnw(args):
    instance = _instance(args.instance)
    allocation, welfare = max_nash_welfare(instance, budget=args.budget)
    bundles = _bundles_json(allocation, instance)
    payload = {"bundles": bundles, "welfare": format_rational(welfare)}
    lines = [f"nash welfare: {_display(welfare)}"]
    lines += [f"  agent {agent}: {bundle}" for agent, bundle in enumerate(bundles)]
    return True, payload, lines


def _cmd_solve_leveled(args):
    instance = _instance(args.instance)
    result = solve_leveled_efxwc(instance)
    bundles = _bundles_json(result.allocation, instance)
    payload = {
        "bundles": bundles,
        "initial": _bundles_json(result.initial, instance),
        "initial_potential": result.initial_potential,
        "swaps": [asdict(s) for s in result.trace],
    }
    lines = [f"solved in {len(result.trace)} swap(s)"]
    lines += [
        f"  agent {s.envious} takes {s.gained} from agent {s.envied} "
        f"for {s.lost} (potential {s.potential})"
        for s in result.trace
    ]
    lines += [f"  agent {agent}: {bundle}" for agent, bundle in enumerate(bundles)]
    return True, payload, lines


def _cmd_replicate(args):
    if args.all:
        ids = fixture_corpus.fixture_ids()
    elif args.ids:
        ids = tuple(args.ids)
    else:
        raise FairdualError("pass fixture ids or --all")
    fixtures, lines = [], []
    for fixture_id in ids:
        results = fixture_corpus.replicate(fixture_corpus.load_fixture(fixture_id), args.budget)
        bad = [r for r in results if not r.passed]
        claims = [
            {"description": r.description, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        fixtures.append({"id": fixture_id, "passed": not bad, "claims": claims})
        lines.append(f"{'FAIL' if bad else 'PASS'} {fixture_id} ({len(results)} claims)")
        lines += [
            f"  failed: {r.description}" + (f": {r.detail}" if r.detail else "") for r in bad
        ]
    return all(f["passed"] for f in fixtures), {"fixtures": fixtures}, lines


def _cmd_sweep(args):
    config = SweepConfig(**{f.name: getattr(args, f.name) for f in fields(SweepConfig)})
    report = run_sweep(config)
    lines = [
        f"sweep seed={config.seed} count={config.count} "
        f"agents<={config.max_agents} types<={config.max_types} "
        f"(generator v{report.generator_version})",
        f"{report.allocations} allocations examined, "
        f"{report.skipped} instances skipped (plan over {config.plan_cap})",
    ]
    for s in report.stats:
        ratio = "-" if s.min_ratio is None else _display(s.min_ratio)
        lines.append(f"  {s.notion:8s} passing {s.passing:8d}  min mms ratio {ratio}")
    for v in report.violations:
        lines.append(f"VIOLATION ({v.kind}) instance {v.index}: {v.detail}")
        lines.append(f"  reproducer: {json.dumps(v.instance)}")
    lines.append("ok" if report.ok else "violations found")
    return report.ok, report.to_json(), lines


def _flag(*names, **kw) -> tuple:
    return names, kw


INSTANCE = _flag("--instance", required=True)
NOTION = _flag("--notion", required=True)
BUDGET = _flag(
    "--budget",
    type=int,
    help=f"max allocations to enumerate (default {DEFAULT_ENUM_CAP})",
)
JSON = _flag("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdual",
        description="Exact fairness checks for allocations of copied items.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        for names, kw in (*flags, JSON):
            p.add_argument(*names, **kw)
        p.set_defaults(func=func)

    command(
        "check", _cmd_check, "test an allocation against a notion",
        INSTANCE, _flag("--allocation", required=True), NOTION,
    )
    command(
        "exists", _cmd_exists, "search all allocations for a notion",
        INSTANCE, NOTION,
        _flag("--all", action="store_true", help="count every satisfying allocation"),
        BUDGET,
    )
    command(
        "dualize", _cmd_dualize, "emit the dual instance and allocation",
        INSTANCE, _flag("--allocation"),
    )
    command(
        "shares", _cmd_shares, "compute fair-share values",
        INSTANCE, _flag("--share", required=True, choices=SHARE_KINDS),
        _flag("--agent", type=int), _flag("--all-agents", action="store_true"),
        _flag("--entitlement", help="budget for aps, e.g. 1/4"), BUDGET,
    )
    command("mnw", _cmd_mnw, "maximize the product of agent values", INSTANCE, BUDGET)
    command(
        "solve-leveled", _cmd_solve_leveled,
        "build an allocation for leveled preferences", INSTANCE,
    )
    command(
        "replicate", _cmd_replicate, "re-run the bundled example corpus",
        _flag("ids", nargs="*", help="fixture ids (see --all)"),
        _flag("--all", action="store_true", help="run every fixture"), BUDGET,
    )
    command(
        "sweep", _cmd_sweep, "randomized lattice and bound sweep",
        *(
            _flag("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
            for f in fields(SweepConfig)
        ),
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        passed, payload, lines = args.func(args)
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
        return OK if passed else FAIL
    except (FairdualError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except Exception as exc:
        # A crash is no verdict: it must not exit 0 or 1.
        detail = str(exc).strip().splitlines()
        suffix = f": {detail[0]}" if detail else ""
        print(f"error: internal {type(exc).__name__}{suffix}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
