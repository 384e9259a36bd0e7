"""Command line frontend.

Every subcommand is a thin adapter over one library entry point; the CLI
itself only loads files, forwards flags, renders reports, and maps
verdicts to exit codes. Codes are a contract: 0 for fair / exists / all
pass, 1 for unfair / not exists / any fail, 2 for usage and budget
errors and for any unexpected exception. `--json` swaps the human
rendering for machine-readable JSON carrying exact rationals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional

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
from .search import count_fair, exists_fair, max_nash_welfare
from .shares import SHARE_KINDS, PriceVector, ShareSpec, share_value
from .sweep import SweepConfig, run_sweep

OK, FAIL, ERROR = 0, 1, 2

# Human tables keep rationals short; exact values always travel in --json.
DISPLAY_WIDTH = 12


def _display(value: Fraction) -> str:
    text = str(format_rational(value))
    if len(text) <= DISPLAY_WIDTH:
        return text
    return f"~{float(value):.5g}"[:DISPLAY_WIDTH]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FairdualError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise FairdualError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_instance(path: str) -> Instance:
    data = _load_json(path)
    try:
        return instance_from_json(
            data,
            on_notice=lambda msg: print(f"note: {path}: {msg}", file=sys.stderr),
        )
    except FairdualError as exc:
        raise FairdualError(f"{path}: {exc}") from exc


def _load_allocation(path: str) -> Allocation:
    data = _load_json(path)
    try:
        return allocation_from_json(data)
    except FairdualError as exc:
        raise FairdualError(f"{path}: {exc}") from exc


def _budget(args) -> Optional[int]:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("FAIRDUAL_ENUM_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise FairdualError(
                f"FAIRDUAL_ENUM_CAP must be an integer, got {env!r}"
            ) from None
    return None


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


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


def _cmd_check(args) -> int:
    instance = _load_instance(args.instance)
    allocation = _load_allocation(args.allocation)
    criterion = criterion_for(instance, args.notion, args.orientation)
    report = is_fair(instance, allocation, criterion)
    if args.json:
        _emit(
            {
                "notion": criterion.notion,
                "orientation": criterion.orientation,
                "fair": report.fair,
                "witnesses": [asdict(w) for w in report.witnesses],
            }
        )
    else:
        print(f"{criterion}: {'fair' if report.fair else 'unfair'}")
        for w in report.witnesses:
            extra = f" (item {w.item})" if w.item else ""
            print(f"  agent {w.envious} envies agent {w.envied}{extra}")
    return OK if report.fair else FAIL


def _cmd_exists(args) -> int:
    instance = _load_instance(args.instance)
    criterion = criterion_for(instance, args.notion, args.orientation)
    budget = _budget(args)
    if args.all:
        count, witness = count_fair(instance, criterion, budget=budget)
        if args.json:
            payload = {
                "notion": criterion.notion,
                "orientation": criterion.orientation,
                "count": count,
                "witness": None if witness is None else allocation_to_json(witness, instance),
            }
            _emit(payload)
        else:
            print(f"{criterion}: {count} satisfying allocation(s)")
            if witness is not None:
                print(f"  first: {_bundles_json(witness, instance)}")
        return OK if count else FAIL
    certificate = exists_fair(instance, criterion, budget=budget, jobs=args.jobs)
    if args.json:
        _emit(
            {
                "notion": criterion.notion,
                "orientation": criterion.orientation,
                "exists": certificate.exists,
                "checked": certificate.checked,
                "plan_total": certificate.plan_total,
                "witness": None
                if certificate.witness is None
                else allocation_to_json(certificate.witness, instance),
            }
        )
    else:
        verdict = "exists" if certificate.exists else "does not exist"
        print(
            f"{criterion}: {verdict} "
            f"({certificate.checked} of {certificate.plan_total} checked)"
        )
        if certificate.witness is not None:
            print(f"  witness: {_bundles_json(certificate.witness, instance)}")
    return OK if certificate.exists else FAIL


def _cmd_dualize(args) -> int:
    instance = _load_instance(args.instance)
    allocation = _load_allocation(args.allocation) if args.allocation else None
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
    _emit(payload)
    return OK


def _cmd_shares(args) -> int:
    instance = _load_instance(args.instance)
    if args.agent is None and not args.all_agents:
        raise FairdualError("pass --agent N or --all-agents")
    agents = range(instance.agents) if args.all_agents else [args.agent]
    entitlement = (
        None if args.entitlement is None else parse_rational(args.entitlement)
    )
    budget = _budget(args)
    rows = []
    for agent in agents:
        spec = ShareSpec(kind=args.share, agent=agent, entitlement=entitlement)
        result = share_value(instance, spec, budget=budget)
        rows.append((agent, result))
    if args.json:
        _emit(
            {
                "share": args.share,
                "entitlement": None
                if entitlement is None
                else format_rational(entitlement),
                "values": [
                    {
                        "agent": agent,
                        "value": format_rational(result.value),
                        "certificate": _certificate_json(
                            result.certificate, instance
                        ),
                    }
                    for agent, result in rows
                ],
            }
        )
    else:
        for agent, result in rows:
            print(f"agent {agent}: {args.share} = {_display(result.value)}")
    return OK


def _cmd_mnw(args) -> int:
    instance = _load_instance(args.instance)
    allocation, welfare = max_nash_welfare(instance, budget=_budget(args))
    if args.json:
        _emit(
            {
                "bundles": _bundles_json(allocation, instance),
                "welfare": format_rational(welfare),
            }
        )
    else:
        print(f"nash welfare: {_display(welfare)}")
        for agent, bundle in enumerate(_bundles_json(allocation, instance)):
            print(f"  agent {agent}: {bundle}")
    return OK


def _cmd_solve_leveled(args) -> int:
    instance = _load_instance(args.instance)
    result = solve_leveled_efxwc(instance)
    if args.json:
        _emit(
            {
                "bundles": _bundles_json(result.allocation, instance),
                "initial": _bundles_json(result.initial, instance),
                "initial_potential": result.initial_potential,
                "swaps": [asdict(s) for s in result.trace],
            }
        )
    else:
        print(f"solved in {len(result.trace)} swap(s)")
        for s in result.trace:
            print(
                f"  agent {s.envious} takes {s.gained} from agent {s.envied} "
                f"for {s.lost} (potential {s.potential})"
            )
        for agent, bundle in enumerate(_bundles_json(result.allocation, instance)):
            print(f"  agent {agent}: {bundle}")
    return OK


def _cmd_replicate(args) -> int:
    if args.all:
        ids = fixture_corpus.fixture_ids()
    elif args.ids:
        ids = tuple(args.ids)
    else:
        raise FairdualError("pass fixture ids or --all")
    budget = _budget(args)
    all_results = []
    for fixture_id in ids:
        fixture = fixture_corpus.load_fixture(fixture_id)
        all_results.append((fixture_id, fixture_corpus.replicate(fixture, budget)))
    failed = any(not r.passed for _, results in all_results for r in results)
    if args.json:
        _emit(
            {
                "fixtures": [
                    {
                        "id": fixture_id,
                        "passed": all(r.passed for r in results),
                        "claims": [
                            {
                                "description": r.description,
                                "passed": r.passed,
                                "detail": r.detail,
                            }
                            for r in results
                        ],
                    }
                    for fixture_id, results in all_results
                ],
            }
        )
    else:
        for fixture_id, results in all_results:
            bad = [r for r in results if not r.passed]
            if bad:
                print(f"FAIL {fixture_id} ({len(results)} claims)")
                for r in bad:
                    detail = f": {r.detail}" if r.detail else ""
                    print(f"  failed: {r.description}{detail}")
            else:
                print(f"PASS {fixture_id} ({len(results)} claims)")
    return FAIL if failed else OK


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        seed=args.seed,
        count=args.count,
        max_agents=args.max_agents,
        max_types=args.max_types,
        max_value=args.max_value,
        plan_cap=args.plan_cap,
    )
    report = run_sweep(config)
    if args.json:
        _emit(report.to_json())
    else:
        print(
            f"sweep seed={config.seed} count={config.count} "
            f"agents<={config.max_agents} types<={config.max_types} "
            f"(generator v{report.generator_version})"
        )
        print(
            f"{report.allocations} allocations examined, "
            f"{report.skipped} instances skipped (plan over {config.plan_cap})"
        )
        for s in report.stats:
            ratio = "-" if s.min_ratio is None else _display(s.min_ratio)
            print(f"  {s.notion:8s} passing {s.passing:8d}  min mms ratio {ratio}")
        for v in report.violations:
            print(f"VIOLATION ({v.kind}) instance {v.index}: {v.detail}")
            print(f"  reproducer: {json.dumps(v.instance)}")
        print("ok" if report.ok else "violations found")
    return OK if report.ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdual",
        description="Exact fairness checks for allocations of copied items.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_budget(p):
        p.add_argument(
            "--budget",
            type=int,
            help="max allocations to enumerate (default FAIRDUAL_ENUM_CAP or built-in)",
        )

    p = sub.add_parser("check", help="test an allocation against a notion")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--notion", required=True)
    p.add_argument("--orientation", choices=("goods", "chores"))
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("exists", help="search all allocations for a notion")
    p.add_argument("--instance", required=True)
    p.add_argument("--notion", required=True)
    p.add_argument("--orientation", choices=("goods", "chores"))
    p.add_argument(
        "--all", action="store_true", help="count every satisfying allocation"
    )
    p.add_argument("--jobs", type=int, default=1)
    add_budget(p)
    add_json(p)
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser("dualize", help="emit the dual instance and allocation")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocation")
    add_json(p)
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("shares", help="compute fair-share values")
    p.add_argument("--instance", required=True)
    p.add_argument("--share", required=True, choices=SHARE_KINDS)
    p.add_argument("--agent", type=int)
    p.add_argument("--all-agents", action="store_true")
    p.add_argument("--entitlement", help="budget for aps, e.g. 1/4")
    add_budget(p)
    add_json(p)
    p.set_defaults(func=_cmd_shares)

    p = sub.add_parser("mnw", help="maximize the product of agent values")
    p.add_argument("--instance", required=True)
    add_budget(p)
    add_json(p)
    p.set_defaults(func=_cmd_mnw)

    p = sub.add_parser(
        "solve-leveled", help="build an allocation for leveled preferences"
    )
    p.add_argument("--instance", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_solve_leveled)

    p = sub.add_parser("replicate", help="re-run the bundled example corpus")
    p.add_argument("ids", nargs="*", help="fixture ids (see --all)")
    p.add_argument("--all", action="store_true", help="run every fixture")
    add_budget(p)
    add_json(p)
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser("sweep", help="randomized lattice and bound sweep")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-agents", type=int, default=3)
    p.add_argument("--max-types", type=int, default=4)
    p.add_argument("--max-value", type=int, default=9)
    p.add_argument("--plan-cap", type=int, default=SweepConfig.plan_cap)
    add_json(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
