"""Command-line front-end for the modeling and plausibilization loop.

Exit codes make the loop scriptable: 0 for a clean run, 1 for a domain
finding (validation violations, inadmissible sets, non-identifiable
effects), 2 for usage or IO problems. Machine-readable output is canonical
JSON: identical invocations produce byte-identical bytes.

Each command imports the numeric layers it computes with when it runs, so
``validate`` and ``adjust`` on a relation without CPDs load no numpy. A
call's arguments are parsed once, by its command's own parser; ``batch``
runs many calls in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import warnings
from gettext import gettext
from io import StringIO
from typing import Optional, Sequence

from . import fixtures
from .choices import AGGREGATION_MODES, ROUTES
from .context import validate_causal_relation
from .errors import CausalCritError, ParseError
from .graph import enumerate_adjustment_sets
from .io import (
    canonical_json,
    load_dataset,
    load_field,
    load_model,
    load_trajectory,
    save_dataset,
)

EXIT_CLEAN = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


def _emit(args, payload: dict, human_lines: Sequence[str]) -> None:
    if args.format == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        for line in human_lines:
            print(line)


def _parse_assignments(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        node, sep, label = (part.strip() for part in chunk.partition("="))
        # An empty label may be a domain's; an empty node name is none.
        if not sep or not node:
            raise ParseError(f"expected node=label, got {chunk!r}")
        if node in out:
            raise ParseError(f"{node!r} is assigned twice")
        out[node] = label
    return out


def _parse_names(text: Optional[str]) -> Optional[list[str]]:
    if text is None:
        return None
    return [n.strip() for n in text.split(",") if n.strip()]


def _load(*paths: str) -> list:
    """The relation and model of each fixture id or model file, in order. A
    file that repeats the declaration of a relation still in use, such as a
    fixture's or the reference file's, shares its parse (see ``io._parse``)."""
    return [fixtures.fixture(p) if p in fixtures.FIXTURE_IDS else load_model(p) for p in paths]


def cmd_validate(args) -> int:
    relation, _model = _load(args.model)[0]
    violations = validate_causal_relation(relation)
    payload = {
        "command": "validate",
        "model": args.model,
        "violations": [{"clause": v.clause, "message": v.message} for v in violations],
    }
    lines = [str(v) for v in violations] or ["no violations"]
    _emit(args, payload, lines)
    return EXIT_FINDING if violations else EXIT_CLEAN


def cmd_adjust(args) -> int:
    if args.max <= 0:
        raise ParseError(f"--max must be > 0, got {args.max}")
    candidates = _parse_names(args.candidates)
    if candidates == []:
        raise ParseError(f"--candidates needs at least one node name, got {args.candidates!r}")
    _relation, model = _load(args.model)[0]
    sets = enumerate_adjustment_sets(
        model.structure, args.x, args.y, max_count=args.max, candidates=candidates
    )
    payload = {
        "command": "adjust",
        "x": args.x,
        "y": args.y,
        "adjustment_sets": [sorted(s) for s in sets],
    }
    lines = ["{" + ", ".join(sorted(s)) + "}" for s in sets] or ["(none found)"]
    _emit(args, payload, lines)
    return EXIT_CLEAN if sets else EXIT_FINDING


def cmd_effect(args) -> int:
    from .engine import expectation, plan_effect

    if args.adjust_set is not None and args.route != "backdoor":
        raise ParseError("--adjust-set needs --route backdoor")
    _relation, model = _load(args.model)[0]
    assignments = _parse_assignments(args.do or "")
    route, (dist,) = plan_effect(
        model,
        {node: [label] for node, label in assignments.items()},
        args.target,
        args.route,
        (_parse_names(args.adjust_set) or []) if args.route == "backdoor" else None,
    )
    exp = expectation(dist, model, args.target)
    spec = model.spec_of(args.target)
    payload = {
        "command": "effect",
        "do": assignments,
        "target": args.target,
        "route": route,
        "distribution": dist,
        "expectation": exp,
        "codes": {c: spec.codes[i] for i, c in enumerate(spec.domain)},
    }
    lines = [f"route: {route}"]
    lines += [f"P({args.target}={c} | do) = {dist[c]:.6f}" for c in spec.domain]
    lines.append(f"E({args.target} | do) = {exp:.6f}")
    _emit(args, payload, lines)
    return EXIT_CLEAN


def cmd_indicators(args) -> int:
    from .indicators import ModelPair, indicator_reports
    from .model import estimate_cpds

    node_set = _parse_names(args.set)
    if node_set == []:
        raise ParseError(f"--set needs at least one node name, got {args.set!r}")
    if args.rho3_restricted and node_set is None:
        raise ParseError("--rho3-restricted needs --set")
    if args.alpha is not None and not args.data:
        raise ParseError("--alpha needs --data")
    (relation_ref, ref), (_, cand) = _load(args.reference, args.candidate)
    if args.data:
        alpha = 0.0 if args.alpha is None else args.alpha
        ref, cand = (
            estimate_cpds(m.structure, m.specs, load_dataset(path, m.specs), smoothing=alpha)
            for m, path in zip((ref, cand), args.data)
        )
    reports = indicator_reports(
        ModelPair(reference=ref, candidate=cand),
        relation_ref.phenomenon,
        relation_ref.metric,
        node_set,
        restrict_to_set=args.rho3_restricted,
        bits=args.bits,
    )
    payload = {
        "command": "indicators",
        "reference": args.reference,
        "candidate": args.candidate,
        "log_base": "bits" if args.bits else "nats",
        "reports": [r.as_dict() for r in reports],
    }
    lines = []
    for r in reports:
        role = r.metadata.get("role", "pair")
        lines.append(f"{r.name:<6} [{role}] = {r.value:.6f}")
    _emit(args, payload, lines)
    return EXIT_CLEAN


def cmd_sample(args) -> int:
    from .model import sample

    if args.n < 0:
        raise ParseError(f"-n must be >= 0, got {args.n}")
    if args.seed < 0:
        raise ParseError(f"--seed must be >= 0, got {args.seed}")
    _relation, model = _load(args.model)[0]
    dataset = sample(model, args.n, args.seed)
    save_dataset(args.output, dataset)
    payload = {
        "command": "sample",
        "model": args.model,
        "n": args.n,
        "seed": args.seed,
        "output": args.output,
        "columns": list(dataset.columns),
    }
    _emit(args, payload, [f"wrote {args.n} records to {args.output}"])
    return EXIT_CLEAN


def cmd_metrics(args) -> int:
    from .metrics import DrivingTask, aggregate, check_bins, discretize_metric, threat_numbers

    try:
        edges = [float(e) for e in _parse_names(args.edges) or []]
    except ValueError as exc:
        raise ParseError(f"--edges: {exc}") from None
    labels = _parse_names(args.labels)
    if labels is not None and not edges:
        raise ParseError("--labels needs --edges")
    if edges:
        check_bins(edges, labels)
    trajectories = tuple(load_trajectory(p) for p in args.trajectories)
    field = load_field(args.field)
    t_start = args.t_start if args.t_start is not None else max(t.t[0] for t in trajectories)
    if args.horizon is not None:
        horizon = args.horizon
    else:
        horizon = min(t.t[-1] for t in trajectories) - t_start
    task = DrivingTask(trajectories=trajectories, t_start=t_start, horizon=horizon)
    numbers = threat_numbers(task, field, names=args.trajectories)
    agg = aggregate(numbers["btn_dt"], numbers["stn_dt"], mode=args.agg)
    payload = {"command": "metrics", "aggregation": args.agg, **numbers, "aggregate": agg}
    lines = [
        f"a_long,req = {payload['along_req']:.6f}",
        f"a_lat,req  = {payload['alat_req']:.6f}",
        f"a_long,min = {payload['along_min']:.6f}",
        f"a_lat,min  = {payload['alat_min']:.6f}",
        f"BTN_DT = {payload['btn_dt']:.6f}",
        f"STN_DT = {payload['stn_dt']:.6f}",
        f"aggregate({args.agg}) = {agg:.6f}",
    ]
    if edges:
        label = discretize_metric(agg, edges, labels)
        payload["label"] = label
        lines.append(f"label = {label}")
    _emit(args, payload, lines)
    return EXIT_CLEAN


def cmd_sp(args) -> int:
    from .engine import SafetyPrinciple, evaluate_safety_principle

    relation, model = _load(args.model)[0]
    assignments = _parse_assignments(args.sp)
    if not assignments:
        raise ParseError("--sp needs at least one node=label assignment")
    principle = SafetyPrinciple(name=args.name, assignments=assignments)
    report = evaluate_safety_principle(model, principle, relation.phenomenon, relation.metric)
    fields = {name: getattr(report, name) for name in report.__match_args__}
    payload = {"command": "sp", "intervention": assignments, **fields}
    lines = [
        f"delta P({relation.phenomenon.variable}={relation.phenomenon.cp_label}) = "
        f"{report.delta_p_phenomenon:+.6f}",
        f"delta E({relation.metric}) = {report.delta_metric_expectation:+.6f}",
    ]
    lines += list(report.notes)
    _emit(args, payload, lines)
    return EXIT_CLEAN


def _batch_argv(line) -> tuple[Optional[list], str]:
    """The argv a batch line holds, or why it holds none."""
    try:
        argv = json.loads(line)
    except (ValueError, RecursionError) as exc:  # ValueError covers a line that is not UTF-8
        return None, f"not JSON: {exc}"
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        return None, "not a JSON array of strings"
    if argv[:1] == ["batch"]:
        return None, "batch cannot run inside batch"
    return argv, ""


def _batch_call(number: int, line) -> dict:
    """One batch line's exit code, stdout and stderr, as a fresh process
    would give them: its warnings print under the filters the batch began with."""
    argv, problem = _batch_argv(line)
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        if problem:
            print(f"error: line {number}: {problem}", file=sys.stderr)
            code = EXIT_USAGE
        else:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits with an int status
                code = exc.code
            except Exception:
                import traceback

                traceback.print_exc()
                code = 1  # as an uncaught exception ends a process
    return {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


def cmd_batch(args) -> int:
    # Bytes, so that a line that is not UTF-8 fails alone, in json.loads.
    stdin = getattr(sys.stdin, "buffer", sys.stdin)
    for number, line in enumerate(stdin, 1):
        if line.strip():
            result = _batch_call(number, line)
            sys.stdout.write(
                json.dumps(result, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
            )
            sys.stdout.flush()
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its map from command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="causalcrit",
        description="Causal-relation engine for criticality analysis",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument(
            "--format",
            choices=("human", "json"),
            default="human",
            help="output format (json is canonical and byte-stable)",
        )

    p = sub.add_parser("validate", help="check a causal relation's definitional clauses")
    p.add_argument("model", help="model file path or fixture id")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("adjust", help="enumerate back-door adjustment sets")
    p.add_argument("model")
    p.add_argument("-x", required=True, help="cause/exposure node")
    p.add_argument("-y", required=True, help="outcome node")
    p.add_argument("--max", type=int, default=16, help="stop after this many sets")
    p.add_argument("--candidates", help="comma-separated search pool restriction")
    common(p)
    p.set_defaults(fn=cmd_adjust)

    p = sub.add_parser("effect", help="interventional distribution and expectation")
    p.add_argument("model")
    p.add_argument("--do", default="", help='intervention, e.g. "X=CP" (empty = observational)')
    p.add_argument("--target", required=True)
    p.add_argument("--route", choices=ROUTES, default="auto")
    p.add_argument("--adjust-set", help="comma-separated set for the backdoor route (default: empty)")
    common(p)
    p.set_defaults(fn=cmd_effect)

    p = sub.add_parser("indicators", help="modeling-quality indicator table")
    p.add_argument("reference", help="assumed-reality model file or fixture id")
    p.add_argument("candidate", help="candidate model file or fixture id")
    p.add_argument("--set", help="comma-separated node set for rho2/rho3")
    p.add_argument("--data", nargs=2, metavar=("REF_CSV", "CAND_CSV"),
                   help="re-estimate both models from datasets first")
    p.add_argument("--alpha", type=float, help="estimation smoothing with --data (default 0)")
    p.add_argument("--bits", action="store_true", help="log base 2 instead of nats")
    p.add_argument("--rho3-restricted", action="store_true",
                   help="restrict rho3 edges to the induced sub-model over --set")
    common(p)
    p.set_defaults(fn=cmd_indicators)

    p = sub.add_parser("sample", help="forward-sample a dataset")
    p.add_argument("model")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("metrics", help="driving-task threat numbers from files")
    p.add_argument("--trajectories", nargs="+", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--t-start", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--agg", choices=AGGREGATION_MODES, default="max")
    p.add_argument("--edges", help="comma-separated discretization edges")
    p.add_argument("--labels", help="comma-separated bin labels")
    common(p)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("sp", help="evaluate a safety principle as an intervention")
    p.add_argument("model")
    p.add_argument("--sp", required=True, help='intervention, e.g. "V2=Slow"')
    p.add_argument("--name", default="sp")
    common(p)
    p.set_defaults(fn=cmd_sp)

    p = sub.add_parser("batch", help="run one call per stdin line, each a JSON array of arguments")
    p.set_defaults(fn=cmd_batch)
    return parser, sub.choices


_parser = functools.cache(_build)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # The arguments after a known command name are all its parser's, as in
        # the two-level parse; what it leaves over is reported as argparse does.
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CausalCritError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FINDING


if __name__ == "__main__":
    sys.exit(main())
