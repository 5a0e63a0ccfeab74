"""Command-line front door: evaluate, run, trace, extract, double, check.

Every command reads diagrams through the text formats, writes JSON to
stdout (or to a named file), and exits 0 on success, 1 when a
verification failed, and 2 on bad input.  A diagram with a ground runs
the two-bit machine (`GROUND_RULES`) and reads as a superoperator.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .diagram import Dir, cpm_construct
from .errors import FuseExceeded, ZxError
from .ground import g_extract_superoperator
from .interp import interp, interp_cpm
from .machine import (
    GROUND_RULES,
    PURE_RULES,
    Token,
    TokenState,
    extract_matrix,
    extract_matrix_general,
    normalize,
)
from .textio import (
    load_diagram_text,
    parse_state,
    serialize_diagram,
    serialize_matrix,
    serialize_state,
    serialize_trace,
)
from .verify import SUITES, GenConfig, check_diagram, run_suite

OK, VERIFY_FAILED, INPUT_ERROR = 0, 1, 2


def _load_diagram(path_str: str):
    path = Path(path_str)
    try:
        text = path.read_text()
    except OSError as err:
        raise ZxError(f"cannot read {path}: {err.strerror}") from err
    return load_diagram_text(text, path.suffix)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text)


def _rules_for(d):
    """Grounds need the two-bit machine."""
    return GROUND_RULES if d.has_ground() else PURE_RULES


def _seed_from_input(d, value: str) -> TokenState:
    """--input is a state file path or a bitstring over the input wires."""
    path = Path(value)
    if path.is_file():
        return parse_state(path.read_text())
    if not value or set(value) - {"0", "1"}:
        raise ZxError(f"--input needs a bitstring of 0s and 1s or a state file, got {value!r}")
    if len(value) != len(d.inputs):
        raise ZxError(
            f"bitstring {value!r} has {len(value)} bits but the diagram has "
            f"{len(d.inputs)} input wires"
        )
    width = _rules_for(d).bit_width
    tokens = [Token(e, Dir.DOWN, (int(c),) * width) for e, c in zip(d.inputs, value)]
    return TokenState.single(1.0, tokens)


# -- commands ----------------------------------------------------------------


def _cmd_interp(args) -> int:
    d = _load_diagram(args.file)
    m = interp_cpm(d) if args.cpm or d.has_ground() else interp(d)
    _emit(serialize_matrix(m), args.out)
    return OK


def _cmd_run(args) -> int:
    d = _load_diagram(args.file)
    seed = _seed_from_input(d, args.input)
    try:
        nf, trace = normalize(d, seed, args.scheduler, rules=_rules_for(d))
    except FuseExceeded as err:
        print(f"run did not finish: {err}", file=sys.stderr)
        return VERIFY_FAILED
    if args.trace:
        _emit(serialize_trace(trace), args.trace)
    _emit(serialize_state(nf), args.out)
    return OK


def _cmd_trace(args) -> int:
    d = _load_diagram(args.file)
    seed = _seed_from_input(d, args.input)
    try:
        _, trace = normalize(d, seed, args.scheduler, rules=_rules_for(d))
    except FuseExceeded as err:
        print(f"run did not finish: {err}", file=sys.stderr)
        return VERIFY_FAILED
    _emit(serialize_trace(trace), args.out)
    return OK


def _cmd_extract(args) -> int:
    d = _load_diagram(args.file)
    try:
        if args.ground or d.has_ground():
            m = g_extract_superoperator(d, args.seed_edge, args.scheduler)
        elif args.seed_edge is not None:
            m = extract_matrix(d, args.seed_edge, args.scheduler)
        else:
            m = extract_matrix_general(d, args.scheduler)
    except FuseExceeded as err:
        print(f"extraction did not finish: {err}", file=sys.stderr)
        return VERIFY_FAILED
    _emit(serialize_matrix(m), args.out)
    return OK


def _cmd_cpm(args) -> int:
    d = _load_diagram(args.file)
    _emit(serialize_diagram(cpm_construct(d)), args.out)
    return OK


def _parse_config(text: str) -> GenConfig:
    """key=value pairs, comma separated, over the generator config fields."""
    kwargs: dict = {}
    types = {f.name: f.type for f in fields(GenConfig)}
    for item in filter(None, (p.strip() for p in text.split(","))):
        key, sep, value = item.partition("=")
        if not sep or key not in types:
            known = ", ".join(sorted(set(types) - {"angle_pool"}))
            raise ZxError(f"bad config entry {item!r}; known keys: {known}")
        if key == "angle_pool":
            raise ZxError("angle_pool is not settable from the command line")
        if types[key] == "bool":
            if value not in ("true", "false"):
                raise ZxError(f"{key} wants true or false, got {value!r}")
            kwargs[key] = value == "true"
        else:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ZxError(f"{key} wants an integer, got {value!r}") from None
    try:
        return GenConfig(**kwargs)
    except ValueError as err:
        raise ZxError(str(err)) from None


def _cmd_check(args) -> int:
    if (args.file is None) == (args.random is None):
        raise ZxError("check needs a diagram file or --random, not both")
    if args.file is not None:
        d = _load_diagram(args.file)
        if args.suite is None:
            r = check_diagram(d)
            payload = {
                "deviation": r.deviation,
                "file": args.file,
                "ok": r.outcome == "pass",
                "outcome": r.outcome,
            }
            _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
            return OK if r.outcome != "fail" else VERIFY_FAILED
        report = run_suite(args.suite, GenConfig(seed=args.seed), args.trials, diagram=d)
    else:
        cfg = _parse_config(args.random)
        suite = args.suite or "oracle"
        report = run_suite(suite, cfg, args.trials, jobs=args.jobs)
    print(report.summary(), file=sys.stderr)
    _emit(json.dumps(report.to_json(), indent=2, sort_keys=True), args.out)
    return OK if report.ok else VERIFY_FAILED


# -- argument wiring ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zxtk", description="Token-machine toolkit for ZX diagrams."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="write to this file instead of stdout")
        return p

    p = cmd("interp", _cmd_interp, "dense matrix of a diagram file")
    p.add_argument("file")
    p.add_argument("--cpm", action="store_true", help="interpret the doubled diagram")

    for name, fn in (("run", _cmd_run), ("trace", _cmd_trace)):
        p = cmd(name, fn, f"{name} the token machine on a diagram file")
        p.add_argument("file")
        p.add_argument(
            "--input",
            required=True,
            help="bitstring over the input wires, or a .state.json file",
        )
        p.add_argument("--scheduler", default="deterministic")
        if name == "run":
            p.add_argument("--trace", default=None, help="also write the trace here")

    p = cmd("extract", _cmd_extract, "matrix by token extraction")
    p.add_argument("file")
    p.add_argument("--seed-edge", default=None)
    p.add_argument("--ground", action="store_true", help="force the superoperator reading")
    p.add_argument("--scheduler", default="deterministic")

    p = cmd("cpm", _cmd_cpm, "write the doubled (conjugate-paired) diagram")
    p.add_argument("file")

    p = cmd("check", _cmd_check, "oracle and property suites")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--random", default=None, metavar="CFG", help="key=value diagram config")
    p.add_argument("--suite", choices=SUITES, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="trial seed for file mode")
    p.add_argument("--jobs", type=int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ZxError as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
