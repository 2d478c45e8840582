"""Command-line front end: dilate, purify, laws, random.

Exit codes are part of the contract: 0 success, 1 law failure, 2 not
completely positive, 3 malformed input, 4 restriction mismatch, 5 not
unitarily equivalent.  The DILATORY_TOL environment variable overrides the
default tolerance when --tol is not given explicitly; a tolerance that is not
a positive number below 1, like a --dims below 1, a negative laws --draws or
a negative --seed (laws and random alike), is malformed input, and so is a
usage error (an unknown command or option, a missing argument, a value of
the wrong type).  Input files and stdin are read as UTF-8 bytes, whatever
the locale, and bytes that are not UTF-8 are malformed input too.

main runs each command with the cyclic garbage collector paused, since a
command makes no reference cycles and the collector would otherwise
re-walk every large document json.loads builds.  An in-process caller gets
its own collector setting back however main ends.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import NoReturn

from .cpmap import is_completely_positive, is_unital
from .dilation import stinespring_dilate
from .errors import (
    DilatoryError,
    MalformedInput,
    NotCompletelyPositive,
    NotEquivalent,
    RestrictionMismatch,
    ShapeMismatch,
)
from .geometry import _purify
from .laws import run_default_suite
from .numerics import Tolerance, _MACHINE_EPS
from .randgen import random_cp_map, rng_for
from .serialize import (
    SCHEMA,
    certificate_doc,
    decode_anchored_rep,
    decode_ocp_map,
    dumps,
    encode_tolerance,
    loads,
    ocp_map_doc,
)

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_NOT_CP = 2
EXIT_PARSE = 3
EXIT_RESTRICTION = 4
EXIT_NOT_EQUIVALENT = 5


def _reject(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _tolerance_from(args) -> Tolerance:
    value, source = args.tol, "--tol"
    if value is None:
        raw = os.environ.get("DILATORY_TOL", "1e-9")
        source = f"DILATORY_TOL={raw!r}"
        try:
            value = float(raw)
        except ValueError:
            _reject(f"{source} is not a number")
    if not 0.0 < value < 1.0:
        _reject(f"{source} gives tolerance {value!r}; it must be positive and below 1")
    # eps_rank cannot go below machine epsilon; eps_eq may, and an absurdly
    # tight eps_eq is the documented way to make the law suite fail loudly
    return Tolerance(eps_rank=max(value, _MACHINE_EPS), eps_eq=value)


def _read_json(path: str):
    """The JSON document in the file at path, or on stdin for "-"; its bytes
    must be UTF-8, whatever the locale."""
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {name}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{name} is not UTF-8: {exc}") from exc
    return loads(text)


def _write(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_dilate(args) -> int:
    tol = _tolerance_from(args)
    try:
        phi = decode_ocp_map(_read_json(args.input))
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cert = stinespring_dilate(phi, tol, check_cp=not args.force)
    except NotCompletelyPositive as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = {
            "schema": SCHEMA,
            "kind": "not_cp_report",
            "min_eigenvalues": [float(x) for x in exc.min_eigenvalues],
        }
        _write(dumps(report), args.out)
        return EXIT_NOT_CP
    except DilatoryError as exc:
        # degenerate or forced inputs surface here (zero map, broken symmetry)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOT_CP
    _write(dumps(certificate_doc(cert)), args.out)
    return EXIT_OK


def cmd_purify(args) -> int:
    tol = _tolerance_from(args)
    try:
        rep1 = decode_anchored_rep(_read_json(args.rep1))
        rep2 = decode_anchored_rep(_read_json(args.rep2))
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        u, label, residuals = _purify(rep1, rep2, tol, args.allow_inequivalent)
    except RestrictionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESTRICTION
    except NotEquivalent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_EQUIVALENT
    except (MalformedInput, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DilatoryError as exc:
        # e.g. the inputs are not representations at tolerance
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    payload = {
        "schema": SCHEMA,
        "kind": "purification",
        "label": label,
        "U": u,
        "residuals": {k: float(v) for k, v in sorted(residuals.items())},
        "tolerance": encode_tolerance(tol),
    }
    _write(dumps(payload), args.out)
    return EXIT_OK


def cmd_laws(args) -> int:
    if args.dims < 1:
        _reject(f"--dims {args.dims}; the largest block size must be at least 1")
    if args.seed < 0:
        _reject(f"--seed {args.seed}; a seed must be a non-negative integer")
    if args.draws < 0:
        _reject(f"--draws {args.draws}; the number of draws must be at least 0")
    tol = _tolerance_from(args)
    try:
        result = run_default_suite(
            seed=args.seed, draws=args.draws, max_dim=args.dims, tol=tol
        )
    except DilatoryError as exc:
        # an over-tight tolerance makes residual gates fire inside the suite
        payload = {
            "schema": SCHEMA,
            "kind": "law_suite",
            "seed": args.seed,
            "draws": args.draws,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "tolerance": encode_tolerance(tol),
        }
        _write(dumps(payload), args.out)
        print(f"law failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LAW_FAILURE
    payload = {
        "schema": SCHEMA,
        "kind": "law_suite",
        "seed": args.seed,
        "draws": args.draws,
        "ok": result.ok,
        "warnings": list(result.warnings),
        "reports": [
            {
                "name": r.name,
                "max_residual": float(r.max_residual),
                "passed": r.passed,
                "witnesses": list(r.witnesses),
            }
            for r in result.reports
        ],
        "negative_controls": [
            {
                "name": c.name,
                "max_residual": float(c.max_residual),
                "failed_as_required": c.failed_as_required,
            }
            for c in result.controls
        ],
        "tolerance": encode_tolerance(tol),
    }
    _write(dumps(payload), args.out)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not result.ok:
        failure = result.first_failure()
        if failure is not None:
            print(
                f"law failure: {failure.name} residual={failure.max_residual:.3e} "
                f"witnesses={list(failure.witnesses)}",
                file=sys.stderr,
            )
        return EXIT_LAW_FAILURE
    return EXIT_OK


def cmd_random(args) -> int:
    try:
        blocks = tuple(int(b) for b in args.blocks.split(",") if b.strip())
        if not blocks:
            raise ValueError("empty block list")
        rng = rng_for(args.seed, 0)
        phi = random_cp_map(rng, blocks, args.k, kraus_rank=args.kraus_rank, unital=args.unital)
    except (ValueError, ShapeMismatch) as exc:
        print(f"error: impossible parameters: {exc}", file=sys.stderr)
        return EXIT_PARSE
    tol = _tolerance_from(args)
    report = is_completely_positive(phi, tol)
    payload = ocp_map_doc(phi)
    payload["seed"] = args.seed
    payload["is_cp"] = report.is_cp
    payload["is_unital"] = is_unital(phi, tol)
    _write(dumps(payload), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="dilatory",
        description="Stinespring dilation toolkit for finite-dimensional C*-algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help="tolerance (default 1e-9, or DILATORY_TOL); sets eps_eq and, "
            "clamped to machine epsilon, eps_rank",
        )
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_dilate = sub.add_parser("dilate", help="minimal Stinespring dilation of a CP map")
    p_dilate.add_argument("input", help="OCP map JSON path, or - for stdin")
    p_dilate.add_argument(
        "--force", action="store_true", help="skip the complete-positivity gate"
    )
    common(p_dilate)
    p_dilate.set_defaults(func=cmd_dilate)

    p_purify = sub.add_parser(
        "purify", help="unitary (or maximal) intertwiner between two dilations"
    )
    p_purify.add_argument("rep1", help="first anchored representation JSON")
    p_purify.add_argument("rep2", help="second anchored representation JSON")
    p_purify.add_argument(
        "--allow-inequivalent",
        action="store_true",
        help="emit the maximal intertwining extension when multiplicities differ",
    )
    common(p_purify)
    p_purify.set_defaults(func=cmd_purify)

    p_laws = sub.add_parser("laws", help="run the categorical law suite")
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.add_argument("--draws", type=int, default=100)
    p_laws.add_argument("--dims", type=int, default=3, help="largest block size sampled")
    common(p_laws)
    p_laws.set_defaults(func=cmd_laws)

    p_random = sub.add_parser("random", help="generate a seeded random CP map")
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--blocks", default="2", help="comma-separated block sizes")
    p_random.add_argument("--k", type=int, default=2)
    p_random.add_argument("--kraus-rank", type=int, default=2)
    p_random.add_argument(
        "--unital", action="store_true", help="renormalize to an operator state"
    )
    common(p_random)
    p_random.set_defaults(func=cmd_random)
    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A command builds only trees (JSON documents, arrays, frozen dataclasses),
    so the collector finds nothing to free; yet while json.loads builds a
    dense document, one list per [re, im] pair and per row, it would walk
    the growing tree again every few hundred allocations.  On return, exit
    or exception the collector is enabled again if, and only if, it was on
    when main was called.  argparse's usage errors exit 3, malformed input.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 2:  # argparse's usage error; --help exits 0
                raise SystemExit(EXIT_PARSE) from None
            raise
        return args.func(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
