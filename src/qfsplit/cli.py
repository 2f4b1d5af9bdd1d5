"""Command-line front end: check, batch, witt.

Exit codes: 0 = analyzed, 2 = input error; `witt identity` exits 1 when the
verification fails (which would indicate an arithmetic bug, not bad input).
`batch` writes one report per catalog line, in input order.  `witt add` and
`witt mul` accept operands of length at most 8 (witt.LENGTH_CAP).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import accumulate

from . import __version__
from .report import (
    CatalogEntry,
    infer_variables,
    load_catalog,
    parse_doublecover,
    parse_hypersurface,
    run_entry,
    summarize,
)
from .ring import PolyRing
from .witt import WittVector, delta_carry, teichmuller_identity_sides


class InputError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfsplit",
        description="Decide F-splitness and 2-quasi-F-splitness of hypersurface singularities.",
    )
    parser.add_argument("--version", action="version", version=f"qfsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="analyze a single polynomial")
    check.add_argument("--p", type=int, required=True, help="prime characteristic")
    check.add_argument(
        "--kind", choices=("hypersurface", "doublecover"), default="hypersurface"
    )
    check.add_argument("--vars", help="comma-separated variables (hypersurface only)")
    check.add_argument("--json", action="store_true", help="emit the JSON report")
    check.add_argument("--explain", action="store_true", help="include intermediates")
    check.add_argument("--timings", action="store_true", help="include timing_ms (needs --json)")
    check.add_argument("poly", help="polynomial text (f, or g for a double cover)")

    batch = sub.add_parser("batch", help="analyze a JSON Lines catalog")
    batch.add_argument("catalog", help="catalog path (JSON Lines of entries)")
    batch.add_argument("-o", "--output", help="report path (default: stdout)")
    batch.add_argument("--explain", action="store_true")
    batch.add_argument("--timings", action="store_true")

    witt = sub.add_parser("witt", help="Witt vector calculator")
    witt.add_argument(
        "subcommand", choices=("add", "mul", "teich", "delta", "identity")
    )
    witt.add_argument("--p", type=int, required=True)
    witt.add_argument("--n", type=int, help="Witt length for add, mul and teich (default 2)")
    witt.add_argument("operands", nargs="+", help="polynomials, [f] lifts, or (a0; a1) vectors")
    return parser


def _ring_for(p: int, texts: list[str]) -> PolyRing:
    # constant operands still need a ring context
    return PolyRing(p, infer_variables(" ".join(texts)) or ("x",))


def _closes_at_end(text: str, opening: str, closing: str) -> bool:
    """Whether text starts with opening and that bracket closes at its last character."""
    depths = accumulate((ch == opening) - (ch == closing) for ch in text)
    closed_at = next((i for i, d in enumerate(depths, 1) if not d), 0)
    return text.startswith(opening) and closed_at == len(text)


def _witt_operand(text: str) -> tuple[str, list[str]]:
    """Split a stripped witt operand into its form, "[" for a lift [f], "("
    for a vector (a0; a1; ...) or "" for a bare polynomial, and its
    component texts.  A lift or a vector is a text whose bracket at
    position 0 closes at its last character, so [x]*[y] and (x+1)*(y+1)
    are polynomials."""
    if _closes_at_end(text, "[", "]"):
        return "[", [text[1:-1]]
    if _closes_at_end(text, "(", ")"):
        return "(", text[1:-1].split(";")
    return "", [text]


def _cmd_check(args) -> int:
    if args.timings and not args.json:
        raise InputError("--timings needs --json: the text summary shows no time")
    if args.kind == "doublecover" and args.vars is not None:
        raise InputError("--vars is for hypersurfaces: a double cover is always in x, y")
    entry = CatalogEntry(
        name="cli", p=args.p, kind=args.kind, poly=args.poly, tags=()
    )
    # surface input errors before reporting, matching the exit-code contract
    if args.kind == "hypersurface":
        names = None
        if args.vars:
            names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
        parsed = parse_hypersurface(args.p, args.poly, names)
    else:
        parsed = parse_doublecover(args.p, args.poly)
    report = run_entry(entry, explain=args.explain, parsed=parsed)
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json(include_timing=args.timings))
    else:
        print(report.summary())
        if args.explain and report.intermediates:
            print(json.dumps(report.intermediates, sort_keys=True, indent=2))
    return 0


def _timing_summary(reports, wall_ms: float) -> str:
    """Summary suffix under --timings: batch wall time and the 3 slowest entries."""
    text = f"; wall {wall_ms:.3f} ms"
    slowest = sorted(reports, key=lambda r: -r.timing_ms)[:3]
    if slowest:
        text += "; slowest: " + ", ".join(f"{r.entry.name} {r.timing_ms} ms" for r in slowest)
    return text


def _cmd_batch(args) -> int:
    start = time.perf_counter()
    reports = [run_entry(entry, explain=args.explain) for entry in load_catalog(args.catalog)]
    lines = [r.to_json(include_timing=args.timings) for r in reports]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    else:
        for line in lines:
            print(line)
    summary = summarize(reports)
    if args.timings:
        summary += _timing_summary(reports, (time.perf_counter() - start) * 1000.0)
    print(summary, file=sys.stderr if not args.output else sys.stdout)
    return 0


def _cmd_witt(args) -> int:
    sub = args.subcommand
    operands = [text.strip() for text in args.operands]

    if sub in ("add", "mul"):
        if len(operands) != 2:
            raise InputError(f"witt {sub} takes exactly two operands")
        parsed = [_witt_operand(text) for text in operands]
        ring = _ring_for(args.p, [c for _, comps in parsed for c in comps])
        n = args.n
        for text, (form, comps) in zip(operands, parsed):
            if not form:
                raise InputError(f"Witt operand must be [poly] or (a0; a1; ...): {text!r}")
            if form == "(":
                if n is None:
                    n = len(comps)
                elif n != len(comps):
                    raise InputError(f"operand {text!r} has length {len(comps)}, expected {n}")
        n = 2 if n is None else n
        u, v = (
            WittVector.teichmuller(ring.parse(comps[0]), n)
            if form == "["
            else WittVector(ring, [ring.parse(c) for c in comps])
            for form, comps in parsed
        )
        result = u + v if sub == "add" else u * v
        print(result.render())
        return 0

    if sub != "teich" and args.n is not None:
        raise InputError(f"witt {sub} takes no --n")
    if len(operands) != 1:
        raise InputError(f"witt {sub} takes exactly one operand")
    _, comps = _witt_operand(operands[0])
    if len(comps) != 1:
        raise InputError(f"witt {sub} takes one polynomial, not a vector")
    ring = _ring_for(args.p, comps)
    f = ring.parse(comps[0])

    if sub == "teich":
        print(WittVector.teichmuller(f, 2 if args.n is None else args.n).render())
        return 0
    if sub == "delta":
        print(delta_carry(f).render())
        return 0
    # identity: verify [f] = f([x]) + V(delta(f)) in W_2 and show both sides
    lhs, rhs = teichmuller_identity_sides(f)
    status = "PASS" if lhs == rhs else "FAIL"
    print(f"[f]            = {lhs.render()}")
    print(f"f([x]) + V(d)  = {rhs.render()}")
    print(status)
    return 0 if status == "PASS" else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "batch":
            return _cmd_batch(args)
        return _cmd_witt(args)
    except (ValueError, OSError) as exc:  # input errors all subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
