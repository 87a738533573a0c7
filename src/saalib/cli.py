"""Command-line front end.

Commands: verify, predict, construct, catalog, scan.  Exit codes follow a
fixed contract: 0 all requested checks pass, 1 a check or expectation
failed, 2 usage, I/O or parse errors.  Reports are fixed-order key/value
lines so runs are byte-for-byte comparable.

The verify report states no precondition of its own.  Each check row runs
its check, and the row reads ``n/a`` exactly when the check raises
``NotApplicable``; any other error propagates.

The argument parser is built once per process, on the first ``main``
call, and reused by every later call.  Each subcommand's handler is bound
at that build, but the handlers look up the library functions they call
(``verify_report``, ``minimal_algebra``, ``scan`` and the rest) as module
globals at call time, so a caller that rebinds one of those names on this
module still reaches the rebound function.  The same holds for the checks
behind the verify rows: ``verify_report`` builds its table on each call.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import (
    NotApplicable,
    build_algebra,
    is_isotropic,
    is_maximal_class_criterion,
    maximal_class_structure_check,
    nilpotency_class,
    rank,
    series_report,
)
from .checks import (
    ScanConfig,
    check_duality,
    check_rank_two_structure,
    check_series_step_bounds,
    scan,
)
from .construct import (
    ConstructionError,
    catalog,
    catalog_entry,
    minimal_algebra,
    predict_min_class,
)
from .linalg import PrimeField
from .presfile import (
    MAX_N,
    ParseError,
    PresentationFile,
    emit_presentation,
    parse_presentation_file,
)

__all__ = ["main", "verify_report"]


def verify_report(
    pfile: PresentationFile,
    expect_class: int | None = None,
    expect_rank: int | None = None,
) -> tuple[str, bool]:
    """Render the fixed-order verification report; second value is overall pass."""
    pres = pfile.presentation
    alg = build_algebra(pres)
    rep = series_report(alg)
    cls = rep.nilpotency_class

    lines = [
        f"n: {pres.n}",
        f"p: {pres.field.p}",
        f"kind: {pfile.kind}",
        f"dim: {alg.dim}",
        f"triples: {len(pres.triples)}",
        f"class: {'none' if cls is None else cls}",
        f"rank: {'n/a' if rep.rank is None else rep.rank}",
    ]
    if pres.n >= 4:
        lines.append(f"predicted-class: {predict_min_class(pres.n).predicted_class}")
    else:
        lines.append("predicted-class: n/a")
    lines.append("lower-dims: " + " ".join(str(d) for d in rep.lower_dims))
    lines.append("upper-dims: " + " ".join(str(d) for d in rep.upper_dims))
    lines.append(f"center-isotropic: {'yes' if is_isotropic(alg, rep.upper_term(1)) else 'no'}")

    ok = True
    # row, check, words for a false and a true result, and whether it counts
    # toward the verdict; the criterion is reported but decides nothing
    for row, check, words, counts in (
        ("duality", check_duality, ("fail", "pass"), True),
        ("series-step-bounds", check_series_step_bounds, ("fail", "pass"), True),
        ("rank2-dims", check_rank_two_structure, ("fail", "pass"), True),
        ("maximal-class-criterion", is_maximal_class_criterion, ("no", "yes"), False),
        ("maximal-class-structure", maximal_class_structure_check, ("fail", "pass"), True),
    ):
        try:
            passed = bool(check(alg))
        except NotApplicable:
            lines.append(f"{row}: n/a")
            continue
        lines.append(f"{row}: {words[passed]}")
        ok &= passed or not counts

    if expect_class is not None:
        match = cls == expect_class
        ok &= match
        lines.append(f"expect-class: {expect_class} {'ok' if match else 'MISMATCH'}")
    if expect_rank is not None:
        match = rep.rank == expect_rank
        ok &= match
        lines.append(f"expect-rank: {expect_rank} {'ok' if match else 'MISMATCH'}")

    lines.append(f"checks: {'pass' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", ok


def _cmd_verify(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        pfile = parse_presentation_file(text)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report, ok = verify_report(pfile, args.expect_class, args.expect_rank)
    print(report, end="")
    return 0 if ok else 1


def _cmd_predict(args) -> int:
    if args.n < 4:
        print("error: predict requires --n at least 4", file=sys.stderr)
        return 2
    pred = predict_min_class(args.n)
    print(f"m={pred.m} case={pred.case} class={pred.predicted_class}")
    return 0


def _cmd_construct(args) -> int:
    if args.n < 4:
        print("error: construct requires --n at least 4", file=sys.stderr)
        return 2
    if args.n > MAX_N:
        # every file construct writes parses back
        print(f"error: construct requires --n at most {MAX_N}", file=sys.stderr)
        return 2
    try:
        field = PrimeField(args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        tset, alg = minimal_algebra(args.n, field)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = emit_presentation(alg.presentation)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"predicted-class: {predict_min_class(args.n).predicted_class}")
    print(f"class: {nilpotency_class(alg)}")
    print(f"rank: {rank(alg)}")
    print(f"triples: {len(tset.triples)}")
    print(f"wrote: {args.out}")
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        if args.r is not None or args.out is not None:
            print("error: --r/--out require a catalog entry name", file=sys.stderr)
            return 2
        for entry in catalog():
            param = "r" if entry.parameterized else "-"
            print(
                f"{entry.name} dim={entry.dim} class={entry.expected_class} "
                f"rank={entry.expected_rank} param={param}"
            )
        return 0
    try:
        entry = catalog_entry(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.r is not None and not entry.parameterized:
        print(f"error: {entry.name} takes no parameter", file=sys.stderr)
        return 2
    try:
        field = PrimeField(args.p)
        pres = entry.presentation(field, r=1 if args.r is None else args.r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit_presentation(pres)
    if args.out is None:
        print(text, end="")
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote: {args.out}")
    return 0


def _cmd_scan(args) -> int:
    try:
        cfg = ScanConfig(args.n, args.p, args.samples, args.seed, args.rank)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = scan(cfg)
    print(report.render(), end="")
    return 0 if not report.discoveries else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saa",
        description="Exact analysis of symplectic alternating algebras over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="analyze a presentation file")
    p_verify.add_argument("file")
    p_verify.add_argument("--expect-class", type=int, default=None)
    p_verify.add_argument("--expect-rank", type=int, default=None)
    p_verify.set_defaults(handler=_cmd_verify)

    p_predict = sub.add_parser("predict", help="predicted minimal class for rank 2")
    p_predict.add_argument("--n", type=int, required=True)
    p_predict.set_defaults(handler=_cmd_predict)

    p_construct = sub.add_parser("construct", help="build a minimal-class presentation")
    p_construct.add_argument("--n", type=int, required=True)
    p_construct.add_argument("--p", type=int, required=True)
    p_construct.add_argument("--out", required=True)
    p_construct.set_defaults(handler=_cmd_construct)

    p_catalog = sub.add_parser("catalog", help="list or emit known minimal presentations")
    p_catalog.add_argument("name", nargs="?", default=None)
    p_catalog.add_argument("--r", type=int, default=None)
    p_catalog.add_argument("--p", type=int, default=3)
    p_catalog.add_argument("--out", default=None)
    p_catalog.set_defaults(handler=_cmd_catalog)

    p_scan = sub.add_parser("scan", help="classify random nilpotent presentations")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--p", type=int, required=True)
    p_scan.add_argument("--samples", type=int, required=True)
    p_scan.add_argument("--seed", type=int, required=True)
    p_scan.add_argument("--rank", type=int, default=None)
    p_scan.add_argument(
        "--workers", type=int, default=1,
        help="ignored; kept so that existing command lines still run",
    )
    p_scan.set_defaults(handler=_cmd_scan)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
