"""Presentation file parsing and emission.

Line-oriented UTF-8 format; '#' starts a comment line and blank lines are
ignored:

    saa-presentation v1
    n <integer in [1, MAX_N]>
    p <prime>
    kind <general|nilpotent>
    triple <b> <b> <b> <value>     # <b> is x<i> or y<i>, value in [1, p)

Numbers are ASCII digits only.  n is at most MAX_N, so that a short file
cannot ask `saa verify` for an algebra out of all proportion to its size:
the memory a file with no triples takes grows with n.  A triple is
refused exactly when Presentation refuses it, with the same message after
the line number; `kind nilpotent` also refuses one that
validate_nilpotent_presentation refuses, so the order a triple is written
in never matters.

Emission is canonical: triple entries in coordinate order with the sign
folded into the value, records sorted by (kind, indices), values reduced.
The kind line is derived, never chosen: `kind nilpotent` exactly when
validate_nilpotent_presentation accepts the triples, so every emitted file
parses.  parse(emit(parse(text))) is the identity and emitted text is a
fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    BasisVector,
    Presentation,
    PresentationTriple,
    _check_triple,
    _is_decimal,
    _nilpotent_triple,
    validate_nilpotent_presentation,
)
from .linalg import PrimeField

__all__ = ["ParseError", "PresentationFile", "parse_presentation_file",
           "parse_presentation", "emit_presentation"]

MAGIC = "saa-presentation v1"
KINDS = ("general", "nilpotent")
# the largest n a file may hold, and `saa construct --n` may ask for
MAX_N = 100_000


class ParseError(ValueError):
    """Syntax or validation error, carrying the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class PresentationFile:
    header: str
    n: int
    p: int
    kind: str
    presentation: Presentation


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def parse_presentation_file(text: str) -> PresentationFile:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty file")
    pos = 0

    def expect(tag: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(lines[-1][0], f"missing '{tag}' line")
        number, line = lines[pos]
        parts = line.split()
        if parts[0] != tag:
            raise ParseError(number, f"expected '{tag}', got {parts[0]!r}")
        pos += 1
        return number, parts

    number, parts = expect("saa-presentation")
    if " ".join(parts) != MAGIC:
        raise ParseError(number, f"unsupported header {' '.join(parts)!r}")

    number, parts = expect("n")
    if len(parts) != 2 or not _is_decimal(parts[1]) or int(parts[1]) < 1:
        raise ParseError(number, "n must be an integer >= 1")
    n = int(parts[1])
    if n > MAX_N:
        raise ParseError(number, f"n must be at most {MAX_N}")

    number, parts = expect("p")
    if len(parts) != 2 or not _is_decimal(parts[1]):
        raise ParseError(number, "p must be an integer")
    p = int(parts[1])
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise ParseError(number, str(exc)) from None

    number, parts = expect("kind")
    if len(parts) != 2 or parts[1] not in KINDS:
        raise ParseError(number, f"kind must be one of {KINDS}")
    kind = parts[1]

    triples: list[PresentationTriple] = []
    seen: dict[frozenset, int] = {}
    for number, line in lines[pos:]:
        parts = line.split()
        if parts[0] != "triple":
            raise ParseError(number, f"expected 'triple', got {parts[0]!r}")
        if len(parts) != 5:
            raise ParseError(number, "triple needs three basis vectors and a value")
        try:
            a, b, c = map(BasisVector.parse, parts[1:4])
            if not _is_decimal(parts[4]):
                raise ValueError(f"bad value {parts[4]!r}")
            t = PresentationTriple(a, b, c, int(parts[4]))
            _check_triple(t, n, p)
            if kind == "nilpotent" and not _nilpotent_triple(t):
                raise ValueError(
                    "nilpotent presentations allow only (x_i y_j, y_k) or "
                    "(y_i y_j, y_k) with i < j < k, in coordinate order"
                )
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
        key = frozenset(t.vectors)
        if key in seen:
            raise ParseError(number, f"duplicate triple (first seen on line {seen[key]})")
        seen[key] = number
        triples.append(t)

    # each line's triple has passed Presentation's checks above, with its
    # line number, so they are not run again
    pres = Presentation._from_checked(n, field, triples)
    return PresentationFile(MAGIC, n, p, kind, pres)


def parse_presentation(text: str) -> Presentation:
    return parse_presentation_file(text).presentation


def emit_presentation(pres: Presentation) -> str:
    """Canonical text form; the kind is nilpotent iff every triple is."""
    kind = "nilpotent" if validate_nilpotent_presentation(pres) else "general"
    lines = [MAGIC, f"n {pres.n}", f"p {pres.field.p}", f"kind {kind}"]
    for t in pres.canonical_triples():
        lines.append(f"triple {t.a} {t.b} {t.c} {t.value}")
    return "\n".join(lines) + "\n"
