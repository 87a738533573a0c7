"""Presentation file grammar: parsing, canonical emission, round-trips."""

import numpy as np
import pytest

from saalib import algebra as algebra_module
from saalib import presfile as presfile_module
from saalib.algebra import (
    BasisVector,
    Presentation,
    PresentationTriple,
    build_algebra,
    nilpotency_class,
)
from saalib.checks import random_nilpotent_presentation
from saalib.construct import catalog
from saalib.linalg import PrimeField
from saalib.presfile import (
    ParseError,
    emit_presentation,
    parse_presentation,
    parse_presentation_file,
)

F3 = PrimeField(3)

P8_TEXT = """\
saa-presentation v1
# the known minimal dim-8 presentation with r = 1
n 4
p 3
kind nilpotent

triple x2 y3 y4 1
triple x1 y2 y3 1
triple y1 y2 y4 1
"""


def test_parse_p8_file():
    pfile = parse_presentation_file(P8_TEXT)
    assert pfile.n == 4 and pfile.p == 3 and pfile.kind == "nilpotent"
    assert len(pfile.presentation.triples) == 3
    assert nilpotency_class(build_algebra(pfile.presentation)) == 5


def test_parse_empty_triples_is_abelian():
    text = "saa-presentation v1\nn 3\np 5\nkind general\n"
    pres = parse_presentation(text)
    assert pres.triples == ()
    assert nilpotency_class(build_algebra(pres)) == 1


def test_parse_error_line_numbers():
    bad = "saa-presentation v1\nn 4\np 3\nkind nilpotent\ntriple x1 x1 y2 1\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(bad)
    assert err.value.line == 5
    assert "repeated" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("saa-presentation v2\nn 4\np 3\nkind general\n", "unsupported header"),
        ("saa-presentation v1\nn 0\np 3\nkind general\n", "n must be"),
        ("saa-presentation v1\nn 4\np 9\nkind general\n", "prime"),
        ("saa-presentation v1\nn 4\np 3\nkind odd\n", "kind"),
        ("saa-presentation v1\nn 4\np 3\nkind general\ntriple x1 y2 y9 1\n", "out of range"),
        ("saa-presentation v1\nn 4\np 3\nkind general\ntriple x1 y2 y3 3\n", "value"),
        ("saa-presentation v1\nn 4\np 3\nkind general\ntriple x1 y2 y3 0\n", "value"),
        (
            "saa-presentation v1\nn 4\np 3\nkind general\n"
            "triple x1 y2 y3 1\ntriple y3 y2 x1 2\n",
            "duplicate",
        ),
        ("saa-presentation v1\nn 4\np 3\nkind nilpotent\ntriple x3 y2 y4 1\n", "nilpotent"),
        ("saa-presentation v1\nn 4\np 3\nkind nilpotent\ntriple x1 x2 y4 1\n", "nilpotent"),
        ("saa-presentation v1\nn 4\np 3\nkind general\nwidget x1 y2 y3 1\n", "triple"),
        # numbers are ASCII digits only
        ("saa-presentation v1\nn \u00b2\np 3\nkind general\n", "line 2: n must be"),
        ("saa-presentation v1\nn 4\np \u00b3\nkind general\n", "line 3: p must be"),
        (
            "saa-presentation v1\nn 4\np 3\nkind general\ntriple x\u00b2 y2 y3 1\n",
            "line 5: bad basis vector token",
        ),
        (
            "saa-presentation v1\nn 4\np 3\nkind general\ntriple x1 y2 y3 1_0\n",
            "line 5: bad value",
        ),
        (
            "saa-presentation v1\nn 4\np 3\nkind general\ntriple x1 y2 y3 +2\n",
            "line 5: bad value",
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "a,b,c,value",
    [
        ("x1", "y2", "y9", 1),  # index out of range
        ("x1", "x1", "y2", 1),  # repeated vector
        ("x1", "y2", "y3", 0),
        ("x1", "y2", "y3", 3),  # value p
    ],
)
def test_parser_refuses_a_triple_as_presentation_does(a, b, c, value):
    triple = PresentationTriple(*map(BasisVector.parse, (a, b, c)), value)
    with pytest.raises(ValueError) as direct:
        Presentation(4, F3, (triple,))
    assert type(direct.value) is ValueError
    text = f"saa-presentation v1\nn 4\np 3\nkind general\ntriple {a} {b} {c} {value}\n"
    with pytest.raises(ParseError) as parsed:
        parse_presentation(text)
    assert parsed.value.line == 5
    assert str(parsed.value) == f"line 5: {direct.value}"


def test_parser_checks_each_triple_once(monkeypatch):
    # the parser checks each line's triple, with its line number, and the
    # Presentation it returns is not checked again; it equals the one that
    # Presentation(...), which checks every triple, makes of the same triples
    calls = []

    def counted(t, n, p):
        calls.append(t)
        return check(t, n, p)

    check = presfile_module._check_triple
    monkeypatch.setattr(presfile_module, "_check_triple", counted)
    monkeypatch.setattr(algebra_module, "_check_triple", counted)
    pres = parse_presentation(P8_TEXT)
    assert calls == list(pres.triples) and len(calls) == 3
    assert pres == Presentation(pres.n, pres.field, pres.triples)
    assert len(calls) == 6


def test_emit_is_canonical_and_stable():
    pfile = parse_presentation_file(P8_TEXT)
    text = emit_presentation(pfile.presentation)
    lines = text.splitlines()
    assert lines[0] == "saa-presentation v1"
    assert lines[4:] == ["triple x1 y2 y3 1", "triple x2 y3 y4 1", "triple y1 y2 y4 1"]
    assert emit_presentation(parse_presentation(text)) == text


def test_emit_derives_kind():
    general = Presentation.build(2, F3, [("x1", "x2", "y2", 1)])
    assert "kind general" in emit_presentation(general)
    nil = Presentation.build(4, F3, [("x1", "y2", "y3", 1)])
    assert "kind nilpotent" in emit_presentation(nil)
    # the kind is that of the emitted, canonical triples
    scrambled = Presentation.build(4, F3, [("x1", "y3", "y2", 1)])
    assert "kind nilpotent" in emit_presentation(scrambled)


def test_emit_normalizes_entry_order_with_sign():
    # (y2 x1, y3) = 1 equals (x1 y2, y3) = -1 after the swap
    scrambled = Presentation.build(4, F3, [("y2", "x1", "y3", 1)])
    text = emit_presentation(scrambled)
    assert "triple x1 y2 y3 2" in text
    back = parse_presentation(text)
    alg_a = build_algebra(scrambled)
    alg_b = build_algebra(back)
    assert alg_a.tensor == alg_b.tensor


def test_roundtrip_catalog():
    for entry in catalog():
        pres = entry.presentation(F3, r=1)
        text = emit_presentation(pres)
        again = parse_presentation(text)
        assert again.canonical_triples() == pres.canonical_triples()
        assert emit_presentation(again) == text


def test_roundtrip_random_presentations():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        pres = random_nilpotent_presentation(n, F3, rng)
        text = emit_presentation(pres)
        again = parse_presentation(text)
        assert again.canonical_triples() == pres.canonical_triples()
        assert emit_presentation(again) == text
