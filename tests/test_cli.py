"""Black-box CLI behavior: reports, exit codes, determinism."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from saalib import algebra, checks, cli, construct, linalg
from saalib.algebra import (
    NotApplicable,
    build_algebra,
    is_maximal_class_criterion,
    maximal_class_structure_check,
    nilpotency_class,
    series_report,
)
from saalib.checks import (
    CheckResult,
    check_duality,
    check_rank_two_structure,
    check_series_step_bounds,
)
from saalib.cli import main
from saalib.construct import catalog, minimal_algebra
from saalib.linalg import PrimeField
from saalib.presfile import emit_presentation, parse_presentation_file

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN_P8_REPORT = """\
n: 4
p: 3
kind: nilpotent
dim: 8
triples: 3
class: 5
rank: 2
predicted-class: 5
lower-dims: 8 6 5 3 2 0
upper-dims: 0 2 3 5 6 8
center-isotropic: yes
duality: pass
series-step-bounds: pass
rank2-dims: pass
maximal-class-criterion: yes
maximal-class-structure: pass
checks: pass
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_catalog_file(tmp_path, name, r=None, p=3):
    path = tmp_path / f"{name}.saa"
    argv = ["catalog", name, "--p", str(p), "--out", str(path)]
    if r is not None:
        argv += ["--r", str(r)]
    assert main(argv) == 0
    return path


def test_verify_golden_p8_report(tmp_path, capsys):
    path = write_catalog_file(tmp_path, "P8-2-1", r=1)
    capsys.readouterr()
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    assert out == GOLDEN_P8_REPORT


def test_verify_reports_byte_identical_across_runs(tmp_path, capsys):
    for entry in catalog():
        path = write_catalog_file(tmp_path, entry.name, r=1 if entry.parameterized else None)
        capsys.readouterr()
        first = run(capsys, "verify", str(path))
        second = run(capsys, "verify", str(path))
        assert first == second
        assert first[0] == 0


def test_verify_expectations(tmp_path, capsys):
    path = write_catalog_file(tmp_path, "P16-2-1")
    capsys.readouterr()
    code, out = run(capsys, "verify", str(path), "--expect-class", "7")
    assert code == 0 and "expect-class: 7 ok" in out

    path10 = write_catalog_file(tmp_path, "P10-2-1")
    capsys.readouterr()
    code, out = run(capsys, "verify", str(path10))
    assert code == 0 and "class: 6" in out

    abelian = tmp_path / "abelian.saa"
    abelian.write_text("saa-presentation v1\nn 4\np 3\nkind nilpotent\n")
    code, out = run(capsys, "verify", str(abelian), "--expect-class", "5")
    assert code == 1 and "MISMATCH" in out


def test_verify_criterion_ignores_the_order_triples_are_written_in(tmp_path, capsys):
    # a nilpotent presentation written out of order, under either kind, reads
    # as its canonical text: the parser and the criterion judge each triple
    # with its vectors in coordinate order
    def text(kind):
        return (
            f"saa-presentation v1\nn 4\np 3\nkind {kind}\n"
            "triple y3 x1 y2 1\ntriple y4 y1 y2 2\ntriple x2 y4 y3 1\n"
        )

    canonical = tmp_path / "canonical.saa"
    canonical.write_text(emit_presentation(parse_presentation_file(text("general")).presentation))
    assert "kind nilpotent\n" in canonical.read_text()
    code, out = run(capsys, "verify", str(canonical))
    assert code == 0
    assert "maximal-class-criterion: yes\n" in out
    for kind in ("general", "nilpotent"):
        reordered = tmp_path / f"{kind}.saa"
        reordered.write_text(text(kind))
        # the files differ only in the kind that verify echoes
        expected = out.replace("kind: nilpotent\n", f"kind: {kind}\n")
        assert run(capsys, "verify", str(reordered)) == (code, expected), kind


HEADER = "saa-presentation v1\n"
ABELIAN_N3 = HEADER + "n 3\np 3\nkind nilpotent\n"
# not nilpotent, with a 2-dimensional centre at dimension 8
GENERAL_N4 = HEADER + "n 4\np 3\nkind general\ntriple x1 y1 x2 1\ntriple x3 y3 y4 1\n"
# P8-2-1 with each index i renamed 5 - i: maximal class, no nilpotent presentation
RELABELLED_P8 = (
    HEADER + "n 4\np 3\nkind general\n"
    "triple x3 y2 y1 1\ntriple x4 y3 y2 1\ntriple y4 y3 y1 1\n"
)
P10_2_1 = emit_presentation(construct.catalog_entry("P10-2-1").presentation(PrimeField(3)))


@pytest.mark.parametrize(
    "row, check, text",
    [
        ("duality", check_duality, GENERAL_N4),
        ("series-step-bounds", check_series_step_bounds, GENERAL_N4),
        ("rank2-dims", check_rank_two_structure, GENERAL_N4),
        ("rank2-dims", check_rank_two_structure, ABELIAN_N3),
        ("maximal-class-criterion", is_maximal_class_criterion, ABELIAN_N3),
        ("maximal-class-criterion", is_maximal_class_criterion, RELABELLED_P8),
        ("maximal-class-structure", maximal_class_structure_check, ABELIAN_N3),
        ("maximal-class-structure", maximal_class_structure_check, GENERAL_N4),
        ("maximal-class-structure", maximal_class_structure_check, P10_2_1),
    ],
)
def test_verify_reads_n_a_exactly_where_the_check_does_not_apply(row, check, text):
    pfile = parse_presentation_file(text)
    report, _ = cli.verify_report(pfile)
    assert f"\n{row}: n/a\n" in report
    with pytest.raises(NotApplicable):
        check(build_algebra(pfile.presentation))


def test_verify_lets_a_fault_inside_a_check_propagate(tmp_path, monkeypatch):
    # only NotApplicable reads as n/a; any other ValueError is a fault
    def boom(alg):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "check_duality", boom)
    pfile = parse_presentation_file(write_catalog_file(tmp_path, "P8-2-1", r=1).read_text())
    with pytest.raises(ValueError, match="boom") as info:
        cli.verify_report(pfile)
    assert not isinstance(info.value, NotApplicable)


def test_verify_reaches_a_check_rebound_on_the_module(tmp_path, monkeypatch, capsys):
    path = write_catalog_file(tmp_path, "P8-2-1", r=1)
    monkeypatch.setattr(cli, "check_duality", lambda alg: CheckResult("duality", "algebra", False))
    capsys.readouterr()
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    assert out == GOLDEN_P8_REPORT.replace("duality: pass", "duality: fail").replace(
        "checks: pass", "checks: FAIL"
    )


def test_verify_io_and_parse_errors(tmp_path, capsys):
    code = main(["verify", str(tmp_path / "missing.saa")])
    capsys.readouterr()
    assert code == 2
    bad = tmp_path / "bad.saa"
    bad.write_text("not a presentation\n")
    code = main(["verify", str(bad)])
    capsys.readouterr()
    assert code == 2
    # a byte that is not UTF-8 ended in a UnicodeDecodeError traceback
    binary = tmp_path / "binary.saa"
    binary.write_bytes(b"saa-presentation v1\nn 4\xff\n")
    code = main(["verify", str(binary)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "utf-8" in err and "Traceback" not in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["predict", "--n", "3"]) == 2
    capsys.readouterr()


def test_primes_above_int64_bound_exit_2(tmp_path, capsys):
    too_large = "3037000507"
    assert main(["scan", "--n", "6", "--p", too_large, "--samples", "3", "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    out = str(tmp_path / "c.saa")
    assert main(["construct", "--n", "4", "--p", too_large, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # 10**18 + 3 is refused at once, before any primality test
    for p in (too_large, "1000000000000000003"):
        path = tmp_path / f"p{p}.saa"
        path.write_text(f"saa-presentation v1\nn 4\np {p}\nkind nilpotent\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_largest_exact_prime_accepted(tmp_path, capsys):
    largest = "3037000493"
    path = write_catalog_file(tmp_path, "P8-2-1", p=largest)
    capsys.readouterr()
    code, out = run(capsys, "verify", str(path))
    assert code == 0 and "class: 5\n" in out and out.endswith("checks: pass\n")
    code, out = run(capsys, "scan", "--n", "4", "--p", largest, "--samples", "3", "--seed", "1")
    assert code == 0 and "classified: 3\n" in out


def test_predict_output(capsys):
    code, out = run(capsys, "predict", "--n", "8")
    assert code == 0
    assert out == "m=3 case=ONE class=7\n"
    code, out = run(capsys, "predict", "--n", "5")
    assert out == "m=2 case=TWO class=6\n"


def test_construct_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "c4.saa"
    code, out = run(capsys, "construct", "--n", "4", "--p", "3", "--out", str(out_path))
    assert code == 0
    assert "class: 5" in out
    pfile = parse_presentation_file(out_path.read_text())
    assert pfile.kind == "nilpotent"
    capsys.readouterr()
    code, out = run(capsys, "verify", str(out_path), "--expect-class", "5", "--expect-rank", "2")
    assert code == 0


def test_construct_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.saa", tmp_path / "b.saa"
    run(capsys, "construct", "--n", "6", "--p", "5", "--out", str(a))
    run(capsys, "construct", "--n", "6", "--p", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_construct_analyses_the_verified_algebra(tmp_path, monkeypatch, capsys):
    # the report is read off the algebra the construction verified, not a rebuilt one
    built = []
    build = construct.build_algebra

    def counted(pres):
        built.append(pres)
        return build(pres)

    monkeypatch.setattr(construct, "build_algebra", counted)
    monkeypatch.setattr(cli, "build_algebra", counted)
    code, out = run(capsys, "construct", "--n", "16", "--p", "3", "--out", str(tmp_path / "c.saa"))
    assert code == 0 and "class: 9\nrank: 2\n" in out
    assert len(built) == 1


def test_construct_computes_no_upper_series(tmp_path, monkeypatch, capsys):
    # class and rank need the lower series and the centre, never the upper series
    calls = []
    upper = algebra.upper_central_series

    def counted(alg):
        calls.append(alg)
        return upper(alg)

    monkeypatch.setattr(algebra, "upper_central_series", counted)
    code, out = run(capsys, "construct", "--n", "16", "--p", "3", "--out", str(tmp_path / "c.saa"))
    assert code == 0 and "class: 9\nrank: 2\n" in out
    _, alg = construct.minimal_algebra(16, PrimeField(3))
    assert nilpotency_class(alg) == 9
    assert calls == []


def test_monomial_algebras_are_analysed_with_no_elimination(tmp_path, monkeypatch, capsys):
    # every construction and catalog entry is monomial, so construct's
    # self-check, verify's report and a large series report read every
    # series term and the centre off sets of coordinates: with every
    # elimination and kernel refused they still succeed, and their output is
    # the recorded one
    golden = Path(__file__).resolve().parent / "golden"

    def refused(*args):
        raise AssertionError("a monomial algebra was eliminated")

    for module in (algebra, linalg, checks):
        monkeypatch.setattr(module, "_rref_rows", refused)
    for module in (algebra, linalg):
        monkeypatch.setattr(module, "_orthogonal", refused)
        monkeypatch.setattr(module, "_keyed_orthogonal", refused)
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "construct", "--n", "16", "--p", "3", "--out", "construct-n16.saa")
    assert code == 0
    assert out == (golden / "construct-n16.txt").read_text(encoding="utf-8")
    assert run(capsys, "catalog", "P16-2-1", "--p", "3", "--out", "in.saa")[0] == 0
    code, out = run(capsys, "verify", "in.saa")
    assert code == 0
    assert out == (golden / "verify-P16-2-1.txt").read_text(encoding="utf-8")
    code, out = run(capsys, "verify", str(golden / "construct-n16.saa"))
    assert code == 0 and "checks: pass\n" in out
    report = series_report(minimal_algebra(1000, PrimeField(3))[1])
    assert (report.nilpotency_class, report.rank) == (11, 2)


def test_construct_rejects_small_n(capsys):
    assert main(["construct", "--n", "3", "--p", "3", "--out", "/dev/null"]) == 2
    capsys.readouterr()


def test_construct_without_candidates_exits_1(tmp_path):
    # n = 13 is a known gap of the construction: its low generators cannot
    # cover the outer pair shell
    out = tmp_path / "c13.saa"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "saalib.cli", "construct", "--n", "13", "--p", "3"]
    proc = subprocess.run(argv + ["--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: no minimal construction found for n=13 over GF(3): "
        "the low generators cannot cover the outer pair shell\n"
    )
    assert not out.exists()


def test_catalog_listing(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P8-2-1 dim=8 class=5 rank=2 param=r"
    assert len(lines) == 6


def test_catalog_emission(capsys):
    code, out = run(capsys, "catalog", "P10-2-2", "--r", "1")
    assert code == 0
    assert out.count("triple") == 4
    assert "triple x3 y4 y5 1" in out


def test_catalog_errors(capsys):
    assert main(["catalog", "P8-2-1", "--r", "0"]) == 2
    capsys.readouterr()
    assert main(["catalog", "NOPE"]) == 2
    capsys.readouterr()
    assert main(["catalog", "P12-2-1", "--r", "2"]) == 2
    capsys.readouterr()
    assert main(["catalog", "--r", "2"]) == 2
    capsys.readouterr()


def test_scan_cli_deterministic_across_workers(capsys):
    args = ["scan", "--n", "4", "--p", "3", "--samples", "40", "--seed", "11", "--rank", "2"]
    code, first = run(capsys, *args)
    assert code == 0
    _, second = run(capsys, *args, "--workers", "4")
    assert first == second
    assert "min-class-rank2: 5" in first
    assert "status: no counterexample found" in first


def test_scan_cli_rejects_bad_config(capsys):
    assert main(["scan", "--n", "4", "--p", "4", "--samples", "5", "--seed", "0"]) == 2
    capsys.readouterr()
    assert main(["scan", "--n", "4", "--p", "3", "--samples", "0", "--seed", "0"]) == 2
    capsys.readouterr()
    assert main(["scan", "--n", "4", "--p", "3", "--samples", "5", "--seed", "-5"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"


def test_parser_built_once_across_commands(tmp_path, monkeypatch, capsys):
    # one parser tree per process: the top-level parser and one per subcommand
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = write_catalog_file(tmp_path, "P8-2-1", r=1)
    out_path = tmp_path / "c4.saa"
    assert main(["verify", str(path)]) == 0
    assert main(["construct", "--n", "4", "--p", "3", "--out", str(out_path)]) == 0
    assert main(["predict", "--n", "8"]) == 0
    assert main(["catalog"]) == 0
    assert main(["scan", "--n", "4", "--p", "3", "--samples", "3", "--seed", "1"]) == 0
    capsys.readouterr()
    assert built.count("saa") == 1
    assert len(built) == 6

    for argv, usage in (
        (["verify"], "usage: saa verify"),
        (["construct", "--n", "4", "--p", "3"], "usage: saa construct"),
        (["nonsense"], "usage: saa "),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(usage)
    code, out = run(capsys, "predict", "--n", "8")
    assert code == 0 and out == "m=3 case=ONE class=7\n"
    assert len(built) == 6


def test_reused_parser_help_matches_a_fresh_parser(capsys):
    main(["predict", "--n", "8"])
    capsys.readouterr()
    texts = []
    for parse in (main, cli._build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(["scan", "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: saa scan")


def test_import_builds_no_parser():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import saalib, saalib.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "0\n"


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["verify", str(SRC.parent / "tests" / "golden" / "construct-n8.saa")], False),
        (["construct", "--n", "8", "--p", "3", "--out", "OUT"], False),
        (["catalog"], False),
        (["catalog", "P8-2-1", "--out", "OUT"], False),
        (["predict", "--n", "8"], False),
        (["scan", "--n", "4", "--p", "3", "--samples", "2", "--seed", "1"], True),
    ],
    ids=["verify", "construct", "catalog", "catalog-emit", "predict", "scan"],
)
def test_only_scan_loads_numpy(tmp_path, argv, loads_numpy):
    # the package computes on Python ints; numpy draws scan's random streams
    # alone, so every other command runs to the end without loading it
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [str(tmp_path / "out.saa") if a == "OUT" else a for a in argv]
    code = (
        "import sys; from saalib.cli import main; "
        "print(main(sys.argv[1:]), 'numpy' in sys.modules)"
    )
    argv = [sys.executable, "-c", code, *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_numpy}"
