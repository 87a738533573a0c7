"""Default CLI stdout stays byte-identical to the recorded golden files.

tests/golden/ holds the stdout of `saa verify` on every catalog entry over
GF(3) (r = 1 and 2 for the parameterized ones), the stdout and written file
of `saa construct --n N --p 3` for N = 4..12 and 14..16 (n = 13 has no
construction yet) and for N = 24, 40, 41, 68 and 120, which cover case
ONE, both sides of the ONE/TWO boundary 2n = omega(4) + omega(5) = 80,
case TWO and an algebra of dimension 240, the stdout of four seeded
scans, the stdout of `saa verify` on seeded random nilpotent
presentations for n = 5..8, and the canonical bases of
`isotropic_ideal_chain` on the minimal constructions over GF(3) for
n = 8..12, 14..16, 24 (case ONE) and 41, 68 and 120 (case TWO), and on every
catalog entry over GF(3) with r = 1.  `fingerprints.txt` holds
`construct.fingerprint`, one line per algebra, of every catalog entry over
GF(3), GF(5) and GF(7), with every unit r for the parameterized ones, and
of the minimal constructions over GF(3) for n = 8..12 and 14..16.  Two
hand-written verify
files pin the report's other branches: the n = 3 file over GF(3) with no
triples, whose centre is all of L and so not isotropic (the only case
that prints `center-isotropic: no`), and the `kind general` n = 2 file
over GF(3) with the one triple x1 y1 x2, which is not nilpotent
(`duality: n/a`).  Two more pin the branches no catalog or random file
reaches: P8-2-1 over GF(3) with each index i renamed 5 - i, a `kind
general` file of maximal class whose criterion reads n/a at dimension 8
while its structure check passes, and the `kind general` n = 4 file with
the triples x1 y1 x2 and x3 y3 y4, which has a 2-dimensional centre at
dimension 8 but is not nilpotent, so every check reads n/a.  The random
presentations are samples 0..3 of seed 2023 over GF(3), where every n has
samples of maximal class and, below n = 8, samples of lower class; all four at n = 8
are of maximal class, so every orthogonality test of the maximal-class
structure check is pinned.  Samples 0 and 1 at n = 8 over GF(2**31 - 1) are added.
The scans cover a rank-2 filter at n = 6; n = 3, where the predicted
class, min-class-rank2 and the criterion mismatches read n/a; n = 4 over
GF(2) with three rank rows; and a rank-3 filter at n = 5, whose
min-class-rank2 and criterion mismatches count every sample, not only
those the filter keeps.
Construct writes to a relative path, so each case runs in an empty working
directory.  To record the files again after an intended output
change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from functools import partial
from pathlib import Path

import pytest

from saalib.algebra import Presentation, build_algebra, isotropic_ideal_chain
from saalib.checks import ScanConfig, sample_presentation
from saalib.cli import main
from saalib.construct import catalog, catalog_entry, construct_minimal, fingerprint
from saalib.linalg import PrimeField
from saalib.presfile import emit_presentation

GOLDEN = Path(__file__).resolve().parent / "golden"
RANDOM_SEED = 2023


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _verify_case(name: str, r: int | None) -> str:
    return f"verify-{name}" + ("" if r is None else f"-r{r}")


def _verify(name: str, r: int | None) -> dict[str, str]:
    argv = ["catalog", name, "--p", "3", "--out", "in.saa"]
    if r is not None:
        argv += ["--r", str(r)]
    assert _run(argv)[0] == 0
    code, out = _run(["verify", "in.saa"])
    assert code == 0
    return {f"{_verify_case(name, r)}.txt": out}


def _construct(n: int) -> dict[str, str]:
    out_name = f"construct-n{n}.saa"
    code, out = _run(["construct", "--n", str(n), "--p", "3", "--out", out_name])
    assert code == 0
    return {f"construct-n{n}.txt": out, out_name: Path(out_name).read_text(encoding="utf-8")}


def _scan_case(n: int, p: int, samples: int, seed: int, rank: int | None) -> str:
    return f"scan-n{n}-p{p}-samples{samples}-seed{seed}" + ("" if rank is None else f"-rank{rank}")


def _scan(n: int, p: int, samples: int, seed: int, rank: int | None) -> dict[str, str]:
    argv = ["scan", "--n", str(n), "--p", str(p), "--samples", str(samples), "--seed", str(seed)]
    if rank is not None:
        argv += ["--rank", str(rank)]
    code, out = _run(argv)
    assert code == 0
    return {f"{_scan_case(n, p, samples, seed, rank)}.txt": out}


def _verify_random(n: int, p: int, index: int) -> dict[str, str]:
    cfg = ScanConfig(n=n, p=p, samples=1, seed=RANDOM_SEED)
    Path("in.saa").write_text(emit_presentation(sample_presentation(cfg, index)), encoding="utf-8")
    code, out = _run(["verify", "in.saa"])
    assert code == 0
    return {f"verify-random-n{n}-p{p}-i{index}.txt": out}


def _verify_text(name: str, text: str) -> dict[str, str]:
    Path("in.saa").write_text(text, encoding="utf-8")
    code, out = _run(["verify", "in.saa"])
    assert code == 0
    return {f"verify-{name}.txt": out}


def _chain(name: str, pres: Presentation) -> dict[str, str]:
    lines = []
    for i, term in enumerate(isotropic_ideal_chain(build_algebra(pres))):
        rows = ("".join(map(str, row)) for row in term.basis)
        lines.append(f"I_{i}: " + " ".join(rows) + "\n")
    return {f"chain-{name}-p3.txt": "".join(lines)}


def _chain_construct(n: int) -> dict[str, str]:
    return _chain(f"construct-n{n}", construct_minimal(n, PrimeField(3))[1])


def _chain_catalog(name: str) -> dict[str, str]:
    return _chain(f"catalog-{name}", catalog_entry(name).presentation(PrimeField(3), r=1))


def _fingerprints() -> dict[str, str]:
    lines = []
    for p in (3, 5, 7):
        field = PrimeField(p)
        for e in catalog():
            for r in range(1, p) if e.parameterized else (1,):
                alg = build_algebra(e.presentation(field, r=r))
                lines.append(f"{e.name} p={p} r={r}: {fingerprint(alg)!r}\n")
    for n in FINGERPRINT_CONSTRUCT_N:
        alg = build_algebra(construct_minimal(n, PrimeField(3))[1])
        lines.append(f"construct-n{n} p=3: {fingerprint(alg)!r}\n")
    return {"fingerprints.txt": "".join(lines)}


CONSTRUCT_N = [*range(4, 13), 14, 15, 16]
LARGE_CONSTRUCT_N = [24, 40, 41, 68, 120]
CHAIN_CONSTRUCT_N = [n for n in CONSTRUCT_N if n >= 8] + [24, 41, 68, 120]
FINGERPRINT_CONSTRUCT_N = [n for n in CONSTRUCT_N if n >= 8]
RANDOM = [(n, 3, i) for n in range(5, 9) for i in range(4)] + [(8, 2147483647, i) for i in (0, 1)]
SCANS = [(3, 3, 40, 5, None), (4, 2, 60, 5, None), (5, 3, 60, 5, 3)]
VERIFY = [(e.name, r) for e in catalog() for r in ((1, 2) if e.parameterized else (None,))]
HEADER = "saa-presentation v1\n"
VERIFY_TEXT = {
    "abelian-n3-p3": HEADER + "n 3\np 3\nkind nilpotent\n",
    "general-n2-p3": HEADER + "n 2\np 3\nkind general\ntriple x1 y1 x2 1\n",
    "relabelled-P8-2-1-p3": HEADER + "n 4\np 3\nkind general\n"
    "triple x3 y2 y1 1\ntriple x4 y3 y2 1\ntriple y4 y3 y1 1\n",
    "general-n4-p3": HEADER + "n 4\np 3\nkind general\ntriple x1 y1 x2 1\ntriple x3 y3 y4 1\n",
}
CASES = {
    **{_verify_case(name, r): partial(_verify, name, r) for name, r in VERIFY},
    **{f"construct-n{n}": partial(_construct, n) for n in CONSTRUCT_N + LARGE_CONSTRUCT_N},
    "scan": partial(_scan, 6, 3, 40, 42, 2),
    **{_scan_case(*args): partial(_scan, *args) for args in SCANS},
    **{f"verify-random-n{n}-p{p}-i{i}": partial(_verify_random, n, p, i) for n, p, i in RANDOM},
    **{f"verify-{name}": partial(_verify_text, name, text) for name, text in VERIFY_TEXT.items()},
    **{f"chain-construct-n{n}": partial(_chain_construct, n) for n in CHAIN_CONSTRUCT_N},
    **{f"chain-catalog-{e.name}": partial(_chain_catalog, e.name) for e in catalog()},
    "fingerprints": _fingerprints,
}


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in CASES[case]().items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for produce in CASES.values():
            for name, text in produce().items():
                (GOLDEN / name).write_text(text, encoding="utf-8")
