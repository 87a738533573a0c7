"""Default CLI stdout stays byte-identical to the recorded golden files.

tests/golden/ holds the stdout of `saa verify` on every catalog entry over
GF(3) (r = 1 and 2 for the parameterized ones), the stdout and written file
of `saa construct --n N --p 3` for N = 4..12, and the stdout of one seeded
scan.  Construct writes to a relative path, so each case runs in an empty
working directory.  To record the files again after an intended output
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

from saalib.cli import main
from saalib.construct import catalog

GOLDEN = Path(__file__).resolve().parent / "golden"


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


def _scan() -> dict[str, str]:
    argv = ["scan", "--n", "6", "--p", "3", "--samples", "40", "--seed", "42", "--rank", "2"]
    code, out = _run(argv)
    assert code == 0
    return {"scan-n6-p3-samples40-seed42-rank2.txt": out}


VERIFY = [(e.name, r) for e in catalog() for r in ((1, 2) if e.parameterized else (None,))]
CASES = {
    **{_verify_case(name, r): partial(_verify, name, r) for name, r in VERIFY},
    **{f"construct-n{n}": partial(_construct, n) for n in range(4, 13)},
    "scan": _scan,
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
