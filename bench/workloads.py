"""The four benchmark workloads and their correctness oracles.

Each workload turns the run seed into cycles of ops.  An op calls one of
saalib's public entry points the way the ``saa`` CLI or a library user
does and returns the output; its check returns ``None`` when the output
is right and a one-line reason when it is wrong.  Inputs are made when a
cycle is built, before any op of the cycle is timed.

saalib is passed in as a module and every call goes through a module
attribute (``sl.checks.scan``), so the tracer's rebinding reaches the
benchmark's own calls as well as the library's internal ones.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

# Predicted minimal class of a rank-2 algebra of dimension 2n (the paper's
# omega table), kept here so the oracle does not trust predict_min_class.
PREDICTED_CLASS = {4: 5, 5: 6, 6: 7, 7: 7, 8: 7, 9: 8, 10: 8, 11: 8, 12: 8,
                   13: 9, 14: 9, 15: 9, 16: 9}

# Catalog classes from the paper; every catalog entry has rank 2.
CATALOG_CLASS = {"P8-2-1": 5, "P10-2-1": 6, "P10-2-2": 6, "P12-2-1": 7,
                 "P14-2-1": 7, "P16-2-1": 7}

# Seeds whose first scan cycle is recorded under golden/ at the seed commit.
DEFAULT_SEED = 1
HELDOUT_SEED = 9001
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class Op:
    label: str
    units: int  # ops this call stands for: a scan batch counts its samples
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


class Workload:
    """Builds the ops of each cycle from the seed; see the subclasses."""

    name = ""

    def warm_op(self) -> Op:
        raise NotImplementedError

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        """Problems found by checks that run once, after the timed loop."""
        return []


def _cli(sl, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sl.cli.main(argv)
    return code, buf.getvalue()


def _report_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


class Scan(Workload):
    """``checks.scan`` at n=6, p=3, rank filter 2, default worker setting.

    An op is one sample; the timed call is one scan of BATCH samples,
    which is what a scan user waits for.
    """

    name = "scan"
    N, P, BATCH, BATCHES_PER_CYCLE = 6, 3, 10, 10

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed

    def _run(self, batch_seed: int) -> str:
        cfg = self.sl.checks.ScanConfig(
            n=self.N, p=self.P, samples=self.BATCH, seed=batch_seed, rank_filter=2
        )
        return self.sl.checks.scan(cfg).render()

    def _check(self, text: str) -> str | None:
        lo, hi = PREDICTED_CLASS[self.N], 2 * self.N - 3
        fields = _report_fields(text)
        if fields.get("violations") != "0":
            return "scan reported violations"
        if fields.get("criterion-mismatches") != "0":
            return "criterion-mismatches is not 0"
        if fields.get("predicted-min-class") != str(lo):
            return "wrong predicted-min-class"
        total = 0
        for key, value in fields.items():
            if not key.startswith("count "):
                continue
            rank_part, class_part = key[len("count "):].split()
            cls = class_part.partition("=")[2]
            if rank_part != "rank=2":
                return f"rank filter leaked {key!r}"
            if not cls.isdigit() or not lo <= int(cls) <= hi:
                return f"class outside [{lo}, {hi}]: {key!r}"
            total += int(value)
        if str(total) != fields.get("classified"):
            return "counts do not sum to classified"
        return None

    def _op(self, batch_seed: int) -> Op:
        return Op(f"scan seed={batch_seed}", self.BATCH, partial(self._run, batch_seed), self._check)

    def batch_seeds(self, seed: int, cycle) -> list[int]:
        rnd = _rng(self.name, seed, cycle)
        return [rnd.getrandbits(63) for _ in range(self.BATCHES_PER_CYCLE)]

    def warm_op(self) -> Op:
        return self._op(_rng(self.name, self.seed, "warm").getrandbits(63))

    def cycle(self, k: int) -> list[Op]:
        return [self._op(s) for s in self.batch_seeds(self.seed, k)]

    def golden_text(self, seed: int) -> str:
        return "".join(self._run(s) for s in self.batch_seeds(seed, 0))

    def final_check(self) -> list[str]:
        problems = []
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            path = GOLDEN_DIR / f"scan_seed{seed}.txt"
            if path.read_text(encoding="utf-8") != self.golden_text(seed):
                problems.append(f"scan cycle 0 for seed {seed} differs from {path.name}")
        return problems


class Verify(Workload):
    """``saa verify`` over the catalog files and fresh random presentations.

    Each cycle draws, for every n, the first RANDOM_PER_PATH[n]
    presentations of its seeded stream that meet the maximal-class criterion
    and the first that do not.  Exactly half of the random files then take
    the costly maximal-class structure check, so runs with different seeds
    verify the same mix.  n = 8 gets more files so that the slowest group,
    n = 8 of maximal class, holds about 14 % of the ops and the p90 lies
    inside it rather than on its edge, where it would jump between seeds.
    """

    name = "verify"
    RANDOM_PER_PATH = {5: 2, 6: 2, 7: 2, 8: 4}

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed
        self.workdir = workdir
        field = sl.linalg.PrimeField(3)
        self.catalog_files = []
        for entry in sl.construct.catalog():
            for r in (1, 2) if entry.parameterized else (1,):
                path = workdir / f"{entry.name}_r{r}.saa"
                path.write_text(sl.presfile.emit_presentation(entry.presentation(field, r=r)))
                self.catalog_files.append((path, entry.name))

    def _run(self, path: Path) -> tuple[int, str]:
        return _cli(self.sl, ["verify", str(path)])

    @staticmethod
    def _check(expected_class: int | None, output) -> str | None:
        code, text = output
        fields = _report_fields(text)
        if code != 0 or fields.get("checks") != "pass":
            return f"verify exit {code}, checks: {fields.get('checks')}"
        if expected_class is not None:
            if fields.get("class") != str(expected_class) or fields.get("rank") != "2":
                return f"class {fields.get('class')} rank {fields.get('rank')}"
        return None

    def _op(self, path: Path, expected_class: int | None) -> Op:
        return Op(f"verify {path.name}", 1, partial(self._run, path),
                  partial(self._check, expected_class))

    def warm_op(self) -> Op:
        path, name = self.catalog_files[0]
        return self._op(path, CATALOG_CLASS[name])

    def cycle(self, k: int) -> list[Op]:
        ops = [self._op(path, CATALOG_CLASS[name]) for path, name in self.catalog_files]
        entropy = _rng(self.name, self.seed, k).getrandbits(63)
        for n, per_path in self.RANDOM_PER_PATH.items():
            cfg = self.sl.checks.ScanConfig(n=n, p=3, samples=1, seed=entropy)
            wanted = {True: per_path, False: per_path}
            i = 0
            while any(wanted.values()):
                pres = self.sl.checks.sample_presentation(cfg, i)
                alg = self.sl.algebra.build_algebra(pres)
                path_kind = self.sl.algebra.is_maximal_class_criterion(alg)
                if wanted[path_kind]:
                    wanted[path_kind] -= 1
                    path = self.workdir / f"random_c{k}_n{n}_{i}.saa"
                    path.write_text(self.sl.presfile.emit_presentation(pres))
                    ops.append(self._op(path, None))
                i += 1
        _rng(self.name, self.seed, f"order{k}").shuffle(ops)
        return ops


class Construct(Workload):
    """``saa construct --n N --p 3`` for N = 4..16, each output re-verified.

    n = 13 raises ConstructionError at the seed commit; it stays in the
    sweep and counts as a failed op.
    """

    name = "construct"
    SIZES = range(4, 17)

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed
        self.workdir = workdir
        self.verified: dict[int, Any] = {}

    def _run(self, n: int):
        out = self.workdir / f"construct_n{n}.saa"
        code, text = _cli(self.sl, ["construct", "--n", str(n), "--p", "3", "--out", str(out)])
        return code, text.replace(str(out), "OUT"), out.read_bytes()

    def _check(self, n: int, output) -> str | None:
        if n in self.verified:
            return None if self.verified[n] == output else "output changed between sweeps"
        code, text, data = output
        want = str(PREDICTED_CLASS[n])
        fields = _report_fields(text)
        if code != 0 or fields.get("class") != want or fields.get("rank") != "2":
            return f"exit {code}, class {fields.get('class')}, rank {fields.get('rank')}"
        if fields.get("predicted-class") != want:
            return f"predicted-class {fields.get('predicted-class')} != {want}"
        pres = self.sl.presfile.parse_presentation_file(data.decode("utf-8")).presentation
        if pres.n != n or not self.sl.algebra.validate_nilpotent_presentation(pres):
            return "written file is not a nilpotent presentation of the right size"
        rep = self.sl.algebra.series_report(self.sl.algebra.build_algebra(pres))
        if rep.nilpotency_class != PREDICTED_CLASS[n] or rep.rank != 2:
            return f"re-verify: class {rep.nilpotency_class}, rank {rep.rank}"
        self.verified[n] = output
        return None

    def _op(self, n: int) -> Op:
        return Op(f"construct n={n}", 1, partial(self._run, n), partial(self._check, n))

    def warm_op(self) -> Op:
        return self._op(4)

    def cycle(self, k: int) -> list[Op]:
        sizes = list(self.SIZES)
        _rng(self.name, self.seed, k).shuffle(sizes)
        return [self._op(n) for n in sizes]


class Classify(Workload):
    """Library-only invariants: fingerprints, scaling search, ideal chains.

    Scaling ops pair r = 1 with every other unit r for the parameterized
    families over GF(5) and GF(7), plus fresh random diagonal rescalings
    of the n <= 5 catalog entries.  Chain ops run on the algebras
    construct_minimal builds over GF(3) for n = 8..16; n = 13 has none at
    the seed commit, so its chain op is absent while that build fails.
    """

    name = "classify"
    PRIMES = (5, 7)
    # A diagonal scaling multiplies the r-triple by s^k relative to the
    # others (k = 3 for P8-2-1, k = 4 for P10-2-2, solving the unit
    # triples for the scales), so a witness exists iff r'/r is a k-th power.
    FAMILY_POWER = {"P8-2-1": 3, "P10-2-2": 4}
    RESCALE_BASES = ("P8-2-1", "P10-2-1", "P10-2-2")
    RESCALES_PER_CYCLE = 12
    CHAIN_SIZES = range(8, 17)

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed
        self.chain_inputs: list | None = None  # built with the first cycle
        self.checked_chains: set = set()

    def _build_chain_inputs(self) -> list:
        sl = self.sl
        inputs = []
        for n in self.CHAIN_SIZES:
            try:
                _, pres = sl.construct.construct_minimal(n, sl.linalg.PrimeField(3))
            except sl.construct.ConstructionError:
                continue
            inputs.append((n, sl.algebra.build_algebra(pres)))
        return inputs

    def _pair(self, a, b):
        fp = self.sl.construct.fingerprint
        build = self.sl.algebra.build_algebra
        return fp(build(a)), fp(build(b)), self.sl.construct.try_scaling_isomorphism(a, b)

    def _check_pair(self, a, b, must_exist: bool, output) -> str | None:
        fa, fb, witness = output
        if witness is None:
            return "no witness found where one exists" if must_exist else None
        if not must_exist:
            return "witness returned where none exists"
        if not self.sl.construct.verify_scaling_witness(a, b, witness):
            return "witness fails verify_scaling_witness"
        if fa != fb:
            return "isomorphic pair with different fingerprints"
        return None

    def _pair_op(self, label: str, a, b, must_exist: bool) -> Op:
        return Op(label, 1, partial(self._pair, a, b), partial(self._check_pair, a, b, must_exist))

    def _family_op(self, name: str, p: int, r: int) -> Op:
        field = self.sl.linalg.PrimeField(p)
        entry = self.sl.construct.catalog_entry(name)
        powers = {pow(s, self.FAMILY_POWER[name], p) for s in range(1, p)}
        return self._pair_op(f"scaling {name} GF({p}) r=1,{r}", entry.presentation(field, r=1),
                             entry.presentation(field, r=r), r in powers)

    def _rescaled(self, pres, scales):
        p = pres.field.p
        coordinate_scales = [c for s in scales for c in (s, pow(s, -1, p))]
        from_coordinate = self.sl.algebra.BasisVector.from_coordinate
        items = []
        for coords, value in self.sl.algebra.StructureTensor.from_presentation(pres).items():
            for c in coords:
                value = value * coordinate_scales[c] % p
            items.append((*map(from_coordinate, coords), value))
        return self.sl.algebra.Presentation.build(pres.n, pres.field, items)

    def _chain_check(self, alg, output) -> str | None:
        key = tuple(output)
        if key in self.checked_chains:
            return None
        alg_mod = self.sl.algebra
        if [term.dim for term in output] != list(range(alg.n + 1)):
            return f"chain dims {[term.dim for term in output]}"
        for lower, upper in zip(output, output[1:]):
            if not upper.contains_subspace(lower):
                return "chain is not ascending"
        for term in output:
            if not alg_mod.is_isotropic(alg, term) or not alg_mod.is_ideal(alg, term):
                return "chain term is not an isotropic ideal"
        self.checked_chains.add(key)
        return None

    def _chain(self, alg):
        return self.sl.algebra.isotropic_ideal_chain(alg)

    def _chain_op(self, n: int, alg) -> Op:
        return Op(f"chain n={n}", 1, partial(self._chain, alg), partial(self._chain_check, alg))

    def warm_op(self) -> Op:
        return self._family_op("P8-2-1", 7, 6)

    def cycle(self, k: int) -> list[Op]:
        ops = [self._family_op(name, p, r)
               for name in self.FAMILY_POWER for p in self.PRIMES for r in range(2, p)]
        rnd = _rng(self.name, self.seed, k)
        for i in range(self.RESCALES_PER_CYCLE):
            name = rnd.choice(self.RESCALE_BASES)
            p = rnd.choice(self.PRIMES)
            entry = self.sl.construct.catalog_entry(name)
            a = entry.presentation(self.sl.linalg.PrimeField(p), r=rnd.randrange(1, p))
            b = self._rescaled(a, [rnd.randrange(1, p) for _ in range(a.n)])
            ops.append(self._pair_op(f"rescale {name} GF({p}) #{i}", a, b, True))
        if self.chain_inputs is None:
            self.chain_inputs = self._build_chain_inputs()
        ops += [self._chain_op(n, alg) for n, alg in self.chain_inputs]
        rnd.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Scan, Verify, Construct, Classify)}
