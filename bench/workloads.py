"""The four workloads: input generation, one op per input, and its check.

Each workload turns the run's seed into a fixed-size list of cases.  The
shape ladder of every workload is the same for all seeds; the seed only
draws the random entries (through dilatory.randgen), so runs with different
seeds do the same amount of work.  An op is one CLI invocation through
dilatory.cli.main(argv) with stdout captured, or one library pipeline call.
Every op is looked up through its module at call time, so the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

import oracle


def _mod(name: str):
    return sys.modules[f"dilatory.{name}"]


def run_cli(argv) -> tuple[int, str]:
    """dilatory.cli.main(argv) with stdout captured and stderr dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _mod("cli").main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


@dataclass(eq=False)
class Case:
    """One input: what to run and what the oracle expects of it."""

    name: str
    code: int = 0
    argv: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


def _write(path, doc: dict):
    """Compact JSON: the program reads any layout, and json's C encoder
    keeps input generation from dominating set-up time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))


def _expected_ranks(phi) -> list[int]:
    images = np.stack(phi.basis_images)
    return oracle.spectral_ranks(oracle.choi_blocks(phi.domain.blocks, images))


class CliWorkload:
    """Ops are CLI invocations; an op's output is its exit code and stdout."""

    def memory_bound(self, case: Case) -> bool:
        """Whether the op's time is kept raw; see speed.py."""
        return False

    def run(self, case: Case):
        return run_cli(case.argv)

    def output_bytes(self, out) -> bytes:
        code, text = out
        return f"{code}\n".encode() + text.encode()

    def check(self, case: Case, out) -> float:
        code, text = out
        oracle.require(code == case.code, f"exit code {code}, expected {case.code}")
        if code in (4, 5):
            oracle.require(text == "", "a refused purification printed a result")
            return 0.0
        return self.check_text(case, text)


class DilateLadder(CliWorkload):
    """`dilate` on CP maps from (1,) to (10,) and three multi-block shapes."""

    name = "dilate-ladder"
    # every (n,) up to 6 and every multi-block shape with k = 1..8, then the
    # large rungs up to Gram side sum(n_j^2) k = 512
    LADDER = (
        [((n,), k) for n in range(1, 7) for k in range(1, 9)]
        + [(b, k) for b in ((4, 4), (3, 3, 3), (2, 2, 2, 2)) for k in range(1, 9)]
        + [((7,), 2), ((7,), 5), ((7,), 8), ((8,), 4), ((8,), 8), ((9,), 3), ((10,), 2), ((10,), 5)]
    )
    # rungs whose input is made not completely positive (10%)
    NOT_CP = frozenset((3, 13, 22, 31, 44, 52, 60, 70))
    WARMUP = ((6,), 4)

    def __init__(self, seed: int, workdir, tol):
        self.seed, self.workdir, self.tol = seed, workdir, tol

    def generate(self) -> list[Case]:
        randgen, serialize = _mod("randgen"), _mod("serialize")
        OcpMap = _mod("cpmap").OcpMap
        cases = []
        for i, (blocks, k) in enumerate(self.LADDER):
            rng = randgen.rng_for(self.seed, i)
            rank = i % 3 + 1
            phi = randgen.random_cp_map(rng, blocks, k, kraus_rank=rank)
            images = np.stack(phi.basis_images)
            cp = i not in self.NOT_CP
            if not cp:
                # subtract a rank-one CP map c psi large enough that every
                # Choi block gets an eigenvalue below -lambda_max(C_phi)
                psi = randgen.random_cp_map(rng, blocks, k, kraus_rank=1)
                extra = np.stack(psi.basis_images)
                top = max(np.linalg.eigvalsh(c)[-1] for c in oracle.choi_blocks(blocks, images))
                low = min(
                    np.linalg.eigvalsh(c)[-1] for c in oracle.choi_blocks(blocks, extra)
                )
                images = images - (2.0 * top / low) * extra
                phi = OcpMap(phi.domain, k, tuple(images))
            path = self.workdir / f"phi_{i:03d}.json"
            _write(path, serialize.encode_ocp_map(phi))
            cases.append(
                Case(
                    name=f"dilate {blocks} k={k} r={rank}{'' if cp else ' not-cp'}",
                    code=0 if cp else 2,
                    argv=["dilate", str(path)],
                    data={"blocks": blocks, "k": k, "images": images},
                )
            )
        return cases

    def warmup_index(self) -> int:
        return self.LADDER.index(self.WARMUP)

    def check_text(self, case: Case, text: str) -> float:
        d = case.data
        if case.code == 2:
            return oracle.check_not_cp(d["blocks"], d["images"], text)
        return oracle.check_dilation(d["blocks"], d["k"], d["images"], text)


class LawSuite(CliWorkload):
    """`laws --seed s --draws 1` over consecutive seeds at the default dims."""

    name = "law-suite"
    SEEDS = 300
    DRAWS = 1

    def __init__(self, seed: int, workdir, tol):
        self.base = 1000 * seed

    def generate(self) -> list[Case]:
        return [
            Case(
                name=f"laws seed={s}",
                argv=["laws", "--seed", str(s), "--draws", str(self.DRAWS)],
                data={"seed": s},
            )
            for s in range(self.base, self.base + self.SEEDS)
        ]

    def warmup_index(self) -> int:
        return 0

    def check_text(self, case: Case, text: str) -> float:
        return oracle.check_laws(case.data["seed"], self.DRAWS, text)


class PurifyPairs(CliWorkload):
    """`purify` on pairs of dilations of one map, and on refused pairs."""

    name = "purify-pairs"
    SHAPES = (
        ((1,), 1), ((2,), 1), ((2,), 2), ((1, 1), 1), ((1, 2), 2), ((3,), 2),
        ((2, 2), 1), ((2, 2), 2), ((4,), 2), ((1, 1, 1), 2), ((2, 3), 2),
        ((3,), 3), ((5,), 2), ((3, 3), 1), ((6,), 2), ((4, 4), 2),
    )
    # junk multiplicities (rep1, rep2) and flag per kind; 50% equivalent,
    # 30% inequivalent with --allow-inequivalent, 10% inequivalent without
    # it (exit 5), 10% with different restrictions (exit 4)
    KINDS = ("eq0", "eq1", "up", "eq1", "down", "refused", "eq0", "mixed", "mismatch", "eq1")
    CASES = 100

    def __init__(self, seed: int, workdir, tol):
        self.seed, self.workdir, self.tol = seed, workdir, tol

    @staticmethod
    def _extras(kind: str, t: int):
        zero, one = [0] * t, [1] * t
        if kind == "mixed" and t > 1:
            return [1] + [0] * (t - 1), [0] + [1] * (t - 1)
        return {
            "eq0": (zero, zero),
            "eq1": (one, one),
            "up": (zero, one),
            "mixed": (zero, one),
            "down": (one, zero),
            "refused": (zero, one),
            "mismatch": (zero, zero),
        }[kind]

    def generate(self) -> list[Case]:
        randgen, serialize = _mod("randgen"), _mod("serialize")
        cases = []
        for i in range(self.CASES):
            blocks, k = self.SHAPES[i % len(self.SHAPES)]
            kind = self.KINDS[i % len(self.KINDS)]
            e1, e2 = self._extras(kind, len(blocks))
            rng = randgen.rng_for(self.seed, i)
            phi, _, rep1, rep2 = randgen.random_dilation_pair(rng, blocks, k, self.tol, e1, e2)
            if kind == "mismatch":
                other = randgen.rng_for(self.seed, 100_000 + i)
                _, _, rep2, _ = randgen.random_dilation_pair(other, blocks, k, self.tol, e1, e2)
            ranks = _expected_ranks(phi)
            c1 = [r + e for r, e in zip(ranks, e1)]
            c2 = [r + e for r, e in zip(ranks, e2)]
            grows = any(a < b for a, b in zip(c1, c2))
            shrinks = any(a > b for a, b in zip(c1, c2))
            label = {(False, False): "unitary", (True, False): "isometry",
                     (False, True): "co-isometry", (True, True): "mixed"}[(grows, shrinks)]
            paths = []
            for side, rep in (("a", rep1), ("b", rep2)):
                path = self.workdir / f"rep_{i:03d}{side}.json"
                _write(path, serialize.encode_anchored_rep(rep))
                paths.append(str(path))
            flag = kind in ("up", "down", "mixed")
            code = {"mismatch": 4, "refused": 5}.get(kind, 0)
            cases.append(
                Case(
                    name=f"purify {blocks} k={k} {kind} h={rep1.h}/{rep2.h}",
                    code=code,
                    argv=["purify", *paths] + (["--allow-inequivalent"] if flag else []),
                    data={
                        "blocks": blocks, "c1": c1, "c2": c2, "label": label,
                        "p1": np.stack(rep1.pi_images), "v1": np.asarray(rep1.V),
                        "p2": np.stack(rep2.pi_images), "v2": np.asarray(rep2.V),
                    },
                )
            )
        return cases

    def warmup_index(self) -> int:
        return self.SHAPES.index(((5,), 2))

    def check_text(self, case: Case, text: str) -> float:
        return oracle.check_purification(case.data, text)


class RepAudit:
    """validate_rep -> is_minimal -> commutant -> normal_form_general_rep
    on inflated dilations with ambient dimension h from 1 to 15."""

    name = "rep-audit"
    # (blocks, k, Kraus rank, junk multiplicities); h = sum n_j (r_j + e_j).
    # The h = 15 rung asks commutant for a full U of a 4050-row stack; the
    # (4, 4) shape with one junk copy per block (h = 24) would ask for
    # 20 GiB, so it stays out.
    LARGE = (
        ((3,), 3, 3, (2,)),
        ((2, 2), 2, 2, (1, 1)),
        ((4,), 2, 2, (0,)),
        ((3,), 2, 2, (1,)),
        ((2, 2), 2, 1, (1, 1)),
        ((2,), 3, 3, (2,)),
        ((1, 2), 3, 2, (1, 1)),
    )
    SMALL = (
        ((1,), 1, 1, (0,)),
        ((1,), 2, 2, (1,)),
        ((2,), 1, 1, (0,)),
        ((2,), 2, 1, (1,)),
        ((2,), 2, 2, (0,)),
        ((1, 1), 1, 1, (1, 0)),
        ((1, 1), 2, 2, (1, 1)),
        ((1, 2), 1, 1, (0, 1)),
        ((2,), 1, 1, (2,)),
        ((3,), 1, 1, (0,)),
        ((1, 1, 1), 1, 1, (1, 0, 1)),
        ((3,), 1, 1, (1,)),
        ((1, 2), 2, 1, (0, 0)),
    )
    CASES = 100
    # full U of commutant's stack from this size on: memory-bound, see speed.py
    MEMORY_BOUND_BYTES = 8 << 20

    def __init__(self, seed: int, workdir, tol):
        self.seed, self.tol = seed, tol

    def memory_bound(self, case: Case) -> bool:
        rep = case.data["rep"]
        rows = 2 * len(rep.pi_images) * rep.h**2
        return 16 * rows**2 >= self.MEMORY_BOUND_BYTES

    def ladder(self):
        stride = self.CASES // len(self.LARGE)
        small = iter(self.SMALL * self.CASES)
        return [
            self.LARGE[i // stride] if i % stride == 0 and i // stride < len(self.LARGE)
            else next(small)
            for i in range(self.CASES)
        ]

    def generate(self) -> list[Case]:
        randgen = _mod("randgen")
        stinespring_dilate = _mod("dilation").stinespring_dilate
        cases = []
        for i, (blocks, k, rank, extra) in enumerate(self.ladder()):
            rng = randgen.rng_for(self.seed, i)
            phi = randgen.random_cp_map(rng, blocks, k, kraus_rank=rank)
            rep = randgen.inflate_rep(rng, stinespring_dilate(phi, self.tol), list(extra))
            mults = tuple(r + e for r, e in zip(_expected_ranks(phi), extra))
            cases.append(
                Case(
                    name=f"audit {blocks} k={k} r={rank} junk={extra} h={rep.h}",
                    data={"rep": rep, "blocks": blocks, "mults": mults,
                          "minimal": not any(extra), "p": np.stack(rep.pi_images)},
                )
            )
        return cases

    def warmup_index(self) -> int:
        return self.ladder().index(self.LARGE[4])

    def run(self, case: Case):
        dilation, algebra, geometry = _mod("dilation"), _mod("algebra"), _mod("geometry")
        rep = case.data["rep"]
        report = dilation.validate_rep(rep, self.tol)
        minimal = dilation.is_minimal(rep, self.tol)
        basis = algebra.commutant(rep.pi_images, rep.h, self.tol)
        mults, r = geometry.normal_form_general_rep(rep.pi_images, rep.algebra, self.tol)
        return report.ok, report.residuals, minimal, basis, mults, r

    def output_bytes(self, out) -> bytes:
        ok, residuals, minimal, basis, mults, r = out
        head = repr((ok, sorted((k, float(v).hex()) for k, v in residuals.items()),
                     minimal, tuple(mults)))
        return b"".join([head.encode(), *(np.ascontiguousarray(b).tobytes() for b in basis),
                         np.ascontiguousarray(r).tobytes()])

    def check(self, case: Case, out) -> float:
        return oracle.check_audit(case.data, out)


WORKLOADS = {w.name: w for w in (DilateLadder, LawSuite, PurifyPairs, RepAudit)}


def inputs_digest(cases) -> str:
    """Digest of every generated input, to key stored output digests."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.name.encode())
        for arg in case.argv:
            if arg.endswith(".json"):
                with open(arg, "rb") as fh:
                    h.update(fh.read())
        for key in ("images", "p", "p1", "p2"):
            if key in case.data:
                h.update(np.ascontiguousarray(case.data[key]).tobytes())
    return h.hexdigest()
